"""Span tracer for the benchmark: times calls into compatlearn from outside it.

compatlearn's modules import each other's functions by name (``from .network
import forward_features``), so every importing module holds its own binding.
Patching only the defining module would miss those calls. ``traced`` replaces
every binding of each target function in every loaded compatlearn module with
a timing wrapper and puts the originals back on exit, so untraced passes run
unpatched code.

A span is ``[name, start_ns, end_ns, parent_index]``; spans stay in memory
until the run ends. A layer's self time is its span minus the part of that
interval covered by its child spans.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "compatlearn"


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _file_size(position, name):
    return lambda a, k, r: os.path.getsize(_arg(a, k, position, name))


def _distinct_pair_rows(a, k, r):
    """Distinct held-out samples the pair set touches, times the checkpoints."""
    pairs = _arg(a, k, 1, "pairs")
    return len(np.union1d(pairs.ids_a, pairs.ids_b)) * len(_arg(a, k, 0, "models"))


def _candidate_pairs(a, k, r):
    n = len(_arg(a, k, 0, "dataset"))
    return n * (n - 1) // 2


def _rows_returned(a, k, r):
    return len(r)


# module -> function -> {stat: hook(args, kwargs, result) -> count}. Every
# target also counts ``calls``; "{caller}" in a stat names the module whose
# binding made the call. Generator functions count ``batches`` instead.
TARGETS = {
    "data": {
        "make_synthetic": {},
        "split_tasks": {},
        "generate_pairs": {"candidates": _candidate_pairs},
        "load_csv": {"rows": _rows_returned},
        "save_csv": {},
        "load_pairs": {},
        "save_pairs": {},
    },
    "geometry": {"build_simplex": {}},
    "network": {
        "forward_features": {"rows": lambda a, k, r: len(r[0])},
        "extract_features": {"rows.{caller}": _rows_returned},
        "backprop_feature_grads": {},
        "apply_gradients": {},
    },
    "losses": {
        "combined_loss": {},
        "ce_simplex_loss": {},
        "ce_trainable_loss": {},
        "feature_distillation_loss": {"rows": lambda a, k, r: len(_arg(a, k, 0, "new_features"))},
    },
    "memory": {
        "build_training_set": {"memory_rows": lambda a, k, r: int(r.from_memory.sum())},
        "update_memory": {},
        "iter_minibatches": {},
    },
    "trainer": {"run_task": {}, "persist_timeline": {}},
    "checkpoint": {
        "save_model": {"bytes": _file_size(1, "path")},
        "load_model": {},
        "save_memory": {},
    },
    "container": {"read_container": {}},
    "evalkit": {
        "build_compatibility_matrix": {"distinct_rows": _distinct_pair_rows},
        "verification_accuracy": {},
        "tar_at_far": {},
        "compatibility_report": {},
    },
    "gallery": {
        "index_gallery": {"rows": _rows_returned},
        "save_gallery": {"bytes": _file_size(1, "path")},
        "load_gallery": {},
        "search": {
            "rows": _rows_returned,
            "sim_bytes": lambda a, k, r: len(r) * len(_arg(a, k, 2, "gallery")) * 8,
        },
        "recall_at_1": {},
    },
    "cli": {"cmd_train": {}, "cmd_eval": {}, "cmd_search": {}, "write_manifest": {}},
}


class Tracer:
    """Spans and counters of one traced phase, held in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def raw(self) -> dict:
        """Counters plus ``<span>.self_s`` for every span name."""
        out = dict(self.counts)
        for name, ns in self_times(self.spans).items():
            out[f"{name}.self_s"] = ns / 1e9
        return out


def self_times(spans) -> dict:
    """Total self time in ns per span name: duration minus child coverage."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(int)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def _wrap(tracer, original, name, hooks):
    counts = tracer.counts
    calls_key, batches_key = f"{name}.calls", f"{name}.batches"
    keyed_hooks = [(f"{name}.{stat}", hook) for stat, hook in hooks.items()]
    if inspect.isgeneratorfunction(original):

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            inner = original(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                counts[batches_key] += 1
                yield item

    else:

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            counts[calls_key] += 1
            for key, hook in keyed_hooks:
                counts[key] += hook(args, kwargs, result)
            return result

    functools.update_wrapper(wrapper, original)
    wrapper.perfbench_original = original
    return wrapper


def _package_modules():
    return [
        (name, module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _plan(tracer):
    """(module, attribute, original, wrapper) for every binding of every target."""
    modules = _package_modules()
    plan = []
    for module_name, functions in TARGETS.items():
        home = sys.modules.get(f"{PACKAGE}.{module_name}")
        for func_name, hooks in functions.items():
            original = getattr(home, func_name, None)
            if original is None:
                print(f"perfbench: trace target {module_name}.{func_name} not found", file=sys.stderr)
                continue
            for holder_name, holder in modules:
                if getattr(holder, func_name, None) is not original:
                    continue
                caller = holder_name.rpartition(".")[2]
                bound = {stat.format(caller=caller): hook for stat, hook in hooks.items()}
                wrapper = _wrap(tracer, original, f"{module_name}.{func_name}", bound)
                plan.append((holder, func_name, original, wrapper))
    return plan


@contextmanager
def traced(tracer: Tracer):
    """Route every target binding through ``tracer`` for the body of the block."""
    plan = _plan(tracer)
    try:
        for holder, attr, _, wrapper in plan:
            setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original, _ in plan:
            setattr(holder, attr, original)


def patched_bindings() -> list:
    """Names of package bindings that still point at a tracing wrapper."""
    return [
        f"{name}.{attr}"
        for name, module in _package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, "perfbench_original")
    ]
