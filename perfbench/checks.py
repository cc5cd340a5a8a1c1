"""Correctness checks the benchmark applies to the outputs it times.

Each check returns a list of problems (empty when the output is right). The
references here are deliberately plain: Python loops over the matrix and a
full sort per query, not the package's own vectorised code.
"""

import json
from pathlib import Path

import numpy as np

from compatlearn import checkpoint, data, evalkit, network

SCORE_TOL = 1e-9
SIM_TOL = 1e-12


def read_matrix(path) -> list:
    """Rows of matrix.csv as lists of floats (the header line is skipped)."""
    lines = Path(path).read_text().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines if line]


def plain_report(c) -> dict:
    """ac, bc and fc of a lower-triangular matrix by plain loops."""
    t_count = len(c)
    wins = 0
    comparisons = 0
    for t in range(1, t_count):
        for k in range(t):
            comparisons += 1
            if c[t][k] > c[k][k]:
                wins += 1
    last = t_count - 1
    bc = sum(c[last][k] - c[k][k] for k in range(last)) / last
    fc = sum(c[k][k - 1] - c[k][k] for k in range(1, t_count)) / (t_count - 1)
    return {"ac": wins / comparisons, "bc": bc, "fc": fc}


def check_report(eval_dir) -> list:
    """report.json's ac, bc and fc against a plain loop over matrix.csv."""
    matrix = read_matrix(Path(eval_dir) / "matrix.csv")
    report = json.loads((Path(eval_dir) / "report.json").read_text())
    expected = plain_report(matrix)
    return [
        f"{eval_dir}: report {key}={report.get(key)!r}, plain loop gives {value!r}"
        for key, value in expected.items()
        if not isinstance(report.get(key), float) or abs(report[key] - value) > SIM_TOL
    ]


def check_identical(dir_a, dir_b, names) -> list:
    """Files that differ between two passes run with the same seed."""
    return [
        f"{Path(dir_b) / name} differs from {Path(dir_a) / name}"
        for name in names
        if (Path(dir_a) / name).read_bytes() != (Path(dir_b) / name).read_bytes()
    ]


def check_cells(exp_dir, eval_dir, metric, far, cells) -> list:
    """Re-score matrix cells through pair_scores and the metric functions."""
    exp = Path(exp_dir)
    models = [checkpoint.load_model(p) for p in sorted(exp.glob("checkpoint_task_*.ckpt"))]
    pairs = data.load_pairs(exp / "pairs.csv", data.load_csv(exp / "eval_data.csv"))
    matrix = read_matrix(Path(eval_dir) / "matrix.csv")
    problems = []
    for t, k in cells:
        scores, genuine = evalkit.pair_scores(pairs, models[t], models[k])
        if metric == "accuracy":
            value = evalkit.verification_accuracy(scores, genuine).value
        else:
            value = evalkit.tar_at_far(scores, genuine, far).value
        if abs(value - matrix[t][k]) > SCORE_TOL:
            problems.append(
                f"{eval_dir}: cell ({t + 1},{k + 1}) reads {matrix[t][k]!r}, re-scored {value!r}"
            )
    return problems


def reference_ranking(query_features, stored, ids) -> list:
    """Every gallery entry as (id, cosine), sorted by cosine then ascending id."""
    q = np.asarray(query_features, dtype=np.float64)
    sims = stored @ q / (np.linalg.norm(stored, axis=1) * np.linalg.norm(q))
    sims = np.clip(sims, -1.0, 1.0)
    return sorted(zip(ids, sims.tolist()), key=lambda item: (-item[1], item[0]))


def check_ranked(result, reference, top_n) -> list:
    """One query's ranked (id, similarity) list against the full-sort reference.

    Similarities may differ from the reference in the last bits (different
    summation order), so an id may swap with a neighbour whose reference
    similarity lies within SIM_TOL; exact ties must come in ascending id order.
    """
    truth = dict(reference)
    ids = [gid for gid, _ in result]
    problems = []
    if len(result) != top_n or len(set(ids)) != len(ids):
        return [f"expected {top_n} distinct ids, got {ids}"]
    for rank, (gid, sim) in enumerate(result):
        want = reference[rank][1]
        if gid not in truth or abs(truth[gid] - sim) > SIM_TOL or abs(want - sim) > SIM_TOL:
            problems.append(f"rank {rank + 1}: got ({gid}, {sim!r}), reference {reference[rank]}")
    for (id_a, sim_a), (id_b, sim_b) in zip(result, result[1:]):
        if sim_a == sim_b and not id_a < id_b:
            problems.append(f"tie at {sim_a!r} not broken by ascending id: {id_a}, {id_b}")
    return problems


def read_search_csv(path) -> dict:
    """cmd_search output as {query_index: (label, [(id, similarity), ...])}."""
    out = {}
    lines = Path(path).read_text().splitlines()
    for line in lines[1:]:
        qi, label, _, gid, sim = line.split(",")
        entry = out.setdefault(int(qi), (int(label), []))
        entry[1].append((gid, float(sim)))
    return out


def check_search(ranked_by_query, queries, model, gallery_obj, sample, top_n) -> list:
    """Ranked results of sampled queries against the reference ranking."""
    feats = network.extract_features(model, queries.inputs[sample])
    problems = []
    for qi, q in zip(sample, feats):
        reference = reference_ranking(q, gallery_obj.features, gallery_obj.ids)
        result = ranked_by_query.get(int(qi))
        if result is None:
            problems.append(f"query {qi}: no results")
            continue
        problems += [f"query {qi}: {p}" for p in check_ranked(result, reference, top_n)]
    return problems
