"""The README's library sketch runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_sketch_runs(capsys):
    sketch = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", sketch, re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.startswith("CompatibilityReport(ac=")
    assert [len(hits) for hits in namespace["hits"]] == [3] * 5
