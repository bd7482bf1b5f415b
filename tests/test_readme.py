"""The README's library quick tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_descends():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    trace = namespace["trace"]
    assert trace.converged
    # the start is perturbed, so the descent takes real steps to F = 6
    assert len(trace.iterations) - 1 > 1
    assert trace.iterations[0][1] > trace.iterations[-1][1]
    assert abs(trace.iterations[-1][1] - 6.0) <= 1e-8
    assert namespace["pkg"].norm_T2 == 2.0
