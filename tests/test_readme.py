"""The README's library quick tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_descends():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    opt = namespace["opt"]
    assert opt["converged"]
    # the start is perturbed, so the descent takes real steps to F = 6
    assert opt["iterations"] > 1
    final = opt["trace"][-1]["objective"]
    assert opt["trace"][0]["objective"] > final
    assert abs(final - 6.0) <= 1e-8
    # the analysis minimize returns is the one its last objective read
    assert namespace["F_star"] == final
    assert namespace["pkg"].norm_T2 == 2.0
