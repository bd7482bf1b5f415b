"""Command-line interface: parsing, reports, exit codes, golden stability."""

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import hermlab
import hermlab.cli as cli
import hermlab.lie_hermitian as lh
import hermlab.torsion_engine as te

NAN = float("nan")
KT_J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
KT_REAL = {"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [1, 2], "val": 1.0}], "J": KT_J}}


def _write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# input parsing


def test_parse_catalog_input():
    hs = cli.parse_input({"catalog": "so3c"})
    assert hs.n == 3
    assert np.allclose(hs.H, np.eye(3))


def test_parse_explicit_terms_one_based():
    doc = {
        "n": 2,
        "D": [{"up": 2, "lo": [1, 1], "re": -1.0}],
        "metric": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }
    hs = cli.parse_input(doc)
    assert hs.sc.D[1, 0, 0] == -1.0
    assert hs.H[0, 0] == 2.0


def test_parse_real_algebra_input():
    doc = {
        "real_algebra": {
            "dim": 4,
            "f": [{"up": 3, "lo": [1, 2], "val": 1.0}],
            "J": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        }
    }
    hs = cli.parse_input(doc)
    assert hs.n == 2


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"catalog": "so3c", "n": 2, "C": []},
        {"catalog": "unknown-entry"},
        {"n": 2, "C": [{"up": 3, "lo": [1, 1], "re": 1.0}]},
        {"n": 2, "C": [{"up": 1, "lo": [1], "re": 1.0}]},
        {"catalog": "so3c", "metric": [[1]]},
        "not a dict",
    ],
)
def test_parse_rejects_malformed(doc):
    with pytest.raises(cli.InputError):
        cli.parse_input(doc)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_text_output(tmp_path, capsys):
    path = _write(tmp_path, {"catalog": "so3c"})
    code, out, err = _run(capsys, "analyze", path)
    assert code == cli.EXIT_OK
    assert "|T|^2   = 6" in out
    assert "balanced     True" in out


def test_analyze_json_report(tmp_path, capsys):
    path = _write(tmp_path, {"catalog": "kodaira-thurston"})
    code, out, _ = _run(capsys, "analyze", path, "--format", "json")
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["torsion"]["norm_T2"] == pytest.approx(2.0)
    assert report["classification"]["gauduchon"]["flag"] is True
    assert report["classification"]["balanced"]["flag"] is False
    assert report["residuals"]["norm_Q_G"] == pytest.approx(np.sqrt(4.5))
    # serialized floats round-trip exactly
    again = json.loads(json.dumps(report))
    assert again == report


def test_analyze_with_metric(tmp_path, capsys):
    H = [[[4.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
    path = _write(tmp_path, {"catalog": "so3c", "metric": H})
    code, out, _ = _run(capsys, "analyze", path, "--format", "json")
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["torsion"]["norm_T2"] != pytest.approx(6.0)


def test_analyze_output_file(tmp_path, capsys):
    path = _write(tmp_path, {"catalog": "abelian-2"})
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "analyze", path, "--format", "json", "--output", str(out_path)
    )
    assert code == cli.EXIT_OK and out == ""
    report = json.loads(out_path.read_text())
    assert report["classification"]["kahler"]["flag"] is True


def test_analyze_invalid_inputs_exit_1(tmp_path, capsys):
    # unknown catalog name
    code, _, err = _run(capsys, "analyze", _write(tmp_path, {"catalog": "bogus-1"}))
    assert code == cli.EXIT_INVALID_INPUT and "error" in err
    # non-positive-definite metric
    bad = {"catalog": "abelian-2",
           "metric": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}
    code, _, _ = _run(capsys, "analyze", _write(tmp_path, bad, "bad.json"))
    assert code == cli.EXIT_INVALID_INPUT
    # structure constants failing validation
    broken = {"n": 3, "C": [{"up": 1, "lo": [2, 3], "re": 1.0}]}
    code, _, _ = _run(capsys, "analyze", _write(tmp_path, broken, "broken.json"))
    assert code == cli.EXIT_INVALID_INPUT
    # missing file
    code, _, _ = _run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == cli.EXIT_INVALID_INPUT
    # unreadable JSON
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, _ = _run(capsys, "analyze", str(garbled))
    assert code == cli.EXIT_INVALID_INPUT


@pytest.mark.parametrize(
    "doc, env_tol",
    [
        ({"n": 3, "C": [{"up": 1, "lo": [2, 3], "re": NAN}]}, None),
        ({"n": 2, "D": [{"up": 2, "lo": [1, 1], "im": NAN}]}, None),
        ({"catalog": "abelian-2",
          "metric": [[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, None),
        ({"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [1, 2], "val": NAN}], "J": KT_J}},
         None),
        ({"real_algebra": {"dim": 4, "f": [], "J": KT_J},
          "metric": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [NAN, 0.0]]]}, None),
        ({"catalog": "abelian-2", "metric": [["a", "b"], [1, 2]]}, None),
        ({"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [1], "val": 1.0}], "J": KT_J}},
         None),
        ({"real_algebra": {"dim": 4, "f": [{"up": 5, "lo": [1, 2], "val": 1.0}], "J": KT_J}},
         None),
        ({"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [1, 1], "val": 1.0}], "J": KT_J}},
         None),
        ({"catalog": "so3c"}, "abc"),
        ({"catalog": "so3c"}, "nan"),
    ],
    ids=["nan-C", "nan-D", "nan-metric", "nan-real-f", "nan-real-metric",
         "malformed-metric", "malformed-real-f", "range-real-f", "repeated-real-f",
         "tol-abc", "tol-nan"],
)
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, monkeypatch, doc, env_tol):
    if env_tol is not None:
        monkeypatch.setenv("HERMLAB_TOL", env_tol)
    code, out, err = _run(capsys, "analyze", _write(tmp_path, doc), "--format", "json")
    assert code == cli.EXIT_INVALID_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def test_abelian_1_report_is_strict_json(tmp_path, capsys):
    path = _write(tmp_path, {"catalog": "abelian-1"})
    code, out, _ = _run(capsys, "analyze", path, "--format", "json")
    assert code == cli.EXIT_OK
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["classification"]["lck_shape"] == {"flag": True, "residual": 0.0}


def test_non_finite_report_exits_2(tmp_path, capsys, monkeypatch):
    real = cli.build_report
    monkeypatch.setattr(cli, "build_report", lambda *a: {**real(*a), "bad": NAN})
    path = _write(tmp_path, {"catalog": "so3c"})
    code, out, err = _run(capsys, "analyze", path, "--format", "json")
    assert code == cli.EXIT_NUMERICAL
    assert out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, analyses, doc",
    [
        (["analyze"], 1, {"catalog": "iwasawa"}),
        (["check-critical"], 1, {"catalog": "iwasawa"}),
        (["check-critical", "--functional", "gauduchon"], 1, {"catalog": "iwasawa"}),
        (["variation-check", "--directions", "3"], 1 + 2 * 3, {"catalog": "iwasawa"}),
        (["analyze"], 1, KT_REAL),
    ],
    ids=["argv0-1", "argv1-1", "argv2-1", "argv3-7", "real-algebra"],
)
def test_one_analysis_and_validation_per_report(tmp_path, capsys, monkeypatch, argv, analyses,
                                                doc):
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(te, "analyze")
    count(lh, "validate")
    path = _write(tmp_path, doc)
    code, _, _ = _run(capsys, argv[0], path, *argv[1:])
    assert code in (cli.EXIT_OK, cli.EXIT_NOT_SATISFIED)
    assert calls == {"analyze": analyses, "validate": 1}


def _python(*args):
    """Run a fresh interpreter on the hermlab under test."""
    src = os.path.dirname(os.path.dirname(hermlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_cli_import_does_not_load_scipy():
    code = "import sys, hermlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = _python("-c", code)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("k", [5, 6])
def test_analyze_sokc_ladder_rungs(tmp_path, k):
    # n = 10 and n = 15: semisimple, so no relabeling is triangular
    path = _write(tmp_path, {"catalog": f"sokc-{k}"})
    proc = _python("-m", "hermlab.cli", "analyze", path, "--format", "json")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert report["classification"]["nilpotent_J"] == {"flag": False, "witness": None}
    assert report["residuals"]["norm_Q_F"] <= 1e-8


def test_analyze_heisenberg_centre_first_witness(tmp_path):
    # d z = -sum x_i ^ y_i with z listed first: z must move to the end
    m = 4
    C = []
    for i in range(m):
        x, y = 2 + i, 2 + m + i
        C += [{"up": 1, "lo": [x, y], "re": 1.0}, {"up": 1, "lo": [y, x], "re": -1.0}]
    path = _write(tmp_path, {"n": 2 * m + 1, "C": C, "D": []})
    proc = _python("-m", "hermlab.cli", "analyze", path, "--format", "json")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert report["classification"]["nilpotent_J"] == {
        "flag": True, "witness": [1, 2, 3, 4, 5, 6, 7, 8, 0]}


def test_golden_reports_byte_stable(tmp_path, capsys):
    for name in ("so3c", "iwasawa", "kodaira-thurston", "abelian-2", "sokc-4"):
        path = _write(tmp_path, {"catalog": name}, f"{name}.json")
        _, first, _ = _run(capsys, "analyze", path, "--format", "json")
        _, second, _ = _run(capsys, "analyze", path, "--format", "json")
        assert first == second
        assert first.encode() == second.encode()


# ---------------------------------------------------------------------------
# check-critical


def test_check_critical_exit_codes(tmp_path, capsys):
    so3c = _write(tmp_path, {"catalog": "so3c"}, "so3c.json")
    code, out, _ = _run(capsys, "check-critical", so3c, "--format", "json")
    assert code == cli.EXIT_OK
    assert json.loads(out)["criticality"]["critical"] is True

    iwa = _write(tmp_path, {"catalog": "iwasawa"}, "iwa.json")
    code, out, _ = _run(capsys, "check-critical", iwa, "--format", "json")
    assert code == cli.EXIT_NOT_SATISFIED
    rep = json.loads(out)["criticality"]
    assert rep["critical"] is False
    assert rep["residual_norm"] == pytest.approx(np.sqrt(96.0) / 3)


def test_check_critical_gauduchon(tmp_path, capsys):
    iwa = _write(tmp_path, {"catalog": "iwasawa"})
    code, _, _ = _run(capsys, "check-critical", iwa, "--functional", "gauduchon")
    assert code == cli.EXIT_OK
    kt = _write(tmp_path, {"catalog": "kodaira-thurston"}, "kt.json")
    code, _, _ = _run(capsys, "check-critical", kt, "--functional", "gauduchon")
    assert code == cli.EXIT_NOT_SATISFIED


def test_check_critical_tolerance_flag(tmp_path, capsys):
    iwa = _write(tmp_path, {"catalog": "iwasawa"})
    code, _, _ = _run(capsys, "check-critical", iwa, "--tol", "10.0")
    assert code == cli.EXIT_OK


def test_tol_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HERMLAB_TOL", "10.0")
    iwa = _write(tmp_path, {"catalog": "iwasawa"})
    code, _, _ = _run(capsys, "check-critical", iwa)
    assert code == cli.EXIT_OK


# ---------------------------------------------------------------------------
# variation-check


def test_variation_check_passes(tmp_path, capsys):
    for name in ("iwasawa", "kodaira-thurston"):
        path = _write(tmp_path, {"catalog": name}, f"{name}.json")
        code, out, _ = _run(
            capsys, "variation-check", path, "--directions", "5", "--format", "json"
        )
        assert code == cli.EXIT_OK
        rep = json.loads(out)["variation_check"]
        assert rep["passed"] is True
        assert rep["max_relative_deviation"] <= 1e-5


def test_variation_check_seed_reproducible(tmp_path, capsys):
    path = _write(tmp_path, {"catalog": "iwasawa"})
    _, a, _ = _run(capsys, "variation-check", path, "--seed", "3", "--format", "json")
    _, b, _ = _run(capsys, "variation-check", path, "--seed", "3", "--format", "json")
    assert a == b


# ---------------------------------------------------------------------------
# optimize


def test_optimize_abelian_converges(tmp_path, capsys):
    path = _write(tmp_path, {"catalog": "abelian-3"})
    code, out, _ = _run(
        capsys, "optimize", path, "--perturb", "0.5", "--seed", "1",
        "--format", "json",
    )
    assert code == cli.EXIT_OK
    rep = json.loads(out)["optimization"]
    assert rep["converged"] is True
    assert rep["final_objective"] == 0.0


def test_optimize_so3c_residual_norm(tmp_path, capsys):
    path = _write(tmp_path, {"catalog": "so3c"})
    code, out, _ = _run(
        capsys, "optimize", path, "--objective", "residual_norm",
        "--perturb", "0.1", "--seed", "7", "--max-iter", "500",
        "--grad-tol", "1e-10", "--objective-tol", "1e-13", "--format", "json",
    )
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["optimization"]["converged"] is True
    assert rep["residuals"]["norm_Q_F"] <= 1e-6


@pytest.mark.parametrize("perturb, seed", [("2.0", "2"), ("3.0", "0"), ("10.0", "0")])
def test_optimize_far_start_rejects_invalid_trial_steps(tmp_path, perturb, seed):
    # long Armijo trials from these starts leave the numerically valid cone:
    # det H rounds negative, the Cholesky factorization fails, exp(S) overflows
    path = _write(tmp_path, {"catalog": "so3c"})
    proc = _python("-m", "hermlab.cli", "optimize", path, "--perturb", perturb,
                   "--seed", seed, "--format", "json")
    assert proc.returncode in (cli.EXIT_OK, cli.EXIT_NOT_SATISFIED), proc.stderr
    assert proc.stderr == ""
    rep = json.loads(proc.stdout, parse_constant=_reject_constant)["optimization"]
    assert abs(rep["final_objective"] - 6.0) <= 1e-8


@pytest.mark.parametrize("name, perturb, seed, critical", [
    ("so3c", "3.0", "1", 6.0),
    ("so3c", "3.0", "5", 6.0),
    ("so3c", "20", "0", 6.0),
    ("sokc-4", "0.1", "7", 24.0),
    ("sokc-5", "0.1", "7", 60.0),
])
def test_optimize_reaches_critical_value(tmp_path, name, perturb, seed, critical):
    # these descents reach the critical value to rounding; the line search
    # then accepts no trial and the run stops converged, not stagnated
    path = _write(tmp_path, {"catalog": name})
    proc = _python("-m", "hermlab.cli", "optimize", path, "--perturb", perturb,
                   "--seed", seed, "--format", "json")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr == ""
    rep = json.loads(proc.stdout, parse_constant=_reject_constant)
    opt, res = rep["optimization"], rep["residuals"]
    assert opt["converged"] is True
    assert opt["reason"] in ("gradient_tolerance", "precision_limit")
    objs = [row["objective"] for row in opt["trace"]]
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    assert abs(res["F_value"] - critical) <= 1e-8 * critical
    # Q_F scales as 1/c under H -> cH; V^(1/n) |Q_F| is the scale-free
    # residual (the so3c --perturb 20 start keeps V^(1/3) = 0.043)
    H = np.array([[complex(*z) for z in row] for row in opt["H_star"]])
    volume_root = np.linalg.det(H).real ** (1.0 / len(H))
    assert volume_root * res["norm_Q_F"] <= 1e-6


@pytest.mark.parametrize("seed", ["0", "1"])
def test_optimize_unusable_perturbed_start_exits_1(tmp_path, seed):
    # exp(S0) with |S0| = 40 is not positive definite (seed 0) or has a
    # determinant that rounds to a non-positive number (seed 1)
    path = _write(tmp_path, {"catalog": "so3c"})
    proc = _python("-m", "hermlab.cli", "optimize", path, "--perturb", "40",
                   "--seed", seed, "--format", "json")
    assert proc.returncode == cli.EXIT_INVALID_INPUT
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: start metric from --perturb 40 is unusable: ")


def test_optimize_non_positive_definite_metric_exits_1(tmp_path, capsys):
    bad = {"catalog": "abelian-2",
           "metric": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}
    code, out, err = _run(capsys, "optimize", _write(tmp_path, bad))
    assert code == cli.EXIT_INVALID_INPUT
    assert out == "" and err == "error: Matrix is not positive definite\n"


def test_optimize_not_converged_exit_3(tmp_path, capsys):
    path = _write(tmp_path, {"catalog": "kodaira-thurston"})
    code, out, _ = _run(
        capsys, "optimize", path, "--objective", "gauduchon_functional",
        "--max-iter", "2", "--perturb", "0.2", "--format", "json",
    )
    assert code == cli.EXIT_NOT_SATISFIED
    assert json.loads(out)["optimization"]["converged"] is False


# ---------------------------------------------------------------------------
# catalog subcommand


def test_catalog_list(capsys):
    code, out, _ = _run(capsys, "catalog", "list")
    assert code == cli.EXIT_OK
    names = out.strip().splitlines()
    assert "so3c" in names and "kodaira-thurston" in names


def test_catalog_show(capsys):
    code, out, _ = _run(capsys, "catalog", "show", "so3c")
    assert code == cli.EXIT_OK
    assert "d f1 = f2 ^ f3" in out


def test_catalog_show_unknown(capsys):
    code, _, err = _run(capsys, "catalog", "show", "bogus")
    assert code == cli.EXIT_INVALID_INPUT
    assert "unknown" in err


# the exact text of `catalog show`: it reads the catalog's constants (the so(k)
# builder for sokc-K) through the structure-equation renderer, and a rewrite
# of either must keep every byte
CATALOG_SHOW = {
    "abelian-2": (
        "abelian-2: n = 2\n"
        "  d f1 = 0\n"
        "  d f2 = 0\n"
    ),
    "abelian-3": (
        "abelian-3: n = 3\n"
        "  d f1 = 0\n"
        "  d f2 = 0\n"
        "  d f3 = 0\n"
    ),
    "so3c": (
        "so3c: n = 3\n"
        "  d f1 = f2 ^ f3\n"
        "  d f2 = - f1 ^ f3\n"
        "  d f3 = f1 ^ f2\n"
    ),
    "sokc-4": (
        "sokc-4: n = 6\n"
        "  d f1 = - f2 ^ f4 - f3 ^ f5\n"
        "  d f2 = f1 ^ f4 - f3 ^ f6\n"
        "  d f3 = f1 ^ f5 + f2 ^ f6\n"
        "  d f4 = - f1 ^ f2 - f5 ^ f6\n"
        "  d f5 = - f1 ^ f3 + f4 ^ f6\n"
        "  d f6 = - f2 ^ f3 - f4 ^ f5\n"
    ),
    "iwasawa": (
        "iwasawa: n = 3\n"
        "  d f1 = 0\n"
        "  d f2 = 0\n"
        "  d f3 = - f1 ^ f2\n"
    ),
    "kodaira-thurston": (
        "kodaira-thurston: n = 2\n"
        "  d f1 = 0\n"
        "  d f2 = f1 ^ fb1\n"
    ),
    "sokc-5": (
        "sokc-5: n = 10\n"
        "  d f1 = - f2 ^ f5 - f3 ^ f6 - f4 ^ f7\n"
        "  d f2 = f1 ^ f5 - f3 ^ f8 - f4 ^ f9\n"
        "  d f3 = f1 ^ f6 + f2 ^ f8 - f4 ^ f10\n"
        "  d f4 = f1 ^ f7 + f2 ^ f9 + f3 ^ f10\n"
        "  d f5 = - f1 ^ f2 - f6 ^ f8 - f7 ^ f9\n"
        "  d f6 = - f1 ^ f3 + f5 ^ f8 - f7 ^ f10\n"
        "  d f7 = - f1 ^ f4 + f5 ^ f9 + f6 ^ f10\n"
        "  d f8 = - f2 ^ f3 - f5 ^ f6 - f9 ^ f10\n"
        "  d f9 = - f2 ^ f4 - f5 ^ f7 + f8 ^ f10\n"
        "  d f10 = - f3 ^ f4 - f6 ^ f7 - f8 ^ f9\n"
    ),
}


def test_catalog_show_pins_every_entry(capsys):
    assert set(lh.catalog_names()) | {"sokc-5"} == set(CATALOG_SHOW)
    for name, text in CATALOG_SHOW.items():
        code, out, err = _run(capsys, "catalog", "show", name)
        assert (code, out, err) == (cli.EXIT_OK, text, "")
