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
import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.optimizer as op
import hermlab.tensor_algebra as ta
import hermlab.torsion_engine as te

import oracles
from conftest import (CATALOG_SAMPLE, OVERFLOWING_FRAME_DOC, explicit_document, hopf_real,
                      nakamura, random_gl, random_hpd, random_structure,
                      random_two_step_structure, realified_so)

NAN = float("nan")
KT_J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
KT_REAL = {"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [1, 2], "val": 1.0}], "J": KT_J}}
# diag(1, 1, 1e-14): positive definite, but cond(H) = 1e14 is past the limit
SINGULAR_METRIC = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                   [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                   [[0.0, 0.0], [0.0, 0.0], [1e-14, 0.0]]]


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
        {"n": 2, "C": 5},
        {"n": 2, "C": None},
        {"real_algebra": {"dim": 4, "f": 3, "J": KT_J}},
        {"catalog": 5},
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
    "doc",
    [
        {"n": 3, "C": [{"up": 1, "lo": [2, 3], "re": NAN}]},
        {"n": 2, "D": [{"up": 2, "lo": [1, 1], "im": NAN}]},
        {"catalog": "abelian-2",
         "metric": [[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [1, 2], "val": NAN}], "J": KT_J}},
        {"real_algebra": {"dim": 4, "f": [], "J": KT_J},
         "metric": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [NAN, 0.0]]]},
        {"catalog": "abelian-2", "metric": [["a", "b"], [1, 2]]},
        {"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [1], "val": 1.0}], "J": KT_J}},
        {"real_algebra": {"dim": 4, "f": [{"up": 5, "lo": [1, 2], "val": 1.0}], "J": KT_J}},
        {"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [1, 1], "val": 1.0}], "J": KT_J}},
        # n, dim and indices are JSON integers, not numbers int() accepts
        {"n": 2, "C": [{"up": 1, "lo": [1.9, 2], "re": 1.0},
                       {"up": 1, "lo": [2, 1], "re": -1.0}]},
        {"n": True, "C": []},
        {"n": "3", "C": []},
        {"real_algebra": {"dim": 2.7, "f": [], "J": [[0, -1], [1, 0]]}},
        {"catalog": "so3c", "metric": SINGULAR_METRIC},
        # a term list that is not a list, a catalog name that is not a string
        {"n": 2, "C": 5},
        {"n": 2, "C": None},
        {"real_algebra": {"dim": 4, "f": 3, "J": KT_J}},
        {"catalog": 5},
    ],
    ids=["nan-C", "nan-D", "nan-metric", "nan-real-f", "nan-real-metric",
         "malformed-metric", "malformed-real-f", "range-real-f", "repeated-real-f",
         "fractional-lo", "bool-n", "string-n", "fractional-dim", "cond-H",
         "int-C", "null-C", "int-real-f", "int-catalog"],
)
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, doc):
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


@pytest.mark.parametrize("entry", [complex(NAN, 0.0), complex(0.0, float("inf"))],
                         ids=["nan-re", "inf-im"])
def test_non_finite_array_entry_exits_2(tmp_path, capsys, monkeypatch, entry):
    real = cli.build_report

    def with_bad_entry(*a):
        report = real(*a)
        A = report["torsion"]["A"].copy()
        A[1, 2] = entry
        report["torsion"]["A"] = A
        return report

    monkeypatch.setattr(cli, "build_report", with_bad_entry)
    out_path = tmp_path / "report.json"
    code, out, err = _run(capsys, "analyze", _write(tmp_path, {"catalog": "so3c"}),
                          "--format", "json", "--output", str(out_path))
    assert code == cli.EXIT_NUMERICAL
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("numerical failure: report contains a non-finite number at torsion.A")
    assert not out_path.exists()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("block, key, value",
                         [("torsion", "A", np.full((3, 3), complex(0.0, NAN))),
                          ("residuals", "F_value", float("inf"))],
                         ids=["array", "scalar"])
def test_non_finite_report_names_its_key(tmp_path, capsys, monkeypatch, fmt, block, key, value):
    real = cli.build_report

    def with_bad_value(*a):
        report = real(*a)
        report[block][key] = value
        return report

    monkeypatch.setattr(cli, "build_report", with_bad_value)
    code, out, err = _run(capsys, "analyze", _write(tmp_path, {"catalog": "so3c"}),
                          "--format", fmt)
    assert code == cli.EXIT_NUMERICAL
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("numerical failure: report contains a non-finite number at "
                          f"{block}.{key}")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_non_finite_list_entry_names_the_list(tmp_path, capsys, monkeypatch, fmt):
    real = cli.build_report
    monkeypatch.setattr(cli, "build_report",
                        lambda *a: {**real(*a), "extra": {"rows": [1.0, [2.0, NAN]]}})
    code, out, err = _run(capsys, "analyze", _write(tmp_path, {"catalog": "so3c"}),
                          "--format", fmt)
    assert code == cli.EXIT_NUMERICAL and out == ""
    assert err == "numerical failure: report contains a non-finite number at extra.rows\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_input_number_exits_1(tmp_path, capsys, fmt, constant):
    # json reads NaN and Infinity, and 1e999 overflows to inf; none is a
    # number an input document may hold, even outside the structure
    path = tmp_path / "input.json"
    path.write_text('{"catalog": "so3c", "note": %s}' % constant)
    code, out, err = _run(capsys, "analyze", str(path), "--format", fmt)
    assert code == cli.EXIT_INVALID_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("text", [
    b'{"catalog": "so3c", "note": ' + b"1" * 5000 + b"}",
    b'{"catalog": "so3c", "note": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"catalog": "so3c", "note": "\xff\xfe"}',
    b'{"n": 3, "C": [{"up": 1, "lo": [2, 3], "re": 1' + b"0" * 400 + b"}]}",
    b'{"catalog": "abelian-1", "metric": [[[1' + b"0" * 400 + b", 0]]]}",
], ids=["int-digits", "nested-100000", "invalid-utf8", "int-to-float-C", "int-to-float-metric"])
def test_unreadable_document_exits_1_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "input.json"
    path.write_bytes(text)
    code, out, err = _run(capsys, "analyze", str(path), "--format", "json")
    assert code == cli.EXIT_INVALID_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_invalid_json_is_an_unreadable_document(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text("{not json")
    code, out, err = _run(capsys, "analyze", str(path))
    assert (code, out) == (cli.EXIT_INVALID_INPUT, "")
    assert err == ("error: unreadable input document: Expecting property name enclosed "
                   "in double quotes: line 1 column 2 (char 1)\n")


# aff(C) and C x| C^2 with weights (1, 1): valid, but not unimodular
NON_UNIMODULAR = {
    "aff-C": ({"n": 2, "C": [{"up": 2, "lo": [1, 2], "re": 1.0},
                             {"up": 2, "lo": [2, 1], "re": -1.0}]}, "1.000e+00"),
    "C-x-C2": ({"n": 3, "C": [{"up": 2, "lo": [1, 2], "re": 1.0},
                              {"up": 2, "lo": [2, 1], "re": -1.0},
                              {"up": 3, "lo": [1, 3], "re": 1.0},
                              {"up": 3, "lo": [3, 1], "re": -1.0}]}, "2.000e+00"),
}


@pytest.mark.parametrize("label", sorted(NON_UNIMODULAR))
@pytest.mark.parametrize("command", ["analyze", "check-critical", "variation-check", "optimize"])
def test_non_unimodular_structure_exits_1(tmp_path, capsys, command, label):
    doc, trace = NON_UNIMODULAR[label]
    code, out, err = _run(capsys, command, _write(tmp_path, doc), "--format", "json")
    assert (code, out) == (cli.EXIT_INVALID_INPUT, "")
    assert err == (f"error: structure is not unimodular: max |tr ad| = {trace}, "
                   "so Q_F and Q_G are not first variations\n")


def test_real_algebra_failing_jacobi_fails_validation(tmp_path, capsys):
    # complexify accepts this realification of a non-Jacobi structure and
    # leaves the Jacobi identity to validate's d(d phi) = 0
    doc = {"real_algebra": {"dim": 4, "f": [{"up": 3, "lo": [2, 4], "val": -2.0},
                                            {"up": 4, "lo": [1, 3], "val": -2.0}],
                            "J": [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]}}
    code, out, err = _run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (cli.EXIT_INVALID_INPUT, "")
    assert err == "error: structure constants failed validation: dd_phi=1.000e+00\n"


@pytest.mark.parametrize("command", ["analyze", "check-critical", "variation-check"])
def test_overflowing_unitary_frame_exits_2(tmp_path, capsys, command):
    path = _write(tmp_path, OVERFLOWING_FRAME_DOC)
    code, out, err = _run(capsys, command, path, "--format", "json")
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert err == ("numerical failure: unitary frame of the metric overflows: "
                   "C contains non-finite entries\n")


def test_directory_as_document_exits_1(tmp_path, capsys):
    code, out, err = _run(capsys, "analyze", str(tmp_path))
    assert code == cli.EXIT_INVALID_INPUT
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")], ids=["list", "dict"])
def test_deeply_nested_input_is_echoed(tmp_path, fmt, opening, closing):
    # a fresh interpreter: the report writer takes one stack frame per level
    path = tmp_path / "input.json"
    path.write_text('{"catalog": "so3c", "note": %s0%s}' % (opening * 900, closing * 900))
    proc = _python("-m", "hermlab.cli", "analyze", str(path), "--format", fmt)
    assert proc.returncode == cli.EXIT_OK and proc.stderr == ""


# numeric options outside their range, one per option, and the values that
# failed deep inside a run or were taken silently
@pytest.mark.parametrize("argv", [
    ["analyze", "--tol", "nan"],
    ["optimize", "--max-iter", "-1"],
    ["optimize", "--grad-tol", "0"],
    ["optimize", "--grad-tol", "nan"],
    ["optimize", "--objective-tol", "inf"],
    ["optimize", "--perturb", "nan"],
    ["optimize", "--perturb", "-0.5"],
    ["optimize", "--perturb", "0.1", "--seed", "-1"],
    ["variation-check", "--fd-step", "0"],
    ["variation-check", "--directions", "-2"],
    ["variation-check", "--directions", "0"],
], ids=lambda argv: " ".join(argv[1:]))
def test_numeric_option_out_of_range_exits_1(tmp_path, capsys, argv):
    path = _write(tmp_path, {"catalog": "so3c"})
    code, out, err = _run(capsys, argv[0], path, *argv[1:])
    assert code == cli.EXIT_INVALID_INPUT
    assert out == ""
    option = next(a for a in reversed(argv) if a.startswith("--"))
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {option} must be ")


# C^1_{23} = 1e200: |T|^2 and everything built from it overflow
OVERFLOW_DOC = {"n": 3, "C": [{"up": 1, "lo": [2, 3], "re": 1e200},
                              {"up": 1, "lo": [3, 2], "re": -1e200}]}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_overflowing_report_exits_2_in_both_formats(tmp_path, fmt):
    # a fresh interpreter under -X dev -W error: numpy's floating-point
    # warnings would raise there, or else print lines of their own
    proc = _python("-X", "dev", "-W", "error", "-m", "hermlab.cli", "analyze",
                   _write(tmp_path, OVERFLOW_DOC), "--format", fmt)
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numerical failure: report contains a non-finite number at ")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_overflowing_report_names_where_the_overflow_starts(tmp_path, capsys, fmt):
    # |T|^2 overflows first and Q_F, the classifier residuals and the rest
    # follow from it; the message names the first, not the first in key order
    code, out, err = _run(capsys, "analyze", _write(tmp_path, OVERFLOW_DOC), "--format", fmt)
    assert code == cli.EXIT_NUMERICAL and out == ""
    assert err == "numerical failure: report contains a non-finite number at torsion.norm_T2\n"


# ---------------------------------------------------------------------------
# the JSON writer against the json.dumps route, byte for byte


def _record_reports(monkeypatch):
    """Keep every report that reaches ``cli.emit``."""
    reports = []
    real = cli.emit
    monkeypatch.setattr(cli, "emit", lambda report, args: reports.append(report)
                        or real(report, args))
    return reports


# echoed strings that look like splice markers or need escapes, extra keys at
# several depths, empty containers and floats inside the input document
MARKER_DOC = {"catalog": "so3c", "note": "\u00000"}
ESCAPE_DOC = {
    "catalog": "so3c",
    "\u0000": {"\u00000": "\u0000", "": [], "e": {}},
    "note": "\"quoted\" \\ back\\slash\nnew line\ttab \u00e9 \u2713 \U0001f600 \u00000",
    "extra": {"deep": {"k\n\"": ["\u0000", {"z": "\\u0000", "null": None,
                                         "x": [1.5, -0.0, 1e300, 7],
                                         "flags": [True, False, 10**30, -3]}]},
              "torsion": "\u00001", "A": [[0, 1]]},
}


def _report_documents():
    """The catalog sample, four seeded random structures and four seeded
    2-step structures (C != 0 and D != 0), frame-mixed under random metrics
    as explicit C/D documents, and the escape-heavy document."""
    rng = np.random.default_rng(112)
    docs = [{"catalog": name} for name in CATALOG_SAMPLE]
    for _ in range(4):
        n = int(rng.integers(2, 5))
        docs.append(explicit_document(random_structure(rng, n), random_hpd(rng, n)))
    for _ in range(4):
        n = int(rng.integers(3, 6))
        sc = lh.frame_change(random_two_step_structure(rng, n, int(rng.integers(2, n))),
                             random_gl(rng, n))
        docs.append(explicit_document(sc, random_hpd(rng, n)))
    return docs + [ESCAPE_DOC]


# name -> (command and flags, the block the command adds to the report)
REPORT_COMMANDS = {
    "analyze": (["analyze"], None),
    "check-critical": (["check-critical"], "criticality"),
    "check-critical-gauduchon": (["check-critical", "--functional", "gauduchon"], "criticality"),
    "variation-check": (["variation-check", "--directions", "2"], "variation_check"),
    "optimize": (["optimize", "--perturb", "0.1", "--seed", "7", "--max-iter", "5"],
                 "optimization"),
}


@pytest.mark.parametrize("name", REPORT_COMMANDS)
def test_json_report_bytes_equal_encoder_oracle(tmp_path, capsys, monkeypatch, name):
    argv, block = REPORT_COMMANDS[name]
    reports = _record_reports(monkeypatch)
    docs = _report_documents()
    for m, doc in enumerate(docs):
        path = _write(tmp_path, doc, f"doc{m}.json")
        code, out, err = _run(capsys, argv[0], path, *argv[1:], "--format", "json")
        assert code in (cli.EXIT_OK, cli.EXIT_NOT_SATISFIED) and err == ""
        assert out == oracles.report_json(reports[-1])
        assert block is None or block in reports[-1]
    assert len(reports) == len(docs)


# the keys of each report block: no entry is a function of entries the
# report already holds, so a copy added back changes this table
REPORT_KEYS = {
    None: {"tool", "tolerances", "input", "validation", "torsion", "classification",
           "residuals"},
    "tool": {"name", "version"},
    "tolerances": {"tol"},
    "torsion": {"n", "norm_T2", "norm_eta2", "chi", "eta", "A", "B", "phi", "xi"},
    "residuals": {"F_value", "G_value", "Q_F", "Q_G", "norm_Q_F", "norm_Q_G"},
    "validation": {"ok", "checks"},
    "classification": {"kahler", "balanced", "gauduchon", "pluriclosed", "lck_shape", "stp",
                       "nilpotent_J"},
    "criticality": {"functional", "residual_norm", "critical"},
    "optimization": {"objective", "seed", "converged", "reason", "iterations", "H_star",
                     "trace"},
    "variation_check": {"directions", "fd_step", "seed", "max_relative_deviation", "rows",
                        "passed"},
}


@pytest.mark.parametrize("name", REPORT_COMMANDS)
def test_report_blocks_hold_their_keys_only(tmp_path, capsys, name):
    argv, block = REPORT_COMMANDS[name]
    path = _write(tmp_path, {"catalog": "kodaira-thurston"})
    code, out, err = _run(capsys, argv[0], path, *argv[1:], "--format", "json")
    assert code in (cli.EXIT_OK, cli.EXIT_NOT_SATISFIED) and err == ""
    report = json.loads(out)
    assert report.keys() == REPORT_KEYS[None] | ({block} if block else set())
    for key in report.keys() - {"input"}:
        assert report[key].keys() == REPORT_KEYS[key], key
    assert [c["name"] for c in report["validation"]["checks"]] == ["C_antisymmetry", "dd_phi"]


@pytest.mark.parametrize("doc", [MARKER_DOC, ESCAPE_DOC], ids=["marker", "escapes"])
def test_echoed_input_cannot_move_report_arrays(tmp_path, capsys, monkeypatch, doc):
    reports = _record_reports(monkeypatch)
    _, plain, _ = _run(capsys, "analyze", _write(tmp_path, {"catalog": "so3c"}, "so3c.json"),
                       "--format", "json")
    code, out, err = _run(capsys, "analyze", _write(tmp_path, doc), "--format", "json")
    assert code == cli.EXIT_OK and err == ""
    assert out == oracles.report_json(reports[-1])
    report, want = json.loads(out), json.loads(plain)
    assert report.pop("input") == doc
    want.pop("input")
    assert report == want


def test_json_arrays_of_any_layout_equal_encoder_oracle(tmp_path, capsys, monkeypatch):
    # real, strided, transposed, empty and nested arrays in the report
    real = cli.build_report
    extra = {
        "real_transposed": np.arange(6.0).reshape(2, 3).T,
        "strided": (np.arange(8) * (1 - 2j)).reshape(2, 4)[:, ::2],
        "empty": np.zeros((0, 3)),
        "deep": {"signed_zero": np.full(2, complex(-0.0, -0.0)), "row": np.ones(1)},
    }
    monkeypatch.setattr(cli, "build_report", lambda *a: {**real(*a), "extra": extra})
    reports = _record_reports(monkeypatch)
    code, out, _ = _run(capsys, "analyze", _write(tmp_path, {"catalog": "iwasawa"}),
                        "--format", "json")
    assert code == cli.EXIT_OK
    assert out == oracles.report_json(reports[0])
    assert json.loads(out)["extra"]["empty"] == []


# ---------------------------------------------------------------------------
# the parser, built once per process


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.make_parser() is cli.make_parser()
    iwa = _write(tmp_path, {"catalog": "iwasawa"})  # |Q_F| = 3.27

    def check(*flags):
        code, out, err = _run(capsys, "check-critical", iwa, "--format", "json", *flags)
        assert err == ""
        report = json.loads(out)
        return code, report["tolerances"]["tol"], report["criticality"]["functional"]

    assert check("--tol", "10.0", "--functional", "gauduchon") == (cli.EXIT_OK, 10.0, "gauduchon")
    assert check() == (cli.EXIT_NOT_SATISFIED, ta.DEFAULT_TOL, "torsion")
    assert check("--tol", "1.0") == (cli.EXIT_NOT_SATISFIED, 1.0, "torsion")


@pytest.mark.parametrize("argv, code", [
    (["--version"], cli.EXIT_OK),
    (["analyze", "--help"], cli.EXIT_OK),
    (["analyze", "--bogus"], cli.EXIT_INVALID_INPUT),
    (["check-critical", "in.json", "--functional", "gauduchon", "--tol", "abc"],
     cli.EXIT_INVALID_INPUT),
    (["optimize", "in.json", "--seed", "3", "--objective", "bogus"], cli.EXIT_INVALID_INPUT),
    (["optimize", "in.json", "--max-iter", "abc"], cli.EXIT_INVALID_INPUT),
    (["optimize", "in.json", "--det-normalized"], cli.EXIT_INVALID_INPUT),
    ([], cli.EXIT_INVALID_INPUT),
], ids=["version", "help", "unknown-flag", "bad-tol", "bad-choice", "bad-int", "removed-flag",
        "no-command"])
def test_parser_works_after_system_exit(tmp_path, capsys, argv, code):
    # a usage error exits 1 with one "error:" line, not argparse's exit 2,
    # which would read as a numerical failure
    path = _write(tmp_path, {"catalog": "iwasawa"})
    first = _run(capsys, "check-critical", path, "--format", "json")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    err = capsys.readouterr().err
    if code == cli.EXIT_INVALID_INPUT:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    assert _run(capsys, "check-critical", path, "--format", "json") == first
    _, out, _ = _run(capsys, "optimize", path, "--max-iter", "2", "--format", "json")
    assert json.loads(out)["optimization"]["seed"] == 0


@pytest.mark.parametrize(
    "argv, analyses, doc",
    [
        (["analyze"], 1, {"catalog": "iwasawa"}),
        (["check-critical"], 1, {"catalog": "iwasawa"}),
        (["check-critical", "--functional", "gauduchon"], 1, {"catalog": "iwasawa"}),
        (["variation-check", "--directions", "3"], 1 + 4 * 3, {"catalog": "iwasawa"}),
        (["analyze"], 1, KT_REAL),
        # None: the descent's own analyses, and none after it returns
        (["optimize", "--perturb", "0.1", "--seed", "3"], None, {"catalog": "sokc-4"}),
    ],
    ids=["argv0-1", "argv1-1", "argv2-1", "argv3-13", "real-algebra", "optimize"],
)
def test_one_analysis_and_validation_per_report(tmp_path, capsys, monkeypatch, argv, analyses,
                                                doc):
    calls = Counter()
    after_descent = []  # analyses counted when minimize returns
    minimize = op.minimize

    def counted_minimize(*args, **kwargs):
        result = minimize(*args, **kwargs)
        after_descent.append(calls["analyze"])
        return result

    monkeypatch.setattr(op, "minimize", counted_minimize)

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
    if analyses is None:
        assert len(after_descent) == 1 and after_descent[0] > 1
        analyses = after_descent[0]
    assert calls == {"analyze": analyses, "validate": 1}


def test_reports_build_nabla_T_twice_and_analyses_never(tmp_path, capsys, monkeypatch):
    # nabla T is an n^4 tensor that costs n^5: the Strominger-parallel check
    # of a report builds the two its flag reads, one by each template call,
    # whether or not D = 0; an analysis, which every descent step runs,
    # builds none.  The barred template builds on the unbarred one, so a
    # call made inside a counted call is not counted again.
    calls = Counter()
    depth = []

    def counting(name, real):
        def counted(*args):
            if not depth:
                calls[name] += 1
            depth.append(name)
            try:
                return real(*args)
            finally:
                depth.pop()
        return counted

    for name in ("holomorphic_derivative_T", "covariant_derivative_T"):
        monkeypatch.setattr(te, name, counting(name, getattr(te, name)))
    te.analyze(lh.catalog("sokc-4"))
    assert not calls
    for name in ("sokc-4", "kodaira-thurston"):
        calls.clear()
        code, _, _ = _run(capsys, "analyze", _write(tmp_path, {"catalog": name}))
        assert code == cli.EXIT_OK
        assert calls == {"holomorphic_derivative_T": 1, "covariant_derivative_T": 1}


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


def _real_algebra_doc(rl):
    f = [{"up": int(c) + 1, "lo": [int(a) + 1, int(b) + 1], "val": float(rl.f[c, a, b])}
         for c, a, b in np.argwhere(rl.f) if a < b]
    return {"real_algebra": {"dim": rl.dim, "f": f, "J": rl.J.tolist()}}


@pytest.mark.parametrize("doc", [KT_REAL, _real_algebra_doc(realified_so(3))],
                         ids=["kodaira-thurston", "so3c"])
def test_real_algebra_analyze_runs_without_scipy(tmp_path, doc):
    # importing scipy raises ModuleNotFoundError in this interpreter
    path = _write(tmp_path, doc)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import hermlab.cli as cli\n"
        f"code = cli.main(['analyze', {path!r}, '--format', 'json'])\n"
        "loaded = [m for m, mod in sys.modules.items()\n"
        "          if m.startswith('scipy') and mod is not None]\n"
        "print(sorted(loaded), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr.strip() == "[]"
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert report["validation"]["ok"]


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_analyze_sokc_ladder_rungs(tmp_path, k):
    # n = 10, 15, 21 and 28: semisimple, so no relabeling is triangular
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


@pytest.mark.parametrize("name, functional, critical", [
    ("so3c", "torsion", True), ("iwasawa", "torsion", False), ("iwasawa", "gauduchon", True),
])
def test_check_critical_text_shows_its_verdict(tmp_path, capsys, name, functional, critical):
    path = _write(tmp_path, {"catalog": name})
    code, out, _ = _run(capsys, "check-critical", path, "--functional", functional)
    assert code == (cli.EXIT_OK if critical else cli.EXIT_NOT_SATISFIED)
    _, analyze_out, _ = _run(capsys, "analyze", path)
    _, json_out, _ = _run(capsys, "check-critical", path, "--functional", functional,
                          "--format", "json")
    k = json.loads(json_out)["criticality"]
    assert out == analyze_out + (
        f"\ncriticality: functional={functional} residual norm={k['residual_norm']:.6g} "
        f"tol=1e-09 critical={critical}\n")


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


def test_tol_is_read_from_the_option_only(tmp_path, capsys, monkeypatch):
    # an environment variable does not move the tolerance; the report shows
    # the one in use
    monkeypatch.setenv("HERMLAB_TOL", "10.0")
    iwa = _write(tmp_path, {"catalog": "iwasawa"})  # |Q_F| = 3.27
    code, out, _ = _run(capsys, "check-critical", iwa, "--format", "json")
    assert code == cli.EXIT_NOT_SATISFIED
    assert json.loads(out)["tolerances"]["tol"] == 1e-9


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


@pytest.mark.parametrize("doc", [
    {"catalog": "so3c"},
    {"catalog": "sokc-4"},
    {"catalog": "sokc-7"},
    {"catalog": "sokc-8"},
    explicit_document(nakamura(), np.eye(3)),
    _real_algebra_doc(hopf_real()),
], ids=["so3c", "sokc-4", "sokc-7", "sokc-8", "nakamura", "hopf"])
def test_variation_check_passes_at_critical_and_solvable_metrics(tmp_path, capsys, doc):
    # so3c and the sokc entries are critical: the analytic variation is 0 and
    # the Richardson difference reads its rounding, about eps * F / step, below
    # the absolute bound 1e-9 * max(1, F) (at F = 210 and 336, sokc-7 and
    # sokc-8 pass 1e-9 itself)
    path = _write(tmp_path, doc)
    for seed in range(10):
        code, out, err = _run(capsys, "variation-check", path, "--seed", str(seed))
        assert (code, err) == (cli.EXIT_OK, ""), (seed, out)


def test_variation_check_fails_a_wrong_Q_F(tmp_path, capsys, monkeypatch):
    # Q_F with the sign of its xi term flipped must fail on Kodaira-Thurston,
    # where xi != 0; on D = 0 structures xi = 0 and the mutation cannot show
    torsion_critical_residual = fn.torsion_critical_residual

    def flipped_xi(pkg):
        Q, _ = torsion_critical_residual(pkg)
        Q = Q + 4 * (pkg.xi + pkg.xi.conj().T)
        return Q, float(np.linalg.norm(Q))

    path = _write(tmp_path, {"catalog": "kodaira-thurston"})
    assert np.abs(te.analyze(lh.catalog("kodaira-thurston")).xi).max() > 0.1
    assert _run(capsys, "variation-check", path)[0] == cli.EXIT_OK
    monkeypatch.setattr(fn, "torsion_critical_residual", flipped_xi)
    code, out, _ = _run(capsys, "variation-check", path)
    assert code == cli.EXIT_NOT_SATISFIED
    assert "passed=False" in out


def test_variation_check_names_an_unusable_fd_step(tmp_path, capsys):
    # H - 10 h is not positive definite: the option is at fault, not the input
    path = _write(tmp_path, {"catalog": "iwasawa"})
    code, out, err = _run(capsys, "variation-check", path, "--fd-step", "10")
    assert (code, out) == (cli.EXIT_INVALID_INPUT, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: --fd-step 10 ")


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
    assert rep["trace"][-1]["objective"] == 0.0


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
    assert abs(rep["trace"][-1]["objective"] - 6.0) <= 1e-8


@pytest.mark.parametrize("name, perturb, seed, critical", [
    ("so3c", "3.0", "1", 6.0),
    ("so3c", "3.0", "5", 6.0),
    ("so3c", "20", "0", 6.0),
    ("so3c", "20", "11", 6.0),
    ("so3c", "20", "3", 6.0),
    ("sokc-4", "0.1", "7", 24.0),
    ("sokc-4", "0.1", "33", 24.0),
    ("sokc-5", "0.1", "7", 60.0),
])
def test_optimize_reaches_critical_value(tmp_path, name, perturb, seed, critical):
    # these descents reach the critical value to rounding; the line search
    # then accepts no trial and the run stops converged, not stagnated
    # (so3c 20/11 only because precision_limit reads the quasi-Newton
    # decrement, not |G|^2; so3c 20/3 only because a trial metric with
    # cond(H) past the limit is rejected)
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


@pytest.mark.parametrize("doc, perturb, reason", [
    ({"catalog": "so3c"}, "1000", ""),  # exp(S0), |S0| = 1000, is not positive definite
    (OVERFLOWING_FRAME_DOC, "0", "unitary frame of the metric overflows"),
], ids=["perturb-1000", "overflowing-frame"])
def test_optimize_unusable_start_names_perturb(tmp_path, capsys, doc, perturb, reason):
    code, out, err = _run(capsys, "optimize", _write(tmp_path, doc), "--perturb", perturb)
    assert (code, out) == (cli.EXIT_INVALID_INPUT, "")
    assert len(err.splitlines()) == 1 and reason in err
    assert err.startswith(f"error: start metric from --perturb {perturb} is unusable: ")


def test_optimize_stagnated_exits_3(tmp_path, capsys, monkeypatch):
    # a line search that fails far above the rounding floor stops the descent
    # as stagnated, not converged
    monkeypatch.setattr(op, "_line_search", lambda *args: None)
    path = _write(tmp_path, {"catalog": "so3c"})
    code, out, _ = _run(capsys, "optimize", path, "--perturb", "0.3", "--format", "json")
    assert code == cli.EXIT_NOT_SATISFIED
    opt = json.loads(out)["optimization"]
    assert (opt["reason"], opt["converged"], opt["iterations"]) == ("stagnated", False, 0)


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


@pytest.mark.parametrize("objective, value, norm", [
    ("torsion_functional", "F_value", "norm_Q_F"),
    ("gauduchon_functional", "G_value", "norm_Q_G"),
    ("residual_norm", None, "norm_Q_F"),
])
@pytest.mark.parametrize("name, seed", [("so3c", "2"), ("sokc-4", "7")])
def test_optimization_block_is_consistent(tmp_path, capsys, name, seed, objective, value, norm):
    # the block is minimize's own: its last trace row is the final metric,
    # whose analysis the report's residuals block reads
    path = _write(tmp_path, {"catalog": name})
    code, out, _ = _run(capsys, "optimize", path, "--objective", objective, "--perturb", "0.1",
                        "--seed", seed, "--format", "json")
    assert code in (cli.EXIT_OK, cli.EXIT_NOT_SATISFIED)
    report = json.loads(out)
    opt, res = report["optimization"], report["residuals"]
    assert opt["objective"] == objective and opt["seed"] == int(seed)
    trace = opt["trace"]
    assert all(row.keys() == {"iteration", "objective", "gradient_norm", "residual_norm"}
               for row in trace)
    assert [row["iteration"] for row in trace] == list(range(len(trace)))
    assert opt["iterations"] == len(trace) - 1
    assert trace[-1]["residual_norm"] == res[norm]
    if value is not None:
        assert trace[-1]["objective"] == res[value]


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


def test_catalog_show_unknown(tmp_path, capsys):
    # the one error line that analyze writes for the same name
    code, out, err = _run(capsys, "catalog", "show", "bogus")
    assert (code, out, err) == (cli.EXIT_INVALID_INPUT, "", "error: unknown catalog entry: bogus\n")
    assert _run(capsys, "analyze", _write(tmp_path, {"catalog": "bogus"}))[2] == err


# n = 300000 asks for n^3 arrays of 192 PiB (real) or 384 PiB (complex), more
# than a 64-bit address space holds: the allocation fails before any memory
# is touched
@pytest.mark.parametrize("argv", [
    ["analyze", {"n": 300000, "C": []}],
    ["analyze", {"catalog": "abelian-300000"}],
    ["analyze", {"real_algebra": {"dim": 300000, "f": [], "J": [[0, -1], [1, 0]]}}],
    ["catalog", "show", "abelian-300000"],
], ids=["explicit", "catalog", "real-algebra", "catalog-show"])
def test_structure_too_large_to_allocate_exits_1(tmp_path, capsys, argv):
    argv = [_write(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (cli.EXIT_INVALID_INPUT, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate")


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
