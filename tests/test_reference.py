"""Report values against the pinned reference in ``reference/reports.json``.

Every scalar and tensor entry must agree to |got - ref| <= 1e-12 max(1, |ref|);
flags and the nilpotent-J witness must agree exactly.  ``make_reference.py``
wrote the file and holds the code that computes the compared values.  The
same values are checked twice: from the library, and end to end from the
JSON report of ``hermlab analyze``.
"""

import json

import numpy as np
import pytest

import hermlab.cli as cli
import hermlab.lie_hermitian as lh
import make_reference as mr
from conftest import explicit_document

TOL = 1e-12

with open(mr.REFERENCE, encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


def _within(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    return bool(np.all(np.abs(got - ref) <= TOL * np.maximum(1.0, np.abs(ref))))


def test_reference_covers_catalog_sample_sokc5_and_random_structures():
    labels = set(REFERENCE)
    assert {label for label, _ in mr.inputs()} == labels
    assert "sokc-5" in labels
    assert sum(label.startswith("random-") for label in labels) == mr.RANDOM_COUNT


@pytest.mark.parametrize("label", sorted(REFERENCE))
def test_report_values_match_reference(label):
    ref = REFERENCE[label]
    got = mr.observed(mr.structure(ref["input"]))
    assert got["scalars"].keys() == ref["scalars"].keys()
    for key, value in ref["scalars"].items():
        assert _within(got["scalars"][key], value), key
    assert got["tensors"].keys() == ref["tensors"].keys()
    for key, value in ref["tensors"].items():
        assert _within(mr.unpair(got["tensors"][key]), mr.unpair(value)), key
    assert got["flags"] == ref["flags"]
    assert got["nilpotent_J_witness"] == ref["nilpotent_J_witness"]


def _document(inp):
    """The CLI input document of a reference input record."""
    if "catalog" in inp:
        return inp
    sc = lh.StructureConstants(inp["n"], mr.unpair(inp["C"]), mr.unpair(inp["D"]))
    return explicit_document(sc, mr.unpair(inp["H"]))


@pytest.mark.parametrize("label", sorted(REFERENCE))
def test_cli_report_matches_reference(label, tmp_path, capsys):
    ref = REFERENCE[label]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_document(ref["input"])))
    assert cli.main(["analyze", str(path), "--format", "json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    torsion, residuals = report["torsion"], report["residuals"]
    classes = report["classification"]
    scalars, tensors = ref["scalars"], ref["tensors"]

    for key in ("norm_T2", "norm_eta2", "chi"):
        assert _within(torsion[key], scalars[key]), key
    assert _within(residuals["F_value"], scalars["F"])
    assert _within(residuals["G_value"], scalars["G"])
    for key, name in mr.FLAG_RESIDUALS.items():
        assert _within(classes[name]["residual"], scalars[key]), key
    stp = classes["stp"]["residuals"]
    assert {f"stp.{k}" for k in stp} == {k for k in scalars if k.startswith("stp.")}
    for key, value in stp.items():
        assert _within(value, scalars[f"stp.{key}"]), key

    for key in ("eta", "A", "B", "phi", "xi"):
        assert _within(mr.unpair(torsion[key]), mr.unpair(tensors[key])), key
    for key in ("Q_F", "Q_G"):
        assert _within(mr.unpair(residuals[key]), mr.unpair(tensors[key])), key
    assert np.array_equal(mr.unpair(torsion["lee"]), -mr.unpair(torsion["eta"]))

    assert {name: classes[name]["flag"] for name in mr.FLAGS} == ref["flags"]
    assert classes["nilpotent_J"]["witness"] == ref["nilpotent_J_witness"]
