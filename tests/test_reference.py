"""Report values against the pinned reference in ``reference/reports.json``.

Every scalar and tensor entry must agree to |got - ref| <= 1e-12 max(1, |ref|);
flags and the nilpotent-J witness must agree exactly.  ``make_reference.py``
wrote the file and holds the code that computes the compared values.
"""

import json

import numpy as np
import pytest

import make_reference as mr

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
