"""Write ``tests/reference/reports.json``: pinned values of the report.

    PYTHONPATH=src python tests/make_reference.py

Inputs: the ``CATALOG_SAMPLE`` entries, ``sokc-5`` and ``RANDOM_COUNT``
seeded random structures of complex dimension 2-4 under random Hermitian
positive definite metrics.  The random inputs are stored next to their values
(C, D and H as [re, im] pairs), so the reference does not depend on the
random builders staying the same.

Values: the torsion scalars and tensors, both residual matrices and
functionals, the two Strominger-parallel residuals, every classification
flag with the residual behind it, and the nilpotent-J witness;
``tests/test_reference.py`` compares them with the library.  Regenerate only
on a commit whose outputs are trusted: the file pins every later commit to
those outputs.
"""

import json
from pathlib import Path

import numpy as np

import hermlab.classifiers as cl
import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.torsion_engine as te
from conftest import CATALOG_SAMPLE, random_hpd, random_structure

REFERENCE = Path(__file__).parent / "reference" / "reports.json"
SEED = 20261018
RANDOM_COUNT = 20
FLAGS = ("kahler", "balanced", "gauduchon", "pluriclosed", "lck_shape", "stp", "nilpotent_J")
# pinned scalar -> the classification class whose residual it is
FLAG_RESIDUALS = {"kahler_residual": "kahler", "balanced_residual": "balanced",
                  "gauduchon_residual": "gauduchon", "pluriclosed_residual": "pluriclosed",
                  "lck_residual": "lck_shape"}


def pairs(a):
    """A complex array as nested [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [pairs(x) for x in a]


def unpair(p):
    a = np.asarray(p, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def structure(inp):
    """The Hermitian structure an input record describes."""
    if "catalog" in inp:
        return lh.catalog(inp["catalog"])
    sc = lh.StructureConstants(inp["n"], unpair(inp["C"]), unpair(inp["D"]))
    return lh.HermitianStructure(sc, unpair(inp["H"]))


def inputs():
    """(label, input record) for every referenced structure."""
    out = [(name, {"catalog": name}) for name in [*CATALOG_SAMPLE, "sokc-5"]]
    rng = np.random.default_rng(SEED)
    for i in range(RANDOM_COUNT):
        n = int(rng.integers(2, 5))
        sc = random_structure(rng, n)
        H = random_hpd(rng, n)
        out.append((f"random-{i:02d}",
                    {"n": n, "C": pairs(sc.C), "D": pairs(sc.D), "H": pairs(H)}))
    return out


def observed(hs):
    """The pinned values of one structure, as the library computes them."""
    pkg = te.analyze(hs)
    classes = cl.classify(pkg, hs.sc)
    residuals = fn.residual_report(pkg)
    witness = classes["nilpotent_J"]["witness"]
    return {
        "scalars": {
            "norm_T2": pkg.norm_T2,
            "norm_eta2": pkg.norm_eta2,
            "chi": pkg.chi,
            "F": residuals["F_value"],
            "G": residuals["G_value"],
            **{f"stp.{k}": v for k, v in classes["stp"]["residuals"].items()},
            **{key: classes[name]["residual"] for key, name in FLAG_RESIDUALS.items()},
        },
        "tensors": {
            "eta": pairs(pkg.eta),
            "A": pairs(pkg.A),
            "B": pairs(pkg.B),
            "phi": pairs(pkg.phi),
            "xi": pairs(pkg.xi),
            "Q_F": pairs(residuals["Q_F"]),
            "Q_G": pairs(residuals["Q_G"]),
        },
        "flags": {name: classes[name]["flag"] for name in FLAGS},
        "nilpotent_J_witness": None if witness is None else list(witness),
    }


def main():
    reference = {label: {"input": inp, **observed(structure(inp))} for label, inp in inputs()}
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"wrote {len(reference)} structures to {REFERENCE}")


if __name__ == "__main__":
    main()
