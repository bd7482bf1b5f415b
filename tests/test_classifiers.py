"""Metric-class predicates: balanced, Gauduchon, pluriclosed, LCK, STP, nilpotent J."""

import types
from collections import Counter

import numpy as np
import pytest

import hermlab.classifiers as cl
import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.torsion_engine as te

import oracles
from conftest import random_hpd, random_two_step_structure, random_unitary


def _classify(name, H=None, tol=1e-9):
    hs = lh.catalog(name, metric=H)
    return cl.classify(te.analyze(hs), hs.sc, tol)


# ---------------------------------------------------------------------------
# flags on catalog entries


def test_classify_abelian_is_kahler():
    rep = _classify("abelian-3")
    assert rep["kahler"]["flag"] and rep["balanced"]["flag"]
    assert rep["gauduchon"]["flag"] and rep["pluriclosed"]["flag"]
    assert rep["lck_shape"]["flag"] and rep["stp"]["flag"] and rep["nilpotent_J"]["flag"]


def test_classify_so3c():
    rep = _classify("so3c")
    assert not rep["kahler"]["flag"]
    assert rep["balanced"]["flag"] and rep["gauduchon"]["flag"]
    assert rep["stp"]["flag"]
    assert not rep["lck_shape"]["flag"]
    assert not rep["nilpotent_J"]["flag"]


def test_classify_sokc4():
    rep = _classify("sokc-4")
    assert not rep["kahler"]["flag"]
    assert rep["balanced"]["flag"] and rep["stp"]["flag"]


def test_classify_iwasawa():
    rep = _classify("iwasawa")
    assert not rep["kahler"]["flag"]
    assert rep["balanced"]["flag"] and rep["gauduchon"]["flag"]
    assert rep["nilpotent_J"]["flag"]
    assert rep["nilpotent_J"]["witness"] is not None


def test_classify_nilmanifold():
    rep = _classify("kodaira-thurston")
    assert not rep["kahler"]["flag"]
    assert not rep["balanced"]["flag"]
    assert rep["gauduchon"]["flag"]
    assert rep["pluriclosed"]["flag"]
    assert rep["nilpotent_J"]["flag"]


def test_residuals_are_reported():
    rep = _classify("kodaira-thurston")
    assert rep["balanced"]["residual"] == pytest.approx(1.0)
    assert rep["gauduchon"]["residual"] <= 1e-12
    for key in ("nabla_s_hol", "nabla_s_bar", "quadratic_hol"):
        assert key in rep["stp"]["residuals"]


def test_flags_invariant_under_unitary_frame_rotation(rng):
    for name in ("so3c", "iwasawa", "kodaira-thurston"):
        base = _classify(name)
        hs = lh.catalog(name)
        for _ in range(5):
            U = random_unitary(rng, hs.n)
            rotated = lh.HermitianStructure(lh.frame_change(hs.sc, U), np.eye(hs.n))
            rep = cl.classify(te.analyze(rotated), rotated.sc)
            for flag in ("kahler", "balanced", "gauduchon", "pluriclosed", "stp"):
                assert rep[flag]["flag"] == base[flag]["flag"], (name, flag)


# ---------------------------------------------------------------------------
# LCK torsion shapes


def test_lck_shape_closed_forms(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        T = cl.lck_torsion(eta)
        # the shape reproduces its own trace
        assert np.abs(te.torsion_one_form(T) - eta).max() <= 1e-12
        A, B = te.ab_tensors(T)
        A_ref, B_ref, t2_ref = oracles.lck_closed_forms(eta)
        assert np.abs(A - A_ref).max() <= 1e-12
        assert np.abs(B - B_ref).max() <= 1e-12
        assert float(np.sum(np.abs(T) ** 2)) == pytest.approx(t2_ref, rel=1e-12)


def test_lck_check_accepts_exact_shape(rng):
    eta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pkg = types.SimpleNamespace(T=cl.lck_torsion(eta), eta=eta, n=3)
    assert cl.lck_check(pkg) <= 1e-14


def test_lck_check_kahler_is_trivially_lck():
    assert _classify("abelian-2")["lck_shape"]["flag"]


def test_lck_shape_rejected_for_so3c():
    rep = _classify("so3c")
    assert not rep["lck_shape"]["flag"]
    assert rep["lck_shape"]["residual"] > 0.5


def _lck_shape_residual(eta):
    """|Q_F| of the LCK torsion shape of eta, as the torsion of C = -T, D = 0."""
    T = cl.lck_torsion(eta)
    n = T.shape[0]
    sc = lh.StructureConstants(n, -T, np.zeros((n, n, n)))
    return fn.torsion_critical_residual(te.analyze(lh.HermitianStructure(sc, np.eye(n))))[1]


def test_lck_shape_never_torsion_critical(rng):
    # non-balanced LCK shapes always carry a visible residual
    for _ in range(20):
        eta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        eta *= (0.5 + rng.uniform()) / np.linalg.norm(eta)
        assert _lck_shape_residual(eta) >= 0.1


# ---------------------------------------------------------------------------
# STP (parallel torsion under the Strominger connection)


def test_stp_identities_so3c():
    hs = lh.catalog("so3c")
    pkg = te.analyze(hs)
    stp = cl.classify(pkg, hs.sc)["stp"]
    assert stp["flag"]
    for value in stp["residuals"].values():
        assert value <= 1e-12
    # parallel torsion forces phi - xi = B - A componentwise
    assert np.abs((pkg.phi - pkg.xi) - (pkg.B - pkg.A)).max() <= 1e-12


def test_stp_identities_consistent(rng):
    # whenever the nabla^s residuals vanish the derived identities do too
    for name in ("so3c", "sokc-4", "iwasawa", "kodaira-thurston"):
        stp = _classify(name)["stp"]
        res = stp["residuals"]
        if stp["flag"]:
            assert res["quadratic_hol"] <= 1e-10
            assert res["eta_contraction"] <= 1e-10
            assert res["phi_xi_vs_BA"] <= 1e-10


def test_stp_balanced_with_zero_residual_gives_proportional_B():
    # parallel-torsion critical metrics: balanced with B a multiple of Id
    for name in ("so3c", "sokc-4"):
        hs = lh.catalog(name)
        pkg = te.analyze(hs)
        flag = cl.classify(pkg, hs.sc)["stp"]["flag"]
        _, qnorm = fn.torsion_critical_residual(pkg)
        assert flag and qnorm <= 1e-10
        assert np.abs(pkg.eta).max() <= 1e-12
        c = np.trace(pkg.B).real / pkg.n
        assert np.abs(pkg.B - c * np.eye(pkg.n)).max() <= 1e-10


def test_n5_classifiers_overwrite_a_stale_workspace(rng):
    # stp_check and pluriclosed_residual in a workspace full of NaN, as
    # classify shares one between them, against calls that allocate their own
    structures = [lh.catalog(name, metric=random_hpd(rng, n))
                  for name, n in (("kodaira-thurston", 2), ("so3c", 3), ("sokc-4", 6))]
    structures.append(lh.HermitianStructure(random_two_step_structure(rng, 4, 2),
                                            random_hpd(rng, 4)))
    for hs in structures:
        pkg, n = te.analyze(hs), hs.sc.n
        work = np.full((2, n, n, n, n), np.nan, dtype=complex)
        assert cl.stp_check(pkg, work) == cl.stp_check(pkg)
        work.fill(np.nan)
        assert cl.pluriclosed_residual(pkg, work) == cl.pluriclosed_residual(pkg)
        block = cl.classify(pkg, hs.sc)
        assert block["stp"]["residuals"] == cl.stp_check(pkg)
        assert block["pluriclosed"]["residual"] == cl.pluriclosed_residual(pkg)


# ---------------------------------------------------------------------------
# nilpotent J


def test_nilpotent_J_iwasawa_identity_witness():
    flag, witness = cl.nilpotent_J_check(lh.catalog("iwasawa").sc)
    assert flag
    assert witness == (0, 1, 2)


def test_nilpotent_J_needs_relabeling():
    # same algebra with generators listed in reverse order
    sc = lh.frame_change(lh.catalog("iwasawa").sc, np.eye(3)[::-1])
    flag, witness = cl.nilpotent_J_check(sc)
    assert flag
    assert witness is not None and witness != (0, 1, 2)


def test_nilpotent_J_rejects_so3c():
    flag, witness = cl.nilpotent_J_check(lh.catalog("so3c").sc)
    assert not flag and witness is None


def _hidden_triangular(rng, n):
    """Sparse C/D triangular under a random hidden relabeling, with noise.

    Some structures also get stray entries that may break the pattern:
    anywhere at random, on a self-dependency (C[j,j,k] or D[i,j,j]), or as
    a 2-cycle between two generators.  Entries below the tolerance are
    sprinkled over C and must be ignored.
    """
    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    density = rng.uniform(0.05, 0.6)
    for j in range(n):
        for i in range(j):
            for k in range(j):
                if rng.uniform() < density:
                    C[j, i, k] = rng.standard_normal() + 1j * rng.standard_normal()
                if rng.uniform() < density:
                    D[i, j, k] = rng.standard_normal()
    pi = rng.permutation(n)
    C = C[np.ix_(pi, pi, pi)]
    D = D[np.ix_(pi, pi, pi)]
    C += 1e-13 * (rng.uniform(size=C.shape) < 0.2)
    kind = rng.integers(4)
    a, b, c = rng.integers(n, size=3)
    if kind == 1:
        (C if rng.integers(2) else D)[a, b, c] = 1.0
    elif kind == 2:
        if rng.integers(2):
            C[a, a, b] = 0.5
        else:
            D[a, b, b] = 0.5
    elif kind == 3 and a != b:
        C[a, b, c] = 1.0
        D[c, b, a] = 1.0
    return types.SimpleNamespace(n=n, C=C, D=D)


def test_nilpotent_J_matches_permutation_search(rng):
    cases = [lh.catalog(name).sc for name in lh.catalog_names()]
    cases.append(lh.frame_change(lh.catalog("iwasawa").sc, np.eye(3)[::-1]))
    cases += [_hidden_triangular(rng, int(rng.integers(1, 7))) for _ in range(240)]
    flags = Counter()
    for sc in cases:
        got = cl.nilpotent_J_check(sc)
        assert got == oracles.nilpotent_J_permutation_search(sc)
        assert got[1] is None or all(type(v) is int for v in got[1])
        flags[got[0]] += 1
    assert flags[True] >= 50 and flags[False] >= 50


# ---------------------------------------------------------------------------
# pluriclosed


def test_pluriclosed_residual_values():
    assert cl.pluriclosed_residual(te.analyze(lh.catalog("abelian-3"))) == 0.0
    assert cl.pluriclosed_residual(te.analyze(lh.catalog("kodaira-thurston"))) <= 1e-13
    assert cl.pluriclosed_residual(te.analyze(lh.catalog("so3c"))) > 0.5


def test_pluriclosed_depends_on_metric(rng):
    # generic metrics on the so(3,C) group are not pluriclosed either
    hs = lh.catalog("so3c", metric=random_hpd(rng, 3))
    assert cl.pluriclosed_residual(te.analyze(hs)) > 0.1
