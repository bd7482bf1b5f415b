"""Functionals, Euler-Lagrange residuals, and variation formulas."""

import numpy as np
import pytest

import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.torsion_engine as te

import oracles
from conftest import random_hermitian, random_hpd, random_structure


SQRT96_OVER_3 = np.sqrt(2 * (4.0 / 3.0) ** 2 + (8.0 / 3.0) ** 2)  # = sqrt(96)/3


def _hs(name, H=None):
    return lh.catalog(name, metric=H)


def _pkg(name, H=None):
    return te.analyze(_hs(name, H))


# ---------------------------------------------------------------------------
# functional values


def test_torsion_functional_values():
    assert fn.torsion_functional(_pkg("abelian-3")) == 0.0
    assert fn.torsion_functional(_pkg("so3c")) == pytest.approx(6.0)
    assert fn.torsion_functional(_pkg("iwasawa")) == pytest.approx(2.0)


def test_gauduchon_functional_values():
    assert fn.gauduchon_functional(_pkg("so3c")) == 0.0
    assert fn.gauduchon_functional(_pkg("iwasawa")) == 0.0
    assert fn.gauduchon_functional(_pkg("kodaira-thurston")) == pytest.approx(1.0)


@pytest.mark.parametrize("eps", [1.0, 0.5, 1e-3, 1e-6, 1e-9])
def test_so3c_ill_conditioned_metric_closed_forms(eps):
    # H = diag(1, 1, eps): the unitary coframe is (phi_1, phi_2, sqrt(eps) phi_3),
    # so the two torsion entries that carry phi_3 scale by 1/sqrt(eps) and the
    # one that does not by sqrt(eps); the large values at small eps are exact,
    # and cond(H) = 1/eps stays below the frame-change limit
    pkg = _pkg("so3c", np.diag([1.0, 1.0, eps]))
    norm_T2 = 2 * eps + 4 / eps
    assert pkg.norm_T2 == pytest.approx(norm_T2, rel=1e-13)
    assert fn.torsion_functional(pkg) == pytest.approx(eps ** (1 / 3) * norm_T2, rel=1e-13)


def test_scale_invariance(rng):
    for name in ("so3c", "iwasawa", "kodaira-thurston"):
        hs = _hs(name)
        H = random_hpd(rng, hs.n)
        base = te.analyze(lh.HermitianStructure(hs.sc, H))
        base_F = fn.torsion_functional(base)
        base_G = fn.gauduchon_functional(base)
        for c in (0.5, 2.0, 10.0):
            scaled = te.analyze(lh.HermitianStructure(hs.sc, c * H))
            assert fn.torsion_functional(scaled) == pytest.approx(base_F, rel=1e-12)
            assert fn.gauduchon_functional(scaled) == pytest.approx(base_G, rel=1e-12)


# ---------------------------------------------------------------------------
# torsion residual Q_F


def test_QF_zero_for_kahler_and_so3c():
    for name in ("abelian-3", "so3c", "sokc-4"):
        _, norm = fn.torsion_critical_residual(_pkg(name))
        assert norm <= 1e-12


def test_QF_iwasawa_frozen_values():
    Q, norm = fn.torsion_critical_residual(_pkg("iwasawa"))
    assert np.abs(Q - np.diag([4.0 / 3, 4.0 / 3, -8.0 / 3])).max() <= 1e-12
    assert norm == pytest.approx(SQRT96_OVER_3, abs=1e-12)


def test_QF_hermitian_and_trace_identity(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        pkg = te.analyze(hs)
        Q, _ = fn.torsion_critical_residual(pkg)
        assert np.abs(Q - Q.conj().T).max() <= 1e-10
        assert np.trace(Q).real == pytest.approx(
            4 * (pkg.norm_eta2 - pkg.chi), abs=1e-9
        )
        assert abs(np.trace(Q).imag) <= 1e-10
        assert oracles.conformal_trace_residual(pkg) == pytest.approx(
            np.trace(Q).real, abs=1e-9
        )


def test_conformal_trace_residual_values():
    assert oracles.conformal_trace_residual(_pkg("so3c")) == pytest.approx(0.0, abs=1e-14)
    assert oracles.conformal_trace_residual(_pkg("kodaira-thurston")) == pytest.approx(
        0.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Gauduchon residual Q_G


def test_QG_zero_for_balanced():
    for name in ("abelian-2", "so3c", "iwasawa"):
        _, norm = fn.gauduchon_critical_residual(_pkg(name))
        assert norm <= 1e-13


def test_QG_nilmanifold_frozen_values():
    Q, norm = fn.gauduchon_critical_residual(_pkg("kodaira-thurston"))
    assert np.abs(Q - np.diag([1.5, -1.5])).max() <= 1e-12
    assert norm == pytest.approx(np.sqrt(4.5), abs=1e-12)


def test_QG_hermitian(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        Q, _ = fn.gauduchon_critical_residual(te.analyze(hs))
        assert np.abs(Q - Q.conj().T).max() <= 1e-10


# ---------------------------------------------------------------------------
# torsion first variation


def _pullback_torsion(hs):
    """Torsion components expressed back in the reference frame of hs."""
    pkg = te.analyze(hs)
    Pinv = np.linalg.inv(pkg.P)
    return np.einsum("ja,abc,bi,ck->jik", pkg.P, pkg.T, Pinv, Pinv)


def test_torsion_variation_zero_direction():
    pkg = _pkg("iwasawa")
    assert np.abs(oracles.torsion_variation(pkg, np.zeros((3, 3)))).max() == 0.0


def test_torsion_variation_abelian_is_zero(rng):
    pkg = _pkg("abelian-3")
    assert np.abs(oracles.torsion_variation(pkg, random_hermitian(rng, 3))).max() == 0.0


def test_torsion_variation_matches_finite_differences(rng):
    step = 1e-6
    for name in ("iwasawa", "kodaira-thurston", "so3c"):
        hs0 = _hs(name)
        n = hs0.n
        for _ in range(5):
            h = random_hermitian(rng, n)
            plus = _pullback_torsion(lh.HermitianStructure(hs0.sc, hs0.H + step * h))
            minus = _pullback_torsion(lh.HermitianStructure(hs0.sc, hs0.H - step * h))
            fd = (plus - minus) / (2 * step)
            pkg = te.analyze(hs0)
            Pinv = np.linalg.inv(pkg.P)
            analytic = np.einsum(
                "ja,abc,bi,ck->jik", pkg.P, oracles.torsion_variation(pkg, h), Pinv, Pinv
            )
            assert np.abs(fd - analytic).max() <= 1e-7


def test_torsion_variation_antisymmetric(rng):
    hs = lh.HermitianStructure(random_structure(rng, 3), random_hpd(rng, 3))
    Td = oracles.torsion_variation(te.analyze(hs), random_hermitian(rng, 3))
    assert np.abs(Td + np.swapaxes(Td, 1, 2)).max() <= 1e-12


# ---------------------------------------------------------------------------
# functional first variation


def _agree(analytic, fd, rel=1e-6, abs_tol=1e-9):
    denom = max(abs(analytic), abs(fd))
    if denom <= abs_tol:
        return abs(analytic - fd) <= abs_tol
    return abs(analytic - fd) / denom <= rel


def test_first_variation_zero_at_critical_points(rng):
    for name in ("abelian-3", "so3c"):
        pkg = _pkg(name)
        for _ in range(5):
            h = random_hermitian(rng, pkg.n)
            assert abs(fn.first_variation(pkg, h)) <= 1e-10


def test_first_variation_sign_iwasawa():
    # growing the first metric direction lowers the torsion energy
    hs = _hs("iwasawa")
    h = np.diag([1.0, 0.0, 0.0])
    val = fn.first_variation(te.analyze(hs), h)
    assert val == pytest.approx(-4.0 / 3.0, rel=1e-12)
    fd = fn.fd_first_variation(hs, h)
    assert _agree(val, fd)


def test_first_variation_matches_finite_differences(rng):
    for name in ("abelian-3", "so3c", "iwasawa", "kodaira-thurston"):
        hs0 = _hs(name)
        pkg = te.analyze(hs0)
        for _ in range(10):
            h = random_hermitian(rng, hs0.n)
            h /= np.linalg.norm(h)
            assert _agree(fn.first_variation(pkg, h), fn.fd_first_variation(hs0, h)), name


def test_first_variation_matches_fd_at_generic_metric(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        h = random_hermitian(rng, n)
        assert _agree(fn.first_variation(te.analyze(hs), h), fn.fd_first_variation(hs, h))


def test_gauduchon_first_variation_sign_kodaira_thurston():
    # growing the first metric direction lowers G = V^(1/n) |eta|^2; the
    # variation is -V^(1/n) Re tr(h_u Q_G), with the same sign as for F
    hs = _hs("kodaira-thurston")
    h = np.diag([1.0, 0.0])
    pkg = te.analyze(hs)
    val = fn.first_variation(pkg, h, "gauduchon_functional")
    fd = fn.fd_first_variation(hs, h, functional="gauduchon_functional")
    assert val < -0.1 and _agree(val, fd)
    Q_G, _ = fn.gauduchon_critical_residual(pkg)
    assert val == pytest.approx(-np.trace(np.asarray(h) @ Q_G).real, rel=1e-12)


@pytest.mark.parametrize("functional", ["torsion_functional", "gauduchon_functional"])
def test_first_variation_matches_fd_for_both_functionals(rng, functional):
    # kodaira-thurston and random structures under random metrics; the n = 2
    # family and kodaira-thurston factors make G and its variation nonzero.
    # The default step: below it the Richardson difference loses more to
    # rounding than its O(step^4) truncation gains
    cases = [lh.catalog("kodaira-thurston")]
    while len(cases) < 25:
        n = int(rng.integers(2, 5))
        cases.append(lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n)))
    nonzero = 0
    for hs in cases:
        pkg = te.analyze(hs)
        for _ in range(2):
            h = random_hermitian(rng, hs.n)
            h /= np.linalg.norm(h)
            val = fn.first_variation(pkg, h, functional)
            fd = fn.fd_first_variation(hs, h, functional=functional)
            assert _agree(val, fd), (functional, val, fd)
            nonzero += abs(fd) > 1e-3
    assert nonzero >= 20


def test_first_variation_rejects_unknown_functional():
    with pytest.raises(ValueError):
        fn.first_variation(_pkg("iwasawa"), np.eye(3), "residual_norm")


def test_fd_first_variation_rejects_unknown_functional():
    with pytest.raises(ValueError):
        fn.fd_first_variation(lh.catalog("iwasawa"), np.eye(3), functional="residual_norm")


def test_first_variation_linear_in_direction(rng):
    pkg = _pkg("iwasawa")
    h1 = random_hermitian(rng, 3)
    h2 = random_hermitian(rng, 3)
    lhs = fn.first_variation(pkg, 2.0 * h1 + h2)
    rhs = 2.0 * fn.first_variation(pkg, h1) + fn.first_variation(pkg, h2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# combined report


def test_residual_report_consistency(rng):
    hs = lh.HermitianStructure(random_structure(rng, 3), random_hpd(rng, 3))
    pkg = te.analyze(hs)
    rep = fn.residual_report(pkg)
    assert rep["F_value"] == pytest.approx(fn.torsion_functional(pkg), rel=1e-12)
    assert rep["G_value"] == pytest.approx(fn.gauduchon_functional(pkg), rel=1e-12)
    assert rep["norm_Q_F"] == pytest.approx(np.linalg.norm(rep["Q_F"]))
    assert rep["norm_Q_G"] == pytest.approx(np.linalg.norm(rep["Q_G"]))
    # the trace residual the text report prints is tr Q_F
    assert 4.0 * (pkg.norm_eta2 - pkg.chi) == pytest.approx(np.trace(rep["Q_F"]).real, abs=1e-9)
