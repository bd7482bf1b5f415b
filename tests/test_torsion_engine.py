"""Chern connection/torsion pipeline and the derived tensor zoo."""

import numpy as np
import pytest

import hermlab.cli as cli
import hermlab.lie_hermitian as lh
import hermlab.torsion_engine as te
from hermlab.errors import NumericalFailure

import oracles
from conftest import OVERFLOWING_FRAME_DOC, random_hpd, random_structure, random_unitary


def _analyze(name, H=None):
    hs = lh.catalog(name, metric=H)
    return te.analyze(hs)


# ---------------------------------------------------------------------------
# connection and torsion components


def test_connection_vanishes_for_holomorphic_complexification():
    # D = 0 (complex Lie groups): the identity metric is Chern-flat territory
    for name in ("so3c", "iwasawa", "abelian-3"):
        pkg = _analyze(name)
        assert np.abs(pkg.sc_u.D).max() <= 1e-15


def test_connection_equals_D_for_nilmanifold():
    pkg = _analyze("kodaira-thurston")
    assert pkg.sc_u.D[0, 1, 0] == pytest.approx(-1.0)
    assert np.count_nonzero(pkg.sc_u.D) == 1


def test_torsion_abelian_is_zero():
    assert np.abs(_analyze("abelian-3").T).max() == 0.0


def test_torsion_antisymmetric_in_lower_indices(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        pkg = te.analyze(hs)
        assert np.abs(pkg.T + np.swapaxes(pkg.T, 1, 2)).max() <= 1e-12


def test_torsion_so3c_cyclic_unit_entries():
    pkg = _analyze("so3c")
    for j, (i, k) in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        assert abs(pkg.T[j, i, k]) == pytest.approx(1.0)
        assert pkg.T[j, k, i] == pytest.approx(-pkg.T[j, i, k])
    assert pkg.norm_T2 == pytest.approx(6.0)


def test_torsion_iwasawa():
    pkg = _analyze("iwasawa")
    assert abs(pkg.T[2, 0, 1]) == pytest.approx(1.0)
    assert pkg.norm_T2 == pytest.approx(2.0)


def test_torsion_one_form_values():
    assert np.abs(_analyze("so3c").eta).max() <= 1e-15
    assert np.abs(_analyze("iwasawa").eta).max() <= 1e-15
    pkg = _analyze("kodaira-thurston")
    assert pkg.eta[0] == pytest.approx(0.0)
    assert abs(pkg.eta[1]) == pytest.approx(1.0)
    assert pkg.norm_eta2 == pytest.approx(1.0)
    # the report's Lee (1,0)-part is the negated torsion one-form
    hs = lh.catalog("kodaira-thurston")
    torsion = cli.build_report(hs.sc, pkg, lh.validate(hs.sc), {}, 1e-9)["torsion"]
    assert np.array_equal(torsion["lee"], -torsion["eta"])


def test_connection_trace_crosscheck_on_unimodular_entries(rng):
    # the D-trace route to eta agrees on every (unimodular) catalog algebra,
    # also after generic frame changes of the metric
    for name in ("so3c", "sokc-4", "iwasawa", "kodaira-thurston", "abelian-3"):
        hs = lh.catalog(name)
        for _ in range(5):
            H = random_hpd(rng, hs.n)
            pkg = te.analyze(lh.HermitianStructure(hs.sc, H))
            tr = oracles.connection_trace_one_form(pkg.sc_u)
            assert np.abs(pkg.eta - tr).max() <= 1e-10


# ---------------------------------------------------------------------------
# quadratic tensors


def test_ab_tensors_so3c():
    pkg = _analyze("so3c")
    assert np.abs(pkg.A - 2 * np.eye(3)).max() <= 1e-14
    assert np.abs(pkg.B - 2 * np.eye(3)).max() <= 1e-14


def test_ab_tensors_iwasawa():
    pkg = _analyze("iwasawa")
    assert np.abs(pkg.A - np.diag([1.0, 1.0, 0.0])).max() <= 1e-14
    assert np.abs(pkg.B - np.diag([0.0, 0.0, 2.0])).max() <= 1e-14


def test_ab_tensors_hermitian_psd_with_matching_traces(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        pkg = te.analyze(hs)
        for M in (pkg.A, pkg.B):
            assert np.abs(M - M.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(M).min() >= -1e-12
            assert np.trace(M).real == pytest.approx(pkg.norm_T2, abs=1e-10)


# ---------------------------------------------------------------------------
# covariant derivatives, phi/xi/chi


def test_covariant_derivative_vanishes_without_connection():
    pkg = _analyze("so3c")
    assert np.abs(te.covariant_derivative_T(pkg.T, pkg.sc_u.D)).max() <= 1e-15


def test_covariant_derivative_keeps_antisymmetry(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        pkg = te.analyze(hs)
        DT = te.covariant_derivative_T(pkg.T, pkg.sc_u.D)
        assert np.abs(DT + np.swapaxes(DT, 1, 2)).max() <= 1e-12


def test_templates_overwrite_a_stale_workspace(rng):
    # every term is written before it is read, so a workspace full of NaN
    # gives the bits of a call that allocates its own
    structures = [lh.catalog("kodaira-thurston"), lh.catalog("sokc-4", metric=random_hpd(rng, 6))]
    for _ in range(6):
        n = int(rng.integers(2, 5))
        structures.append(lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n)))
    for hs in structures:
        pkg = te.analyze(hs)
        T, D, n = pkg.T, pkg.sc_u.D, pkg.n
        work = np.empty((2, n, n, n, n), dtype=complex)
        for template in (te.holomorphic_derivative_T, te.covariant_derivative_T):
            for gamma in (D, T, D + T):
                work.fill(np.nan)
                got = template(T, gamma, work)
                assert np.shares_memory(got, work)
                assert np.array_equal(got, template(T, gamma))


def test_phi_xi_chi_values():
    pkg = _analyze("so3c")
    assert np.abs(pkg.phi).max() <= 1e-15
    assert np.abs(pkg.xi).max() <= 1e-15
    assert pkg.chi == 0.0
    pkg = _analyze("kodaira-thurston")
    assert pkg.chi == pytest.approx(1.0)
    assert np.trace(pkg.phi).real == pytest.approx(pkg.norm_eta2)


def test_xi_closed_form_crosscheck(rng):
    # the structure-constant route to xi agrees with the derivative route
    for name in ("so3c", "iwasawa", "kodaira-thurston", "sokc-4"):
        hs = lh.catalog(name)
        for _ in range(5):
            H = random_hpd(rng, hs.n)
            pkg = te.analyze(lh.HermitianStructure(hs.sc, H))
            alt = oracles.xi_closed_form(pkg.sc_u, pkg.T, pkg.phi)
            assert np.abs(alt - pkg.xi).max() <= 1e-10


def test_trace_identities_random(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        pkg = te.analyze(hs)
        assert np.trace(pkg.A).real == pytest.approx(pkg.norm_T2, abs=1e-10)
        assert np.trace(pkg.B).real == pytest.approx(pkg.norm_T2, abs=1e-10)
        assert np.trace(pkg.phi).real == pytest.approx(pkg.norm_eta2, abs=1e-10)
        assert abs(np.trace(pkg.phi).imag) <= 1e-10
        assert np.trace(pkg.xi).real == pytest.approx(pkg.chi, abs=1e-12)


def test_n2_torsion_trace_identity(rng):
    # complex dimension two pins |T|^2 = 2 |eta|^2
    for _ in range(20):
        hs = lh.HermitianStructure(random_structure(rng, 2), random_hpd(rng, 2))
        pkg = te.analyze(hs)
        assert pkg.norm_T2 == pytest.approx(2 * pkg.norm_eta2, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# invariances


def test_unitary_frame_invariance(rng):
    for name in ("so3c", "iwasawa", "kodaira-thurston"):
        hs = lh.catalog(name)
        base = te.analyze(hs)
        for _ in range(10):
            U = random_unitary(rng, hs.n)
            rotated = lh.HermitianStructure(lh.frame_change(hs.sc, U), np.eye(hs.n))
            pkg = te.analyze(rotated)
            assert pkg.norm_T2 == pytest.approx(base.norm_T2, abs=1e-10)
            assert pkg.norm_eta2 == pytest.approx(base.norm_eta2, abs=1e-10)
            assert pkg.chi == pytest.approx(base.chi, abs=1e-10)
            for attr in ("A", "B"):
                got = np.linalg.eigvalsh(getattr(pkg, attr))
                want = np.linalg.eigvalsh(getattr(base, attr))
                assert np.abs(got - want).max() <= 1e-10


def test_global_sign_covariance(rng):
    # flipping the exterior-derivative sign convention flips T and eta but
    # leaves every quadratic tensor unchanged
    hs = lh.HermitianStructure(random_structure(rng, 3), random_hpd(rng, 3))
    pkg = te.analyze(hs)
    flipped = lh.HermitianStructure(
        lh.StructureConstants(3, -hs.sc.C, -hs.sc.D), hs.H
    )
    pkg2 = te.analyze(flipped)
    assert np.abs(pkg2.T + pkg.T).max() <= 1e-12
    assert np.abs(pkg2.eta + pkg.eta).max() <= 1e-12
    for attr in ("A", "B", "phi", "xi"):
        assert np.abs(getattr(pkg2, attr) - getattr(pkg, attr)).max() <= 1e-12
    assert pkg2.chi == pytest.approx(pkg.chi, abs=1e-12)
    assert pkg2.norm_T2 == pytest.approx(pkg.norm_T2, abs=1e-12)


def test_metric_scaling_of_torsion_norm():
    # H -> c H rescales the unitary frame so |T|^2 scales by 1/c
    base = _analyze("so3c")
    scaled = _analyze("so3c", H=4.0 * np.eye(3))
    assert scaled.norm_T2 == pytest.approx(base.norm_T2 / 4.0)


# ---------------------------------------------------------------------------
# forms


def test_del_omega_vanishes_for_abelian():
    pkg = _analyze("abelian-2")
    assert oracles.del_omega(pkg.T).is_zero()


def test_del_omega_matches_exterior_derivative(rng):
    for name in ("so3c", "iwasawa", "kodaira-thurston"):
        hs = lh.catalog(name)
        pkg = te.analyze(hs)
        dw = oracles.exterior_d(oracles.omega_form(pkg.n), pkg.sc_u)
        want = 2.0 * dw.bidegree_part(2, 1)
        assert oracles.del_omega(pkg.T).isclose(want, tol=1e-12)
        # squared form norm of the (2,1)-part is |T|^2 / 2
        assert dw.bidegree_part(2, 1).norm() ** 2 == pytest.approx(
            pkg.norm_T2 / 2.0, abs=1e-10
        )


def test_form_coefficient_matrix_roundtrip(rng):
    n = 3
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    form = oracles.InvariantForm(n)
    for i in range(n):
        for k in range(n):
            form._insert((i, n + k), 1j * M[i, k])
    assert np.abs(oracles.form_coefficient_matrix(form, n) - M).max() <= 1e-14


def test_analyze_reports_consistent_package(rng):
    hs = lh.HermitianStructure(random_structure(rng, 3), random_hpd(rng, 3))
    pkg = te.analyze(hs)
    assert pkg.n == 3
    assert pkg.norm_T2 == pytest.approx(float(np.sum(np.abs(pkg.T) ** 2)))
    assert np.abs(pkg.eta - te.torsion_one_form(pkg.T)).max() == 0.0


def test_analyze_overflowing_unitary_frame_is_a_numerical_failure():
    hs = cli.parse_input(OVERFLOWING_FRAME_DOC)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match="unitary frame of the metric overflows"):
            te.analyze(hs)
