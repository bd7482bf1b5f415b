"""Structure constants, validation, complexification, frames, catalog."""

import re

import numpy as np
import pytest

import hermlab.classifiers as cl
import hermlab.cli as cli
import hermlab.lie_hermitian as lh
import hermlab.tensor_algebra as ta
import hermlab.torsion_engine as te
from hermlab.errors import (
    DimensionMismatch,
    NotIntegrable,
    NotUnimodular,
    NumericalFailure,
    SingularFrame,
    UnknownCatalogEntry,
)

import oracles
from conftest import (
    CATALOG_SAMPLE,
    direct_sum,
    hopf,
    hopf_real,
    kodaira_thurston_real,
    n2_family,
    nakamura,
    random_gl,
    random_hpd,
    random_real_basis_change,
    random_structure,
    random_two_step_structure,
    random_unitary,
    realified_so,
    semidirect,
    standard_J,
)


# ---------------------------------------------------------------------------
# validation


def test_validate_abelian():
    rep = lh.validate(lh.catalog("abelian-3").sc)
    assert rep.ok
    for c in rep.checks:
        assert c["residual"] <= 1e-14


@pytest.mark.parametrize("name", CATALOG_SAMPLE)
def test_validate_catalog_entries(name):
    rep = lh.validate(lh.catalog(name).sc)
    assert rep.ok, [(c["name"], c["residual"]) for c in rep.checks if not c["passed"]]
    for c in rep.checks:
        assert c["residual"] <= 1e-12


def test_validate_flags_broken_antisymmetry():
    C = np.zeros((3, 3, 3), dtype=complex)
    C[0, 1, 2] = 1.0  # missing the antisymmetric partner
    sc = lh.StructureConstants(3, C, np.zeros((3, 3, 3)))
    rep = lh.validate(sc)
    assert not rep.ok
    assert {c["name"]: c["residual"] for c in rep.checks}["C_antisymmetry"] > 0.1


def test_validate_flags_dd_violation():
    # d phi_1 = phi_1 ^ phi_2 and d phi_2 = phi_1 ^ phibar_1 together break
    # d(d phi_2) = 0
    C = np.zeros((2, 2, 2), dtype=complex)
    C[0, 0, 1] = 1.0
    C[0, 1, 0] = -1.0
    D = np.zeros((2, 2, 2), dtype=complex)
    D[0, 1, 0] = 1.0
    rep = lh.validate(lh.StructureConstants(2, C, D))
    residual = {c["name"]: c["residual"] for c in rep.checks}
    assert not rep.ok
    assert residual["dd_phi"] > 1e-3


@pytest.mark.parametrize("doc", [
    {"catalog": "so3c"},
    # d(d phi) lives only in the mixed bidegree blocks: dd_phi fails
    {"n": 2, "C": [], "D": [{"up": 1, "lo": [2, 1], "re": 1.0},
                            {"up": 2, "lo": [1, 2], "re": 1.0}]},
], ids=["so3c", "mixed"])
def test_validate_returns_the_report_rows(doc):
    hs = cli.parse_input(doc)
    rep = lh.validate(hs.sc)
    assert isinstance(rep.checks, list)
    for c in rep.checks:
        assert isinstance(c, dict) and set(c) == {"name", "passed", "residual"}
    assert rep.ok == all(c["passed"] for c in rep.checks)
    report = cli.build_report(hs.sc, te.analyze(hs), rep, doc, 1e-9)
    assert report["validation"] == {"ok": rep.ok, "checks": rep.checks}


def test_validate_random_framed_structures(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        sc = random_structure(rng, n)
        rep = lh.validate(sc)
        assert rep.ok, [(c["name"], c["residual"]) for c in rep.checks if not c["passed"]]


# ---------------------------------------------------------------------------
# exterior derivative


def test_exterior_d_of_scalar_is_zero():
    sc = lh.catalog("so3c").sc
    assert oracles.exterior_d(oracles.InvariantForm.scalar(3, 2.0), sc).is_zero()


def test_exterior_d_so3c_coframe():
    # d phi_1 = phi_2 ^ phi_3
    sc = lh.catalog("so3c").sc
    d = oracles.exterior_d(oracles.InvariantForm.hol(3, 0), sc)
    assert abs(d.coefficient((1, 2)) - 1.0) <= 1e-14
    assert len(d.terms) == 1


def test_exterior_d_squares_to_zero(rng):
    for name in CATALOG_SAMPLE:
        sc = lh.catalog(name).sc
        for j in range(sc.n):
            for gen in (oracles.InvariantForm.hol, oracles.InvariantForm.anti):
                dd = oracles.exterior_d(oracles.exterior_d(gen(sc.n, j), sc), sc)
                assert dd.max_abs() <= 1e-12


def test_exterior_d_commutes_with_conjugation(rng):
    sc = random_structure(rng, 3)
    f = oracles.InvariantForm(3)
    for _ in range(4):
        idx = tuple(rng.choice(6, size=2, replace=False))
        f._insert(idx, complex(rng.standard_normal(), rng.standard_normal()))
    lhs = oracles.exterior_d(f, sc).conjugate()
    rhs = oracles.exterior_d(f.conjugate(), sc)
    assert lhs.isclose(rhs, tol=1e-12)


def test_exterior_d_leibniz(rng):
    sc = random_structure(rng, 3)
    a = oracles.InvariantForm.hol(3, 0) + 2.0 * oracles.InvariantForm.anti(3, 1)
    b = oracles.InvariantForm.hol(3, 1).wedge(oracles.InvariantForm.anti(3, 2))
    lhs = oracles.exterior_d(a.wedge(b), sc)
    rhs = oracles.exterior_d(a, sc).wedge(b) + (-1.0) * a.wedge(oracles.exterior_d(b, sc))
    assert lhs.isclose(rhs, tol=1e-12)


def test_iwasawa_d_omega_is_single_21_term():
    hs = lh.catalog("iwasawa")
    omega = oracles.InvariantForm(3, {(s, 3 + s): 1j for s in range(3)})
    dw = oracles.exterior_d(omega, hs.sc)
    part = dw.bidegree_part(2, 1)
    assert dw.isclose(part + dw.bidegree_part(1, 2), tol=0.0)
    # the only (2,1)-term is a multiple of phi_1 ^ phi_2 ^ phibar_3
    assert len(part.terms) == 1
    assert abs(abs(part.coefficient((0, 1, 5))) - 1.0) <= 1e-14


# ---------------------------------------------------------------------------
# complexification


def test_complexify_abelian_standard_J():
    dim = 4
    J = np.zeros((dim, dim))
    J[1, 0], J[0, 1] = 1.0, -1.0
    J[3, 2], J[2, 3] = 1.0, -1.0
    sc = lh.complexify(lh.RealLieData(dim, np.zeros((dim, dim, dim)), J))
    assert sc.n == 2
    assert np.abs(sc.C).max() <= 1e-14
    assert np.abs(sc.D).max() <= 1e-14


def test_complexify_nilmanifold_single_term():
    sc = lh.complexify(kodaira_thurston_real())
    assert sc.n == 2
    assert np.abs(sc.C).max() <= 1e-13
    nz = np.argwhere(np.abs(sc.D) > 1e-13)
    assert nz.tolist() == [[0, 1, 0]]
    assert sc.D[0, 1, 0] == pytest.approx(-0.5j)
    assert lh.validate(sc).ok


def test_complexify_so3c_real_matches_complex_catalog():
    sc = lh.complexify(realified_so(3))
    assert lh.validate(sc).ok
    ref = lh.catalog("so3c").sc
    assert np.abs(sc.C - ref.C).max() <= 1e-12
    assert np.abs(sc.D).max() <= 1e-12


def test_complexify_random_basis_changes_stay_valid(rng):
    for base in (kodaira_thurston_real(), realified_so(3)):
        for _ in range(10):
            rl = random_real_basis_change(rng, base)
            sc = lh.complexify(rl)
            assert lh.validate(sc).ok


def test_complexify_rejects_non_integrable():
    # Heisenberg x R with J pairing the bracket directions across the center
    f = np.zeros((4, 4, 4))
    f[2, 0, 1] = 1.0
    f[2, 1, 0] = -1.0
    J = np.zeros((4, 4))
    J[2, 0], J[0, 2] = 1.0, -1.0
    J[3, 1], J[1, 3] = 1.0, -1.0
    with pytest.raises(NotIntegrable):
        lh.complexify(lh.RealLieData(4, f, J))


def test_complexify_leaves_jacobi_to_validate():
    # the realification of d phi_1 = -phi_2 ^ phibar_2, d phi_2 = -phi_1 ^
    # phibar_1: f fails Jacobi, complexify returns the structure all the same,
    # and validate's d(d phi) = 0, which decides Jacobi, rejects it
    f = np.zeros((4, 4, 4))
    f[2, 1, 3], f[2, 3, 1] = -2.0, 2.0
    f[3, 0, 2], f[3, 2, 0] = -2.0, 2.0
    sc = lh.complexify(lh.RealLieData(4, f, standard_J(2)))
    assert oracles.real_jacobi_residual(f) == 4.0
    residual = {c["name"]: c["residual"] for c in lh.validate(sc).checks}
    assert residual == {"C_antisymmetry": 0.0, "dd_phi": 1.0}


def test_complexify_rejects_a_singular_complexified_basis():
    # J = A J0 A^-1 with A = diag(1, 1e-14): J^2 = -I, but its +i eigenvector
    # (1e14 i, 1) and its conjugate make a frame of condition number 1e14
    J = np.array([[0.0, -1e14], [1e-14, 0.0]])
    with pytest.raises(SingularFrame, match="complexified basis"):
        lh.complexify(lh.RealLieData(2, np.zeros((2, 2, 2)), J))


def test_complexify_rejects_bad_J():
    J = np.eye(4)  # J^2 = +I
    with pytest.raises(Exception):
        lh.complexify(lh.RealLieData(4, np.zeros((4, 4, 4)), J))


# ---------------------------------------------------------------------------
# unimodularity


@pytest.mark.parametrize("weights, trace", [((1.0,), 1.0), ((1.0, 1.0), 2.0)],
                         ids=["aff-C", "C-x-C2-weights-1-1"])
def test_non_unimodular_structures_are_rejected(weights, trace):
    sc = semidirect(weights)
    assert lh.validate(sc).ok
    assert lh.unimodularity_residual(sc) == trace
    with pytest.raises(NotUnimodular, match=re.escape(f"max |tr ad| = {trace:.3e}")):
        lh.require_unimodular(sc)


def test_test_structures_are_unimodular(rng):
    # every catalog entry and every builder the suite draws structures from
    kt_real = kodaira_thurston_real()
    structures = [lh.catalog(name).sc for name in lh.catalog_names()]
    structures += [lh.catalog(name).sc for name in ("abelian-1", "sokc-5", "sokc-6")]
    structures += [nakamura(), hopf(), semidirect((2.0, -0.5, -1.5)), n2_family(0.7 + 0.3j),
                   lh.complexify(realified_so(4)), direct_sum(nakamura(), hopf())]
    structures += [random_structure(rng, n) for n in (2, 3, 4) for _ in range(10)]
    structures += [random_two_step_structure(rng, n, m) for n, m in ((3, 2), (5, 2), (5, 3))]
    structures += [lh.complexify(random_real_basis_change(rng, rl))
                   for rl in (kt_real, hopf_real(), realified_so(3)) for _ in range(5)]
    for sc in structures:
        assert lh.validate(sc).ok
        assert lh.unimodularity_residual(sc) <= 1e-12
        lh.require_unimodular(sc)


def test_nakamura_and_hopf():
    # Nakamura: solvable, not nilpotent, D = 0; Hopf: su(2) + R, D != 0
    sc = nakamura()
    assert not sc.D.any() and np.abs(sc.C).max() == 1.0
    assert not cl.nilpotent_J_check(sc)[0]
    sc = hopf()
    assert sc.n == 2 and np.abs(sc.D).max() > 0.1 and np.abs(sc.C).max() > 0.1
    assert not cl.nilpotent_J_check(sc)[0]


# ---------------------------------------------------------------------------
# one tolerance policy: validation and complexification use DEFAULT_TOL


@pytest.mark.parametrize("planted, accepted", [(5e-10, True), (5e-9, False)])
def test_validate_antisymmetry_boundary_is_default_tol(planted, accepted):
    # Iwasawa has d(d phi_j) = 0 for any C^3_{12}, so only antisymmetry moves
    sc = lh.catalog("iwasawa").sc
    C = sc.C.copy()
    C[2, 0, 1] += planted
    rep = lh.validate(lh.StructureConstants(3, C, sc.D))
    residual = {c["name"]: c["residual"] for c in rep.checks}
    assert residual["C_antisymmetry"] == pytest.approx(planted, rel=1e-6)
    assert residual["dd_phi"] == 0.0
    assert rep.ok is accepted


@pytest.mark.parametrize("planted, accepted", [(5e-10, True), (5e-9, False)])
def test_complexify_antisymmetry_boundary_is_default_tol(planted, accepted):
    # the Heisenberg bracket lands in the centre, so Jacobi holds for any f^3_{12}
    kt = kodaira_thurston_real()
    f = kt.f.copy()
    f[2, 0, 1] += planted
    rl = lh.RealLieData(4, f, kt.J)
    if accepted:
        assert lh.complexify(rl).n == 2
    else:
        with pytest.raises(ValueError, match="not antisymmetric"):
            lh.complexify(rl)


@pytest.mark.parametrize("planted, accepted", [(5e-10, True), (5e-9, False)])
def test_complexify_J_square_boundary_is_default_tol(planted, accepted):
    kt = kodaira_thurston_real()
    J = kt.J.copy()
    J[1, 0] += planted
    rl = lh.RealLieData(4, kt.f, J)
    if accepted:
        assert lh.complexify(rl).n == 2
    else:
        with pytest.raises(ValueError, match="J\\*J = -I fails"):
            lh.complexify(rl)


# ---------------------------------------------------------------------------
# frame changes and unitary reduction


def test_frame_change_identity_is_noop():
    sc = lh.catalog("iwasawa").sc
    out = lh.frame_change(sc, np.eye(3))
    assert np.abs(out.C - sc.C).max() <= 1e-15
    assert np.abs(out.D - sc.D).max() <= 1e-15


def test_frame_change_functorial(rng):
    sc = random_structure(rng, 3)
    P1 = random_gl(rng, 3)
    P2 = random_gl(rng, 3)
    via_both = lh.frame_change(lh.frame_change(sc, P1), P2)
    direct = lh.frame_change(sc, P1 @ P2)
    assert np.abs(via_both.C - direct.C).max() <= 1e-10
    assert np.abs(via_both.D - direct.D).max() <= 1e-10


def test_frame_change_scaling_law():
    # shrinking the frame by c^(1/2) (coframe grows) divides C by c^(1/2)
    sc = lh.catalog("so3c").sc
    c = 4.0
    out = lh.frame_change(sc, np.eye(3) / np.sqrt(c))
    assert np.abs(out.C - sc.C / np.sqrt(c)).max() <= 1e-14


def test_frame_change_preserves_validity(rng):
    sc = lh.catalog("kodaira-thurston").sc
    for _ in range(10):
        assert lh.validate(lh.frame_change(sc, random_gl(rng, 2))).ok


def test_frame_change_rejects_singular():
    sc = lh.catalog("abelian-2").sc
    with pytest.raises(SingularFrame):
        lh.frame_change(sc, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_frame_change_rejects_a_frame_of_another_dimension():
    sc = lh.catalog("so3c").sc
    with pytest.raises(DimensionMismatch, match="3x3"):
        lh.frame_change(sc, np.eye(2))


def test_unitary_reduction_identity_metric():
    hs = lh.catalog("so3c")
    P, sc_u = lh.unitary_reduction(hs)
    assert np.allclose(P, np.eye(3))
    assert np.abs(sc_u.C - hs.sc.C).max() <= 1e-15


def test_unitary_reduction_gram_is_identity(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        P, sc_u = lh.unitary_reduction(hs)
        assert np.abs(oracles.gram_matrix(hs.H, P) - np.eye(n)).max() <= 1e-10
        assert lh.validate(sc_u).ok


def test_unitary_reduction_diagonal_metric_matches_scaling():
    hs = lh.catalog("so3c", metric=np.diag([4.0, 1.0, 1.0]))
    P, sc_u = lh.unitary_reduction(hs)
    ref = lh.frame_change(hs.sc, np.diag([0.5, 1.0, 1.0]))
    assert np.abs(sc_u.C - ref.C).max() <= 1e-14


def test_unitary_frame_invariant_under_unitary_rotation(rng):
    # rotating a unitary frame by a unitary keeps the Gram matrix identity
    hs = lh.catalog("iwasawa")
    _, sc_u = lh.unitary_reduction(hs)
    U = random_unitary(rng, 3)
    assert np.abs(oracles.gram_matrix(np.eye(3), U) - np.eye(3)).max() <= 1e-12
    assert lh.validate(lh.frame_change(sc_u, U)).ok


def test_analysis_runs_no_svd_below_the_cond_limit(rng, monkeypatch):
    # the norm bound cond(H) <= |L|_F^2 |P|_F^2 <= n^2 cond(H) decides every
    # metric of cond(H) <= 1e13 / n^2: no SVD for the catalog or for metrics
    # of cond <= 1e6
    structures = [lh.catalog(name) for name in CATALOG_SAMPLE]
    for _ in range(20):
        n = int(rng.integers(2, 5))
        U = random_unitary(rng, n)
        H = (U * np.exp(rng.uniform(0.0, np.log(1e6), n))) @ U.conj().T
        H = (H + H.conj().T) / 2
        assert np.linalg.cond(H) <= 1e6 * (1 + 1e-9)
        structures.append(lh.HermitianStructure(random_structure(rng, n), H))
    calls = []
    real = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a: calls.append(a) or real(*a))
    for hs in structures:
        te.analyze(hs)
    assert calls == []


def _singular_verdict(hs):
    """The SingularFrame message :func:`lh.unitary_reduction` raises, None
    when it raises none (an overflowing unitary frame is another failure),
    and the same read off cond(H) = cond(L)^2 by an SVD."""
    cond = np.linalg.cond(ta.cholesky(hs.H)) ** 2
    expected = (f"metric is numerically singular: cond(H) = {cond:.3e}"
                if cond > lh._COND_LIMIT else None)
    try:
        lh.unitary_reduction(hs)
    except SingularFrame as exc:
        return str(exc), expected
    except NumericalFailure:
        pass
    return None, expected


@pytest.mark.parametrize("name", ["so3c", "iwasawa"])
@pytest.mark.parametrize("eps", [5e-14, 1e-13, 2e-13, 1e-14])
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e308, 1e-308])
def test_unitary_reduction_cond_verdict_is_the_svds(name, eps, scale):
    # near the limit the norm bound cannot decide, and the verdict and the
    # message are those of cond(H) = cond(L)^2 by an SVD; at 1e-13 it is the
    # rounding of that value that decides.  Scaled by 1e308, |L|_F^2
    # overflows, and by 1e-308, |P|_F^2 does: a non-finite bound goes to the SVD
    verdict, expected = _singular_verdict(lh.catalog(name, metric=scale * np.diag([1.0, 1.0, eps])))
    assert verdict == expected


def test_unitary_reduction_cond_verdict_off_the_diagonal(rng):
    # the same verdict for a rotated metric, whose Cholesky factor is full
    U = random_unitary(rng, 3)
    for eps in (5e-14, 2e-13, 1e-14):
        H = (U * [1.0, 1.0, eps]) @ U.conj().T
        verdict, expected = _singular_verdict(lh.catalog("iwasawa", metric=(H + H.conj().T) / 2))
        assert verdict == expected, eps


def test_frame_change_rejects_a_frame_past_the_cond_limit(rng, monkeypatch):
    sc = lh.catalog("iwasawa").sc
    U, V = random_unitary(rng, 3), random_unitary(rng, 3)
    ill = (U * [1.0, 1e-7, 1e-14]) @ V  # cond(P) = 1e14
    for P in (ill, 1e200 * ill, 1e-200 * ill):
        with pytest.raises(SingularFrame, match="frame-change matrix"):
            lh.frame_change(sc, P)
    # a frame of cond 5e12 passes; scaled by 1e200 its norm overflows and
    # its inverse's underflows, so the non-finite bound leaves it to the SVD
    calls = []
    real = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a: calls.append(a) or real(*a))
    fine = (U * [1.0, 1e-6, 2e-13]) @ V
    big = 1e200 * fine
    assert np.array_equal(lh._inverse_frame(big, 1, "x"), np.linalg.inv(big))
    assert len(calls) == 1
    assert lh.frame_change(sc, fine).n == 3


# ---------------------------------------------------------------------------
# catalog


def test_catalog_names_all_resolve():
    for name in lh.catalog_names():
        hs = lh.catalog(name)
        assert hs.n >= 1


def test_catalog_unknown_raises():
    with pytest.raises(UnknownCatalogEntry):
        lh.catalog("nope-7")
    with pytest.raises(UnknownCatalogEntry):
        lh.catalog("sokc-2")


def test_catalog_parametric_families():
    assert lh.catalog("abelian-5").n == 5
    assert lh.catalog("sokc-4").n == 6  # dim so(4) = 6
    assert lh.catalog("sokc-3").n == 3


def test_catalog_structure_equations_text():
    lines = lh.structure_equations_text(lh.catalog("so3c").sc)
    assert lines[0] == "d f1 = f2 ^ f3"
    lines = lh.structure_equations_text(lh.catalog("abelian-2").sc)
    assert lines == ["d f1 = 0", "d f2 = 0"]


def test_catalog_metric_override():
    H = np.diag([2.0, 3.0])
    hs = lh.catalog("kodaira-thurston", metric=H)
    assert np.allclose(hs.H, H)


# ---------------------------------------------------------------------------
# construction from non-contiguous arrays


def test_hermitian_structure_accepts_transposed_metric(rng):
    # H.T has a strided last axis; the finiteness check must still read it
    sc = lh.catalog("iwasawa").sc
    H = random_hpd(rng, 3)
    assert np.array_equal(lh.HermitianStructure(sc, H.T).H, H.T)
    H[2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        lh.HermitianStructure(sc, H.T)


def test_structure_constants_reject_wrong_shape():
    with pytest.raises(ValueError, match=re.escape("C must have shape (2, 2, 2)")):
        lh.StructureConstants(2, np.zeros((3, 3, 3)), np.zeros((2, 2, 2)))


def test_structure_constants_accept_transposed_tensors():
    sc = lh.catalog("so3c").sc
    C, D = sc.C.T.copy().T, sc.D.T.copy().T  # equal values, Fortran order
    assert not C.flags.c_contiguous
    rebuilt = lh.StructureConstants(sc.n, C, D)
    assert np.array_equal(rebuilt.C, sc.C) and np.array_equal(rebuilt.D, sc.D)
