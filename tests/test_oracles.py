"""The library's tensor-contraction closed forms against their oracles.

Each closed form (the exterior derivative of 2-forms and validation's
d(d e) = 0 residuals, Q_G, the pluriclosed residual, frame changes, the
Strominger-parallel residuals) is compared with the route in ``oracles`` on
seeded random valid structures under random metrics, on catalog entries,
and, for validation and the exterior derivative, on random C/D that fail
the Jacobi identity.  Validation's d(d phi) = 0 must also decide like the
real Jacobi identity on the realifications of both kinds of input, as
complexification leaves that identity to it.  The exterior derivative's
(3,0), (2,1) and (1,2) blocks are also compared with the dense contraction
over all 2n generators, on families where C = 0 or D = 0 leaves only some
of them non-zero.  The BLAS-routed derivative templates, xi and the pluriclosed residual are also
compared with the two-operand einsums they replaced.

The whole-array constant builders (so(k) constants, so(3, C) as real data,
complexification, the Hermitian basis) must equal their scalar-loop
versions bit for bit, the sign of every zero included.  The column pivoting
that picks complexification's (1,0) basis must pick the columns of scipy's
pivoted QR.
"""

import numpy as np
import pytest
import scipy.linalg

import hermlab.classifiers as cl
import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.tensor_algebra as ta
import hermlab.torsion_engine as te

import oracles
from conftest import (CATALOG_SAMPLE, random_gl, random_hpd, random_real_basis_change,
                      random_structure, random_two_step_structure, realified, realified_so,
                      standard_J)

REL_TOL = 1e-12


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(np.asarray(got) - np.asarray(want)).max()) <= REL_TOL * scale


def _random_metric_structures(seed, count=30, two_step=12, names=CATALOG_SAMPLE):
    """The catalog entries ``names``, then ``count`` seeded random structures
    and ``two_step`` seeded 2-step structures, frame-mixed, under random
    metrics.  Only the 2-step ones have C != 0 and D != 0 together, which
    the relative sign of a C term and a D term needs."""
    rng = np.random.default_rng(seed)
    out = [lh.catalog(name) for name in names]
    for _ in range(count):
        n = int(rng.integers(2, 5))
        out.append(lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n)))
    for _ in range(two_step):
        n = int(rng.integers(3, 6))
        sc = lh.frame_change(random_two_step_structure(rng, n, int(rng.integers(2, n))),
                             random_gl(rng, n))
        assert lh.validate(sc).ok
        out.append(lh.HermitianStructure(sc, random_hpd(rng, n)))
    return out


def _with_c_and_d(structures):
    """How many of ``structures`` have C != 0 and D != 0 together."""
    return sum(np.abs(hs.sc.C).max() > 0 and np.abs(hs.sc.D).max() > 0 for hs in structures)


def _non_jacobi_constants(seed, count=30, with_C=True, with_D=True, smallest=2):
    """Random C (antisymmetric) and D, either one set to zero on request."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(smallest, 6))
        C = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        D = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        C = C - C.swapaxes(1, 2) if with_C else np.zeros_like(C)
        out.append(lh.StructureConstants(n, C, D if with_D else np.zeros_like(D)))
    return out


def test_validate_dd_matches_exterior_derivative():
    valid = _random_metric_structures(101)
    assert _with_c_and_d(valid) >= 10
    structures = [hs.sc for hs in valid] + _non_jacobi_constants(102)
    failing = 0
    for sc in structures:
        rep = lh.validate(sc)
        residual = {c.name: c.residual for c in rep.checks}
        # validate's one d(d phi) residual also stands for d(d phibar)
        dd_phi, dd_phibar = oracles.dd_residuals(sc)
        assert _close(residual["dd_phi"], dd_phi)
        assert _close(residual["dd_phi"], dd_phibar)
        failing += not rep.ok
    # the non-Jacobi inputs really exercise nonzero residuals
    assert failing >= 25

    # non-Jacobi families whose d(d phi_j) lives in known bidegrees: with
    # D = 0 only the (3,0) part is non-zero, with C = 0 only the mixed parts;
    # each block must match the dense contraction, a zero block exactly
    families = (
        ((0,), _non_jacobi_constants(111, count=15, with_D=False, smallest=3)),
        ((1, 2), _non_jacobi_constants(112, count=15, with_C=False)),
    )
    for live, family in families:
        for sc in family:
            n = sc.n
            N = lh.structure_tensor(sc)
            dense = oracles.dense_exterior_d(N[:n], N)
            want = oracles.bidegree_blocks(dense)
            got = lh.exterior_d(N[:n], N)
            for k in range(3):
                if k in live:
                    assert _close(got[k], want[k]) and np.abs(want[k]).max() > 0.1
                else:
                    assert np.abs(got[k]).max() == 0.0 == np.abs(want[k]).max()
            residual = {c.name: c.residual for c in lh.validate(sc).checks}
            assert _close(residual["dd_phi"], np.abs(dense).max())


def test_gauduchon_residual_matches_form_route():
    structures = _random_metric_structures(103)
    assert _with_c_and_d(structures) >= 10
    for hs in structures:
        pkg = te.analyze(hs)
        Q, norm = fn.gauduchon_critical_residual(pkg)
        want = oracles.gauduchon_residual(pkg)
        assert _close(Q, want)
        assert _close(norm, np.linalg.norm(want))


def test_pluriclosed_residual_matches_form_route():
    values = []
    for hs in _random_metric_structures(104):
        pkg = te.analyze(hs)
        got = cl.pluriclosed_residual(pkg)
        want = oracles.pluriclosed_residual(pkg)
        assert _close(got, want)
        values.append(want)
    assert max(values) > 0.1


def test_frame_change_matches_transformation_laws():
    rng = np.random.default_rng(105)
    structures = _random_metric_structures(106)
    assert _with_c_and_d(structures) >= 10
    for hs in structures:
        P = random_gl(rng, hs.n)
        got = lh.frame_change(hs.sc, P)
        C, D = oracles.frame_change(hs.sc, P)
        assert _close(got.C, C)
        assert _close(got.D, D)


def test_stp_residuals_equal_written_out_contractions():
    # the library takes the templates at the Strominger connection D + T, the
    # oracle adds hand-written T*T terms to the Chern derivative
    structures = [lh.catalog(name) for name in lh.catalog_names()]
    structures += _random_metric_structures(107, count=120)
    nonzero = 0
    for hs in structures:
        pkg = te.analyze(hs)
        got = cl.stp_check(pkg)
        want = oracles.stp_identity_residuals(pkg)
        assert got.keys() == want.keys()
        assert all(_close(got[key], want[key]) for key in want)
        nonzero += got["nabla_s_hol"] > 1e-3 and got["nabla_s_bar"] > 1e-3
    assert nonzero >= 10


def _upper_triangular_nilpotent(k):
    """n(k, C), the strictly upper-triangular k x k matrices with basis E_ab
    (a < b) in level order, as the benchmark's report ladder builds it."""
    pairs = sorted(((a, b) for a in range(k) for b in range(a + 1, k)),
                   key=lambda p: (p[1] - p[0], p[0]))
    index = {p: m for m, p in enumerate(pairs)}
    n = len(pairs)
    C = np.zeros((n, n, n), dtype=complex)
    for (a, b), i in index.items():
        for (b2, c), j in index.items():
            if b2 == b:  # [E_ab, E_bc] = E_ac
                C[index[(a, c)], i, j] = -1.0
                C[index[(a, c)], j, i] = 1.0
    return lh.StructureConstants(n, C, np.zeros_like(C))


def _kodaira_thurston_sum(copies):
    """The sum of Kodaira-Thurston copies, d phi_{2m+2} = phi_{2m+1} ^ phibar_{2m+1}."""
    n = 2 * copies
    D = np.zeros((n, n, n), dtype=complex)
    for m in range(copies):
        D[2 * m, 2 * m + 1, 2 * m] = -1.0
    return lh.StructureConstants(n, np.zeros_like(D), D)


def _strominger_residuals(pkg):
    """max |nabla^s T| in the unbarred and the barred direction, by the
    einsum templates."""
    S = pkg.sc_u.D + pkg.T
    return (float(np.abs(oracles.holomorphic_derivative_T(pkg.T, S)).max()),
            float(np.abs(oracles.covariant_derivative_T(pkg.T, S)).max()))


def test_stp_with_D_zero_reads_nabla_s_hol_from_quadratic_hol():
    # D = 0 makes the Strominger connection D + T equal to T, so nabla_s_hol
    # is the quadratic T*T combination; by the Jacobi identity it vanishes,
    # while the barred derivative does not
    rng = np.random.default_rng(113)
    bases = [lh.catalog(name).sc for name in ("sokc-4", "sokc-5", "iwasawa")]
    bases += [_upper_triangular_nilpotent(k) for k in (4, 5)]
    for sc in bases:
        assert lh.validate(sc).ok
        for _ in range(2):
            pkg = te.analyze(lh.HermitianStructure(sc, random_hpd(rng, sc.n)))
            assert not pkg.sc_u.D.any()
            res = cl.stp_check(pkg)
            hol, bar = _strominger_residuals(pkg)
            assert _close(res["nabla_s_hol"], oracles.stp_derived_identities(pkg)["quadratic_hol"])
            assert _close(res["nabla_s_hol"], hol) and _close(res["nabla_s_bar"], bar)
            assert res["nabla_s_hol"] <= 1e-10 < 1e-3 < res["nabla_s_bar"]


def test_stp_with_D_nonzero_builds_the_strominger_template():
    # the two maxima may still meet where D contributes nothing, so most
    # draws, not all, must tell them apart
    rng = np.random.default_rng(127)
    differ = 0
    for copies in (2, 3):
        sc = _kodaira_thurston_sum(copies)
        assert lh.validate(sc).ok
        for _ in range(4):
            pkg = te.analyze(lh.HermitianStructure(sc, random_hpd(rng, sc.n)))
            assert pkg.sc_u.D.any()
            res = cl.stp_check(pkg)
            hol, bar = _strominger_residuals(pkg)
            assert _close(res["nabla_s_hol"], hol) and _close(res["nabla_s_bar"], bar)
            assert res["nabla_s_hol"] > 1e-3
            quadratic = oracles.stp_derived_identities(pkg)["quadratic_hol"]
            differ += abs(res["nabla_s_hol"] - quadratic) > 1e-3 * quadratic
    assert differ >= 6


def _template_structures():
    """Every catalog entry, then 60 seeded random structures and 20 seeded
    2-step structures, frame-mixed, under random metrics."""
    return _random_metric_structures(111, count=60, two_step=20, names=lh.catalog_names())


def test_derivative_templates_and_xi_match_einsum_route():
    # the tensordot templates against the two-operand einsums, at the Chern,
    # torsion and Strominger coefficients; xi against the trace of nabla T
    with_d = nonzero = 0
    for hs in _template_structures():
        pkg = te.analyze(hs)
        T, D = pkg.T, pkg.sc_u.D
        for gamma in (D, T, D + T):
            assert _close(te.holomorphic_derivative_T(T, gamma),
                          oracles.holomorphic_derivative_T(T, gamma))
            assert _close(te.covariant_derivative_T(T, gamma),
                          oracles.covariant_derivative_T(T, gamma))
        DT = oracles.covariant_derivative_T(T, D)
        assert _close(pkg.xi, np.einsum("jirr->ij", DT))
        with_d += np.abs(hs.sc.D).max() > 0
        nonzero += np.abs(DT).max() > 1e-3 and np.abs(pkg.xi).max() > 1e-3
    assert with_d >= 20 and nonzero >= 10


def test_pluriclosed_residual_matches_einsum_route():
    nonzero = 0
    for hs in _template_structures():
        pkg = te.analyze(hs)
        want = oracles.pluriclosed_residual_einsum(pkg)
        assert _close(cl.pluriclosed_residual(pkg), want)
        nonzero += want > 1e-3
    assert nonzero >= 10


@pytest.mark.parametrize("name", ["abelian-1", "abelian-2", "so3c", "kodaira-thurston"])
def test_closed_forms_on_small_catalog_entries(name):
    hs = lh.catalog(name)
    pkg = te.analyze(hs)
    residual = {c.name: c.residual for c in lh.validate(hs.sc).checks}
    assert _close([residual["dd_phi"]] * 2, oracles.dd_residuals(hs.sc))
    assert _close(fn.gauduchon_critical_residual(pkg)[0], oracles.gauduchon_residual(pkg))
    assert _close(cl.pluriclosed_residual(pkg), oracles.pluriclosed_residual(pkg))


# ---------------------------------------------------------------------------
# the structure tensor against the structure equation written term by term


def _rendered_structures():
    """The catalog entries, sokc-5..7 and 60 seeded random structures, whose
    non-unit complex coefficients print as ``(c)``; in a third of them the
    frame change leaves C antisymmetric only to rounding."""
    rng = np.random.default_rng(110)
    names = lh.catalog_names() + ["sokc-5", "sokc-6", "sokc-7"]
    out = [lh.catalog(name).sc for name in names]
    # 2 so(3) with signed zeros: the term loop prints (-2+0j), never (-2-0j)
    C = 2.0 * lh.so_structure_constants(3).astype(complex)
    lower = np.tril(np.ones((3, 3), dtype=bool), -1)
    C.imag[:, lower] = -0.0
    out.append(lh.StructureConstants(3, C, np.zeros((3, 3, 3))))
    return out + [random_structure(rng, int(rng.integers(2, 5))) for _ in range(60)]


def test_structure_equations_text_equals_term_loop():
    generic = inexact = 0
    for sc in _rendered_structures():
        got = lh.structure_equations_text(sc)
        assert got == oracles.structure_equations_text(sc)
        generic += any("(" in line for line in got)
        inexact += not np.array_equal(sc.C, -sc.C.swapaxes(1, 2))
    assert generic >= 50 and inexact >= 15


def test_exterior_d_of_generators_equals_term_loop():
    # the wedge coefficients 1/2 (N[p,r,s] - N[p,s,r]), r < s, of the
    # structure tensor are the term loop's d phi_j and d phibar_j exactly
    # (up to the sign of zero, which the form's insertion normalizes)
    for sc in _rendered_structures():
        n = sc.n
        N = lh.structure_tensor(sc)
        r, s = np.triu_indices(2 * n, 1)
        K = 0.5 * (N[:, r, s] - N[:, s, r])
        for p in range(2 * n):
            got = {(a, b): c for a, b, c in zip(r.tolist(), s.tolist(), K[p].tolist()) if c != 0}
            want = oracles.coframe_differential(sc, p % n, p >= n).terms
            assert sorted(got) == sorted(want)
            assert [got[k] for k in sorted(got)] == [want[k] for k in sorted(want)]


def _random_two_form(rng, n, p):
    """Coefficients omega[a, b] of a random invariant 2-form of bidegree (p, 2 - p)."""
    hol = np.arange(2 * n) < n
    rows, cols = (hol if p else ~hol), (hol if p == 2 else ~hol)
    x = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    x = np.where(np.outer(rows, cols), x, 0.0)
    return x - x.T


def test_exterior_d_matches_form_route():
    rng = np.random.default_rng(108)
    valid = _random_metric_structures(109, count=10, names=lh.catalog_names())
    assert _with_c_and_d(valid) >= 10
    structures = [hs.sc for hs in valid] + _non_jacobi_constants(110, count=10)
    for sc in structures:
        n = sc.n
        N = lh.structure_tensor(sc)
        for p in (2, 1, 0):
            omega = _random_two_form(rng, n, p)
            want = oracles.three_form_coefficients(oracles.exterior_d(oracles.two_form(omega), sc))
            assert _close(oracles.dense_exterior_d(omega, N), want)
            # the library's blocks need a 2-form with no (0,2) part
            if p:
                assert _close(lh.exterior_d(omega, N), oracles.bidegree_blocks(want))
        # the rows of phi are the 2-forms d phi_j: validate's d(d phi_j)
        dd = lh.exterior_d(N[:n], N)
        for j in range(n):
            want = oracles.exterior_d(oracles.coframe_differential(sc, j), sc)
            assert _close(dd[:, j], oracles.bidegree_blocks(oracles.three_form_coefficients(want)))


# ---------------------------------------------------------------------------
# constant builders against their scalar loops, bit for bit


def _assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    g = got.view(float) if np.iscomplexobj(got) else got
    w = want.view(float) if np.iscomplexobj(want) else want
    assert np.array_equal(g, w)
    assert np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("k", range(3, 9))
def test_so_structure_constants_equal_loop_version(k):
    _assert_bitwise(lh.so_structure_constants(k), oracles.so_structure_constants(k))


def test_so3c_real_equals_loop_version():
    got, want = realified_so(3), oracles.so3c_real()
    _assert_bitwise(got.f, want.f)
    _assert_bitwise(got.J, want.J)


def test_complexify_equals_loop_version():
    # Kodaira-Thurston, so(3, C) and 60 seeded real basis changes of them,
    # then so(4, C) (real dimension 12) and 10 seeded basis changes of it
    bases = (lh.kodaira_thurston_real(), realified_so(3))
    rng = np.random.default_rng(108)
    cases = list(bases) + [random_real_basis_change(rng, bases[m % 2]) for m in range(60)]
    so4c = realified_so(4)
    cases += [so4c] + [random_real_basis_change(rng, so4c) for _ in range(10)]
    for rl in cases:
        got, want = lh.complexify(rl), oracles.complexify(rl)
        _assert_bitwise(got.C, want.C)
        _assert_bitwise(got.D, want.D)


def test_real_jacobi_residual_and_dd_phi_agree_on_realified_structures():
    # complexify leaves the Jacobi identity of f to validate's d(d phi) = 0:
    # on realified structures, with and without Jacobi, the two decide alike
    valid = [hs.sc for hs in _random_metric_structures(114, count=20, two_step=8)]
    invalid = _non_jacobi_constants(115, count=20)
    invalid += _non_jacobi_constants(116, count=10, with_C=False)  # d(d phi) mixed only
    decided = []
    for sc in valid + invalid:
        rl = realified(sc)
        back = lh.complexify(rl)
        assert _close(back.C, sc.C) and _close(back.D, sc.D)  # the realification is sc's
        jacobi = oracles.real_jacobi_residual(rl.f)
        ok = lh.validate(back).ok
        assert (jacobi <= ta.DEFAULT_TOL) == ok, (jacobi, ok)
        decided.append(ok)
    assert decided == [True] * len(valid) + [False] * len(invalid)


def _pivot_cases():
    """(I - iJ)/2 for the real-algebra inputs: Kodaira-Thurston, so(3, C) and
    realified so(k, C), k = 3..6, seeded basis changes of all but so(6, C),
    and random J = B J0 B^-1 with row-permuted B in real dimension 2..16."""
    rng = np.random.default_rng(109)
    bases = [lh.kodaira_thurston_real(), realified_so(3)] + [realified_so(k) for k in range(3, 7)]
    cases = bases + [random_real_basis_change(rng, rl) for rl in bases[:5] for _ in range(12)]
    out = [(np.eye(rl.dim) - 1j * rl.J) / 2.0 for rl in cases]
    for _ in range(1600):
        n = int(rng.integers(1, 9))
        B = rng.standard_normal((2 * n, 2 * n))[rng.permutation(2 * n)]
        out.append((np.eye(2 * n) - 1j * (B @ standard_J(n) @ np.linalg.inv(B))) / 2.0)
    return out


def test_pivot_columns_match_scipy_qrcp():
    for A in _pivot_cases():
        k = A.shape[0] // 2
        want = np.sort(scipy.linalg.qr(A, pivoting=True)[2][:k])
        assert np.array_equal(lh._pivot_columns(A, k), want)
