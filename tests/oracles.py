"""Independent routes to library quantities, kept as test oracles.

The library computes every report quantity by tensor contractions.  The
routes here reach the same numbers another way, most of them through the
dict-based exterior algebra (``InvariantForm`` with ``exterior_d``), and the
tests compare the two.  The constant builders at the end are the library's
former scalar index loops, kept as they were; the library's whole-array
builders must reproduce them bit for bit.
"""

import itertools

import numpy as np
import scipy.linalg

import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.optimizer as op
import hermlab.tensor_algebra as ta
import hermlab.torsion_engine as te
from hermlab.errors import JacobiViolation, NotIntegrable, SingularFrame


# ---------------------------------------------------------------------------
# forms over the unitary coframe


def omega_form(n):
    """The Kaehler form of the identity metric, i * sum phi_s ^ phibar_s."""
    w = ta.InvariantForm(n)
    for s in range(n):
        w._insert((s, n + s), 1j)
    return w


def del_omega(T):
    """The (2,1)-form i * sum T^j_{ik} phi_i ^ phi_k ^ phibar_j.

    The sum runs over both orders of the antisymmetric pair (i,k), so the
    result equals exactly twice the (2,1)-part of d(omega); the squared form
    norm of that (2,1)-part is |T|^2 / 2.
    """
    n = T.shape[0]
    out = ta.InvariantForm(n)
    for j in range(n):
        for i in range(n):
            for k in range(n):
                if T[j, i, k] != 0:
                    out._insert((i, k, n + j), 1j * T[j, i, k])
    return out


def form_coefficient_matrix(form, n):
    """Matrix M with form = i * sum M[i,k] phi_i ^ phibar_k, for (1,1)-forms."""
    M = np.zeros((n, n), dtype=complex)
    for idx, c in form.terms.items():
        if len(idx) != 2 or idx[0] >= n or idx[1] < n:
            raise ValueError("not a (1,1)-form")
        M[idx[0], idx[1] - n] = -1j * c
    return M


# ---------------------------------------------------------------------------
# oracles of the closed forms in the library


def dd_residuals(sc):
    """(max |d d phi_j|, max |d d phibar_j|) through ``exterior_d``."""
    n = sc.n
    dd_hol = 0.0
    dd_anti = 0.0
    for j in range(n):
        dd_hol = max(dd_hol, lh.exterior_d(lh.coframe_differential(sc, j), sc).max_abs())
        dd_anti = max(
            dd_anti, lh.exterior_d(lh.coframe_differential(sc, j, True), sc).max_abs()
        )
    return dd_hol, dd_anti


def gauduchon_residual(pkg):
    """Q_G as the coefficient matrix of i(del etabar - delbar eta - eta ^ etabar) - a Id."""
    n = pkg.n
    eta_form = ta.InvariantForm(n)
    for i in range(n):
        eta_form._insert((i,), pkg.eta[i])
    delbar_eta = lh.exterior_d(eta_form, pkg.sc_u).bidegree_part(1, 1)
    del_etabar = delbar_eta.conjugate()
    eta_wedge = eta_form.wedge(eta_form.conjugate())
    L = 1j * (del_etabar - delbar_eta - eta_wedge)
    M = form_coefficient_matrix(L, n)
    return M - (pkg.norm_eta2 / n) * np.eye(n)


def pluriclosed_residual(pkg):
    """Norm of del delbar omega in the unitary frame, through ``exterior_d``."""
    omega = omega_form(pkg.n)
    delbar_omega = lh.exterior_d(omega, pkg.sc_u).bidegree_part(1, 2)
    ddbar = lh.exterior_d(delbar_omega, pkg.sc_u).bidegree_part(2, 2)
    return ddbar.norm()


def frame_change(sc, P):
    """Structure constants of the frame ``e @ P``, by the transformation laws."""
    P = np.asarray(P, dtype=complex)
    Pinv = np.linalg.inv(P)
    C = np.einsum("aj,ib,kc,jik->abc", Pinv, P, P, sc.C)
    D = np.einsum("ib,aj,kc,ijk->bac", P.conj(), Pinv.conj(), P, sc.D)
    return C, D


# ---------------------------------------------------------------------------
# cross-check routes


def connection_trace_one_form(sc_u):
    """Trace of the connection, sum_s D^s_{is}.

    Agrees with the torsion one-form on unimodular inputs (all catalog
    entries); used as a cross-check there.
    """
    return np.einsum("sis->i", sc_u.D)


def xi_closed_form(sc_u, T, phi):
    """Independent route to xi from the structure constants.

    xi_i^j = sum_{r,s} ( T^j_{rs} conj(D^i_{rs}) - T^r_{is} conj(D^r_{js}) )
             + phi_i^j,
    with phi built from the connection-trace form.  Cross-checks the
    derivative route on every input.
    """
    D = sc_u.D
    out = np.einsum("jrs,irs->ij", T, D.conj())
    out -= np.einsum("ris,rjs->ij", T, D.conj())
    return out + phi


def gram_matrix(H, P):
    """Gram matrix of the frame e @ P when the reference Gram matrix is H."""
    P = np.asarray(P, dtype=complex)
    return P.T @ np.asarray(H, dtype=complex) @ P.conj()


def conformal_trace_residual(pkg):
    """Residual of the conformal-class criticality equation, 4(|eta|^2 - chi).

    With the invariant-case b = |T|^2 this equals the trace of Q_F.
    """
    return 4.0 * (pkg.norm_eta2 - pkg.chi)


def torsion_variation(pkg, h):
    """First variation of the torsion tensor along the metric direction h.

    Tdot^j_{ik} = h_{k jbar, i} - h_{i jbar, k} in the unitary frame of H,
    with covariant derivatives taken through the Chern connection.  Matches
    central finite differences of the torsion pulled back to that frame.
    """
    h_u = pkg.P.T @ np.asarray(h, dtype=complex) @ pkg.P.conj()
    g = pkg.sc_u.D  # the Chern connection in the unitary frame
    # nabla_h[k,l,i] = h_{k lbar, i}
    nabla_h = -np.einsum("rki,rl->kli", g, h_u) + np.einsum("lri,kr->kli", g, h_u)
    return np.einsum("kji->jik", nabla_h) - np.einsum("ijk->jik", nabla_h)


def analytic_gradient(prob, S):
    """Chart gradient of the torsion or Gauduchon functional, basis by basis.

    The chain rule through the chart uses scipy's Frechet derivative of the
    matrix exponential for each basis direction and the analytic first
    variation; the cross-check of the library's Daleckii-Krein gradient.
    """
    cfg = prob.cfg
    S = op._project(np.asarray(S, dtype=complex), cfg.det_normalized)
    pkg = prob.analyze(S)
    n = S.shape[0]
    G = np.zeros((n, n), dtype=complex)
    for K in op.hermitian_basis(n):
        Kp = op._project(K, cfg.det_normalized)
        _, dE = scipy.linalg.expm_frechet(S, Kp)
        dH = prob.root @ dE @ prob.root
        G += fn.first_variation(pkg, dH, cfg.objective) * K
    return op._project(G, cfg.det_normalized)


def lck_closed_forms(eta):
    """Closed forms of A, B, |T|^2 for an LCK torsion shape."""
    eta = np.asarray(eta, dtype=complex)
    n = eta.shape[0]
    e2 = float(np.sum(np.abs(eta) ** 2))
    outer = np.outer(eta, eta.conj())
    A = (e2 * np.eye(n) + (n - 2) * outer) / (n - 1) ** 2
    B = 2.0 * (e2 * np.eye(n) - outer) / (n - 1) ** 2
    norm_T2 = 2.0 * e2 / (n - 1)
    return A, B, norm_T2


def stp_identity_residuals(pkg):
    """The parallel-torsion residuals with the T*T terms written out.

    nabla^s T is nabla^c T plus T*T terms; here those terms are hand-written
    contractions, where the library reuses the Chern-derivative templates.
    """
    T, eta = pkg.T, pkg.eta
    Thol = te.holomorphic_derivative_T(T, pkg.sc_u.D)
    r1 = np.einsum("jrk,ril->jikl", T, T)
    r1 += np.einsum("jir,rkl->jikl", T, T)
    r1 -= np.einsum("rik,jrl->jikl", T, T)
    r2 = -np.einsum("jrk,irl->jikl", T, T.conj())
    r2 -= np.einsum("jir,krl->jikl", T, T.conj())
    r2 += np.einsum("rik,rjl->jikl", T, T.conj())
    return {
        "nabla_s_hol": float(np.abs(Thol - r1).max()),
        "nabla_s_bar": float(np.abs(pkg.DT - r2).max()),
        "quadratic_hol": float(np.abs(r1).max()),
        "eta_contraction": float(np.abs(np.einsum("r,rik->ik", eta, T)).max()),
        "phi_xi_vs_BA": float(np.abs((pkg.phi - pkg.xi) - (pkg.B - pkg.A)).max()),
    }


def nilpotent_J_permutation_search(sc, tol=1e-12):
    """Search frame permutations for the nilpotent-J triangular pattern:

    C^j_{ik} = D^i_{jk} = 0 unless j > i and j > k.

    Returns (flag, witness) with the witness a 0-based permutation sigma,
    meaning the relabeled frame phi'_a = phi_{sigma(a)} is triangular.  Only
    permutations of the given frame are searched, not general frame changes.
    """
    n = sc.n
    for sigma in itertools.permutations(range(n)):
        ok = True
        for j in range(n):
            for i in range(n):
                for k in range(n):
                    if j > i and j > k:
                        continue
                    if (
                        abs(sc.C[sigma[j], sigma[i], sigma[k]]) > tol
                        or abs(sc.D[sigma[i], sigma[j], sigma[k]]) > tol
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True, sigma
    return False, None


# ---------------------------------------------------------------------------
# the constant builders as scalar index loops


def so_structure_constants(k):
    """Real structure constants of so(k) in the basis E_{ab}, a < b."""
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    index = {p: m for m, p in enumerate(pairs)}
    n = len(pairs)

    def basis_matrix(a, b):
        m = np.zeros((k, k))
        m[a, b] = 1.0
        m[b, a] = -1.0
        return m

    mats = [basis_matrix(*p) for p in pairs]
    c = np.zeros((n, n, n))
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            comm = mi @ mj - mj @ mi
            for (a, b), m in index.items():
                c[m, i, j] = comm[a, b]
    return c


def so3c_real():
    """so(3, C) as a real 6-dimensional algebra with its complex structure."""
    c = so_structure_constants(3)
    n = 3
    dim = 2 * n
    f = np.zeros((dim, dim, dim))
    # basis u_1..u_3, v_1..v_3 with v = J u; brackets from the complex algebra
    for i in range(n):
        for j in range(n):
            for k in range(n):
                f[k, i, j] = c[k, i, j]          # [u_i, u_j] = c u_k
                f[n + k, i, n + j] = c[k, i, j]  # [u_i, v_j] = c v_k
                f[n + k, n + i, j] = c[k, i, j]  # [v_i, u_j] = c v_k
                f[k, n + i, n + j] = -c[k, i, j]  # [v_i, v_j] = -c u_k
    J = np.zeros((dim, dim))
    for i in range(n):
        J[n + i, i] = 1.0
        J[i, n + i] = -1.0
    return lh.RealLieData(dim, f, J)


def complexify(rl, tol=1e-10):
    """Structure constants of the (1,0)-frame induced by (f, J), bracket by
    bracket, with the thresholds the loop version had."""
    dim, f, J = rl.dim, rl.f, rl.J
    n = dim // 2
    jj = float(np.abs(J @ J + np.eye(dim)).max())
    if jj > 1e-12:
        raise ValueError(f"J*J = -I fails with residual {jj:.3e}")
    asym = float(np.abs(f + f.swapaxes(1, 2)).max())
    if asym > tol:
        raise ValueError(f"f is not antisymmetric in its lower pair: residual {asym:.3e}")
    jac = lh._real_jacobi_residual(f)
    if jac > tol:
        raise JacobiViolation(f"real Jacobi residual {jac:.3e}")

    proj = (np.eye(dim) - 1j * J) / 2.0
    _, _, piv = scipy.linalg.qr(proj, pivoting=True)
    E = proj[:, np.sort(piv[:n])]
    S = np.hstack([E, E.conj()])
    if np.linalg.cond(S) > lh._COND_LIMIT:
        raise SingularFrame("complexified basis is numerically singular")

    def bracket(x, y):
        return np.einsum("cab,a,b->c", f, x, y)

    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    nij = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            coef = np.linalg.solve(S, bracket(E[:, a], E[:, b]))
            nij = max(nij, float(np.abs(coef[n:]).max()))
            C[:, a, b] = coef[:n]
            C[:, b, a] = -coef[:n]
    if nij > tol:
        raise NotIntegrable(f"(0,1)-component of [e_a, e_b] has norm {nij:.3e}")
    for a in range(n):
        for b in range(n):
            coef = np.linalg.solve(S, bracket(E[:, a], E[:, b].conj()))
            # [e_a, ebar_b] = sum_j mu^j e_j + ...  with conj(D^a_{jb}) = mu^j
            D[a, :, b] = coef[:n].conj()

    return lh.StructureConstants(n, C, D)


def hermitian_basis(n):
    """Orthonormal basis of Hermitian n x n matrices under Re tr(X Y)."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = s
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j * s
            e[j, i] = -1j * s
            basis.append(e)
    return basis
