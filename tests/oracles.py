"""Independent routes to library quantities, kept as test oracles.

The library computes every report quantity by tensor contractions.  The
routes here reach the same numbers another way, most of them through the
dict-based exterior algebra kept here (:class:`InvariantForm` with
:func:`exterior_d`), and the tests compare the two.  The structure equation
itself is written out term by term here (:func:`coframe_differential`),
independently of the library's structure tensor, and :func:`exterior_d`
differentiates the generators through it; :func:`dense_exterior_d` is the
contraction over all 2n generators that the library's bidegree blocks
replaced, and :func:`unimodularity_residual` the sum over the whole
structure tensor that the library's traces of C and D replaced.  The
constant builders at the end are the library's former scalar index loops,
kept as they were; the library's whole-array builders must reproduce them
bit for bit.
:func:`real_jacobi_residual` is the Jacobi check of real structure
constants that complexification left to validation, and
:func:`stp_derived_identities` the identities parallel torsion implies,
which decide no flag and are not reported.
:func:`fd_gradient` differentiates a descent's objective over the basis of
:func:`hermitian_basis`, one direction at a time.  :func:`report_json` is the
encoder route the CLI's JSON writer replaced.
"""

import itertools
import json

import numpy as np
import scipy.linalg

import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.tensor_algebra as ta
from hermlab.errors import DimensionMismatch, NotIntegrable, SingularFrame


# ---------------------------------------------------------------------------
# the dict-based exterior algebra
#
# All forms live over the 2n generators e = (phi, phibar): indices 0..n-1
# are the (1,0) coframe elements and n..2n-1 their conjugates.  An
# InvariantForm maps strictly increasing index tuples to complex
# coefficients; the reordering sign is folded into the coefficient at
# insertion time, so form equality reduces to comparing coefficient maps.


def _sorted_with_sign(indices):
    """Sort an index tuple, returning (tuple, sign) or None for a repeat."""
    idx = list(indices)
    sign = 1
    # insertion sort; index lists have <= 2n entries so this is cheap
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


class InvariantForm:
    """A constant-coefficient form over the fixed (1,0)/(0,1) coframe."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = int(n)
        self.terms = {}
        if terms:
            for idx, coeff in terms.items():
                self._insert(idx, coeff)

    def _insert(self, indices, coeff):
        if coeff == 0:
            return
        canon = _sorted_with_sign(indices)
        if canon is None:
            return
        idx, sign = canon
        if any(g < 0 or g >= 2 * self.n for g in idx):
            raise IndexError(f"generator index out of range: {idx}")
        new = self.terms.get(idx, 0j) + sign * complex(coeff)
        if new == 0:
            self.terms.pop(idx, None)
        else:
            self.terms[idx] = new

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def scalar(cls, n, value):
        f = cls(n)
        f._insert((), value)
        return f

    @classmethod
    def hol(cls, n, i):
        """The generator phi_i (0-based)."""
        f = cls(n)
        f._insert((i,), 1.0)
        return f

    @classmethod
    def anti(cls, n, i):
        """The generator phibar_i (0-based)."""
        f = cls(n)
        f._insert((n + i,), 1.0)
        return f

    # -- linear structure --------------------------------------------------

    def _check(self, other):
        if not isinstance(other, InvariantForm):
            raise TypeError("expected InvariantForm")
        if other.n != self.n:
            raise DimensionMismatch(f"n mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        out = InvariantForm(self.n, self.terms)
        for idx, c in other.terms.items():
            out._insert(idx, c)
        return out

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        out = InvariantForm(self.n)
        for idx, c in self.terms.items():
            out._insert(idx, scalar * c)
        return out

    __rmul__ = __mul__

    # -- exterior algebra ---------------------------------------------------

    def wedge(self, other):
        self._check(other)
        out = InvariantForm(self.n)
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                out._insert(ia + ib, ca * cb)
        return out

    def conjugate(self):
        """Complex conjugation: swaps phi_i <-> phibar_i, conjugates coefficients."""
        n = self.n
        out = InvariantForm(n)
        for idx, c in self.terms.items():
            swapped = tuple(g + n if g < n else g - n for g in idx)
            out._insert(swapped, np.conj(c))
        return out

    def bidegree_part(self, p, q):
        """The (p,q)-component; summing over all (p,q) recovers the form."""
        if p < 0 or q < 0:
            raise ValueError("bidegree must be non-negative")
        out = InvariantForm(self.n)
        for idx, c in self.terms.items():
            ph = sum(1 for g in idx if g < self.n)
            if ph == p and len(idx) - ph == q:
                out._insert(idx, c)
        return out

    # -- diagnostics ---------------------------------------------------------

    def coefficient(self, indices):
        canon = _sorted_with_sign(indices)
        if canon is None:
            return 0j
        idx, sign = canon
        return sign * self.terms.get(idx, 0j)

    def norm(self):
        """sqrt of the sum of |coefficient|^2 over canonical terms."""
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.terms.values())))

    def max_abs(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_zero(self, tol=0.0):
        return self.max_abs() <= tol

    def isclose(self, other, tol=ta.DEFAULT_TOL):
        self._check(other)
        return (self - other).max_abs() <= tol

    def __repr__(self):
        if not self.terms:
            return f"InvariantForm(n={self.n}, 0)"
        bits = []
        for idx in sorted(self.terms):
            gens = "^".join(
                (f"f{g+1}" if g < self.n else f"fb{g-self.n+1}") for g in idx
            )
            bits.append(f"({self.terms[idx]:.6g}) {gens}" if gens else f"{self.terms[idx]:.6g}")
        return f"InvariantForm(n={self.n}, " + " + ".join(bits) + ")"


def exterior_d(a, sc):
    """Exterior derivative of an invariant form, via the graded Leibniz rule,
    with the generator derivatives written out by :func:`coframe_differential`."""
    if a.n != sc.n:
        raise DimensionMismatch(f"form has n={a.n}, structure has n={sc.n}")
    n = sc.n
    used = {g for idx in a.terms for g in idx}  # differentiate only these generators
    dgen = {g: coframe_differential(sc, g % n, g >= n) for g in used}
    out = InvariantForm(n)
    for idx, coeff in a.terms.items():
        for pos, g in enumerate(idx):
            sign = -1.0 if pos % 2 else 1.0
            rest = idx[:pos] + idx[pos + 1 :]
            for didx, dcoeff in dgen[g].terms.items():
                out._insert(didx + rest, sign * coeff * dcoeff)
    return out


# ---------------------------------------------------------------------------
# forms over the unitary coframe


def omega_form(n):
    """The Kaehler form of the identity metric, i * sum phi_s ^ phibar_s."""
    w = InvariantForm(n)
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
    out = InvariantForm(n)
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


def two_form(omega):
    """The form 1/2 sum omega[a,b] e_a ^ e_b of an antisymmetric 2n x 2n array."""
    f = InvariantForm(omega.shape[0] // 2)
    for a, b in itertools.combinations(range(omega.shape[0]), 2):
        f._insert((a, b), omega[a, b])
    return f


def three_form_coefficients(form):
    """W with form = 1/6 sum W[r,s,b] e_r ^ e_s ^ e_b, W totally antisymmetric."""
    m = 2 * form.n
    W = np.zeros((m, m, m), dtype=complex)
    for idx in itertools.product(range(m), repeat=3):
        W[idx] = form.coefficient(idx)
    return W


def dense_exterior_d(omega, N):
    """d of the invariant 2-form ``1/2 sum omega[..., a, b] e_a ^ e_b``, any
    bidegree, as the dense W with ``d omega = 1/6 sum W[..., r, s, t]
    e_r ^ e_s ^ e_t``: the cyclic sum of ``Y[..., r, s, t] = sum_a N[a, r, s]
    omega[..., a, t]`` over its last three slots, contracted over all 2n
    generators.  This was the library's route before it split W by bidegree."""
    Z = np.tensordot(omega, N, ([-2], [0]))  # Z[..., t, r, s] = Y[..., r, s, t]
    return Z + np.moveaxis(Z, -3, -1) + np.moveaxis(Z, -1, -3)


def bidegree_blocks(W):
    """The (3,0), (2,1) and (1,2) blocks of a dense W, stacked: block q is
    what ``lie_hermitian.exterior_d(omega, N, q)`` returns."""
    n = W.shape[-1] // 2
    h, b = slice(0, n), slice(n, 2 * n)
    return np.stack([W[..., h, h, h], W[..., h, h, b], W[..., h, b, b]])


# ---------------------------------------------------------------------------
# the structure equation term by term


def coframe_differential(sc, j, conjugated=False):
    """d(phi_j), or d(phibar_j) when ``conjugated``; 0-based ``j``."""
    n = sc.n
    out = InvariantForm(n)
    for i in range(n):
        for k in range(n):
            cik = sc.C[j, i, k]
            if cik != 0:
                out._insert((i, k), -0.5 * cik)
            dij = np.conj(sc.D[i, j, k])
            if dij != 0:
                out._insert((i, n + k), -dij)
    if conjugated:
        out = out.conjugate()
    return out


def structure_equations_text(sc, tol=1e-12):
    """Human-readable rendering of d phi_j for each generator.

    ``tol`` only decides which coefficients print as 0 and +-1, so it is a
    rounding-level threshold rather than the identity tolerance.
    """
    lines = []
    for j in range(sc.n):
        d = coframe_differential(sc, j)
        if d.is_zero(tol):
            lines.append(f"d f{j+1} = 0")
            continue
        bits = []
        for idx in sorted(d.terms):
            c = d.terms[idx]
            gens = " ^ ".join(
                (f"f{g+1}" if g < sc.n else f"fb{g-sc.n+1}") for g in idx
            )
            if abs(c - 1) <= tol:
                bits.append(f"+ {gens}")
            elif abs(c + 1) <= tol:
                bits.append(f"- {gens}")
            else:
                bits.append(f"+ ({c:.6g}) {gens}")
        text = " ".join(bits)
        if text.startswith("+ "):
            text = text[2:]
        lines.append(f"d f{j+1} = {text}")
    return lines


# ---------------------------------------------------------------------------
# oracles of the closed forms in the library


def dd_residuals(sc):
    """(max |d d phi_j|, max |d d phibar_j|) through ``exterior_d``."""
    n = sc.n
    dd_hol = 0.0
    dd_anti = 0.0
    for j in range(n):
        dd_hol = max(dd_hol, exterior_d(coframe_differential(sc, j), sc).max_abs())
        dd_anti = max(
            dd_anti, exterior_d(coframe_differential(sc, j, True), sc).max_abs()
        )
    return dd_hol, dd_anti


def unimodularity_residual(sc):
    """max_r |tr ad e_r| = max_r |sum_p N[p,r,p]| over the 2n generators,
    read off the whole structure tensor: the route the library's traces of
    C and D replaced."""
    return float(np.abs(np.einsum("prp->r", lh.structure_tensor(sc))).max())


def gauduchon_residual(pkg):
    """Q_G as the coefficient matrix of i(del etabar - delbar eta - eta ^ etabar) - a Id."""
    n = pkg.n
    eta_form = InvariantForm(n)
    for i in range(n):
        eta_form._insert((i,), pkg.eta[i])
    delbar_eta = exterior_d(eta_form, pkg.sc_u).bidegree_part(1, 1)
    del_etabar = delbar_eta.conjugate()
    eta_wedge = eta_form.wedge(eta_form.conjugate())
    L = 1j * (del_etabar - delbar_eta - eta_wedge)
    M = form_coefficient_matrix(L, n)
    return M - (pkg.norm_eta2 / n) * np.eye(n)


def pluriclosed_residual_einsum(pkg):
    """Norm of del delbar omega from the coefficients W[p,q,r,s] of the
    (2,2)-form written as two-operand einsums, the library's former route."""
    B = -1j * pkg.T.conj()
    W = -0.25 * np.einsum("ars,apq->pqrs", B, pkg.sc_u.C)
    W -= np.einsum("pbs,rbq->pqrs", B, pkg.sc_u.D)
    K = W - W.swapaxes(0, 1)
    K = K - K.swapaxes(2, 3)
    return 0.5 * float(np.linalg.norm(K))


def pluriclosed_residual(pkg):
    """Norm of del delbar omega in the unitary frame, through ``exterior_d``."""
    omega = omega_form(pkg.n)
    delbar_omega = exterior_d(omega, pkg.sc_u).bidegree_part(1, 2)
    ddbar = exterior_d(delbar_omega, pkg.sc_u).bidegree_part(2, 2)
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


def holomorphic_derivative_T(T, gamma):
    """T^j_{ik, l} as three two-operand einsums, the library's former route."""
    out = -np.einsum("jrk,ril->jikl", T, gamma)
    out -= np.einsum("jir,rkl->jikl", T, gamma)
    out += np.einsum("rik,jrl->jikl", T, gamma)
    return out


def covariant_derivative_T(T, gamma):
    """T^j_{ik, lbar}: the einsum template with omega(ebar_l) = -omega(e_l)^H."""
    return holomorphic_derivative_T(T, -gamma.conj().transpose(1, 0, 2))


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
    S = np.asarray(S, dtype=complex)
    pkg = prob.point(S).pkg
    n = S.shape[0]
    G = np.zeros((n, n), dtype=complex)
    for K in hermitian_basis(n):
        _, dE = scipy.linalg.expm_frechet(S, K)
        dH = prob.root @ dE @ prob.root
        G += fn.first_variation(pkg, dH, prob.cfg.objective) * K
    return G


def objective(prob, S):
    """The objective of the descent problem ``prob`` at S, evaluated afresh."""
    return prob.point(S).value


# near eps^(1/3): a central difference's truncation, O(step^2), and its
# rounding, O(eps / step), are then both about 1e-10 of an objective of order 1
FD_STEP = 1e-5


def fd_gradient(prob, S, step=FD_STEP):
    """Central finite-difference gradient of the objective of ``prob`` at S,
    one direction of :func:`hermitian_basis` at a time: 2 n^2 analyses, the
    reference for the library's analytic gradient."""
    S = np.asarray(S, dtype=complex)
    return sum((objective(prob, S + step * K) - objective(prob, S - step * K)) / (2 * step) * K
               for K in hermitian_basis(S.shape[0]))


def dense_bfgs_direction(G, pairs):
    """-H G for the BFGS inverse Hessian H of ``pairs``, built as a dense matrix.

    Hermitian matrices become real vectors of their coordinates in the
    orthonormal basis of :func:`hermitian_basis`, so Re tr(X Y) is the dot
    product.  H starts at <s, y> / <y, y> times the identity for the newest
    pair and takes the BFGS update H <- (I - r s y^T) H (I - r y s^T) + r s s^T,
    r = 1 / <s, y>, for each pair, oldest first (Nocedal and Wright,
    *Numerical Optimization*, 2006, eq. 6.17); the cross-check of the
    library's two-loop recursion.
    """
    basis = hermitian_basis(G.shape[0])

    def vec(X):
        return np.array([np.trace(K @ X).real for K in basis])

    m = len(basis)
    H = np.eye(m)
    if pairs:
        s, y = vec(pairs[-1][0]), vec(pairs[-1][1])
        H *= (s @ y) / (y @ y)
    for S, Y in pairs:
        s, y = vec(S), vec(Y)
        r = 1.0 / (s @ y)
        V = np.eye(m) - r * np.outer(y, s)
        H = V.T @ H @ V + r * np.outer(s, s)
    d = -H @ vec(G)
    return sum(c * K for c, K in zip(d, basis))


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


def _strominger_corrections(T):
    """The T*T terms that nabla^s T adds to the Chern derivative, unbarred
    and barred, as hand-written contractions."""
    r1 = np.einsum("jrk,ril->jikl", T, T)
    r1 += np.einsum("jir,rkl->jikl", T, T)
    r1 -= np.einsum("rik,jrl->jikl", T, T)
    r2 = -np.einsum("jrk,irl->jikl", T, T.conj())
    r2 -= np.einsum("jir,krl->jikl", T, T.conj())
    r2 += np.einsum("rik,rjl->jikl", T, T.conj())
    return r1, r2


def stp_identity_residuals(pkg):
    """The parallel-torsion residuals with the T*T terms written out.

    nabla^s T is nabla^c T plus T*T terms; here those terms are hand-written
    contractions added to the Chern derivative, where the library takes the
    Chern-derivative templates at the Strominger connection D + T.  The
    Chern derivatives are this module's einsum templates, not the library's.
    """
    r1, r2 = _strominger_corrections(pkg.T)
    return {
        "nabla_s_hol": float(np.abs(holomorphic_derivative_T(pkg.T, pkg.sc_u.D) - r1).max()),
        "nabla_s_bar": float(np.abs(covariant_derivative_T(pkg.T, pkg.sc_u.D) - r2).max()),
    }


def stp_derived_identities(pkg):
    """Residuals of the identities parallel torsion implies:

      quadratic_hol -- the holomorphic T*T combination, which is the
        template at Gamma = T, and which D = 0 and Jacobi make vanish;
      eta_contraction -- sum_r eta_r T^r_{ik};
      phi_xi_vs_BA -- phi - xi - (B - A).
    """
    T, eta = pkg.T, pkg.eta
    r1, _ = _strominger_corrections(T)
    return {
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


def real_jacobi_residual(f):
    """max |Jacobi sum| of real structure constants f[c, a, b]: the cyclic
    sum of f^e_{ad} f^d_{bc} over (a, b, c)."""
    t = np.einsum("ead,dbc->eabc", f, f)
    cyc = t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))
    return float(np.abs(cyc).max())


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


# ---------------------------------------------------------------------------
# the report encoder


def _nested_pairs(obj):
    """JSON form of a numpy array: nested [re, im] pairs."""
    if isinstance(obj, np.ndarray):
        a = obj.astype(complex)
        return np.stack([a.real, a.imag], axis=-1).tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def report_json(report):
    """A report as json.dumps writes it, each array turned into nested lists
    by the ``default`` hook; ``cli.emit`` must write the same bytes."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                      default=_nested_pairs) + "\n"
