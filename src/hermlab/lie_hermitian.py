"""Lie algebras with complex structure, given through structure constants.

The differential of the (1,0) coframe is encoded by two rank-3 complex
tensors C and D, both stored as ``X[up, lo1, lo2]`` = ``X^up_{lo1 lo2}``,
C antisymmetric in its two lower slots:

    d phi_j = -1/2 sum_{i,k} C[j,i,k] phi_i ^ phi_k
              - sum_{i,k} conj(D[i,j,k]) phi_i ^ phibar_k

:func:`structure_tensor` is the one place that reads this equation.  Over
the 2n generators e = (phi, phibar) it returns N with

    d e_p = 1/2 sum_{r,s} N[p,r,s] e_r ^ e_s,    N antisymmetric in (r, s),

so ``N[j,i,k] = -C[j,i,k]`` and ``N[j,i,n+k] = -conj(D[i,j,k])`` for the
rows of phi (D enters with its first lower slot bound to the form label);
the rows of phibar are their conjugates with phi and phibar swapped.
:func:`structure_equations_text` and :func:`unimodularity_residual` read
N (the bracket is [x_r, x_s] = -sum_p N[p,r,s] x_p on the dual frame x, so
tr ad x_r = -sum_p N[p,r,p]), and :func:`validate` reads it through
:func:`exterior_d`, the derivative of 2-forms given as coefficient
arrays: the rows ``N[:n]`` are the 2-forms d phi_j.  The structure is
integrable, so d phi_j has no (0,2) part: the rows of phi have a zero
phibar-phibar block and the rows of phibar a zero phi-phi block, and
d(d phi_j) has no (0,3) part.  :func:`exterior_d` returns the three other
bidegree blocks, each contracted only where N is non-zero.

Frame-change convention: a new frame ``etilde = e @ P`` has coframe
``phitilde = P^{-1} @ phi``.  The induced transformation laws are

    Ctilde[a,b,c] = sum Pinv[a,j] P[i,b] P[k,c] C[j,i,k]
    Dtilde[b,a,c] = sum conj(P[i,b]) conj(Pinv[a,j]) P[k,c] D[i,j,k]

which follow by substituting phi = P phitilde into the structure equation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import tensor_algebra as ta
from .errors import (DimensionMismatch, NotIntegrable, NotUnimodular, NumericalFailure,
                     SingularFrame, UnknownCatalogEntry)

# a frame whose condition number exceeds this loses all but ~3 digits in
# double precision; it bounds a matrix, not an algebraic residual
_COND_LIMIT = 1e13

# structure_equations_text prints a coefficient within this of 0 or +-1 as
# such: a rounding-level threshold for display, not the identity tolerance
_PRINT_TOL = 1e-12


def _frozen_array(obj, name, value, shape, dtype=complex):
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    ta.require_finite(arr, name)
    arr = arr.copy()
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class StructureConstants:
    """The tensors C^j_{ik}, D^j_{ik} of a left-invariant complex structure."""

    n: int
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        n = self.n
        if n <= 0:
            raise ValueError("dimension must be positive")
        _frozen_array(self, "C", self.C, (n, n, n))
        _frozen_array(self, "D", self.D, (n, n, n))

    @classmethod
    def zero(cls, n):
        return cls(n, np.zeros((n, n, n)), np.zeros((n, n, n)))


@dataclass(frozen=True)
class RealLieData:
    """A real Lie algebra with almost complex structure J.

    ``f[c, a, b]`` are the real structure constants of ``[x_a, x_b]``,
    antisymmetric in (a, b); J is a real ``dim x dim`` matrix with
    ``J @ J = -I``.
    """

    dim: int
    f: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        d = self.dim
        if d <= 0 or d % 2:
            raise ValueError("real dimension must be positive and even")
        _frozen_array(self, "f", self.f, (d, d, d), dtype=float)
        _frozen_array(self, "J", self.J, (d, d), dtype=float)


@dataclass(frozen=True)
class HermitianStructure:
    """Structure constants plus a positive-definite metric Gram matrix."""

    sc: StructureConstants
    H: np.ndarray

    def __post_init__(self):
        n = self.sc.n
        _frozen_array(self, "H", self.H, (n, n))
        # positive definiteness is enforced lazily by cholesky at reduction

    @property
    def n(self):
        return self.sc.n


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# exterior derivative


def structure_tensor(sc):
    """N with d e_p = 1/2 sum N[p,r,s] e_r ^ e_s over e = (phi, phibar)."""
    n = sc.n
    N = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    N[:n, :n, :n] = -sc.C
    X = -sc.D.conj().transpose(1, 0, 2)
    N[:n, :n, n:] = X
    N[:n, n:, :n] = -X.swapaxes(1, 2)
    swap = np.r_[n : 2 * n, 0:n]  # phi <-> phibar in both form slots
    N[n:] = N[:n].conj()[:, swap][:, :, swap]
    return N


def exterior_d(omega, N):
    """d of the invariant 2-form ``1/2 sum omega[..., a, b] e_a ^ e_b`` with
    no (0,2) part, as its (3,0), (2,1) and (1,2) blocks.

    ``omega`` is antisymmetric in its last two slots, which run over the
    ``2n`` generators of the structure tensor ``N``, and its phibar-phibar
    block is zero; leading slots are a batch.  Write
    ``d omega = 1/6 sum W[..., r, s, t] e_r ^ e_s ^ e_t``, W the cyclic sum of
    ``Y[..., r, s, t] = sum_a N[a, r, s] omega[..., a, t]`` over its last three
    slots.  Returns the array of shape ``(3,) + batch + (n, n, n)`` holding
    ``W[..., x, y, z]``, ``W[..., x, y, n + z]`` and ``W[..., x, n + y, n + z]``
    for all x, y, z < n.  Every other entry of W is a cyclic rotation of one
    of these, or lies in the (0,3) part, which is zero.

    Each Y block sums only over the generators ``a`` where neither factor
    vanishes: N has no (2,0) part in its phibar rows and no (0,2) part in
    its phi rows.  Y with a phibar slot before a phi slot is minus Y with the
    two swapped, since the mixed blocks of N are exactly antisymmetric; that
    reuses one product in each mixed block.
    """
    n = N.shape[0] // 2
    h, b, every = slice(0, n), slice(n, 2 * n), slice(None)
    w = omega.reshape((-1, 2 * n, 2 * n))
    m = w.shape[0]
    # the three blocks and, after them, room for two products: one n^4
    # allocation, where one per product costs more in page faults than the
    # products' sums take
    out = np.empty((5, m, n, n, n), dtype=complex)

    def Y(k, a, t, r, s):
        # Y[r, s, t] over the generators a, into out[k] laid out [batch, t, r, s]
        left = w[:, a, t].transpose(0, 2, 1).reshape(m * n, -1)
        right = N[a, r, s].reshape(left.shape[1], n * n)
        np.matmul(left, right, out=out[k].reshape(m * n, n * n))
        return out[k]

    T = Y(3, h, h, h, h)  # T[m, z, x, y] = Y[x, y, z]
    np.add(T, T.transpose(0, 2, 3, 1), out=out[0])
    out[0] += T.transpose(0, 3, 1, 2)
    Q = Y(3, every, h, h, b)  # Q[m, x, y, z] = Y[y, zbar, x] = -Y[zbar, y, x]
    np.add(Q, Y(4, h, b, h, h).transpose(0, 2, 3, 1), out=out[1])
    out[1] -= Q.transpose(0, 2, 1, 3)
    S = Y(3, h, b, h, b)  # S[m, z, x, y] = Y[x, ybar, zbar] = -Y[ybar, x, zbar]
    np.add(Y(4, b, h, b, b), S.transpose(0, 2, 3, 1), out=out[2])
    out[2] -= S.transpose(0, 2, 1, 3)
    return out[:3].reshape((3,) + omega.shape[:-2] + (n, n, n))


def validate(sc):
    """Consistency checks: C antisymmetry and d(d phi_j) = 0 for all j.

    The n rows of phi in the structure tensor N are the 2-forms d phi_j,
    which have no (0,2) part (the structure is integrable), so their
    :func:`exterior_d` holds the coefficients of every d(d phi_j).  The rows
    of phibar are those of phi conjugated and relabelled, so d(d phibar_j),
    the conjugate of d(d phi_j), needs no check of its own.
    """
    n, tol = sc.n, ta.DEFAULT_TOL
    antisym = float(np.abs(sc.C + np.swapaxes(sc.C, 1, 2)).max())
    N = structure_tensor(sc)
    dd = float(np.abs(exterior_d(N[:n], N)).max())
    checks = (
        Check("C_antisymmetry", antisym <= tol, antisym),
        Check("dd_phi", dd <= tol, dd),
    )
    return ValidationReport(checks)


def unimodularity_residual(sc):
    """max_r |tr ad e_r| over the 2n generators, which is max_r |sum_p N[p,r,p]|:
    zero exactly on a unimodular algebra."""
    return float(np.abs(np.einsum("prp->r", structure_tensor(sc))).max())


def require_unimodular(sc):
    """Raise :class:`NotUnimodular` when :func:`unimodularity_residual`
    exceeds ``DEFAULT_TOL``.

    Q_F and Q_G are first variations only on a unimodular algebra: they
    integrate by parts over a compact quotient, and a Lie group with a
    lattice is unimodular (Milnor, *Curvatures of left invariant metrics on
    Lie groups*, Adv. Math. 1976, Lemma 6.2).
    """
    residual = unimodularity_residual(sc)
    if residual > ta.DEFAULT_TOL:
        raise NotUnimodular(f"structure is not unimodular: max |tr ad| = {residual:.3e}, "
                            "so Q_F and Q_G are not first variations")


# ---------------------------------------------------------------------------
# complexification of real data


def _pivot_columns(A, k):
    """Sorted indices of the ``k`` columns that Businger-Golub column
    pivoting picks: the largest remaining column (first on ties), which is
    then projected out of every column."""
    R = np.array(A, dtype=complex)
    piv = []
    for _ in range(k):
        j = int(np.argmax((np.abs(R) ** 2).sum(axis=0)))
        q = R[:, j] / np.linalg.norm(R[:, j])
        R -= np.outer(q, q.conj() @ R)
        piv.append(j)
    return np.sort(piv)


def complexify(rl):
    """Structure constants of the (1,0)-frame induced by (f, J).

    Raises ``ValueError`` when J*J = -I fails or ``f`` is not antisymmetric
    in its lower pair beyond ``DEFAULT_TOL``, and :class:`NotIntegrable` when
    the bracket of two (1,0)-fields has a (0,1)-component exceeding it
    (Nijenhuis obstruction).  The Jacobi identity of ``f`` is the identity
    d*d = 0 of the result, which is not passed through :func:`validate`:
    callers that need it checked validate the result themselves, as the CLI
    does for every input.
    """
    dim, f, J, tol = rl.dim, rl.f, rl.J, ta.DEFAULT_TOL
    n = dim // 2
    jj = float(np.abs(J @ J + np.eye(dim)).max())
    if jj > tol:
        raise ValueError(f"J*J = -I fails with residual {jj:.3e}")
    asym = float(np.abs(f + f.swapaxes(1, 2)).max())
    if asym > tol:
        raise ValueError(f"f is not antisymmetric in its lower pair: residual {asym:.3e}")

    # basis of the +i eigenspace of J: independent columns of (I - iJ)/2,
    # located by column pivoting but kept un-orthogonalized so structured
    # inputs yield sparse structure constants
    proj = (np.eye(dim) - 1j * J) / 2.0
    E = proj[:, _pivot_columns(proj, n)]
    S = np.hstack([E, E.conj()])
    if np.linalg.cond(S) > _COND_LIMIT:
        raise SingularFrame("complexified basis is numerically singular")

    # every bracket [e_a, e_b] and [e_a, ebar_b] at once, as the n*n columns
    # of one right-hand side each, written in the frame S = (E, conj E)
    def coefficients(Y):
        rhs = np.einsum("cab,ai,bj->cij", f, E, Y).reshape(dim, n * n)
        return np.linalg.solve(S, rhs).reshape(dim, n, n)

    hol = coefficients(E)
    a, b = np.triu_indices(n, 1)
    nij = float(np.abs(hol[n:, a, b]).max(initial=0.0))
    if nij > tol:
        raise NotIntegrable(f"(0,1)-component of [e_a, e_b] has norm {nij:.3e}")
    C = np.zeros((n, n, n), dtype=complex)
    C[:, a, b] = hol[:n, a, b]
    C[:, b, a] = -hol[:n, a, b]
    # [e_a, ebar_b] = sum_j mu^j e_j + ...  with conj(D^a_{jb}) = mu^j
    D = coefficients(E.conj())[:n].conj().transpose(1, 0, 2)

    return StructureConstants(n, C, D)


# ---------------------------------------------------------------------------
# frames


def frame_change(sc, P):
    """Structure constants of the frame ``etilde = e @ P``."""
    P = np.asarray(P, dtype=complex)
    n = sc.n
    if P.shape != (n, n):
        raise DimensionMismatch(f"frame matrix must be {n}x{n}")
    if np.linalg.cond(P) > _COND_LIMIT:
        raise SingularFrame("frame-change matrix is numerically singular")
    return _transform(sc, P)


def _transform(sc, P):
    """:func:`frame_change` without its checks of P."""
    Pinv = np.linalg.inv(P)
    C = np.tensordot(Pinv, P.T @ sc.C @ P, 1)
    D = np.tensordot(P.conj().T, Pinv.conj() @ sc.D @ P, 1)
    return StructureConstants(sc.n, C, D)


def unitary_reduction(hs):
    """Frame change making the metric Gram matrix the identity.

    Uses ``P = (L^T)^{-1}`` from the Cholesky factor ``H = L L*`` so the
    output is deterministic; for ``H = I`` the frame is unchanged.
    Raises :class:`SingularFrame` when cond(H) exceeds ``_COND_LIMIT`` and
    :class:`NumericalFailure` when the unitary frame's C or D overflows.
    Returns ``(P, sc_unitary)``.
    """
    L = ta.cholesky(hs.H)
    # cond(H) = cond(L)^2 and cond(P) = cond(L): one evaluation guards both
    cond = np.linalg.cond(L) ** 2
    if cond > _COND_LIMIT:
        raise SingularFrame(f"metric is numerically singular: cond(H) = {cond:.3e}")
    P = np.linalg.inv(L.T)
    try:
        # an overflow is reported once, as the NumericalFailure below
        with np.errstate(over="ignore", invalid="ignore"):
            return P, _transform(hs.sc, P)
    except ValueError as exc:  # StructureConstants found a non-finite entry
        raise NumericalFailure(f"unitary frame of the metric overflows: {exc}") from exc


# ---------------------------------------------------------------------------
# catalog


def so_structure_constants(k):
    """Real structure constants of so(k) in the basis E_{ab}, a < b."""
    a, b = np.triu_indices(k, 1)
    m = np.arange(a.size)
    E = np.zeros((a.size, k, k))
    E[m, a, b] = 1.0
    E[m, b, a] = -1.0
    prod = np.einsum("ixy,jyz->ijxz", E, E)  # E_i @ E_j
    comm = prod - prod.transpose(1, 0, 2, 3)
    # [E_i, E_j] = sum_m c[m, i, j] E_m: read off at the (a, b) slots, a < b
    return comm[:, :, a, b].transpose(2, 0, 1)


def kodaira_thurston_real():
    """Heisenberg x R with the standard complex structure."""
    f = np.zeros((4, 4, 4))
    f[2, 0, 1] = 1.0
    f[2, 1, 0] = -1.0
    J = np.zeros((4, 4))
    J[1, 0], J[0, 1] = 1.0, -1.0
    J[3, 2], J[2, 3] = 1.0, -1.0
    return RealLieData(4, f, J)


def catalog_names():
    """Representative catalog names (abelian-N and sokc-K are parametric)."""
    return ["abelian-2", "abelian-3", "so3c", "sokc-4", "iwasawa", "kodaira-thurston"]


def catalog(name, metric=None):
    """A named validated structure, with the identity metric by default."""
    if not isinstance(name, str):
        raise UnknownCatalogEntry(repr(name))
    name = name.strip()
    m = re.fullmatch(r"abelian-(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownCatalogEntry(name)
        sc = StructureConstants.zero(n)
    elif name == "so3c":
        # d phi_1 = phi_2 ^ phi_3 and cyclic permutations
        sc = StructureConstants(3, so_structure_constants(3), np.zeros((3, 3, 3)))
    elif re.fullmatch(r"sokc-(\d+)", name):
        k = int(name.split("-")[1])
        if k < 3:
            raise UnknownCatalogEntry(name)
        c = so_structure_constants(k)
        n = c.shape[0]
        sc = StructureConstants(n, -c, np.zeros((n, n, n)))
    elif name == "iwasawa":
        C = np.zeros((3, 3, 3), dtype=complex)
        C[2, 0, 1] = 1.0  # d phi_3 = -phi_1 ^ phi_2
        C[2, 1, 0] = -1.0
        sc = StructureConstants(3, C, np.zeros((3, 3, 3)))
    elif name == "kodaira-thurston":
        D = np.zeros((2, 2, 2), dtype=complex)
        D[0, 1, 0] = -1.0  # d phi_2 = phi_1 ^ phibar_1
        sc = StructureConstants(2, np.zeros((2, 2, 2)), D)
    else:
        raise UnknownCatalogEntry(name)

    H = np.eye(sc.n) if metric is None else np.asarray(metric, dtype=complex)
    return HermitianStructure(sc, H)


def structure_equations_text(sc):
    """Human-readable rendering of d phi_j for each generator."""
    n = sc.n
    N = structure_tensor(sc)
    r, s = np.triu_indices(2 * n, 1)
    # the coefficient of e_r ^ e_s in d phi_j, r < s: N[j,r,s] when C is
    # exactly antisymmetric, and what the structure equation gives otherwise;
    # + 0.0 turns the zero parts that print as -0 into +0
    K = 0.5 * (N[:n, r, s] - N[:n, s, r]) + 0.0
    names = [f"f{g+1}" for g in range(n)] + [f"fb{g+1}" for g in range(n)]
    lines = []
    for j, row in enumerate(K.tolist()):
        terms = [(f"{names[a]} ^ {names[b]}", c) for a, b, c in zip(r, s, row) if c != 0]
        if max((abs(c) for _, c in terms), default=0.0) <= _PRINT_TOL:
            lines.append(f"d f{j+1} = 0")
            continue
        bits = []
        for gens, c in terms:
            if abs(c - 1) <= _PRINT_TOL:
                bits.append(f"+ {gens}")
            elif abs(c + 1) <= _PRINT_TOL:
                bits.append(f"- {gens}")
            else:
                bits.append(f"+ ({c:.6g}) {gens}")
        lines.append(f"d f{j+1} = " + " ".join(bits).removeprefix("+ "))
    return lines
