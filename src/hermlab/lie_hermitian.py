"""Lie algebras with complex structure, given through structure constants.

The differential of the (1,0) coframe is encoded by two rank-3 complex
tensors C and D:

    d phi_j = -1/2 sum_{i,k} C[j,i,k] phi_i ^ phi_k
              - sum_{i,k} conj(D[i,j,k]) phi_i ^ phibar_k

Both tensors are stored as ``X[up, lo1, lo2]`` = ``X^up_{lo1 lo2}``; the
structure equation consumes D with its first lower slot bound to the form
label, which is done by explicit index permutation at the single point of
use above.  C is antisymmetric in its two lower slots.

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
from .errors import (
    DimensionMismatch,
    JacobiViolation,
    NotIntegrable,
    SingularFrame,
    UnknownCatalogEntry,
)

# a frame whose condition number exceeds this loses all but ~3 digits in
# double precision; it bounds a matrix, not an algebraic residual
_COND_LIMIT = 1e13


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

    def residual(self, name):
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)


# ---------------------------------------------------------------------------
# exterior derivative


def coframe_differential(sc, j, conjugated=False):
    """d(phi_j), or d(phibar_j) when ``conjugated``; 0-based ``j``."""
    n = sc.n
    out = ta.InvariantForm(n)
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


def exterior_d(a, sc):
    """Exterior derivative of an invariant form, via the graded Leibniz rule."""
    if a.n != sc.n:
        raise DimensionMismatch(f"form has n={a.n}, structure has n={sc.n}")
    n = sc.n
    dgen = [coframe_differential(sc, j) for j in range(n)]
    dgen += [coframe_differential(sc, j, conjugated=True) for j in range(n)]
    out = ta.InvariantForm(n)
    for idx, coeff in a.terms.items():
        for pos, g in enumerate(idx):
            sign = -1.0 if pos % 2 else 1.0
            rest = idx[:pos] + idx[pos + 1 :]
            for didx, dcoeff in dgen[g].terms.items():
                out._insert(didx + rest, sign * coeff * dcoeff)
    return out


def validate(sc, tol=ta.DEFAULT_TOL):
    """Consistency checks: C antisymmetry and d(d phi_j) = 0 for all j.

    Over the 2n generators e = (phi, phibar), d e_p = 1/2 sum N[p,r,s]
    e_r ^ e_s; the coefficients of d(d e_p) are the Jacobi cyclic sum of
    N contracted with itself.
    """
    n = sc.n
    antisym = float(np.abs(sc.C + np.swapaxes(sc.C, 1, 2)).max())
    N = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    N[:n, :n, :n] = -sc.C
    X = -sc.D.conj().transpose(1, 0, 2)
    N[:n, :n, n:] = X
    N[:n, n:, :n] = -X.swapaxes(1, 2)
    swap = np.r_[n : 2 * n, 0:n]  # phi <-> phibar in both form slots
    N[n:] = N[:n].conj()[:, swap][:, :, swap]
    Z = np.tensordot(N, N, ([1], [0]))
    A = Z + Z.transpose(0, 2, 3, 1) + Z.transpose(0, 3, 1, 2)
    dd_hol = float(np.abs(A[:n]).max())
    dd_anti = float(np.abs(A[n:]).max())
    checks = (
        Check("C_antisymmetry", antisym <= tol, antisym),
        Check("dd_phi", dd_hol <= tol, dd_hol),
        Check("dd_phibar", dd_anti <= tol, dd_anti),
    )
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# complexification of real data


def _real_jacobi_residual(f):
    # cyclic sum of f^e_{ad} f^d_{bc} over (a,b,c)
    t = np.einsum("ead,dbc->eabc", f, f)
    cyc = t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))
    return float(np.abs(cyc).max())


def complexify(rl, tol=ta.DEFAULT_TOL):
    """Structure constants of the (1,0)-frame induced by (f, J).

    Raises ``ValueError`` when J*J = -I fails or ``f`` is not antisymmetric
    in its lower pair beyond ``tol``, :class:`JacobiViolation` when the real
    constants fail Jacobi, and :class:`NotIntegrable` when the bracket of two
    (1,0)-fields has a (0,1)-component exceeding ``tol`` (Nijenhuis
    obstruction).  The result is not passed through :func:`validate`; callers
    that need d*d = 0 checked validate it themselves, as the CLI does.
    """
    import scipy.linalg  # deferred: only this function needs scipy

    dim, f, J = rl.dim, rl.f, rl.J
    n = dim // 2
    jj = float(np.abs(J @ J + np.eye(dim)).max())
    if jj > tol:
        raise ValueError(f"J*J = -I fails with residual {jj:.3e}")
    asym = float(np.abs(f + f.swapaxes(1, 2)).max())
    if asym > tol:
        raise ValueError(f"f is not antisymmetric in its lower pair: residual {asym:.3e}")
    jac = _real_jacobi_residual(f)
    if jac > tol:
        raise JacobiViolation(f"real Jacobi residual {jac:.3e}")

    # basis of the +i eigenspace of J: independent columns of (I - iJ)/2,
    # located by column-pivoted QR but kept un-orthogonalized so structured
    # inputs yield sparse structure constants
    proj = (np.eye(dim) - 1j * J) / 2.0
    _, _, piv = scipy.linalg.qr(proj, pivoting=True)
    E = proj[:, np.sort(piv[:n])]
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
    Pinv = np.linalg.inv(P)
    C = np.tensordot(Pinv, P.T @ sc.C @ P, 1)
    D = np.tensordot(P.conj().T, Pinv.conj() @ sc.D @ P, 1)
    return StructureConstants(n, C, D)


def unitary_reduction(hs):
    """Frame change making the metric Gram matrix the identity.

    Uses ``P = (L^T)^{-1}`` from the Cholesky factor ``H = L L*`` so the
    output is deterministic; for ``H = I`` the frame is unchanged.
    Returns ``(P, sc_unitary)``.
    """
    L = ta.cholesky(hs.H)
    P = np.linalg.inv(L.T)
    return P, frame_change(hs.sc, P)


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


def so3c_real():
    """so(3, C) as a real 6-dimensional algebra with its complex structure."""
    c = so_structure_constants(3)
    n = 3
    dim = 2 * n
    # basis u_1..u_3, v_1..v_3 with v = J u; brackets from the complex algebra
    f = np.zeros((dim, dim, dim))
    f[:n, :n, :n] = c       # [u_i, u_j] = c u_k
    f[n:, :n, n:] = c       # [u_i, v_j] = c v_k
    f[n:, n:, :n] = c       # [v_i, u_j] = c v_k
    f[:n, n:, n:] = -c      # [v_i, v_j] = -c u_k
    J = np.zeros((dim, dim))
    i = np.arange(n)
    J[n + i, i] = 1.0
    J[i, n + i] = -1.0
    return RealLieData(dim, f, J)


def _so3c_constants():
    # d phi_1 = phi_2 ^ phi_3 and cyclic permutations
    C = np.zeros((3, 3, 3), dtype=complex)
    for j, (i, k) in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        C[j, i, k] = -1.0
        C[j, k, i] = 1.0
    return C


def catalog_names():
    """Representative catalog names (abelian-N and sokc-K are parametric)."""
    return ["abelian-2", "abelian-3", "so3c", "sokc-4", "iwasawa", "kodaira-thurston"]


def catalog(name, metric=None):
    """A named validated structure, with the identity metric by default."""
    name = name.strip()
    m = re.fullmatch(r"abelian-(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownCatalogEntry(name)
        sc = StructureConstants.zero(n)
    elif name == "so3c":
        sc = StructureConstants(3, _so3c_constants(), np.zeros((3, 3, 3)))
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
