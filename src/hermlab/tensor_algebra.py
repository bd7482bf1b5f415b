"""Dense complex linear algebra and an exterior algebra over a fixed coframe.

All forms live over a frame of ``2n`` generators: indices ``0..n-1`` are the
(1,0) coframe elements and ``n..2n-1`` their conjugates.  An
:class:`InvariantForm` stores a map from strictly increasing index tuples to
complex coefficients; the reordering sign is folded into the coefficient at
insertion time, so form equality reduces to comparing coefficient maps.
The library's numbers are tensor contractions; :class:`InvariantForm` is the
algebra for rendering structure equations and for the test oracles that
those contractions are checked against.

Tensor index conventions used throughout the package:

* matrices of (1,1)-forms are indexed ``M[i, j]`` meaning ``M_{i jbar}``;
* rank-3 tensors are indexed ``X[up, lo1, lo2]`` meaning ``X^up_{lo1 lo2}``;
* rank-4 tensors are indexed ``X[up, lo1, lo2, bar]`` meaning
  ``X^up_{lo1 lo2, bar}`` (last slot an anti-holomorphic derivative).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

#: default comparison tolerance for exact algebraic identities: the one
#: policy for validation, complexification and classification
DEFAULT_TOL = 1e-9

#: relative tolerance for "is Hermitian" checks: a Hermitian input is
#: symmetric up to rounding, not up to an identity's accumulated residual
HERMITIAN_RTOL = 1e-12


def require_finite(a, what="array"):
    a = np.asarray(a)
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def is_hermitian(H, rtol=HERMITIAN_RTOL):
    H = np.asarray(H, dtype=complex)
    scale = max(np.abs(H).max(), 1.0)
    return np.abs(H - H.conj().T).max() <= rtol * scale


def cholesky(H):
    """Lower-triangular ``L`` with ``H = L @ L.conj().T``.

    Raises :class:`NotPositiveDefinite` when a pivot fails, which signals an
    invalid metric input.
    """
    H = np.asarray(H, dtype=complex)
    require_finite(H, "matrix")
    if not is_hermitian(H):
        raise NotPositiveDefinite("matrix is not Hermitian")
    try:
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


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

    def isclose(self, other, tol=DEFAULT_TOL):
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

