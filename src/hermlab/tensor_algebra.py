"""Tolerances and the dense complex linear algebra the package shares.

Tensor index conventions used throughout the package:

* matrices of (1,1)-forms are indexed ``M[i, j]`` meaning ``M_{i jbar}``;
* rank-3 tensors are indexed ``X[up, lo1, lo2]`` meaning ``X^up_{lo1 lo2}``;
* rank-4 tensors are indexed ``X[up, lo1, lo2, bar]`` meaning
  ``X^up_{lo1 lo2, bar}`` (last slot an anti-holomorphic derivative).
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite

#: default comparison tolerance for exact algebraic identities: the one
#: policy for validation, complexification and classification
DEFAULT_TOL = 1e-9

#: relative tolerance for "is Hermitian" checks: a Hermitian input is
#: symmetric up to rounding, not up to an identity's accumulated residual
HERMITIAN_RTOL = 1e-12


def workspace(n):
    """The complex (2, n, n, n, n) buffer an n^5 contraction writes into: its
    result in ``work[0]``, its products in ``work[1]``.  The d(d phi) check
    and the classifiers allocate this one shape, so no stage of a report
    holds more than one."""
    return np.empty((2, n, n, n, n), dtype=complex)


def max_abs(a, work):
    """max |a| for an ``a`` of the shape of ``work[0]`` and not in ``work[1]``:
    |a| goes into the first half of the spent ``work[1]``, so no temporary
    of a's size is made."""
    spent = work[1].view(float).reshape((2,) + a.shape)[0]
    return float(np.abs(a, out=spent).max())


def require_finite(a, what="array"):
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    return a


def is_hermitian(H):
    H = np.asarray(H, dtype=complex)
    scale = max(np.abs(H).max(), 1.0)
    return np.abs(H - H.conj().T).max() <= HERMITIAN_RTOL * scale


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
