"""Predicates for the special metric classes.

Every check but the nilpotent-J one runs on the unitary-frame tensors of a
TorsionPackage and returns the residual it measures: one number, or for
:func:`stp_check` a dict of them.  :func:`classify` is the one place where a
residual meets the tolerance; it returns the report's ``classification``
block: each class maps to ``{"flag", "residual"}``, ``stp`` to
``{"flag", "residuals"}`` and ``nilpotent_J`` to ``{"flag", "witness"}``,
next to the ``tol`` used, so callers can judge borderline cases themselves.

The nilpotent-J check is a combinatorial test on the structure constants in
the given frame: it asks whether some relabeling of the generators makes
(C, D) triangular, reads the nonzero entries as a dependency relation
between generators and places them greedily, smallest ready generator
first; the lexicographically smallest order is the witness.
"""

from __future__ import annotations

import numpy as np

from . import torsion_engine as te
from .tensor_algebra import DEFAULT_TOL

# nilpotent_J_check counts an entry of C or D above this as nonzero: a
# structural-zero test on the given constants, not an identity residual,
# hence rounding level
_STRUCTURAL_ZERO = 1e-12


def lck_torsion(eta):
    """The locally-conformally-Kaehler torsion shape determined by eta:

    T^j_{ik} = 1/(n-1) (delta_{ij} eta_k - delta_{kj} eta_i).

    For n = 1 the bracket vanishes (torsion is antisymmetric in its lower
    pair), so the divisor is taken as 1 and the shape is zero.
    """
    eta = np.asarray(eta, dtype=complex)
    n = eta.shape[0]
    eye = np.eye(n)
    T = np.einsum("ij,k->jik", eye, eta) - np.einsum("kj,i->jik", eye, eta)
    return T / max(n - 1, 1)


def lck_check(pkg):
    """Distance max |T - lck_torsion(eta)| of the torsion from the exact LCK
    shape built from its own trace."""
    return float(np.abs(pkg.T - lck_torsion(pkg.eta)).max())


def stp_check(pkg, work=None):
    """The residuals of Strominger torsion parallel: max |nabla^s T| in the
    unbarred (``nabla_s_hol``) and the barred (``nabla_s_bar``) direction.

    nabla^s T is the template at the Strominger connection Gamma = D + T,
    which contracts in O(n^5), as do :func:`pluriclosed_residual` and the
    d(d phi) check of ``lie_hermitian.validate``.  Both templates run in
    ``work`` (a ``torsion_engine.workspace``, allocated when none is passed),
    and each ``max|.|`` is reduced in its spent second half.
    """
    if work is None:
        work = te.workspace(pkg.n)
    # |.| of a template (in work[0]) goes into the first n^4 floats of work[1]
    spent = work[1].view(float).reshape(work.shape)[0]

    def max_abs(template, gamma):
        return float(np.abs(template(pkg.T, gamma, work), out=spent).max())

    S = pkg.sc_u.D + pkg.T
    return {"nabla_s_hol": max_abs(te.holomorphic_derivative_T, S),
            "nabla_s_bar": max_abs(te.covariant_derivative_T, S)}


def nilpotent_J_check(sc):
    """Find a frame permutation giving the nilpotent-J triangular pattern:

    C^j_{ik} = D^i_{jk} = 0 unless j > i and j > k.

    Returns (flag, witness) with the witness a 0-based permutation sigma,
    meaning the relabeled frame phi'_a = phi_{sigma(a)} is triangular.  Only
    permutations of the given frame are considered, not general frame changes.

    Each entry |C[j,i,k]| or |D[i,j,k]| above ``_STRUCTURAL_ZERO`` asks for
    j to come after both i and k, so a valid sigma is a topological order of
    this dependency relation; a self-dependency (j == i or j == k) leaves
    none.  Placing the smallest generator with no unplaced predecessor, n
    times, yields the lexicographically smallest order, which is the first
    triangular sigma in the lexicographic order of all n! permutations.
    O(n^3) for the scan of C and D.
    """
    C, D = np.abs(sc.C) > _STRUCTURAL_ZERO, np.abs(sc.D) > _STRUCTURAL_ZERO
    after = C.any(2) | C.any(1) | D.any(2).T | D.any(0)  # after[j, i]: i before j
    waiting = np.ones(sc.n, dtype=bool)
    order = []
    for _ in range(sc.n):
        ready = np.flatnonzero(waiting & ~(after & waiting).any(1))
        if ready.size == 0:  # a cycle or a self-dependency
            return False, None
        waiting[ready[0]] = False
        order.append(int(ready[0]))
    return True, tuple(order)


def pluriclosed_residual(pkg, work=None):
    """Norm of del delbar omega in the unitary frame.

    delbar omega = 1/2 sum B[a,b,c] phi_a ^ phibar_b ^ phibar_c with
    B = -i conj(T).  Applying del gives the (2,2)-form whose coefficients,
    antisymmetrized in both pairs, are K[p,q,r,s]; its norm over canonical
    terms is |K| / 2.  Both products and both antisymmetrizations run in
    ``work`` (a ``torsion_engine.workspace``, allocated when none is
    passed).
    """
    n = pkg.n
    m = n * n
    if work is None:
        work = te.workspace(n)
    W, K = work
    B = -1j * pkg.T.conj()
    # W[p,q,r,s] = -1/4 sum_x C[x,p,q] B[x,r,s]
    np.matmul(pkg.sc_u.C.reshape(n, m).T, B.reshape(n, m), out=W.reshape(m, m))
    W *= -0.25
    # sum_x B[p,x,s] D[r,x,q], laid out [p,s,r,q]
    np.matmul(B.transpose(0, 2, 1).reshape(m, n), pkg.sc_u.D.transpose(1, 0, 2).reshape(n, m),
              out=K.reshape(m, m))
    W -= K.transpose(0, 3, 2, 1)
    np.subtract(W, W.swapaxes(0, 1), out=K)
    np.subtract(K, K.swapaxes(2, 3), out=W)
    return 0.5 * float(np.linalg.norm(W))


def classify(pkg, sc, tol=DEFAULT_TOL):
    """The classification block of a report: each flag with its residuals,
    a residual being flagged when at most ``tol``.

    ``pkg`` is the analysis of a metric on the structure ``sc``; the
    nilpotent-J check reads ``sc`` in its given frame.
    """

    def thresholded(residual):
        return {"flag": residual <= tol, "residual": residual}

    # the n^5 classifiers share one workspace
    work = te.workspace(pkg.n)
    stp = stp_check(pkg, work)
    nilp_flag, witness = nilpotent_J_check(sc)
    return {
        "kahler": thresholded(float(np.abs(pkg.T).max())),
        "balanced": thresholded(float(np.abs(pkg.eta).max())),
        "gauduchon": thresholded(abs(pkg.norm_eta2 - pkg.chi)),
        "pluriclosed": thresholded(pluriclosed_residual(pkg, work)),
        "lck_shape": thresholded(lck_check(pkg)),
        # Strominger torsion parallel: both nabla^s T residuals within tol
        "stp": {"flag": max(stp.values()) <= tol, "residuals": stp},
        "nilpotent_J": {"flag": nilp_flag, "witness": witness},
    }
