"""Predicates for the special metric classes.

All checks run on the unitary-frame tensors of a TorsionPackage and report
both a boolean flag and the residual magnitude that was thresholded, so
callers can judge borderline cases themselves.  :func:`classify` returns
them as the report's ``classification`` block: each class maps to
``{"flag", "residual"}``, ``stp`` to ``{"flag", "residuals"}`` and
``nilpotent_J`` to ``{"flag", "witness"}``, next to the ``tol`` used.

The exception is the nilpotent-J check, a combinatorial test on the
structure constants in the given frame: it asks whether some relabeling of
the generators makes (C, D) triangular, reads the nonzero entries as a
dependency relation between generators and places them greedily, smallest
ready generator first; the lexicographically smallest order is the witness.
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


def lck_check(pkg, tol=DEFAULT_TOL):
    """Is the torsion of the exact LCK shape built from its own trace?"""
    residual = float(np.abs(pkg.T - lck_torsion(pkg.eta)).max())
    return residual <= tol, residual


def stp_identity_residuals(pkg):
    """Residuals of the parallel-torsion identities of an analyzed metric.

    Keys (the first three each contract in O(n^5), as do
    :func:`pluriclosed_residual` and the d(d phi) check of
    ``lie_hermitian.validate``; the rest are O(n^4) or less):
      nabla_s_hol / nabla_s_bar -- the Strominger derivative of T, i.e. the
        templates at Gamma = D + T (both must vanish for STP);
      quadratic_hol -- the purely quadratic identity (vanishing of the
        holomorphic T*T combination, the template at Gamma = T);
      eta_contraction -- sum_r eta_r T^r_{ik};
      phi_xi_vs_BA -- phi - xi - (B - A).
    """
    T, eta = pkg.T, pkg.eta
    # nabla^s T is the template at the Strominger connection (linear in Gamma)
    S = pkg.sc_u.D + T
    return {
        "nabla_s_hol": float(np.abs(te.holomorphic_derivative_T(T, S)).max()),
        "nabla_s_bar": float(np.abs(te.covariant_derivative_T(T, S)).max()),
        "quadratic_hol": float(np.abs(te.holomorphic_derivative_T(T, T)).max()),
        "eta_contraction": float(np.abs(np.einsum("r,rik->ik", eta, T)).max()),
        "phi_xi_vs_BA": float(np.abs((pkg.phi - pkg.xi) - (pkg.B - pkg.A)).max()),
    }


def stp_check(pkg, tol=DEFAULT_TOL):
    """Strominger torsion parallel: max |nabla^s T| <= tol.

    Decided directly from the Strominger-connection derivative; the derived
    quadratic identities are reported as residuals for cross-validation.
    """
    residuals = stp_identity_residuals(pkg)
    flag = max(residuals["nabla_s_hol"], residuals["nabla_s_bar"]) <= tol
    return flag, residuals


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


def pluriclosed_residual(pkg):
    """Norm of del delbar omega in the unitary frame.

    delbar omega = 1/2 sum B[a,b,c] phi_a ^ phibar_b ^ phibar_c with
    B = -i conj(T).  Applying del gives the (2,2)-form whose coefficients,
    antisymmetrized in both pairs, are K[p,q,r,s]; its norm over canonical
    terms is |K| / 2.
    """
    B = -1j * pkg.T.conj()
    W = -0.25 * np.tensordot(pkg.sc_u.C, B, axes=(0, 0))  # W[p,q,r,s]
    W -= np.tensordot(B, pkg.sc_u.D, axes=(1, 1)).transpose(0, 3, 2, 1)
    K = W - W.swapaxes(0, 1)
    K = K - K.swapaxes(2, 3)
    return 0.5 * float(np.linalg.norm(K))


def classify(pkg, sc, tol=DEFAULT_TOL):
    """The classification block of a report: flags, residuals and ``tol``.

    ``pkg`` is the analysis of a metric on the structure ``sc``; the
    nilpotent-J check reads ``sc`` in its given frame.
    """

    def thresholded(residual):
        return {"flag": residual <= tol, "residual": residual}

    lck_flag, lck_res = lck_check(pkg, tol)
    stp_flag, stp_res = stp_check(pkg, tol)
    nilp_flag, witness = nilpotent_J_check(sc)
    return {
        "tol": tol,
        "kahler": thresholded(float(np.abs(pkg.T).max())),
        "balanced": thresholded(float(np.abs(pkg.eta).max())),
        "gauduchon": thresholded(abs(pkg.norm_eta2 - pkg.chi)),
        "pluriclosed": thresholded(pluriclosed_residual(pkg)),
        "lck_shape": {"flag": lck_flag, "residual": lck_res},
        "stp": {"flag": stp_flag, "residuals": stp_res},
        "nilpotent_J": {"flag": nilp_flag, "witness": witness},
    }
