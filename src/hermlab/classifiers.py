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
dependency graph between generators and answers with a topological sort
(Kahn's algorithm), whose lexicographically smallest order is the witness.
"""

from __future__ import annotations

import heapq

import numpy as np

from . import torsion_engine as te
from .tensor_algebra import DEFAULT_TOL


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

    Keys:
      nabla_s_hol / nabla_s_bar -- components of the Strominger-connection
        derivative of T (both must vanish for STP);
      quadratic_hol -- the purely quadratic identity (vanishing of the
        holomorphic T*T combination);
      eta_contraction -- sum_r eta_r T^r_{ik};
      phi_xi_vs_BA -- phi - xi - (B - A).
    """
    T, eta = pkg.T, pkg.eta
    # the T*T terms of nabla^s T are the Chern-derivative templates with Gamma := T
    Q = te.holomorphic_derivative_T(T, T)
    return {
        "nabla_s_hol": float(np.abs(te.holomorphic_derivative_T(T, pkg.sc_u.D) + Q).max()),
        "nabla_s_bar": float(np.abs(pkg.DT + te.covariant_derivative_T(T, T)).max()),
        "quadratic_hol": float(np.abs(Q).max()),
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


def nilpotent_J_check(sc, tol=1e-12):
    """Find a frame permutation giving the nilpotent-J triangular pattern:

    C^j_{ik} = D^i_{jk} = 0 unless j > i and j > k.

    Returns (flag, witness) with the witness a 0-based permutation sigma,
    meaning the relabeled frame phi'_a = phi_{sigma(a)} is triangular.  Only
    permutations of the given frame are considered, not general frame changes.

    Each entry |C[j,i,k]| > tol or |D[i,j,k]| > tol asks for j to come after
    both i and k, so a valid sigma is a topological order of the graph with
    edges i -> j and k -> j; a self-dependency (j == i or j == k) is a loop
    and leaves none.  Kahn's algorithm with a min-heap of ready generators
    yields the lexicographically smallest order, which is the first
    triangular sigma in the lexicographic order of all n! permutations.
    O(n^3) for the scan of C and D.  ``tol`` is a structural-zero test on
    the given constants, not an identity residual, hence rounding level.
    """
    n = sc.n
    jc, ic, kc = np.nonzero(np.abs(sc.C) > tol)
    id_, jd, kd = np.nonzero(np.abs(sc.D) > tol)
    src = np.concatenate([ic, kc, id_, kd]).tolist()
    dst = np.concatenate([jc, jc, jd, jd]).tolist()
    succ = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in set(zip(src, dst)):
        succ[a].append(b)
        indegree[b] += 1
    ready = [v for v in range(n) if indegree[v] == 0]  # ascending: a heap
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                heapq.heappush(ready, w)
    if len(order) < n:  # a cycle or a self-dependency
        return False, None
    return True, tuple(order)


def pluriclosed_residual(pkg):
    """Norm of del delbar omega in the unitary frame.

    delbar omega = 1/2 sum B[a,b,c] phi_a ^ phibar_b ^ phibar_c with
    B = -i conj(T).  Applying del gives the (2,2)-form whose coefficients,
    antisymmetrized in both pairs, are K[p,q,r,s]; its norm over canonical
    terms is |K| / 2.
    """
    B = -1j * pkg.T.conj()
    W = -0.25 * np.einsum("ars,apq->pqrs", B, pkg.sc_u.C)
    W -= np.einsum("pbs,rbq->pqrs", B, pkg.sc_u.D)
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
