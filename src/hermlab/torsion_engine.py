"""Chern connection, Chern torsion, and all derived tensors.

Everything here expects structure constants expressed in a unitary frame
(Gram matrix = identity); :func:`analyze` performs the reduction first.  In
such a frame the Chern connection coefficients are Gamma^j_{ik} = D^j_{ik}
and the torsion is T^j_{ik} = -C^j_{ik} - D^j_{ik} + D^j_{ki}.  Because the
frame is left-invariant, frame derivatives of tensor components vanish and
covariant derivatives are pure Gamma-contractions; an analysis builds none.

:func:`analyze` is the one place a metric is analyzed: every quantity
evaluated at a metric (functionals, residuals, classification) reads the
:class:`TorsionPackage` it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lie_hermitian as lh
from . import tensor_algebra as ta


@dataclass(frozen=True)
class TorsionPackage:
    """All derived torsion tensors of a Hermitian structure, unitary frame."""

    n: int
    P: np.ndarray          # frame change to the unitary frame
    sc_u: lh.StructureConstants  # sc_u.D[j,i,k] = Gamma^j_{ik}, the Chern connection
    T: np.ndarray          # T[j,i,k] = T^j_{ik}
    eta: np.ndarray        # eta[i]
    A: np.ndarray          # A[i,j] = A_{i jbar}
    B: np.ndarray          # B[i,j] = B_{i jbar}
    phi: np.ndarray        # phi[i,j] = phi_i^j  (coefficients of the (1,1)-form)
    xi: np.ndarray         # xi[i,j] = xi_i^j
    chi: float
    norm_T2: float
    norm_eta2: float
    volume: float          # det H, the volume of the metric


def chern_torsion(sc_u):
    """Torsion components T^j_{ik} = -C^j_{ik} - D^j_{ik} + D^j_{ki}."""
    return -sc_u.C - sc_u.D + np.swapaxes(sc_u.D, 1, 2)


def torsion_one_form(T):
    """The torsion 1-form, eta_i = sum_r T^r_{ri}."""
    return T.trace(0, 0, 1)


def ab_tensors(T):
    """The Hermitian PSD matrices A_{i jbar}, B_{i jbar}; both trace to |T|^2.

    A = sum_{r,s} T^r_{is} conj(T^r_{js}) and B = sum_{r,s} T^j_{rs}
    conj(T^i_{rs}), each one (n, n^2) @ (n^2, n) product.
    """
    n = T.shape[0]
    Tm = T.transpose(1, 0, 2).reshape(n, n * n)  # Tm[i, (r, s)] = T^r_{is}
    Tr = T.reshape(n, n * n)                       # Tr[j, (r, s)] = T^j_{rs}
    return Tm @ Tm.conj().T, Tr.conj() @ Tr.T


def holomorphic_derivative_T(T, gamma, work=None):
    """T^j_{ik, l} (unbarred covariant derivative) for left-invariant data:

    out[j,i,k,l] = sum_r ( G^j_{rl} T^r_{ik} - T^j_{ir} G^r_{kl} - T^j_{rk} G^r_{il} ).

    Each term is one (n^2, n) @ (n, n^2) product written into ``work`` (a
    ``tensor_algebra.workspace``, allocated when none is passed): the second
    and third land in ``work[1]`` and are added into ``work[0]`` through a
    transposed view.  Returns ``work[0]``, laid out as [j,i,k,l].
    """
    n = T.shape[0]
    m = n * n
    if work is None:
        work = ta.workspace(n)
    out, tmp = work
    # sum_r T[j,i,r] G[r,k,l], laid out [j,i,k,l]
    np.matmul(T.reshape(m, n), gamma.reshape(n, m), out=out.reshape(m, m))
    # sum_r T[j,r,k] G[r,i,l], laid out [j,k,i,l]
    np.matmul(T.transpose(0, 2, 1).reshape(m, n), gamma.reshape(n, m), out=tmp.reshape(m, m))
    out += tmp.transpose(0, 2, 1, 3)
    # sum_r T[r,i,k] G[j,r,l], laid out [i,k,j,l]
    np.matmul(T.reshape(n, m).T, gamma.transpose(1, 0, 2).reshape(n, m), out=tmp.reshape(m, m))
    return np.subtract(tmp.transpose(2, 0, 1, 3), out, out=out)


def covariant_derivative_T(T, gamma, work=None):
    """T^j_{ik, lbar} for left-invariant data, an n^4 tensor that costs n^5
    to contract and that no analysis builds:

    DT[j,i,k,l] = sum_r ( T^j_{rk} conj(G^i_{rl}) + T^j_{ir} conj(G^k_{rl})
                          - T^r_{ik} conj(G^r_{jl}) ),

    the holomorphic template, in ``work`` if given, with the connection
    matrices of the barred directions, omega(ebar_l) = -omega(e_l)^H for a
    unitary connection.
    """
    return holomorphic_derivative_T(T, -gamma.conj().transpose(1, 0, 2), work)


def phi_xi_tensors(T, gamma, eta):
    """phi_i^j = sum_r T^j_{ir} conj(eta_r), xi_i^j = sum_r T^j_{ir, rbar}.

    Returns (phi, xi, chi) with chi = trace(xi), real for valid inputs; xi is
    contracted in O(n^4) from T and the Chern connection ``gamma``.
    """
    n = T.shape[0]
    m = n * n
    phi = (T @ eta.conj()).T
    Gc = gamma.conj()
    # sum_{r,s} T^j_{rs} conj(G^i_{rs}) + sum_{r,s} T^j_{is} conj(G^r_{sr}), laid out [j, i]
    xi = (T.reshape(n, m) @ Gc.reshape(n, m).T + T @ Gc.trace(0, 0, 2)).T
    # minus sum_{r,s} T^r_{is} conj(G^r_{js}), laid out [i, j]
    xi -= T.transpose(1, 0, 2).reshape(n, m) @ Gc.transpose(1, 0, 2).reshape(n, m).T
    chi = float(np.trace(xi).real)
    return phi, xi, chi


def analyze(hs):
    """Run the full unitary-frame pipeline on a Hermitian structure."""
    P, sc_u = lh.unitary_reduction(hs)
    n = sc_u.n
    T = chern_torsion(sc_u)
    eta = torsion_one_form(T)
    A, B = ab_tensors(T)
    phi, xi, chi = phi_xi_tensors(T, sc_u.D, eta)
    norm_T2 = float(np.sum(np.abs(T) ** 2))
    norm_eta2 = float(np.sum(np.abs(eta) ** 2))
    return TorsionPackage(
        n=n,
        P=P,
        sc_u=sc_u,
        T=T,
        eta=eta,
        A=A,
        B=B,
        phi=phi,
        xi=xi,
        chi=chi,
        norm_T2=norm_T2,
        norm_eta2=norm_eta2,
        # det H = |det L|^2 = 1 / |det P|^2, and P = (L^T)^{-1} is triangular;
        # summed in logs, as np.linalg.det does, so no product over- or underflows
        volume=float(np.exp(-2.0 * np.log(np.abs(P.diagonal())).sum())),
    )
