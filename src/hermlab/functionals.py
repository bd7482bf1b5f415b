"""Torsion and Gauduchon functionals and their Euler-Lagrange residuals.

Both functionals are scale-invariant energies of the metric.  For invariant
metrics on a compact quotient every integral reduces to (pointwise value)
times the volume V = det H, so the normalization constants become pointwise:
b = |T|^2 and a = |eta|^2 / n.  The functionals reduce to

    F = V^(1/n) |T|^2          G = V^(1/n) |eta|^2

with |T|^2 and |eta|^2 computed in the unitary frame of H.

The torsion residual Q_F is the unitary-frame coefficient matrix of the
first-variation (1,1)-form of F:

    Q_F = 2A - B + 2(phi + phi*) - 2(xi + xi*) - (|T|^2 - (n-1)/n b) Id,

zero exactly at torsion-critical metrics.  The Gauduchon residual Q_G is the
coefficient matrix of i(del etabar - delbar eta - eta ^ etabar) - a Id, zero
exactly at critical points of G; it is contracted directly from eta and the
unitary-frame D.

Both first variations have the form -V^(1/n) Re tr(h_u Q), with Q = Q_F for
F and Q = Q_G for G; :func:`first_variation` evaluates it along one
direction and the optimizer's chart gradient reads the whole matrix.

Every quantity here is evaluated at one metric and takes that metric's
:class:`~hermlab.torsion_engine.TorsionPackage`; only
:func:`fd_first_variation`, which builds new metrics, takes a structure.
:func:`residual_report` gathers both functionals and both residuals into the
report's ``residuals`` block, a dict whose matrices stay numpy arrays.
"""

from __future__ import annotations

import numpy as np

from . import lie_hermitian as lh
from . import torsion_engine as te


def torsion_functional(pkg):
    """F = V^(1/n) |T|^2; invariant under H -> c H."""
    return pkg.volume ** (1.0 / pkg.n) * pkg.norm_T2


def gauduchon_functional(pkg):
    """G = V^(1/n) |eta|^2; invariant under H -> c H."""
    return pkg.volume ** (1.0 / pkg.n) * pkg.norm_eta2


def _herm(M):
    return M + M.conj().T


def torsion_critical_residual(pkg):
    """Euler-Lagrange residual of F; returns (Q_F, Frobenius norm)."""
    n = pkg.n
    Q = 2 * pkg.A - pkg.B + 2 * _herm(pkg.phi) - 2 * _herm(pkg.xi)
    Q -= (pkg.norm_T2 - (n - 1) / n * pkg.norm_T2) * np.eye(n)  # b = |T|^2
    return Q, float(np.linalg.norm(Q))


def gauduchon_critical_residual(pkg):
    """Euler-Lagrange residual of G; returns (Q_G, Frobenius norm).

    Q_G is the coefficient matrix of i(del etabar - delbar eta
    - eta ^ etabar) minus a * Id with a = |eta|^2 / n.  With
    E_ik = sum_j eta_j conj(D^i_{jk}) this is E + E* - eta eta* - a Id.
    """
    n = pkg.n
    E = np.einsum("j,ijk->ik", pkg.eta, pkg.sc_u.D.conj())
    a = pkg.norm_eta2 / n
    Q = _herm(E) - np.outer(pkg.eta, pkg.eta.conj()) - a * np.eye(n)
    return Q, float(np.linalg.norm(Q))


#: name -> (value, residual) of each functional with an analytic first
#: variation; the entries look their functions up when called, so a wrapper
#: set on this module (a tracer's, a test's) sees the calls made through them
FUNCTIONALS = {
    "torsion_functional": (lambda pkg: torsion_functional(pkg),
                           lambda pkg: torsion_critical_residual(pkg)),
    "gauduchon_functional": (lambda pkg: gauduchon_functional(pkg),
                             lambda pkg: gauduchon_critical_residual(pkg)),
}


def _functional(name):
    """The ``(value, residual)`` pair of :data:`FUNCTIONALS` named ``name``."""
    if name not in FUNCTIONALS:
        raise ValueError(f"no first variation for {name!r}")
    return FUNCTIONALS[name]


def first_variation(pkg, h, functional="torsion_functional"):
    """Analytic derivative d/dt functional(H + t h) at t = 0.

    ``functional`` is a key of :data:`FUNCTIONALS`: ``"torsion_functional"``
    (Q = Q_F) or ``"gauduchon_functional"`` (Q = Q_G).  The derivative is
    V^(1/n) Re tr(h_u @ -Q), with h_u = P^T h conj(P) the direction h
    expressed in the unitary frame, so -V^(1/n) Q is the Riesz matrix of the
    variation.  The sign is negative for both functionals; it is pinned by
    agreement with :func:`fd_first_variation`.
    """
    Q, _ = _functional(functional)[1](pkg)
    h_u = pkg.P.T @ np.asarray(h, dtype=complex) @ pkg.P.conj()
    v = pkg.volume ** (1.0 / pkg.n)
    return float(v * np.trace(h_u @ -Q).real)


def fd_first_variation(hs, h, step=1e-4, functional="torsion_functional"):
    """Finite-difference derivative of a functional along H + t h.

    The Richardson combination (4 D(step/2) - D(step)) / 3 of the central
    differences D(s) = (f(H + s h) - f(H - s h)) / (2s): the step^2 terms of
    their truncation cancel, leaving O(step^4), so at a critical metric,
    where the derivative is 0, it reads rounding rather than step^2 times
    the third variation.  Four analyses.
    """
    value, _ = _functional(functional)
    h = np.asarray(h, dtype=complex)

    def central(s):
        plus = te.analyze(lh.HermitianStructure(hs.sc, hs.H + s * h))
        minus = te.analyze(lh.HermitianStructure(hs.sc, hs.H - s * h))
        return (value(plus) - value(minus)) / (2 * s)

    return (4 * central(step / 2) - central(step)) / 3


def residual_report(pkg):
    """The residuals block of a report: both functionals and both residuals.

    Keys: ``F_value``, ``G_value``, the matrices ``Q_F`` and ``Q_G`` and
    their Frobenius norms ``norm_Q_F`` and ``norm_Q_G``.
    """
    Q_F, norm_Q_F = torsion_critical_residual(pkg)
    Q_G, norm_Q_G = gauduchon_critical_residual(pkg)
    return {
        "F_value": torsion_functional(pkg),
        "G_value": gauduchon_functional(pkg),
        "Q_F": Q_F,
        "Q_G": Q_G,
        "norm_Q_F": norm_Q_F,
        "norm_Q_G": norm_Q_G,
    }
