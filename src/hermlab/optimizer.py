"""Descent over the cone of invariant Hermitian metrics.

The cone is parametrized through the chart H(S) = R exp(S) R with
R = H0^(1/2) and S Hermitian, which is positive definite for every S and
reduces to the anchor metric at S = 0; :meth:`_Problem.metric` is the chart.

For the torsion and Gauduchon functionals :func:`gradient` is analytic and
needs no further analysis: the first variation V^(1/n) Re tr(h_u W) of
:func:`functionals.variation_matrix` is pulled back through the chart with
the Daleckii-Krein divided differences of exp (Higham, *Functions of
Matrices*, 2008, ch. 3).  For ``residual_norm``, whose gradient would need
the derivative of Q_F, the gradient is a central finite difference of step
``FD_STEP`` over an orthonormal real basis of Hermitian matrices.

The descent is steepest descent with Armijo backtracking: each line search
starts at ``INITIAL_STEP``, multiplies the step by ``SHRINK`` after a
rejected trial and accepts a trial that lowers the objective strictly and by
at least ``SUFFICIENT_DECREASE * step * |G|^2``.  Near a critical point that
decrease falls below the rounding error of the objective; a line search that
accepts no trial while |G|^2 <= ``PRECISION_FLOOR * eps * max(1, |f|)``
ends the descent as converged with reason ``precision_limit``, any other
failed line search with reason ``stagnated``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from . import tensor_algebra as ta
from . import torsion_engine as te
from .errors import InvalidStartPoint, NotPositiveDefinite, NumericalFailure, SingularFrame
from .lie_hermitian import HermitianStructure

OBJECTIVES = ("torsion_functional", "gauduchon_functional", "residual_norm")

FD_STEP = 1e-5
INITIAL_STEP = 1.0
SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
PRECISION_FLOOR = 64.0

# a metric the analysis cannot use: a trial step with one is rejected
_UNUSABLE = (NotPositiveDefinite, NumericalFailure, SingularFrame)


@dataclass(frozen=True)
class OptimConfig:
    objective: str = "torsion_functional"
    max_iter: int = 200
    grad_tol: float = 1e-8
    det_normalized: bool = False
    objective_tol: float = 0.0  # extra stop: objective at or below this value

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class OptimTrace:
    iterations: list = field(default_factory=list)  # (it, obj, gnorm, qnorm)
    H_star: np.ndarray | None = None
    pkg_star: te.TorsionPackage | None = None  # the analysis of H_star
    converged: bool = False
    reason: str = ""


def hermitian_basis(n):
    """Orthonormal basis of Hermitian n x n matrices under Re tr(X Y).

    The diagonal units come first, then for each pair i < j in row-major
    order its real symmetric and its imaginary antisymmetric element.
    """
    s = 1.0 / np.sqrt(2.0)
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
    re = n + 2 * np.arange(i.size)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[d, d, d] = 1.0
    basis[re, i, j] = basis[re, j, i] = s
    basis[re + 1, i, j] = 1j * s
    basis[re + 1, j, i] = -1j * s
    return list(basis)


def _project(S, det_normalized):
    S = (S + S.conj().T) / 2
    if det_normalized:
        n = S.shape[0]
        S = S - (np.trace(S) / n) * np.eye(n)
    return S


class _Problem:
    """The objective of a descent from ``hs0`` as a function of the chart S."""

    def __init__(self, hs0, cfg):
        self.sc = hs0.sc
        ta.cholesky(hs0.H)  # the anchor metric must be positive definite
        vals, vecs = np.linalg.eigh(np.asarray(hs0.H, dtype=complex))
        self.root = (vecs * np.sqrt(vals)) @ vecs.conj().T  # H0^(1/2)
        self.cfg = cfg

    def metric(self, S):
        """H(S) = H0^(1/2) exp(S) H0^(1/2), always positive definite.

        With ``det_normalized`` S is projected to trace zero first, so
        det H(S) = det H0 (since det exp(S) = exp(tr S)).
        """
        vals, vecs = np.linalg.eigh(_project(S, self.cfg.det_normalized))
        return self.root @ ((vecs * np.exp(vals)) @ vecs.conj().T) @ self.root

    def analyze(self, S):
        H = self.metric(S)
        if not np.isfinite(H).all():
            raise NumericalFailure("metric overflowed in the exponential chart")
        return te.analyze(HermitianStructure(self.sc, H))

    def objective(self, S):
        return self.value(self.analyze(S))

    def value(self, pkg):
        """The objective at an analyzed metric."""
        if pkg.volume <= 0:
            raise NumericalFailure("metric has non-positive determinant")
        if self.cfg.objective == "torsion_functional":
            val = fn.torsion_functional(pkg)
        elif self.cfg.objective == "gauduchon_functional":
            val = fn.gauduchon_functional(pkg)
        else:
            _, norm = fn.torsion_critical_residual(pkg)
            val = norm**2
        if not np.isfinite(val):
            raise NumericalFailure("objective evaluated to a non-finite value")
        return val

    def residual_norm(self, pkg):
        if self.cfg.objective == "gauduchon_functional":
            _, norm = fn.gauduchon_critical_residual(pkg)
        else:
            _, norm = fn.torsion_critical_residual(pkg)
        return norm


def gradient(prob, S, pkg):
    """Gradient of the objective of ``prob`` (a :class:`_Problem`) at S.

    ``pkg`` is the analysis of the metric H(S); the finite-difference route
    of ``residual_norm`` does not read it.  Returns the Riesz
    representative G: for every Hermitian K (trace-free with
    ``det_normalized``), d/dt objective(S + t K) at 0 equals Re tr(K @ G).
    """
    cfg = prob.cfg
    if cfg.objective == "residual_norm":
        return _fd_gradient(prob, S)
    S = _project(np.asarray(S, dtype=complex), cfg.det_normalized)
    # dH = R dexp_S(K) R and dF(dH) = Re tr(dH X) with X = conj(P) M P^T,
    # M = V^(1/n) W the unitary-frame Riesz matrix; so dF = Re tr(dexp_S(K) Y)
    M = pkg.volume ** (1.0 / pkg.n) * fn.variation_matrix(pkg, cfg.objective)
    Y = prob.root @ (pkg.P.conj() @ M @ pkg.P.T) @ prob.root
    # Daleckii-Krein: with S = U diag(lam) U^H, dexp_S(K) = U (Gam o U^H K U) U^H
    # with Gam_ij = (e^lam_i - e^lam_j) / (lam_i - lam_j), written as
    # e^max(lam_i, lam_j) (1 - e^-d) / d, d = |lam_i - lam_j|, so that equal
    # and nearly equal eigenvalues lose no digits (Gam_ii = e^lam_i).  Gam is
    # real symmetric, so the pull-back of Y has the same form.
    lam, U = np.linalg.eigh(S)
    d = np.abs(lam[:, None] - lam[None, :])
    ratio = np.where(d > 0, -np.expm1(-d) / np.where(d > 0, d, 1.0), 1.0)
    Gam = np.exp(np.maximum.outer(lam, lam)) * ratio
    G = U @ (Gam * (U.conj().T @ Y @ U)) @ U.conj().T
    return _project(G, cfg.det_normalized)


def _fd_gradient(prob, S):
    """Central finite-difference gradient of the objective of ``prob`` at S."""
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    G = np.zeros((n, n), dtype=complex)
    for K in hermitian_basis(n):
        d = (prob.objective(S + FD_STEP * K) - prob.objective(S - FD_STEP * K)) / (2 * FD_STEP)
        if not np.isfinite(d):
            raise NumericalFailure("non-finite finite-difference evaluation")
        G += d * K
    return _project(G, prob.cfg.det_normalized)


def minimize(hs0, cfg, S0=None):
    """Gradient descent with Armijo backtracking in the S-chart.

    A trial step whose metric cannot be analyzed (overflowing chart, not
    positive definite in floating point, numerically singular frame change,
    non-positive determinant, non-finite objective) counts as a rejected
    trial and the step shrinks.
    A start point that cannot be analyzed raises :class:`InvalidStartPoint`;
    a failure in a gradient raises as it is.
    """
    prob = _Problem(hs0, cfg)
    n = hs0.n
    S = np.zeros((n, n), dtype=complex) if S0 is None else _project(
        np.asarray(S0, dtype=complex), cfg.det_normalized
    )
    trace = OptimTrace()
    try:
        pkg = prob.analyze(S)
        obj = prob.value(pkg)
    except _UNUSABLE as exc:
        raise InvalidStartPoint(str(exc)) from exc
    for it in range(cfg.max_iter + 1):
        G = gradient(prob, S, pkg)
        gnorm = float(np.linalg.norm(G))
        trace.iterations.append((it, obj, gnorm, prob.residual_norm(pkg)))
        if gnorm <= cfg.grad_tol:
            trace.converged = True
            trace.reason = "gradient_tolerance"
            break
        if cfg.objective_tol > 0 and obj <= cfg.objective_tol:
            trace.converged = True
            trace.reason = "objective_tolerance"
            break
        if it == cfg.max_iter:
            trace.reason = "max_iterations"
            break
        # Armijo backtracking along -G
        step = INITIAL_STEP
        g2 = gnorm**2
        accepted = False
        while step * gnorm > 1e-16:
            cand = _project(S - step * G, cfg.det_normalized)
            # a long trial step can leave the numerically valid cone: the
            # chart overflows, H stops being positive definite in floats or
            # its frame change becomes numerically singular
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    cand_pkg = prob.analyze(cand)
                    cand_obj = prob.value(cand_pkg)
            except _UNUSABLE:
                step *= SHRINK
                continue
            if cand_obj < obj and cand_obj <= obj - SUFFICIENT_DECREASE * step * g2:
                S, obj, pkg = cand, cand_obj, cand_pkg
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            # below the floor the attainable decrease, about step * |G|^2, is
            # lost in the rounding of the objective: no trial can be accepted
            if g2 <= PRECISION_FLOOR * np.finfo(float).eps * max(1.0, abs(obj)):
                trace.converged = True
                trace.reason = "precision_limit"
            else:
                trace.reason = "stagnated"
            break
    trace.H_star = prob.metric(S)
    trace.pkg_star = pkg
    return trace
