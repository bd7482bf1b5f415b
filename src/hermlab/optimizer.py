"""Descent over the cone of invariant Hermitian metrics.

The cone is parametrized through the chart H(S) = H0^(1/2) exp(S) H0^(1/2)
with S Hermitian, which is positive definite for every S and reduces to the
anchor metric at S = 0; :meth:`_Problem.metric` is the chart.  Gradients are
central finite differences of step ``FD_STEP`` over an orthonormal real basis
of Hermitian matrices.  The descent is steepest descent with Armijo
backtracking: each line search starts at ``INITIAL_STEP``, multiplies the
step by ``SHRINK`` after a rejected trial and accepts a trial that lowers the
objective by at least ``SUFFICIENT_DECREASE * step * |G|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from . import tensor_algebra as ta
from . import torsion_engine as te
from .errors import InvalidStartPoint, NotPositiveDefinite, NumericalFailure
from .lie_hermitian import HermitianStructure

OBJECTIVES = ("torsion_functional", "gauduchon_functional", "residual_norm")

FD_STEP = 1e-5
INITIAL_STEP = 1.0
SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4


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
    """Orthonormal basis of Hermitian n x n matrices under Re tr(X Y)."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = s
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j * s
            e[j, i] = -1j * s
            basis.append(e)
    return basis


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


def gradient(prob, S):
    """FD gradient of the objective of ``prob`` (a :class:`_Problem`) at S.

    Returns the Riesz representative G: for every Hermitian K,
    d/dt objective(S + t K) at 0 equals Re tr(K @ G).
    """
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
    positive definite in floating point, non-positive determinant,
    non-finite objective) counts as a rejected trial and the step shrinks.
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
    except (NotPositiveDefinite, NumericalFailure) as exc:
        raise InvalidStartPoint(str(exc)) from exc
    for it in range(cfg.max_iter + 1):
        G = gradient(prob, S)
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
            # chart overflows or H stops being positive definite in floats
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    cand_pkg = prob.analyze(cand)
                    cand_obj = prob.value(cand_pkg)
            except (NotPositiveDefinite, NumericalFailure):
                step *= SHRINK
                continue
            if cand_obj <= obj - SUFFICIENT_DECREASE * step * g2:
                S, obj, pkg = cand, cand_obj, cand_pkg
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            trace.reason = "stagnated"
            break
    trace.H_star = prob.metric(S)
    trace.pkg_star = pkg
    return trace
