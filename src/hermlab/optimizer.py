"""Descent over the cone of invariant Hermitian metrics.

The cone is parametrized through the chart H(S) = H0^(1/2) exp(S) H0^(1/2)
with S Hermitian, which is positive definite for every S and reduces to the
anchor metric at S = 0.  Gradients are central finite differences over an
orthonormal real basis of Hermitian matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from . import torsion_engine as te
from .errors import NotPositiveDefinite, NumericalFailure
from .lie_hermitian import HermitianStructure

OBJECTIVES = ("torsion_functional", "gauduchon_functional", "residual_norm")


@dataclass(frozen=True)
class OptimConfig:
    objective: str = "torsion_functional"
    max_iter: int = 200
    grad_tol: float = 1e-8
    fd_step: float = 1e-5
    initial_step: float = 1.0
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    det_normalized: bool = False
    objective_tol: float = 0.0  # extra stop: objective at or below this value

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.fd_step <= 0 or self.grad_tol <= 0:
            raise ValueError("fd_step and grad_tol must be positive")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink factor must lie in (0, 1)")


@dataclass
class OptimTrace:
    iterations: list = field(default_factory=list)  # (it, obj, gnorm, qnorm)
    H_star: np.ndarray | None = None
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


def _herm_expm(S):
    vals, vecs = np.linalg.eigh(S)
    return (vecs * np.exp(vals)) @ vecs.conj().T


def _sqrtm_hpd(H):
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _project(S, det_normalized):
    S = (S + S.conj().T) / 2
    if det_normalized:
        n = S.shape[0]
        S = S - (np.trace(S) / n) * np.eye(n)
    return S


def parametrize(S, H0=None, det_normalized=False):
    """H(S) = H0^(1/2) exp(S) H0^(1/2), always positive definite.

    With ``det_normalized`` the chart parameter is projected to trace zero
    first, so det H(S) = det H0 (since det exp(S) = exp(tr S)).
    """
    S = _project(np.asarray(S, dtype=complex), det_normalized)
    if H0 is None:
        return _herm_expm(S)
    root = _sqrtm_hpd(np.asarray(H0, dtype=complex))
    return root @ _herm_expm(S) @ root


class _Problem:
    def __init__(self, hs0, cfg):
        self.sc = hs0.sc
        self.H0 = np.asarray(hs0.H, dtype=complex)
        self.root = _sqrtm_hpd(self.H0)
        self.cfg = cfg

    def metric(self, S):
        S = _project(S, self.cfg.det_normalized)
        return self.root @ _herm_expm(S) @ self.root

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


def gradient(hs0, cfg, S=None):
    """FD gradient of the objective in the S-chart at the given point.

    Returns the Riesz representative G: for every Hermitian K,
    d/dt objective(S + t K) at 0 equals Re tr(K @ G).
    """
    prob = _Problem(hs0, cfg)
    n = hs0.n
    S = np.zeros((n, n), dtype=complex) if S is None else np.asarray(S, dtype=complex)
    step = cfg.fd_step
    G = np.zeros((n, n), dtype=complex)
    for K in hermitian_basis(n):
        d = (prob.objective(S + step * K) - prob.objective(S - step * K)) / (2 * step)
        if not np.isfinite(d):
            raise NumericalFailure("non-finite finite-difference evaluation")
        G += d * K
    return _project(G, cfg.det_normalized)


def minimize(hs0, cfg, S0=None):
    """Gradient descent with Armijo backtracking in the S-chart.

    A trial step whose metric cannot be analyzed (overflowing chart, not
    positive definite in floating point, non-positive determinant,
    non-finite objective) counts as a rejected trial and the step shrinks;
    failures at the start point or in a gradient still raise.
    """
    prob = _Problem(hs0, cfg)
    n = hs0.n
    S = np.zeros((n, n), dtype=complex) if S0 is None else _project(
        np.asarray(S0, dtype=complex), cfg.det_normalized
    )
    trace = OptimTrace()
    pkg = prob.analyze(S)
    obj = prob.value(pkg)
    for it in range(cfg.max_iter + 1):
        G = gradient(hs0, cfg, S)
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
        step = cfg.initial_step
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
                step *= cfg.shrink
                continue
            if cand_obj <= obj - cfg.sufficient_decrease * step * g2:
                S, obj, pkg = cand, cand_obj, cand_pkg
                accepted = True
                break
            step *= cfg.shrink
        if not accepted:
            trace.reason = "stagnated"
            break
    trace.H_star = prob.metric(S)
    return trace
