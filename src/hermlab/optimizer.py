"""Descent over the cone of invariant Hermitian metrics.

The cone is parametrized through the chart H(S) = R exp(S) R with
R = H0^(1/2) and S Hermitian, which is positive definite for every S and
reduces to the anchor metric at S = 0; :meth:`_Problem.metric` is the chart.
Every objective is unchanged under H -> cH, that is under S -> S + tI, so
its chart gradient is trace-free and a descent keeps det H = det H0 exp(tr S0).
Only the caller's S0 and the Daleckii-Krein product that ends the gradient
are made Hermitian, by :func:`_project`.  Every other chart matrix is a real
linear combination of exactly Hermitian matrices; floating point rounds an
entry and its conjugate alike, so it is exactly Hermitian and (X + X^H) / 2
would return it bit for bit.

For the torsion and Gauduchon functionals :func:`gradient` is analytic and
needs no further analysis: the first variation V^(1/n) Re tr(h_u @ -Q) of
:func:`functionals.first_variation`, Q the functional's residual, is pulled
back through the chart with the Daleckii-Krein divided differences of exp
(Higham, *Functions of Matrices*, 2008, ch. 3).  ``residual_norm`` is |G_F|^2 = Re tr(G_F G_F),
the squared chart gradient of the torsion functional: it vanishes exactly
at the critical points of F and, like F, is invariant under S -> S + tI.
Its gradient is 2 Hess_F G_F, where the Hessian product is one central
difference of the analytic gradient of F of step ``FD_STEP`` along
G_F / |G_F| (Pearlmutter, *Fast exact multiplication by the Hessian*,
Neural Comput. 1994): two analyses per gradient.

The descent is L-BFGS in the chart (Nocedal and Wright, *Numerical
Optimization*, 2006, ch. 7) under the inner product Re tr(X Y): the two-loop
recursion over the last ``MEMORY`` pairs (s, y) of chart steps and gradient
changes, a pair being kept only when <s, y> > 0, gives the direction d.
Each line search is Armijo backtracking along d: it starts at
``INITIAL_STEP``, multiplies the step by ``SHRINK`` after a rejected trial
and accepts a trial that lowers the objective strictly and by at least
``SUFFICIENT_DECREASE * step * |<G, d>|``.  It gives up once the decrease it
predicts, step * |<G, d>|, is below the rounding of the objective,
eps * max(1, |f|).  With an empty memory d = -G; otherwise, when d is not a
descent direction or its search fails, the memory is cleared and one search
runs along -G.  Near a critical point the decrease falls below the
rounding: a descent whose last search fails while the decrement
min(|G|^2, -<G, d>) (|G|^2 when <G, d> >= 0) is at most
``PRECISION_FLOOR * eps * max(1, |f|)`` ends as converged with reason
``precision_limit``, any other with reason ``stagnated``.

:func:`minimize` returns the descent as the report's ``optimization`` block,
with the analysis of its final metric beside it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from . import tensor_algebra as ta
from . import torsion_engine as te
from .errors import InvalidStartPoint, NotPositiveDefinite, NumericalFailure, SingularFrame
from .lie_hermitian import HermitianStructure, require_unimodular

OBJECTIVES = (*fn.FUNCTIONALS, "residual_norm")

FD_STEP = 1e-5
INITIAL_STEP = 1.0
SHRINK = 0.5
MEMORY = 8  # (s, y) pairs the L-BFGS recursion keeps
SUFFICIENT_DECREASE = 1e-4
PRECISION_FLOOR = 64.0

# a metric the analysis cannot use: a trial step with one is rejected
_UNUSABLE = (NotPositiveDefinite, NumericalFailure, SingularFrame)


@dataclass(frozen=True)
class OptimConfig:
    objective: str = "torsion_functional"
    max_iter: int = 200
    grad_tol: float = 1e-8
    objective_tol: float = 0.0  # extra stop: objective at or below this value

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 0:  # the start is always a trace row
            raise ValueError("max_iter must be non-negative")


def _project(S):
    """The Hermitian part (S + S^H) / 2 of S."""
    return (S + S.conj().T) / 2


class _Problem:
    """The objective of a descent from ``hs0`` as a function of the chart S."""

    def __init__(self, hs0, cfg):
        require_unimodular(hs0.sc)  # else the gradient is no first variation
        self.sc = hs0.sc
        ta.cholesky(hs0.H)  # the anchor metric must be positive definite
        vals, vecs = np.linalg.eigh(np.asarray(hs0.H, dtype=complex))
        self.root = (vecs * np.sqrt(vals)) @ vecs.conj().T  # H0^(1/2)
        self.cfg = cfg
        # the value and residual of the functional whose analytic gradient
        # the objective reads
        self.value_of, self.residual_of = fn.FUNCTIONALS[
            "torsion_functional" if cfg.objective == "residual_norm" else cfg.objective]

    def metric(self, S):
        """H(S) = H0^(1/2) exp(S) H0^(1/2), always positive definite."""
        vals, vecs = np.linalg.eigh(S)
        return self.root @ ((vecs * np.exp(vals)) @ vecs.conj().T) @ self.root

    def analyze(self, S):
        """The analysis of H(S).  A step can leave the numerically valid
        cone: the chart overflows, H stops being positive definite in floats
        or cond(H) passes the limit of the frame change to its unitary frame.
        Each raises one of ``_UNUSABLE``, not also a floating-point warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            H = self.metric(S)
            if not np.isfinite(H).all():
                raise NumericalFailure("metric overflowed in the exponential chart")
            return te.analyze(HermitianStructure(self.sc, H))

    def value(self, S, pkg):
        """The objective at S, whose metric has the analysis ``pkg``: a
        non-finite one raises NumericalFailure, not also a warning."""
        if pkg.volume <= 0:
            raise NumericalFailure("metric has non-positive determinant")
        with np.errstate(over="ignore", invalid="ignore"):
            if self.cfg.objective == "residual_norm":
                G = _functional_gradient(self, S, pkg)
                val = _inner(G, G)
            else:
                val = self.value_of(pkg)
        if not np.isfinite(val):
            raise NumericalFailure("objective evaluated to a non-finite value")
        return val

    def residual_norm(self, pkg):
        _, norm = self.residual_of(pkg)
        return norm


def gradient(prob, S, pkg):
    """Gradient of the objective of ``prob`` (a :class:`_Problem`) at S.

    ``pkg`` is the analysis of the metric H(S).  Returns the Riesz
    representative G: for every Hermitian K, d/dt objective(S + t K) at 0
    equals Re tr(K @ G).
    """
    G = _functional_gradient(prob, S, pkg)
    if prob.cfg.objective != "residual_norm" or not G.any():
        return G
    norm = float(np.linalg.norm(G))
    # d/dt |G(S + tK)|^2 = 2 Re tr(K Hess G), the Hessian being symmetric;
    # Hess G = |G| Hess v, the central difference of G along v = G / |G|
    v = G / norm
    plus, minus = S + FD_STEP * v, S - FD_STEP * v
    hess_v = (_functional_gradient(prob, plus, prob.analyze(plus))
              - _functional_gradient(prob, minus, prob.analyze(minus))) / (2 * FD_STEP)
    return 2 * norm * hess_v


def _functional_gradient(prob, S, pkg):
    """Analytic chart gradient at S of the functional of ``prob``, from the
    analysis ``pkg`` of H(S)."""
    # dH = R dexp_S(K) R and dF(dH) = Re tr(dH X) with X = conj(P) M P^T,
    # M = V^(1/n) (-Q) the unitary-frame Riesz matrix; so dF = Re tr(dexp_S(K) Y)
    Q, _ = prob.residual_of(pkg)
    M = pkg.volume ** (1.0 / pkg.n) * -Q
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
    return _project(U @ (Gam * (U.conj().T @ Y @ U)) @ U.conj().T)


def _inner(X, Y):
    """Re tr(X Y) for Hermitian X, Y."""
    return float(np.vdot(X, Y).real)


def _lbfgs_direction(G, memory):
    """-H G for the L-BFGS inverse Hessian H of the pairs (s, y) in ``memory``.

    The two-loop recursion, oldest pair first in ``memory``, with the initial
    inverse Hessian <s, y> / <y, y> of the newest pair; -G when it is empty.
    """
    q = G
    alphas = []
    for s, y in reversed(memory):
        a = _inner(s, q) / _inner(s, y)
        q = q - a * y
        alphas.append(a)
    if memory:
        s, y = memory[-1]
        q = (_inner(s, y) / _inner(y, y)) * q
    for (s, y), a in zip(memory, reversed(alphas)):
        q = q + (a - _inner(y, q) / _inner(s, y)) * s
    return -q


def _line_search(prob, S, obj, d, slope):
    """Armijo backtracking from S along d, where slope = <G, d> < 0.

    Returns (S, objective, analysis) at the accepted trial, or None once the
    predicted decrease -step * slope is below the rounding of the objective.
    A trial whose metric cannot be analyzed counts as rejected.
    """
    floor = np.finfo(float).eps * max(1.0, abs(obj))
    step = INITIAL_STEP
    while -step * slope >= floor:
        cand = S + step * d
        try:
            cand_pkg = prob.analyze(cand)
            cand_obj = prob.value(cand, cand_pkg)
        except _UNUSABLE:
            step *= SHRINK
            continue
        if cand_obj < obj and cand_obj <= obj + SUFFICIENT_DECREASE * step * slope:
            return cand, cand_obj, cand_pkg
        step *= SHRINK
    return None


def minimize(hs0, cfg, S0=None):
    """L-BFGS with Armijo backtracking in the S-chart.

    Returns ``(block, pkg_star)``: ``block`` is the report's ``optimization``
    block without the CLI's ``seed``, and ``pkg_star`` the analysis of its
    final metric ``H_star``.  The block holds ``objective``, ``converged``,
    ``reason``, ``iterations`` (accepted steps), ``H_star`` and ``trace``:
    one row ``{"iteration", "objective", "gradient_norm", "residual_norm"}``
    per iterate, the start included and the final metric last,
    ``residual_norm`` being |Q| of the functional the objective reads.

    A trial step whose metric cannot be analyzed (overflowing chart, not
    positive definite in floating point, cond(H) past ``_COND_LIMIT``,
    non-positive determinant, non-finite objective) counts as a rejected
    trial and the step shrinks.
    A structure that is not unimodular raises ``NotUnimodular``, a start
    point that cannot be analyzed :class:`InvalidStartPoint`; a failure in a
    gradient raises as it is.
    """
    prob = _Problem(hs0, cfg)
    n = hs0.n
    S = np.zeros((n, n), dtype=complex) if S0 is None else _project(np.asarray(S0, dtype=complex))
    try:
        pkg = prob.analyze(S)
        obj = prob.value(S, pkg)
    except _UNUSABLE as exc:
        raise InvalidStartPoint(str(exc)) from exc
    trace = []
    converged = False
    memory = deque(maxlen=MEMORY)  # (s, y) pairs, oldest first
    previous = None  # (S, G) before the last accepted step
    for it in range(cfg.max_iter + 1):
        G = gradient(prob, S, pkg)
        gnorm = float(np.linalg.norm(G))
        trace.append({"iteration": it, "objective": obj, "gradient_norm": gnorm,
                      "residual_norm": prob.residual_norm(pkg)})
        if gnorm <= cfg.grad_tol:
            converged, reason = True, "gradient_tolerance"
            break
        if cfg.objective_tol > 0 and obj <= cfg.objective_tol:
            converged, reason = True, "objective_tolerance"
            break
        if it == cfg.max_iter:
            reason = "max_iterations"
            break
        if previous is not None:
            s, y = S - previous[0], G - previous[1]
            if _inner(s, y) > 0:
                memory.append((s, y))
        g2 = gnorm**2
        d = _lbfgs_direction(G, memory)
        slope = _inner(G, d)
        decrement = min(g2, -slope) if slope < 0 else g2
        found = _line_search(prob, S, obj, d, slope) if slope < 0 else None
        if found is None and memory:
            memory.clear()
            found = _line_search(prob, S, obj, -G, -g2)
        if found is None:
            # below the floor the attainable decrease, about the decrement,
            # is lost in the rounding of the objective: no trial is accepted
            if decrement <= PRECISION_FLOOR * np.finfo(float).eps * max(1.0, abs(obj)):
                converged, reason = True, "precision_limit"
            else:
                reason = "stagnated"
            break
        previous = (S, G)
        S, obj, pkg = found
    block = {
        "objective": cfg.objective,
        "converged": converged,
        "reason": reason,
        "iterations": len(trace) - 1,
        "H_star": prob.metric(S),
        "trace": trace,
    }
    return block, pkg
