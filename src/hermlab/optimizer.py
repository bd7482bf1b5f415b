"""Descent over the cone of invariant Hermitian metrics.

The cone is parametrized through the chart H(S) = R exp(S) R with
R = H0^(1/2) and S Hermitian, which is positive definite for every S and
reduces to the anchor metric at S = 0.  :meth:`_Problem.point` evaluates a
chart point once: one eigendecomposition of S builds H(S) and the divided
differences of the gradient, and one analysis of H(S) gives the objective.
The functional's residual is computed from that analysis when the descent
first reads it from the :class:`_Point`, for the trace row and the gradient
of an accepted point; a rejected line-search trial never computes it.
Every objective is unchanged under H -> cH, that is under S -> S + tI, so
its chart gradient is trace-free and a descent keeps det H = det H0 exp(tr S0).
Only the caller's S0 and the Daleckii-Krein product that ends the gradient
are made Hermitian, by :func:`_project`.  Every other chart matrix is a real
linear combination of exactly Hermitian matrices; floating point rounds an
entry and its conjugate alike, so it is exactly Hermitian and (X + X^H) / 2
would return it bit for bit.

The gradient is analytic and needs no further analysis: the first variation
V^(1/n) Re tr(h_u @ -Q) of :func:`functionals.first_variation`, Q the
functional's residual, is pulled back through the chart with the
Daleckii-Krein divided differences of exp (Higham, *Functions of
Matrices*, 2008, ch. 3).

The descent is L-BFGS in the chart (Nocedal and Wright, *Numerical
Optimization*, 2006, ch. 7) under the inner product Re tr(X Y): the two-loop
recursion over the last ``MEMORY`` pairs (s, y) of chart steps and gradient
changes, a pair being kept only when <s, y> > 0, gives the direction d.
Each line search is Armijo backtracking along d: it starts at
``INITIAL_STEP`` and accepts a trial that lowers the objective strictly and
by at least ``SUFFICIENT_DECREASE * step * |<G, d>|``.  After a rejected
trial the next step is the minimiser of the quadratic through the
objective, its slope <G, d> and the trial's objective, clamped to
``MIN_SHRINK`` to ``SHRINK`` times the rejected step; it is ``SHRINK`` times
that step when the trial could not be analyzed or the quadratic is not
convex (Nocedal and Wright, 2006, sec. 3.5).  It gives up once the decrease it
predicts, step * |<G, d>|, is below the rounding of the objective,
eps * max(1, |f|).  With an empty memory d = -G; otherwise, when d is not a
descent direction or its search fails, the memory is cleared and one search
runs along -G.  Near a critical point the decrease falls below the
rounding: a descent whose last search fails while the decrement
min(|G|^2, -<G, d>) (|G|^2 when <G, d> >= 0) is at most
``PRECISION_FLOOR * eps * max(1, |f|)`` ends as converged with reason
``precision_limit``, the one converged stop (a gradient below 1e-8 puts
|G|^2 below eps, so below the floor), any other with reason ``stagnated``.

:func:`minimize` returns the descent as the report's ``optimization`` block,
with the analysis of its final metric beside it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import functionals as fn
from . import tensor_algebra as ta
from . import torsion_engine as te
from .errors import InvalidStartPoint, NotPositiveDefinite, NumericalFailure, SingularFrame
from .lie_hermitian import HermitianStructure, require_unimodular

OBJECTIVES = tuple(fn.FUNCTIONALS)

INITIAL_STEP = 1.0
SHRINK = 0.5
# a backtrack cuts the step by at most this factor: a trial far past the
# minimiser fits its quadratic poorly, and one fit must not shrink the step by
# orders of magnitude (Dennis and Schnabel, *Numerical Methods for
# Unconstrained Optimization*, 1983, sec. 6.3.2)
MIN_SHRINK = 0.1
MEMORY = 8  # (s, y) pairs the L-BFGS recursion keeps
SUFFICIENT_DECREASE = 1e-4
PRECISION_FLOOR = 64.0

# a metric the analysis cannot use: a trial step with one is rejected
_UNUSABLE = (NotPositiveDefinite, NumericalFailure, SingularFrame)


@dataclass(frozen=True)
class OptimConfig:
    objective: str = "torsion_functional"
    max_iter: int = 200

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)) \
                or self.max_iter < 0:  # the start is always a trace row
            raise ValueError("max_iter must be a non-negative integer")


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
        self.value_of, self.residual_of = fn.FUNCTIONALS[cfg.objective]

    def point(self, S):
        """The :class:`_Point` at S, its metric H(S) = H0^(1/2) exp(S) H0^(1/2)
        always positive definite, with its objective evaluated.  A step can
        leave the numerically valid cone: the chart overflows, H stops being
        positive definite in floats, cond(H) passes the limit of the frame
        change to its unitary frame, det H is not positive or the objective is
        not finite.  Each raises one of ``_UNUSABLE``, not also a
        floating-point warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            lam, U = np.linalg.eigh(S)
            H = self.root @ ((U * np.exp(lam)) @ U.conj().T) @ self.root
            if not np.isfinite(H).all():
                raise NumericalFailure("metric overflowed in the exponential chart")
            pkg = te.analyze(HermitianStructure(self.sc, H))
            if pkg.volume <= 0:
                raise NumericalFailure("metric has non-positive determinant")
            value = self.value_of(pkg)
        if not np.isfinite(value):
            raise NumericalFailure("objective evaluated to a non-finite value")
        return _Point(self, S, lam, U, H, pkg, value)


@dataclass(frozen=True)
class _Point:
    """A chart point S of ``prob`` evaluated once: the eigenpairs ``lam``,
    ``U`` of S, its metric H = H(S), the analysis ``pkg`` of H and the
    objective ``value``.  The functional's residual Q and its norm
    ``norm_Q`` are computed when a trace row or :func:`gradient` first reads
    them and kept, so a rejected line-search trial costs its
    eigendecomposition and its analysis only."""

    prob: _Problem
    S: np.ndarray
    lam: np.ndarray
    U: np.ndarray
    H: np.ndarray
    pkg: te.TorsionPackage
    value: float

    @cached_property
    def _residual(self):
        """``(Q, norm_Q)``, read once."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.prob.residual_of(self.pkg)

    @property
    def norm_Q(self):
        return self._residual[1]


def gradient(prob, pt):
    """Gradient of the objective of ``prob`` (a :class:`_Problem`) at its
    :class:`_Point` ``pt``: the Riesz representative G, for every Hermitian K
    d/dt objective(S + t K) at 0 equals Re tr(K @ G).
    """
    pkg, lam, U, root = pt.pkg, pt.lam, pt.U, prob.root
    with np.errstate(over="ignore", invalid="ignore"):
        # dH = R dexp_S(K) R and dF(dH) = Re tr(dH X), X = conj(P) M P^T with
        # M = V^(1/n) (-Q) the unitary-frame Riesz matrix: dF = Re tr(dexp_S(K) Y)
        M = pkg.volume ** (1.0 / pkg.n) * -pt._residual[0]
        Y = root @ (pkg.P.conj() @ M @ pkg.P.T) @ root
        # Daleckii-Krein, on the eigenpairs that built H: dexp_S(K) =
        # U (Gam o U^H K U) U^H, Gam_ij = (e^lam_i - e^lam_j) / (lam_i - lam_j)
        # written as e^max(lam_i, lam_j) (1 - e^-d) / d, d = |lam_i - lam_j|,
        # so that equal and nearly equal eigenvalues lose no digits (Gam_ii =
        # e^lam_i).  Gam is real symmetric: the pull-back of Y has this form.
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


def _backtrack(step, obj, slope, cand_obj=None):
    """The step after a trial at ``step`` is rejected.

    The minimiser of the quadratic q with q(0) = obj, q'(0) = slope and
    q(step) = ``cand_obj``, clamped to ``MIN_SHRINK`` to ``SHRINK`` times
    ``step``; ``SHRINK * step`` when q is not convex or the trial could not
    be analyzed (``cand_obj`` None).
    """
    if cand_obj is None:
        return SHRINK * step
    curvature = cand_obj - obj - slope * step  # q(step) less its linear part
    if curvature <= 0:
        return SHRINK * step
    return step * min(SHRINK, max(MIN_SHRINK, -slope * step / (2 * curvature)))


def _line_search(prob, pt, d, slope):
    """Armijo backtracking from the point ``pt`` along d, where
    slope = <G, d> < 0.

    Returns the accepted trial's :class:`_Point`, or None once the predicted
    decrease -step * slope is below the rounding of the objective.  A trial
    whose metric cannot be analyzed counts as rejected.
    """
    obj = pt.value
    floor = np.finfo(float).eps * max(1.0, abs(obj))
    step = INITIAL_STEP
    while -step * slope >= floor:
        try:
            cand = prob.point(pt.S + step * d)
        except _UNUSABLE:
            step = _backtrack(step, obj, slope)
            continue
        if cand.value < obj and cand.value <= obj + SUFFICIENT_DECREASE * step * slope:
            return cand
        step = _backtrack(step, obj, slope, cand.value)
    return None


def minimize(hs0, cfg, S0=None):
    """L-BFGS with Armijo backtracking in the S-chart.

    Returns ``(block, pkg_star)``: ``block`` is the report's ``optimization``
    block without the CLI's ``seed``, and ``pkg_star`` the analysis of its
    final metric ``H_star``.  The block holds ``objective``, ``converged``,
    ``reason`` (``precision_limit``, ``max_iterations`` or ``stagnated``),
    ``iterations`` (accepted steps), ``H_star`` and ``trace``:
    one row ``{"iteration", "objective", "gradient_norm", "residual_norm"}``
    per iterate, the start included and the final metric last,
    ``residual_norm`` being the norm |Q| of the objective's residual.
    Each iterate is evaluated once, as the :class:`_Point` its line search
    accepted: its trace row, its gradient and ``H_star`` read that record.

    A trial step whose metric cannot be analyzed (overflowing chart, not
    positive definite in floating point, cond(H) past ``_COND_LIMIT``,
    non-positive determinant, non-finite objective) counts as a rejected
    trial and the step shrinks by ``SHRINK``.
    A structure that is not unimodular raises ``NotUnimodular``, a start
    point that cannot be analyzed :class:`InvalidStartPoint`; a failure in a
    gradient raises as it is.
    """
    prob = _Problem(hs0, cfg)
    n = hs0.n
    S = np.zeros((n, n), dtype=complex) if S0 is None else _project(np.asarray(S0, dtype=complex))
    try:
        pt = prob.point(S)
    except _UNUSABLE as exc:
        raise InvalidStartPoint(str(exc)) from exc
    trace = []
    converged = False
    memory = deque(maxlen=MEMORY)  # (s, y) pairs, oldest first
    previous = None  # (S, G) before the last accepted step
    for it in range(cfg.max_iter + 1):
        G = gradient(prob, pt)
        gnorm = float(np.linalg.norm(G))
        trace.append({"iteration": it, "objective": pt.value, "gradient_norm": gnorm,
                      "residual_norm": pt.norm_Q})
        if it == cfg.max_iter:
            reason = "max_iterations"
            break
        if previous is not None:
            s, y = pt.S - previous[0], G - previous[1]
            if _inner(s, y) > 0:
                memory.append((s, y))
        g2 = gnorm**2
        d = _lbfgs_direction(G, memory)
        slope = _inner(G, d)
        decrement = min(g2, -slope) if slope < 0 else g2
        found = _line_search(prob, pt, d, slope) if slope < 0 else None
        if found is None and memory:
            memory.clear()
            found = _line_search(prob, pt, -G, -g2)
        if found is None:
            # below the floor the attainable decrease, about the decrement,
            # is lost in the rounding of the objective: no trial is accepted
            if decrement <= PRECISION_FLOOR * np.finfo(float).eps * max(1.0, abs(pt.value)):
                converged, reason = True, "precision_limit"
            else:
                reason = "stagnated"
            break
        previous = (pt.S, G)
        pt = found
    block = {
        "objective": cfg.objective,
        "converged": converged,
        "reason": reason,
        "iterations": len(trace) - 1,
        "H_star": pt.H,
        "trace": trace,
    }
    return block, pt.pkg
