"""Descent over the metric cone: chart, gradients, minimization."""

import dataclasses
from collections import Counter, deque
from types import SimpleNamespace

import numpy as np
import pytest

import hermlab.cli as cli
import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.optimizer as op
import hermlab.torsion_engine as te
from hermlab.errors import InvalidStartPoint, NotUnimodular, NumericalFailure, SingularFrame

import oracles
from conftest import (OVERFLOWING_FRAME_DOC, random_hermitian, random_hpd, random_structure,
                      random_two_step_structure, random_unitary)


# ---------------------------------------------------------------------------
# chart and basis


def test_hermitian_basis_orthonormal():
    for n in (2, 3):
        basis = oracles.hermitian_basis(n)
        assert len(basis) == n * n
        for a, Ka in enumerate(basis):
            assert np.abs(Ka - Ka.conj().T).max() <= 1e-15
            for b, Kb in enumerate(basis):
                ip = np.trace(Ka @ Kb).real
                assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-14)


def _chart(S, H0=None):
    """H(S) through the descent's chart anchored at H0 (default: identity)."""
    n = np.shape(S)[0]
    H0 = np.eye(n) if H0 is None else H0
    hs = lh.HermitianStructure(lh.StructureConstants.zero(n), H0)
    return op._Problem(hs, op.OptimConfig()).point(S).H


def _gradient(hs, cfg, S=None):
    S = np.zeros((hs.n, hs.n), dtype=complex) if S is None else S
    prob = op._Problem(hs, cfg)
    return op.gradient(prob, prob.point(S))


def test_parametrize_at_origin(rng):
    H0 = random_hpd(rng, 3)
    assert np.abs(_chart(np.zeros((3, 3)), H0) - H0).max() <= 1e-12


def test_parametrize_diagonal():
    H = _chart(np.diag([np.log(2.0), 0.0]))
    assert np.abs(H - np.diag([2.0, 1.0])).max() <= 1e-12


def test_parametrize_always_positive_definite(rng):
    for _ in range(20):
        S = 3.0 * random_hermitian(rng, 3)
        H = _chart(S, random_hpd(rng, 3))
        assert np.linalg.eigvalsh(H).min() > 0


def test_config_validation():
    with pytest.raises(ValueError):
        op.OptimConfig(objective="nope")
    with pytest.raises(ValueError):
        op.OptimConfig(max_iter=-1)
    # range() takes no fractional max_iter
    for bad in ({"max_iter": 2.5}, {"max_iter": 2.0}, {"max_iter": True}, {"max_iter": "3"}):
        with pytest.raises(ValueError):
            op.OptimConfig(**bad)
    assert op.OptimConfig(max_iter=np.int64(3)).max_iter == 3
    # no tolerance: a descent converges only through precision_limit
    assert [f.name for f in dataclasses.fields(op.OptimConfig)] == ["objective", "max_iter"]
    # a descent minimizes F or G; |G_F|^2 is no objective, as its descent
    # found no critical metric that the descent of F misses
    assert op.OBJECTIVES == ("torsion_functional", "gauduchon_functional")
    with pytest.raises(ValueError, match="unknown objective 'residual_norm'"):
        op.OptimConfig(objective="residual_norm")


# ---------------------------------------------------------------------------
# gradients


def test_gradient_zero_for_abelian():
    hs = lh.catalog("abelian-3")
    G = _gradient(hs, op.OptimConfig())
    assert np.abs(G).max() <= 1e-10


def test_gradient_zero_at_critical_point():
    hs = lh.catalog("so3c")
    G = _gradient(hs, op.OptimConfig())
    assert np.linalg.norm(G) <= 1e-6


def test_gradient_nonzero_off_critical():
    hs = lh.catalog("iwasawa")
    G = _gradient(hs, op.OptimConfig())
    assert np.linalg.norm(G) > 0.1


def _gradient_cases(rng, two_step=0):
    """(problem, S) over every objective and random anchors.

    S is zero, random, or has a repeated eigenvalue, and exactly Hermitian,
    as every S a descent analyzes is.  so3c, iwasawa and sokc-4 have eta = 0
    for every metric, so G vanishes there; the n = 2 random structures and
    kodaira-thurston carry the nonzero G cases.  ``two_step`` structures with
    C != 0 and D != 0 (n = 3, 4) follow.
    """
    structures = [lh.catalog(name).sc for name in ("so3c", "iwasawa", "kodaira-thurston", "sokc-4")]
    structures += [random_structure(rng, 2) for _ in range(5)]
    structures += [random_two_step_structure(rng, 3 + k % 2, 2) for k in range(two_step)]
    for sc in structures:
        n = sc.n
        hs = lh.HermitianStructure(sc, random_hpd(rng, n))
        lam = rng.standard_normal(n)
        lam[1] = lam[0]
        U = random_unitary(rng, n)
        repeated = op._project(0.5 * (U * lam) @ U.conj().T)
        for objective in op.OBJECTIVES:
            prob = op._Problem(hs, op.OptimConfig(objective=objective))
            for S in (np.zeros((n, n), dtype=complex), 0.3 * random_hermitian(rng, n), repeated):
                yield prob, S


def _rel(G, ref):
    return np.linalg.norm(G - ref) / max(np.linalg.norm(ref), 1.0)


def test_gradient_matches_analytic(rng):
    # the Daleckii-Krein gradient against scipy's Frechet derivative of exp
    nonzero = {"torsion_functional": 0, "gauduchon_functional": 0}
    for prob, S in _gradient_cases(rng):
        G = op.gradient(prob, prob.point(S))
        ref = oracles.analytic_gradient(prob, S)
        assert _rel(G, ref) <= 1e-9, (prob.cfg, S)
        nonzero[prob.cfg.objective] += np.linalg.norm(ref) > 1.0
    assert min(nonzero.values()) >= 15, nonzero


def test_gradient_matches_finite_differences(rng):
    # every objective against central differences over the whole Hermitian
    # basis, two-step structures with C != 0 and D != 0 included
    nonzero = Counter()
    for prob, S in _gradient_cases(rng, two_step=5):
        G = op.gradient(prob, prob.point(S))
        ref = oracles.fd_gradient(prob, S)
        assert _rel(G, ref) <= 1e-6, (prob.cfg, S)
        nonzero[prob.cfg.objective] += np.linalg.norm(ref) > 1.0
    assert min(nonzero[objective] for objective in op.OBJECTIVES) >= 15, nonzero


def test_gradient_makes_no_analysis(rng, monkeypatch):
    # the gradient reads the point's analysis and analyzes nothing itself
    hs = lh.HermitianStructure(lh.catalog("kodaira-thurston").sc, random_hpd(rng, 2))
    S = 0.3 * random_hermitian(rng, 2)
    calls = []
    analyze = te.analyze
    monkeypatch.setattr(te, "analyze", lambda hs: calls.append(1) or analyze(hs))
    for objective in op.OBJECTIVES:
        prob = op._Problem(hs, op.OptimConfig(objective=objective))
        pt = prob.point(S)
        calls.clear()
        assert np.linalg.norm(op.gradient(prob, pt)) > 0.1
        assert not calls, objective


def test_chart_gradient_is_trace_free(rng):
    # every objective is invariant under S -> S + tI, so <I, G> = tr G = 0
    checked = Counter()
    for name in ("so3c", "iwasawa", "kodaira-thurston", "sokc-4"):
        sc = lh.catalog(name).sc
        for _ in range(10):
            hs = lh.HermitianStructure(sc, random_hpd(rng, sc.n))
            S = 0.3 * random_hermitian(rng, sc.n)
            for objective in op.OBJECTIVES:
                prob = op._Problem(hs, op.OptimConfig(objective=objective))
                G = op.gradient(prob, prob.point(S))
                norm = np.linalg.norm(G)
                if norm > 1e-12:  # G's gradient is rounding noise (1e-31) where eta = 0
                    assert abs(np.trace(G)) <= 1e-12 * norm, (name, objective)
                    checked[objective] += 1
    assert checked == {"torsion_functional": 40, "gauduchon_functional": 10}


def test_functional_calls_reach_the_functionals_module(monkeypatch):
    # objective, residual and gradient evaluations go through
    # functionals.FUNCTIONALS; a wrapper set on the module, like the
    # benchmark's tracer, must see each of them, and a point evaluates each
    # once
    calls = Counter()
    for name in ("torsion_functional", "torsion_critical_residual",
                 "gauduchon_functional", "gauduchon_critical_residual"):
        real = getattr(fn, name)
        monkeypatch.setattr(fn, name, lambda pkg, real=real, name=name:
                            calls.update([name]) or real(pkg))
    hs = lh.catalog("kodaira-thurston")
    S = np.zeros((2, 2), dtype=complex)
    points = []
    for objective in op.OBJECTIVES:
        prob = op._Problem(hs, op.OptimConfig(objective=objective))
        points.append((prob, prob.point(S)))
    # a point evaluates its objective only
    assert calls == {"torsion_functional": 1, "gauduchon_functional": 1}
    for prob, pt in points:
        op.gradient(prob, pt)
        assert pt.norm_Q >= 0
    # a point reads Q once, for its norm and its chart gradient
    assert calls == {"torsion_functional": 1, "torsion_critical_residual": 1,
                     "gauduchon_functional": 1, "gauduchon_critical_residual": 1}


def test_gradient_directional_derivative(rng):
    # the Riesz representative reproduces directional finite differences
    hs = lh.catalog("iwasawa")
    cfg = op.OptimConfig()
    S = 0.2 * random_hermitian(rng, 3)
    prob = op._Problem(hs, cfg)
    G = op.gradient(prob, prob.point(S))
    K = random_hermitian(rng, 3)
    step = 1e-6
    fd = (oracles.objective(prob, S + step * K) - oracles.objective(prob, S - step * K)) / (2 * step)
    assert fd == pytest.approx(np.trace(K @ G).real, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# L-BFGS direction


def _pair_history(rng, n, count):
    """``count`` seeded pairs (s, y) with <s, y> > 0, as minimize keeps them."""
    pairs = []
    while len(pairs) < count:
        s = random_hermitian(rng, n)
        y = s + 0.8 * random_hermitian(rng, n)
        if op._inner(s, y) > 0:
            pairs.append((s, y))
    return pairs


def test_lbfgs_direction_matches_dense_bfgs(rng):
    for n in (2, 3, 4):
        for count in (0, 1, 3, op.MEMORY):
            pairs = _pair_history(rng, n, count)
            G = random_hermitian(rng, n)
            d = op._lbfgs_direction(G, deque(pairs))
            ref = oracles.dense_bfgs_direction(G, pairs)
            assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref), (n, count)
            assert np.abs(d - d.conj().T).max() == 0.0


def _stand_in_point(S, value):
    """A chart point as :func:`op.minimize` and :func:`op._line_search` read
    it: S and its objective, a zero residual norm, no metric or analysis."""
    return SimpleNamespace(S=S, H=None, pkg=None, norm_Q=0.0, value=value)


def test_minimize_keeps_only_positive_curvature_pairs(monkeypatch):
    # a double well in every chart coordinate, f = sum (x^2 - 1)^2, is
    # concave near S = 0: a step taken there gives <s, y> < 0, and that pair
    # must not reach the two-loop recursion
    basis = oracles.hermitian_basis(2)

    def coords(S):
        return np.array([np.vdot(K, S).real for K in basis])

    steps = []  # (S, G) at every gradient
    seen = []  # <s, y> of every pair handed to the recursion

    def gradient(prob, pt):
        G = sum(4 * x * (x * x - 1) * K for x, K in zip(coords(pt.S), basis))
        steps.append((pt.S, G))
        return G

    lbfgs_direction = op._lbfgs_direction

    def direction(G, memory):
        seen.extend(op._inner(s, y) for s, y in memory)
        return lbfgs_direction(G, memory)

    monkeypatch.setattr(op._Problem, "point", lambda self, S: _stand_in_point(
        S, float(np.sum((coords(S) ** 2 - 1) ** 2))))
    monkeypatch.setattr(op, "gradient", gradient)
    monkeypatch.setattr(op, "_lbfgs_direction", direction)
    opt, _ = op.minimize(lh.catalog("kodaira-thurston"), op.OptimConfig(), S0=0.1 * sum(basis))
    assert opt["reason"] == "precision_limit"
    pairs = [op._inner(S1 - S0, G1 - G0) for (S0, G0), (S1, G1) in zip(steps, steps[1:])]
    assert min(pairs) < 0 < max(pairs)
    assert seen and min(seen) > 0



def test_failed_search_restarts_along_minus_gradient(rng, monkeypatch):
    # a quasi-Newton search that accepts nothing clears the memory and is
    # followed by one search along -G, and the descent goes on
    memories = []  # memory length seen by the direction, one per iteration
    searches = []  # (forced failure, d, slope) per line search
    lbfgs_direction, line_search = op._lbfgs_direction, op._line_search

    def direction(G, memory):
        memories.append(len(memory))
        return lbfgs_direction(G, memory)

    def search(prob, pt, d, slope):
        fail = memories[-1] == 3 and not any(f for f, _, _ in searches)
        searches.append((fail, d, slope))
        return None if fail else line_search(prob, pt, d, slope)

    monkeypatch.setattr(op, "_lbfgs_direction", direction)
    monkeypatch.setattr(op, "_line_search", search)
    opt, _ = op.minimize(lh.catalog("iwasawa"), op.OptimConfig(max_iter=12),
                         S0=0.2 * random_hermitian(rng, 3))
    assert opt["reason"] == "max_iterations"
    k = [f for f, _, _ in searches].index(True)
    _, d, slope = searches[k + 1]
    assert slope == pytest.approx(-np.linalg.norm(d) ** 2, rel=1e-12)
    j = memories.index(3)
    assert memories[j + 1] <= 1


class _QuadraticAlongD:
    """A stand-in for ``_Problem`` on the line S = t, d = 1: the objective is
    the exact quadratic obj + slope t + c t^2 with its minimiser at
    ``minimiser``, and a trial beyond ``usable`` cannot be analyzed."""

    def __init__(self, minimiser, obj=1.5, slope=-0.3, usable=np.inf):
        self.obj, self.slope, self.usable = obj, slope, usable
        self.c = -slope / (2 * minimiser)
        self.trials = []

    def search(self):
        start = _stand_in_point(0.0, self.obj)
        return op._line_search(self, start, 1.0, self.slope)

    def point(self, S):
        self.trials.append(S)
        if S > self.usable:
            raise NumericalFailure("trial metric cannot be analyzed")
        return _stand_in_point(S, self.value(S))

    def value(self, S):
        return self.obj + self.slope * S + self.c * S**2


def test_backtrack_lands_on_the_minimiser_of_a_quadratic():
    # a first step 8 times too long: the quadratic through the rejected
    # trial is the objective itself, so the second trial is its minimiser
    prob = _QuadraticAlongD(op.INITIAL_STEP / 8)
    found = prob.search()
    assert prob.trials[0] == op.INITIAL_STEP and len(prob.trials) == 2
    assert abs(found.S - op.INITIAL_STEP / 8) <= 1e-12
    assert found.value == prob.value(found.S) < prob.obj


def test_backtrack_shrinks_by_min_shrink_at_most():
    # a first step 1000 times too long is cut by MIN_SHRINK, not to 1/1000
    prob = _QuadraticAlongD(op.INITIAL_STEP / 1000)
    S = prob.search().S
    assert prob.trials[1] == op.MIN_SHRINK * op.INITIAL_STEP
    assert S <= 2 * op.INITIAL_STEP / 1000


def test_backtrack_halves_after_an_unusable_trial():
    prob = _QuadraticAlongD(0.3 * op.INITIAL_STEP, usable=0.6 * op.INITIAL_STEP)
    S = prob.search().S
    assert prob.trials == [op.INITIAL_STEP, op.SHRINK * op.INITIAL_STEP]
    assert S == op.SHRINK * op.INITIAL_STEP


@pytest.mark.parametrize("below_chord", [0.0, 0.1])
def test_backtrack_halves_when_the_quadratic_is_not_convex(below_chord):
    # a trial on or below the chord obj + slope * step has no convex
    # quadratic through it; Armijo accepts every such trial, so the line
    # search never asks, and the guard keeps the division defined
    step, obj, slope = 0.75, 1.5, -0.3
    cand_obj = obj + slope * step - below_chord
    assert op._backtrack(step, obj, slope, cand_obj) == op.SHRINK * step


# ---------------------------------------------------------------------------
# minimize


def test_minimize_abelian_converges_immediately(rng):
    for seed in (0, 1, 2):
        hs = lh.catalog("abelian-3")
        local = np.random.default_rng(seed)
        S0 = random_hermitian(local, 3)
        opt, _ = op.minimize(hs, op.OptimConfig(max_iter=50), S0=S0)
        assert opt["converged"]
        assert opt["trace"][-1]["objective"] == 0.0


def test_minimize_so3c_starts_converged():
    hs = lh.catalog("so3c")
    opt, _ = op.minimize(hs, op.OptimConfig())
    assert opt["converged"] and opt["iterations"] == 0
    assert np.abs(opt["H_star"] - np.eye(3)).max() <= 1e-12


def test_minimize_recovers_so3c_critical_point(rng):
    hs = lh.catalog("so3c")
    S0 = random_hermitian(rng, 3)
    S0 *= 0.1 / np.linalg.norm(S0)
    cfg = op.OptimConfig(objective="torsion_functional", max_iter=500)
    opt, _ = op.minimize(hs, cfg, S0=S0)
    assert opt["converged"], opt["reason"]
    _, qnorm = fn.torsion_critical_residual(
        te.analyze(lh.HermitianStructure(hs.sc, opt["H_star"]))
    )
    assert qnorm <= 1e-6


def test_minimize_returns_analysis_of_final_metric(rng):
    hs = lh.catalog("iwasawa")
    opt, pkg_star = op.minimize(hs, op.OptimConfig(max_iter=5), S0=0.2 * random_hermitian(rng, 3))
    want = te.analyze(lh.HermitianStructure(hs.sc, opt["H_star"]))
    for name in ("T", "A", "B", "phi", "xi"):
        assert np.array_equal(getattr(pkg_star, name), getattr(want, name))
    assert np.array_equal(te.covariant_derivative_T(pkg_star.T, pkg_star.sc_u.D),
                          te.covariant_derivative_T(want.T, want.sc_u.D))
    assert pkg_star.volume == want.volume


def test_minimize_descent_is_monotone(rng):
    hs = lh.catalog("iwasawa")
    cfg = op.OptimConfig(max_iter=30)
    opt, _ = op.minimize(hs, cfg, S0=0.2 * random_hermitian(rng, 3))
    objs = [row["objective"] for row in opt["trace"]]
    assert all(b <= a + 1e-14 for a, b in zip(objs, objs[1:]))
    assert objs[-1] < objs[0]


def test_minimize_rejects_singular_frame_trial(rng, monkeypatch):
    # a trial metric whose frame change is numerically singular is a rejected
    # trial: the line search shrinks the step and the descent goes on
    hs = lh.catalog("iwasawa")
    calls = []
    unitary_reduction = lh.unitary_reduction

    def failing_once(hs):
        calls.append(1)
        if len(calls) == 2:  # the first trial step; call 1 analyzes the start
            raise SingularFrame("frame-change matrix is numerically singular")
        return unitary_reduction(hs)

    monkeypatch.setattr(lh, "unitary_reduction", failing_once)
    opt, _ = op.minimize(hs, op.OptimConfig(max_iter=5), S0=0.2 * random_hermitian(rng, 3))
    assert len(calls) > 2
    assert opt["iterations"] == 5 and opt["reason"] == "max_iterations"
    objs = [row["objective"] for row in opt["trace"]]
    assert all(b < a for a, b in zip(objs, objs[1:]))


def test_minimize_singular_frame_at_start_is_invalid_start_point(monkeypatch):
    def singular(hs):
        raise SingularFrame("frame-change matrix is numerically singular")

    monkeypatch.setattr(lh, "unitary_reduction", singular)
    with pytest.raises(InvalidStartPoint, match="numerically singular"):
        op.minimize(lh.catalog("iwasawa"), op.OptimConfig())


def test_minimize_overflowing_unitary_frame_at_start_is_invalid_start_point():
    hs = cli.parse_input(OVERFLOWING_FRAME_DOC)
    with pytest.raises(InvalidStartPoint, match="unitary frame of the metric overflows") as info:
        op.minimize(hs, op.OptimConfig())
    assert isinstance(info.value.__cause__, NumericalFailure)


@pytest.mark.parametrize("objective", op.OBJECTIVES)
def test_minimize_rejects_a_non_unimodular_structure(objective):
    # aff(C), [e1, e2] = e2: Q_F and Q_G are no first variations there, so
    # no descent starts
    C = np.zeros((2, 2, 2))
    C[1, 0, 1], C[1, 1, 0] = 1.0, -1.0
    hs = lh.HermitianStructure(lh.StructureConstants(2, C, np.zeros((2, 2, 2))), np.eye(2))
    with pytest.raises(NotUnimodular, match="not unimodular"):
        op.minimize(hs, op.OptimConfig(objective=objective))


def test_minimize_rejects_overflowing_unitary_frame_trial(rng, monkeypatch):
    # a trial metric whose unitary frame overflows is a rejected trial
    calls = []
    transform = lh._transform

    def overflowing_once(sc, *frames):
        calls.append(1)
        if len(calls) == 2:  # the first trial step; call 1 analyzes the start
            raise ValueError("C contains non-finite entries")
        return transform(sc, *frames)

    monkeypatch.setattr(lh, "_transform", overflowing_once)
    opt, _ = op.minimize(lh.catalog("iwasawa"), op.OptimConfig(max_iter=5),
                         S0=0.2 * random_hermitian(rng, 3))
    assert len(calls) > 2
    assert opt["iterations"] == 5 and opt["reason"] == "max_iterations"


def test_minimize_keeps_volume(rng):
    # F is scale-invariant, so its descent moves along trace-free directions
    # and det H* = det H0 exp(tr S0), with det H0 = 1 on kodaira-thurston
    hs = lh.catalog("kodaira-thurston")
    S0 = 0.2 * random_hermitian(rng, 2)
    opt, _ = op.minimize(hs, op.OptimConfig(max_iter=20), S0=S0)
    assert opt["iterations"] > 4
    assert np.linalg.det(opt["H_star"]).real == pytest.approx(np.exp(np.trace(S0).real), rel=1e-9)


def test_descent_analyzes_only_exactly_hermitian_charts(rng, monkeypatch):
    # minimize symmetrizes S0 and the gradient once; every other chart point
    # is a real combination of exactly Hermitian matrices and stays one
    seen = []
    point = op._Problem.point
    monkeypatch.setattr(op._Problem, "point", lambda self, S: seen.append(S) or point(self, S))
    for name, objective in (("kodaira-thurston", "gauduchon_functional"),
                            ("iwasawa", "torsion_functional"), ("sokc-4", "torsion_functional")):
        hs = lh.catalog(name)
        S0 = 0.3 * (rng.standard_normal((hs.n, hs.n)) + 1j * rng.standard_normal((hs.n, hs.n)))
        seen.clear()
        opt, _ = op.minimize(hs, op.OptimConfig(objective=objective, max_iter=20), S0=S0)
        assert opt["iterations"] > 4 and len(seen) > 10, name
        assert all(np.array_equal(S, S.conj().T) for S in seen), name


def test_minimize_reports_max_iterations():
    hs = lh.catalog("kodaira-thurston")
    cfg = op.OptimConfig(objective="gauduchon_functional", max_iter=3)
    opt, _ = op.minimize(hs, cfg, S0=0.3 * np.diag([1.0, -1.0]).astype(complex))
    assert not opt["converged"]
    assert opt["reason"] in ("max_iterations", "stagnated")


def test_gauduchon_descent_shrinks_eta(rng):
    # any near-critical point of the one-form energy is near balanced
    hs = lh.catalog("kodaira-thurston")
    cfg = op.OptimConfig(objective="gauduchon_functional", max_iter=150)
    S0 = 0.2 * random_hermitian(rng, 2)
    opt, _ = op.minimize(hs, cfg, S0=S0)
    hs_star = lh.HermitianStructure(hs.sc, opt["H_star"])
    pkg = te.analyze(hs_star)
    _, qg = fn.gauduchon_critical_residual(pkg)
    eta = pkg.eta
    if qg <= 1e-8:
        assert np.linalg.norm(eta) <= 1e-4
    # descent must have lowered the energy either way
    assert opt["trace"][-1]["objective"] < opt["trace"][0]["objective"]


def test_descent_analysis_budget(monkeypatch):
    # the benchmark's descents: one sokc-4 and 16 so3c starts of norm 0.1.
    # Steepest descent from INITIAL_STEP took 5.5 analyses per accepted step
    # and ended each run with about 30 hopeless halvings.  Halving after a
    # rejected trial took 2.0 analyses per step, and every first search
    # (along -G from INITIAL_STEP = 1) rejected 3-4 trials: so3c's needs
    # about 1/8.  The backtrack to the minimiser of the quadratic through the
    # rejected trial reaches it at the second trial.
    calls = []
    analyze = te.analyze
    monkeypatch.setattr(te, "analyze", lambda hs: calls.append(1) or analyze(hs))
    searches = []  # (failed, analyses) per line search
    line_search = op._line_search

    def counted(*args):
        before = len(calls)
        found = line_search(*args)
        searches.append((found is None, len(calls) - before))
        return found

    monkeypatch.setattr(op, "_line_search", counted)
    steps = 0
    first = []  # analyses of each descent's first line search
    for name, seed in [("sokc-4", 7)] + [("so3c", seed) for seed in range(16)]:
        hs = lh.catalog(name)
        S0 = random_hermitian(np.random.default_rng(seed), hs.n)  # as cmd_optimize builds it
        S0 *= 0.1 / np.linalg.norm(S0)
        start = len(searches)
        opt, _ = op.minimize(hs, op.OptimConfig(max_iter=500), S0=S0)
        assert opt["reason"] == "precision_limit", (name, seed)
        steps += opt["iterations"]
        first.append(searches[start][1])
    assert len(calls) <= 1.75 * steps, (len(calls), steps)
    assert max(first) <= 2, first
    failed = [cost for fail, cost in searches if fail]
    assert failed and max(failed) <= 8, failed


def test_descents_converge_only_at_the_precision_limit():
    # the benchmark's descents and two starts at a critical metric: each ends
    # when its decrement is lost in the rounding of the objective, by which
    # time |G|^2 is too (|G| reads up to 1e-7 on these runs)
    starts = [("sokc-4", 7)] + [("so3c", seed) for seed in range(16)]
    for name, seed in starts + [("abelian-3", None), ("so3c", None)]:
        hs = lh.catalog(name)
        S0 = None  # seed None: S0 = 0
        if seed is not None:
            S0 = random_hermitian(np.random.default_rng(seed), hs.n)  # as cmd_optimize builds it
            S0 *= 0.1 / np.linalg.norm(S0)
        opt, _ = op.minimize(hs, op.OptimConfig(max_iter=500), S0=S0)
        assert opt["converged"] and opt["reason"] == "precision_limit", (name, seed)
        last = opt["trace"][-1]
        floor = op.PRECISION_FLOOR * np.finfo(float).eps * max(1.0, abs(last["objective"]))
        assert last["gradient_norm"] ** 2 <= floor, (name, seed)


def test_descent_evaluates_each_point_once(monkeypatch):
    # over the benchmark's descents, each chart point is diagonalised once:
    # one eigh of S builds H(S) and the gradient's divided differences, and
    # each descent adds the eigh of its anchor's root.  The functional's
    # residual is read once per accepted point, the start included, for its
    # gradient and its trace row, and never at a rejected line-search trial;
    # no analysis of these well-conditioned metrics runs an SVD for cond(H)
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or real(*a))

    count(te, "analyze")
    count(np.linalg, "eigh")
    count(np.linalg, "cond")
    count(fn, "torsion_critical_residual")
    descents = accepted = 0
    for name, seed in [("sokc-4", 7)] + [("so3c", seed) for seed in range(16)]:
        hs = lh.catalog(name)
        S0 = random_hermitian(np.random.default_rng(seed), hs.n)  # as cmd_optimize builds it
        S0 *= 0.1 / np.linalg.norm(S0)
        opt, _ = op.minimize(hs, op.OptimConfig(max_iter=500), S0=S0)
        assert opt["reason"] == "precision_limit", (name, seed)
        descents += 1
        accepted += opt["iterations"]
    assert calls["analyze"] > 2 * descents
    assert calls["eigh"] == calls["analyze"] + descents, calls
    assert calls["torsion_critical_residual"] == descents + accepted < calls["analyze"], calls
    assert calls["cond"] == 0, calls
