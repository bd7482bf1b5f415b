"""Descent over the metric cone: chart, gradients, minimization."""

from collections import Counter, deque

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
    return op._Problem(hs, op.OptimConfig()).metric(S)


def _gradient(hs, cfg, S=None):
    S = np.zeros((hs.n, hs.n), dtype=complex) if S is None else S
    prob = op._Problem(hs, cfg)
    return op.gradient(prob, S, prob.analyze(S))


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
        op.OptimConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        op.OptimConfig(max_iter=-1)


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


def _gradient_cases(rng, objectives=tuple(fn.FUNCTIONALS), two_step=0):
    """(problem, S) over ``objectives`` and random anchors.

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
        for objective in objectives:
            prob = op._Problem(hs, op.OptimConfig(objective=objective))
            for S in (np.zeros((n, n), dtype=complex), 0.3 * random_hermitian(rng, n), repeated):
                yield prob, S


def _rel(G, ref):
    return np.linalg.norm(G - ref) / max(np.linalg.norm(ref), 1.0)


def test_gradient_matches_analytic(rng):
    # the Daleckii-Krein gradient against scipy's Frechet derivative of exp
    nonzero = {"torsion_functional": 0, "gauduchon_functional": 0}
    for prob, S in _gradient_cases(rng):
        G = op.gradient(prob, S, prob.analyze(S))
        ref = oracles.analytic_gradient(prob, S)
        assert _rel(G, ref) <= 1e-9, (prob.cfg, S)
        nonzero[prob.cfg.objective] += np.linalg.norm(ref) > 1.0
    assert min(nonzero.values()) >= 15, nonzero


def test_gradient_matches_finite_differences(rng):
    # every objective, residual_norm's Hessian-product gradient included,
    # against central differences over the whole Hermitian basis
    nonzero = Counter()
    for prob, S in _gradient_cases(rng, op.OBJECTIVES, two_step=5):
        G = op.gradient(prob, S, prob.analyze(S))
        ref = oracles.fd_gradient(prob, S)
        assert _rel(G, ref) <= 1e-6, (prob.cfg, S)
        nonzero[prob.cfg.objective] += np.linalg.norm(ref) > 1.0
    assert min(nonzero[objective] for objective in op.OBJECTIVES) >= 15, nonzero


def test_gradient_makes_no_analysis(rng, monkeypatch):
    # the functionals' gradients read the point's analysis; residual_norm's
    # Hessian product analyzes two more metrics, at S +- FD_STEP v
    hs = lh.HermitianStructure(lh.catalog("kodaira-thurston").sc, random_hpd(rng, 2))
    S = 0.3 * random_hermitian(rng, 2)
    calls = []
    analyze = te.analyze
    monkeypatch.setattr(te, "analyze", lambda hs: calls.append(1) or analyze(hs))
    for objective, analyses in (("torsion_functional", 0), ("gauduchon_functional", 0),
                                ("residual_norm", 2)):
        prob = op._Problem(hs, op.OptimConfig(objective=objective))
        pkg = prob.analyze(S)
        calls.clear()
        assert np.linalg.norm(op.gradient(prob, S, pkg)) > 0.1
        assert len(calls) == analyses, objective


def test_residual_norm_is_scale_invariant(rng):
    # |G_F|^2 is unchanged under S -> S + tI, that is H -> e^t H, as F is
    for name in ("so3c", "iwasawa", "kodaira-thurston", "sokc-4"):
        sc = lh.catalog(name).sc
        hs = lh.HermitianStructure(sc, random_hpd(rng, sc.n))
        prob = op._Problem(hs, op.OptimConfig(objective="residual_norm"))
        S = 0.3 * random_hermitian(rng, sc.n)
        f0 = oracles.objective(prob, S)
        assert f0 > 1e-3, name
        for t in (-1.0, 0.5, 2.0):
            f = oracles.objective(prob, S + t * np.eye(sc.n))
            assert abs(f - f0) <= 1e-12 * f0, (name, t)


def test_chart_gradient_is_trace_free(rng):
    # every objective is invariant under S -> S + tI, so <I, G> = tr G = 0;
    # residual_norm's gradient carries the Hessian product's rounding
    checked = Counter()
    for name in ("so3c", "iwasawa", "kodaira-thurston", "sokc-4"):
        sc = lh.catalog(name).sc
        for _ in range(10):
            hs = lh.HermitianStructure(sc, random_hpd(rng, sc.n))
            S = 0.3 * random_hermitian(rng, sc.n)
            for objective, tol in (("torsion_functional", 1e-12), ("gauduchon_functional", 1e-12),
                                   ("residual_norm", 1e-8)):
                prob = op._Problem(hs, op.OptimConfig(objective=objective))
                G = op.gradient(prob, S, prob.analyze(S))
                norm = np.linalg.norm(G)
                if norm > 1e-12:  # G's gradient is rounding noise (1e-31) where eta = 0
                    assert abs(np.trace(G)) <= tol * norm, (name, objective)
                    checked[objective] += 1
    assert checked == {"torsion_functional": 40, "gauduchon_functional": 10, "residual_norm": 40}


def test_residual_norm_is_squared_residual_at_identity_anchor():
    # at S = 0 of an identity anchor the chart gradient of F is -Q_F
    for name in ("iwasawa", "kodaira-thurston"):
        hs = lh.catalog(name)
        prob = op._Problem(hs, op.OptimConfig(objective="residual_norm"))
        S = np.zeros((hs.n, hs.n), dtype=complex)
        pkg = prob.analyze(S)
        assert prob.value(S, pkg) == pytest.approx(prob.residual_norm(pkg) ** 2, rel=1e-12)


def test_functional_calls_reach_the_functionals_module(monkeypatch):
    # objective, residual and gradient evaluations go through
    # functionals.FUNCTIONALS; a wrapper set on the module, like the
    # benchmark's tracer, must see each of them
    calls = Counter()
    for name in ("torsion_functional", "torsion_critical_residual",
                 "gauduchon_functional", "gauduchon_critical_residual"):
        real = getattr(fn, name)
        monkeypatch.setattr(fn, name, lambda pkg, real=real, name=name:
                            calls.update([name]) or real(pkg))
    hs = lh.catalog("kodaira-thurston")
    S = np.zeros((2, 2), dtype=complex)
    for objective in op.OBJECTIVES:
        prob = op._Problem(hs, op.OptimConfig(objective=objective))
        pkg = prob.analyze(S)
        prob.value(S, pkg)
        prob.residual_norm(pkg)
        op.gradient(prob, S, pkg)
    # residual_norm reads Q_F for its value, its residual, and the gradient
    # of F at S and at S +- FD_STEP v
    assert calls == {"torsion_functional": 1, "torsion_critical_residual": 2 + 5,
                     "gauduchon_functional": 1, "gauduchon_critical_residual": 2}


def test_gradient_directional_derivative(rng):
    # the Riesz representative reproduces directional finite differences
    hs = lh.catalog("iwasawa")
    cfg = op.OptimConfig()
    S = 0.2 * random_hermitian(rng, 3)
    prob = op._Problem(hs, cfg)
    G = op.gradient(prob, S, prob.analyze(S))
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


def test_minimize_keeps_only_positive_curvature_pairs(monkeypatch):
    # a double well in every chart coordinate, f = sum (x^2 - 1)^2, is
    # concave near S = 0: a step taken there gives <s, y> < 0, and that pair
    # must not reach the two-loop recursion
    basis = oracles.hermitian_basis(2)

    def coords(S):
        return np.array([np.vdot(K, S).real for K in basis])

    steps = []  # (S, G) at every gradient
    seen = []  # <s, y> of every pair handed to the recursion

    def gradient(prob, S, pkg):
        G = sum(4 * x * (x * x - 1) * K for x, K in zip(coords(S), basis))
        steps.append((S, G))
        return G

    lbfgs_direction = op._lbfgs_direction

    def direction(G, memory):
        seen.extend(op._inner(s, y) for s, y in memory)
        return lbfgs_direction(G, memory)

    monkeypatch.setattr(op._Problem, "analyze", lambda self, S: S)
    monkeypatch.setattr(op._Problem, "value",
                        lambda self, S, pkg: float(np.sum((coords(S) ** 2 - 1) ** 2)))
    monkeypatch.setattr(op._Problem, "residual_norm", lambda self, pkg: 0.0)
    monkeypatch.setattr(op, "gradient", gradient)
    monkeypatch.setattr(op, "_lbfgs_direction", direction)
    opt, _ = op.minimize(lh.catalog("kodaira-thurston"), op.OptimConfig(), S0=0.1 * sum(basis))
    assert opt["reason"] == "gradient_tolerance"
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

    def search(prob, S, obj, d, slope):
        fail = memories[-1] == 3 and not any(f for f, _, _ in searches)
        searches.append((fail, d, slope))
        return None if fail else line_search(prob, S, obj, d, slope)

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
    opt, _ = op.minimize(hs, op.OptimConfig(grad_tol=1e-6))
    assert opt["converged"] and opt["iterations"] == 0
    assert np.abs(opt["H_star"] - np.eye(3)).max() <= 1e-12


def test_minimize_recovers_so3c_critical_point(rng):
    hs = lh.catalog("so3c")
    S0 = random_hermitian(rng, 3)
    S0 *= 0.1 / np.linalg.norm(S0)
    cfg = op.OptimConfig(
        objective="residual_norm", max_iter=500, grad_tol=1e-10, objective_tol=1e-13
    )
    opt, _ = op.minimize(hs, cfg, S0=S0)
    assert opt["converged"], opt["reason"]
    _, qnorm = fn.torsion_critical_residual(
        te.analyze(lh.HermitianStructure(hs.sc, opt["H_star"]))
    )
    assert qnorm <= 1e-6


@pytest.mark.parametrize("name, perturb, seed, critical", [
    ("so3c", 3.0, 2, 6.0),
    ("sokc-4", 0.1, 0, 24.0),
    ("sokc-4", 0.1, 7, 24.0),
])
def test_residual_norm_descent_reaches_critical_metric(name, perturb, seed, critical):
    # the descent of |G_F|^2 from the start cmd_optimize builds ends at a
    # critical metric of F, scale-free residual included, and, as the
    # objective is scale-invariant, keeps the volume of its start
    hs = lh.catalog(name)
    S0 = random_hermitian(np.random.default_rng(seed), hs.n)
    S0 *= perturb / np.linalg.norm(S0)
    opt, pkg = op.minimize(hs, op.OptimConfig(objective="residual_norm"), S0=S0)
    assert opt["converged"], opt["reason"]
    assert abs(fn.torsion_functional(pkg) - critical) <= 1e-8 * critical
    _, qnorm = fn.torsion_critical_residual(pkg)
    assert pkg.volume ** (1.0 / hs.n) * qnorm <= 1e-8
    assert abs(np.log(pkg.volume) - np.trace(S0).real) <= 1e-6


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

    def overflowing_once(sc, P):
        calls.append(1)
        if len(calls) == 2:  # the first trial step; call 1 analyzes the start
            raise ValueError("C contains non-finite entries")
        return transform(sc, P)

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
    analyze = op._Problem.analyze
    monkeypatch.setattr(op._Problem, "analyze",
                        lambda self, S: seen.append(S) or analyze(self, S))
    for name, objective in (("kodaira-thurston", "gauduchon_functional"),
                            ("iwasawa", "torsion_functional"), ("so3c", "residual_norm")):
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
    cfg = op.OptimConfig(objective="gauduchon_functional", max_iter=150, grad_tol=1e-9)
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
    # and ended each run with about 30 hopeless halvings
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
    for name, seed in [("sokc-4", 7)] + [("so3c", seed) for seed in range(16)]:
        hs = lh.catalog(name)
        S0 = random_hermitian(np.random.default_rng(seed), hs.n)  # as cmd_optimize builds it
        S0 *= 0.1 / np.linalg.norm(S0)
        opt, _ = op.minimize(hs, op.OptimConfig(max_iter=500), S0=S0)
        assert opt["reason"] in ("gradient_tolerance", "precision_limit"), (name, seed)
        steps += opt["iterations"]
    assert len(calls) <= 2.5 * steps, (len(calls), steps)
    failed = [cost for fail, cost in searches if fail]
    assert failed and max(failed) <= 8, failed
