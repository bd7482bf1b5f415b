"""Descent over the metric cone: chart, gradients, minimization."""

import numpy as np
import pytest

import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.optimizer as op
import hermlab.torsion_engine as te
from hermlab.errors import InvalidStartPoint, SingularFrame

import oracles
from conftest import random_hermitian, random_hpd, random_structure, random_unitary


# ---------------------------------------------------------------------------
# chart and basis


def test_hermitian_basis_orthonormal():
    for n in (2, 3):
        basis = op.hermitian_basis(n)
        assert len(basis) == n * n
        for a, Ka in enumerate(basis):
            assert np.abs(Ka - Ka.conj().T).max() <= 1e-15
            for b, Kb in enumerate(basis):
                ip = np.trace(Ka @ Kb).real
                assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-14)


def _chart(S, H0=None, det_normalized=False):
    """H(S) through the descent's chart anchored at H0 (default: identity)."""
    n = np.shape(S)[0]
    H0 = np.eye(n) if H0 is None else H0
    hs = lh.HermitianStructure(lh.StructureConstants.zero(n), H0)
    return op._Problem(hs, op.OptimConfig(det_normalized=det_normalized)).metric(S)


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


def test_parametrize_det_normalized(rng):
    H0 = random_hpd(rng, 3)
    d0 = np.linalg.det(H0).real
    for _ in range(10):
        H = _chart(random_hermitian(rng, 3), H0, det_normalized=True)
        assert np.linalg.det(H).real == pytest.approx(d0, rel=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        op.OptimConfig(objective="nope")
    with pytest.raises(ValueError):
        op.OptimConfig(grad_tol=0.0)


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


def _gradient_cases(rng):
    """(problem, S) over both functionals, both chart modes and random anchors.

    S is zero, random, or has a repeated eigenvalue.  so3c, iwasawa and
    sokc-4 have eta = 0 for every metric, so G vanishes there; the n = 2
    random structures and kodaira-thurston carry the nonzero G cases.
    """
    structures = [lh.catalog(name).sc for name in ("so3c", "iwasawa", "kodaira-thurston", "sokc-4")]
    structures += [random_structure(rng, 2) for _ in range(2)]
    for sc in structures:
        n = sc.n
        hs = lh.HermitianStructure(sc, random_hpd(rng, n))
        lam = rng.standard_normal(n)
        lam[1] = lam[0]
        U = random_unitary(rng, n)
        repeated = 0.5 * (U * lam) @ U.conj().T
        for objective in ("torsion_functional", "gauduchon_functional"):
            for det_normalized in (False, True):
                cfg = op.OptimConfig(objective=objective, det_normalized=det_normalized)
                prob = op._Problem(hs, cfg)
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
    for prob, S in _gradient_cases(rng):
        G = op.gradient(prob, S, prob.analyze(S))
        assert _rel(G, op._fd_gradient(prob, S)) <= 1e-6, (prob.cfg, S)


def test_gradient_makes_no_analysis(rng, monkeypatch):
    hs = lh.HermitianStructure(lh.catalog("kodaira-thurston").sc, random_hpd(rng, 2))
    S = 0.3 * random_hermitian(rng, 2)
    calls = []
    analyze = te.analyze
    monkeypatch.setattr(te, "analyze", lambda hs: calls.append(1) or analyze(hs))
    for objective in ("torsion_functional", "gauduchon_functional"):
        prob = op._Problem(hs, op.OptimConfig(objective=objective))
        pkg = prob.analyze(S)
        calls.clear()
        assert np.linalg.norm(op.gradient(prob, S, pkg)) > 0.1
        assert calls == []


def test_gradient_directional_derivative(rng):
    # the Riesz representative reproduces directional finite differences
    hs = lh.catalog("iwasawa")
    cfg = op.OptimConfig()
    S = 0.2 * random_hermitian(rng, 3)
    prob = op._Problem(hs, cfg)
    G = op.gradient(prob, S, prob.analyze(S))
    K = random_hermitian(rng, 3)
    step = 1e-6
    fd = (prob.objective(S + step * K) - prob.objective(S - step * K)) / (2 * step)
    assert fd == pytest.approx(np.trace(K @ G).real, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# minimize


def test_minimize_abelian_converges_immediately(rng):
    for seed in (0, 1, 2):
        hs = lh.catalog("abelian-3")
        local = np.random.default_rng(seed)
        S0 = random_hermitian(local, 3)
        trace = op.minimize(hs, op.OptimConfig(max_iter=50), S0=S0)
        assert trace.converged
        assert trace.iterations[-1][1] == 0.0


def test_minimize_so3c_starts_converged():
    hs = lh.catalog("so3c")
    trace = op.minimize(hs, op.OptimConfig(grad_tol=1e-6))
    assert trace.converged and len(trace.iterations) == 1
    assert np.abs(trace.H_star - np.eye(3)).max() <= 1e-12


def test_minimize_recovers_so3c_critical_point(rng):
    hs = lh.catalog("so3c")
    S0 = random_hermitian(rng, 3)
    S0 *= 0.1 / np.linalg.norm(S0)
    cfg = op.OptimConfig(
        objective="residual_norm", max_iter=500, grad_tol=1e-10, objective_tol=1e-13
    )
    trace = op.minimize(hs, cfg, S0=S0)
    assert trace.converged, trace.reason
    _, qnorm = fn.torsion_critical_residual(
        te.analyze(lh.HermitianStructure(hs.sc, trace.H_star))
    )
    assert qnorm <= 1e-6


def test_minimize_returns_analysis_of_final_metric(rng):
    hs = lh.catalog("iwasawa")
    trace = op.minimize(hs, op.OptimConfig(max_iter=5), S0=0.2 * random_hermitian(rng, 3))
    want = te.analyze(lh.HermitianStructure(hs.sc, trace.H_star))
    for name in ("T", "DT", "A", "B", "phi", "xi"):
        assert np.array_equal(getattr(trace.pkg_star, name), getattr(want, name))
    assert trace.pkg_star.volume == want.volume


def test_minimize_descent_is_monotone(rng):
    hs = lh.catalog("iwasawa")
    cfg = op.OptimConfig(max_iter=30)
    trace = op.minimize(hs, cfg, S0=0.2 * random_hermitian(rng, 3))
    objs = [row[1] for row in trace.iterations]
    assert all(b <= a + 1e-14 for a, b in zip(objs, objs[1:]))
    assert objs[-1] < objs[0]


def test_minimize_rejects_singular_frame_trial(rng, monkeypatch):
    # a trial metric whose frame change is numerically singular is a rejected
    # trial: the line search shrinks the step and the descent goes on
    hs = lh.catalog("iwasawa")
    calls = []
    frame_change = lh.frame_change

    def failing_once(sc, P):
        calls.append(1)
        if len(calls) == 2:  # the first trial step; call 1 analyzes the start
            raise SingularFrame("frame-change matrix is numerically singular")
        return frame_change(sc, P)

    monkeypatch.setattr(lh, "frame_change", failing_once)
    trace = op.minimize(hs, op.OptimConfig(max_iter=5), S0=0.2 * random_hermitian(rng, 3))
    assert len(calls) > 2
    assert len(trace.iterations) == 6 and trace.reason == "max_iterations"
    objs = [row[1] for row in trace.iterations]
    assert all(b < a for a, b in zip(objs, objs[1:]))


def test_minimize_singular_frame_at_start_is_invalid_start_point(monkeypatch):
    def singular(sc, P):
        raise SingularFrame("frame-change matrix is numerically singular")

    monkeypatch.setattr(lh, "frame_change", singular)
    with pytest.raises(InvalidStartPoint, match="numerically singular"):
        op.minimize(lh.catalog("iwasawa"), op.OptimConfig())


def test_minimize_det_normalized_keeps_volume(rng):
    hs = lh.catalog("kodaira-thurston")
    cfg = op.OptimConfig(max_iter=20, det_normalized=True)
    trace = op.minimize(hs, cfg, S0=0.2 * random_hermitian(rng, 2))
    assert np.linalg.det(trace.H_star).real == pytest.approx(1.0, rel=1e-9)


def test_minimize_reports_max_iterations():
    hs = lh.catalog("kodaira-thurston")
    cfg = op.OptimConfig(objective="gauduchon_functional", max_iter=3)
    trace = op.minimize(hs, cfg, S0=0.3 * np.diag([1.0, -1.0]).astype(complex))
    assert not trace.converged
    assert trace.reason in ("max_iterations", "stagnated")


def test_gauduchon_descent_shrinks_eta(rng):
    # any near-critical point of the one-form energy is near balanced
    hs = lh.catalog("kodaira-thurston")
    cfg = op.OptimConfig(objective="gauduchon_functional", max_iter=150, grad_tol=1e-9)
    S0 = 0.2 * random_hermitian(rng, 2)
    trace = op.minimize(hs, cfg, S0=S0)
    hs_star = lh.HermitianStructure(hs.sc, trace.H_star)
    pkg = te.analyze(hs_star)
    _, qg = fn.gauduchon_critical_residual(pkg)
    eta = pkg.eta
    if qg <= 1e-8:
        assert np.linalg.norm(eta) <= 1e-4
    # descent must have lowered the energy either way
    assert trace.iterations[-1][1] < trace.iterations[0][1]
