"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line, and
asserts the same condition so the suite fails loudly on any regression.
"""

import json

import numpy as np
import pytest

import hermlab.classifiers as cl
import hermlab.cli as cli
import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.optimizer as op
import hermlab.torsion_engine as te

from conftest import (CATALOG_SAMPLE, random_hermitian, random_hpd, random_structure,
                      realified_so)

RNG_SEED = 31415


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_acceptance_01_so3c_reference_values():
    pkg = te.analyze(lh.catalog("so3c"))
    _, qnorm = fn.torsion_critical_residual(pkg)
    ok = (
        abs(pkg.norm_T2 - 6.0) <= 1e-12
        and np.abs(pkg.A - 2 * np.eye(3)).max() <= 1e-12
        and np.abs(pkg.B - 2 * np.eye(3)).max() <= 1e-12
        and np.abs(pkg.eta).max() <= 1e-12
        and np.abs(pkg.phi).max() <= 1e-12
        and np.abs(pkg.xi).max() <= 1e-12
        and abs(pkg.chi) <= 1e-12
        and qnorm <= 1e-12
    )
    _report(1, "so3c identity metric reference values", ok)


def test_acceptance_02_sokc_family_balanced_stp_critical():
    ok = True
    for name in ("sokc-3", "sokc-4"):
        hs = lh.catalog(name)
        pkg = te.analyze(hs)
        rep = cl.classify(pkg, hs.sc)
        _, qnorm = fn.torsion_critical_residual(pkg)
        ok = ok and rep["balanced"]["flag"] and rep["stp"]["flag"] and qnorm <= 1e-10
    _report(2, "sokc-3/sokc-4 balanced, parallel torsion, critical", ok)


def test_acceptance_03_n2_identity():
    rng = np.random.default_rng(RNG_SEED)
    ok = True
    kt = lh.catalog("kodaira-thurston")
    for _ in range(50):
        pkg = te.analyze(lh.HermitianStructure(kt.sc, random_hpd(rng, 2)))
        ok = ok and abs(pkg.norm_T2 - 2 * pkg.norm_eta2) <= 1e-10 * max(
            pkg.norm_T2, 1.0
        )
    for _ in range(20):
        sc = random_structure(rng, 2)
        assert lh.validate(sc).ok
        pkg = te.analyze(lh.HermitianStructure(sc, random_hpd(rng, 2)))
        ok = ok and abs(pkg.norm_T2 - 2 * pkg.norm_eta2) <= 1e-10 * max(
            pkg.norm_T2, 1.0
        )
    _report(3, "|T|^2 = 2|eta|^2 in complex dimension two", ok)


def test_acceptance_04_trace_identities():
    rng = np.random.default_rng(RNG_SEED + 1)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 5))
        hs = lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n))
        pkg = te.analyze(hs)
        Q, _ = fn.torsion_critical_residual(pkg)
        ok = ok and abs(np.trace(pkg.A).real - pkg.norm_T2) <= 1e-10
        ok = ok and abs(np.trace(pkg.B).real - pkg.norm_T2) <= 1e-10
        ok = ok and abs(np.trace(pkg.phi).real - pkg.norm_eta2) <= 1e-10
        ok = ok and abs(np.trace(pkg.xi).real - pkg.chi) <= 1e-10
        ok = ok and abs(np.trace(Q).real - 4 * (pkg.norm_eta2 - pkg.chi)) <= 1e-10
    _report(4, "trace identities over 100 random structures", ok)


def test_acceptance_05_first_variation_agreement():
    rng = np.random.default_rng(RNG_SEED + 2)
    ok = True
    for name in ("abelian-3", "so3c", "iwasawa", "kodaira-thurston"):
        hs = lh.catalog(name)
        pkg = te.analyze(hs)
        for _ in range(20):
            h = random_hermitian(rng, hs.n)
            h /= np.linalg.norm(h)
            analytic = fn.first_variation(pkg, h)
            fd = fn.fd_first_variation(hs, h, step=1e-5)
            denom = max(abs(analytic), abs(fd))
            if denom > 1e-9:
                ok = ok and abs(analytic - fd) / denom <= 1e-6
            else:
                ok = ok and abs(analytic - fd) <= 1e-9
    _report(5, "analytic first variation matches finite differences", ok)


def test_acceptance_06_gauduchon_critical_points_are_balanced():
    ok = True
    cfg = op.OptimConfig(objective="gauduchon_functional", max_iter=100, grad_tol=1e-9)
    for name in ("abelian-3", "so3c", "iwasawa", "kodaira-thurston"):
        hs = lh.catalog(name)
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            S0 = random_hermitian(rng, hs.n)
            S0 *= 0.2 / max(np.linalg.norm(S0), 1e-12)
            opt, _ = op.minimize(hs, cfg, S0=S0)
            pkg = te.analyze(lh.HermitianStructure(hs.sc, opt["H_star"]))
            _, qg = fn.gauduchon_critical_residual(pkg)
            if qg <= 1e-8:
                eta = pkg.eta
                ok = ok and np.linalg.norm(eta) <= 1e-4
    _report(6, "near-critical one-form energy points are near balanced", ok)


def test_acceptance_07_non_criticality_witnesses():
    _, qnorm = fn.torsion_critical_residual(te.analyze(lh.catalog("iwasawa")))
    ok = qnorm >= 0.1
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(20):
        eta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        eta *= rng.uniform(0.5, 2.0) / np.linalg.norm(eta)
        T = cl.lck_torsion(eta)  # the torsion of C = -T, D = 0 under the identity metric
        sc = lh.StructureConstants(3, -T, np.zeros((3, 3, 3)))
        _, qnorm = fn.torsion_critical_residual(te.analyze(lh.HermitianStructure(sc, np.eye(3))))
        ok = ok and qnorm >= 0.1
    _report(7, "nilpotent-J and non-balanced LCK shapes are not critical", ok)


def test_acceptance_08_structure_validity_and_frame_invariance():
    rng = np.random.default_rng(RNG_SEED + 4)
    ok = True
    structures = [lh.catalog(name).sc for name in CATALOG_SAMPLE]
    bases = (lh.kodaira_thurston_real(), realified_so(3))
    from conftest import random_real_basis_change, random_unitary

    for _ in range(20):
        rl = random_real_basis_change(rng, bases[int(rng.integers(2))])
        structures.append(lh.complexify(rl))
    for sc in structures:
        rep = lh.validate(sc)
        ok = ok and rep.ok and max(c.residual for c in rep.checks) <= 1e-10
    for name in CATALOG_SAMPLE:
        hs = lh.catalog(name)
        base = te.analyze(hs)
        base_eigs = [np.linalg.eigvalsh(base.A), np.linalg.eigvalsh(base.B)]
        for _ in range(10):
            U = random_unitary(rng, hs.n)
            rotated = lh.HermitianStructure(lh.frame_change(hs.sc, U), np.eye(hs.n))
            pkg = te.analyze(rotated)
            ok = ok and abs(pkg.norm_T2 - base.norm_T2) <= 1e-10
            ok = ok and abs(pkg.norm_eta2 - base.norm_eta2) <= 1e-10
            ok = ok and abs(pkg.chi - base.chi) <= 1e-10
            for M, want in zip((pkg.A, pkg.B), base_eigs):
                ok = ok and np.abs(np.linalg.eigvalsh(M) - want).max() <= 1e-10
    _report(8, "structure validity and unitary frame invariance", ok)


def test_acceptance_09_scale_invariance():
    ok = True
    for name in CATALOG_SAMPLE:
        hs = lh.catalog(name)
        base = te.analyze(hs)
        F0 = fn.torsion_functional(base)
        G0 = fn.gauduchon_functional(base)
        for c in (0.5, 2.0, 10.0):
            scaled = te.analyze(lh.HermitianStructure(hs.sc, c * np.asarray(hs.H)))
            F = fn.torsion_functional(scaled)
            G = fn.gauduchon_functional(scaled)
            ok = ok and abs(F - F0) <= 1e-10 * max(abs(F0), 1.0)
            ok = ok and abs(G - G0) <= 1e-10 * max(abs(G0), 1.0)
    _report(9, "scale invariance of both functionals", ok)


def test_acceptance_10_optimizer_sanity():
    ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        opt, _ = op.minimize(
            lh.catalog("abelian-3"),
            op.OptimConfig(max_iter=50),
            S0=random_hermitian(rng, 3),
        )
        ok = ok and opt["converged"] and opt["trace"][-1]["objective"] == 0.0

    rng = np.random.default_rng(RNG_SEED + 5)
    S0 = random_hermitian(rng, 3)
    S0 *= 0.1 / np.linalg.norm(S0)
    hs = lh.catalog("so3c")
    cfg = op.OptimConfig(
        objective="residual_norm", max_iter=500, grad_tol=1e-10, objective_tol=1e-13
    )
    opt, _ = op.minimize(hs, cfg, S0=S0)
    _, qnorm = fn.torsion_critical_residual(
        te.analyze(lh.HermitianStructure(hs.sc, opt["H_star"]))
    )
    ok = ok and opt["converged"] and qnorm <= 1e-6 and len(opt["trace"]) <= 501
    objs = [row["objective"] for row in opt["trace"]]
    ok = ok and all(b <= a + 1e-14 for a, b in zip(objs, objs[1:]))
    _report(10, "optimizer convergence and monotone descent", ok)


def test_acceptance_11_golden_reports(tmp_path, capsys):
    ok = True
    for name in CATALOG_SAMPLE:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"catalog": name}))
        code1 = cli.main(["analyze", str(path), "--format", "json"])
        first = capsys.readouterr().out
        code2 = cli.main(["analyze", str(path), "--format", "json"])
        second = capsys.readouterr().out
        ok = ok and code1 == code2 == 0 and first.encode() == second.encode()
    _report(11, "catalog analyze reports are byte-stable", ok)
