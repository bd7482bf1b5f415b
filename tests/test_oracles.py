"""The library's tensor-contraction closed forms against their oracles.

Each closed form (validation's d(d e) = 0 residuals, Q_G, the pluriclosed
residual, frame changes, the Strominger-parallel residuals) is compared with the route in ``oracles`` on
seeded random valid structures under random metrics, on catalog entries,
and, for validation, on random C/D that fail the Jacobi identity.
"""

import numpy as np
import pytest

import hermlab.classifiers as cl
import hermlab.functionals as fn
import hermlab.lie_hermitian as lh
import hermlab.torsion_engine as te

import oracles
from conftest import CATALOG_SAMPLE, random_gl, random_hpd, random_structure

REL_TOL = 1e-12


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(np.asarray(got) - np.asarray(want)).max()) <= REL_TOL * scale


def _random_metric_structures(seed, count=30):
    rng = np.random.default_rng(seed)
    out = [lh.catalog(name) for name in CATALOG_SAMPLE]
    for _ in range(count):
        n = int(rng.integers(2, 5))
        out.append(lh.HermitianStructure(random_structure(rng, n), random_hpd(rng, n)))
    return out


def _non_jacobi_constants(seed, count=30):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        C = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        D = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        out.append(lh.StructureConstants(n, C - C.swapaxes(1, 2), D))
    return out


def test_validate_dd_matches_exterior_derivative():
    structures = [hs.sc for hs in _random_metric_structures(101)]
    structures += _non_jacobi_constants(102)
    failing = 0
    for sc in structures:
        rep = lh.validate(sc)
        dd_phi, dd_phibar = oracles.dd_residuals(sc)
        assert _close(rep.residual("dd_phi"), dd_phi)
        assert _close(rep.residual("dd_phibar"), dd_phibar)
        failing += not rep.ok
    # the non-Jacobi inputs really exercise nonzero residuals
    assert failing >= 25


def test_gauduchon_residual_matches_form_route():
    for hs in _random_metric_structures(103):
        pkg = te.analyze(hs)
        Q, norm = fn.gauduchon_critical_residual(pkg)
        want = oracles.gauduchon_residual(pkg)
        assert _close(Q, want)
        assert _close(norm, np.linalg.norm(want))


def test_pluriclosed_residual_matches_form_route():
    values = []
    for hs in _random_metric_structures(104):
        pkg = te.analyze(hs)
        got = cl.pluriclosed_residual(pkg)
        want = oracles.pluriclosed_residual(pkg)
        assert _close(got, want)
        values.append(want)
    assert max(values) > 0.1


def test_frame_change_matches_transformation_laws():
    rng = np.random.default_rng(105)
    for hs in _random_metric_structures(106):
        P = random_gl(rng, hs.n)
        got = lh.frame_change(hs.sc, P)
        C, D = oracles.frame_change(hs.sc, P)
        assert _close(got.C, C)
        assert _close(got.D, D)


def test_stp_residuals_equal_written_out_contractions():
    # the same arithmetic in the same order, so the values agree exactly
    structures = [lh.catalog(name) for name in lh.catalog_names()]
    structures += _random_metric_structures(107, count=120)
    nonzero = 0
    for hs in structures:
        pkg = te.analyze(hs)
        got = cl.stp_identity_residuals(pkg)
        assert got == oracles.stp_identity_residuals(pkg)
        nonzero += got["nabla_s_hol"] > 1e-3 and got["nabla_s_bar"] > 1e-3
    assert nonzero >= 10


@pytest.mark.parametrize("name", ["abelian-1", "abelian-2", "so3c", "kodaira-thurston"])
def test_closed_forms_on_small_catalog_entries(name):
    hs = lh.catalog(name)
    pkg = te.analyze(hs)
    rep = lh.validate(hs.sc)
    assert _close([rep.residual("dd_phi"), rep.residual("dd_phibar")],
                  oracles.dd_residuals(hs.sc))
    assert _close(fn.gauduchon_critical_residual(pkg)[0], oracles.gauduchon_residual(pkg))
    assert _close(cl.pluriclosed_residual(pkg), oracles.pluriclosed_residual(pkg))
