"""Dense-linear-algebra helpers, and the dict-based exterior algebra the
test oracles use (``oracles.InvariantForm``)."""

import itertools

import numpy as np
import pytest

import hermlab.tensor_algebra as ta
from hermlab.errors import NotPositiveDefinite

import oracles
from conftest import random_hpd


# ---------------------------------------------------------------------------
# cholesky


def test_cholesky_identity():
    L = ta.cholesky(np.eye(3))
    assert np.allclose(L, np.eye(3))


def test_cholesky_diagonal():
    L = ta.cholesky(np.diag([4.0, 1.0]))
    assert np.allclose(L, np.diag([2.0, 1.0]))


def test_cholesky_complex_roundtrip():
    H = np.array([[2.0, 1j], [-1j, 2.0]])
    L = ta.cholesky(H)
    assert np.allclose(L @ L.conj().T, H, atol=1e-14)
    assert np.allclose(np.triu(L, 1), 0.0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        ta.cholesky(np.diag([1.0, -1.0]))


def test_cholesky_rejects_non_hermitian():
    with pytest.raises(NotPositiveDefinite):
        ta.cholesky(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_cholesky_random_roundtrip(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        H = random_hpd(rng, n)
        L = ta.cholesky(H)
        assert np.abs(L @ L.conj().T - H).max() <= 1e-10 * max(1.0, np.abs(H).max())


# ---------------------------------------------------------------------------
# wedge: independent brute-force oracle over explicit permutation signs


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _oracle_canon(indices, coeff):
    """Canonicalize via an explicit permutation-parity count."""
    if len(set(indices)) != len(indices):
        return None
    order = sorted(range(len(indices)), key=lambda t: indices[t])
    return tuple(sorted(indices)), _perm_sign(order) * coeff


def _oracle_wedge(a, b, n):
    out = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            canon = _oracle_canon(ia + ib, ca * cb)
            if canon is None:
                continue
            idx, c = canon
            out[idx] = out.get(idx, 0j) + c
    return {k: v for k, v in out.items() if v != 0}


def _random_form(rng, n, degree, nterms=4):
    f = oracles.InvariantForm(n)
    for _ in range(nterms):
        idx = tuple(rng.choice(2 * n, size=degree, replace=False))
        f._insert(idx, complex(rng.standard_normal(), rng.standard_normal()))
    return f


def test_wedge_square_of_one_form_vanishes():
    f = oracles.InvariantForm.hol(3, 0)
    assert f.wedge(f).is_zero()


def test_wedge_antisymmetry_on_one_forms(rng):
    n = 3
    a = _random_form(rng, n, 1)
    b = _random_form(rng, n, 1)
    assert a.wedge(b).isclose(-(b.wedge(a)), tol=1e-14)


def test_wedge_against_bruteforce_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 5))
        da, db = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a = _random_form(rng, n, da)
        b = _random_form(rng, n, db)
        got = a.wedge(b).terms
        want = _oracle_wedge(a, b, n)
        assert set(got) == set(want)
        for k in want:
            assert abs(got[k] - want[k]) <= 1e-12


def test_wedge_associative(rng):
    for _ in range(30):
        n = 4
        a = _random_form(rng, n, int(rng.integers(1, 3)))
        b = _random_form(rng, n, int(rng.integers(1, 3)))
        c = _random_form(rng, n, int(rng.integers(1, 3)))
        assert a.wedge(b).wedge(c).isclose(a.wedge(b.wedge(c)), tol=1e-12)


def test_omega_squared_n2():
    # (i sum phi_s ^ phibar_s)^2 = -2 phi_1 ^ phibar_1 ^ phi_2 ^ phibar_2
    n = 2
    w = oracles.InvariantForm(n, {(0, 2): 1j, (1, 3): 1j})
    sq = w.wedge(w)
    # canonical order (0,1,2,3) picks up one swap from (0,2,1,3)
    assert abs(sq.coefficient((0, 2, 1, 3)) - (-2.0)) <= 1e-14
    assert len(sq.terms) == 1


# ---------------------------------------------------------------------------
# conjugation and bidegree


def test_conjugate_involution(rng):
    f = _random_form(rng, 3, 2)
    assert f.conjugate().conjugate().isclose(f, tol=0.0)


def test_conjugate_distributes_over_wedge(rng):
    a = _random_form(rng, 3, 1)
    b = _random_form(rng, 3, 2)
    assert a.wedge(b).conjugate().isclose(a.conjugate().wedge(b.conjugate()), tol=1e-13)


def test_fundamental_form_is_real():
    w = oracles.InvariantForm(3, {(s, 3 + s): 1j for s in range(3)})
    assert w.conjugate().isclose(w, tol=0.0)


def test_bidegree_decomposition(rng):
    f = _random_form(rng, 3, 3, nterms=8)
    total = oracles.InvariantForm(3)
    for p in range(4):
        q = 3 - p
        part = f.bidegree_part(p, q)
        for idx in part.terms:
            assert sum(1 for g in idx if g < 3) == p
        total = total + part
    assert total.isclose(f, tol=0.0)


def test_bidegree_of_mixed_two_form():
    f = oracles.InvariantForm(2, {(0, 1): 1.0, (0, 2): 2.0, (2, 3): 3.0})
    assert f.bidegree_part(2, 0).coefficient((0, 1)) == 1.0
    assert f.bidegree_part(1, 1).coefficient((0, 2)) == 2.0
    assert f.bidegree_part(0, 2).coefficient((2, 3)) == 3.0
    assert f.bidegree_part(1, 1).norm() == 2.0


# ---------------------------------------------------------------------------
# misc diagnostics


def test_coefficient_respects_reordering_sign():
    f = oracles.InvariantForm(2, {(0, 1): 2.0})
    assert f.coefficient((1, 0)) == -2.0
    assert f.coefficient((0, 0)) == 0j


def test_norm_and_max_abs(rng):
    f = oracles.InvariantForm(2, {(0,): 3.0, (1,): 4.0})
    assert f.norm() == pytest.approx(5.0)
    assert f.max_abs() == pytest.approx(4.0)


def test_insert_cancellation_removes_term():
    f = oracles.InvariantForm(2)
    f._insert((0, 1), 1.0)
    f._insert((1, 0), 1.0)  # equals -(0,1): exact cancellation
    assert f.is_zero() and not f.terms


def test_all_index_pairs_canonicalize(rng):
    # every 2-tuple over the generators lands in strictly increasing order
    n = 2
    for i, k in itertools.product(range(2 * n), repeat=2):
        f = oracles.InvariantForm(n)
        f._insert((i, k), 1.0)
        for idx in f.terms:
            assert list(idx) == sorted(idx)
