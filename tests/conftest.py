"""Shared random-input builders for the test suite.

Random structures are produced by applying random frame changes (or, on the
real side, random basis changes) to known-valid structures, which preserves
validity while exercising generic dense structure constants.
"""

import numpy as np
import pytest

import hermlab.lie_hermitian as lh


def random_hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def random_hpd(rng, n):
    """A well-conditioned random Hermitian positive definite matrix."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x @ x.conj().T + 0.5 * n * np.eye(n)


def random_unitary(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gl(rng, n, spread=0.4):
    """Random invertible matrix close enough to the identity to stay tame."""
    while True:
        p = np.eye(n) + spread * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        if np.linalg.cond(p) < 50:
            return p


def direct_sum(sc1, sc2):
    """Structure constants of the product algebra, block by block."""
    n = sc1.n + sc2.n
    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    C[: sc1.n, : sc1.n, : sc1.n] = sc1.C
    D[: sc1.n, : sc1.n, : sc1.n] = sc1.D
    C[sc1.n :, sc1.n :, sc1.n :] = sc2.C
    D[sc1.n :, sc1.n :, sc1.n :] = sc2.D
    return lh.StructureConstants(n, C, D)


def n2_family(c):
    """dphi_2 proportional to phi_1 ^ phibar_1 with coefficient set by c."""
    C = np.zeros((2, 2, 2), dtype=complex)
    D = np.zeros((2, 2, 2), dtype=complex)
    D[0, 1, 0] = c
    return lh.StructureConstants(2, C, D)


def semidirect(weights):
    """The complex Lie algebra C x| C^k with [e1, e_{1+m}] = weights[m] e_{1+m},
    so D = 0; unimodular exactly when the weights sum to 0."""
    n = len(weights) + 1
    C = np.zeros((n, n, n), dtype=complex)
    for m, w in enumerate(weights, start=1):
        C[m, 0, m], C[m, m, 0] = w, -w
    return lh.StructureConstants(n, C, np.zeros((n, n, n)))


def nakamura():
    """The Nakamura algebra C x| C^2: [e1, e2] = e2 and [e1, e3] = -e3.
    Unimodular and solvable, but not nilpotent (Nakamura, *Complex
    parallelisable manifolds and their small deformations*, J. Diff. Geom.
    1975)."""
    return semidirect((1.0, -1.0))


def hopf_real():
    """su(2) + R, [e1, e2] = e3 and cyclic, with J e1 = e2 and J e3 = e4:
    the Hopf surface S^3 x S^1 as a real algebra."""
    f = np.zeros((4, 4, 4))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[c, a, b], f[c, b, a] = 1.0, -1.0
    J = np.zeros((4, 4))
    J[1, 0], J[0, 1] = 1.0, -1.0
    J[3, 2], J[2, 3] = 1.0, -1.0
    return lh.RealLieData(4, f, J)


def hopf():
    """The Hopf structure :func:`hopf_real` through ``complexify``; D != 0."""
    return lh.complexify(hopf_real())


def random_base_structure(rng, n):
    """A valid structure of complex dimension n, not yet frame-mixed."""
    if n == 2:
        return n2_family(complex(rng.uniform(0.5, 1.5), rng.uniform(-1, 1)))
    if n == 3:
        name = rng.choice(["so3c", "iwasawa", "kodaira-thurston"])
        if name == "kodaira-thurston":
            return direct_sum(lh.catalog("kodaira-thurston").sc, lh.catalog("abelian-1").sc)
        return lh.catalog(str(name)).sc
    if n == 4:
        pick = rng.integers(3)
        if pick == 0:
            return direct_sum(lh.catalog("so3c").sc, lh.catalog("abelian-1").sc)
        if pick == 1:
            return direct_sum(lh.catalog("iwasawa").sc, lh.catalog("abelian-1").sc)
        return direct_sum(
            lh.catalog("kodaira-thurston").sc, lh.catalog("kodaira-thurston").sc
        )
    raise ValueError(f"no base structure for n = {n}")


def random_structure(rng, n):
    """Random valid structure constants: frame-mixed known algebra."""
    return lh.frame_change(random_base_structure(rng, n), random_gl(rng, n))


def random_two_step_structure(rng, n, m):
    """A 2-step nilpotent structure with C != 0 and D != 0 (2 <= m < n):
    phi_1..phi_m are closed and d phi_j, j > m, is a random combination of
    the phi_i ^ phi_k and phi_i ^ phibar_k with i, k <= m, so d d = 0 holds
    by construction."""
    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    c = draw((n - m, m, m))
    C[m:, :m, :m] = c - c.swapaxes(1, 2)
    D[:m, m:, :m] = draw((m, n - m, m))  # d phi_j has -conj(D[i,j,k]) phi_i ^ phibar_k
    return lh.StructureConstants(n, C, D)


def upper_triangular_nilpotent(k):
    """n(k, C), the strictly upper-triangular k x k matrices with basis E_ab
    (a < b) in level order, as the benchmark's report ladder builds it."""
    pairs = sorted(((a, b) for a in range(k) for b in range(a + 1, k)),
                   key=lambda p: (p[1] - p[0], p[0]))
    index = {p: m for m, p in enumerate(pairs)}
    n = len(pairs)
    C = np.zeros((n, n, n), dtype=complex)
    for (a, b), i in index.items():
        for (b2, c), j in index.items():
            if b2 == b:  # [E_ab, E_bc] = E_ac
                C[index[(a, c)], i, j] = -1.0
                C[index[(a, c)], j, i] = 1.0
    return lh.StructureConstants(n, C, np.zeros_like(C))


def explicit_document(sc, H):
    """The CLI input document of ``sc`` under the metric ``H``: 1-based C/D
    term lists and the metric as [re, im] pairs."""
    def terms(T):
        return [{"up": j + 1, "lo": [i + 1, k + 1], "re": float(T[j, i, k].real),
                 "im": float(T[j, i, k].imag)} for j, i, k in np.argwhere(T != 0).tolist()]

    return {"n": sc.n, "C": terms(sc.C), "D": terms(sc.D),
            "metric": [[[float(z.real), float(z.imag)] for z in row] for row in H]}


def random_real_basis_change(rng, rl, spread=0.3):
    """The same real algebra expressed in a random basis."""
    dim = rl.dim
    while True:
        B = np.eye(dim) + spread * rng.standard_normal((dim, dim))
        if np.linalg.cond(B) < 50:
            break
    Binv = np.linalg.inv(B)
    f = np.einsum("gc,cde,da,eb->gab", Binv, rl.f, B, B, optimize=True)
    J = Binv @ rl.J @ B
    return lh.RealLieData(dim, f, J)


def standard_J(n):
    """The complex structure u_i -> v_i -> -u_i on the basis (u, v) of R^2n."""
    J = np.zeros((2 * n, 2 * n))
    i = np.arange(n)
    J[n + i, i] = 1.0
    J[i, n + i] = -1.0
    return J


def kodaira_thurston_real():
    """Heisenberg x R with the standard complex structure."""
    f = np.zeros((4, 4, 4))
    f[2, 0, 1] = 1.0
    f[2, 1, 0] = -1.0
    J = np.zeros((4, 4))
    J[1, 0], J[0, 1] = 1.0, -1.0
    J[3, 2], J[2, 3] = 1.0, -1.0
    return lh.RealLieData(4, f, J)


def realified_so(k):
    """so(k, C) as a real algebra with its complex structure: the basis
    u_1..u_n, v_1..v_n with v = J u and the brackets of the complex algebra."""
    c = lh.so_structure_constants(k)
    n = c.shape[0]
    f = np.zeros((2 * n, 2 * n, 2 * n))
    f[:n, :n, :n] = c
    f[n:, :n, n:] = c
    f[n:, n:, :n] = c
    f[:n, n:, n:] = -c
    return lh.RealLieData(2 * n, f, standard_J(n))


def realified(sc):
    """The real algebra of the structure ``sc`` with its complex structure
    ``standard_J``: the bracket -N of the structure tensor, written in the
    real basis u_a = e_a + ebar_a, v_a = i (e_a - ebar_a), on which
    ``complexify`` picks e_a back.  Built for any C and D, Jacobi or not."""
    n = sc.n
    a = np.arange(n)
    M = np.zeros((2 * n, 2 * n), dtype=complex)  # the columns u_a, v_a over (e, ebar)
    M[a, a] = M[n + a, a] = 1.0
    M[a, n + a], M[n + a, n + a] = 1j, -1j
    f = np.einsum("cp,prs,ra,sb->cab", np.linalg.inv(M), -lh.structure_tensor(sc), M, M)
    return lh.RealLieData(2 * n, f.real, standard_J(n))


# d phi_1 = -1e200 phi_2 ^ phi_3 under the metric 1e-250 I: the unitary frame
# P = 1e125 I scales C by 1e125, past the largest double
OVERFLOWING_FRAME_DOC = {
    "n": 3,
    "C": [{"up": 1, "lo": [2, 3], "re": 1e200}, {"up": 1, "lo": [3, 2], "re": -1e200}],
    "metric": [[[1e-250 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)],
}

CATALOG_SAMPLE = ["abelian-2", "abelian-3", "so3c", "sokc-4", "iwasawa", "kodaira-thurston"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
