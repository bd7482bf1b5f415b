"""Seeded generators of the JSON input documents the benchmark feeds hermlab.

Everything here is plain Python plus numpy for the seeded draws; nothing
imports hermlab, so the program under test sees only the emitted documents.
Index conventions follow the input schema of ``hermlab.cli``: 1-based
``{"up": j, "lo": [i, k], "re": x, "im": y}`` terms, and a metric given as an
n x n array of ``[re, im]`` pairs.

Seeded inputs come from a bank of ``VARIANTS`` variants: the workload seed
selects variant ``seed % VARIANTS``.  The bank is finite because the outputs
of every seeded document are checked against reference values stored with the
benchmark (``reference.json``), which ``make_reference.py`` computes once per
variant.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

VARIANTS = 64

# Start size of the descent, as in the ROADMAP's seeded optimize run.
PERTURB = 0.1

# Iteration cap of each descent.  The CLI default of 200 cuts off the rare
# sokc-4 start (1 of 121 surveyed) that crawls along a plateau near F - 24 = 0.012 before
# converging (start seed 33 converges at iteration 205); a descent that still
# reaches this cap fails its output check.
MAX_ITER = 500

# Number of so3c starts in one desc3 batch.
DESC3_BATCH = 16


def rng_for(*key):
    """A numpy Generator determined by a tuple of ints and strings."""
    words = [int.from_bytes(hashlib.sha256(str(k).encode()).digest()[:4], "little")
             for k in key]
    return np.random.default_rng(words)


def variant_of(seed):
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# structure constants, as dense (n, n, n) complex arrays indexed [up, lo1, lo2]


def upper_triangular_nilpotent(k):
    """n(k, C): strictly upper-triangular k x k matrices, basis E_ab (a < b).

    The basis is listed in level order (by b - a, then by a).  The bracket
    [E_ab, E_bc] = E_ac raises the level, so every bracket lands on a later
    basis vector and the identity permutation is a nilpotent-J witness.
    Returns (n, C) with C = -c as in hermlab's catalog for sokc-K.
    """
    pairs = sorted(((a, b) for a in range(k) for b in range(a + 1, k)),
                   key=lambda p: (p[1] - p[0], p[0]))
    index = {p: m for m, p in enumerate(pairs)}
    n = len(pairs)
    C = np.zeros((n, n, n), dtype=complex)
    for (a, b), i in index.items():
        for (b2, c), j in index.items():
            if b2 == b:
                # [E_ab, E_bc] = E_ac and [E_bc, E_ab] = -E_ac
                C[index[(a, c)], i, j] = -1.0
                C[index[(a, c)], j, i] = 1.0
    return n, C


def kodaira_thurston_sum(copies):
    """Direct sum of Kodaira-Thurston algebras: d phi_{2m+2} = phi_{2m+1} ^ phibar_{2m+1}.

    Returns (n, C, D); D != 0, so the Chern connection is non-zero.
    """
    n = 2 * copies
    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    for m in range(copies):
        D[2 * m, 2 * m + 1, 2 * m] = -1.0
    return n, C, D


def heisenberg_centre_first(m):
    """Complex Heisenberg algebra of dimension 2m + 1, centre listed first.

    Basis z, x_1..x_m, y_1..y_m with d z = -sum x_i ^ y_i.  With z first, no
    early frame permutation is triangular, so a permutation search must walk
    far before it finds z moved to the end.  Returns (n, C).
    """
    n = 2 * m + 1
    C = np.zeros((n, n, n), dtype=complex)
    for i in range(m):
        x, y = 1 + i, 1 + m + i
        C[0, x, y] = 1.0
        C[0, y, x] = -1.0
    return n, C


def iwasawa():
    """The Iwasawa manifold: d phi_3 = -phi_1 ^ phi_2.  Returns (n, C)."""
    C = np.zeros((3, 3, 3), dtype=complex)
    C[2, 0, 1] = 1.0
    C[2, 1, 0] = -1.0
    return 3, C


def so3_real_algebra():
    """so(3, C) as a real 6-dimensional algebra with its complex structure.

    Basis u_1..u_3, v_1..v_3 with v = J u and [u_i, u_j] = eps_ijk u_k.
    Returns (dim, f_terms, J) with f_terms listing f^c_{ab} for a < b only
    (the parser fills in the antisymmetric partner).
    """
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    dim = 6
    f = np.zeros((dim, dim, dim))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                f[k, i, j] = eps[i, j, k]
                f[3 + k, i, 3 + j] = eps[i, j, k]
                f[3 + k, 3 + i, j] = eps[i, j, k]
                f[k, 3 + i, 3 + j] = -eps[i, j, k]
    J = np.zeros((dim, dim))
    for i in range(3):
        J[3 + i, i] = 1.0
        J[i, 3 + i] = -1.0
    terms = [{"up": c + 1, "lo": [a + 1, b + 1], "val": float(f[c, a, b])}
             for c in range(dim) for a in range(dim) for b in range(a + 1, dim)
             if f[c, a, b] != 0]
    return dim, terms, J.tolist()


# ---------------------------------------------------------------------------
# metrics and chart starts


def seeded_metric(n, rng):
    """H = X X* / n + I with X complex Gaussian: dense and well conditioned.

    The parts of X are rounded to multiples of 1/16, so every product and sum
    in X X* is exact and H comes out bit for bit the same whatever BLAS
    computes it; the reference values are keyed by the document's bytes.
    """
    re, im = np.round(rng.standard_normal((2, n, n)) * 16.0) / 16.0
    X = re + 1j * im
    return X @ X.conj().T / n + np.eye(n)


def chart_start(n, seed, perturb=PERTURB):
    """The start S0 that ``hermlab optimize --perturb p --seed s`` builds.

    Mirrors ``cmd_optimize``: a Hermitian Gaussian matrix scaled to Frobenius
    norm ``perturb``.  The benchmark records it beside each descent op.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S0 = (x + x.conj().T) / 2
    return S0 * (perturb / np.linalg.norm(S0))


def start_seed(seed, rung, pass_index, member=0):
    """Seed passed to ``--seed`` for one descent start."""
    return int(rng_for("start", seed, rung, pass_index, member).integers(2**31))


# ---------------------------------------------------------------------------
# documents


def _terms(T):
    out = []
    for up, i, k in zip(*np.nonzero(T)):
        z = complex(T[up, i, k])
        out.append({"up": int(up) + 1, "lo": [int(i) + 1, int(k) + 1],
                    "re": z.real, "im": z.imag})
    return out


def _metric(H):
    return [[[float(z.real), float(z.imag)] for z in row] for row in H]


def explicit_doc(n, C, D=None, H=None):
    doc = {"n": n, "C": _terms(C), "D": _terms(D) if D is not None else []}
    if H is not None:
        doc["metric"] = _metric(H)
    return doc


def catalog_doc(name, H=None):
    doc = {"catalog": name}
    if H is not None:
        doc["metric"] = _metric(H)
    return doc


def real_algebra_doc():
    dim, terms, J = so3_real_algebra()
    return {"real_algebra": {"dim": dim, "f": terms, "J": J}}


def doc_digest(doc):
    """SHA-256 of a document's canonical JSON form: its provenance key."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Each rung: (name, why it exists).  The order is the order of a pass.
CLI_SMALL = (
    ("so3c", "semisimple n = 3 catalog entry, identity metric"),
    ("iwasawa", "nilpotent n = 3 catalog entry, non-Kaehler balanced"),
    ("kodaira-thurston", "n = 2 with D != 0, the smallest non-zero Chern connection"),
    ("abelian-3", "flat reference: every tensor vanishes"),
    ("so3c-real", "so(3, C) as real data, so parsing goes through complexify"),
    ("iwasawa-explicit", "explicit C/D terms under a seeded metric"),
)

REPORT_LADDER = (
    ("n6", "sokc-4 under a seeded metric: semisimple, n = 6, full 6! permutation search"),
    ("n10", "n(5, C) in level order under a seeded metric: dense unitary-frame tensors, D = 0"),
    ("n10d", "5 Kodaira-Thurston copies under a seeded metric: D != 0, non-zero Chern connection"),
    ("n15", "n(6, C) in level order under a seeded metric: the largest n of the ladder"),
    ("nilp9", "9-dim complex Heisenberg, centre first, identity metric: the n! nilpotent-J search"),
)

DESCENT = (
    ("desc6", "torsion_functional descent on sokc-4 from a seeded start of norm 0.1"),
    ("desc3", f"a batch of {DESC3_BATCH} torsion_functional descents on so3c, per-call overhead at small n"),
)

RUNGS = {"cli-small": CLI_SMALL, "report-ladder": REPORT_LADDER, "descent": DESCENT}


def analyze_docs(workload, seed):
    """{rung: document} for the analyze workloads."""
    v = variant_of(seed)
    if workload == "cli-small":
        n, C = iwasawa()
        return {
            "so3c": catalog_doc("so3c"),
            "iwasawa": catalog_doc("iwasawa"),
            "kodaira-thurston": catalog_doc("kodaira-thurston"),
            "abelian-3": catalog_doc("abelian-3"),
            "so3c-real": real_algebra_doc(),
            "iwasawa-explicit": explicit_doc(
                n, C, H=seeded_metric(n, rng_for("metric", "iwasawa-explicit", v))),
        }
    if workload == "report-ladder":
        n10, C10 = upper_triangular_nilpotent(5)
        nd, Cd, Dd = kodaira_thurston_sum(5)
        n15, C15 = upper_triangular_nilpotent(6)
        n9, C9 = heisenberg_centre_first(4)
        return {
            "n6": catalog_doc("sokc-4", seeded_metric(6, rng_for("metric", "n6", v))),
            "n10": explicit_doc(n10, C10, H=seeded_metric(n10, rng_for("metric", "n10", v))),
            "n10d": explicit_doc(nd, Cd, Dd, H=seeded_metric(nd, rng_for("metric", "n10d", v))),
            "n15": explicit_doc(n15, C15, H=seeded_metric(n15, rng_for("metric", "n15", v))),
            "nilp9": explicit_doc(n9, C9),
        }
    raise ValueError(f"no analyze documents for workload {workload!r}")


DESCENT_DOCS = {"desc6": catalog_doc("sokc-4"), "desc3": catalog_doc("so3c")}
DESCENT_N = {"desc6": 6, "desc3": 3}

# Critical value of the torsion functional F at the end of each descent.
CRITICAL_F = {"desc6": 24.0, "desc3": 6.0}


def documents(workload, seed):
    """{rung: document} for any workload."""
    return dict(DESCENT_DOCS) if workload == "descent" else analyze_docs(workload, seed)


def descent_starts(seed, pass_index):
    """{rung: [start seeds]} for one descent pass."""
    return {
        "desc6": [start_seed(seed, "desc6", pass_index)],
        "desc3": [start_seed(seed, "desc3", pass_index, m) for m in range(DESC3_BATCH)],
    }
