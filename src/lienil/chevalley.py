"""Integer structure constants for the nilradical of a Borel subalgebra.

The nilradical has one basis vector x_alpha per positive root, with
[x_alpha, x_beta] = N(alpha, beta) x_{alpha+beta} when alpha + beta is
a root and 0 otherwise.  The signs N are fixed the standard way: for
each non-simple gamma the pair (alpha1, beta1) summing to gamma with
alpha1 minimal in the root order gets N = +(p+1), where p is the
number of steps the alpha1-string extends below beta1; every other
constant follows from the Jacobi identity applied to the full algebra,
using the relation N(u, v)/(w, w) = N(v, w)/(u, u) for u + v + w = 0 to
reduce mixed-sign constants back to positive ones of lower degree.
All resulting constants are integers with |N| = p + 1 in {1, 2, 3}.

The construction runs on integer tables: each root's coefficient
vector packed into one integer key, the indices of alpha + beta and
alpha - beta found by one sorted lookup of those keys, and squared
lengths from the symmetrized Cartan matrix.  In a Chevalley basis
every N, mixed signs included, is an integer (Carter, Simple Groups of
Lie Type, 1972, 4.1-4.2), so each division the recursion makes is
exact: it is checked, and a remainder or a zero constant raises
AssertionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _intkernel as ik
from .nilalg import NilpotentAlgebra
from .rootsys import RootSystem, symmetrizer


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{num}/{den} is not an integer")
    return q


def _root_keys(c: np.ndarray) -> np.ndarray:
    """One integer key per row of the positive roots' coefficients c,
    additive in the rows, in compact dtype.

    The key is mixed radix: simple root i has the 3 m_i + 1 digits
    -m_i..2m_i, m_i its largest coefficient.  A sum of two positive roots
    has its i-th coefficient in 0..2m_i and a difference in -m_i..m_i, so
    equal keys of such vectors mean equal vectors.  The keys stay in
    int64 up to D22 and A30."""
    radix = (3 * c.max(axis=0) + 1).tolist()
    weights = [math.prod(radix[:i]) for i in range(len(radix))]
    weights = ik.compact(np.array(weights, dtype=object), math.prod(radix))
    return (c.astype(weights.dtype) * weights).sum(axis=1)


def _root_tables(rs: RootSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(plus, minus, len2): plus[i, j] for i < j and minus[i, j] index the
    positive roots alpha_i + alpha_j and alpha_i - alpha_j (-1 when that
    is no positive root); len2[i] = (alpha_i, alpha_i) as an integer."""
    c = np.array([r.coeffs for r in rs.positive_roots], dtype=np.int64)
    n = c.shape[0]
    form = np.array(rs.cartan, dtype=np.int64) * np.array(symmetrizer(rs.type), dtype=np.int64)
    len2 = (ik.exact_matmul(c, form) * c).sum(axis=1)
    keys = _root_keys(c)
    order = np.argsort(keys)
    ranked = keys[order]
    # Roots ascend in degree, so alpha_j - alpha_i is positive only for j > i.
    i, j = np.triu_indices(n, 1)
    want = np.concatenate([keys[i] + keys[j], keys[j] - keys[i]])
    at = np.minimum(np.searchsorted(ranked, want), n - 1)
    found = np.where(ranked[at] == want, order[at], -1).reshape(2, -1)
    plus, minus = np.full((n, n), -1), np.full((n, n), -1)
    plus[i, j] = found[0]
    minus[j, i] = found[1]
    return plus, minus, len2


def nilradical(rs: RootSystem) -> NilpotentAlgebra:
    plus, minus, len2 = _root_tables(rs)
    n = len(plus)
    summing = list(zip(*(k.tolist() for k in np.nonzero(plus >= 0))))
    plus, minus, length = plus.tolist(), minus.tolist(), len2.tolist()
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in summing:
        pairs[plus[a][b]].append((a, b))  # ascending a for each gamma
    nc = [[0] * n for _ in range(n)]  # N(alpha_i, alpha_j), antisymmetric

    for g, prs in enumerate(pairs):
        if not prs:
            continue
        a1, b1 = prs[0]
        # The alpha1-string below beta1 stays positive: alpha1 is no
        # higher than beta1, and only G2 has strings of four roots.
        p, c = 0, minus[b1][a1]
        while c >= 0:
            p, c = p + 1, minus[c][a1]
        nc[a1][b1], nc[b1][a1] = p + 1, -(p + 1)
        if len(prs) == 1:
            continue
        # [x_gamma, x_{-alpha1}] lands on x_{beta1} with a known factor.
        n_gamma_down = _exact(-length[b1] * (p + 1), length[g])
        for a, b in prs[1:]:
            # Jacobi for (x_{-alpha1}, x_alpha, x_beta); no Cartan part
            # appears because no two of the three roots sum to zero.  As
            # alpha and beta come after alpha1 in the root order, u - alpha1
            # for u in {alpha, beta} is a positive root s or no root, and
            # N(u, -alpha1) = -N(alpha1, s) (s, s) / (u, u).
            jac = 0
            for u, v, sign in ((a, b, 1), (b, a, -1)):
                s = minus[u][a1]
                if s >= 0:
                    jac += sign * _exact(-length[s] * nc[a1][s], length[u]) * nc[s][v]
            val = _exact(jac, n_gamma_down)
            if not val:
                raise AssertionError(f"constant for pair {a},{b} is 0")
            nc[a][b], nc[b][a] = val, -val

    terms = [v for a, b in summing for v in (a, b, plus[a][b], nc[a][b], 1)]
    return NilpotentAlgebra._from_terms(n, terms)


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    violations: tuple[tuple[int, int, int], ...]
    triples_checked: int


# Cap on the float64 entries of one block's products in verify_jacobi
# (a block of one x may exceed it), and on one batch of Jacobiators.
_BLOCK_ENTRIES = 2**20
_BATCH_ENTRIES = 2**15


def jacobi_primes(a: NilpotentAlgebra) -> tuple[int, ...]:
    """The residue primes verify_jacobi uses on a: the fewest whose
    product exceeds 3 * n * tmax^2, tmax the largest scaled constant."""
    _, _, tmax = a.int_tensor()
    return ik.primes_exceeding(3 * a.dim * tmax * tmax)


def verify_jacobi(a: NilpotentAlgebra) -> JacobiReport:
    """Check [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on all basis triples.

    With T the integer structure tensor (int_tensor), the Jacobiator of
    the basis triple (x, y, z) has coordinates

        J[x,y,z,r] = sum_m T[x,y,m] T[m,z,r] + T[y,z,m] T[m,x,r] + T[z,x,m] T[m,y,r],

    so |J| <= 3 * n * tmax^2.  J is alternating in x, y, z, and only
    sorted triples x < y < z are computed and reported.  Over the pairs
    a < b let P[ab,c,r] = sum_m T[a,b,m] T[m,c,r]; by antisymmetry

        J[x,y,z] = P[xy,z] - P[xz,y] + P[yz,x],

    so one product of the pair rows of T against T gives all three terms.

    The check is exact, not probabilistic.  J is computed modulo each
    prime p of jacobi_primes(a), whose product exceeds 3 * n * tmax^2,
    so an entry of J that vanishes modulo all of them is 0.  With the
    residues of T in [0, p), each entry of P is an integer in
    [0, n (p - 1)^2], and the sum J' of the three unreduced terms has
    |J'| <= 2 n (p - 1)^2 < 2^53 for n <= 1024 (p < 2^21): float64 BLAS
    and the sum are exact, and J' = J mod p.  p divides J' iff the
    float64 quotient J' / p is an integer: |J' / p| < 2^33, so the
    correctly rounded quotient is off by at most 2^-21 < 1 / p, which
    cannot carry a quotient that is not an integer onto one.

    The work goes in blocks of consecutive x: the pair rows (x, .) of
    the block against every column (c, r) with c >= x0 give the first
    two terms, and the pair rows (y, z), y > x0, against the block's
    columns give the third (a slice of the first product when one block
    covers every x).  A block's products hold at most _BLOCK_ENTRIES
    float64 entries, or those of a single x (under 1.5 n^3), so no n^4
    array is allocated.

    triples_checked counts the sorted triples containing a pair with a
    nonzero bracket: only those can fail.
    """
    n = a.dim
    if 2 * n * (ik.PRIMES[0] - 1) ** 2 >= 2**53:  # the bound above, for every prime
        raise ValueError(f"the Jacobi check is exact only up to dim 1024, not {n}")
    primes = jacobi_primes(a)
    t, _, _ = a.int_tensor()
    pairs = np.triu_indices(n, 1)  # the pairs a < b, lexicographic
    # first[x]: rank of the first sorted triple (x, ., .) in lexicographic order
    first = np.concatenate(([0], np.cumsum([math.comb(n - 1 - x, 2) for x in range(n)])))
    flagged = np.zeros(first[-1], dtype=bool)
    r = np.empty(t.shape)
    for p in primes:
        r[...] = np.remainder(t, p)
        for x0, x1 in _blocks(n):
            ranks = np.arange(first[x0], first[x1])
            flagged[ranks] |= _block_flags(r, p, pairs, x0, x1, *_unrank(n, first, ranks))
    x, q = _unrank(n, first, np.flatnonzero(flagged))
    violations = tuple(zip(x.tolist(), pairs[0][q].tolist(), pairs[1][q].tolist()))

    edge = np.zeros((n, n), dtype=np.int64)
    i, j = a.bracket_pairs()
    edge[i, j] = edge[j, i] = 1
    free = 1 - edge - np.eye(n, dtype=np.int64)  # distinct pairs with zero bracket
    untouched = int((ik.exact_matmul(free, free, 1, 1) * free).sum()) // 6
    return JacobiReport(not violations, violations, math.comb(n, 3) - untouched)


def _pair_start(n: int, x):
    """Index of the first pair (x, .) among the pairs a < b in
    lexicographic order (x may be an array)."""
    return x * n - x * (x + 1) // 2


def _unrank(n: int, first: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, index of the pair (y, z)) of the sorted triples of these ranks."""
    x = np.searchsorted(first, ranks, side="right") - 1
    return x, ranks - first[x] + _pair_start(n, x + 1)


def _blocks(n: int):
    """Consecutive ranges [x0, x1) covering range(n), each as long as
    the float64 entries of its products fit _BLOCK_ENTRIES, and at
    least one x."""
    def entries(x0: int, x1: int) -> int:  # of the products _block_flags makes
        third = 0 if (x0, x1) == (0, n) else (_pair_start(n, n) - _pair_start(n, x0 + 1)) * (x1 - x0)
        return ((_pair_start(n, x1) - _pair_start(n, x0)) * (n - x0) + third) * n

    x0 = 0
    while x0 < n:
        x1 = x0 + 1
        while x1 < n and entries(x0, x1 + 1) <= _BLOCK_ENTRIES:
            x1 += 1
        yield x0, x1
        x0 = x1


def _block_flags(r: np.ndarray, p: int, pairs: tuple[np.ndarray, np.ndarray],
                 x0: int, x1: int, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Is J[x,y,z,:] nonzero mod p, for the sorted triples (x, pairs[q])
    with x in [x0, x1)?  r is the structure tensor reduced mod p."""
    n = r.shape[0]
    pa, pb = pairs
    y, z = pa[q], pb[q]
    lo, hi = _pair_start(n, x0), _pair_start(n, x1)

    def product(r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """P over the pairs of rows [r0, r1) and columns [c0, c1), one
        coordinate r per row: row (pair - r0) * (c1 - c0) + c - c0."""
        return (r[pa[r0:r1], pb[r0:r1]] @ r[:, c0:c1].reshape(n, -1)).reshape(-1, n)

    w1 = n - x0
    if (x0, x1) == (0, n):  # the third term's P is a slice of the first's
        p1 = product(lo, hi, x0, n)
        p2, lo2, w2 = p1, lo, w1
    else:  # P[(y, z), c in [x0, x1)], y > x0, made first so its row copy
        # is freed before the larger P[(x, .), c >= x0]
        lo2, w2 = _pair_start(n, x0 + 1), x1 - x0
        p2 = product(lo2, len(pa), x0, x1)
        p1 = product(lo, hi, x0, n)
    sx = _pair_start(n, x) - x - 1 - lo  # row of the pair (x, b) is sx + b
    i1 = (sx + y) * w1 + z - x0
    i2 = (sx + z) * w1 + y - x0
    i3 = (q - lo2) * w2 + x - x0
    out = np.empty(q.size, dtype=bool)
    batch = max(1, _BATCH_ENTRIES // n)
    for b in range(0, q.size, batch):
        s = slice(b, b + batch)
        quot = (p1[i1[s]] - p1[i2[s]] + p2[i3[s]]) / p
        out[s] = (np.floor(quot) != quot).any(axis=1)
    return out
