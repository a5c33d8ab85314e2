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
from collections.abc import Callable
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


# Most float64 entries of P over every pair that verify_jacobi makes in one product.
_ENTRIES = 2**20


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
    J[x,y,z] = P[xy,z] - P[xz,y] + P[yz,x].

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

    P over every pair is one product when it has at most _ENTRIES
    entries.  Otherwise each x makes P[xb,c], b, c > x, in one product,
    freed before the next x's, and P[yz,x], y > x, batch by batch.

    triples_checked counts the sorted triples containing a pair with a
    nonzero bracket: only those can fail.
    """
    n = a.dim
    if 2 * n * (ik.PRIMES[0] - 1) ** 2 >= 2**53:  # the bound above, for every prime
        raise ValueError(f"the Jacobi check is exact only up to dim 1024, not {n}")
    t, _, _ = a.int_tensor()
    pa, pb = np.triu_indices(n, 1)  # the pairs a < b, lexicographic
    flagged = np.zeros((n, pa.size), dtype=bool)  # J[x, pa[k], pb[k]] != 0
    r = np.empty(t.shape)
    for p in jacobi_primes(a):
        np.remainder(t, p, out=r, casting="unsafe")
        if pa.size * n * n <= _ENTRIES:
            _flag_all(r, p, pa, pb, flagged)
        else:
            for x in range(n - 2):
                _flag_one_x(r, p, pa, pb, x, flagged)
    x, k = np.nonzero(flagged)
    violations = tuple(zip(x.tolist(), pa[k].tolist(), pb[k].tolist()))

    edge = np.zeros((n, n), dtype=np.int64)
    i, j = a.bracket_pairs()
    edge[i, j] = edge[j, i] = 1
    free = 1 - edge - np.eye(n, dtype=np.int64)  # distinct pairs with zero bracket
    untouched = int((ik.exact_matmul(free, free, 1, 1) * free).sum()) // 6
    return JacobiReport(not violations, violations, math.comb(n, 3) - untouched)


def _flag_all(r: np.ndarray, p: int, pa: np.ndarray, pb: np.ndarray, flagged: np.ndarray) -> None:
    """Flag every sorted triple whose Jacobiator p does not divide; r is T mod p."""
    n = len(r)
    pair = np.zeros((n, n), dtype=np.int64)
    pair[pa, pb] = np.arange(pa.size)
    x, k = np.nonzero(np.arange(n)[:, None] < pa)  # the triples (x, pa[k], pb[k])
    prod = (r[pa, pb] @ r.reshape(n, -1)).reshape(-1, n)  # row k * n + c: P[k, c]
    flagged[x, k] |= _fails(p, prod, pair[x, pa[k]] * n + pb[k], pair[x, pb[k]] * n + pa[k],
                            lambda s: prod[k[s] * n + x[s]])


def _flag_one_x(r: np.ndarray, p: int, pa: np.ndarray, pb: np.ndarray, x: int,
                flagged: np.ndarray) -> None:
    """Flag the sorted triples (x, y, z) whose Jacobiator p does not divide."""
    n, m = len(r), len(r) - 1 - x
    k0 = np.searchsorted(pa, x, side="right")  # the pairs (y, z), y > x
    y, z = pa[k0:] - x - 1, pb[k0:] - x - 1
    prod = (r[x, x + 1:] @ r[:, x + 1:].reshape(n, -1)).reshape(-1, n)  # P[x(x+1+b), x+1+c]
    flagged[x, k0:] |= _fails(p, prod, y * m + z, z * m + y,
                              lambda s: r[pa[k0:][s], pb[k0:][s]] @ r[:, x])


def _fails(p: int, prod: np.ndarray, first: np.ndarray, second: np.ndarray,
           third: Callable[[slice], np.ndarray]) -> np.ndarray:
    """Is prod[first] - prod[second] + third(s) nonzero mod p, slice s by slice?"""
    out = np.empty(first.size, dtype=bool)
    step = max(1, _ENTRIES // (16 * prod.shape[1]))  # four temporaries, _ENTRIES / 4 in all
    for b in range(0, first.size, step):
        s = slice(b, b + step)
        j = (prod[first[s]] - prod[second[s]] + third(s)) / p
        out[s] = (np.floor(j) != j).any(axis=1)
    return out
