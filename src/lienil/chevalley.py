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


def _root_tables(rs: RootSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(plus, minus, len2): plus[i, j] for i < j and minus[i, j] index the
    positive roots alpha_i + alpha_j and alpha_i - alpha_j (-1 when that
    is no positive root); len2[i] = (alpha_i, alpha_i) as an integer."""
    c = np.array([r.coeffs for r in rs.positive_roots], dtype=np.int64)
    n, rank = c.shape
    form = np.array(rs.cartan, dtype=np.int64) * np.array(symmetrizer(rs.type), dtype=np.int64)
    len2 = ((c @ form) * c).sum(axis=1)
    # Digits in base 4m + 1 read as -2m..2m hold every sum and difference
    # of two roots, so equal keys mean equal vectors.
    base = 4 * int(c.max()) + 1
    weights = ik.compact(np.array([base**i for i in range(rank)], dtype=object), base**rank)
    keys = c.astype(weights.dtype) @ weights
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


# Cap on the float64 entries of one residue product in verify_jacobi.
_TILE_ENTRIES = 2**19


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
    sorted triples x < y < z are computed and reported.

    The check is exact, not probabilistic.  J is computed modulo each
    prime p of jacobi_primes(a) as three residue matrix products on
    float64 BLAS (ik.residue_matmul): every dot product is an integer
    of at most n * (p - 1)^2 < 2^53, so no rounding occurs, and each
    product is reduced mod p before any sum.  The primes multiply to
    more than 3 * n * tmax^2, so an entry of J that vanishes modulo all
    of them is 0.  Each product fills at most max(_TILE_ENTRIES, n^2)
    float64 entries (4 MiB for n <= 724), so no n^4 array is allocated.

    triples_checked counts the sorted triples containing a pair with a
    nonzero bracket: only those can fail.
    """
    n = a.dim
    primes = jacobi_primes(a)
    t, _, _ = a.int_tensor()
    flagged = np.zeros((n, n, n), dtype=bool)
    side = max(1, math.isqrt(_TILE_ENTRIES // (n * n)))
    for p in primes:
        r = np.remainder(t, p).astype(np.float64)
        for x0 in range(0, n, side):
            xs = slice(x0, x0 + side)
            for y0 in range(x0, n, side):
                ys, zs = slice(y0, y0 + side), slice(y0, n)
                flagged[xs, ys, zs] |= _jacobiator_nonzero(r, p, xs, ys, zs)
    x, y, z = np.nonzero(flagged)
    keep = (x < y) & (y < z)
    violations = tuple(zip(x[keep].tolist(), y[keep].tolist(), z[keep].tolist()))

    edge = np.zeros((n, n), dtype=np.int64)
    i, j = a.bracket_pairs()
    edge[i, j] = edge[j, i] = 1
    free = 1 - edge - np.eye(n, dtype=np.int64)  # distinct pairs with zero bracket
    untouched = int(((free @ free) * free).sum()) // 6
    return JacobiReport(not violations, violations, math.comb(n, 3) - untouched)


def _jacobiator_nonzero(r: np.ndarray, p: int, xs: slice, ys: slice,
                        zs: slice) -> np.ndarray:
    """Mask over (x, y, z) in xs * ys * zs: is J[x,y,z,:] nonzero mod p?

    r is the structure tensor reduced mod p.  The three products give
    the terms T[x,y,m] T[m,z,r], T[y,z,m] T[m,x,r] and T[x,z,m] T[m,y,r]
    (the last one enters J with a minus sign, by antisymmetry).
    """
    n = r.shape[0]
    rx, ry, rz = r[:, xs], r[:, ys], r[:, zs]
    b, c, w = rx.shape[1], ry.shape[1], rz.shape[1]
    # Accumulate in place, so at most three tile-sized arrays are live.
    j = ik.residue_matmul(r[xs, ys].reshape(b * c, n), rz.reshape(n, w * n), p)
    j = j.reshape(b, c, w, n)
    j += ik.residue_matmul(r[ys, zs].reshape(c * w, n), rx.reshape(n, b * n), p) \
        .reshape(c, w, b, n).transpose(2, 0, 1, 3)
    np.subtract(j, p, out=j, where=j >= p)
    xzy = ik.residue_matmul(r[xs, zs].reshape(b * w, n), ry.reshape(n, c * n), p)
    return (j != xzy.reshape(b, w, c, n).transpose(0, 2, 1, 3)).any(axis=3)
