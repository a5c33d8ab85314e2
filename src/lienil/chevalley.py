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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _intkernel as ik
from .nilalg import NilpotentAlgebra
from .rootsys import RootSystem, string_down_length


def nilradical(rs: RootSystem) -> NilpotentAlgebra:
    pos = rs.positive_roots
    index = rs.index_of
    nconst: dict[tuple[int, int], int] = {}  # i < j, both positive, sum positive

    def npos(i: int, j: int) -> int:
        if i == j:
            return 0
        if i < j:
            return nconst.get((i, j), 0)
        return -nconst.get((j, i), 0)

    def n_mixed(xi: int, zi: int) -> Fraction:
        """N(x, -z) for distinct positive roots x, z."""
        s = pos[xi] - pos[zi]
        if rs.is_positive_root(s):
            ratio = rs.inner(s, s) / rs.inner(pos[xi], pos[xi])
            return -ratio * npos(zi, index[s])
        t = -s
        if rs.is_positive_root(t):
            ratio = rs.inner(t, t) / rs.inner(pos[zi], pos[zi])
            return ratio * npos(index[t], xi)
        return Fraction(0)

    for gi, gamma in enumerate(pos):
        if gamma.degree == 1:
            continue
        pairs = []
        for ai, alpha in enumerate(pos):
            if alpha.degree >= gamma.degree:
                break
            beta = gamma - alpha
            bi = index.get(beta)
            if bi is not None and bi > ai:
                pairs.append((ai, bi))

        a1, b1 = pairs[0]
        p = string_down_length(rs.is_root, pos[b1], pos[a1])
        nconst[(a1, b1)] = p + 1

        if len(pairs) == 1:
            continue
        # [x_gamma, x_{-alpha1}] lands on x_{beta1} with a known factor.
        n_gamma_down = -(rs.inner(pos[b1], pos[b1]) / rs.inner(gamma, gamma)) * (p + 1)
        for ai, bi in pairs[1:]:
            # Jacobi for (x_{-alpha1}, x_alpha, x_beta); no Cartan part
            # appears because no two of the three roots sum to zero.
            t1 = Fraction(0)
            x = -n_mixed(ai, a1)  # N(-alpha1, alpha)
            if x:
                eta = pos[ai] - pos[a1]
                if rs.is_positive_root(eta):
                    y = Fraction(npos(index[eta], bi))
                else:
                    y = -n_mixed(bi, index[-eta])  # N(-t, beta) = -N(beta, -t)
                t1 = x * y
            t3 = Fraction(0)
            x = n_mixed(bi, a1)  # N(beta, -alpha1)
            if x:
                delta = pos[bi] - pos[a1]
                if rs.is_positive_root(delta):
                    y = Fraction(npos(index[delta], ai))
                else:
                    y = -n_mixed(ai, index[-delta])
                t3 = x * y
            val = -(t1 + t3) / n_gamma_down
            if val.denominator != 1 or val == 0:
                raise AssertionError(f"constant for pair {ai},{bi} is {val}")
            nconst[(ai, bi)] = int(val)

    constants = {(i, j): ((index[pos[i] + pos[j]], v),) for (i, j), v in nconst.items()}
    return NilpotentAlgebra(len(pos), constants)


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
