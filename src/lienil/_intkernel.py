"""Exact integer kernels: matrix products and the one row-reduction engine.

All arithmetic is integer-exact.  Bulk products run on numpy int64 when
an a-priori bound certifies that no intermediate value can overflow,
and otherwise on object-dtype arrays of Python ints, so results are
identical either way.  Products of residues modulo a word-size prime
run on float64 BLAS, which is exact under the bound stated in
residue_matmul.

ScaledRref is the package's only row reduction: the lower central
series, graded pairings, scaled_inverse, and exactlin's rref, kernel
and inverse all run on it.  Fractions appear only at the boundary:
scaled_int turns a rational Matrix into integer rows, and to_subspace
turns a row space back into its canonical rational basis.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import exactlin

_INT64_SAFE = 2**62
_FLOAT64_EXACT = 2**53


def _primes_descending(top: int, span: int) -> tuple[int, ...]:
    """Every prime in [top - span, top), largest first (segmented sieve;
    needs top - span > sqrt(top))."""
    root = math.isqrt(top)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q::q] = False
    lo = top - span
    seg = np.ones(span, dtype=bool)
    for q in np.flatnonzero(small).tolist():
        seg[-lo % q::q] = False
    return tuple((lo + np.flatnonzero(seg)[::-1]).tolist())


# The residue primes, about 2,300 of them, each just below 2^21: a
# residue product stays exact for inner dimensions up to 2^53 / 2^42 =
# 2048, beyond any dense structure tensor that fits in memory.
PRIMES = _primes_descending(2**21, 2**15)


def primes_exceeding(bound: int) -> tuple[int, ...]:
    """The shortest prefix of PRIMES whose product exceeds bound.

    An integer of absolute value at most bound that vanishes modulo
    every returned prime is zero (Chinese remainder theorem).
    """
    prod, k = 1, 0
    while prod <= bound:
        if k == len(PRIMES):
            raise ValueError(f"a {bound.bit_length()}-bit bound exceeds the product "
                             f"of all {k} residue primes")
        prod *= PRIMES[k]
        k += 1
    return PRIMES[:k]


def residue_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for float64 matrices with entries in [0, p).

    float64 BLAS is exact here: every partial dot product is an integer
    x with 0 <= x <= inner * (p - 1)^2 < 2^53.  The product is reduced
    before it is returned, so callers never sum unreduced products.  The
    reduction x - floor(x / p) * p is exact: for such x the correctly
    rounded quotient is off from x / p by less than 1 / p, which cannot
    carry it across an integer.  (np.fmod gives the same values, but
    its cost grows with the bit length of the quotient: about 30 times
    slower on these products.)
    """
    assert a.shape[1] * (p - 1) ** 2 < _FLOAT64_EXACT, "residue product could round"
    out = a @ b
    quot = out / p
    np.floor(quot, out=quot)
    quot *= p
    out -= quot
    return out


def scaled_int(m: exactlin.Matrix) -> tuple[np.ndarray, int]:
    """(s * m as an object array of Python ints, s) for a rational
    matrix m, where s is the least common denominator of its entries."""
    s = math.lcm(*(x.denominator for row in m.entries for x in row))
    rows = [[x.numerator * (s // x.denominator) for x in row] for row in m.entries]
    return np.array(rows, dtype=object).reshape(m.rows, m.cols), s


def max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return int(np.abs(a).max())


def _as_object(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == object else a.astype(object)


def _as_int64(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == np.int64 else a.astype(np.int64)


def exact_matmul(a: np.ndarray, b: np.ndarray, a_max: int | None = None,
                 b_max: int | None = None, b64: np.ndarray | None = None,
                 box: bool = True) -> np.ndarray:
    """a @ b with exact integer results, int64-accelerated when safe.

    b64 may hold a pre-converted int64 copy of b to spare repeated
    conversions.  With box=False the accelerated path returns the raw
    int64 product; callers must then box entries (astype to object)
    before mixing them into unbounded arithmetic.
    """
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=object)
    if a_max is None:
        a_max = max_abs(a)
    if b_max is None:
        b_max = max_abs(b)
    inner = a.shape[1]
    if a_max and b_max and inner * a_max * b_max < _INT64_SAFE:
        out = _as_int64(a) @ (b64 if b64 is not None else _as_int64(b))
        return out.astype(object) if box else out
    return _as_object(a) @ _as_object(b)


def _content(v: np.ndarray) -> int:
    """gcd of the entries of an integer vector, 0 for the zero vector."""
    m = max_abs(v)
    if m == 0:
        return 0
    if m < _INT64_SAFE:
        return int(np.gcd.reduce(v.astype(np.int64)))
    g = 0
    for x in v:
        if x:
            g = math.gcd(g, int(x))
            if g == 1:
                break
    return g


class ScaledRref:
    """Canonical reduced row echelon form with scaled-integer rows.

    Row r represents nums[r] / dens[r]: it reads 1 at its own pivot
    column, 0 at every other pivot column, and gcd(content, den) = 1.
    Because stored rows are fully reduced against each other, reducing
    a vector is a single linear combination rather than an elimination
    cascade, so entry sizes track the canonical basis itself and bulk
    membership tests batch into one integer matrix product.
    """

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.pivots: list[int] = []
        self.nums: list[np.ndarray] = []
        self.dens: list[int] = []
        self._maxes: list[int] = []
        self._cache: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def denominator(self) -> int:
        """The common denominator d of the stored rows, which scales
        every residual."""
        return self._scaled()[2]

    def _scaled(self) -> tuple[np.ndarray, np.ndarray, int, int, np.ndarray | None]:
        """(pivot columns, common-denominator numerators, denominator,
        max entry, int64 copy of the numerators when they fit)."""
        if self._cache is None:
            d = 1
            for q in self.dens:
                d = d * q // math.gcd(d, q)
            if self.nums:
                rnum = np.stack([
                    num if den == d else num * (d // den)
                    for num, den in zip(self.nums, self.dens)
                ])
                rmax = max(m * (d // den) for m, den in zip(self._maxes, self.dens))
            else:
                rnum = np.zeros((0, self.ambient), dtype=object)
                rmax = 0
            rnum64 = rnum.astype(np.int64) if rmax < _INT64_SAFE else None
            self._cache = (np.array(self.pivots, dtype=np.intp), rnum, d, rmax, rnum64)
        return self._cache

    def residuals(self, mat: np.ndarray, mat_max: int | None = None) -> np.ndarray:
        """d * (mat - projection of mat onto the span), row by row.

        A row of mat lies in the span iff its residual row is zero; the
        scaling by the common denominator d keeps everything integral.
        The accelerated path returns a raw int64 array, so callers must
        box entries before unbounded arithmetic.
        """
        if mat.shape[0] == 0 or not self.pivots:
            return mat
        piv, rnum, d, rmax, rnum64 = self._scaled()
        if mat_max is None:
            mat_max = max_abs(mat)
        k = len(self.pivots)
        if mat_max and rnum64 is not None and (d + k * rmax) * mat_max < _INT64_SAFE:
            m64 = _as_int64(mat)
            return d * m64 - m64[:, piv] @ rnum64
        mo = _as_object(mat)
        return d * mo - mo[:, piv] @ rnum

    def insert(self, v: np.ndarray) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        r = self.residuals(np.asarray(v, dtype=object).reshape(1, -1))[0]
        p = next((idx for idx, x in enumerate(r) if x), None)
        if p is None:
            return False
        r = r.astype(object, copy=True)
        g = _content(r)
        if r[p] < 0:
            g = -g
        if g != 1:
            r = r // g
        den = int(r[p])
        # Knock the new pivot column out of every stored row.  Stored
        # rows vanish at each other's pivots, so each update is one
        # combination and the result is renormalized immediately.
        for idx, (num, d0) in enumerate(zip(self.nums, self.dens)):
            c = num[p]
            if c:
                tmp = num * den - r * int(c)
                dt = d0 * den
                g2 = math.gcd(_content(tmp), dt)
                if g2 != 1:
                    tmp = tmp // g2
                self.nums[idx] = tmp
                self.dens[idx] = dt // g2
                self._maxes[idx] = max_abs(tmp)
        at = int(np.searchsorted(np.array(self.pivots), p)) if self.pivots else 0
        self.pivots.insert(at, p)
        self.nums.insert(at, r)
        self.dens.insert(at, den)
        self._maxes.insert(at, max_abs(r))
        self._cache = None
        return True

    def insert_rows(self, mat: np.ndarray, chunk: int = 256) -> int:
        """Add every row of mat; returns the dimension growth.

        Rows already inside the span are filtered out a chunk at a time
        with one batched residual product; each surviving row is then
        inserted individually against the refreshed span, so rows whose
        stale residual was zero are always still members.
        """
        added = 0
        for lo in range(0, mat.shape[0], chunk):
            block = mat[lo:lo + chunk]
            res = self.residuals(block)
            for r in range(block.shape[0]):
                if res[r].any() and self.insert(block[r]):
                    added += 1
        return added

    def snapshot(self) -> "ScaledRref":
        s = ScaledRref(self.ambient)
        s.pivots = list(self.pivots)
        s.nums = list(self.nums)  # row arrays are replaced, never mutated
        s.dens = list(self.dens)
        s._maxes = list(self._maxes)
        s._cache = self._cache
        return s

    def basis_matrix(self) -> np.ndarray:
        """Integer rows spanning the space (canonical rows rescaled)."""
        if not self.nums:
            return np.zeros((0, self.ambient), dtype=object)
        return np.stack(self.nums)

    def to_subspace(self) -> exactlin.Subspace:
        """The span as a canonical rational subspace; the stored rows
        already form the reduced echelon basis, so this is one exact
        division per entry."""
        if not self.nums:
            return exactlin.Subspace.zero(self.ambient)
        rows = [
            tuple(Fraction(int(x), den) for x in num)
            for num, den in zip(self.nums, self.dens)
        ]
        m = exactlin.Matrix(tuple(rows), len(rows), self.ambient)
        return exactlin.Subspace(self.ambient, m)


def rref_from_rows(rows: np.ndarray, ambient: int) -> ScaledRref:
    e = ScaledRref(ambient)
    e.insert_rows(rows)
    return e


def scaled_inverse(mi: np.ndarray, s: int) -> tuple[np.ndarray, int]:
    """(V, d) with V / d the inverse of the square matrix mi / s, for
    an integer matrix mi; V holds Python ints.

    [mi | s * I] reduces to [I | (mi / s)^-1]: V is the right half of
    the reduced rows over their common denominator d.  The rank is
    always n, so mi is singular iff some pivot lies past column n.
    """
    n = mi.shape[0]
    red = rref_from_rows(np.hstack([mi, s * np.eye(n, dtype=object)]), 2 * n)
    if red.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    _, rnum, d, _, _ = red._scaled()
    return rnum[:, n:], d
