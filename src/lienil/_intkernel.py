"""Exact integer kernels: matrix products and the one row-reduction engine.

All arithmetic is integer-exact.  This module alone decides how an
integer array is held: compact() gives int64 when every entry is below
2^62 and Python ints (object dtype) otherwise, and scale_rows, the one
row-scaling helper, promotes by an a-priori bound before it multiplies.
exact_matmul alone picks a product route: a gather of the right
operand's rows when no row of the left one has two nonzero entries (as
in a Chevalley basis, where every bracket is one basis vector), float64
BLAS passes, each exact below 2^53, when an a-priori bound keeps every
dot product below 2^62 (_int64_matmul), and Python ints above.  Residue
products (_mod_matmul) run on float64 BLAS too: no product reaches
numpy's own int64 matmul, which runs without BLAS.

ScaledRref is the package's only row-reduced form: its rows are held
over one denominator, in compact dtype.  rref_from_rows is the
every-row reduction: the pairing kernels and exactlin's kernel are one
null_space each, and scaled_inverse (change_basis, exactlin's inverse,
and a graded piece's coset coordinates when they are not diagonal)
reduces [m | sI] unless float64 finds an integer inverse (below).
rref_of_base_rows, the base-row one, reduces each certified series
term, from F_3 on in the previous term's pivot coordinates
(ScaledRref.lift).  Graded pairings reduce nothing: they read
coordinates off the series' canonical rows.  Rows with at most one
nonzero entry each span exactly the unit vectors at their columns, and
reduce to those at once, with no prime; a residual against unit rows
only zeroes columns.  In a Chevalley-basis table every series
term and pairing kernel takes these routes.  Any other reduction runs
modulo primes from PRIMES, with CRT and rational reconstruction under
an exact certificate (_certified_rref).

Under its base prime a reduction makes at most two residue
eliminations (_echelon_mod): the first `cols` rows, then, if rows
remain and the rank is below `cols`, one fixed integer sketch of the
rest (_sketch).  The base rows are input rows plus exact integer
combinations of them, and every candidate passes an exact certificate,
so an unlucky sketch, like an unlucky prime, only costs a new attempt
from the next prime, or the definitional series.  Candidates are
reconstructed at 1, 2, 4, 8, ... primes and at the last (_certified_rref).

Two exact results are certified instead of recomputed:

* The inverse of an int64 matrix m (_checked_inverse): np.linalg.inv,
  rounded to an integer matrix v, is adopted only if exact_matmul(m, v)
  is the identity, since M V = I proves V = M^-1.  A float64 guess
  counts only through that exact product, so rounding can cost the
  fallback to the certified reduction, never a wrong inverse.  A
  random_unimodular scramble takes this route with no prime.
* A span test (ScaledRref.holds): whether every row has zero residual.
  An a-priori bound B on the residual picks the route: below 2^62 the
  residual itself, in int64; up to the product of PRIMES, the residual
  modulo each of primes_exceeding(B), one float64 pass per prime, as an
  integer of absolute value at most B that vanishes modulo a product
  larger than B is zero (Chinese remainder theorem); past that supply,
  the residual in Python ints.  A product handed over as its two
  factors is reduced factor by factor, never formed in Python ints.

Structure constants arrive as nilalg's integer tensor, files included;
Fractions appear only where scaled_int reads rational matrices and
where exactlin.rational_rows builds the rational views.
"""

from __future__ import annotations

import math

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
# residue product takes one float64 pass up to inner dimension 2^53 /
# 2^42 = 2048 and split passes up to 2^20 (_mod_matmul); a sketch's
# signed entries keep one pass to 2^28 (E8's has inner dimension 7,020).
PRIMES = _primes_descending(2**21, 2**15)


class PrimesExhausted(ArithmeticError):
    """An exact result needs more residue primes than PRIMES holds."""


def primes_exceeding(bound: int) -> tuple[int, ...]:
    """The shortest prefix of PRIMES whose product exceeds bound.

    An integer of absolute value at most bound that vanishes modulo
    every returned prime is zero (Chinese remainder theorem).
    """
    prod, k = 1, 0
    while prod <= bound:
        if k == len(PRIMES):
            raise PrimesExhausted(f"a {bound.bit_length()}-bit bound exceeds the product "
                             f"of all {k} residue primes")
        prod *= PRIMES[k]
        k += 1
    return PRIMES[:k]


def scaled_int(m: exactlin.Matrix) -> tuple[np.ndarray, int]:
    """(s * m as an object array of Python ints, s) for a rational
    matrix m, where s is the least common denominator of its entries."""
    s = math.lcm(*(x.denominator for row in m.entries for x in row))
    rows = [[x.numerator * (s // x.denominator) for x in row] for row in m.entries]
    return np.array(rows, dtype=object).reshape(m.rows, m.cols), s


def max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _as_object(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == object else a.astype(object)


def _as_int64(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == np.int64 else a.astype(np.int64)


def compact(a: np.ndarray, a_max: int) -> np.ndarray:
    """The integer array a, whose largest absolute entry is a_max, in
    int64 when a_max is below 2^62 and as Python ints otherwise."""
    return _as_int64(a) if a_max < _INT64_SAFE else _as_object(a)


def scale_rows(a: np.ndarray, f, a_max: int | None = None) -> np.ndarray:
    """a * f in compact dtype, for an integer array a whose largest
    absolute entry is a_max (computed when not given) and an int f, or
    an integer array of factors, one per row (int64 or Python ints).
    The a-priori bound a_max * max |f| picks the route: int64 below
    2^62, where the product cannot overflow, and Python ints otherwise."""
    a_max = max_abs(a) if a_max is None else a_max
    bound = max(a_max, 1) * (abs(f) if isinstance(f, int) else max_abs(f.reshape(-1)))
    if bound < _INT64_SAFE:  # so f fits int64 too
        return _as_int64(a) * np.asarray(f, dtype=np.int64)
    out = _as_object(a) * f
    return compact(out, max_abs(out))


def exact_matmul(a: np.ndarray, b: np.ndarray, a_max: int | None = None,
                 b_max: int | None = None, b_float: np.ndarray | None = None) -> np.ndarray:
    """a @ b with exact integer results, for int64 or object matrices
    whose largest absolute entries are a_max and b_max (computed when
    not given): the package's one product router.

    When no row of a has two nonzero entries, row r of the product is
    a[r, c] * b[c] for its one nonzero a[r, c] (or zero): a gather of b,
    scaled by scale_rows and returned in compact dtype.  Only a is
    inspected, by one count_nonzero pass.  Otherwise, when inner * a_max
    * b_max is below 2^62, the product runs in exact float64 passes
    (_int64_matmul, reading b_float, b in float64, when given) and is
    returned in int64; above, it runs on Python ints.  Arithmetic that
    mixes an int64 result with an object array promotes it to Python
    ints, so callers never box.
    """
    support = _monomial_support(a)  # also an empty a
    if support is not None:
        return _gather_matmul(a, b, b_max, *support)
    a_max = max_abs(a) if a_max is None else a_max
    b_max = max_abs(b) if b_max is None else b_max
    if not b_max:  # zeros, whatever a holds
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if a.shape[1] * a_max * b_max < _INT64_SAFE:
        return _int64_matmul(_as_int64(a), _as_int64(b), a_max, b_max, b_float)
    return _as_object(a) @ _as_object(b)


def _monomial_support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, columns) of the nonzero entries of a, row by row, when no
    row holds more than one, and None otherwise.  Only a with at most
    one nonzero entry per row on average is looked at twice."""
    if np.count_nonzero(a) > a.shape[0]:
        return None
    rows, cols = np.nonzero(a)
    return (rows, cols) if (rows[1:] > rows[:-1]).all() else None


def _gather_matmul(a: np.ndarray, b: np.ndarray, b_max: int | None,
                   rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a @ b for a whose only nonzero entries are a[rows, cols], one per
    row at most: row r of the product is a[r, c] * b[c], a gather of b
    scaled by scale_rows, and a zero row of a gives a zero row."""
    g = scale_rows(b[cols], a[rows, cols].reshape(-1, 1), b_max)
    if rows.size == a.shape[0]:
        return g
    out = np.zeros((a.shape[0], b.shape[1]), dtype=g.dtype)
    out[rows] = g
    return out


def _int64_matmul(a: np.ndarray, b: np.ndarray, a_max: int, b_max: int,
                  b_float: np.ndarray | None = None) -> np.ndarray:
    """a @ b in int64 on float64 BLAS, for int64 matrices whose largest
    absolute entries are a_max and b_max, with inner * a_max * b_max <
    2^62; every pass by b reads b_float (b in float64) when given.

    Below 2^53 one pass is exact: float64 holds every partial dot
    product.  Above, the operand with the larger entries is split (b by
    transposing), after Ozaki, Ogita, Oishi and Rump (Numer. Algorithms
    59, 2012): a = hi * 2^s + lo, hi = a >> s, lo = a & (2^s - 1) in
    [0, 2^s), s the largest with inner * 2^s * b_max < 2^53, so the pass
    over lo is exact.  |hi| <= (a_max >> s) + 1, and hi @ b is split
    again while its bound reaches 2^53.  In the int64 sum, |(hi @ b) *
    2^s| <= inner * (a_max + 2^s) * b_max < 2^62 + 2^53 < 2^63.  As
    b_max <= a_max, inner * b_max < 2^31 * sqrt(inner), so s >= 1 for
    inner below 2^40, and each split shrinks hi."""
    inner = a.shape[1]
    if inner * a_max * b_max >= _FLOAT64_EXACT and b_max > a_max:
        return _int64_matmul(b.T, a.T, b_max, a_max).T
    bf = b.astype(np.float64) if b_float is None else b_float
    if inner * a_max * b_max < _FLOAT64_EXACT:
        return _float64_pass(a, bf)
    s = ((_FLOAT64_EXACT - 1) // (inner * b_max)).bit_length() - 1
    out = _int64_matmul(a >> s, b, (a_max >> s) + 1, b_max, bf)
    out *= 2**s
    out += _float64_pass(a & (2**s - 1), bf)
    return out


def _float64_pass(a: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """a @ bf in int64, a slice of rows at a time; exact below 2^53."""
    out = np.empty((a.shape[0], bf.shape[1]), dtype=np.int64)
    step = 2**17 // max(1, bf.shape[1]) + 1
    for lo in range(0, a.shape[0], step):
        out[lo:lo + step] = a[lo:lo + step].astype(np.float64) @ bf
    return out


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    return (a % p).astype(np.int64, copy=False)


def _mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for int64 residues in [0, p).  Below 2^53 one float64
    pass is exact: every partial dot product is an integer x with 0 <= x
    <= inner * (p - 1)^2, and in x - floor(x / p) * p the rounded
    quotient is off from x / p by less than 1 / p, which cannot carry it
    across an integer (np.fmod is about 30 times slower).  Above, the
    split passes of _int64_matmul, exact for inner below 2^20."""
    if a.shape[1] * (p - 1) ** 2 >= _FLOAT64_EXACT:
        return _int64_matmul(a, b, p - 1, p - 1) % p
    out = a.astype(np.float64) @ b.astype(np.float64)
    quot = out / p
    np.floor(quot, out=quot)
    quot *= p
    out -= quot
    return out.astype(np.int64)


def _eliminate(x: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Gauss-Jordan elimination of int64 residues x mod p in place, one
    numpy step per column nonzero on entry (row operations keep a zero
    column zero): (pivots, row permutation); reduced rows in x[:rank],
    every entry of x reduced mod p on return.

    Reduction is lazy: a step reduces only the column f it searches and
    the pivot row r, and subtracts f * r from the block unreduced, so
    every entry stays within (steps + 1) * p^2 < 2^63 until the one
    reduction at the end.  Rows stay in place until then: a column's
    pivot row is the free row with the largest residue there (any
    nonzero one gives the same reduced rows), and the loop stops when
    the rows run out.
    """
    rows, cols = x.shape
    assert (min(rows, cols) + 1) * p * p < 2**63, "lazy reduction could overflow"
    piv: list[int] = []
    prow: list[int] = []
    free = np.ones(rows, dtype=np.int64)
    for c in np.flatnonzero(x.any(axis=0)).tolist():
        if len(piv) == rows:
            break
        f = x[:, c] % p
        candidates = f * free
        i = int(candidates.argmax())
        if not candidates[i]:
            continue
        r = x[i, c:] % p * pow(int(f[i]), -1, p) % p
        x[:, c:] -= f[:, None] * r
        x[i, c:] = r
        free[i] = 0
        piv.append(c)
        prow.append(i)
    order = np.concatenate([np.array(prow, dtype=np.intp), np.flatnonzero(free)])
    np.remainder(x[order], p, out=x)
    return piv, order


# Sketch rows beyond the rank the first block leaves to find.
_SKETCH_EXTRA = 4
# Odd 64-bit multipliers: for row, column and prime, then the mixing round.
_SPREAD = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xBF58476D1CE4E5B9)


def _sketch(k: int, m: int, p: int) -> np.ndarray:
    """A fixed k x m int64 matrix with entries in [-16, 15]: the top five
    bits of a 64-bit hash (one xorshift-multiply round) of row, column
    and the prime p, so each prime has its own, with no state."""
    u64 = np.uint64
    h = (np.arange(k, dtype=u64)[:, None] * u64(_SPREAD[0]) ^ np.arange(m, dtype=u64) * u64(_SPREAD[1])
         ^ u64(p * _SPREAD[2] % 2**64))
    h ^= h >> u64(32)
    h *= u64(_SPREAD[3])
    return (h >> u64(59)).astype(np.int64) - 16


def _echelon_mod(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduced echelon form of int64 residues a mod p, in at most two
    eliminations: (pivots, reduced rows, sel, mix), spanning mod p the
    rows a[sel] plus, when mix is given, the rows of mix @ a[cols:].

    The first elimination takes the first `cols` rows, and sel are those
    that carry its pivots.  At rank `cols` no other row is read.  Below
    it, a fixed sketch (_sketch) of cols - rank + 4 combinations of the
    remaining rows is reduced against the first block and eliminated;
    the combinations that carry new pivots form mix.  Only an unlucky p
    or sketch leaves the rank mod p short, which the caller's exact
    certificate catches.
    """
    cols = a.shape[1]
    x = a[:cols].copy()
    piv, order = _eliminate(x, p)
    sel, red, mix = order[:len(piv)], x[:len(piv)], None
    if a.shape[0] > cols and len(piv) < cols:
        s = _sketch(cols - len(piv) + _SKETCH_EXTRA, a.shape[0] - cols, p)
        z = exact_matmul(s, a[cols:], 16, p - 1) % p  # one float64 pass for inner below 2^28
        z = (z - _mod_matmul(z[:, piv], red, p)) % p
        if z.any():  # a remaining row is not spanned
            zpiv, zorder = _eliminate(z, p)
            zred = z[:len(zpiv)]
            red = (red - _mod_matmul(red[:, zpiv], zred, p)) % p
            piv, red, mix = piv + zpiv, np.vstack([red, zred]), s[zorder[:len(zpiv)]]
    at = np.argsort(piv)
    return [piv[i] for i in at], red[at], sel, mix


def _reconstruct(res: np.ndarray, m: int, piv: list[int], ambient: int) -> "ScaledRref | None":
    """The rational rows that the reduced echelon rows res hold modulo m,
    or None if an entry is no fraction within Wang's bound.  A row's
    denominator is built from scalar reconstructions of entries still
    large after scaling by the factors so far; as Wang's bound holds
    entry by entry, rows meet their lcm only at the end.  Zeros and
    pivot ones lift to zeros and the denominator."""
    bound = math.isqrt((m - 1) // 2)
    # Every product below is under m * bound: int64 holds it up to two primes.
    if m * bound < 2**63:
        res, dens = _as_int64(res), np.ones(len(piv), dtype=np.int64)
    else:
        dens = np.ones(len(piv), dtype=object)
    while True:
        y = res * dens[:, None] % m
        y = np.where(y > m // 2, y - m, y)
        big = np.abs(y) > bound
        todo = np.flatnonzero(big.any(axis=1))
        if not todo.size:
            break
        for i in todo.tolist():
            # Wang: the fraction r1 / t1 = u mod m with |r1|, |t1| <= bound
            # comes from extended Euclid stopped at the first r1 <= bound.
            r0, r1, t0, t1 = m, int(y[i, big[i].argmax()]) % m, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if abs(dens[i] * t1) > bound or math.gcd(r1, t1) != 1:
                return None
            dens[i] *= abs(t1)
    g = np.gcd.reduce(y, axis=1)
    dens = (dens // g).astype(object)  # Python ints: their lcm can pass 2^63
    d = math.lcm(1, *dens)
    return ScaledRref(ambient, piv, scale_rows(y // g[:, None], (d // dens)[:, None], bound), d)


def _certified_rref(rows: np.ndarray, ambient: int, every_row: bool) -> "ScaledRref":
    """The canonical reduced echelon basis of the span of the integer
    rows, zero rows dropped.  Rows with at most one nonzero entry each
    span the coordinate subspace on their columns, returned at once.
    Otherwise a base prime gives, in at most two eliminations
    (_echelon_mod), their rank r mod p and r base rows carrying it:
    input rows and exact integer combinations of them, independent over
    Q too.  Later primes reduce only those, joined by CRT.  A candidate
    of r rows (Wang), tried at 1, 2, 4, ... primes and at the last, is
    adopted if every input row (every_row) or base row has zero
    residual against it: the canonical form of the row span (as r <=
    rank over Q) or of the base rows'.  A new attempt, from the next
    prime, starts when a later prime moves the base rows' pivots, or
    when, with every_row, a candidate holds the base rows but not every
    input row (an unlucky base prime or sketch).  Any other failure
    waits for more primes: a small modulus still gives most residues a
    fraction.  r = ambient proves the whole space."""
    support = _monomial_support(rows)
    if support is not None:  # the span of the unit vectors at the rows' columns
        hit = np.zeros(ambient, dtype=bool)
        hit[support[1]] = True
        return ScaledRref.coordinate(ambient, np.flatnonzero(hit).tolist())
    rows = rows[rows.any(axis=1)]
    base = None
    for p in PRIMES:
        if base is None:
            piv, acc, sel, mix = _echelon_mod(_residues(rows, p), p)
            if len(piv) == ambient:
                return ScaledRref.full(ambient)
            base, m, k = rows[sel], p, 1
            if mix is not None:  # sketch entries are at most 16 in absolute value
                base = np.vstack([base, exact_matmul(mix, rows[ambient:], 16)])
        else:
            x = _residues(base, p)
            if _eliminate(x, p)[0] != piv:
                base = None  # p or the base prime divides a minor of the base rows
                continue
            t = (x[:len(piv)] - _residues(acc, p)) * pow(m, -1, p) % p  # CRT
            wide = m * p >= _INT64_SAFE
            acc, m, k = (_as_object(acc) + t.astype(object) * m if wide else acc + t * m), m * p, k + 1
        if k & (k - 1) and p != PRIMES[-1]:
            continue  # reconstruct at 1, 2, 4, 8, ... primes and at the last one
        cand = _reconstruct(acc, m, piv, ambient)
        if cand is not None:
            if cand.holds(rows if every_row else base):
                return cand
            if every_row and cand.holds(base):
                base = None  # r fell short of the rank: the base prime or sketch was unlucky
    raise PrimesExhausted(f"row reduction needs more than the {len(PRIMES)} residue primes")


class ScaledRref:
    """Canonical reduced row echelon form with rows over one denominator.

    Row r of the basis is nums[r] / den: it reads 1 at its own pivot
    column and 0 at every other pivot column.  den is the lcm of the
    rows' denominators, so gcd(den, content(nums)) = 1, and nums, one
    integer array with a row per pivot, is in compact dtype, its largest
    absolute entry nmax.  As the rows are fully reduced against each
    other, reducing a vector is one linear combination, and bulk
    membership tests batch into one integer matrix product.
    """

    def __init__(self, ambient: int, pivots=(), nums: np.ndarray | None = None, den: int = 1):
        self.ambient, self.pivots, self.den = ambient, list(pivots), den
        nums = np.zeros((0, ambient), dtype=np.int64) if nums is None else nums
        self.nmax = max_abs(nums)
        self.nums = compact(nums, self.nmax)

    @staticmethod
    def coordinate(ambient: int, pivots: list[int]) -> "ScaledRref":
        """The span of the unit vectors at the ascending columns pivots."""
        nums = np.zeros((len(pivots), ambient), dtype=np.int64)
        nums[np.arange(len(pivots)), pivots] = 1
        return ScaledRref(ambient, pivots, nums)

    @staticmethod
    def full(ambient: int) -> "ScaledRref":
        return ScaledRref.coordinate(ambient, list(range(ambient)))

    def __eq__(self, other) -> bool:
        """Equal row spaces: the reduced echelon form is canonical."""
        return (isinstance(other, ScaledRref) and self.ambient == other.ambient
                and self.pivots == other.pivots and self.den == other.den
                and np.array_equal(self.nums, other.nums))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def is_coordinate(self) -> bool:
        """The rows are the unit vectors at the pivots (den is then 1)."""
        return np.count_nonzero(self.nums) == self.dim

    def residuals(self, mat: np.ndarray, mat_max: int | None = None) -> np.ndarray:
        """den * (mat - projection of mat onto the span), row by row, for
        an integer mat whose largest absolute entry is mat_max (computed
        when not given).

        A row of mat lies in the span iff its residual row is zero; the
        scaling by den keeps everything integral.  On unit rows (no rows
        included) it is mat with the pivot columns zeroed, in mat's
        dtype.  Otherwise it is den * mat (scale_rows) less one
        exact_matmul product: int64, its entries below 2^63, when both
        are int64.
        """
        if self.is_coordinate:
            out = mat.copy()
            out[:, self.pivots] = 0
            return out
        mat_max = max_abs(mat) if mat_max is None else mat_max
        return (scale_rows(mat, self.den, mat_max)
                - exact_matmul(mat[:, self.pivots], self.nums, mat_max, self.nmax))

    def holds(self, a: np.ndarray, b: np.ndarray | None = None, a_max: int | None = None,
              b_max: int | None = None, b_float: np.ndarray | None = None) -> bool:
        """Whether every row of mat has zero residual (residuals), mat = a
        or a @ b read as rows of length ambient (a_max, b_max and b_float
        as for exact_matmul).  The bound B = max|mat| * (den + dim * nmax)
        picks the route (module docstring): residuals(mat) below 2^62 and
        on unit rows, else the residual modulo each of
        primes_exceeding(B), with a product too large for int64 reduced
        factor by factor (inner * a_max * b_max bounds max|mat|), and
        residuals(mat) again past the supply of PRIMES."""
        unit = self.is_coordinate
        if b is not None:
            a_max = max_abs(a) if a_max is None else a_max
            b_max = max_abs(b) if b_max is None else b_max
            if unit or a.shape[1] * a_max * b_max < _INT64_SAFE:
                a = exact_matmul(a, b, a_max, b_max, b_float).reshape(-1, self.ambient)
                b = a_max = None
        if unit:
            return not self.residuals(a).any()
        if b is not None:
            mat_max = a.shape[1] * a_max * b_max
        else:
            mat_max = max_abs(a) if a_max is None else a_max
        bound = mat_max * (self.den + self.dim * self.nmax)
        if bound >= _INT64_SAFE:
            try:
                primes = primes_exceeding(bound)
            except PrimesExhausted:
                pass
            else:
                return all(self._holds_mod(a, b, p) for p in primes)
        if b is not None:
            a = exact_matmul(a, b, a_max, b_max).reshape(-1, self.ambient)
            mat_max = max_abs(a)
        return not self.residuals(a, mat_max).any()

    def _holds_mod(self, a: np.ndarray, b: np.ndarray | None, p: int) -> bool:
        """Whether residuals(mat) vanishes mod p, mat = a or a @ b as in holds."""
        x = _residues(a, p)
        if b is not None:
            x = _mod_matmul(x, _residues(b, p), p).reshape(-1, self.ambient)
        return np.array_equal(x * (self.den % p) % p,
                              _mod_matmul(x[:, self.pivots], _residues(self.nums, p), p))

    def lift(self, coords: "ScaledRref") -> "ScaledRref":
        """The subspace whose coordinates against these rows span coords
        (coords.ambient = dim).  A vector of this span is its entries at
        the pivots times the rows, so coords' rows times these rows are
        canonical at once, over coords.den * den up to one gcd."""
        if not coords.dim:
            return ScaledRref(self.ambient)
        w = exact_matmul(coords.nums, self.nums, coords.nmax, self.nmax)
        d = coords.den * self.den
        g = math.gcd(d, int(np.gcd.reduce(w.ravel()))) if d > 1 else 1
        return ScaledRref(self.ambient, [self.pivots[p] for p in coords.pivots],
                          w // g if g > 1 else w, d // g)

    def insert(self, v: np.ndarray) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        return self.insert_rows(np.asarray(v, dtype=object).reshape(1, -1)) > 0

    def insert_rows(self, mat: np.ndarray) -> int:
        """Add every row of mat; returns the dimension growth.  The form
        is unique, so the stored rows stacked on mat reduce to it anew."""
        new = rref_from_rows(np.vstack([self.nums, mat]), self.ambient)
        added = new.dim - self.dim
        vars(self).update(vars(new))
        return added

    def to_subspace(self) -> exactlin.Subspace:
        """The span as a canonical rational subspace: one exact division
        per distinct entry of the stored rows (exactlin.rational_rows)."""
        if not self.pivots:
            return exactlin.Subspace.zero(self.ambient)
        rows = exactlin.rational_rows(self.nums.tolist(), self.den)
        return exactlin.Subspace(self.ambient, exactlin.Matrix(rows, len(rows), self.ambient))


def rref_from_rows(rows: np.ndarray, ambient: int) -> ScaledRref:
    """The canonical basis of the span of the integer rows, by one
    certified reduction (_certified_rref) checked against every row."""
    return _certified_rref(rows, ambient, every_row=True)


def rref_of_base_rows(rows: np.ndarray, ambient: int) -> ScaledRref:
    """The canonical basis of the span of the base rows that the base
    prime picks from the rows, checked against those only: the row span
    unless that prime or its sketch is unlucky, a subspace of it always."""
    return _certified_rref(rows, ambient, every_row=False)


def null_space(m: np.ndarray, cols: int) -> ScaledRref:
    """{v : m @ v = 0} in canonical form, from one certified reduction of
    m with its columns reversed (rref_from_rows).  Full rank there
    proves the zero kernel, with nothing to assemble.  Otherwise,
    read in normal column order, row r of the reduction is 1 at its
    pivot c_r, 0 at the other pivots and after c_r.  Free column f gives
    the vector that is 1 at f, 0 at the other free columns and -row_r[f]
    at c_r (zero unless c_r > f), so it leads at f and is 0 at the
    others' leading columns: the reduced echelon basis already."""
    r = rref_from_rows(m[:, ::-1], cols)
    if r.dim == cols:
        return ScaledRref(cols)
    piv, d = cols - 1 - np.array(r.pivots, dtype=np.intp), r.den
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    vecs = np.zeros((free.size, cols), dtype=np.int64 if max(d, r.nmax) < _INT64_SAFE else object)
    vecs[np.arange(free.size), free] = d
    vecs[:, piv] = -r.nums[:, ::-1][:, free].T
    g = int(np.gcd.reduce(vecs.reshape(-1)))  # includes d
    return ScaledRref(cols, free.tolist(), vecs // g, d // g)


def scaled_inverse(mi: np.ndarray, s: int) -> tuple[np.ndarray, int]:
    """(V, d) with V / d the inverse of the square matrix mi / s, for
    an integer matrix mi, V in compact dtype.

    A diagonal mi needs no reduction: its reduced row i is e_i beside
    s / mi[i, i] in lowest terms.  An int64 mi whose inverse float64
    finds as an integer matrix v (_checked_inverse) gives (s * v, 1).
    Otherwise [mi | s * I] reduces to [I | (mi / s)^-1]: V is the right
    half of the reduced rows over their common denominator d.  The rank
    is always n, so mi is singular iff some pivot lies past column n.
    Every route gives the same canonical (V, d).
    """
    n = mi.shape[0]
    z = np.diagonal(mi).tolist()
    if not np.count_nonzero(mi) - np.count_nonzero(z):  # diagonal
        if 0 in z:
            raise ValueError("matrix is singular")
        g = [math.gcd(s, x) * (1 if x > 0 else -1) for x in z]
        dens = [x // gx for x, gx in zip(z, g)]
        d = math.lcm(1, *dens)
        v = np.zeros((n, n), dtype=object)
        v[range(n), range(n)] = [s // gx * (d // den) for gx, den in zip(g, dens)]
        return compact(v, max_abs(v)), d
    if mi.dtype == np.int64:
        v = _checked_inverse(mi)
        if v is not None:
            return scale_rows(v, s), 1
    red = rref_from_rows(np.hstack([mi, s * np.eye(n, dtype=object)]), 2 * n)
    if red.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    v = red.nums[:, n:]
    return compact(v, max_abs(v)), red.den


def _checked_inverse(mi: np.ndarray) -> np.ndarray | None:
    """float64's inverse of the int64 matrix mi rounded to integers, in
    int64, if exact_matmul proves it (module docstring), else None."""
    try:
        f = np.rint(np.linalg.inv(mi.astype(np.float64)))
    except np.linalg.LinAlgError:  # singular in float64
        return None
    if not (np.abs(f) < _INT64_SAFE).all():  # also inf and nan
        return None
    v = f.astype(np.int64)
    return v if np.array_equal(exact_matmul(mi, v), np.eye(len(v), dtype=np.int64)) else None
