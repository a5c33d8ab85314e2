"""Differential tests of the integer kernels in lienil._intkernel.

ScaledRref's modular echelon form is checked against the row-by-row
scaled-integer engine it replaced (fraction_linalg.RowByRowRref),
null_space against the Fraction kernel (fraction_linalg.kernel), and
the float64 passes of exact_matmul, split ones included, and of
ScaledRref.residuals against object-dtype products.  Rows with at most
one nonzero entry take no pass: their reductions and gathers meet the
same oracles.
"""

import contextlib
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_linalg
from fraction_linalg import RowByRowRref
from lienil import _intkernel as ik
from lienil import nilalg
from lienil.chevalley import nilradical
from lienil.exactlin import random_unimodular
from lienil.fingerprint import identify
from lienil.nilalg import change_basis, graded, lower_central_series
from lienil.rootsys import SimpleType, build_root_system

P0, P1 = ik.PRIMES[0], ik.PRIMES[1]

entries = st.one_of(
    st.integers(-6, 6),
    st.integers(-(2**80), 2**80),
    st.sampled_from([P0, -P0, 2 * P0, P0 * P1]),
)


@st.composite
def row_blocks(draw, cols):
    """An r x cols block of rank at most k (a product of r x k and
    k x cols integer matrices): empty, zero, rank-deficient and
    full-rank blocks all occur."""
    r = draw(st.integers(0, 7))
    k = draw(st.integers(0, min(r, cols)))
    a = [[draw(entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(entries) for _ in range(cols)] for _ in range(k)]
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)] for i in range(r)]


@st.composite
def tall_blocks(draw, cols):
    """3 to 5 times `cols` rows of rank at most k <= cols whose first
    `cols` rows are combinations of k - 1 base rows only: the first
    block is rank-deficient and later rows add to its span, so the
    reduction's sketch of the rows after the first block runs."""
    k = draw(st.integers(1, cols))
    base = [[draw(entries) for _ in range(cols)] for _ in range(k)]
    coef = st.integers(-3, 3)

    def combination(m):
        c = [draw(coef) for _ in range(m)]
        return [sum(x * row[j] for x, row in zip(c, base)) for j in range(cols)]

    r = cols * draw(st.integers(3, 5))
    return [combination(k - 1) for _ in range(cols)] + [combination(k) for _ in range(r - cols)]


def row_inputs(cols):
    return st.one_of(row_blocks(cols), tall_blocks(cols))


@st.composite
def span_and_rows(draw):
    cols = draw(st.integers(1, 6))
    return cols, draw(row_inputs(cols)), draw(row_inputs(cols))


# Tall inputs: a rank-deficient first block, with the rest of the span in
# later rows, all of them zero modulo PRIMES[0] in the second, and all
# spanned by the first block in the third.
TALL = [[1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 1, 2], [1, 1, 2], [0, 0, 5], [4, 0, 0]]
TALL_ZERO_MOD_P0 = [[1, 0], [2, 0], [0, P0], [0, 2 * P0], [P0, 3 * P0], [5, 0]]
TALL_SPANNED = [[1, 2, 3], [2, 4, 6], [0, 0, 0], [3, 6, 9], [-1, -2, -3], [2**70, 2**71, 3 * 2**70]]


def as_array(rows, cols):
    return np.array(rows, dtype=object).reshape(len(rows), cols)


def assert_same_state(e: ik.ScaledRref, o: RowByRowRref):
    """e holds the oracle's per-row rows brought to the lcm of their
    denominators, in lowest terms, in compact dtype."""
    d = math.lcm(1, *o.dens)
    assert e.pivots == o.pivots
    assert e.den == d
    assert [[int(x) for x in num] for num in e.nums] == [
        [x * (d // den) for x in num] for num, den in zip(o.nums, o.dens)]
    assert math.gcd(e.den, *(int(x) for x in e.nums.flat)) == 1
    assert e.nmax == max((abs(int(x)) for x in e.nums.flat), default=0)
    assert_compact(e.nums)


@settings(max_examples=200, deadline=None)
@given(span_and_rows())
@example((2, [], [[1, 0], [0, P0]]))  # rank mod PRIMES[0] is below rank over Q
@example((2, [[1, 0]], [[0, P0]]))
@example((2, [], [[P0, 1]]))  # full rank mod PRIMES[0], but a later pivot
@example((3, [[P0, 2 * P0, 0]], [[0, P0 * P1, P0]]))  # zero mod PRIMES[0]
@example((3, [[1, 2, 3]], [[0, 0, 0], [2, 4, 6]]))  # nothing new
@example((3, [], TALL))
@example((2, [], TALL_ZERO_MOD_P0))
@example((3, [[0, 0, 1]], TALL_SPANNED))
def test_insert_rows_matches_row_by_row(case):
    cols, old, new = case
    e, o = ik.ScaledRref(cols), RowByRowRref(cols)
    assert e.insert_rows(as_array(old, cols)) == o.insert_rows(old)
    assert_same_state(e, o)
    assert e.insert_rows(as_array(new, cols)) == o.insert_rows(new)
    assert_same_state(e, o)
    if new:
        assert e.insert(np.array(new[0], dtype=object)) is False


@pytest.mark.parametrize("big", [1, 2**70], ids=["int64", "python-int"])
def test_residuals_after_insert_rows_see_new_rows(big):
    """After insert_rows, residuals must read the new rows, in int64
    (big = 1) and in Python-int form."""
    e = ik.rref_from_rows(as_array([[1, 0, big]], 3), 3)
    assert e.nums.dtype == (np.int64 if big == 1 else object)
    new = as_array([[0, 1, 1], [2, 3, 2 * big + 3]], 3)
    assert e.residuals(new).any()
    assert e.insert_rows(new) == 1
    assert not e.residuals(new).any()
    assert e.residuals(as_array([[0, 0, 1]], 3)).any()


@pytest.mark.parametrize("rows", [3, 0], ids=["rows", "empty"])
@pytest.mark.parametrize("dtype, big", [(np.int64, 7), (object, 2**70)],
                         ids=["int64", "python-int"])
def test_coordinate_residuals_match_the_product_route(rows, dtype, big, monkeypatch):
    # On unit rows the residual is the input with the pivot columns zeroed,
    # which the product by the stored rows gives too.
    e = ik.ScaledRref.coordinate(5, [0, 2, 3])
    assert e.is_coordinate and not ik.rref_from_rows(as_array([[1, 2, 0]], 3), 3).is_coordinate
    mat = np.array([[big, -1, 2, -big, 3], [0, 4, 0, 0, -5], [1, 1, 1, 1, 1]], dtype=dtype)[:rows]
    before = mat.copy()
    got = e.residuals(mat)
    assert np.array_equal(mat, before) and got.dtype == mat.dtype
    monkeypatch.setattr(ik.ScaledRref, "is_coordinate", property(lambda self: False))
    assert got.tolist() == e.residuals(mat).tolist()


@settings(max_examples=100, deadline=None)
@given(span_and_rows())
@example((3, TALL, TALL_SPANNED))
@example((2, TALL_ZERO_MOD_P0, []))
def test_rref_from_rows_matches_row_by_row(case):
    cols, old, new = case
    rows = old + new
    o = RowByRowRref(cols)
    o.insert_rows(rows)
    assert_same_state(ik.rref_from_rows(as_array(rows, cols), cols), o)
    # int64 input takes the same path as object input.
    if all(abs(x) < 2**62 for row in rows for x in row):
        rows64 = np.array(rows, dtype=np.int64).reshape(-1, cols)
        assert_same_state(ik.rref_from_rows(rows64, cols), o)


@st.composite
def kernel_inputs(draw):
    cols = draw(st.integers(1, 6))
    return cols, draw(row_inputs(cols))


def oracle_kernel_rref(rows, cols) -> ik.ScaledRref:
    """rref_from_rows of the Fraction oracle's kernel vectors, each
    scaled to integers."""
    basis = fraction_linalg.kernel(fraction_linalg.from_rows(rows, cols=cols)).basis.entries
    scaled = [[x * math.lcm(*(y.denominator for y in v)) for x in v] for v in basis]
    return ik.rref_from_rows(as_array([[int(x) for x in v] for v in scaled], cols), cols)


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
@example((2, [[1, 0], [0, P0]]))  # rank mod PRIMES[0] is below rank over Q
@example((3, [[P0, 1, 0]]))  # a later pivot mod PRIMES[0]
@example((3, [[0, 0, 0], [0, 0, 0]]))
@example((4, []))
@example((3, TALL))
@example((3, [row[::-1] for row in TALL]))
@example((2, TALL_ZERO_MOD_P0))
@example((3, TALL_SPANNED))
def test_null_space_matches_fraction_kernel(case):
    cols, rows = case
    want = oracle_kernel_rref(rows, cols)
    assert ik.null_space(as_array(rows, cols), cols) == want  # pivots, nums and den
    # int64 input takes the same path as object input.
    if all(abs(x) < 2**62 for row in rows for x in row):
        assert ik.null_space(np.array(rows, dtype=np.int64).reshape(-1, cols), cols) == want


def test_full_column_rank_kernel_needs_no_reconstruction(monkeypatch):
    # Rank mod a prime is at most the rank over Q, so full rank mod the
    # base prime proves the whole space; tall input stops after its
    # first block of `cols` rows.
    calls, blocks = [], []
    reconstruct, eliminate = ik._reconstruct, ik._eliminate
    monkeypatch.setattr(ik, "_reconstruct", lambda *a: calls.append(a) or reconstruct(*a))
    monkeypatch.setattr(ik, "_eliminate", lambda x, p: blocks.append(x.shape) or eliminate(x, p))
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8], [9, 7, 9], [P0, P1, 2**70]]
    assert ik.null_space(as_array(rows, 3), 3) == ik.ScaledRref(3)
    assert calls == [] and blocks == [(3, 3)]
    assert ik.rref_from_rows(as_array(rows, 3), 3) == ik.ScaledRref.full(3)
    assert calls == []


@st.composite
def square_and_scale(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    a = [[draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(entries) for _ in range(n)] for _ in range(k)]
    full = draw(st.booleans())
    if full:  # add a diagonal so the product is usually invertible
        m = [[sum(a[i][t] * b[t][j] for t in range(k)) + (i == j) * draw(entries)
              for j in range(n)] for i in range(n)]
    else:
        m = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
    return m, draw(st.sampled_from([1, 3, P0, 2**70]))


@settings(max_examples=150, deadline=None)
@given(square_and_scale())
@example(([[1, 0], [0, P0]], 1))
@example(([[P0, 1], [1, 0]], P0))
@example(([[-6, 0, 0], [0, 4, 0], [0, 0, 2**70]], 4))  # diagonal: no reduction
@example(([[0, 0], [0, 5]], 3))
@example(([[-1]], P0))
def test_scaled_inverse_matches_row_by_row(case):
    m, s = case
    n = len(m)
    o = RowByRowRref(2 * n)
    o.insert_rows([row + [s * (i == j) for j in range(n)] for i, row in enumerate(m)])
    if o.pivots != list(range(n)):
        with pytest.raises(ValueError, match="matrix is singular"):
            ik.scaled_inverse(as_array(m, n), s)
        return
    d = math.lcm(*o.dens)
    want = [[x * (d // den) for x in num[n:]] for num, den in zip(o.nums, o.dens)]
    v, got_d = ik.scaled_inverse(as_array(m, n), s)
    assert got_d == d
    assert v.tolist() == want


def test_unlucky_first_prime_is_rejected_and_the_next_recovers(monkeypatch):
    # Modulo PRIMES[0] the rows (1, 1) and (0, PRIMES[0]) have rank 1, so
    # the first candidate, the single row (1, 1), fails the certificate:
    # (0, PRIMES[0]) has a nonzero residual against it.  ((1, 1) rather
    # than (1, 0): rows with one nonzero entry each reduce with no prime.)
    primes = []
    echelon = ik._echelon_mod

    def spy(a, p):
        primes.append(p)
        return echelon(a, p)

    monkeypatch.setattr(ik, "_echelon_mod", spy)
    e = ik.ScaledRref(2)
    assert e.insert_rows(as_array([[1, 1], [0, P0]], 2)) == 2
    assert (e.pivots, e.den) == ([0, 1], 1)
    assert [list(num) for num in e.nums] == [[1, 0], [0, 1]]
    assert primes == [P0, P1]


def test_a_later_unlucky_prime_restarts_from_the_next_prime(monkeypatch):
    # Modulo PRIMES[0] the rows have pivots [0, 1]; modulo PRIMES[1] the
    # second row reads (1, 1, 1), which moves the second pivot to column
    # 2.  That prime starts a new attempt, with PRIMES[2] as base prime.
    primes = []
    echelon = ik._echelon_mod
    monkeypatch.setattr(ik, "_echelon_mod", lambda a, p: primes.append(p) or echelon(a, p))
    rows = [[1, 1, 0], [1, 1 + P1, 1]]
    got = ik.rref_from_rows(as_array(rows, 3), 3)
    assert primes == [P0, ik.PRIMES[2]]
    want = fraction_linalg.rref(fraction_linalg.from_rows(rows))
    assert got.to_subspace().basis.entries == want.entries


@st.composite
def wide_entry_rows(draw):
    """Up to 4 x 4 rows of rank at most k with entries up to about
    2^300: their reduced rows need from a few to a few dozen primes, so
    reconstruction passes the checkpoints at 4, 8, 16 and 32 primes."""
    cols = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(r, cols)))
    big = st.one_of(st.integers(-6, 6), st.integers(-(2**300), 2**300))
    a = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(r)]
    b = [[draw(big) for _ in range(cols)] for _ in range(k)]
    return cols, [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)] for i in range(r)]


@settings(max_examples=100, deadline=None)
@given(wide_entry_rows())
@example((2, [[2**300 + 1, 3**180]]))
@example((3, [[2**299, 1, 3**150], [5**120, 7**100, 1]]))
def test_wide_entry_reductions_match_fraction_rref(case):
    cols, rows = case
    want = fraction_linalg.rref(fraction_linalg.from_rows(rows, cols)).entries
    got = ik.rref_from_rows(as_array(rows, cols), cols)
    assert got.to_subspace().basis.entries == want
    assert ik.rref_of_base_rows(as_array(rows, cols), cols) == got


def test_unlucky_sketch_is_caught_by_the_certificate(monkeypatch):
    # Under PRIMES[0] every sketch row is the first one, so the base rows
    # span one dimension less than the rows after a rank-deficient first
    # block whenever these add two or more.  The exact certificates catch
    # that; the next prime's own sketch recovers the same span, and the
    # series falls back to its definition.
    a = change_basis(nilradical(build_root_system(SimpleType.parse("E6"))),
                     random_unimodular(36, 1))
    series = lower_central_series(a)
    sketch, primes = ik._sketch, []

    def unlucky(k, m, p):
        primes.append(p)
        s = sketch(k, m, p)
        if p == P0:
            s[1:] = s[0]
        return s

    monkeypatch.setattr(ik, "_sketch", unlucky)
    rows = [[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
            [0, 0, 0, 1], [1, 1, 1, 1]]
    assert ik.rref_from_rows(as_array(rows, 4), 4) == ik.ScaledRref.full(4)
    assert primes == [P0, P1]
    ran = []
    definitional = nilalg._definitional_series
    monkeypatch.setattr(nilalg, "_definitional_series", lambda b: ran.append(b) or definitional(b))
    assert lower_central_series(a) == series
    assert ran == [a]


def test_sketch_is_fixed_and_in_range():
    s = ik._sketch(7, 300, P0)
    assert s.dtype == np.int64 and s.shape == (7, 300)
    assert s.min() == -16 and s.max() == 15
    assert np.array_equal(s, ik._sketch(7, 300, P0))
    assert not np.array_equal(s, ik._sketch(7, 300, P1))
    assert np.linalg.matrix_rank(s.astype(np.float64)) == 7


def test_running_out_of_primes_raises(monkeypatch):
    monkeypatch.setattr(ik, "PRIMES", (P0,))
    e = ik.ScaledRref(2)
    with pytest.raises(ik.PrimesExhausted, match="residue primes"):
        e.insert_rows(as_array([[1, 1], [0, P0]], 2))
    assert e.dim == 0


# ------------------------------------------------- compact rows near 2^62


def assert_compact(a: np.ndarray):
    """int64 when every entry is below 2^62, Python ints otherwise."""
    big = max((abs(int(x)) for x in a.flat), default=0) >= 2**62
    assert a.dtype == (object if big else np.int64), (a.dtype, big)


straddling = st.one_of(
    st.integers(-6, 6),
    st.builds(lambda e, k, sign: sign * (2**e + k), st.sampled_from([61, 62, 70]),
              st.integers(-3, 3), st.sampled_from([-1, 1])),
)


@st.composite
def straddling_blocks(draw, cols):
    """Rows c_i * (small combination of k base rows), entries and scalars
    near 2^61, 2^62 and 2^70: reduced rows land on both sides of 2^62."""
    r = draw(st.integers(0, 5))
    k = draw(st.integers(0, min(r, cols)))
    base = [[draw(straddling) for _ in range(cols)] for _ in range(k)]
    out = []
    for _ in range(r):
        c, mix = draw(straddling), [draw(st.integers(-2, 2)) for _ in range(k)]
        out.append([c * sum(m * row[j] for m, row in zip(mix, base)) for j in range(cols)])
    return out


@st.composite
def straddling_spans(draw):
    cols = draw(st.integers(1, 5))
    return cols, draw(straddling_blocks(cols)), draw(straddling_blocks(cols))


@settings(max_examples=150, deadline=None)
@given(straddling_spans())
@example((2, [[2**61 + 1, 2**61]], [[0, 2**62]]))
@example((2, [[2**62, 2**62 - 1]], [[2**70, 0]]))
def test_compact_rows_match_row_by_row_near_int64(case):
    cols, old, new = case
    e, o = ik.ScaledRref(cols), RowByRowRref(cols)
    for rows in (old, new):
        assert e.insert_rows(as_array(rows, cols)) == o.insert_rows(rows)
        assert_same_state(e, o)
        assert_compact(e.nums)  # the rows over their lcm, as residuals reads them
    want = oracle_kernel_rref(old + new, cols)
    got = ik.null_space(as_array(old + new, cols), cols)
    assert got == want
    assert_compact(got.nums)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(straddling, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)),
       st.sampled_from([1, 2**61 + 1, 2**62]))
def test_scaled_inverse_is_compact_near_int64(m, s):
    n = len(m)
    o = RowByRowRref(2 * n)
    o.insert_rows([row + [s * (i == j) for j in range(n)] for i, row in enumerate(m)])
    if o.pivots != list(range(n)):
        return
    d = math.lcm(*o.dens)
    v, got_d = ik.scaled_inverse(as_array(m, n), s)
    assert got_d == d
    assert v.tolist() == [[x * (d // den) for x in num[n:]] for num, den in zip(o.nums, o.dens)]
    assert_compact(v)


@pytest.mark.parametrize("a_shape, b_shape", [((0, 3), (3, 2)), ((2, 0), (0, 3)), ((2, 3), (3, 0))])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_empty_products_are_int64_zeros(a_shape, b_shape, dtype):
    got = ik.exact_matmul(np.ones(a_shape, dtype=dtype), np.ones(b_shape, dtype=dtype))
    assert got.shape == (a_shape[0], b_shape[1]) and not got.any()
    assert_compact(got)


@pytest.mark.parametrize("rows, f", [
    ([[2**30, -1], [0, 1]], 2**31),  # bound 2^61: int64
    ([[2**31, -1], [0, 1]], 2**31),  # bound and product 2^62: Python ints
    ([[1, -1], [0, 2**61]], 3),
    ([[1, -1], [0, 1]], 2**62),
    ([[1, -1], [0, 2**40]], [[2**40], [1]]),  # bound 2^80, product below 2^41: int64
    ([[1, -1], [0, 2**40]], [[1], [2**22]]),  # per-row factors, product 2^62
])
def test_scale_rows_promotes_by_its_bound(rows, f):
    a = np.array(rows, dtype=np.int64)
    got = ik.scale_rows(a, np.array(f, dtype=object))
    assert got.tolist() == (a.astype(object) * np.array(f, dtype=object)).tolist()
    assert_compact(got)


@pytest.mark.parametrize("f", [
    2**31, -(2**32 - 1), 2**32,  # bounds 2^61, 2^62 - 2^30 and 2^62 against a_max = 2^30
    np.array([[2**32 - 1], [1]]), np.array([[-2**32], [3]]),
    np.array([[2**32 - 1], [1]], dtype=object), np.array([[2**32], [0]], dtype=object),
    np.array([[2**70], [0]], dtype=object),
], ids=lambda f: f"{type(f).__name__}-{getattr(f, 'dtype', '')}-{np.max(np.abs(f))}")
def test_scale_rows_bounds_each_factor_kind_by_its_values(f, monkeypatch):
    # A Python int is bounded by abs(f) and an array by its own largest
    # entry; only a bound of 2^62 or more converts to Python ints.
    a = np.array([[2**30, -1], [0, 1]], dtype=np.int64)
    bound = 2**30 * max(abs(int(v)) for v in np.ravel(f))
    want = (a.astype(object) * (f if isinstance(f, int) else f.astype(object))).tolist()
    if bound < 2**62:
        monkeypatch.setattr(ik, "_as_object", lambda _: pytest.fail("converted to Python ints"))
    got = ik.scale_rows(a, f, 2**30)
    assert got.tolist() == want
    assert got.dtype == (np.int64 if max(abs(v) for v in np.ravel(want)) < 2**62 else object)


# ------------------------------------------- rows with one nonzero entry

monomial_values = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([P0, -P0, 2 * P0, P0 * P1]),
    st.builds(lambda e, k, sign: sign * (2**e + k), st.sampled_from([62, 63, 70]),
              st.integers(0, 3), st.sampled_from([-1, 1])),
)


@st.composite
def monomial_rows(draw, cols, min_rows=0):
    """Up to 8 rows with at most one nonzero entry each: zero rows,
    repeated columns, both signs, multiples of PRIMES[0] and Python ints
    of 2^62 and more all occur."""
    rows = []
    for _ in range(draw(st.integers(min_rows, 8))):
        row = [0] * cols
        row[draw(st.integers(0, cols - 1))] = draw(monomial_values)
        rows.append(row)
    return rows


@st.composite
def monomial_spans(draw):
    cols = draw(st.integers(1, 6))
    return cols, draw(monomial_rows(cols)), draw(monomial_rows(cols))


def no_prime(a, p):
    raise AssertionError("a residue elimination ran")


def oracle_state(rows, cols) -> RowByRowRref:
    o = RowByRowRref(cols)
    o.insert_rows(rows)
    return o


@settings(max_examples=150, deadline=None)
@given(monomial_spans())
@example((3, [[0, 0, 0]], [[0, P0, 0], [0, -2**70, 0], [2**62, 0, 0]]))
def test_monomial_rows_reduce_without_a_prime(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ik, "_echelon_mod", no_prime)
        check_monomial_reductions(*case)


def check_monomial_reductions(cols, old, new):
    rows = old + new
    want = oracle_state(rows, cols)
    for reduce in (ik.rref_from_rows, ik.rref_of_base_rows):
        got = reduce(as_array(rows, cols), cols)
        assert_same_state(got, want)
        assert got.nums.dtype == np.int64
    e, o = ik.ScaledRref(cols), RowByRowRref(cols)
    for block in (old, new):
        assert e.insert_rows(as_array(block, cols)) == o.insert_rows(block)
        assert_same_state(e, o)
    # The kernel of coordinate rows is the span of the other coordinates.
    basis = fraction_linalg.kernel(fraction_linalg.from_rows(rows, cols=cols)).basis.entries
    got = ik.null_space(as_array(rows, cols), cols)
    assert_same_state(got, oracle_state([[int(x) for x in v] for v in basis], cols))


def no_blas(*args):
    raise AssertionError("a BLAS product ran")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda inner: st.tuples(monomial_rows(inner, 1), st.lists(
    st.lists(straddling, min_size=3, max_size=3), min_size=inner, max_size=inner))))
@example(([[0, 2**62 - 1], [0, 0], [-1, 0]], [[2**61, 1, 0], [1, -1, 2]]))  # int64, bound below 2^62
@example(([[0, 2**31]], [[1, 0, 0], [2**31, 1, 0]]))  # the product is 2^62
@example(([[2**31, 0]], [[1, 0, 0], [2**70, 1, 0]]))  # a row at 2^70 not gathered
def test_gather_matches_object_product(case):
    a_rows, b_rows = case
    inner = len(b_rows)
    a, b = as_array(a_rows, inner), as_array(b_rows, 3)
    want = (a @ b).tolist()
    operands = [(a, b)]
    if all(abs(x) < 2**62 for row in a_rows + b_rows for x in row):
        operands.append((a.astype(np.int64), b.astype(np.int64)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ik, "_int64_matmul", no_blas)
        for x, y in operands:
            got = ik.exact_matmul(x, y)
            assert got.tolist() == want
            assert_compact(got)


# ------------------------------------------------------ float64 routes


@contextlib.contextmanager
def spied_products():
    """Yields (passes, gathers), filled as the kernel runs: the bound
    inner * max|x| * max|y| of each float64 pass, and each gather."""
    passes, gathers = [], []
    float64_pass, gather = ik._float64_pass, ik._gather_matmul

    def spy_pass(x, bf):
        passes.append(x.shape[1] * ik.max_abs(x) * int(np.abs(bf).max(initial=0)))
        return float64_pass(x, bf)

    def spy_gather(*args):
        gathers.append(args)
        return gather(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ik, "_float64_pass", spy_pass)
        mp.setattr(ik, "_gather_matmul", spy_gather)
        yield passes, gathers


thresholds = st.sampled_from([53, 62])
offsets = st.sampled_from([-3, -1, 1, 5])


@settings(max_examples=150, deadline=None)
@given(thresholds, offsets, st.integers(2, 4), st.integers(1, 30), st.data())
def test_exact_matmul_routes_by_bound(bits, offset, inner, a_bits, data):
    # Every entry sits at its maximum, with random signs, so dot products
    # reach inner * a_max * b_max, just below or above 2^bits.  inner >= 2
    # keeps two nonzero entries in every row of a: a single one would
    # take the gather (test_gather_matches_object_product).  Below 2^62
    # the product runs in float64 passes, one below 2^53.
    a_max = 2**a_bits + data.draw(st.integers(0, 7))
    b_max = (2**bits + offset * inner * a_max) // (inner * a_max)
    bound = inner * a_max * b_max
    signs = st.lists(st.sampled_from([-1, 1]), min_size=inner, max_size=inner)
    a = np.array([data.draw(signs) for _ in range(2)], dtype=object) * a_max
    b = np.array([data.draw(signs) for _ in range(3)], dtype=object).T * b_max
    a[0, :] = a_max  # one dot product at the bound itself
    b[:, 0] = b_max
    want = a @ b
    if bound < 2**62:
        with spied_products() as (passes, gathers):
            got = ik.exact_matmul(a.astype(np.int64), b.astype(np.int64))
        assert not gathers and passes and max(passes) < 2**53
        assert (len(passes) == 1) == (bound < 2**53)
        assert got.dtype == np.int64
    else:
        got = ik.exact_matmul(a, b)
        assert got.dtype == object
    assert got.tolist() == want.tolist()


@settings(max_examples=100, deadline=None)
@given(thresholds, offsets, st.integers(1, 40), st.data())
def test_residuals_route_by_bound(bits, offset, x_bits, data):
    # One stored row (1, x): the residual of (u, v) is (0, v - u * x),
    # and the product's bound is rmax * mat_max = x * mat_max.  Its left
    # operand is the one column u, so the product is a gather.
    x = 2**x_bits + data.draw(st.integers(0, 7))
    mat_max = max(1, (2**bits + offset * x) // x)
    e = ik.rref_from_rows(np.array([[1, x]], dtype=object), 2)
    u = data.draw(st.lists(st.sampled_from([-mat_max, mat_max]), min_size=3, max_size=3))
    v = data.draw(st.lists(st.integers(-mat_max, mat_max), min_size=3, max_size=3))
    mat = np.array([u, v], dtype=object).T
    want = [[0, b - a * x] for a, b in zip(u, v)]
    if (1 + x) * mat_max < 2**62:
        with spied_products() as (passes, gathers):
            got = e.residuals(mat.astype(np.int64))
        assert len(gathers) == 1 and not passes
        assert got.dtype == np.int64
    else:
        got = e.residuals(mat)
    assert got.tolist() == want


def test_zero_operands_give_int64_zeros():
    dense = np.array([[1, 2], [3, 4]], dtype=np.int64)
    zeros = np.zeros((2, 3), dtype=np.int64)
    huge = np.array([[2**70, 1], [1, -(2**70)]], dtype=object)
    for x, y in [(dense, zeros), (zeros.T, dense), (huge, zeros), (huge, zeros.astype(object))]:
        got = ik.exact_matmul(x, y)
        assert got.dtype == np.int64 and not got.any()
    got = ik.rref_from_rows(np.array([[1, 3, 5]]), 3).residuals(np.zeros((2, 3), dtype=np.int64))
    assert got.dtype == np.int64 and not got.any()


@st.composite
def split_operands(draw):
    """(a, b): integer operands whose bound inner * a_max * b_max lies
    just below or just above 2^53 or 2^62, with the larger entries in a
    or in b and random signs; row 0 of a and column 0 of b sit at the
    maxima."""
    bits, inner = draw(st.sampled_from([53, 62])), draw(st.integers(2, 5))
    small_max = 2**draw(st.integers(0, 24)) + draw(st.integers(0, 7))
    offset = draw(st.sampled_from([-5, -1, 1, 3]))
    big_max = (2**bits + offset * inner * small_max) // (inner * small_max)

    def operand(rows, cols, top):
        m = np.array([[draw(st.integers(-top, top)) for _ in range(cols)] for _ in range(rows)],
                     dtype=object)
        m[0] = [draw(st.sampled_from([-top, top])) for _ in range(cols)]
        return m

    a, b = operand(3, inner, big_max), operand(2, inner, small_max).T
    if draw(st.booleans()):  # the larger entries in b: the transposed split
        a, b = operand(3, inner, small_max), operand(2, inner, big_max).T
    return a, b


@settings(max_examples=200, deadline=None)
@given(split_operands(), st.booleans())
def test_split_passes_match_object_product(case, give_b_float):
    a, b = case
    inner, a_max, b_max = a.shape[1], ik.max_abs(a), ik.max_abs(b)
    want = (a @ b).tolist()
    if inner * a_max * b_max >= 2**62:
        assert ik.exact_matmul(a, b).tolist() == want
        return
    a64, b64 = a.astype(np.int64), b.astype(np.int64)
    bf = b64.astype(np.float64) if give_b_float else None
    with spied_products() as (passes, _):
        got = ik.exact_matmul(a64, b64, b_float=bf)
    assert got.dtype == np.int64 and got.tolist() == want
    assert max(passes) < 2**53 and (len(passes) == 1) == (inner * a_max * b_max < 2**53)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2**12, 2**20]), st.integers(1, 4), st.data())
def test_recursive_splits_match_object_product(threshold, inner, data):
    # Under a lower pass threshold, the same bound argument splits hi
    # again, and switches the split to b once hi's entries are the
    # smaller.  inner * small < threshold / 2 keeps every s >= 1.
    small = data.draw(st.integers(1, 2**6))
    big = data.draw(st.integers(small, 2**40))
    cells = lambda top, rows, cols: np.array(
        data.draw(st.lists(st.lists(st.integers(-top, top), min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, cols)
    a, b = cells(big, 3, inner), cells(small, inner, 2)
    if data.draw(st.booleans()):
        a, b = cells(small, 3, inner), cells(big, inner, 2)
    a_max, b_max = ik.max_abs(a), ik.max_abs(b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ik, "_FLOAT64_EXACT", threshold)
        got = ik._int64_matmul(a, b, a_max, b_max)
    assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()


def test_int64_rule_lives_in_intkernel_only():
    # Only _intkernel chooses between int64 and Python ints, and between
    # one float64 pass and split ones.
    rule = re.compile(r"_INT64_SAFE|_as_int64|_as_object")
    src = pathlib.Path(ik.__file__).parent
    assert rule.search((src / "_intkernel.py").read_text())
    assert [p.name for p in sorted(src.glob("*.py"))
            if p.name != "_intkernel.py" and rule.search(p.read_text())] == []
    assert not re.search(r"2\*\*53|_FLOAT64_EXACT", (src / "nilalg.py").read_text())


@pytest.mark.parametrize("inner", [1, 2047, 2048, 2049, 5000, 7020])
def test_mod_matmul_matches_object_product(inner):
    # Past 2048 the residue product no longer fits one float64 pass and
    # runs in split passes (7020: the inner dimension of scrambled E8's
    # F_2 sketch).
    p = P0
    rng = np.random.default_rng(inner)
    a = p - 1 - rng.integers(0, 3, size=(2, inner))
    b = p - 1 - rng.integers(0, 3, size=(inner, 3))
    want = (a.astype(object) @ b.astype(object)) % p
    with spied_products() as (passes, _):
        got = ik._mod_matmul(a, b, p)
    assert got.tolist() == want.tolist()
    assert bool(passes) == (inner > 2048) and all(x < 2**53 for x in passes)


def test_scrambled_e8_series_multiplies_int64_in_exact_float64_passes(monkeypatch):
    # Every product the series makes of int64 operands, through
    # exact_matmul or _mod_matmul, is a gather or runs float64 passes,
    # each under 2^53: none reaches numpy's own int64 matmul.
    a = nilradical(build_root_system(SimpleType.parse("E8")))
    b = change_basis(a, random_unimodular(a.dim, 101))
    unpassed = []

    def watch(product, exempt):
        def spy(x, y, *args):
            before = len(passes)
            out = product(x, y, *args)
            if out.dtype == np.int64 and len(passes) == before and not exempt(x, y, *args):
                unpassed.append((product.__name__, x.shape, y.shape))
            return out
        return spy

    no_pass = lambda x, y, *args: ik._monomial_support(x) is not None or not y.any()
    monkeypatch.setattr(ik, "exact_matmul", watch(ik.exact_matmul, no_pass))
    monkeypatch.setattr(ik, "_mod_matmul", watch(  # below 2^53: one float64 floor pass
        ik._mod_matmul, lambda x, y, p: x.shape[1] * (p - 1) ** 2 < 2**53))
    monkeypatch.setattr(nilalg, "_definitional_series", lambda _: pytest.fail("fell back"))
    with spied_products() as (passes, _):
        lower_central_series(b)
    assert passes and max(passes) < 2**53
    assert unpassed == []


# ------------------------------------------------------- modular elimination


def gauss_jordan_mod(rows: list[list[int]], cols: int, p: int) -> tuple[list[int], list[list[int]]]:
    """Plain-Python Gauss-Jordan elimination mod p: (pivots, reduced rows)."""
    m = [[v % p for v in row] for row in rows]
    piv: list[int] = []
    for c in range(cols):
        k = len(piv)
        i = next((i for i in range(k, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[k], m[i] = m[i], m[k]
        inv = pow(m[k][c], -1, p)
        m[k] = [v * inv % p for v in m[k]]
        for r in range(len(m)):
            if r != k and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[k])]
        piv.append(c)
    return piv, m[:len(piv)]


@st.composite
def residue_blocks(draw):
    """(rows, cols, p): entries in [0, p), with all p - 1, zero columns,
    rank-deficient blocks, and more or fewer rows than columns."""
    p = draw(st.sampled_from([P0, ik.PRIMES[-1]]))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    k = draw(st.integers(0, min(rows, cols)))
    if draw(st.booleans()):  # rank at most k: residues of a product
        a = [[draw(entry) for _ in range(k)] for _ in range(rows)]
        b = [[draw(entry) for _ in range(cols)] for _ in range(k)]
        x = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(cols)]
             for i in range(rows)]
    else:
        x = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    x = [[0 if j in zero_cols else v for j, v in enumerate(row)] for row in x]
    return x, cols, p


@settings(max_examples=200, deadline=None)
@given(residue_blocks())
@example(([[P0 - 1] * 4] * 6, 4, P0))
@example(([[0, P0 - 1, 1], [0, 1, P0 - 1]], 3, P0))
def test_eliminate_matches_plain_gauss_jordan(case):
    rows, cols, p = case
    piv, want = gauss_jordan_mod(rows, cols, p)
    x = np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    got_piv, order = ik._eliminate(x, p)
    rank = len(piv)
    assert got_piv == piv
    assert x[:rank].tolist() == want
    assert not x[rank:].any() and ((0 <= x) & (x < p)).all()
    assert sorted(order.tolist()) == list(range(len(rows)))
    # The pivot rows may differ from the oracle's; they must be independent.
    assert len(gauss_jordan_mod([rows[i] for i in order[:rank]], cols, p)[0]) == rank


@pytest.mark.parametrize("primes", [1, 2, 3])
def test_reconstruct_recovers_rows_near_wang_bound(primes):
    # Rows num / den with |num| and den up to Wang's bound for m: with two
    # primes the products pass 2^53, with three they pass int64, so every
    # route of _reconstruct must stay exact.
    m = math.prod(ik.PRIMES[:primes])
    bound = math.isqrt((m - 1) // 2)
    rng = np.random.default_rng(primes)
    rows, want = [], []
    for r in range(3):
        den = bound - int(rng.integers(0, 50))
        nums = [0, 0, 0] + [int(x) for x in rng.integers(-bound, bound + 1, size=3)]
        nums[r] = den
        g = math.gcd(*nums)
        want.append(([x // g for x in nums], den // g))
        rows.append([x * pow(den, -1, m) % m for x in nums])
    res = np.array(rows, dtype=np.int64 if m < 2**62 else object)
    got = ik._reconstruct(res, m, [0, 1, 2], 6)
    d = math.lcm(*(den for _, den in want))
    assert got.den == d
    assert [[int(x) for x in num] for num in got.nums] == [[x * (d // den) for x in num]
                                                          for num, den in want]
    assert_compact(got.nums)


# ------------------------------------ certificates: inverses and span tests


def inverse_or_singular(mi: np.ndarray, s: int):
    try:
        v, d = ik.scaled_inverse(mi, s)
    except ValueError:
        return "singular"
    return v.tolist(), d, v.dtype


@st.composite
def inverse_cases(draw):
    """(kind, integer matrix, s): random_unimodular scrambles, products
    of two with determinant +-2 or +-3, singular matrices, determinant-1
    matrices whose float64 inverse is off, and unimodular shears with
    entries near 2^53 or past 2^62."""
    kind = draw(st.sampled_from(["unimodular", "det23", "singular", "ill", "huge"]))
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 10**6))
    u = np.array(random_unimodular(n, seed), dtype=object)
    m = u
    if kind == "det23":
        diag = np.eye(n, dtype=object)
        diag[-1, -1] = draw(st.sampled_from([-3, -2, 2, 3]))
        m = u @ diag @ np.array(random_unimodular(n, seed + 1), dtype=object)
    elif kind == "singular":
        c = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        m = u.copy()
        m[-1] = np.array(c, dtype=object) @ u[:-1]
    elif kind == "ill":  # [[x, x + 1], [x - 1, x]] has determinant 1
        x = 2**draw(st.integers(20, 40)) + draw(st.integers(0, 7))
        block = np.eye(n, dtype=object)
        block[:2, :2] = [[x, x + 1], [x - 1, x]]
        m = block @ u
    elif kind == "huge":
        shear = np.eye(n, dtype=object)
        shear[0, 1] = draw(st.sampled_from([2**53 - 1, 2**53 + 1, 2**62 - 1, 2**62 + 1, 2**70 + 3]))
        m = shear @ u if draw(st.booleans()) else shear[::-1]
    return kind, m, draw(st.sampled_from([1, 2, 6, 2**61 + 1]))


@settings(max_examples=200, deadline=None)
@given(inverse_cases())
@example(("huge", np.array([[2**53 + 1, 1], [1, 0]], dtype=object), 1))  # float64 rounds 2^53 + 1
@example(("singular", np.array([[1, 2], [2, 4]], dtype=object), 3))
def test_checked_inverse_matches_the_reduction(case):
    # The float64 guess, adopted only when mi @ v = I exactly, gives the
    # reduction's (V, d), values and dtype, or the same singular verdict.
    kind, m, s = case
    mi = ik.compact(m, ik.max_abs(m))
    calls, echelon = [], ik._echelon_mod
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ik, "_echelon_mod", lambda x, p: calls.append(p) or echelon(x, p))
        got = inverse_or_singular(mi, s)
    if kind == "unimodular":
        assert not calls  # the float64 route inverted it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ik, "_checked_inverse", lambda mi: None)
        assert got == inverse_or_singular(mi, s)


def test_change_basis_inverts_scrambled_e8_with_no_prime(monkeypatch):
    a = nilradical(build_root_system(SimpleType.parse("E8")))
    m = random_unimodular(a.dim, 101)
    monkeypatch.setattr(ik, "_echelon_mod", no_prime)
    change_basis(a, m)


@contextlib.contextmanager
def spied_modular_holds():
    """Yields the primes of every modular span test, filled as it runs."""
    primes, holds_mod = [], ik.ScaledRref._holds_mod

    def spy(self, a, b, p):
        primes.append(p)
        return holds_mod(self, a, b, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ik.ScaledRref, "_holds_mod", spy)
        yield primes


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(0, 7), st.sampled_from([-2, -1, 0, 1, 2]), st.data())
def test_holds_matches_residuals_near_int64(x_bits, k, offset, data):
    # One stored row (1, x) and rows (u, u * x + delta), whose residual is
    # (0, delta): the bound max|mat| * (1 + x) lies just below or above
    # 2^62.  Below, the int64 residual decides; above, residues do.
    x = 2**x_bits + k
    u = max(1, 2**62 // (x * (x + 1)) + offset)
    deltas = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, P0, P0 * P1]), min_size=1, max_size=3))
    mat = np.array([[u, u * x + delta] for delta in deltas], dtype=object)
    mat = ik.compact(mat, ik.max_abs(mat))
    e = ik.rref_from_rows(np.array([[1, x]], dtype=object), 2)
    with spied_modular_holds() as primes:
        got = e.holds(mat)
    assert got == (not e.residuals(mat).any()) == (not any(deltas))
    assert bool(primes) == (ik.max_abs(mat) * (1 + x) >= 2**62)
    assert e.holds(mat, np.eye(2, dtype=np.int64)) == got  # as a product's factors


@pytest.mark.parametrize("factored", [False, True])
def test_holds_sees_a_residual_that_vanishes_modulo_two_primes(factored):
    # The row (2^30, 2^70 + P0 * P1) leaves the span of (1, 2^40) by the
    # residual P0 * P1: zero modulo the first two primes, not over Q.
    e = ik.rref_from_rows(np.array([[1, 2**40]], dtype=object), 2)
    for delta, want in [(0, True), (P0 * P1, False)]:
        mat = np.array([[2**30, 2**70 + delta]], dtype=object)
        with spied_modular_holds() as primes:
            if factored:  # [1, 1] @ [[2^30, 2^70], [0, delta]], never formed
                got = e.holds(np.ones((1, 2), dtype=np.int64),
                              np.array([[2**30, 2**70], [0, delta]], dtype=object))
            else:
                got = e.holds(mat)
        assert got is want
        assert len(primes) > 2
    assert e._holds_mod(mat, None, P0) and e._holds_mod(mat, None, P1)


def test_holds_past_the_supply_of_primes_is_exact(monkeypatch):
    e = ik.rref_from_rows(np.array([[1, 2**40]], dtype=object), 2)
    monkeypatch.setattr(ik, "PRIMES", ik.PRIMES[:2])
    with spied_modular_holds() as primes:
        assert e.holds(np.array([[2**30, 2**70]], dtype=object))
        assert not e.holds(np.array([[2**30, 2**70 + P0 * P1]], dtype=object))
    assert not primes


def test_obfuscated_c4_span_tests_make_no_python_int_product(monkeypatch):
    # C4 scrambled three times, as the CLI benchmark's files are: its
    # series terms pass 2^62, yet every span test, the series
    # certificate's included, runs in int64 or modulo primes.
    a = nilradical(build_root_system(SimpleType.parse("C4")))
    for seed in (7, 8, 9):
        a = change_basis(a, random_unimodular(a.dim, seed))
    depth, boxed = [0], []
    holds, matmul, residuals = ik.ScaledRref.holds, ik.exact_matmul, ik.ScaledRref.residuals

    def spy_holds(self, *args):
        depth[0] += 1
        try:
            return holds(self, *args)
        finally:
            depth[0] -= 1

    def watch(product):
        def spy(*args, **kwargs):
            out = product(*args, **kwargs)
            if depth[0] and out.dtype == object:
                boxed.append((product.__name__, out.shape))
            return out
        return spy

    monkeypatch.setattr(ik.ScaledRref, "holds", spy_holds)
    monkeypatch.setattr(ik.ScaledRref, "residuals", watch(residuals))
    monkeypatch.setattr(ik, "exact_matmul", watch(matmul))
    with spied_modular_holds() as primes:
        assert identify(graded(a)).canonical == SimpleType("C", 4)
    assert primes and boxed == []
