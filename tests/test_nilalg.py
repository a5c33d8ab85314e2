"""Tests for nilpotent algebra invariants.

Oracle algebras are written out by hand from matrix models:

* h3 is the Heisenberg algebra [e0, e1] = e2.
* n4 is the strictly upper triangular 4x4 matrices with basis
  e0 = E12, e1 = E23, e2 = E34, e3 = E13, e4 = E24, e5 = E14,
  so [e0, e1] = e3, [e1, e2] = e4, [e0, e4] = e5, [e2, e3] = -e5.
  Its lower central series has dims 6, 3, 1, 0.
"""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_linalg as oracle
from pairing_oracle import augmented_pairing
from test_intkernel import assert_compact
from lienil import _intkernel as ik
from lienil import nilalg
from lienil.chevalley import nilradical, verify_jacobi
from lienil.claims import _perturb_pieces
from lienil.exactlin import Matrix, Subspace, random_unimodular
from lienil.fingerprint import identify
from lienil.nilalg import (
    GradedAlgebra,
    NilpotentAlgebra,
    NotNilpotentError,
    _definitional_series,
    bracket,
    change_basis,
    graded,
    graded_pairing,
    left_kernel,
    lower_central_series,
    right_kernel,
)
from lienil.rootsys import SimpleType, all_types, build_root_system, degree_histogram

F = Fraction


def abelian(n):
    return NilpotentAlgebra(n, {})


H3 = NilpotentAlgebra(3, {(0, 1): ((2, 1),)})

N4 = NilpotentAlgebra(
    6,
    {
        (0, 1): ((3, 1),),
        (1, 2): ((4, 1),),
        (0, 4): ((5, 1),),
        (2, 3): ((5, -1),),
    },
)

SL2 = NilpotentAlgebra(
    3,
    {
        (0, 1): ((1, 2),),
        (0, 2): ((2, -2),),
        (1, 2): ((0, 1),),
    },
)


def span(vectors, ambient):
    return ik.rref_from_rows(np.array(vectors, dtype=object), ambient).to_subspace()


def unimodular_matrix(d, seed):
    return oracle.from_rows(random_unimodular(d, seed))


# ---------------------------------------------------------------- validation


def test_constants_key_order_rejected():
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, {(1, 0): ((2, 1),)})


def test_constants_equal_indices_rejected():
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, {(1, 1): ((2, 1),)})


def test_constants_output_range_checked():
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, {(0, 1): ((3, 1),)})


def test_constants_duplicate_output_rejected():
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, {(0, 1): ((2, 1), (2, 1))})


def test_constants_floats_rejected():
    with pytest.raises(TypeError):
        NilpotentAlgebra(3, {(0, 1): ((2, 0.5),)})


def test_zero_terms_dropped():
    a = NilpotentAlgebra(3, {(0, 1): ((2, 0),)})
    assert a.constants == {}
    assert a == abelian(3)


def test_dim_at_least_one():
    with pytest.raises(ValueError):
        NilpotentAlgebra(0, {})


def test_int_tensor_cached_and_scaled():
    a = NilpotentAlgebra(2, {(0, 1): ((1, F(3, 4)),)})
    t, scale, biggest = a.int_tensor()
    assert scale == 4 and biggest == 3
    assert t[0, 1, 1] == 3 and t[1, 0, 1] == -3
    assert a.int_tensor() is a.int_tensor()


@st.composite
def constant_dicts(draw):
    """(dim, constants) for the dict constructor: int or Fraction values,
    zeros among them (a zero may repeat an output index), small or up
    to 2^80."""
    dim = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([12, 2**80]))
    value = st.one_of(st.integers(-bound, bound),
                      st.builds(F, st.integers(-bound, bound), st.integers(1, bound)))
    constants = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            ks = draw(st.lists(st.integers(0, dim - 1), max_size=3, unique=True))
            terms = [(k, draw(value)) for k in ks]
            if terms and draw(st.booleans()):
                terms.append((terms[0][0], 0))
            if terms or draw(st.booleans()):
                constants[(i, j)] = tuple(draw(st.permutations(terms)))
    return dim, constants


def _raised(fn, *args):
    try:
        fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(constant_dicts(), st.data())
def test_dict_constructor_matches_fraction_oracle(case, data):
    dim, constants = case
    a = NilpotentAlgebra(dim, constants)
    clean = oracle.clean_constants(dim, constants)
    want_t, want_scale, want_max = oracle.int_tensor(dim, clean)
    got_t, got_scale, got_max = a.int_tensor()
    assert (got_scale, got_max) == (want_scale, want_max)
    assert got_t.dtype == (np.int64 if want_max < 2**62 else object)
    assert np.array_equal(got_t, want_t)
    assert a.constants == clean

    # One fault, the same error as the oracle's: a float, an output
    # index out of range, a repeated nonzero output, or a bad key.
    key = data.draw(st.sampled_from(sorted(constants) + [(0, 0), (1, 0), (0, dim)]))
    terms = list(constants.get(key, ()))
    k = data.draw(st.integers(0, dim - 1))
    repeat = [(k0, 1) for k0, v in terms if v][:1]
    fault = data.draw(st.sampled_from([(k, 0.5), (dim, 1), (-1, 1)] + repeat))
    bad = dict(constants)
    bad[key] = tuple(terms) + (fault,)
    want = _raised(oracle.clean_constants, dim, bad)
    assert want is not None and _raised(NilpotentAlgebra, dim, bad) == want


# ------------------------------------------------------------------- bracket


def test_bracket_heisenberg():
    assert bracket(H3, (1, 0, 0), (0, 1, 0)) == (F(0), F(0), F(1))
    assert bracket(H3, (0, 1, 0), (1, 0, 0)) == (F(0), F(0), F(-1))
    assert bracket(H3, (1, 0, 0), (1, 0, 0)) == (F(0), F(0), F(0))


def test_bracket_length_checked():
    with pytest.raises(ValueError):
        bracket(H3, (1, 0), (0, 1, 0))


small_vec = st.tuples(*[st.integers(-4, 4)] * 6)


@given(small_vec, small_vec, small_vec, st.integers(-3, 3))
def test_bracket_bilinear_antisymmetric(x, y, z, c):
    xy = bracket(N4, x, y)
    assert bracket(N4, y, x) == tuple(-v for v in xy)
    lhs = bracket(N4, tuple(a + c * b for a, b in zip(x, z)), y)
    rhs = tuple(a + c * b for a, b in zip(xy, bracket(N4, z, y)))
    assert lhs == rhs


# ------------------------------------------------------- lower central series


def test_abelian_series():
    f = lower_central_series(abelian(4))
    assert f.dims == (4, 0)
    assert f.nilpotency_class == 1
    assert f.terms[0] == oracle.full(4)
    assert f.terms[1] == Subspace.zero(4)


def test_heisenberg_series():
    f = lower_central_series(H3)
    assert f.dims == (3, 1, 0)
    assert f.nilpotency_class == 2
    assert f.terms[1] == span([(0, 0, 1)], 3)


def test_upper_triangular_series():
    f = lower_central_series(N4)
    assert f.dims == (6, 3, 1, 0)
    assert f.nilpotency_class == 3
    assert f.terms[1] == span([(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)], 6)
    assert f.terms[2] == span([(0, 0, 0, 0, 0, 1)], 6)


def test_sl2_not_nilpotent():
    with pytest.raises(NotNilpotentError):
        lower_central_series(SL2)


def test_affine_line_not_nilpotent():
    a = NilpotentAlgebra(2, {(0, 1): ((1, 1),)})
    with pytest.raises(NotNilpotentError):
        lower_central_series(a)


def test_rotation_pair_not_nilpotent():
    # ad e0 acts invertibly on span(e1, e2): solvable but not nilpotent.
    a = NilpotentAlgebra(3, {(0, 1): ((2, 1),), (0, 2): ((1, 1),)})
    with pytest.raises(NotNilpotentError):
        lower_central_series(a)


def test_non_closed_table_not_nilpotent():
    # [e3, e4] = e2 sends a deep level back up; the definitional series
    # stalls at span(e2, e3, e4).
    a = NilpotentAlgebra(
        5,
        {(0, 1): ((2, 1),), (0, 2): ((3, 1),), (0, 3): ((4, 1),), (3, 4): ((2, 1),)},
    )
    with pytest.raises(NotNilpotentError):
        lower_central_series(a)


def test_non_lie_nilpotent_table_falls_back(monkeypatch):
    # Not a Lie algebra (Jacobi fails on e0, e1, e3), yet nilpotent:
    # the direct series gives F_3 = span(e3), and [e2, e3] = e4 fails
    # the [P_2, N] <= F_3 check, so the definitional series takes over.
    a = NilpotentAlgebra(
        5,
        {(0, 1): ((2, 1),), (0, 2): ((3, 1),), (2, 3): ((4, 1),)},
    )
    fallbacks = []
    monkeypatch.setattr(nilalg, "_definitional_series",
                        lambda b: fallbacks.append(b) or _definitional_series(b))
    f = lower_central_series(a)
    assert fallbacks == [a]
    assert f.dims == (5, 3, 2, 1, 0)
    assert f == _definitional_series(a)


def _direct_sum(a, dim, table):
    n = a.dim
    constants = dict(a.constants)
    for (i, j), terms in table.items():
        constants[(n + i, n + j)] = tuple((n + k, F(v)) for k, v in terms)
    return NilpotentAlgebra(n + dim, constants)


@pytest.mark.parametrize("base", ["", "D4"])
def test_stalled_series_raises_without_fallback(base, monkeypatch):
    # [x, y] = y keeps y in every term: the direct series repeats a term,
    # which proves non-nilpotency without the definitional iteration.
    a = NilpotentAlgebra(2, {(0, 1): ((1, 1),)})
    if base:
        d = nilradical(build_root_system(SimpleType.parse(base)))
        a = _direct_sum(change_basis(d, random_unimodular(d.dim, 5)), 2, {(0, 1): ((1, 1),)})

    def no_fallback(b):
        raise AssertionError("the definitional series ran")

    monkeypatch.setattr(nilalg, "_definitional_series", no_fallback)
    with pytest.raises(NotNilpotentError, match="stalls before zero"):
        lower_central_series(a)


P0 = ik.PRIMES[0]
# Lie algebras whose bracket rows lose rank modulo PRIMES[0], the base
# prime of every reduction.  In the first, [e0, e3] = P0 (e2 + e4)
# vanishes mod P0, so F_2's base rows span only e2 and [F_2, G] = 0: only
# the check at l = 1 sees that [e0, e3] is not in F_2.  The second is
# [e0, e1] = e2, [e0, e2] = e3, [e0, e3] = P0 e4, [e1, e2] = e4 in the
# basis e0, ..., e3, e3 + e4: F_2 and F_3 keep their rank and
# F_4 = [F_3, G] has the single row P0 (e4 - e3).  Every bracket row
# that vanishes mod P0 has two nonzero entries: rows with one nonzero
# entry each span their coordinates exactly and need no prime.
UNLUCKY_AT_F2 = NilpotentAlgebra(5, {(0, 1): ((2, 1),), (0, 3): ((2, P0), (4, P0))})
UNLUCKY_LATER = NilpotentAlgebra(
    5, {(0, 1): ((2, 1),), (0, 2): ((3, 1),), (0, 3): ((3, -P0), (4, P0)),
        (0, 4): ((3, -P0), (4, P0)), (1, 2): ((3, -1), (4, 1))})


@pytest.mark.parametrize("a, dims", [(UNLUCKY_AT_F2, (5, 2, 0)),
                                     (UNLUCKY_LATER, (5, 3, 2, 1, 0))], ids=["F2", "F4"])
@pytest.mark.parametrize("seed", [None, 1])
def test_unlucky_base_prime_falls_back_to_the_definition(a, dims, seed, monkeypatch):
    # A unimodular change of basis keeps the rank of every term mod P0.
    if seed is not None:
        a = change_basis(a, random_unimodular(a.dim, seed))
    assert verify_jacobi(a).ok
    ran = []
    monkeypatch.setattr(nilalg, "_definitional_series",
                        lambda b: ran.append(b) or _definitional_series(b))
    f = lower_central_series(a)
    assert ran == [a]
    assert f.dims == dims
    assert f == _definitional_series(a)


def test_unlucky_base_prime_still_proves_non_nilpotency():
    a = _direct_sum(UNLUCKY_AT_F2, 2, {(0, 1): ((1, 1),)})
    with pytest.raises(NotNilpotentError):
        lower_central_series(a)


def test_stall_with_brackets_outside_the_term_falls_back(monkeypatch):
    # Modulo P0 the rows [e0, e1] = -e2 and [e1, e2] = e2 + P0 e3 are
    # dependent and the first, of larger residue, leads: F_2 = span(e2),
    # short of N^2 = span(e2, e3).  The bracket [e2, e1] = -(e2 + P0 e3)
    # has full coordinate rank in F_2 but leaves it, so that stall proves
    # nothing and the definition decides.
    a = NilpotentAlgebra(4, {(0, 1): ((2, -1),), (1, 2): ((2, 1), (3, P0))})
    assert nilalg._direct_series(a) is None
    ran = []
    monkeypatch.setattr(nilalg, "_definitional_series",
                        lambda b: ran.append(b) or _definitional_series(b))
    with pytest.raises(NotNilpotentError, match="stalls before zero"):
        lower_central_series(a)
    assert ran == [a]


def test_non_jacobi_table_with_brackets_outside_a_term_matches_the_definition(monkeypatch):
    # Modulo P0 the row [e3, e4] = e2 + P0 e5 is a multiple of [e0, e1] = -e2,
    # so F_2 = span(e2, e3) falls short of N^2 = span(e2, e3, e5) and
    # [e3, e4] in [F_2, G] leaves F_2.  Its coordinates in F_2 have rank 1,
    # so the series goes on, and the certificate rejects it.  Jacobi fails
    # on (e0, e1, e4).
    a = NilpotentAlgebra(6, {(0, 1): ((2, -1),), (0, 3): ((2, 1),), (1, 4): ((3, 1),),
                             (3, 4): ((2, 1), (5, P0))})
    assert not verify_jacobi(a).ok
    ran = []
    monkeypatch.setattr(nilalg, "_definitional_series",
                        lambda b: ran.append(b) or _definitional_series(b))
    f = lower_central_series(a)
    assert ran == [a]
    assert f.dims == (6, 3, 2, 0)
    assert f == _definitional_series(a)


def _no_fallback(b):
    raise AssertionError("the definitional series ran")


def _routes(monkeypatch) -> list[tuple[str, bool]]:
    """Spy on _direct_series: each call appends (route, certified), the
    route "chain" when an element x is given and "generators" otherwise."""
    direct, routes = nilalg._direct_series, []

    def spy(a, x=None):
        out = direct(a, x)
        routes.append(("generators" if x is None else "chain", out is not None))
        return out

    monkeypatch.setattr(nilalg, "_direct_series", spy)
    return routes


def _many_constants(a) -> bool:
    return np.count_nonzero(a.int_tensor()[0]) > a.dim ** 2


# Item 1's counterexample in ROADMAP: graded like n+(A3), but its centre
# has dimension 2.
CENTRE_2 = NilpotentAlgebra(6, {(0, 1): ((3, 1),), (0, 2): ((4, 1),), (0, 3): ((5, 1),)})


@pytest.mark.parametrize("t", all_types(8), ids=str)
def test_chain_matches_the_generator_series(t, monkeypatch):
    # On every scrambled table with more than n^2 nonzero constants the
    # chain along _chain_element gives the series, with no fallback, and
    # its terms equal the generator series' to the byte.
    a = nilradical(build_root_system(t))
    cases = [change_basis(a, random_unimodular(a.dim, seed)) for seed in (1, 2, 3)]
    want = [nilalg._direct_series(b) for b in cases]
    routes = _routes(monkeypatch)
    for b, w in zip(cases, want):
        routes.clear()
        f = lower_central_series(b)
        assert f == w
        assert [r.nums.dtype for r in f.rrefs] == [r.nums.dtype for r in w.rrefs]
        assert routes == ([("chain", True)] if _many_constants(b) else [("generators", True)])


@pytest.mark.parametrize("seed", [None, 3])
def test_chain_matches_the_generator_series_on_a_non_nilradical(seed, monkeypatch):
    a = CENTRE_2 if seed is None else change_basis(CENTRE_2, random_unimodular(6, seed))
    x = nilalg._chain_element(a.dim)
    assert nilalg._direct_series(a, x) == nilalg._direct_series(a)
    routes = _routes(monkeypatch)
    assert lower_central_series(a).dims == (6, 3, 1, 0)
    assert routes == ([("chain", True)] if _many_constants(a) else [("generators", True)])
    assert _many_constants(a) == (seed is not None)


def test_chain_along_an_element_that_is_not_principal_gives_way(monkeypatch):
    # No unit vector of scrambled B4 (seed 1) is principal: [e_0, N] is
    # short of N^2, so the chain fails its first check right after F_2's
    # one reduction, and the generator series gives the same terms with
    # no definitional run.
    a = nilradical(build_root_system(SimpleType.parse("B4")))
    b = change_basis(a, random_unimodular(a.dim, 1))
    want = lower_central_series(b)
    unit = np.zeros(b.dim, dtype=np.int64)
    unit[0] = 1
    reduce, shapes = ik.rref_of_base_rows, []
    monkeypatch.setattr(ik, "rref_of_base_rows",
                        lambda rows, cols: shapes.append(rows.shape) or reduce(rows, cols))
    assert nilalg._direct_series(b, unit) is None
    assert shapes == [(b.dim, b.dim)]
    monkeypatch.setattr(ik, "rref_of_base_rows", reduce)
    monkeypatch.setattr(nilalg, "_chain_element", lambda n: unit)
    monkeypatch.setattr(nilalg, "_definitional_series", _no_fallback)
    routes = _routes(monkeypatch)
    assert lower_central_series(b) == want
    assert routes == [("chain", False), ("generators", True)]


@pytest.mark.parametrize("t", all_types(6), ids=str)
def test_fast_path_is_taken_on_every_type(t, monkeypatch):
    monkeypatch.setattr(nilalg, "_definitional_series", _no_fallback)
    rs = build_root_system(t)
    a = nilradical(rs)
    for b in [a] + [change_basis(a, random_unimodular(a.dim, seed)) for seed in (1, 2)]:
        assert graded(b).dims == tuple(degree_histogram(rs))


@pytest.mark.parametrize("t", all_types(6), ids=str)
def test_canonical_tables_need_no_residue_prime(t, monkeypatch):
    # In a Chevalley basis every bracket is one basis vector, so every
    # series term, graded piece and pairing row has at most one nonzero
    # entry: no reduction or kernel reaches a residue elimination.  The
    # series of a scrambled table of the same type still does (spied on
    # alone: change_basis inverts a unimodular scramble with no prime).
    rs = build_root_system(t)
    a = nilradical(rs)
    echelon, calls = ik._echelon_mod, []

    def no_prime(x, p):
        raise AssertionError("a residue elimination ran")

    monkeypatch.setattr(ik, "_echelon_mod", no_prime)
    g = graded(a)
    assert g.dims == tuple(degree_histogram(rs))
    cls = g.filtration.nilpotency_class
    for i in range(1, cls + 1):
        for j in range(1, cls + 1 - i):
            p = graded_pairing(g, i, j)
            right_kernel(p)
            left_kernel(p)
    if a.dim > 1:  # A1's one-dimensional table has no bracket to scramble
        # Seed 2: scrambled A2's series with seed 1 makes no elimination.
        scrambled = change_basis(a, random_unimodular(a.dim, 2))
        monkeypatch.setattr(ik, "_echelon_mod", lambda x, p: calls.append(p) or echelon(x, p))
        lower_central_series(scrambled)
        assert calls


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_fast_path_is_taken_on_scrambled_e7_and_e8(name, monkeypatch):
    monkeypatch.setattr(nilalg, "_definitional_series", _no_fallback)
    routes = _routes(monkeypatch)
    rs = build_root_system(SimpleType.parse(name))
    a = nilradical(rs)
    assert graded(change_basis(a, random_unimodular(a.dim, 1))).dims == tuple(degree_histogram(rs))
    assert routes == [("chain", True)]


def test_scrambled_e7_series_makes_few_column_steps(monkeypatch):
    # The chain reduces dim F_l rows [F_l, x] per term, each in the
    # previous term's pivot coordinates, so a reduction is one square
    # block of dim F_l columns, not n, with no sketch.  A column step is one
    # pass of _eliminate's loop: over the columns nonzero on entry, up to
    # the last pivot when the rows run out, all of them otherwise.
    a = nilradical(build_root_system(SimpleType.parse("E7")))
    b = change_basis(a, random_unimodular(a.dim, 11))
    eliminate, steps = ik._eliminate, []

    def spy(x, p):
        nonzero = np.flatnonzero(x.any(axis=0))
        piv, order = eliminate(x, p)
        full = piv and len(piv) == len(x)
        steps.append(int(np.searchsorted(nonzero, piv[-1])) + 1 if full else nonzero.size)
        return piv, order

    monkeypatch.setattr(ik, "_eliminate", spy)
    monkeypatch.setattr(nilalg, "_definitional_series", _no_fallback)
    lower_central_series(b)
    assert sum(steps) <= 450


def test_rational_and_huge_tables_take_the_fast_path(monkeypatch):
    b3 = nilradical(build_root_system(SimpleType.parse("B3")))
    t, scale, _ = b3.int_tensor()
    huge = NilpotentAlgebra._from_scaled(t.astype(object) * 2**200, scale)
    m = random_unimodular(b3.dim, 3)
    # Row i of a unimodular matrix scaled by (i + 2) / 3: invertible, rational.
    rational = Matrix(tuple(tuple(F(x * (i + 2), 3) for x in row) for i, row in enumerate(m)),
                      b3.dim, b3.dim)
    cases = [huge, change_basis(b3, rational), change_basis(huge, rational)]
    want = [_definitional_series(c) for c in cases]
    monkeypatch.setattr(nilalg, "_definitional_series", _no_fallback)
    for c, w in zip(cases, want):
        assert lower_central_series(c) == w
        assert w.dims == (9, 6, 4, 2, 1, 0)


def table_strategy(dim, increasing):
    """Random antisymmetric tables; increasing=True forces nilpotency
    by letting [e_i, e_j] touch only indices above max(i, j)."""

    def entry(i, j):
        lo = max(i, j) + 1 if increasing else 0
        ks = list(range(lo, dim))
        if not ks:
            return st.just(())
        return st.lists(
            st.tuples(st.sampled_from(ks), st.integers(-3, 3)),
            max_size=2,
            unique_by=lambda t: t[0],
        ).map(tuple)

    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    return st.tuples(*[entry(i, j) for i, j in pairs]).map(
        lambda ts: NilpotentAlgebra(dim, dict(zip(pairs, ts)))
    )


@settings(max_examples=40, deadline=None)
@given(table_strategy(5, increasing=True))
def test_series_matches_definition_on_nilpotent_tables(a):
    f = lower_central_series(a)
    assert f == _definitional_series(a)
    assert f.dims[0] == 5 and f.dims[-1] == 0
    assert all(x > y for x, y in zip(f.dims, f.dims[1:]))


@st.composite
def wide_tables(draw):
    """Tables of dims 2-10 with a few nonzero constants per bracket, up to
    2^70, integer or rational; increasing ones are nilpotent, others need
    not be, and neither need satisfy Jacobi.  A third of the draws are
    sparse and increasing: at most three brackets, each a small constant
    and one of 2^65 to 2^70, so that series terms and graded pieces
    reach Python ints."""
    dim = draw(st.integers(2, 10))
    if draw(st.integers(0, 2)) == 0:
        sign = st.sampled_from([-1, 1])
        small = st.builds(lambda m, s: s * m, st.integers(1, 6), sign)
        huge = st.builds(lambda m, s: s * m, st.integers(2**65, 2**70), sign)
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        constants = {}
        for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True)):
            ks = range(j + 1, dim)
            if len(ks) >= 2:
                k0, k1 = draw(st.lists(st.sampled_from(ks), min_size=2, max_size=2, unique=True))
                constants[(i, j)] = ((k0, draw(small)), (k1, draw(huge)))
        return NilpotentAlgebra(dim, constants)
    increasing = draw(st.booleans())
    bound = draw(st.sampled_from([3, 2**20, 2**70]))
    den = st.integers(1, bound) if draw(st.booleans()) else st.just(1)
    value = st.builds(F, st.integers(-bound, bound).filter(bool), den)
    constants = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            ks = range(j + 1 if increasing else 0, dim)
            if ks and draw(st.booleans()):
                picked = draw(st.lists(st.sampled_from(ks), min_size=1, max_size=2, unique=True))
                constants[(i, j)] = tuple((k, draw(value)) for k in picked)
    return NilpotentAlgebra(dim, constants)


@settings(max_examples=150, deadline=None)
@given(st.one_of(table_strategy(4, increasing=False), wide_tables()))
def test_series_agrees_with_definition_on_arbitrary_tables(a):
    try:
        f = lower_central_series(a)
    except NotNilpotentError:
        with pytest.raises(NotNilpotentError):
            _definitional_series(a)
        return
    assert f == _definitional_series(a)




def _fraction_series(a: NilpotentAlgebra) -> list[Matrix]:
    """The lower central series by its definition, reduced by the
    Fraction oracle: N^{k+1} = rref of [row, e_j] over N^k's rows."""
    eye = oracle.identity(a.dim).entries
    terms = [oracle.identity(a.dim)]
    while terms[-1].rows:
        rows = [bracket(a, row, e) for row in terms[-1].entries for e in eye]
        terms.append(oracle.rref(oracle.from_rows(rows, cols=a.dim)))
    return terms


@settings(max_examples=60, deadline=None)
@given(wide_tables())
@example(NilpotentAlgebra(5, {(0, 1): ((2, 2**70), (3, 1)), (0, 2): ((4, 2**61 + 1),)}))
@example(NilpotentAlgebra(5, {(0, 1): ((2, 2**61 + 3), (3, -1)), (0, 2): ((4, F(1, 2**62)),)}))
@example(NilpotentAlgebra(4, {(0, 1): ((2, 2**62), (3, 2**62 - 1))}))
@example(NilpotentAlgebra(5, {(0, 1): ((2, -2**65), (3, -1)), (0, 2): ((3, -1), (4, -2**65))}))
def test_graded_pieces_are_compact_and_match_fraction_series(a):
    # Constants up to 2^70: every term's rows and every piece are int64
    # exactly when their entries are below 2^62.
    try:
        f = lower_central_series(a)
    except NotNilpotentError:
        assume(False)
    terms = _fraction_series(a)
    g = graded(a, f)
    assert [t.basis for t in f.terms] == terms
    for d, (cur, nxt) in enumerate(zip(terms, terms[1:]), start=1):
        drop = set(oracle.pivots(Subspace(a.dim, nxt)))
        want = [row for row, p in zip(cur.entries, oracle.pivots(Subspace(a.dim, cur)))
                if p not in drop]
        assert g.piece(d).entries == tuple(want), d
    pieces = [g.scaled_piece(d)[0] for d in range(1, len(g.dims) + 1)]
    for arr in [t.nums for t in f.rrefs] + pieces:
        big = max((abs(int(x)) for x in arr.flat), default=0) >= 2**62
        assert arr.dtype == (object if big else np.int64)


@pytest.mark.parametrize("a", [
    NilpotentAlgebra(5, {(0, 1): ((2, -2**65), (3, -1)), (0, 2): ((3, -1), (4, -2**65))}),
    NilpotentAlgebra(4, {(0, 1): ((2, F(1, 3)), (3, 2**70))}),
], ids=["row-past-2^62", "piece-past-2^62"])
def test_pieces_given_as_matrices_are_compact(a):
    # Rational pieces come in as Python ints (scaled_int); each is
    # compacted by its own values, like graded()'s integer pieces.
    g = graded(a)
    h = GradedAlgebra(a, g.filtration, g.pieces)
    assert h.pieces == g.pieces
    for d in range(1, len(g.dims) + 1):
        for rows, s in (g.scaled_piece(d), h.scaled_piece(d)):
            big = max((abs(int(x)) for x in rows.flat), default=0) >= 2**62
            assert rows.dtype == (object if big else np.int64), (d, rows)


@pytest.mark.parametrize("t", all_types(4), ids=str)
@pytest.mark.parametrize("seed", [1, 2])
def test_series_matches_definition_on_scrambled_types(t, seed):
    a = nilradical(build_root_system(t))
    b = change_basis(a, random_unimodular(a.dim, seed))
    assert lower_central_series(b) == _definitional_series(b)


def test_scrambled_series_and_graded_dims_build_no_fraction(monkeypatch):
    a = nilradical(build_root_system(SimpleType.parse("E7")))
    b = change_basis(a, random_unimodular(a.dim, 1))
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", staticmethod(counting_new))
        f = lower_central_series(b)
        dims = graded(b, f).dims
        assert built == 0
    assert dims == tuple(degree_histogram(build_root_system(SimpleType.parse("E7"))))
    # The rational view still reads as canonical reduced echelon bases.
    assert tuple(t.dim for t in f.terms) == f.dims
    for term in f.terms:
        assert oracle.rref(term.basis) == term.basis


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_series_dims_are_basis_invariant(seed):
    m = random_unimodular(6, seed)
    f = lower_central_series(change_basis(N4, m))
    assert f.dims == (6, 3, 1, 0)


# -------------------------------------------------------------------- graded


def test_graded_dims():
    assert graded(abelian(3)).dims == (3,)
    assert graded(H3).dims == (2, 1)
    assert graded(N4).dims == (3, 2, 1)


def test_graded_reps_are_standard_vectors_for_canonical_table():
    g = graded(N4)
    eye = oracle.identity(6)
    assert g.piece(1).entries == eye.entries[:3]
    assert g.piece(2).entries == eye.entries[3:5]
    assert g.piece(3).entries == eye.entries[5:]
    assert g.piece(4).rows == 0


def test_graded_degree_bounds():
    with pytest.raises(ValueError):
        graded(H3).piece(0)


@pytest.mark.parametrize("degree", [0, -1])
def test_scaled_piece_degree_starts_at_one(degree):
    # A degree below 1 must not index the pieces from their end.
    g = graded(nilradical(build_root_system(SimpleType.parse("B3"))))
    with pytest.raises(ValueError, match="graded degree starts at 1"):
        g.scaled_piece(degree)
    rows, s = g.scaled_piece(1)
    assert rows.shape == (3, 9) and s == 1


# ------------------------------------------------------------------ pairings


def test_heisenberg_pairing():
    g = graded(H3)
    p = graded_pairing(g, 1, 1)
    assert p.source_dims == (2, 2) and p.target_dim == 1
    assert p.tensor == (((F(0),), (F(1),)), ((F(-1),), (F(0),)))
    assert right_kernel(p) == Subspace.zero(2)
    assert left_kernel(p) == Subspace.zero(2)


def test_pairing_above_class_is_zero():
    g = graded(H3)
    p = graded_pairing(g, 1, 2)
    assert p.target_dim == 0
    assert right_kernel(p) == oracle.full(1)
    assert left_kernel(p) == oracle.full(2)
    # Past the class, a piece has no rows and a pairing no target: int64
    # zeros, as every array below 2^62.
    rows, s = g.scaled_piece(3)
    assert rows.shape == (0, 3) and s == 1 and p.coords.shape == (2, 1, 0)
    assert_compact(rows)
    assert_compact(p.coords)


def test_upper_triangular_pairing_kernels():
    g = graded(N4)
    p = graded_pairing(g, 1, 2)
    assert p.source_dims == (3, 2) and p.target_dim == 1
    # e1 = E23 commutes with both E13 and E24.
    assert left_kernel(p) == span([(0, 1, 0)], 3)
    assert right_kernel(p) == Subspace.zero(2)


def test_pairing_with_a_denominator_beyond_int64():
    # Small integer brackets over a 101-bit denominator: the coordinates
    # stay int64 while the denominator is a Python int.
    g = graded(NilpotentAlgebra(3, {(0, 1): ((2, F(1, 2**100)),)}))
    p = graded_pairing(g, 1, 1)
    assert p.tensor == (((F(0),), (F(1, 2**100),)), ((F(-1, 2**100),), (F(0),)))
    assert right_kernel(p) == Subspace.zero(2)
    p = graded_pairing(g, 1, 2)
    assert p.target_dim == 0 and p.tensor == (((),), ((),))
    assert left_kernel(p) == oracle.full(2)


def test_pairing_degree_bounds():
    with pytest.raises(ValueError):
        graded_pairing(graded(H3), 0, 1)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_pairing_kernel_dims_are_basis_invariant(seed):
    m = random_unimodular(6, seed)
    g = graded(change_basis(N4, m))
    p = graded_pairing(g, 1, 2)
    assert left_kernel(p).dim == 1
    assert right_kernel(p).dim == 0


def _pairing_by_brackets(g: GradedAlgebra, i: int, j: int):
    """Pairing tensor the per-pair way: bracket every pair of
    representatives, then forward-substitute in leading-column order
    against the target representatives and the tail basis (which needs
    their leading columns to be distinct)."""
    a = g.algebra
    if i + j > g.filtration.nilpotency_class:
        target, tail = Matrix((), 0, a.dim), Subspace.zero(a.dim)
    else:
        target, tail = g.piece(i + j), g.filtration.terms[i + j]
    tagged = [(next(c for c, x in enumerate(row) if x), r, row)
              for r, row in enumerate(target.entries)]
    tagged += [(p, -1, row) for p, row in zip(oracle.pivots(tail), tail.basis.entries)]
    tagged.sort(key=lambda item: item[0])

    def coords(w):
        w = list(w)
        out = [F(0)] * target.rows
        for p, r, row in tagged:
            if w[p]:
                f = w[p] / row[p]
                w = [x - f * y for x, y in zip(w, row)]
                if r >= 0:
                    out[r] = f
        assert not any(w)
        return tuple(out)

    return tuple(tuple(coords(bracket(a, x, y)) for y in g.piece(j).entries)
                 for x in g.piece(i).entries)


def _perturbed(g: GradedAlgebra, seed: int) -> GradedAlgebra:
    """Every representative plus a random element of the next
    filtration term: the same cosets, other representatives."""
    rng = random.Random(seed)
    pieces = []
    for d, piece in enumerate(g.pieces, start=1):
        rows = []
        for row in piece.entries:
            new = list(row)
            for trow in g.filtration.terms[d].basis.entries:
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                new = [x + c * y for x, y in zip(new, trow)]
            rows.append(tuple(new))
        pieces.append(Matrix(tuple(rows), len(rows), g.algebra.dim))
    return GradedAlgebra(g.algebra, g.filtration, tuple(pieces))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_pairing_matches_per_pair_brackets(name, seed):
    a = nilradical(build_root_system(SimpleType.parse(name)))
    scrambled = graded(change_basis(a, random_unimodular(a.dim, seed)))
    for g in (scrambled, _perturbed(graded(a), seed)):
        cls = g.filtration.nilpotency_class
        for i in range(1, cls + 1):
            for j in range(1, cls + 2 - i):
                assert graded_pairing(g, i, j).tensor == _pairing_by_brackets(g, i, j), (i, j)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_pairing_kernels_match_fraction_kernel(name, seed):
    # The Fraction tensor flattened to matrices, rows (u, target
    # coordinate) for the right kernel and (v, target coordinate) for the
    # left, reduced by the Fraction oracle.
    a = nilradical(build_root_system(SimpleType.parse(name)))
    scrambled = graded(change_basis(a, random_unimodular(a.dim, seed)))
    for g in (scrambled, _perturbed(graded(a), seed)):
        cls = g.filtration.nilpotency_class
        for i in range(1, cls + 1):
            for j in range(1, cls + 2 - i):
                p = graded_pairing(g, i, j)
                (du, dv), dt = p.source_dims, p.target_dim
                right = [[p.tensor[x][b][c] for b in range(dv)] for x in range(du) for c in range(dt)]
                left = [[p.tensor[x][b][c] for x in range(du)] for b in range(dv) for c in range(dt)]
                assert right_kernel(p) == oracle.kernel(oracle.from_rows(right, cols=dv)), (i, j)
                assert left_kernel(p) == oracle.kernel(oracle.from_rows(left, cols=du)), (i, j)


@pytest.mark.parametrize("name", ["C3", "G2"])
def test_pairing_caches_do_not_depend_on_request_order(name):
    # Each GradedAlgebra caches the contraction of every source piece and
    # the row space of every target degree on first use.
    a = nilradical(build_root_system(SimpleType.parse(name)))
    b = change_basis(a, random_unimodular(a.dim, 1))
    f = lower_central_series(b)
    cls = f.nilpotency_class
    pairs = [(i, j) for i in range(1, cls + 1) for j in range(1, cls + 2 - i)]
    g = graded(b, f)
    backwards = {(i, j): graded_pairing(g, i, j) for i, j in reversed(pairs)}
    for i, j in pairs:
        fresh = graded_pairing(graded(b, f), i, j)
        p = backwards[(i, j)]
        assert p.den == fresh.den and np.array_equal(p.coords, fresh.coords), (i, j)
        assert p.tensor == fresh.tensor, (i, j)


@pytest.mark.parametrize("name", ["B3", "C3", "G2"])
def test_pairing_representative_independence_on_scrambled_tables(name):
    # Perturbed representatives of a scrambled table may lead at a
    # pivot column of the tail basis.
    a = nilradical(build_root_system(SimpleType.parse(name)))
    g = graded(change_basis(a, random_unimodular(a.dim, 1)))
    gp = _perturbed(g, 1)
    cls = g.filtration.nilpotency_class
    for i in range(1, cls + 1):
        for j in range(1, cls + 1 - i):
            assert graded_pairing(gp, i, j).tensor == graded_pairing(g, i, j).tensor, (i, j)


def _with_piece(g: GradedAlgebra, k: int, rows) -> GradedAlgebra:
    pieces = [g.scaled_piece(d) for d in range(1, len(g.dims) + 1)]
    pieces[k - 1] = np.array(rows, dtype=object), pieces[k - 1][1]
    return GradedAlgebra(g.algebra, g.filtration, tuple(pieces))


def test_representatives_are_checked_per_degree():
    # B3's graded dims are (3, 2, 2, 1, 1); piece 2 is rows 3 and 4 of
    # the identity, so [gr^1, gr^1] lands in degree 2.
    g = graded(nilradical(build_root_system(SimpleType.parse("B3"))))
    gr1, gr2 = g.scaled_piece(1)[0], g.scaled_piece(2)[0]
    cases = [
        (2, [gr2[0], gr2[0]], "graded piece 2 is not a basis modulo filtration term 3"),
        (2, [gr2[0], gr2[1], gr2[0]], "graded piece 2 is not a basis modulo filtration term 3"),
        (2, [gr2[0], gr2[1] + gr1[0]], "graded piece 2 does not lie in filtration term 2"),
        (1, [gr1[0], gr1[1]], "graded piece 1 is not a basis modulo filtration term 2"),
    ]
    for k, rows, message in cases:
        with pytest.raises(ValueError, match=message):
            graded_pairing(_with_piece(g, k, rows), 1, 1)


def test_coset_coordinates_out_of_primes_are_not_a_basis_error(monkeypatch):
    # Piece 1 of A3 mixed so that Z = [[P0, 1, 0], [1, 0, 0], [0, 0, 2]],
    # whose inverse holds -P0 and 1/2: not integral, so float64 cannot
    # certify it, and one prime cannot reconstruct it.  Running out of
    # primes is not a ValueError ("not a basis").
    g = graded(nilradical(build_root_system(SimpleType.parse("A3"))))
    p0, gr1 = ik.PRIMES[0], g.scaled_piece(1)[0]
    rows = [p0 * gr1[0] + gr1[1], gr1[0], 2 * gr1[2]]
    want = augmented_pairing(_with_piece(g, 1, rows), 1, 1)
    assert graded_pairing(_with_piece(g, 1, rows), 1, 1).tensor == want.tensor
    monkeypatch.setattr(ik, "PRIMES", (p0,))
    with pytest.raises(ik.PrimesExhausted):
        graded_pairing(_with_piece(g, 1, rows), 1, 1)


def _mixed(g: GradedAlgebra, seed: int) -> GradedAlgebra:
    """Each piece's rows mixed by a unimodular matrix: the same cosets
    in another basis of each, so the coset coordinates' Z is not
    diagonal."""
    pieces = []
    for d in range(1, len(g.dims) + 1):
        rows, s = g.scaled_piece(d)
        u = np.array(random_unimodular(rows.shape[0], seed + d), dtype=object)
        pieces.append((u @ rows, s))
    return GradedAlgebra(g.algebra, g.filtration, tuple(pieces))


@pytest.mark.parametrize("t", all_types(6), ids=str)
def test_pairing_matches_the_augmented_reduction(t):
    # Canonical, scrambled, perturbed and mixed representatives; every
    # pairing into degrees up to class + 2, past the zero term.
    a = nilradical(build_root_system(t))
    canonical = graded(a)
    degrees = range(1, len(canonical.dims) + 1)
    scrambled = [graded(change_basis(a, random_unimodular(a.dim, seed))) for seed in (1, 2)]
    variants = [canonical, *scrambled,
                _perturb_pieces(canonical, degrees, random.Random(1)),
                _mixed(_perturb_pieces(scrambled[1], degrees, random.Random(2)), 3)]
    cls = canonical.filtration.nilpotency_class
    for v, g in enumerate(variants):
        for i in range(1, cls + 2):
            for j in range(1, cls + 3 - i):
                p, want = graded_pairing(g, i, j), augmented_pairing(g, i, j)
                assert p.tensor == want.tensor, (v, i, j)
                assert right_kernel(p) == right_kernel(want), (v, i, j)
                assert left_kernel(p) == left_kernel(want), (v, i, j)


# A nilpotent table without Jacobi: gr^2 = <e3, e4> and [e3, e4] = e5, which
# spans N^3 but not N^4 = 0.
LEAVING = NilpotentAlgebra(6, {(0, 1): ((3, 1),), (0, 2): ((4, 1),), (3, 4): ((5, 1),)})


def test_bracket_leaving_its_level_raises():
    g = graded(LEAVING)
    assert g.dims == (3, 2, 1)
    assert graded_pairing(g, 1, 1).tensor == augmented_pairing(g, 1, 1).tensor
    for pairing in (graded_pairing, augmented_pairing):
        with pytest.raises(AssertionError, match="bracket left the expected filtration level"):
            pairing(g, 2, 2)


@settings(max_examples=80, deadline=None)
@given(wide_tables())
@example(LEAVING)
@example(NilpotentAlgebra(5, {(0, 1): ((2, 2**70), (3, 1)), (0, 2): ((4, 2**61 + 1),)}))
def test_pairing_matches_the_augmented_reduction_on_arbitrary_tables(a):
    # Tables without Jacobi, with terms in int64 and in Python ints: the
    # pairing and its bracket check agree with the augmented reduction,
    # which raises on the same brackets.
    try:
        g = graded(a)
    except NotNilpotentError:
        assume(False)
    cls = len(g.dims)
    for i in range(1, cls + 1):
        for j in range(1, cls + 2 - i):
            try:
                want = augmented_pairing(g, i, j)
            except AssertionError:
                with pytest.raises(AssertionError, match="left the expected filtration level"):
                    graded_pairing(g, i, j)
                continue
            assert graded_pairing(g, i, j).tensor == want.tensor, (i, j)


# -------------------------------------------------------------- change_basis


def test_change_basis_identity():
    assert change_basis(N4, oracle.identity(6)) == N4


def test_change_basis_permutation():
    # f0 = e2, f1 = e1, f2 = e0: [f1, f2] = [e1, e0] = -e2 = -f0.
    m = oracle.from_rows([(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert change_basis(H3, m) == NilpotentAlgebra(3, {(1, 2): ((0, -1),)})


def test_change_basis_scaling():
    m = oracle.from_rows([(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    assert change_basis(H3, m) == NilpotentAlgebra(3, {(0, 1): ((2, F(6, 5)),)})


def test_change_basis_rejects_singular():
    m = oracle.from_rows([(1, 1, 0), (1, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        change_basis(H3, m)


def test_change_basis_rejects_wrong_shape():
    with pytest.raises(ValueError):
        change_basis(H3, oracle.identity(4))


@pytest.mark.parametrize("x", [1.5, F(3, 2), np.float64(1.5)])
def test_change_basis_rejects_integer_rows_that_are_not_integers(x):
    # The Matrix path reads 3/2; integer rows must not truncate it to 1.
    with pytest.raises(TypeError, match="floating point input is not allowed"):
        change_basis(H3, [[x, 1, 0], [0, 1, 0], [0, 0, 1]])


def test_change_basis_reads_numpy_integers_as_python_ints():
    # Held as numpy scalars, 2^61 would wrap around in the kernel's products.
    rows = lambda x: [[x, 1, 0], [0, 1, 0], [0, 0, x]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert change_basis(H3, rows(np.int64(2**61))) == change_basis(
            H3, oracle.from_rows(rows(2**61)))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_change_basis_composes(s0, s1):
    m0 = unimodular_matrix(3, s0)
    m1 = unimodular_matrix(3, s1)
    assert change_basis(change_basis(H3, m0), m1) == change_basis(H3, oracle.matmul(m1, m0))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_change_basis_preserves_brackets(seed):
    # [x, y] computed in new coordinates matches the old bracket mapped
    # through the basis change.
    m = unimodular_matrix(6, seed)
    b = change_basis(N4, m)
    x_new, y_new = (1, 0, 2, 0, -1, 0), (0, 1, 0, 3, 0, 1)
    x_old = oracle.matmul(oracle.from_rows([x_new]), m).entries[0]
    y_old = oracle.matmul(oracle.from_rows([y_new]), m).entries[0]
    w_old = bracket(N4, x_old, y_old)
    w_new = bracket(b, x_new, y_new)
    assert oracle.matmul(oracle.from_rows([w_new]), m).entries[0] == w_old


def _basis_matrices(n):
    """Invertible n x n matrices: unimodular, unimodular times a rational
    diagonal, and arbitrary small rational ones."""
    unimodular = st.integers(0, 10_000).map(lambda s: unimodular_matrix(n, s))
    diagonal = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7)
                        .filter(bool), min_size=n, max_size=n)
    scaled = st.tuples(unimodular, diagonal).map(
        lambda md: oracle.matmul(md[0], oracle.from_rows(
            [[md[1][i] if i == k else 0 for k in range(n)] for i in range(n)])))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    dense = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(
        oracle.from_rows)
    return st.one_of(unimodular, scaled, dense)


@st.composite
def algebra_and_basis(draw):
    """Random antisymmetric tables (not necessarily Lie algebras) with
    small, 2^70-sized and rational constants, and an invertible basis."""
    n = draw(st.integers(1, 5))
    value = st.one_of(
        st.integers(-3, 3),
        st.integers(-2**70, 2**70),
        st.fractions(max_denominator=2**20).map(lambda x: x * 2**50),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
    )
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            constants[(i, j)] = tuple(draw(st.lists(
                st.tuples(st.integers(0, n - 1), value), max_size=2, unique_by=lambda t: t[0])))
    m = draw(_basis_matrices(n))
    try:
        oracle.inverse(m)
    except ValueError:
        assume(False)
    return NilpotentAlgebra(n, constants), m


@settings(max_examples=150, deadline=None)
@given(algebra_and_basis())
@example((NilpotentAlgebra(3, {(0, 1): ((2, 2**70 + 1),), (1, 2): ((0, F(-7, 3)),)}),
          unimodular_matrix(3, 4)))
@example((NilpotentAlgebra(3, {(0, 1): ((2, F(1, 2)),)}),
          oracle.from_rows([(2, 0, 0), (0, 1, 0), (0, 0, 1)])))
def test_change_basis_matches_fraction_oracle(case):
    a, m = case
    b = change_basis(a, m)
    want = NilpotentAlgebra(a.dim, oracle.change_basis(a, m))
    got_t, got_scale, got_max = b.int_tensor()
    want_t, want_scale, want_max = want.int_tensor()
    assert (got_scale, got_max) == (want_scale, want_max)
    assert got_t.dtype == (np.int64 if want_max < 2**62 else object)
    assert np.array_equal(got_t, want_t)
    assert b == want
    assert b.constants == want.constants
    assert NilpotentAlgebra(b.dim, b.constants) == b


def test_scrambled_identification_never_builds_the_fraction_view():
    # identify and verify_jacobi read the integer tensor only; the
    # sparse Fraction table is for I/O.
    a = nilradical(build_root_system(SimpleType.parse("E6")))
    b = change_basis(a, random_unimodular(a.dim, 1))
    assert identify(b).canonical == SimpleType.parse("E6")
    assert verify_jacobi(b).ok
    assert b._constants is None


# ------------------------------------------------------------ integer kernel


int_rows = st.lists(
    st.tuples(*[st.integers(-30, 30)] * 5), min_size=0, max_size=6
)


def oracle_span(rows) -> Subspace:
    return Subspace(5, oracle.rref(oracle.from_rows(rows, cols=5)))


@given(int_rows)
def test_scaled_rref_matches_rational_rref(rows):
    e = ik.ScaledRref(5)
    for r in rows:
        e.insert(np.array(r, dtype=object))
    expect = oracle_span(rows)
    assert e.to_subspace() == expect
    assert e.dim == expect.dim


@given(int_rows)
def test_scaled_rref_batch_insert_matches_single(rows):
    one = ik.ScaledRref(5)
    for r in rows:
        one.insert(np.array(r, dtype=object))
    batch = ik.rref_from_rows(np.array(rows, dtype=object).reshape(len(rows), 5), 5)
    assert batch.to_subspace() == one.to_subspace()


@given(int_rows, st.tuples(*[st.integers(-30, 30)] * 5))
def test_scaled_rref_membership(rows, probe):
    e = ik.ScaledRref(5)
    for r in rows:
        e.insert(np.array(r, dtype=object))
    res = e.residuals(np.array([probe], dtype=object))
    assert (not res.any()) == oracle_span(rows).contains(probe)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_exact_matmul_matches_object_product(r, inner, c, data):
    bound = data.draw(st.sampled_from([3, 2**20, 2**35]))
    a = np.array(
        data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=inner, max_size=inner), min_size=r, max_size=r)),
        dtype=object,
    )
    b = np.array(
        data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c), min_size=inner, max_size=inner)),
        dtype=object,
    )
    got = ik.exact_matmul(a, b, ik.max_abs(a), ik.max_abs(b))
    assert np.array_equal(np.asarray(got, dtype=object), a @ b)


def test_residue_primes_are_distinct_primes():
    assert len(set(ik.PRIMES)) == len(ik.PRIMES) > 1000
    for p in ik.PRIMES[:50] + ik.PRIMES[-50:]:
        assert p < 2**21 and all(p % d for d in range(2, math.isqrt(p) + 1))


@given(st.integers(0, len(ik.PRIMES) - 1), st.integers(1, 2048), st.integers(0, 2**32 - 1))
def test_residue_matmul_matches_object_product(k, inner, seed):
    p = ik.PRIMES[k]
    rng = np.random.default_rng(seed)
    # Row 0 and column 0 are uniform residues; the rest sit at p - 1 or
    # just below, which pushes dot products towards inner * (p - 1)^2.
    a = p - 1 - rng.integers(0, 4, size=(3, inner))
    b = p - 1 - rng.integers(0, 4, size=(inner, 3))
    a[0], b[:, 0] = rng.integers(0, p, size=inner), rng.integers(0, p, size=inner)
    got = ik._mod_matmul(a, b, p)  # inner <= 2048 keeps it on float64 BLAS
    assert got.dtype == np.int64
    assert got.tolist() == ((a.astype(object) @ b.astype(object)) % p).tolist()
