"""Tests for the Chevalley structure constants of nilradicals.

Frozen oracles were worked out by hand:

* A3 against the strictly upper triangular 4x4 matrix model.
* B2: [x_{e2}, x_{e1}] = 2 x_{e1+e2} because the e2-string through e1
  is e1, e1-e2 (two steps down), so |N| = 2.
* G2 chain: with short a and long b, N(a, a+b) = 2, N(a, 2a+b) = 3,
  and the Jacobi identity on (x_{-b}, x_{a+b}, x_{2a+b}) forces
  N(a+b, 2a+b) = 3: the only surviving term pairs N(-b, a+b) = 1 with
  N(a, 2a+b) = 3 against N(3a+2b, -b) = -1.

Independent cross-checks: |N(alpha, beta)| = p + 1 where p counts the
alpha-string below beta, support exactly on pairs whose sum is a root,
positivity on each degree-minimal pair, and the Jacobi identity.  The
Root/Fraction construction that the integer tables replaced
(chevalley_oracle) must give the same roots and the same table.
"""

import json
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from lienil import _intkernel as ik
from lienil import chevalley
from lienil.chevalley import JacobiReport, jacobi_primes, nilradical, verify_jacobi
from lienil.cli import algebra_to_payload
from lienil.exactlin import random_unimodular
from lienil.nilalg import NilpotentAlgebra, change_basis, lower_central_series
from lienil.rootsys import RootSystem, SimpleType, all_types, build_root_system

import chevalley_oracle as oracle

F = Fraction


def nil(name):
    return nilradical(build_root_system(SimpleType.parse(name)))


def rsys(name):
    return build_root_system(SimpleType.parse(name))


def test_a1_is_abelian_line():
    a = nil("A1")
    assert a.dim == 1 and a.constants == {}


def test_a2_is_heisenberg():
    a = nil("A2")
    assert a.dim == 3
    assert a.constants == {(0, 1): ((2, F(1)),)}


def test_a3_matches_upper_triangular_model():
    a = nil("A3")
    assert a.dim == 6
    assert a.constants == {
        (0, 1): ((3, F(1)),),
        (1, 2): ((4, F(1)),),
        (0, 4): ((5, F(1)),),
        (2, 3): ((5, F(-1)),),
    }


def test_b2_has_a_doubled_constant():
    a = nil("B2")
    assert a.dim == 4
    assert a.constants == {
        (0, 1): ((2, F(1)),),
        (0, 2): ((3, F(2)),),
    }


def test_g2_table():
    a = nil("G2")
    assert a.dim == 6
    assert a.constants == {
        (0, 1): ((2, F(1)),),
        (0, 4): ((5, F(1)),),
        (1, 2): ((3, F(2)),),
        (1, 3): ((4, F(3)),),
        (2, 3): ((5, F(3)),),
    }


@pytest.mark.parametrize("t", all_types(8), ids=str)
def test_integer_tables_match_the_fraction_construction(t):
    # all_types(8) includes E8.  Same constants, same scaled tensor and
    # the same file payload, byte for byte.
    rs = build_root_system(t)
    assert rs.positive_roots == oracle.positive_roots(t)
    a, want = nilradical(rs), oracle.nilradical(rs)
    assert a.constants == want.constants
    t_a, t_w = a.int_tensor(), want.int_tensor()
    assert t_a[1:] == t_w[1:] and t_a[0].dtype == t_w[0].dtype
    assert np.array_equal(t_a[0], t_w[0])
    assert json.dumps(algebra_to_payload(a)) == json.dumps(algebra_to_payload(want))


@pytest.mark.parametrize("name", ["D20", "A27", "D22", "A30", "G2", "F4"])
def test_root_keys_stay_int64_and_find_sums_and_differences(name):
    # Mixed-radix keys: D20 and A27 would pass 2^62 with one base for
    # every simple root (9^20 and 5^27).  plus and minus must agree with
    # a lookup of the coefficient tuples themselves.
    rs = rsys(name)
    coeffs = [r.coeffs for r in rs.positive_roots]
    assert chevalley._root_keys(np.array(coeffs, dtype=np.int64)).dtype == np.int64
    plus, minus, _ = chevalley._root_tables(rs)
    at = {c: k for k, c in enumerate(coeffs)}
    n = len(coeffs)
    for i in range(n):
        for j in range(i + 1, n):
            add = tuple(x + y for x, y in zip(coeffs[i], coeffs[j]))
            sub = tuple(y - x for x, y in zip(coeffs[i], coeffs[j]))
            assert plus[i, j] == at.get(add, -1)
            assert minus[j, i] == at.get(sub, -1)


def test_building_e8_creates_no_fraction(monkeypatch):
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", staticmethod(counting_new))
        # The root system too, bypassing build_root_system's cache.
        a = nilradical(build_root_system.__wrapped__(SimpleType("E", 8)))
        assert built == 0
    assert a.dim == 120 and len(a.constants) > 0


def test_inexact_division_raises():
    # B3's roots measured with C3's lengths: some N(u, -alpha1) is no integer.
    b3 = rsys("B3")
    corrupt = RootSystem(SimpleType("C", 3), b3.cartan, b3.positive_roots, b3.index_of)
    with pytest.raises(AssertionError, match="is not an integer"):
        nilradical(corrupt)


def test_dimension_is_number_of_positive_roots():
    for t in all_types(6):
        rs = build_root_system(t)
        assert nilradical(rs).dim == len(rs.positive_roots)


def test_support_is_exactly_root_sums():
    for name in ["A4", "B3", "C4", "D4", "F4", "G2"]:
        rs = rsys(name)
        a = nilradical(rs)
        pos = rs.positive_roots
        for i in range(a.dim):
            for j in range(i + 1, a.dim):
                s = oracle.add(pos[i], pos[j])
                if rs.is_positive_root(s):
                    ((k, v),) = a.constants[(i, j)]
                    assert k == rs.index_of[s]
                    assert v != 0
                else:
                    assert (i, j) not in a.constants


def test_magnitude_is_string_length():
    for name in ["A4", "B4", "C4", "D4", "F4", "G2"]:
        rs = rsys(name)
        a = nilradical(rs)
        pos = rs.positive_roots
        for (i, j), ((k, v),) in a.constants.items():
            p = oracle.string_down_length(lambda r: oracle.is_root(rs, r), pos[j], pos[i])
            assert abs(v) == p + 1
            assert abs(v) in (1, 2, 3)


def test_simply_laced_constants_are_units():
    for name in ["A5", "D5", "E6"]:
        a = nil(name)
        assert all(abs(v) == 1 for terms in a.constants.values() for (_, v) in terms)


def test_triple_constants_only_in_g2():
    seen = {}
    for name in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        a = nil(name)
        seen[name] = {abs(v) for terms in a.constants.values() for (_, v) in terms}
    assert 3 in seen["G2"]
    assert all(3 not in seen[n] for n in seen if n != "G2")
    assert 2 in seen["B3"] and 2 in seen["C3"] and 2 in seen["F4"]
    assert seen["A3"] == {1} and seen["D4"] == {1}


def test_minimal_pair_constant_is_positive():
    for name in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = rsys(name)
        a = nilradical(rs)
        pos = rs.positive_roots
        for gi, gamma in enumerate(pos):
            if gamma.degree == 1:
                continue
            first = min(
                (i, j)
                for (i, j) in a.constants
                if rs.index_of[oracle.add(pos[i], pos[j])] == gi
            )
            ((_, v),) = a.constants[first]
            assert v > 0


def test_jacobi_holds():
    for t in all_types(5):
        rs = build_root_system(t)
        report = verify_jacobi(nilradical(rs))
        assert report.ok
        assert report.violations == ()
        if rs.rank > 1:
            assert report.triples_checked > 0


def test_sign_mutation_breaks_jacobi():
    a = nil("B3")
    key = sorted(a.constants)[0]
    ((k, v),) = a.constants[key]
    mutated = dict(a.constants)
    mutated[key] = ((k, -v),)
    report = verify_jacobi(NilpotentAlgebra(a.dim, mutated))
    assert not report.ok
    assert len(report.violations) > 0


def test_magnitude_mutation_breaks_jacobi():
    a = nil("C3")
    key = sorted(a.constants)[-1]
    ((k, v),) = a.constants[key]
    mutated = dict(a.constants)
    mutated[key] = ((k, 2 * v),)
    report = verify_jacobi(NilpotentAlgebra(a.dim, mutated))
    assert not report.ok


def test_nilradical_is_deterministic():
    assert nil("D4") == nil("D4")
    assert nil("F4") == nil("F4")


def test_series_matches_degree_layers_for_b3():
    # 9 positive roots with degree counts 3, 2, 2, 1, 1.
    f = lower_central_series(nil("B3"))
    assert f.dims == (9, 6, 4, 2, 1, 0)


def test_verify_jacobi_on_non_lie_table():
    # [[e0, e1], e3] = [e2, e3] = e4 while the other two terms vanish.
    bad = NilpotentAlgebra(
        5, {(0, 1): ((2, 1),), (0, 2): ((3, 1),), (2, 3): ((4, 1),)}
    )
    report = verify_jacobi(bad)
    assert not report.ok
    assert (0, 1, 3) in report.violations


# ------------------------------------------- modular check vs the old loop


def _jacobi_by_loop(a: NilpotentAlgebra) -> JacobiReport:
    """The original check: a Python loop over the dict terms of every
    sorted triple that touches a nonzero bracket, in exact Fractions."""
    nbr: dict = {}
    for (i, j), terms in a.constants.items():
        nbr.setdefault(i, {})[j] = terms
        nbr.setdefault(j, {})[i] = tuple((k, -v) for k, v in terms)
    candidates = {
        tuple(sorted((i, j, k)))
        for (i, j) in a.constants
        for k in range(a.dim)
        if k != i and k != j
    }

    def add_term(out, first, second, third):
        for m, c in nbr.get(first, {}).get(second, ()):
            for r, c2 in nbr.get(m, {}).get(third, ()):
                out[r] = out.get(r, Fraction(0)) + c * c2

    violations = []
    for i, j, k in sorted(candidates):
        out: dict = {}
        add_term(out, i, j, k)
        add_term(out, j, k, i)
        add_term(out, k, i, j)
        if any(out.values()):
            violations.append((i, j, k))
    return JacobiReport(not violations, tuple(violations), len(candidates))


@st.composite
def random_tables(draw):
    """Sparse antisymmetric tables of dim 3-8 with integer or rational
    constants up to 2^70, so the bound asks for one prime or many."""
    n = draw(st.integers(3, 8))
    top = draw(st.sampled_from([7, 2**15, 2**30, 2**70]))
    den = st.integers(1, 12) if draw(st.booleans()) else st.just(1)
    value = st.builds(Fraction, st.integers(-top, top), den)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    return NilpotentAlgebra(n, {
        key: tuple(draw(st.dictionaries(st.integers(0, n - 1), value, min_size=1,
                                        max_size=2)).items())
        for key in keys
    })


@st.composite
def lie_tables(draw):
    """Chevalley tables of dim <= 8, scaled by a large rational and
    scrambled: Jacobi holds, the constants are dense and large."""
    a = nil(draw(st.sampled_from(["A2", "B2", "A3", "G2"])))
    c = Fraction(draw(st.integers(1, 2**70)), draw(st.integers(1, 12)))
    scaled = NilpotentAlgebra(a.dim, {
        key: tuple((k, c * v) for k, v in terms) for key, terms in a.constants.items()
    })
    return change_basis(scaled, random_unimodular(a.dim, draw(st.integers(0, 2**16))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_tables(), lie_tables()))
def test_verify_jacobi_matches_loop(a):
    note(f"{len(jacobi_primes(a))} residue primes")
    assert verify_jacobi(a) == _jacobi_by_loop(a)


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_tables(), lie_tables()), st.sampled_from([0, 200, 2**11, 2**20]))
def test_verify_jacobi_paths_match_loop(a, entries):
    # At dim <= 8 P over every pair has at most 28 * 8^2 = 1792 entries:
    # 2^11 and 2^20 take the whole-table path, 0 the one-x path, and 200
    # the first up to dim 4 and the second from dim 5.  0, and 200 from
    # dim 7, make batches of one pair; 2^11 splits dim 8's 56 triples
    # into four batches.
    n = a.dim
    with patch.object(chevalley, "_ENTRIES", entries):
        whole = n * (n - 1) // 2 * n * n <= entries
        note(f"{'whole-table' if whole else 'one-x'} path, batches of "
             f"{max(1, entries // (16 * n))}")
        assert verify_jacobi(a) == _jacobi_by_loop(a)


def test_scrambled_e7_check_peaks_below_four_tensors():
    # Each x's product is freed before the next is made, so the one-x
    # path on dim 63 peaks near three float64 tensors of n^3 entries.
    a = change_basis(nil("E7"), random_unimodular(63, 101))
    a.int_tensor()
    tracemalloc.start()
    try:
        report = verify_jacobi(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak <= 4 * 63**3 * 8, peak


@pytest.mark.parametrize("dim", [1, 2])
def test_no_triples_below_dim_three(dim):
    constants = {(0, 1): ((0, 1), (1, 1))} if dim == 2 else {}
    assert verify_jacobi(NilpotentAlgebra(dim, constants)) == JacobiReport(True, (), 0)


def test_dim_above_1024_is_refused_before_the_tensor_is_built():
    a = NilpotentAlgebra(1025, {})
    with pytest.raises(ValueError, match="up to dim 1024"):
        verify_jacobi(a)
    assert a._tensor is None


def test_prime_count_follows_bound():
    # 3 * n * tmax^2 against products of primes just below 2^21.
    for tmax, count in [(1, 1), (2**15, 2), (2**30, 4)]:
        a = NilpotentAlgebra(3, {(0, 1): ((2, tmax),)})
        assert len(jacobi_primes(a)) == count


def test_planted_violation_needs_every_prime():
    # [[e0, e1], e3] = c1 [e2, e3] = c1 c2 e4 is the only nonzero
    # Jacobiator; with c1, c2 the first two residue primes it vanishes
    # modulo both, so only the third prime the bound selects sees it.
    c1, c2 = ik.PRIMES[0], ik.PRIMES[1]
    a = NilpotentAlgebra(5, {(0, 1): ((2, c1),), (2, 3): ((4, c2),)})
    assert len(jacobi_primes(a)) == 3
    report = verify_jacobi(a)
    assert report.violations == ((0, 1, 3),)
    assert report == _jacobi_by_loop(a)
