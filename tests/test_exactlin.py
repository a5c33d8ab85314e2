import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_linalg as oracle
import lienil
from lienil import _intkernel as ik
from lienil.exactlin import (
    Matrix,
    Subspace,
    inverse,
    kernel,
    random_unimodular,
    vector,
)

F = Fraction


def rref(m: Matrix) -> Matrix:
    """m's canonical reduced row echelon basis, from ScaledRref."""
    return ik.rref_from_rows(ik.scaled_int(m)[0], m.cols).to_subspace().basis


def rank(m: Matrix) -> int:
    return rref(m).rows


def span(vectors, ambient: int) -> Subspace:
    return ik.rref_from_rows(np.array(vectors, dtype=object), ambient).to_subspace()


def det_by_permutation_expansion(m: Matrix) -> Fraction:
    # Independent oracle: Leibniz formula, fine for d <= 4.
    n = m.rows
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= m.entries[i][perm[i]]
        total += sign * prod
    return total


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def small_matrix(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return oracle.from_rows(rows)


oracle_entries = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
)


@st.composite
def low_rank_matrix(draw, square=False):
    """A product of r x k and k x c matrices, so its rank is at most k:
    empty, zero, rank-deficient and full-rank matrices all occur."""
    r = draw(st.integers(min_value=0, max_value=6))
    c = r if square else draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=min(r, c)))
    a = [[draw(oracle_entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(oracle_entries) for _ in range(c)] for _ in range(k)]
    rows = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(c)]
            for i in range(r)]
    return oracle.from_rows(rows, cols=c)


class TestAgainstFractionOracle:
    """The integer engine against textbook Fraction Gauss-Jordan."""

    @settings(max_examples=150, deadline=None)
    @given(low_rank_matrix())
    def test_rref(self, m):
        assert rref(m) == oracle.rref(m)

    @settings(max_examples=150, deadline=None)
    @given(low_rank_matrix())
    def test_kernel(self, m):
        assert kernel(m) == oracle.kernel(m)

    @settings(max_examples=150, deadline=None)
    @given(low_rank_matrix(square=True))
    def test_inverse(self, m):
        try:
            want = oracle.inverse(m)
        except ValueError:
            with pytest.raises(ValueError, match="matrix is singular"):
                inverse(m)
        else:
            assert inverse(m) == want


@pytest.mark.parametrize("module", ["lienil.exactlin", "lienil._intkernel"])
def test_module_imports_first(module):
    # exactlin and _intkernel import each other; either may come first.
    env = dict(os.environ, PYTHONPATH=str(Path(lienil.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestRref:
    def test_identity_is_fixed(self):
        m = oracle.identity(4)
        assert rref(m) == m

    def test_dependent_rows_collapse(self):
        # By hand: [[2,4],[1,2]] has row space spanned by (1,2).
        m = oracle.from_rows([[2, 4], [1, 2]])
        assert rref(m) == oracle.from_rows([[1, 2]])

    def test_zero_matrix_drops_all_rows(self):
        m = oracle.zeros(3, 3)
        red = rref(m)
        assert red.rows == 0 and red.cols == 3

    def test_hand_reduced_3x3(self):
        # Worked by hand: rows (1,2,3), (2,4,7), (1,2,4).
        # (2,4,7)-2(1,2,3)=(0,0,1); (1,2,4)-(1,2,3)=(0,0,1); clear above.
        m = oracle.from_rows([[1, 2, 3], [2, 4, 7], [1, 2, 4]])
        assert rref(m) == oracle.from_rows([[1, 2, 0], [0, 0, 1]])

    def test_rational_pivot_normalization(self):
        m = oracle.from_rows([[F(2, 3), F(4, 3)]])
        assert rref(m) == oracle.from_rows([[1, 2]])

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_idempotent(self, m):
        assert rref(rref(m)) == rref(m)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix(max_dim=4), st.integers(min_value=0, max_value=10**6))
    def test_canonical_under_row_operations(self, m, seed):
        # Left-multiplying by an invertible matrix preserves the row
        # space, so the canonical form must not change.
        u = oracle.from_rows(random_unimodular(m.rows, seed))
        assert rref(oracle.matmul(u, m)) == rref(m)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_pivot_structure(self, m):
        red = rref(m)
        piv = []
        for row in red.entries:
            p = next(j for j, x in enumerate(row) if x != 0)
            assert row[p] == 1
            piv.append(p)
        assert piv == sorted(piv) and len(set(piv)) == len(piv)
        for p, owner in zip(piv, range(red.rows)):
            for i in range(red.rows):
                if i != owner:
                    assert red.entries[i][p] == 0


class TestRankKernel:
    def test_rank_examples(self):
        assert rank(oracle.identity(5)) == 5
        assert rank(oracle.zeros(2, 4)) == 0
        assert rank(oracle.from_rows([[1, 2], [2, 4], [3, 6]])) == 1

    def test_kernel_of_identity_is_zero(self):
        assert kernel(oracle.identity(3)) == Subspace.zero(3)

    def test_kernel_single_relation(self):
        # x + y = 0 has kernel spanned by (1, -1).
        k = kernel(oracle.from_rows([[1, 1]]))
        assert k == span([[1, -1]], 2)

    def test_kernel_of_zero_map_is_full(self):
        assert kernel(oracle.zeros(2, 3)) == oracle.full(3)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_rank_nullity(self, m):
        assert rank(m) + kernel(m).dim == m.cols

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_kernel_vectors_annihilate(self, m):
        k = kernel(m)
        assert oracle.matmul(m, oracle.transpose(k.basis)) == oracle.zeros(m.rows, k.dim)


class TestSubspace:
    def test_membership(self):
        s = span([[1, 0, 1], [0, 1, 1]], 3)
        assert s.contains([2, 3, 5])
        assert not s.contains([0, 0, 1])

    def test_membership_dimension_mismatch(self):
        s = oracle.full(3)
        with pytest.raises(ValueError):
            s.contains([1, 2])

    def test_equality_is_canonical(self):
        a = span([[1, 1], [1, -1]], 2)
        b = oracle.full(2)
        assert a == b

    def test_nested_pivots(self):
        inner = span([[0, 1, 2]], 3)
        outer = span([[0, 1, 2], [1, 0, 0]], 3)
        assert set(oracle.pivots(inner)) <= set(oracle.pivots(outer))

    @settings(max_examples=40, deadline=None)
    @given(small_matrix(max_dim=4))
    def test_row_space_membership(self, m):
        s = Subspace(m.cols, rref(m))
        for row in m.entries:
            assert s.contains(row)


class TestDetInverse:
    def test_singular(self):
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(oracle.from_rows([[1, 2], [2, 4]]))
        with pytest.raises(ValueError, match="square"):
            inverse(oracle.from_rows([[1, 2, 3], [0, 1, 0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
    def test_inverse_roundtrip(self, d, seed):
        m = oracle.from_rows(random_unimodular(d, seed))
        assert oracle.matmul(m, inverse(m)) == oracle.identity(d)


class TestRandomUnimodular:
    def test_dimension_one(self):
        assert random_unimodular(1, 3) in ([[1]], [[-1]])

    def test_deterministic(self):
        assert random_unimodular(6, 42) == random_unimodular(6, 42)
        assert random_unimodular(6, 42) != random_unimodular(6, 43)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            random_unimodular(0, 1)
        with pytest.raises(ValueError):
            random_unimodular(-2, 1)

    def test_integer_entries(self):
        m = random_unimodular(8, 7)
        assert len(m) == 8 and all(len(row) == 8 for row in m)
        assert all(type(x) is int for row in m for x in row)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**9))
    def test_determinant_is_unit(self, d, seed):
        # An integer matrix has determinant +-1 iff its inverse is integral.
        m = oracle.from_rows(random_unimodular(d, seed))
        assert all(x.denominator == 1 for row in inverse(m).entries for x in row)

    def test_matches_the_list_version(self, monkeypatch):
        # Same draws, same rows: every scramble made before the numpy
        # version keeps its matrix.  A small bound makes shears fail.
        for d in range(1, 71):
            for seed in range(5):
                assert random_unimodular(d, seed) == oracle.random_unimodular_lists(d, seed), (d, seed)
        monkeypatch.setattr(lienil.exactlin, "_ENTRY_BOUND", 5)
        assert random_unimodular(40, 9) == oracle.random_unimodular_lists(40, 9, 5)

    def test_determinant_small_cases_vs_oracle(self):
        for d in (2, 3, 4):
            for seed in range(6):
                m = oracle.from_rows(random_unimodular(d, seed))
                assert det_by_permutation_expansion(m) in (F(1), F(-1))


class TestGuards:
    def test_float_rejected(self):
        with pytest.raises(TypeError):
            vector([1.5, 2])
        with pytest.raises(TypeError):
            oracle.from_rows([[0.1]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            oracle.from_rows([[1, 2], [1]])
