import pytest

from lienil.rootsys import (
    Root,
    RootSystem,
    SimpleType,
    all_types,
    build_root_system,
    cartan_matrix,
    degree_histogram,
    simple_predecessor,
    symmetrizer,
)

# Dimension of the simple algebra per type; used here only through
# |positive roots| = (dim - rank) / 2.
DIMS = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
}
EXCEPTIONAL_DIMS = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}


def highest_root(rs: RootSystem) -> Root:
    """The one positive root of top degree."""
    top = max(r.degree for r in rs.positive_roots)
    candidates = [r for r in rs.positive_roots if r.degree == top]
    assert len(candidates) == 1, "highest root is not unique"
    return candidates[0]


def expected_positive_count(t: SimpleType) -> int:
    dim = EXCEPTIONAL_DIMS.get((t.family, t.rank)) or DIMS[t.family](t.rank)
    return (dim - t.rank) // 2


# --- independent oracles: classical epsilon-coordinate root lists ---


def eps_to_simple_B(v):
    n = len(v)
    c = []
    s = 0
    for k in range(n - 1):
        s += v[k]
        c.append(s)
    c.append(s + v[n - 1])
    return tuple(c)


def eps_to_simple_C(v):
    n = len(v)
    c = []
    s = 0
    for k in range(n - 1):
        s += v[k]
        c.append(s)
    last = s + v[n - 1]
    assert last % 2 == 0
    c.append(last // 2)
    return tuple(c)


def eps_to_simple_D(v):
    n = len(v)
    c = []
    s = 0
    for k in range(n - 2):
        s += v[k]
        c.append(s)
    prev = c[-1] if n >= 3 else 0
    cn = (v[n - 2] + v[n - 1] + prev)
    assert cn % 2 == 0
    cn //= 2
    c.append(cn - v[n - 1])
    c.append(cn)
    return tuple(c)


def eps_unit(n, i, val=1):
    v = [0] * n
    v[i] = val
    return v


def oracle_roots_B(n):
    roots = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = eps_unit(n, i)
            v[j] -= 1
            roots[eps_to_simple_B(v)] = j - i  # height j - i (1-based: (j+1)-(i+1))
            w = eps_unit(n, i)
            w[j] += 1
            roots[eps_to_simple_B(w)] = 2 * n - (i + 1) - (j + 1) + 2
        roots[eps_to_simple_B(eps_unit(n, i))] = n - (i + 1) + 1
    return roots


def oracle_roots_C(n):
    roots = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = eps_unit(n, i)
            v[j] -= 1
            roots[eps_to_simple_C(v)] = j - i
            w = eps_unit(n, i)
            w[j] += 1
            roots[eps_to_simple_C(w)] = 2 * n - (i + 1) - (j + 1) + 1
        roots[eps_to_simple_C(eps_unit(n, i, 2))] = 2 * n - 2 * (i + 1) + 1
    return roots


def oracle_roots_D(n):
    roots = set()
    for i in range(n):
        for j in range(i + 1, n):
            v = eps_unit(n, i)
            v[j] -= 1
            roots.add(eps_to_simple_D(v))
            w = eps_unit(n, i)
            w[j] += 1
            roots.add(eps_to_simple_D(w))
    return roots


def oracle_roots_A(n):
    # Intervals of consecutive simple roots.
    out = set()
    for i in range(n):
        for j in range(i, n):
            out.add(tuple(1 if i <= k <= j else 0 for k in range(n)))
    return out


G2_ORACLE = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


class TestSimpleType:
    def test_parse(self):
        assert SimpleType.parse("B3") == SimpleType("B", 3)
        assert SimpleType.parse(" e6 ") == SimpleType("E", 6)
        with pytest.raises(ValueError):
            SimpleType.parse("H4")
        with pytest.raises(ValueError):
            SimpleType.parse("Bx")

    def test_invalid_ranks_rejected_by_build(self):
        for fam, rank in [("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4), ("A", 0)]:
            with pytest.raises(ValueError):
                if rank < 1:
                    SimpleType(fam, rank)
                else:
                    build_root_system(SimpleType(fam, rank))

    def test_degenerate_names_constructible(self):
        # Needed as aliases in identification output.
        assert str(SimpleType("B", 1)) == "B1"
        assert not SimpleType("B", 1).is_valid()


class TestCartanData:
    def test_symmetrizability(self):
        for t in all_types(8):
            c = cartan_matrix(t)
            d = symmetrizer(t)
            n = t.rank
            for i in range(n):
                for j in range(n):
                    assert c[i][j] * d[j] == c[j][i] * d[i]

    def test_off_diagonal_signs(self):
        for t in all_types(8):
            c = cartan_matrix(t)
            for i in range(t.rank):
                assert c[i][i] == 2
                for j in range(t.rank):
                    if i != j:
                        assert -3 <= c[i][j] <= 0

    def test_g2_matrix(self):
        assert cartan_matrix(SimpleType("G", 2)) == ((2, -1), (-3, 2))


class TestEnumeration:
    def test_counts_small(self):
        assert len(build_root_system(SimpleType("A", 1)).positive_roots) == 1
        assert len(build_root_system(SimpleType("G", 2)).positive_roots) == 6
        assert len(build_root_system(SimpleType("B", 3)).positive_roots) == 9

    def test_counts_match_dimension_table(self):
        for t in all_types(8):
            rs = build_root_system(t)
            assert len(rs.positive_roots) == expected_positive_count(t), str(t)

    def test_g2_exact_set(self):
        rs = build_root_system(SimpleType("G", 2))
        assert {r.coeffs for r in rs.positive_roots} == G2_ORACLE

    @pytest.mark.parametrize("n", range(2, 9))
    def test_B_matches_epsilon_oracle(self, n):
        rs = build_root_system(SimpleType("B", n))
        oracle = oracle_roots_B(n)
        assert {r.coeffs for r in rs.positive_roots} == set(oracle)
        for r in rs.positive_roots:
            assert r.degree == oracle[r.coeffs]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_C_matches_epsilon_oracle(self, n):
        rs = build_root_system(SimpleType("C", n))
        oracle = oracle_roots_C(n)
        assert {r.coeffs for r in rs.positive_roots} == set(oracle)
        for r in rs.positive_roots:
            assert r.degree == oracle[r.coeffs]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_D_matches_epsilon_oracle(self, n):
        rs = build_root_system(SimpleType("D", n))
        assert {r.coeffs for r in rs.positive_roots} == oracle_roots_D(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_A_matches_interval_oracle(self, n):
        rs = build_root_system(SimpleType("A", n))
        assert {r.coeffs for r in rs.positive_roots} == oracle_roots_A(n)

    def test_order_is_by_degree_then_lex(self):
        rs = build_root_system(SimpleType("B", 3))
        keys = [(r.degree, r.coeffs) for r in rs.positive_roots]
        assert keys == sorted(keys)

    def test_all_coefficients_nonnegative(self):
        for t in all_types(8):
            for r in build_root_system(t).positive_roots:
                assert all(c >= 0 for c in r.coeffs)


class TestHistogram:
    def test_b3_profile(self):
        rs = build_root_system(SimpleType("B", 3))
        assert degree_histogram(rs) == [3, 2, 2, 1, 1]

    def test_degree_one_count_is_rank(self):
        for t in all_types(8):
            hist = degree_histogram(build_root_system(t))
            assert hist[0] == t.rank

    @pytest.mark.parametrize("n", range(2, 9))
    def test_B_and_C_profiles_agree(self, n):
        hb = degree_histogram(build_root_system(SimpleType("B", n)))
        hc = degree_histogram(build_root_system(SimpleType("C", n)))
        assert hb == hc

    def test_e6_has_five_at_degree_four(self):
        h = degree_histogram(build_root_system(SimpleType("E", 6)))
        assert h[3] == 5

    def test_b6_c6_have_four_at_degree_four(self):
        for fam in "BC":
            h = degree_histogram(build_root_system(SimpleType(fam, 6)))
            assert h[3] == 4

    @pytest.mark.parametrize("n", range(3, 9))
    def test_BC_two_roots_at_codegree(self, n):
        # Degree 2n-3 carries exactly two roots in both B_n and C_n.
        for fam in "BC":
            h = degree_histogram(build_root_system(SimpleType(fam, n)))
            assert h[2 * n - 4] == 2


class TestHighestRoot:
    def test_known_coefficients(self):
        assert highest_root(build_root_system(SimpleType("B", 3))).coeffs == (1, 2, 2)
        assert highest_root(build_root_system(SimpleType("C", 3))).coeffs == (2, 2, 1)
        assert highest_root(build_root_system(SimpleType("A", 2))).coeffs == (1, 1)
        assert highest_root(build_root_system(SimpleType("G", 2))).coeffs == (3, 2)
        assert highest_root(build_root_system(SimpleType("E", 8))).coeffs == (2, 3, 4, 6, 5, 4, 3, 2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_BC_highest_degree(self, n):
        for fam in "BC":
            rs = build_root_system(SimpleType(fam, n))
            assert highest_root(rs).degree == 2 * n - 1

    def test_unique_maximum(self):
        for t in all_types(8):
            rs = build_root_system(t)
            top = highest_root(rs).degree
            assert degree_histogram(rs)[top - 1] == 1


class TestPredecessor:
    def test_simple_roots_rejected(self):
        rs = build_root_system(SimpleType("A", 2))
        with pytest.raises(ValueError):
            simple_predecessor(rs, rs.positive_roots[0])

    def test_non_root_rejected(self):
        rs = build_root_system(SimpleType("A", 2))
        with pytest.raises(ValueError):
            simple_predecessor(rs, Root((2, 0)))

    def test_b3_highest(self):
        rs = build_root_system(SimpleType("B", 3))
        top = highest_root(rs)
        i = simple_predecessor(rs, top)
        stripped = list(top.coeffs)
        stripped[i] -= 1
        assert rs.is_positive_root(Root(tuple(stripped)))

    def test_smallest_index_wins(self):
        # In A2 the root (1,1) can shed either simple root; index 0 is
        # the required answer.
        rs = build_root_system(SimpleType("A", 2))
        assert simple_predecessor(rs, Root((1, 1))) == 0

    def test_exhaustive_small_ranks(self):
        for t in all_types(6):
            rs = build_root_system(t)
            for r in rs.positive_roots:
                if r.degree < 2:
                    continue
                i = simple_predecessor(rs, r)
                stripped = list(r.coeffs)
                stripped[i] -= 1
                assert rs.is_positive_root(Root(tuple(stripped)))
                for j in range(i):
                    other = list(r.coeffs)
                    other[j] -= 1
                    assert other[j] < 0 or not rs.is_positive_root(Root(tuple(other)))
