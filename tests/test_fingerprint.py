"""Tests for the identification procedure.

Its two steps are tested against independent facts: the graded
dimensions of each nilradical equal its type's degree histogram, and
among the types of one rank only B_n and C_n share a histogram; the
right kernel of gr^2 x gr^{2n-3} -> gr^{2n-1} then splits B_n from C_n.
The rank/dimension table of the simple algebras (n(n+2), n(2n+1),
n(2n-1), 78, 133, 248, 52, 14) checks simple_dimension.  Round trips go
through seeded unimodular basis changes, so identification is exercised
on constants that carry no trace of the root order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lienil import fingerprint as fingerprint_module
from lienil.chevalley import nilradical
from lienil.exactlin import random_unimodular
from lienil.fingerprint import (
    Identification,
    UnrecognizedAlgebraError,
    bc_discriminator,
    fingerprint,
    identify,
    simple_dimension,
)
from lienil.nilalg import GradedAlgebra, NilpotentAlgebra, NotNilpotentError, change_basis, graded
from lienil.rootsys import SimpleType, all_types, build_root_system, degree_histogram

F = Fraction


def nil(name):
    return nilradical(build_root_system(SimpleType.parse(name)))


def t(name):
    return SimpleType.parse(name)


# --------------------------------------------------------------- fingerprint


def test_a2_fingerprint():
    fp = fingerprint(nil("A2"))
    assert fp.rank == 2
    assert fp.nil_dim == 3
    assert fp.simple_dim == 8
    assert fp.graded_dims == (2, 1)
    assert fp.nilpotency_class == 2


def test_one_dimensional_abelian_fingerprint():
    fp = fingerprint(NilpotentAlgebra(1, {}))
    assert (fp.rank, fp.nil_dim, fp.simple_dim) == (1, 1, 3)
    assert fp.graded_dims == (1,)


def test_e6_fingerprint_dimensions():
    fp = fingerprint(nil("E6"))
    assert fp.rank == 6
    assert fp.simple_dim == 78
    assert fp.graded_dims[3] == 5  # dim gr^4; B6 and C6 have 4


def test_fingerprint_invariants_hold_for_all_small_types():
    for tt in all_types(5):
        a = nilradical(build_root_system(tt))
        fp = fingerprint(a)
        assert sum(fp.graded_dims) == fp.nil_dim
        assert fp.graded_dims[0] == fp.rank
        assert fp.simple_dim == 2 * fp.nil_dim + fp.rank
        assert len(fp.graded_dims) == fp.nilpotency_class


def test_fingerprint_rejects_non_nilpotent_input():
    sl2 = NilpotentAlgebra(
        3, {(0, 1): ((0, F(2)),), (0, 2): ((1, F(-1)),), (1, 2): ((2, F(2)),)}
    )
    with pytest.raises(NotNilpotentError):
        fingerprint(sl2)


# ----------------------------------------------------------- dimension table


def test_simple_dimension_table_values():
    expected = {
        "A1": 3, "A2": 8, "A3": 15, "B2": 10, "C2": 10, "B3": 21, "C3": 21,
        "D4": 28, "E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14,
    }
    for name, dim in expected.items():
        assert simple_dimension(t(name)) == dim


def test_simple_dimension_rejects_invalid_exceptional():
    with pytest.raises(ValueError):
        simple_dimension(SimpleType("E", 9))


def test_only_b_and_c_share_a_degree_histogram():
    # identify rests on this: the graded dimensions pin the type of a
    # rank, up to B_n/C_n (D3 is the A3 presentation).
    for rank in range(1, 13):
        by_hist = {}
        for fam in ("A", "B", "C", "D", "E", "F", "G"):
            tt = SimpleType(fam, rank)
            if tt.is_valid() and tt != t("D3"):
                hist = tuple(degree_histogram(build_root_system(tt)))
                by_hist.setdefault(hist, set()).add(tt)
        shared = [group for group in by_hist.values() if len(group) > 1]
        expected = [{SimpleType("B", rank), SimpleType("C", rank)}] if rank >= 2 else []
        assert shared == expected, rank


# ------------------------------------------------------------- B/C splitting


def test_bc_discriminator_matches_family():
    for n in range(3, 9):
        assert bc_discriminator(nilradical(build_root_system(SimpleType("B", n))), n) == "B"
        assert bc_discriminator(nilradical(build_root_system(SimpleType("C", n))), n) == "C"


def test_bc_discriminator_takes_the_graded_algebra(monkeypatch):
    # Given the graded algebra, it builds no series of its own.
    for name, family in (("B4", "B"), ("C4", "C")):
        a = change_basis(nil(name), random_unimodular(nil(name).dim, 3))
        g = graded(a)
        monkeypatch.setattr(fingerprint_module, "graded", lambda *_: pytest.fail("rebuilt"))
        assert bc_discriminator(g, 4) == family
        monkeypatch.undo()
        assert bc_discriminator(a, 4) == family


def test_bc_discriminator_rejects_small_rank():
    with pytest.raises(ValueError):
        bc_discriminator(nil("B2"), 2)


def test_bc_discriminator_rejects_wrong_profile():
    with pytest.raises(ValueError):
        bc_discriminator(nil("A5"), 5)


# ----------------------------------------------------------------- identify


def test_identify_names_every_canonical_type():
    canonical_of = {t("D3"): t("A3"), t("C2"): t("B2")}
    for tt in all_types(8):
        ident = identify(nilradical(build_root_system(tt)))
        assert ident.canonical == canonical_of.get(tt, tt), tt


@pytest.mark.parametrize("name", ["C8", "E8"])
def test_scrambled_identification_builds_no_fraction(name, monkeypatch):
    # The series, graded pieces, the B/C pairing and its kernel all stay
    # integer: Fractions are only for I/O.
    b = change_basis(nil(name), random_unimodular(nil(name).dim, 1))
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", staticmethod(counting_new))
        ident = identify(b)
        assert built == 0
    assert ident.canonical == t(name)


def test_identify_runs_bc_discriminator_only_for_b_and_c(monkeypatch):
    calls = []
    real = fingerprint_module.bc_discriminator

    def counting(a, n):
        assert isinstance(a, GradedAlgebra)  # identify passes the graded algebra it built
        calls.append(n)
        return real(a, n)

    monkeypatch.setattr(fingerprint_module, "bc_discriminator", counting)
    for tt in all_types(8):
        calls.clear()
        identify(nilradical(build_root_system(tt)))
        expected = [tt.rank] if tt.family in ("B", "C") and tt.rank >= 3 else []
        assert calls == expected, tt


@pytest.mark.parametrize("name", ["C4", "E6"])
def test_second_identify_builds_no_root_system(name, monkeypatch):
    # The degree histogram of each type is computed once, then kept.
    b = change_basis(nil(name), random_unimodular(nil(name).dim, 1))
    assert identify(b).canonical == t(name)
    built = []
    real = fingerprint_module.build_root_system
    monkeypatch.setattr(fingerprint_module, "build_root_system",
                        lambda tt: built.append(tt) or real(tt))
    assert identify(b).canonical == t(name)
    assert built == []


def test_identify_aliases():
    assert identify(nil("A1")) == Identification(t("A1"), (t("B1"), t("C1")))
    assert identify(nil("B2")) == Identification(t("B2"), (t("C2"),))
    assert identify(nil("C2")) == Identification(t("B2"), (t("C2"),))
    assert identify(nil("A3")) == Identification(t("A3"), (t("D3"),))
    assert identify(nil("D3")) == Identification(t("A3"), (t("D3"),))
    assert identify(nil("E6")).aliases == ()


def test_identify_heisenberg_as_a2():
    h3 = NilpotentAlgebra(3, {(0, 1): ((2, F(1)),)})
    assert identify(h3).canonical == t("A2")


def test_identify_round_trip_under_basis_change():
    for name, seed in [("A4", 3), ("B4", 5), ("C4", 8), ("D4", 2), ("G2", 1), ("F4", 4)]:
        a = nil(name)
        b = change_basis(a, random_unimodular(a.dim, seed))
        assert identify(b).canonical == t(name), name


def test_identify_e6_not_b6_c6_after_obfuscation():
    a = nil("E6")
    b = change_basis(a, random_unimodular(a.dim, 21))
    assert identify(b).canonical == t("E6")


def test_identify_rejects_wrong_rank_dimension():
    # 3-dim abelian: graded dims (3,) are no histogram of rank 3.
    with pytest.raises(UnrecognizedAlgebraError, match=r"graded dimensions \(3,\)"):
        identify(NilpotentAlgebra(3, {}))


def test_identify_rejects_right_dimensions_wrong_profile():
    # Free two-step algebra on three generators: rank 3 and dim 6 as
    # for A3, but graded dims (3, 3) != (3, 2, 1).
    free2 = NilpotentAlgebra(
        6,
        {
            (0, 1): ((3, F(1)),),
            (0, 2): ((4, F(1)),),
            (1, 2): ((5, F(1)),),
        },
    )
    with pytest.raises(UnrecognizedAlgebraError, match=r"graded dimensions \(3, 3\)"):
        identify(free2)


def test_identify_enforces_rank_bound():
    with pytest.raises(UnrecognizedAlgebraError):
        identify(nil("A2"), max_rank=1)


def test_identify_propagates_non_nilpotent():
    sl2 = NilpotentAlgebra(
        3, {(0, 1): ((0, F(2)),), (0, 2): ((1, F(-1)),), (1, 2): ((2, F(2)),)}
    )
    with pytest.raises(NotNilpotentError):
        identify(sl2)


small_types = st.sampled_from([x for x in all_types(4) if x != t("D3")])


@settings(max_examples=25, deadline=None)
@given(small_types, st.integers(0, 10_000))
def test_identify_is_basis_independent(tt, seed):
    a = nilradical(build_root_system(tt))
    b = change_basis(a, random_unimodular(a.dim, seed))
    assert identify(b) == identify(a)
