"""The claim runner behind ``lienil verify-claims``: it reports a broken
table as failed claims, and it builds no Fraction."""

from fractions import Fraction as F

from lienil import claims
from lienil.exactlin import random_unimodular
from lienil.nilalg import NilpotentAlgebra, change_basis, graded


def test_scrambled_c3_table_fails_its_root_basis_claims(monkeypatch):
    # A scrambled C3 is still the C3 nilradical, but its basis is no
    # longer the root basis: exactly the claims stated in root
    # coordinates fail, and they fail as verdicts, not as exceptions.
    build = claims.nilradical

    def scrambled_c3(rs):
        a = build(rs)
        return change_basis(a, random_unimodular(a.dim, 1)) if str(rs.type) == "C3" else a

    monkeypatch.setattr(claims, "nilradical", scrambled_c3)
    results = claims.run_claims(3)
    assert {r.claim_id: r.witness for r in results if not r.ok} == {
        "series-is-degree-filtration": "mismatch: ['C3']",
        "bc-right-kernel-split": "C3 kernel misses the 2e2 coset",
        "graded-matches-nilradical": "mismatch: ['C3']",
    }
    assert len(results) == 10


def test_graded_match_needs_every_constant_in_its_graded_block():
    # [e0, e1] = e2 + e3, [e0, e2] = e3: the series terms are spans of
    # unit vectors and every pairing matches the table's blocks, but the
    # e3 term of [e0, e1] lies one degree above gr^2 and is lost there.
    filiform = {(0, 2): ((3, 1),)}
    assert claims._graded_matches(graded(NilpotentAlgebra(4, {(0, 1): ((2, 1),), **filiform})))
    twisted = NilpotentAlgebra(4, {(0, 1): ((2, 1), (3, 1)), **filiform})
    assert graded(twisted).filtration.dims == (4, 2, 1, 0)
    assert not claims._graded_matches(graded(twisted))


def test_run_claims_builds_no_fraction(monkeypatch):
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", staticmethod(counting_new))
        results = claims.run_claims(5)
        assert built == 0
    assert len(results) == 10 and all(r.ok for r in results)
