"""The library's headline claims, checked up to a rank bound: the claim
runner behind ``lienil verify-claims``.

Every check reads the integer forms: series terms as ScaledRref rows,
graded pieces as (integer rows, s), pairings as integer coordinates over
one denominator, and kernel membership as a zero residual.  No Fraction
is built.  tests/test_acceptance.py checks the same statements on the
rational views, independently.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .chevalley import nilradical, verify_jacobi
from .exactlin import random_unimodular
from .fingerprint import identify, simple_dimension
from .nilalg import (BilinearPairing, Filtration, GradedAlgebra, NilpotentAlgebra, change_basis,
                     graded, graded_pairing, right_null_space)
from .rootsys import (Root, RootSystem, SimpleType, all_types, build_root_system,
                      degree_histogram, simple_predecessor)


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    ok: bool
    witness: str


def _is_degree_filtration(f: Filtration, rs: RootSystem) -> bool:
    """Whether term i (N^{i+1}) is span{e_k : degree(root_k) > i} for
    every i, the last term zero: its canonical rows are the unit rows
    at those pivots, each over denominator 1."""
    degrees = [r.degree for r in rs.positive_roots]
    eye = np.eye(len(degrees), dtype=np.int64)
    expected = [[k for k, d in enumerate(degrees) if d > i] for i in range(max(degrees) + 1)]
    return [term.pivots for term in f.rrefs] == expected and all(
        term.den == 1 and np.array_equal(term.nums, eye[term.pivots]) for term in f.rrefs)


def _graded_matches(g: GradedAlgebra) -> bool:
    """Whether the graded structure constants, taken against the pivots
    of the coset representatives, equal the algebra's own: T[a, b, c] is
    nonzero only where deg a + deg b = deg c, and T's block between the
    pivots of pieces i, j and i + j is each pairing's coordinates,
    coords / den = T[block] / scale."""
    t, scale, _ = g.algebra.int_tensor()
    cls = g.filtration.nilpotency_class
    pivots = [[int(np.flatnonzero(row)[0]) for row in g.scaled_piece(d)[0]]
              for d in range(1, cls + 1)]
    deg = np.zeros(g.algebra.dim, dtype=np.intp)
    for d, piv in enumerate(pivots, start=1):
        deg[piv] = d
    a, b, c = np.nonzero(t)
    if (deg[a] + deg[b] != deg[c]).any():
        return False
    for i in range(1, cls + 1):
        for j in range(i, cls - i + 1):
            p = graded_pairing(g, i, j)
            block = t[np.ix_(pivots[i - 1], pivots[j - 1], pivots[i + j - 1])]
            if not np.array_equal(p.coords.astype(object) * scale, block.astype(object) * p.den):
                return False
    return True


def _perturb_pieces(g: GradedAlgebra, degrees, rng) -> GradedAlgebra:
    """New coset representatives: each row of piece d plus a random
    integer combination of the canonical rows of N^{d+1}, over the
    piece's own s (same cosets, different representatives)."""
    pieces = [g.scaled_piece(d) for d in range(1, len(g.dims) + 1)]
    for d in degrees:
        rows, s = pieces[d - 1]
        tail = g.filtration.rrefs[d].nums
        c = np.array([[rng.randint(-3, 3) for _ in range(tail.shape[0])] for _ in rows],
                     dtype=object)
        pieces[d - 1] = rows + c @ tail, s
    return GradedAlgebra(g.algebra, g.filtration, tuple(pieces))


def _kernel_has_unit_coset(p: BilinearPairing, g: GradedAlgebra, root_index: int) -> bool:
    """Whether the right kernel of p (gr^i x gr^j -> gr^{i+j}) contains
    the coset of e_root_index, one of gr^j's representatives."""
    rows, s = g.scaled_piece(p.j)
    unit = np.zeros(rows.shape[1], dtype=object)
    unit[root_index] = s
    hit = np.flatnonzero((rows == unit).all(axis=1))
    if not hit.size:
        return False
    one_hot = np.zeros((1, rows.shape[0]), dtype=object)
    one_hot[0, hit[0]] = 1
    return right_null_space(p).holds(one_hot)


def run_claims(max_rank: int) -> list[ClaimResult]:
    """Check the library's headline guarantees up to the rank bound."""
    types = all_types(max_rank)

    @functools.cache
    def nr(t: SimpleType) -> NilpotentAlgebra:
        return nilradical(build_root_system(t))

    @functools.cache
    def gr(t: SimpleType) -> GradedAlgebra:
        return graded(nr(t))

    results: list[ClaimResult] = []

    def claim(claim_id: str, ok: bool, witness: str) -> None:
        results.append(ClaimResult(claim_id, ok, witness))

    # 2 * dim(nilradical) + rank reproduces the dimension table.
    bad = [str(t) for t in types if 2 * nr(t).dim + t.rank != simple_dimension(t)]
    claim("dimension-table", not bad, f"{len(types)} types checked" if not bad else f"mismatch: {bad}")

    # dim gr^1 equals the rank.
    bad = [str(t) for t in types if gr(t).dims[0] != t.rank]
    claim("rank-recovery", not bad, f"{len(types)} types checked" if not bad else f"mismatch: {bad}")

    # The abstract lower central series is the degree filtration.
    bad = [str(t) for t in types if not _is_degree_filtration(gr(t).filtration, build_root_system(t))]
    claim("series-is-degree-filtration", not bad,
          f"{len(types)} types checked" if not bad else f"mismatch: {bad}")

    # B_n and C_n have identical degree histograms.
    if max_rank >= 2:
        bad = [
            n for n in range(2, max_rank + 1)
            if degree_histogram(build_root_system(SimpleType("B", n)))
            != degree_histogram(build_root_system(SimpleType("C", n)))
        ]
        claim("bc-histogram-equal", not bad,
              f"n = 2..{max_rank}" if not bad else f"differs at n = {bad}")

    # E6 has five degree-4 roots; B6 and C6 have four.
    if max_rank >= 6:
        counts = {
            name: gr(SimpleType.parse(name)).dims[3]
            for name in ("E6", "B6", "C6")
        }
        claim("e6-degree4-count",
              counts["E6"] == 5 and counts["B6"] == 4 and counts["C6"] == 4,
              f"E6: {counts['E6']}, B6: {counts['B6']}, C6: {counts['C6']}")

    # Right kernel of gr^2 x gr^{2n-3} -> gr^{2n-1} splits B from C,
    # and for C_n it contains the coset of the long root 2e_2.
    if max_rank >= 3:
        ok = True
        notes = []
        for n in range(3, max_rank + 1):
            for fam in ("B", "C"):
                t = SimpleType(fam, n)
                p = graded_pairing(gr(t), 2, 2 * n - 3)
                if fam == "B" and (dim := right_null_space(p).dim) != 0:
                    ok = False
                    notes.append(f"B{n} kernel dim {dim}")
                if fam == "C":
                    # 2e_2 in simple-root coordinates: (0, 2, ..., 2, 1).
                    coeffs = tuple(0 if i == 0 else (1 if i == n - 1 else 2) for i in range(n))
                    idx = build_root_system(t).index_of[Root(coeffs)]
                    if not _kernel_has_unit_coset(p, gr(t), idx):
                        ok = False
                        notes.append(f"C{n} kernel misses the 2e2 coset")
        claim("bc-right-kernel-split", ok,
              f"n = 3..{max_rank}, C kernel contains 2e2" if ok else "; ".join(notes))

    # Identification round-trips through seeded unimodular basis changes.
    seeds = (101, 202, 303)
    trips = 0
    bad = []
    for t in types:
        expected = identify(gr(t), max_rank=max_rank)
        for seed in seeds:
            b = change_basis(nr(t), random_unimodular(nr(t).dim, seed))
            trips += 1
            if identify(b, max_rank=max_rank) != expected:
                bad.append(f"{t}@{seed}")
    claim("round-trip-identification", not bad,
          f"{trips} round trips" if not bad else f"failed: {bad}")

    # Every constructed table satisfies the Jacobi identity.
    bad = [str(t) for t in types if not verify_jacobi(nr(t)).ok]
    claim("jacobi-holds", not bad,
          f"{len(types)} types checked" if not bad else f"violations in {bad}")

    # Graded structure constants equal the nilradical's in the root basis.
    bad = [str(t) for t in types if not _graded_matches(gr(t))]
    claim("graded-matches-nilradical", not bad,
          f"{len(types)} types checked" if not bad else f"mismatch: {bad}")

    # Pairings do not depend on the choice of coset representatives.
    rng = random.Random(20240801)
    checked = 0
    bad = []
    for t in [x for x in types if x.rank <= min(4, max_rank)]:
        g = gr(t)
        cls = g.filtration.nilpotency_class
        for i in range(1, cls + 1):
            for j in range(1, cls - i + 1):
                base = graded_pairing(g, i, j)
                for _ in range(3):
                    p = graded_pairing(_perturb_pieces(g, {i, j}, rng), i, j)
                    checked += 1
                    if not np.array_equal(p.coords.astype(object) * base.den,
                                          base.coords.astype(object) * p.den):
                        bad.append(f"{t} ({i},{j})")
    claim("pairing-well-defined", not bad,
          f"{checked} perturbed pairings" if not bad else f"changed: {bad}")

    # Every root of degree >= 2 has a simple-root predecessor.
    checked = 0
    bad = []
    for t in types:
        rs = build_root_system(t)
        for r in rs.positive_roots:
            if r.degree >= 2:
                checked += 1
                i = simple_predecessor(rs, r)
                below = list(r.coeffs)
                below[i] -= 1
                if below[i] < 0 or not rs.is_positive_root(Root(tuple(below))):
                    bad.append(f"{t} {r.coeffs}")
    claim("simple-predecessor-exists", not bad,
          f"{checked} roots checked" if not bad else f"missing: {bad}")

    return results
