"""Naming the simple type behind anonymous nilradical constants.

Everything here reads only basis-independent data: the dimension, the
graded dimensions of the lower central series, and (for the one family
pair these cannot separate) the right kernel of an induced pairing on
graded pieces.  The decision runs in three steps:

1. rank = dim gr^1 and simple_dim = 2 * dim + rank index into the
   rank/dimension table of the simple algebras.
2. The only collisions in that table are {B_n, C_n} for n >= 2 and
   {E6, B6, C6} at (6, 78).  E6 splits off because its gr^4 has
   dimension 5 where B6/C6 have 4.
3. B_n vs C_n (n >= 3) splits on the pairing gr^2 x gr^{2n-3} ->
   gr^{2n-1}: its right kernel is trivial for B_n and nontrivial for
   C_n.  B2 = C2 is a genuine coincidence and reports as an alias,
   as do A1 = B1 = C1 and A3 = D3.

A final cross-check compares the full graded dimension sequence with
the named type's degree histogram, so inputs that merely collide in
(rank, dimension) are rejected rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nilalg import (
    Filtration,
    GradedAlgebra,
    NilpotentAlgebra,
    graded,
    graded_pairing,
    lower_central_series,
    right_null_space,
)
from .rootsys import SimpleType, build_root_system, degree_histogram

DEFAULT_MAX_RANK = 12

_EXCEPTIONAL_DIMS = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}


class UnrecognizedAlgebraError(Exception):
    """No simple type matches the computed invariants."""


@dataclass(frozen=True)
class Fingerprint:
    """Basis-independent identification key of a nilpotent algebra.

    bc_family is filled in only when the B/C discriminator actually ran
    for this algebra; it stays None otherwise.
    """

    rank: int
    nil_dim: int
    simple_dim: int
    graded_dims: tuple[int, ...]
    nilpotency_class: int
    bc_family: str | None = None

    def graded_dim(self, degree: int) -> int:
        """dim gr^degree, 0 beyond the nilpotency class."""
        if 1 <= degree <= len(self.graded_dims):
            return self.graded_dims[degree - 1]
        return 0


@dataclass(frozen=True)
class Identification:
    """Canonical type plus the coincident presentations of the same
    algebra (A1 = B1 = C1, B2 = C2, A3 = D3)."""

    canonical: SimpleType
    aliases: tuple[SimpleType, ...]


def _graded_of(a: NilpotentAlgebra | GradedAlgebra,
               filtration: Filtration | None) -> GradedAlgebra:
    """a's graded algebra: a itself when it is one, so a caller can build it once."""
    if isinstance(a, GradedAlgebra):
        return a
    return graded(a, filtration if filtration is not None else lower_central_series(a))


def fingerprint(a: NilpotentAlgebra | GradedAlgebra,
                filtration: Filtration | None = None) -> Fingerprint:
    """Invariants of a: rank, dimensions, graded dimension sequence.
    a may be the algebra or its graded algebra (see _graded_of)."""
    g = _graded_of(a, filtration)
    dims = g.dims
    rank = dims[0]
    n = g.algebra.dim
    return Fingerprint(
        rank=rank,
        nil_dim=n,
        simple_dim=2 * n + rank,
        graded_dims=dims,
        nilpotency_class=g.filtration.nilpotency_class,
    )


def simple_dimension(t: SimpleType) -> int:
    """Dimension of the simple algebra of type t."""
    n = t.rank
    if t.family == "A":
        return n * (n + 2)
    if t.family in ("B", "C"):
        return n * (2 * n + 1)
    if t.family == "D":
        return n * (2 * n - 1)
    try:
        return _EXCEPTIONAL_DIMS[(t.family, n)]
    except KeyError:
        raise ValueError(f"no simple algebra of type {t}") from None


def dimension_table_lookup(rank: int, simple_dim: int) -> set[SimpleType]:
    """All canonical types of this rank with the given dimension.

    D3 never appears (it is the A3 presentation), so the only possible
    multi-element results are {B_n, C_n} and {E6, B6, C6}.
    """
    if rank < 1:
        return set()
    candidates = [SimpleType("A", rank)]
    if rank >= 2:
        candidates += [SimpleType("B", rank), SimpleType("C", rank)]
    if rank >= 4:
        candidates.append(SimpleType("D", rank))
    candidates += [SimpleType(f, r) for (f, r) in _EXCEPTIONAL_DIMS if r == rank]
    return {t for t in candidates if simple_dimension(t) == simple_dim}


def bc_discriminator(a: NilpotentAlgebra, n: int, g: GradedAlgebra | None = None) -> str:
    """"B" or "C" for an algebra already known to be one of the two.

    Uses the pairing gr^2 x gr^{2n-3} -> gr^{2n-1}: both families have
    source piece dimensions (n-1, 2) and target dimension 1 there, but
    only C_n has a nontrivial right kernel (it contains the coset of
    the long root 2e_2, which no degree-2 root extends to a root).
    """
    if n < 3:
        raise ValueError("B/C discrimination needs rank at least 3")
    if g is None:
        g = graded(a)
    if g.dims[2 * n - 4:2 * n - 1:2] != (2, 1):  # dim gr^{2n-3}, dim gr^{2n-1}
        raise ValueError("graded dimensions do not match a B/C nilradical")
    p = graded_pairing(g, 2, 2 * n - 3)
    return "B" if right_null_space(p).dim == 0 else "C"


def _aliases(canonical: SimpleType) -> tuple[SimpleType, ...]:
    if canonical == SimpleType("A", 1):
        return (SimpleType("B", 1), SimpleType("C", 1))
    if canonical == SimpleType("B", 2):
        return (SimpleType("C", 2),)
    if canonical == SimpleType("A", 3):
        return (SimpleType("D", 3),)
    return ()


def identify(
    a: NilpotentAlgebra | GradedAlgebra,
    max_rank: int = DEFAULT_MAX_RANK,
    filtration: Filtration | None = None,
) -> Identification:
    """Name the simple type whose nilradical a presents.

    a may be the algebra or its graded algebra (see _graded_of).  Raises
    UnrecognizedAlgebraError when no type of rank <= max_rank matches,
    and NotNilpotentError when a is not nilpotent at all.
    """
    g = _graded_of(a, filtration)
    fp = fingerprint(g)
    if fp.rank > max_rank:
        raise UnrecognizedAlgebraError(
            f"rank {fp.rank} exceeds the identification bound {max_rank}"
        )
    candidates = dimension_table_lookup(fp.rank, fp.simple_dim)
    if not candidates:
        raise UnrecognizedAlgebraError(
            f"no simple algebra has rank {fp.rank} and dimension {fp.simple_dim}"
        )

    families = {t.family for t in candidates}
    if families == {"E", "B", "C"}:
        if fp.graded_dim(4) == 5:
            candidates = {SimpleType("E", 6)}
        elif fp.graded_dim(4) == 4:
            candidates = {SimpleType("B", 6), SimpleType("C", 6)}
        else:
            raise UnrecognizedAlgebraError(
                "degree-4 graded dimension matches neither E6 nor B6/C6"
            )

    if len(candidates) == 1:
        canonical = candidates.pop()
    else:  # {B_n, C_n}
        n = fp.rank
        if n == 2:
            canonical = SimpleType("B", 2)
        else:
            try:
                canonical = SimpleType(bc_discriminator(g.algebra, n, g), n)
            except ValueError as exc:
                raise UnrecognizedAlgebraError(str(exc)) from None

    expected = tuple(degree_histogram(build_root_system(canonical)))
    if fp.graded_dims != expected:
        raise UnrecognizedAlgebraError(
            f"graded dimensions {fp.graded_dims} do not match the degree "
            f"histogram of {canonical}"
        )
    return Identification(canonical, _aliases(canonical))
