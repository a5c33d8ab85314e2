"""Naming the simple type behind anonymous nilradical constants.

Everything here reads only basis-independent data: the graded
dimensions of the lower central series and, for the one family pair
these cannot separate, the right kernel of an induced pairing on graded
pieces.  The decision takes two steps:

1. The graded dimensions of a nilradical are the degree histogram of
   its positive roots, the dual partition of the exponents (Kostant,
   1959).  The candidates are the types of rank dim gr^1 with that
   histogram; D3 is left out, being the A3 presentation.  Among the
   types of one rank only B_n and C_n share a histogram, so at most
   these two remain, and an input with no candidate is rejected.
2. B_n vs C_n (n >= 3) splits on the pairing gr^2 x gr^{2n-3} ->
   gr^{2n-1}: its right kernel is trivial for B_n and nontrivial for
   C_n.  B2 = C2 is a genuine coincidence and reports as an alias,
   as do A1 = B1 = C1 and A3 = D3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .nilalg import (
    Filtration,
    GradedAlgebra,
    NilpotentAlgebra,
    graded,
    graded_pairing,
    lower_central_series,
    right_null_space,
)
from .rootsys import SimpleType, all_types, build_root_system, degree_histogram

DEFAULT_MAX_RANK = 12

_EXCEPTIONAL_DIMS = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}


class UnrecognizedAlgebraError(Exception):
    """No simple type matches the computed invariants."""


@dataclass(frozen=True)
class Fingerprint:
    """Basis-independent invariants of a nilpotent algebra."""

    rank: int
    nil_dim: int
    simple_dim: int
    graded_dims: tuple[int, ...]
    nilpotency_class: int


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


def fingerprint(a: NilpotentAlgebra | GradedAlgebra) -> Fingerprint:
    """Invariants of a: rank, dimensions, graded dimension sequence.
    a may be the algebra or its graded algebra (see _graded_of)."""
    g = _graded_of(a, None)
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


def bc_discriminator(a: NilpotentAlgebra | GradedAlgebra, n: int) -> str:
    """"B" or "C" for an algebra (or its graded algebra) known to be one of the two.

    Uses the pairing gr^2 x gr^{2n-3} -> gr^{2n-1}: both families have
    source piece dimensions (n-1, 2) and target dimension 1 there, but
    only C_n has a nontrivial right kernel (it contains the coset of
    the long root 2e_2, which no degree-2 root extends to a root).
    """
    if n < 3:
        raise ValueError("B/C discrimination needs rank at least 3")
    g = _graded_of(a, None)
    if g.dims[2 * n - 4:2 * n - 1:2] != (2, 1):  # dim gr^{2n-3}, dim gr^{2n-1}
        raise ValueError("graded dimensions do not match a B/C nilradical")
    p = graded_pairing(g, 2, 2 * n - 3)
    return "B" if right_null_space(p).dim == 0 else "C"


@cache
def _degree_histogram(t: SimpleType) -> tuple[int, ...]:
    """t's degree histogram, from a root system built once per type."""
    return tuple(degree_histogram(build_root_system(t)))


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
    rank = g.dims[0]
    if rank > max_rank:
        raise UnrecognizedAlgebraError(
            f"rank {rank} exceeds the identification bound {max_rank}"
        )
    candidates = [  # all_types lists B_n before C_n
        t for t in all_types(rank)
        if t.rank == rank and t != SimpleType("D", 3)
        and _degree_histogram(t) == g.dims
    ]
    if not candidates:
        raise UnrecognizedAlgebraError(
            f"graded dimensions {g.dims} are the degree histogram of no "
            f"simple type of rank {rank}"
        )
    canonical = candidates[0]
    if len(candidates) == 2 and rank >= 3:  # B_n and C_n
        canonical = SimpleType(bc_discriminator(g, rank), rank)
    return Identification(canonical, _aliases(canonical))
