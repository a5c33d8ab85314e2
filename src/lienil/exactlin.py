"""Exact rational linear algebra on small dense matrices, and seeded
unimodular scrambles.

Matrices and subspaces hold ``fractions.Fraction`` entries: no
tolerances, and a float guess (the integer kernel's float64 inverse)
counts only once an exact integer product has proved it.  Subspaces
are represented by their reduced row echelon basis, which is a
canonical form, so two subspaces are equal iff their ``Subspace``
values are equal.  Kernels and inverses run on the integer
engine ``_intkernel.ScaledRref``: rows are scaled to integers, reduced
exactly, and read back as rationals.  random_unimodular gives integer
rows, which change_basis takes as they are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import _intkernel as ik

Vector = tuple[Fraction, ...]
_ENTRY_BOUND = 2**10  # random_unimodular's bound on every entry of a scramble and its inverse


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floating point input is not allowed; use Fraction or int")
    return Fraction(x)


def vector(entries: Iterable) -> Vector:
    return tuple(_frac(x) for x in entries)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over the rationals, stored row-major."""

    entries: tuple[Vector, ...]
    rows: int
    cols: int


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n given by its canonical RREF basis."""

    ambient: int
    basis: Matrix

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix((), 0, ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v: Sequence) -> bool:
        w = list(vector(v))
        if len(w) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        for row in self.basis.entries:
            p = next(j for j, x in enumerate(row) if x != 0)
            if w[p] != 0:
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        return all(x == 0 for x in w)


def rational_rows(rows: Sequence[Sequence[int]], den: int) -> tuple[Vector, ...]:
    """The rows rows[r] / den of Fractions, over one denominator.  Each
    distinct value is built once and shared by every entry that holds it."""
    seen: dict[int, Fraction] = {}
    out = []
    for row in rows:
        for x in set(row).difference(seen):
            seen[x] = Fraction(x, den)
        out.append(tuple(map(seen.__getitem__, row)))
    return tuple(out)


def kernel(m: Matrix) -> Subspace:
    """Right null space {v : m @ v = 0} as a canonical subspace: one
    certified reduction of m's scaled integer rows (_intkernel.null_space)
    whose free-column vectors already form the reduced echelon basis."""
    return ik.null_space(ik.scaled_int(m)[0], m.cols).to_subspace()


def inverse(m: Matrix) -> Matrix:
    """m^-1, read off the reduced row echelon form [I | m^-1] of [m | I]."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    v, d = ik.scaled_inverse(*ik.scaled_int(m))
    return Matrix(rational_rows(v.tolist(), d), m.rows, m.cols)


def random_unimodular(d: int, seed: int) -> list[list[int]]:
    """Deterministic pseudorandom integer matrix with determinant +-1, as
    integer rows (change_basis takes them as they are).

    Built from the identity by a bounded number of elementary row
    operations (swaps, negations, integer shears).  The inverse is
    maintained alongside, and a shear is skipped when it would push an
    entry of either matrix past _ENTRY_BOUND: conjugating by the
    result then keeps all downstream exact arithmetic on small
    integers.  Both matrices are int64 numpy rows, the inverse
    transposed so that its columns are rows too; a shear forms entries
    of at most 4 * _ENTRY_BOUND.  A swap only exchanges where two
    logical rows are stored.
    """
    if d <= 0:
        raise ValueError("dimension must be positive")
    rng = random.Random(seed)
    work = np.eye(d, dtype=np.int64)
    inv_t = work.copy()  # inv_t[r] is column r of the inverse
    at = list(range(d))  # logical row r of both is stored at row at[r]
    steps = 6 * d
    for _ in range(steps):
        op = rng.randrange(3)
        if op == 0 and d >= 2:
            i, j = rng.sample(range(d), 2)
            at[i], at[j] = at[j], at[i]
        elif op == 1:
            i = at[rng.randrange(d)]
            work[i] = -work[i]
            inv_t[i] = -inv_t[i]
        elif d >= 2:
            i, j = (at[r] for r in rng.sample(range(d), 2))
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            candidate = work[i] + c * work[j]
            inv_candidate = inv_t[j] - c * inv_t[i]
            if (np.abs(candidate).max() <= _ENTRY_BOUND
                    and np.abs(inv_candidate).max() <= _ENTRY_BOUND):
                work[i] = candidate
                inv_t[j] = inv_candidate
    return work[at].tolist()
