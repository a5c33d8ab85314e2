"""Oracles that lienil's exact linear algebra is tested against.

Fraction Gauss-Jordan elimination: rows are reduced column by column in
Fraction arithmetic, the textbook way.  RowByRowRref: the scaled-integer
echelon form built one row at a time with Python-int arithmetic, the
engine that lienil._intkernel.ScaledRref replaced by modular reduction.
Nothing here shares code with lienil's elimination.

The Fraction loader: clean_constants, payload_constants and int_tensor
read structure constants into Fractions and scale them term by term,
the way lienil did before its loader and dict constructor built the
scaled integer tensor directly.

from_rows: a rational Matrix from rows of ints or Fractions, with its
shape checked; lienil itself builds Matrix values only from its own rows.

random_unimodular_lists: the seeded unimodular scramble on two d x d
lists of Python ints, as lienil.exactlin.random_unimodular first ran;
the numpy version must make the same draws and give the same rows.
"""

import math
import random
from fractions import Fraction

import numpy as np

from lienil.exactlin import Matrix, Subspace, vector


def from_rows(rows, cols: int | None = None) -> Matrix:
    """The rational matrix with these rows (ints or Fractions, no floats).
    Every row must have the same length, cols when given; an empty
    matrix needs cols."""
    data = tuple(vector(r) for r in rows)
    if data:
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("rows have inconsistent lengths")
    else:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        width = cols
    if cols is not None and data and width != cols:
        raise ValueError("explicit column count does not match rows")
    return Matrix(data, len(data), width)


def identity(n: int) -> Matrix:
    return from_rows([[int(i == j) for j in range(n)] for i in range(n)], n)


def zeros(rows: int, cols: int) -> Matrix:
    return from_rows([[0] * cols for _ in range(rows)], cols)


def transpose(m: Matrix) -> Matrix:
    return from_rows([[row[j] for row in m.entries] for j in range(m.cols)], m.rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b, entry by entry."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    cols = transpose(b).entries
    return from_rows(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries], b.cols)


def full(ambient: int) -> Subspace:
    return Subspace(ambient, identity(ambient))


def pivots(s: Subspace) -> tuple[int, ...]:
    return tuple(next(j for j, x in enumerate(row) if x) for row in s.basis.entries)


def rref(m: Matrix) -> Matrix:
    """Canonical reduced row echelon form with zero rows dropped."""
    work = [list(r) for r in m.entries]
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return Matrix(tuple(tuple(row) for row in work[:r]), r, m.cols)


def kernel(m: Matrix) -> Subspace:
    """Right null space: one vector per free column of rref(m)."""
    red = rref(m)
    piv = [next(j for j, x in enumerate(row) if x != 0) for row in red.entries]
    vecs = []
    for f in (j for j in range(m.cols) if j not in piv):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row, p in zip(red.entries, piv):
            v[p] = -row[f]
        vecs.append(tuple(v))
    return Subspace(m.cols, rref(Matrix(tuple(vecs), len(vecs), m.cols)))


def inverse(m: Matrix) -> Matrix:
    """Gauss-Jordan on [m | I]; ValueError when m is singular."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    work = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m.entries)]
    for c in range(n):
        pr = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pr is None:
            raise ValueError("matrix is singular")
        work[c], work[pr] = work[pr], work[c]
        pv = work[c][c]
        work[c] = [x / pv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return Matrix(tuple(tuple(row[n:]) for row in work), n, n)


def change_basis(a, m: Matrix) -> dict:
    """Constants of a in the basis given by the rows of m, as a dict:
    c'[i,j,k] = sum m[i,a] m[j,b] c[a,b,c] m^-1[c,k], computed with
    matmul on the full antisymmetric table."""
    n = a.dim
    table = [[Fraction(0)] * n for _ in range(n * n)]
    for (i, j), terms in a.constants.items():
        for k, v in terms:
            table[i * n + j][k] = v
            table[j * n + i][k] = -v
    pairs = from_rows([
        [m.entries[i][p] * m.entries[j][q] for p in range(n) for q in range(n)]
        for i in range(n) for j in range(n)
    ])
    new = matmul(pairs, matmul(from_rows(table), inverse(m)))
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = tuple((k, v) for k, v in enumerate(new.entries[i * n + j]) if v)
            if terms:
                out[(i, j)] = terms
    return out


def _content(row) -> int:
    g = 0
    for x in row:
        g = math.gcd(g, int(x))
    return g


class RowByRowRref:
    """Canonical reduced echelon rows nums[r] / dens[r] (lists of Python
    ints), built by inserting one row at a time: each row reads dens[r]
    at its own pivot and 0 at every other pivot, and
    gcd(content, den) = 1."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.pivots: list[int] = []
        self.nums: list[list[int]] = []
        self.dens: list[int] = []

    def insert(self, v) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        # Common-denominator residual d * (v - projection of v).
        d = math.lcm(1, *self.dens)
        r = [d * int(x) for x in v]
        for p, num, den in zip(self.pivots, self.nums, self.dens):
            c = int(v[p])
            if c:
                r = [x - c * (d // den) * y for x, y in zip(r, num)]
        p = next((i for i, x in enumerate(r) if x), None)
        if p is None:
            return False
        g = _content(r) * (1 if r[p] > 0 else -1)
        r = [x // g for x in r]
        den = r[p]
        # Knock the new pivot column out of every stored row.
        for i, (num, d0) in enumerate(zip(self.nums, self.dens)):
            c = num[p]
            if c:
                tmp = [x * den - y * c for x, y in zip(num, r)]
                g2 = math.gcd(_content(tmp), d0 * den)
                self.nums[i] = [x // g2 for x in tmp]
                self.dens[i] = d0 * den // g2
        at = sum(q < p for q in self.pivots)
        self.pivots.insert(at, p)
        self.nums.insert(at, r)
        self.dens.insert(at, den)
        return True

    def insert_rows(self, rows) -> int:
        """Insert each row in turn; returns the dimension growth."""
        return sum(self.insert(r) for r in rows)


def clean_constants(dim: int, constants) -> dict:
    """The dict constructor's checks, with every value made a Fraction:
    terms sorted by k, zero terms and empty brackets dropped."""
    clean = {}
    for (i, j), terms in constants.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        seen = {}
        for k, val in terms:
            if not (0 <= k < dim):
                raise ValueError(f"bracket output index {k} out of range")
            if isinstance(val, float):
                raise TypeError("floating point input is not allowed; use Fraction or int")
            f = Fraction(val)
            if f:
                if k in seen:
                    raise ValueError(f"duplicate output index {k} in bracket ({i}, {j})")
                seen[k] = f
        if seen:
            clean[(i, j)] = tuple(sorted(seen.items()))
    return clean


def payload_constants(payload: dict) -> tuple[int, dict]:
    """(dim, constants) of a valid interchange payload, one Fraction per
    term."""
    constants = {}
    for entry in payload["brackets"]:
        terms = [(t["k"], Fraction(t["num"], t["den"])) for t in entry["terms"]]
        constants[(entry["i"], entry["j"])] = tuple(terms)
    return payload["dim"], clean_constants(payload["dim"], constants)


def int_tensor(dim: int, constants: dict) -> tuple[np.ndarray, int, int]:
    """(T, scale, max |T|) of cleaned constants, T an object array with
    T[i, j, k] = scale * c[i][j][k], scale the lcm of the denominators."""
    scale = 1
    for terms in constants.values():
        for _, v in terms:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
    t = np.zeros((dim, dim, dim), dtype=object)
    biggest = 0
    for (i, j), terms in constants.items():
        for k, v in terms:
            x = int(v * scale)
            t[i, j, k], t[j, i, k] = x, -x
            biggest = max(biggest, abs(x))
    return t, scale, biggest


def random_unimodular_lists(d: int, seed: int, entry_bound: int = 2**10) -> list[list[int]]:
    """Identity, then 6d seeded swaps, negations and bounded shears, the
    inverse kept alongside as lists and a shear skipped when an entry of
    either would pass entry_bound."""
    rng = random.Random(seed)
    work = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    inv = [row[:] for row in work]
    for _ in range(6 * d):
        op = rng.randrange(3)
        if op == 0 and d >= 2:
            i, j = rng.sample(range(d), 2)
            work[i], work[j] = work[j], work[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif op == 1:
            i = rng.randrange(d)
            work[i] = [-x for x in work[i]]
            for row in inv:
                row[i] = -row[i]
        elif d >= 2:
            i, j = rng.sample(range(d), 2)
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            candidate = [a + c * b for a, b in zip(work[i], work[j])]
            inv_candidate = [row[j] - c * row[i] for row in inv]
            if (max(abs(x) for x in candidate) <= entry_bound
                    and max(abs(x) for x in inv_candidate) <= entry_bound):
                work[i] = candidate
                for row, x in zip(inv, inv_candidate):
                    row[j] = x
    return work
