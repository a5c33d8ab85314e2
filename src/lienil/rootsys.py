"""Root systems of the finite simple types, in simple-root coordinates.

Positive roots are enumerated from the Cartan matrix alone by the usual
root-string closure: a candidate gamma + alpha_i is a root iff
p - <gamma, alpha_i^vee> > 0 where p is how far the alpha_i-string
continues below gamma.  Roots are kept in a fixed total order (degree,
then lexicographic on coefficient tuples) which every other module
treats as the canonical basis order of the nilradical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Lie algebra type such as B3 or E8.

    Construction only checks that the family letter is known and the
    rank is positive, so degenerate names like B1 can exist as aliases
    in identification output.  ``validate`` enforces the usual rank
    restrictions and is called by ``build_root_system``.
    """

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError("rank must be a positive integer")

    def validate(self) -> "SimpleType":
        if not _RANK_RULES[self.family](self.rank):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")
        return self

    def is_valid(self) -> bool:
        return _RANK_RULES[self.family](self.rank)

    @staticmethod
    def parse(text: str) -> "SimpleType":
        s = text.strip().upper().replace("_", "").replace(" ", "")
        if len(s) < 2 or s[0] not in FAMILIES:
            raise ValueError(f"cannot parse type {text!r}")
        try:
            rank = int(s[1:])
        except ValueError:
            raise ValueError(f"cannot parse type {text!r}") from None
        return SimpleType(s[0], rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, order=True)
class Root:
    """Positive root as integer coefficients over the simple roots."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.coeffs)


def cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix C[i][j] = <alpha_i, alpha_j^vee> in Bourbaki numbering."""
    t.validate()
    n = t.rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if t.family in ("A", "B", "C"):
        for i in range(n - 1):
            chain(i, i + 1)
        if t.family == "B" and n >= 2:
            c[n - 2][n - 1] = -2
        if t.family == "C" and n >= 2:
            c[n - 1][n - 2] = -2
    elif t.family == "D":
        for i in range(n - 2):
            chain(i, i + 1)
        chain(n - 3, n - 1)
    elif t.family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        for i, j in edges:
            chain(i, j)
    elif t.family == "F":
        chain(0, 1)
        chain(2, 3)
        c[1][2] = -2
        c[2][1] = -1
    else:  # G2
        c[0][1] = -1
        c[1][0] = -3
    return tuple(tuple(row) for row in c)


def symmetrizer(t: SimpleType) -> tuple[int, ...]:
    """Integers d with d[j]*C[i][j] symmetric; d[i] is half the squared
    length of alpha_i up to one overall scale."""
    n = t.rank
    if t.family == "B":
        return tuple([2] * (n - 1) + [1])
    if t.family == "C":
        return tuple([1] * (n - 1) + [2])
    if t.family == "F":
        return (2, 2, 1, 1)
    if t.family == "G":
        return (1, 3)
    return tuple([1] * n)


@dataclass(frozen=True, eq=False)
class RootSystem:
    type: SimpleType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    index_of: dict[Root, int]

    @property
    def rank(self) -> int:
        return self.type.rank

    def is_positive_root(self, r: Root) -> bool:
        return r in self.index_of

@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """Enumerate all positive roots of a valid simple type."""
    t.validate()
    n = t.rank
    cartan = cartan_matrix(t)
    found = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    level = found
    while level:
        nxt: set[tuple[int, ...]] = set()
        for gamma in level:
            for i in range(n):
                # gamma - k alpha_i keeps a positive coefficient off i unless
                # gamma = alpha_i, so it is a root iff it is a positive root,
                # one of lower degree and so already found.
                p, down = 0, list(gamma)
                down[i] -= 1
                while tuple(down) in found:
                    p, down[i] = p + 1, down[i] - 1
                if p - sum(c * cartan[j][i] for j, c in enumerate(gamma) if c) > 0:
                    nxt.add(gamma[:i] + (gamma[i] + 1,) + gamma[i + 1:])
        level = nxt - found
        found |= level

    ordered = tuple(Root(c) for c in sorted(found, key=lambda c: (sum(c), c)))
    return RootSystem(t, cartan, ordered, {r: i for i, r in enumerate(ordered)})


def degree_histogram(rs: RootSystem) -> list[int]:
    """Counts of positive roots per degree; entry [d-1] is degree d."""
    top = max(r.degree for r in rs.positive_roots)
    hist = [0] * top
    for r in rs.positive_roots:
        hist[r.degree - 1] += 1
    return hist


def simple_predecessor(rs: RootSystem, r: Root) -> int:
    """Smallest i with r - alpha_i a positive root.

    Every positive root of degree >= 2 has one; degree-1 input is an
    error because simple roots have no predecessor.
    """
    if r.degree < 2:
        raise ValueError("simple roots have no predecessor")
    if not rs.is_positive_root(r):
        raise ValueError("not a positive root of this system")
    for i in range(rs.rank):
        coeffs = list(r.coeffs)
        coeffs[i] -= 1
        if coeffs[i] >= 0 and rs.is_positive_root(Root(tuple(coeffs))):
            return i
    raise AssertionError("positive root with no simple predecessor; root data is corrupt")


def all_types(max_rank: int) -> list[SimpleType]:
    """Canonical constructible types up to the given rank, exceptional
    types included whenever the bound allows them."""
    out = [SimpleType("A", n) for n in range(1, max_rank + 1)]
    out += [SimpleType("B", n) for n in range(2, max_rank + 1)]
    out += [SimpleType("C", n) for n in range(2, max_rank + 1)]
    out += [SimpleType("D", n) for n in range(3, max_rank + 1)]
    out += [SimpleType("E", n) for n in (6, 7, 8) if n <= max_rank]
    if max_rank >= 4:
        out.append(SimpleType("F", 4))
    if max_rank >= 2:
        out.append(SimpleType("G", 2))
    return out
