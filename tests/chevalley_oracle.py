"""The root system and Chevalley nilradical the way lienil first built
them: Root arithmetic for sums and differences, dict lookups for root
tests and Fraction length ratios for the mixed-sign constants, with the
result checked for integrality only at the end.  The Root arithmetic,
root-string and form helpers are the ones rootsys used to carry.
lienil.rootsys.build_root_system and lienil.chevalley.nilradical run
the same closure and recursion on integer tuples and tables and must
give the same roots and table.
"""

from fractions import Fraction

from lienil.nilalg import NilpotentAlgebra
from lienil.rootsys import Root, RootSystem, SimpleType, cartan_matrix, symmetrizer


def add(a: Root, b: Root) -> Root:
    return Root(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def sub(a: Root, b: Root) -> Root:
    return Root(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def neg(a: Root) -> Root:
    return Root(tuple(-x for x in a.coeffs))


def string_down_length(is_root, gamma: Root, alpha: Root) -> int:
    """Largest p with gamma - alpha, ..., gamma - p*alpha all roots."""
    p = 0
    cur = sub(gamma, alpha)
    while is_root(cur):
        p += 1
        cur = sub(cur, alpha)
    return p


def positive_roots(t: SimpleType) -> tuple[Root, ...]:
    """The positive roots by the root-string closure on Roots, where a
    root test accepts positive and negative roots, in the root order."""
    n = t.rank
    cartan = cartan_matrix(t)
    simple = [Root(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
    found = set(simple)

    def is_found(r: Root) -> bool:
        return r in found or neg(r) in found

    level = list(simple)
    while level:
        nxt = set()
        for gamma in level:
            for i, alpha in enumerate(simple):
                p = string_down_length(is_found, gamma, alpha)
                if p - sum(c * cartan[j][i] for j, c in enumerate(gamma.coeffs)) > 0:
                    cand = add(gamma, alpha)
                    if cand not in found:
                        nxt.add(cand)
        found.update(nxt)
        level = list(nxt)
    return tuple(sorted(found, key=lambda r: (r.degree, r.coeffs)))


def inner(rs: RootSystem, a: Root, b: Root) -> Fraction:
    """Invariant symmetric form (a, b), normalized so the entries are
    the symmetrized Cartan integers."""
    d = symmetrizer(rs.type)
    total = 0
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj:
                total += ai * bj * rs.cartan[i][j] * d[j]
    return Fraction(total)


def is_root(rs: RootSystem, r: Root) -> bool:
    return r in rs.index_of or neg(r) in rs.index_of


def nilradical(rs: RootSystem) -> NilpotentAlgebra:
    pos = rs.positive_roots
    index = rs.index_of
    nconst: dict[tuple[int, int], int] = {}  # i < j, both positive, sum positive

    def npos(i: int, j: int) -> int:
        if i == j:
            return 0
        if i < j:
            return nconst.get((i, j), 0)
        return -nconst.get((j, i), 0)

    def n_mixed(xi: int, zi: int) -> Fraction:
        """N(x, -z) for distinct positive roots x, z."""
        s = sub(pos[xi], pos[zi])
        if s in index:
            ratio = inner(rs, s, s) / inner(rs, pos[xi], pos[xi])
            return -ratio * npos(zi, index[s])
        t = neg(s)
        if t in index:
            ratio = inner(rs, t, t) / inner(rs, pos[zi], pos[zi])
            return ratio * npos(index[t], xi)
        return Fraction(0)

    for gamma in pos:
        if gamma.degree == 1:
            continue
        pairs = []
        for ai, alpha in enumerate(pos):
            if alpha.degree >= gamma.degree:
                break
            bi = index.get(sub(gamma, alpha))
            if bi is not None and bi > ai:
                pairs.append((ai, bi))

        a1, b1 = pairs[0]
        p = string_down_length(lambda r: is_root(rs, r), pos[b1], pos[a1])
        nconst[(a1, b1)] = p + 1

        if len(pairs) == 1:
            continue
        n_gamma_down = -(inner(rs, pos[b1], pos[b1]) / inner(rs, gamma, gamma)) * (p + 1)
        for ai, bi in pairs[1:]:
            t1 = Fraction(0)
            x = -n_mixed(ai, a1)  # N(-alpha1, alpha)
            if x:
                eta = sub(pos[ai], pos[a1])
                if eta in index:
                    y = Fraction(npos(index[eta], bi))
                else:
                    y = -n_mixed(bi, index[neg(eta)])
                t1 = x * y
            t3 = Fraction(0)
            x = n_mixed(bi, a1)  # N(beta, -alpha1)
            if x:
                delta = sub(pos[bi], pos[a1])
                if delta in index:
                    y = Fraction(npos(index[delta], ai))
                else:
                    y = -n_mixed(ai, index[neg(delta)])
                t3 = x * y
            val = -(t1 + t3) / n_gamma_down
            if val.denominator != 1 or val == 0:
                raise AssertionError(f"constant for pair {ai},{bi} is {val}")
            nconst[(ai, bi)] = int(val)

    constants = {(i, j): ((index[add(pos[i], pos[j])], v),) for (i, j), v in nconst.items()}
    return NilpotentAlgebra(len(pos), constants)
