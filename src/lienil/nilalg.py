"""Nilpotent Lie algebras given by exact structure constants.

The algebra is basis-agnostic: nothing in this module knows about
roots.  Structure constants are one antisymmetric integer tensor over
a common denominator, which files are read into and written from; the
sparse rational table for pairs i < j is a view of it.

The lower central series takes one product and one row reduction per
term, and is certified against the definition.  In a Chevalley basis,
where every bracket is one basis vector, each product is a gather and
each reduction reads off a coordinate subspace with no residue prime
(_intkernel); the series, graded pairings and their kernels of such a
table run no modular elimination.

* F_1 = N.  Each later term is the exact span of the rows that are
  independent modulo the base prime, checked against those rows only
  (_intkernel.rref_of_base_rows): F_2 of the constant table's rows,
  F_{l+1} of the rows of [F_l, G], G the standard basis vectors at F_2's
  non-pivot coordinates, at F_l's pivots P only, lifted by one product
  with F_l's rows (ScaledRref.lift), so F_{l+1} <= F_l.  In a nilpotent
  Lie algebra F_l = N^l unless the base prime is unlucky (de Graaf, Lie
  Algebras: Theory and Algorithms, 2000).
* Assuming no Jacobi identity, it checks for every l >= 1 that
  [P_l, e_j] in F_{l+1} for every j, P_l the rows of F_l's canonical
  basis at pivots F_{l+1} lacks (P_1: the generators).  As F_l =
  span P_l + F_{l+1}, induction from the zero term gives [F_l, N] <=
  F_{l+1}: the rows of [F_l, G] lie in F_l, whose vectors are fixed by
  their entries at P, so N^l <= F_l <= N^l.  An unlucky base prime only
  fails a check; a failed check falls back to the definition.
* A stall, F_2 = N or rows of [F_l, G] of coordinate rank dim F_l that
  lie in F_l, gives F_l <= [F_l, N], so F_l <= N^k for every k, and
  raises NotNilpotentError.  Rows that leave F_l prove nothing, and the
  definition decides.  Otherwise every term is smaller than the last.

Terms and graded pieces stay integer rows; their Subspace and Matrix
forms are views built on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import groupby

import numpy as np

from . import _intkernel as ik
from .exactlin import Matrix, Subspace, rational_rows, vector

Constants = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]
# Nonzero constants c[i][j][k] = num / den, i < j, in lowest terms, den >= 1,
# as one flat list i, j, k, num, den, i, j, k, num, den, ...
Terms = list[int]
_FLOAT_INPUT = "floating point input is not allowed; use Fraction or int"


class NotNilpotentError(Exception):
    """The given structure constants do not define a nilpotent algebra."""


def _validated_terms(dim: int, constants) -> Terms:
    """The dict constructor's input as Terms: int and Fraction values are
    read as they are, any other value through Fraction; zeros dropped."""
    terms: Terms = []
    for (i, j), values in constants.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        seen = set()
        for k, val in values:
            if not (0 <= k < dim):
                raise ValueError(f"bracket output index {k} out of range")
            if isinstance(val, float):
                raise TypeError(_FLOAT_INPUT)
            val = val if isinstance(val, (int, Fraction)) else Fraction(val)
            if val:
                if k in seen:
                    raise ValueError(f"duplicate output index {k} in bracket ({i}, {j})")
                seen.add(k)
                terms.extend((i, j, k, val.numerator, val.denominator))
    return terms


def _scatter(dim: int, terms: Terms) -> tuple[np.ndarray, int]:
    """(T, scale) with T = scale * c antisymmetric and scale = lcm(den),
    T in compact dtype (_intkernel.compact)."""
    i, j, k = (np.array(terms[c::5], dtype=np.intp) for c in range(3))
    num, den = terms[3::5], terms[4::5]
    scale = math.lcm(1, *den)
    v = np.array(num, dtype=object)
    if scale > 1:
        v = v * (scale // np.array(den, dtype=object))
    v = ik.compact(v, ik.max_abs(v))
    t = np.zeros((dim, dim, dim), dtype=v.dtype)
    t[i, j, k] = v
    t[j, i, k] = -v
    return t, scale


class NilpotentAlgebra:
    """dim plus antisymmetric structure constants c[i][j] -> k.

    The canonical form is the scaled integer tensor of int_tensor():
    T[i, j, k] = scale * c[i][j][k], scale the least common denominator
    of the constants, held once, in compact dtype: int64 when every
    entry is below 2^62, Python ints otherwise.  Equality and every
    computation read T.  The dict constructor and the file loader
    (_from_terms) hold integer Terms, scattered into T by the first
    int_tensor() call, so dim can be bounded before the n^3
    allocation; change_basis builds T directly (_from_scaled).  Files
    are written from T (_nonzero_terms), and ``constants``, the sparse
    rational view (keys (i, j) with i < j, terms (k, Fraction) sorted
    by k), is built only when read.
    """

    def __init__(self, dim: int, constants):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim, self._terms = dim, _validated_terms(dim, constants)
        self._constants: Constants | None = None
        self._tensor: tuple[np.ndarray, int, int] | None = None

    @classmethod
    def _from_terms(cls, dim: int, terms: Terms | None) -> "NilpotentAlgebra":
        """The algebra of validated Terms (dim >= 1)."""
        a = cls.__new__(cls)
        a.dim, a._terms, a._constants, a._tensor = dim, terms, None, None
        return a

    @classmethod
    def _from_scaled(cls, w: np.ndarray, denom: int) -> "NilpotentAlgebra":
        """The algebra with constants w / denom, for an antisymmetric
        (n, n, n) integer tensor w (object or int64) and denom >= 1.

        Dividing by g = gcd(denom, content(w)) leaves exactly the T and
        scale that int_tensor derives from the constants: the least
        common denominator of the reduced fractions w / denom is
        denom / g.  T is kept in compact dtype (_intkernel.compact).
        """
        g = math.gcd(denom, int(np.gcd.reduce(w.ravel()))) if denom > 1 else 1
        if g != 1:
            w = w // g
        tmax = ik.max_abs(w)
        a = cls._from_terms(w.shape[0], None)
        a._tensor = ik.compact(w, tmax), denom // g, tmax
        return a

    @property
    def constants(self) -> Constants:
        """The constants as a sparse dict, built from T on first read."""
        if self._constants is None:
            self._constants = {key: tuple((k, Fraction(p, q)) for _, _, k, p, q in run)
                               for key, run in groupby(self._nonzero_terms(), lambda t: t[:2])}
        return self._constants

    def _nonzero_terms(self) -> list[tuple[int, int, int, int, int]]:
        """T's entries with i < j as (i, j, k, num, den) in row-major order
        (keys and outputs ascending), reduced by one gcd against scale."""
        t, scale, tmax = self.int_tensor()
        i, j, k = np.nonzero(t)
        keep = i < j
        i, j, k = i[keep], j[keep], k[keep]
        v = ik.compact(t[i, j, k], max(tmax, scale))  # np.gcd needs scale in v's dtype
        g = np.gcd(v, scale)
        return list(zip(i.tolist(), j.tolist(), k.tolist(), (v // g).tolist(),
                        (scale // g).tolist()))

    def __eq__(self, other):
        if not isinstance(other, NilpotentAlgebra) or self.dim != other.dim:
            return False
        t, scale, _ = self.int_tensor()
        u, other_scale, _ = other.int_tensor()
        return scale == other_scale and np.array_equal(t, u)

    def __repr__(self) -> str:
        return f"NilpotentAlgebra({self.dim}, {self.constants!r})"

    def bracket_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of the pairs i < j with [e_i, e_j] != 0,
        in row-major order, read from the tensor."""
        nonzero = (self.int_tensor()[0] != 0).any(axis=2)
        return np.nonzero(np.triu(nonzero, 1))

    def int_tensor(self) -> tuple[np.ndarray, int, int]:
        """Full antisymmetric tensor scaled to integers.

        Returns (T, scale, max_abs) with T[i, j, k] = scale * c[i][j][k],
        T int64 when max_abs is below 2^62 and Python ints otherwise
        (_intkernel.compact).  Terms are scattered here, once.
        """
        if self._tensor is None:
            self._tensor = NilpotentAlgebra._from_scaled(*_scatter(self.dim, self._terms))._tensor
            self._terms = None
        return self._tensor


def bracket(a: NilpotentAlgebra, x, y) -> tuple[Fraction, ...]:
    """[x, y] in coordinates, for coordinate vectors x and y."""
    xv, yv = vector(x), vector(y)
    if len(xv) != a.dim or len(yv) != a.dim:
        raise ValueError("vector length does not match algebra dimension")
    out = [Fraction(0)] * a.dim
    for (i, j), terms in a.constants.items():
        coef = xv[i] * yv[j] - xv[j] * yv[i]
        if coef:
            for k, v in terms:
                out[k] += coef * v
    return tuple(out)


@dataclass(frozen=True)
class Filtration:
    """Descending chain rrefs[0] = whole space, ..., rrefs[-1] = 0 in
    canonical integer form; ``terms`` is its rational view."""

    rrefs: tuple[ik.ScaledRref, ...]

    @property
    def nilpotency_class(self) -> int:
        return len(self.rrefs) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.rrefs)

    @cached_property
    def terms(self) -> tuple[Subspace, ...]:
        return tuple(r.to_subspace() for r in self.rrefs)


def lower_central_series(a: NilpotentAlgebra) -> Filtration:
    """Canonical subspaces N = N^1 >= N^2 = [N, N] >= N^3 = [N^2, N] ...

    terms[i] is N^{i+1}; the last term is zero.  Raises
    NotNilpotentError when the series does not reach zero.  The
    certified direct series runs first (see the module docstring); the
    definitional iteration decides when its certificate fails.
    """
    return _direct_series(a) or _definitional_series(a)


def _direct_series(a: NilpotentAlgebra) -> Filtration | None:
    """Certified fast path; None means fall back to the definition."""
    n = a.dim
    t, _, tmax = a.int_tensor()

    i, j = a.bracket_pairs()
    f2 = ik.rref_of_base_rows(t[i, j], n)
    if f2.dim == n:
        raise NotNilpotentError("derived subalgebra is the whole algebra")

    # tg[b, g, c] = t[b, gen[g], c], so u @ tg reshaped to (rows * gens, n)
    # lists the brackets [row, generator] batchwise, tg[:, :, P] at P only.
    is_gen = np.ones(n, dtype=bool)
    is_gen[f2.pivots] = False
    tg = t[:, is_gen, :]
    terms = [ik.ScaledRref.full(n), f2]
    while terms[-1].dim:
        cur, d = terms[-1], terms[-1].dim
        rows = ik.exact_matmul(cur.nums, tg[:, :, cur.pivots].reshape(n, -1), cur.nmax, tmax)
        coords = ik.rref_of_base_rows(rows.reshape(-1, d), d)
        if coords.dim == d:
            if not cur.holds(cur.nums, tg.reshape(n, -1), cur.nmax, tmax):
                return None
            raise NotNilpotentError("lower central series stalls before zero")
        terms.append(cur.lift(coords))

    # The certificate's int64 products read t in float64, converted once here.
    flat = t.reshape(n, n * n)
    flat_f = flat.astype(np.float64) if flat.dtype == np.int64 else None
    for cur, nxt in zip(terms, terms[1:]):
        p, _ = _complement(cur, nxt)
        if not nxt.holds(p, flat, ik.max_abs(p), tmax, flat_f):
            return None
    return Filtration(tuple(terms))


def _definitional_series(a: NilpotentAlgebra) -> Filtration:
    """N^{i+1} as the literal span of [basis(N^i), e_j] at every step."""
    n = a.dim
    t, _, tmax = a.int_tensor()
    terms = [ik.ScaledRref.full(n)]
    while terms[-1].dim:
        prod = ik.exact_matmul(terms[-1].nums, t.reshape(n, n * n), terms[-1].nmax, tmax)
        nxt = ik.rref_from_rows(prod.reshape(-1, n), n)
        if nxt == terms[-1]:
            raise NotNilpotentError("lower central series stalls before zero")
        terms.append(nxt)
    return Filtration(tuple(terms))


def _complement(cur: ik.ScaledRref, nxt: ik.ScaledRref) -> tuple[np.ndarray, int]:
    """(rows, s): the rows of cur's canonical basis whose pivots are not
    pivots of nxt, as integers over cur's denominator s."""
    drop = set(nxt.pivots)
    return cur.nums[[r for r, p in enumerate(cur.pivots) if p not in drop]], cur.den


class GradedAlgebra:
    """Associated graded pieces of a filtration.

    Piece i holds coset representatives spanning a complement of
    terms[i+1] inside terms[i]; graded() takes the rows of terms[i]'s
    canonical basis whose pivots are not pivots of terms[i+1].  A piece
    is given as a rational Matrix or as (integer rows, s), the
    representatives being rows / s, and kept in the second form;
    ``pieces`` is the rational view, built on first read.

    graded_pairing caches per degree k piece k contracted into the
    structure tensor (at most n^3 more entries in all, the size of the
    tensor) and the coordinates of piece k's cosets, read off the
    filtration's canonical rows (_coset_coordinates).  With F and F'
    terms k and k+1 and Q the pivots of F that F' lacks, a vector of F
    is determined modulo F' by its residual against F' at the columns Q.
    So the representatives are checked once per degree, and the square
    matrix Z of their residuals at Q, diagonal for graded()'s own pieces,
    is inverted once.  The product that reads the coordinates also
    checks that a bracket lies in its term.
    """

    def __init__(self, algebra: NilpotentAlgebra, filtration: Filtration,
                 pieces: tuple[Matrix | tuple[np.ndarray, int], ...]):
        self.algebra, self.filtration = algebra, filtration
        scaled = (p if isinstance(p, tuple) else ik.scaled_int(p) for p in pieces)
        self._scaled = tuple((ik.compact(rows, ik.max_abs(rows)), s) for rows, s in scaled)
        self._contracted: dict = {}
        self._coordinates: dict = {}

    @cached_property
    def pieces(self) -> tuple[Matrix, ...]:
        n = self.algebra.dim
        return tuple(Matrix(rational_rows(rows.tolist(), s), len(rows), n)
                     for rows, s in self._scaled)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(rows) for rows, _ in self._scaled)

    def piece(self, i: int) -> Matrix:
        """Coset representatives for gr^i (1-based degree)."""
        if i < 1:
            raise ValueError("graded degree starts at 1")
        if i > len(self.pieces):
            return Matrix((), 0, self.algebra.dim)
        return self.pieces[i - 1]

    def scaled_piece(self, i: int) -> tuple[np.ndarray, int]:
        """piece(i) as (integer rows, s), the representatives being rows / s."""
        if i < 1:
            raise ValueError("graded degree starts at 1")
        if i > len(self._scaled):
            return np.zeros((0, self.algebra.dim), dtype=np.int64), 1
        return self._scaled[i - 1]


def graded(a: NilpotentAlgebra, filtration: Filtration | None = None) -> GradedAlgebra:
    f = filtration if filtration is not None else lower_central_series(a)
    pieces = []
    for cur, nxt in zip(f.rrefs, f.rrefs[1:]):
        rows, s = _complement(cur, nxt)
        if rows.shape[0] != cur.dim - nxt.dim:
            raise AssertionError("filtration terms are not nested")
        pieces.append((rows, s))
    return GradedAlgebra(a, f, tuple(pieces))


@dataclass(frozen=True, eq=False)
class BilinearPairing:
    """Induced pairing gr^i x gr^j -> gr^{i+j} as an exact tensor.

    coords[a, b] / den, integers over one positive den, is the coordinate
    vector (length dim gr^{i+j}) of [u_a, v_b] against the degree-(i+j)
    coset representatives; ``tensor`` is its rational view, built on first read.
    """

    i: int
    j: int
    source_dims: tuple[int, int]
    target_dim: int
    coords: np.ndarray
    den: int

    @cached_property
    def tensor(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        (du, dv), dt = self.source_dims, self.target_dim
        vecs = rational_rows(self.coords.reshape(du * dv, dt).tolist(), self.den)
        return tuple(vecs[r * dv:(r + 1) * dv] for r in range(du))


def graded_pairing(g: GradedAlgebra, i: int, j: int) -> BilinearPairing:
    """The pairing induced by the bracket on graded pieces i and j.

    Raises ValueError, naming the degree, when the representatives of
    piece i, j or i + j are not a basis of their term modulo the next.
    """
    if i < 1 or j < 1:
        raise ValueError("graded degrees start at 1")
    a = g.algebra
    n = a.dim
    ui, us = g.scaled_piece(i)
    vi, vs = g.scaled_piece(j)
    _coset_coordinates(g, i)
    _coset_coordinates(g, j)
    nxt, q, free, zm, zmax, dz, sdz = _coset_coordinates(g, i + j)
    du, dv, dt = ui.shape[0], vi.shape[0], q.size

    # Every bracket at once: w[r * dv + c] = cs * us * vs * [u_r, v_c],
    # contracting u (cached per i) into the scaled structure tensor, then v.
    t, cs, tmax = a.int_tensor()
    if i not in g._contracted:
        x = ik.exact_matmul(ui, t.reshape(n, n * n), ik.max_abs(ui), tmax)
        x = x.reshape(du, n, n).transpose(0, 2, 1).reshape(du * n, n)
        g._contracted[i] = x, ik.max_abs(x)
    x, xmax = g._contracted[i]
    w = ik.exact_matmul(vi, x.T, b_max=xmax).T  # vi on the left: a gather when monomial
    w = w.reshape(du, n, dv).transpose(0, 2, 1).reshape(du * dv, n)

    # One product gives the coordinates and the bracket check: w lies in
    # term i + j iff s * dZ * r = coords @ R at the columns `free`
    # (_coset_coordinates).
    r = nxt.residuals(w)
    rmax = ik.max_abs(r)
    prod = ik.exact_matmul(r[:, q], zm, rmax, zmax)
    coords = prod[:, :dt]
    if not np.array_equal(ik.scale_rows(r[:, free], sdz, rmax), prod[:, dt:]):
        raise AssertionError("bracket left the expected filtration level")
    return BilinearPairing(i, j, (du, dv), dt, coords.reshape(du, dv, dt), dz * cs * us * vs)


def _coset_coordinates(g: GradedAlgebra, k: int) -> tuple:
    """(F', Q, C, [s * V | s * V @ R[:, C]], its max entry, dZ, s * dZ)
    for degree k, cached on g.  F and F' are terms k and k+1, Q the
    pivots of F that F' lacks, C the columns that are no pivot of F,
    R = F'.residuals(reps) for piece k's integer rows reps over s, and
    V / dZ the inverse of Z = R[:, Q].  A vector w of F equals
    sum_r c_r * reps_r / s modulo F', and r = F'.residuals(w) = c @ R / s,
    so c = r[:, Q] @ (s * V) / dZ.  As Z is invertible, any w lies in F
    exactly when s * dZ * r = coords @ R for coords = r[:, Q] @ (s * V).
    Both sides vanish at the pivots of F' and agree at Q, so only the
    columns C need comparing, and one product by the cached matrix,
    of inner dimension dim gr^k, gives coords and those columns.
    Raises ValueError when reps are not in F or not a basis modulo F'."""
    cached = g._coordinates.get(k)
    if cached is None:
        reps, s = g.scaled_piece(k)
        rrefs = g.filtration.rrefs
        n = g.algebra.dim
        inside, nxt = (rrefs[d] if d < len(rrefs) else ik.ScaledRref(n) for d in (k - 1, k))
        drop = set(nxt.pivots)
        q = np.array([p for p in inside.pivots if p not in drop], dtype=np.intp)
        if not inside.holds(reps):
            raise ValueError(f"graded piece {k} does not lie in filtration term {k}")
        basis_error = ValueError(f"graded piece {k} is not a basis modulo filtration term {k + 1}")
        if reps.shape[0] != q.size:
            raise basis_error
        rres = nxt.residuals(reps)
        try:
            v, dz = ik.scaled_inverse(rres[:, q], 1)
        except ValueError:  # Z is singular
            raise basis_error from None
        free = np.ones(n, dtype=bool)
        free[inside.pivots] = False
        free = np.flatnonzero(free)
        sv = ik.scale_rows(v, s)
        zm = np.hstack([sv, ik.exact_matmul(sv, rres[:, free])])
        zmax = ik.max_abs(zm)
        cached = g._coordinates[k] = nxt, q, free, ik.compact(zm, zmax), zmax, dz, s * dz
    return cached


def right_null_space(p: BilinearPairing) -> ik.ScaledRref:
    """right_kernel in canonical integer form."""
    du, dv = p.source_dims
    return ik.null_space(p.coords.transpose(0, 2, 1).reshape(du * p.target_dim, dv), dv)


def right_kernel(p: BilinearPairing) -> Subspace:
    """{w in gr^j : pairing(u, w) = 0 for all u} as a canonical subspace."""
    return right_null_space(p).to_subspace()


def left_kernel(p: BilinearPairing) -> Subspace:
    """{w in gr^i : pairing(w, v) = 0 for all v} as a canonical subspace."""
    du, dv = p.source_dims
    rows = p.coords.transpose(1, 2, 0).reshape(dv * p.target_dim, du)
    return ik.null_space(rows, du).to_subspace()


def change_basis(a: NilpotentAlgebra, m: Matrix | list[list[int]]) -> NilpotentAlgebra:
    """Structure constants in the basis whose i-th vector is row i of m
    (a rational Matrix or integer rows) against the old basis."""
    n = a.dim
    mi, ms = ik.scaled_int(m) if isinstance(m, Matrix) else (np.array(m, dtype=object), 1)
    if mi.shape != (n, n):
        raise ValueError("change of basis matrix must be dim x dim")
    if not set(map(type, mi.flat)) <= {int}:
        if not all(isinstance(x, (int, np.integer)) for x in mi.flat):
            raise TypeError(_FLOAT_INPUT)  # the integer kernel would truncate it
        mi = np.frompyfunc(int, 1, 1)(mi)  # numpy integers would wrap around
    mmax = ik.max_abs(mi)
    mi = ik.compact(mi, mmax)  # once, for the inverse and both products
    vi, vs = ik.scaled_inverse(mi, ms)  # raises ValueError when singular
    t, cs, tmax = a.int_tensor()

    # With M = mi / ms and M^-1 = vi / vs, the new constants are
    # W[i, j, k] / (cs * ms^2 * vs), W = sum Mi[i, a] Mi[j, b] T[a, b, c] Vi[c, k],
    # taken as three flat products:
    # D[a, b, k] = sum_c T[a, b, c] * Vi[c, k]
    d = ik.exact_matmul(t.reshape(n * n, n), vi, tmax, ik.max_abs(vi))
    # X[j, a, k] = sum_b Mi[j, b] * D[a, b, k]
    d = d.reshape(n, n, n).transpose(1, 0, 2).reshape(n, n * n)
    x = ik.exact_matmul(mi, d, mmax, ik.max_abs(d))
    # W[i, j, k] = sum_a Mi[i, a] * X[j, a, k]
    x = x.reshape(n, n, n).transpose(1, 0, 2).reshape(n, n * n)
    w = ik.exact_matmul(mi, x, mmax, ik.max_abs(x))
    return NilpotentAlgebra._from_scaled(w.reshape(n, n, n), cs * ms * ms * vs)
