"""Nilpotent Lie algebras given by exact structure constants.

The algebra is basis-agnostic: nothing in this module knows about
roots.  Structure constants are held as one antisymmetric integer
tensor over a common denominator; the sparse rational table for pairs
i < j is a view of it for I/O.

The lower central series is computed through a generator-level series
that is then certified against the definition, which keeps the cost on
dense inputs near one matrix product per filtration level instead of
one per basis vector:

* N^2 is the row space of the given constant table.
* G lifts a basis of N / N^2 (standard basis vectors at non-pivot
  coordinates), and M_1 = span G, M_{i+1} = [M_i, G].
* In any Lie algebra N^i = M_i + N^{i+1}, so for nilpotent N the
  accumulated tails F_i = M_i + M_{i+1} + ... equal the series exactly.
* The result is certified by checking F_2 = N^2 and [u, e_j] in F_{l+1}
  for every level-l basis vector u and every j.  Both checks pass iff
  F is the true lower central series, so a failure (or a level that
  stalls, or survives past the dimension bound) proves the algebra is
  not nilpotent and raises NotNilpotentError.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _intkernel as ik
from .exactlin import Matrix, Subspace, kernel, vector

Constants = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]


class NotNilpotentError(Exception):
    """The given structure constants do not define a nilpotent algebra."""


def _clean_constants(dim: int, constants) -> Constants:
    clean: Constants = {}
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


class NilpotentAlgebra:
    """dim plus antisymmetric structure constants c[i][j] -> k.

    The canonical form is the scaled integer tensor of int_tensor():
    T[i, j, k] = scale * c[i][j][k], scale the least common denominator
    of the constants.  Equality and every computation read T.
    ``constants`` is the sparse rational view used for I/O: keys (i, j)
    with i < j, terms (k, Fraction) sorted by k.  An algebra given by
    constants derives T on first use; one built from a tensor, as
    change_basis does, builds the view only when it is read.
    """

    def __init__(self, dim: int, constants):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = dim
        self._constants: Constants | None = _clean_constants(dim, constants)
        self._cache: dict = {}

    @classmethod
    def _from_scaled(cls, w: np.ndarray, denom: int) -> "NilpotentAlgebra":
        """The algebra with constants w / denom, for an antisymmetric
        (n, n, n) integer tensor w (object or int64) and denom >= 1.

        Dividing by g = gcd(denom, content(w)) leaves exactly the T and
        scale that int_tensor derives from the constants: the least
        common denominator of the reduced fractions w / denom is
        denom / g.
        """
        n = w.shape[0]
        g = math.gcd(denom, int(np.gcd.reduce(w.ravel()))) if denom > 1 else 1
        if g != 1:
            w = w // g
        tmax = ik.max_abs(w)
        a = cls.__new__(cls)
        a.dim = n
        a._constants = None
        a._cache = {"tensor": (ik._as_object(w), denom // g, tmax)}
        if w.dtype == np.int64 and tmax < ik._INT64_SAFE:
            a._cache["tensor64"] = w.reshape(n, n * n)
        return a

    @property
    def constants(self) -> Constants:
        """The constants as a sparse dict, built from T on first read."""
        if self._constants is None:
            t, scale, _ = self.int_tensor()
            i, j, k = np.nonzero(t)  # row-major: keys and outputs ascend
            keep = i < j
            i, j, k = i[keep], j[keep], k[keep]
            view: dict[tuple[int, int], list] = {}
            for x, y, z, v in zip(i.tolist(), j.tolist(), k.tolist(), t[i, j, k].tolist()):
                view.setdefault((x, y), []).append((z, Fraction(v, scale)))
            self._constants = {key: tuple(terms) for key, terms in view.items()}
        return self._constants

    def __eq__(self, other):
        if not isinstance(other, NilpotentAlgebra) or self.dim != other.dim:
            return False
        t, scale, _ = self.int_tensor()
        u, other_scale, _ = other.int_tensor()
        return scale == other_scale and np.array_equal(t, u)

    def __repr__(self) -> str:
        return f"NilpotentAlgebra({self.dim}, {self.constants!r})"

    def pair_terms(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """Terms of [e_i, e_j] for any i != j, antisymmetry applied."""
        if i < j:
            return self.constants.get((i, j), ())
        return tuple((k, -v) for k, v in self.constants.get((j, i), ()))

    def bracket_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of the pairs i < j with [e_i, e_j] != 0,
        in row-major order, read from the tensor."""
        n = self.dim
        t64 = _flat_tensor64(self)
        t = t64 if t64 is not None else self.int_tensor()[0]
        nonzero = (t.reshape(n, n, n) != 0).any(axis=2)
        return np.nonzero(np.triu(nonzero, 1))

    def int_tensor(self) -> tuple[np.ndarray, int, int]:
        """Full antisymmetric tensor scaled to integers.

        Returns (T, scale, max_abs) with T[i, j, k] = scale * c[i][j][k],
        T an object array of Python ints.
        """
        cached = self._cache.get("tensor")
        if cached is not None:
            return cached
        n = self.dim
        scale = 1
        for terms in self._constants.values():
            for _, v in terms:
                scale = scale * v.denominator // math.gcd(scale, v.denominator)
        t = np.zeros((n, n, n), dtype=object)
        biggest = 0
        for (i, j), terms in self._constants.items():
            for k, v in terms:
                x = int(v * scale)
                t[i, j, k] = x
                t[j, i, k] = -x
                biggest = max(biggest, abs(x))
        out = (t, scale, biggest)
        self._cache["tensor"] = out
        return out


def _flat_tensor64(a: NilpotentAlgebra) -> np.ndarray | None:
    """int_tensor's T reshaped to (n, n * n) in int64, or None when its
    entries may not fit; kept in the algebra's cache beside T."""
    if "tensor64" not in a._cache:
        n = a.dim
        t, _, tmax = a.int_tensor()
        small = tmax < ik._INT64_SAFE
        a._cache["tensor64"] = t.reshape(n, n * n).astype(np.int64) if small else None
    return a._cache["tensor64"]


def bracket(a: NilpotentAlgebra, x, y) -> tuple[Fraction, ...]:
    """[x, y] in coordinates, for coordinate vectors x and y."""
    xv, yv = vector(x), vector(y)
    if len(xv) != a.dim or len(yv) != a.dim:
        raise ValueError("vector length does not match algebra dimension")
    out = [Fraction(0)] * a.dim
    sx = [i for i, v in enumerate(xv) if v]
    sy = [j for j, v in enumerate(yv) if v]
    if len(sx) * len(sy) <= 2 * len(a.constants) + 8:
        for i in sx:
            for j in sy:
                if i == j:
                    continue
                coef = xv[i] * yv[j]
                for k, v in a.pair_terms(i, j):
                    out[k] += coef * v
    else:
        for (i, j), terms in a.constants.items():
            coef = xv[i] * yv[j] - xv[j] * yv[i]
            if coef:
                for k, v in terms:
                    out[k] += coef * v
    return tuple(out)


@dataclass(frozen=True)
class Filtration:
    """Descending chain terms[0] = whole space, ..., terms[-1] = 0."""

    terms: tuple[Subspace, ...]

    @property
    def nilpotency_class(self) -> int:
        return len(self.terms) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)


def lower_central_series(a: NilpotentAlgebra) -> Filtration:
    """Canonical subspaces N = N^1 >= N^2 = [N, N] >= N^3 = [N^2, N] ...

    terms[i] is N^{i+1}; the last term is zero.  Raises
    NotNilpotentError when the series does not reach zero.

    A fast generator-level series is tried first and certified; when
    any certificate fails (possible for antisymmetric tables that are
    not Lie algebras) the definitional iteration decides instead, so
    the answer is exact for every input.
    """
    fast = _generator_series(a)
    if fast is not None:
        return fast
    return _definitional_series(a)


def _generator_series(a: NilpotentAlgebra) -> Filtration | None:
    """Certified fast path; None means fall back to the definition."""
    n = a.dim
    t, _, tmax = a.int_tensor()
    tflat = t.reshape(n, n * n)

    # N^2 straight from the constant rows.
    e2 = ik.ScaledRref(n)
    i, j = a.bracket_pairs()
    if i.size:
        e2.insert_rows(t[i, j])
    if e2.dim == n:
        raise NotNilpotentError("derived subalgebra is the whole algebra")

    gen_idx = sorted(set(range(n)) - set(e2.pivots))
    # t_gen[b, g*n + c] = t[b, gen_idx[g], c], so u @ t_gen reshaped to
    # (rows * gens, n) lists the brackets [row, generator] batchwise.
    t_gen = t[:, gen_idx, :].reshape(n, len(gen_idx) * n)
    tflat64 = _flat_tensor64(a)
    t_gen64 = None
    if tflat64 is not None:
        t_gen64 = tflat64.reshape(n, n, n)[:, gen_idx, :].reshape(t_gen.shape)

    # Generator-level series M_1 = span G, M_{i+1} = [M_i, G].  Always
    # M_i <= N^i, so levels surviving past the dimension bound prove
    # the true series cannot reach zero either.  Each level keeps some
    # spanning row set: the canonical one, or the raw bracket rows when
    # the canonical basis happens to have much larger entries (keeping
    # later products on the accelerated integer path).
    levels = [np.eye(n, dtype=object)[gen_idx]]
    dims = [len(gen_idx)]
    while dims[-1]:
        if len(levels) > n + 1:
            raise NotNilpotentError("lower central series does not terminate")
        u = levels[-1]
        prod = ik.exact_matmul(u, t_gen, ik.max_abs(u), tmax, b64=t_gen64, box=False)
        raw = prod.reshape(u.shape[0] * len(gen_idx), n)
        nxt = ik.rref_from_rows(raw, n)
        can = nxt.basis_matrix()
        fat = ik.max_abs(can)
        rows = raw if fat > 2**32 and ik.max_abs(raw) < fat else can
        levels.append(rows)
        dims.append(nxt.dim)
    levels.pop()  # drop the empty level

    # Accumulate F_i = M_i + M_{i+1} + ... from the deep end.
    acc = ik.ScaledRref(n)
    tail_rrefs: list[ik.ScaledRref] = []
    tail_subspaces: list[Subspace] = []
    for idx in range(len(levels) - 1, 0, -1):  # levels[idx] is M_{idx+1}
        tail_rrefs.append(copy.copy(acc))  # insert_rows replaces acc's row lists
        if acc.insert_rows(levels[idx]) == 0:
            return None  # a level adds nothing: certification impossible
        tail_subspaces.append(acc.to_subspace())
    tail_rrefs.append(copy.copy(acc))
    tail_rrefs.reverse()  # tail_rrefs[i] = F_{i+2}
    tail_subspaces.reverse()  # tail_subspaces[0] = F_2 as subspace

    # Certificate 1: F_2 = N^2.  Every accumulated row is a span of
    # brackets, so F_2 <= N^2 holds unconditionally and equal dimension
    # settles equality.
    if acc.dim != e2.dim:
        return None

    # Certificate 2: [M_l, N] inside F_{l+1} for every level l >= 2.
    # Level 1 needs no sweep: brackets of basis vectors are the
    # constant rows, all inside N^2 = F_2.  Both certificates together
    # force F_l = N^l for all l by a two-sided induction, so the
    # filtration below is the lower central series itself.
    for idx in range(1, len(levels)):
        u = levels[idx]  # M_{idx+1}, so the required tail is F_{idx+2}
        rows = ik.exact_matmul(u, tflat, ik.max_abs(u), tmax, b64=tflat64, box=False)
        if tail_rrefs[idx].residuals(rows.reshape(u.shape[0] * n, n)).any():
            return None

    terms = [Subspace.full(n)] + tail_subspaces + [Subspace.zero(n)]
    return Filtration(tuple(terms))


def _definitional_series(a: NilpotentAlgebra) -> Filtration:
    """N^{i+1} as the literal span of [basis(N^i), e_j] at every step."""
    n = a.dim
    t, _, tmax = a.int_tensor()
    tflat = t.reshape(n, n * n)
    tflat64 = _flat_tensor64(a)
    terms = [Subspace.full(n)]
    cur = np.eye(n, dtype=object)
    while cur.shape[0]:
        if len(terms) > n + 1:
            raise NotNilpotentError("lower central series does not terminate")
        prod = ik.exact_matmul(cur, tflat, ik.max_abs(cur), tmax, b64=tflat64, box=False)
        nxt = ik.rref_from_rows(prod.reshape(cur.shape[0] * n, n), n)
        if nxt.dim == cur.shape[0]:
            raise NotNilpotentError("lower central series stalls before zero")
        terms.append(nxt.to_subspace())
        cur = nxt.basis_matrix()
    return Filtration(tuple(terms))


@dataclass(frozen=True, eq=False)
class GradedAlgebra:
    """Associated graded pieces of a filtration.

    pieces[i] holds coset representatives spanning a complement of
    terms[i+1] inside terms[i]: the rows of terms[i]'s canonical basis
    whose pivots are not pivots of terms[i+1].
    """

    algebra: NilpotentAlgebra
    filtration: Filtration
    pieces: tuple[Matrix, ...]
    # graded_pairing's row space per target degree (see _target_rref).
    _targets: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.rows for p in self.pieces)

    def piece(self, i: int) -> Matrix:
        """Coset representatives for gr^i (1-based degree)."""
        if i < 1:
            raise ValueError("graded degree starts at 1")
        if i > len(self.pieces):
            return Matrix((), 0, self.algebra.dim)
        return self.pieces[i - 1]


def graded(a: NilpotentAlgebra, filtration: Filtration | None = None) -> GradedAlgebra:
    f = filtration if filtration is not None else lower_central_series(a)
    pieces = []
    for i in range(f.nilpotency_class):
        cur, nxt = f.terms[i], f.terms[i + 1]
        nxt_pivots = set(nxt.pivots())
        rows = [row for row, p in zip(cur.basis.entries, cur.pivots()) if p not in nxt_pivots]
        if len(rows) != cur.dim - nxt.dim:
            raise AssertionError("filtration terms are not nested")
        pieces.append(Matrix(tuple(rows), len(rows), a.dim))
    return GradedAlgebra(a, f, tuple(pieces))


@dataclass(frozen=True)
class BilinearPairing:
    """Induced pairing gr^i x gr^j -> gr^{i+j} as an exact tensor.

    tensor[a][b] is the coordinate vector (length dim gr^{i+j}) of
    [u_a, v_b] against the degree-(i+j) coset representatives.
    """

    i: int
    j: int
    source_dims: tuple[int, int]
    target_dim: int
    tensor: tuple[tuple[tuple[Fraction, ...], ...], ...]


def graded_pairing(g: GradedAlgebra, i: int, j: int) -> BilinearPairing:
    """The pairing induced by the bracket on graded pieces i and j."""
    if i < 1 or j < 1:
        raise ValueError("graded degrees start at 1")
    a = g.algebra
    n = a.dim
    u = g.piece(i)
    v = g.piece(j)
    e = _target_rref(g, i + j)
    du, dv, dt = u.rows, v.rows, e.ambient - n

    # Every bracket at once: w[r * dv + c] = cs * us * vs * [u_r, v_c],
    # contracting u into the scaled structure tensor and then v.
    t, cs, tmax = a.int_tensor()
    ui, us = ik.scaled_int(u)
    vi, vs = ik.scaled_int(v)
    x = ik.exact_matmul(ui, t.reshape(n, n * n), ik.max_abs(ui), tmax,
                        b64=_flat_tensor64(a), box=False)
    x = x.reshape(du, n, n).transpose(0, 2, 1).reshape(du * n, n)
    w = ik.exact_matmul(x, vi.T, box=False)
    w = w.reshape(du, n, dv).transpose(0, 2, 1).reshape(du * dv, n)

    # The residual of [w | 0] is [0 | -d * coordinates] when w lies in
    # target + tail, and nonzero on the first n columns otherwise.
    res = e.residuals(np.hstack([w, np.zeros((du * dv, dt), dtype=w.dtype)]))
    if res[:, :n].any():
        raise AssertionError("bracket left the expected filtration level")
    den = -e.denominator * cs * us * vs
    coords = [tuple(Fraction(c, den) for c in row) for row in res[:, n:].tolist()]
    tensor = tuple(tuple(coords[r * dv:(r + 1) * dv]) for r in range(du))
    return BilinearPairing(i, j, (du, dv), dt, tensor)


def _target_rref(g: GradedAlgebra, k: int) -> ik.ScaledRref:
    """Row space of [target_r | e_r] and [tail_t | 0], scaled to
    integers, for the degree-k representatives and the basis of
    N^{k+1}.  The rows are independent on the first n columns.  Cached
    on g: every pairing into degree k reduces against it."""
    cached = g._targets.get(k)
    if cached is None:
        n = g.algebra.dim
        if k > g.filtration.nilpotency_class:
            target = tail = Matrix((), 0, n)
        else:
            target = g.piece(k)
            tail = g.filtration.terms[k].basis  # terms[k] = N^{k+1}
        dt = target.rows
        reps, s = ik.scaled_int(Matrix(target.entries + tail.entries, dt + tail.rows, n))
        cached = g._targets[k] = ik.rref_from_rows(
            np.hstack([reps, s * np.eye(reps.shape[0], dt, dtype=object)]), n + dt)
    return cached


def _null_space(tensor, dim: int, target_dim: int) -> Subspace:
    """{w : sum_b tensor[x][b][c] * w[b] = 0 for every x and c}."""
    rows = [[t[b][c] for b in range(dim)] for t in tensor for c in range(target_dim)]
    return kernel(Matrix.from_rows(rows, cols=dim))


def right_kernel(p: BilinearPairing) -> Subspace:
    """{w in gr^j : pairing(u, w) = 0 for all u} as a canonical subspace."""
    return _null_space(p.tensor, p.source_dims[1], p.target_dim)


def left_kernel(p: BilinearPairing) -> Subspace:
    """{w in gr^i : pairing(w, v) = 0 for all v} as a canonical subspace."""
    return _null_space(tuple(zip(*p.tensor)), p.source_dims[0], p.target_dim)


def change_basis(a: NilpotentAlgebra, m: Matrix) -> NilpotentAlgebra:
    """Structure constants in the basis whose i-th vector is row i of m
    expressed against the old basis."""
    n = a.dim
    if m.rows != n or m.cols != n:
        raise ValueError("change of basis matrix must be dim x dim")
    mi, ms = ik.scaled_int(m)
    vi, vs = ik.scaled_inverse(mi, ms)  # raises ValueError when singular
    t, cs, tmax = a.int_tensor()
    t64 = _flat_tensor64(a)
    mmax = ik.max_abs(mi)

    # With M = mi / ms and M^-1 = vi / vs, the new constants are
    # W[i, j, k] / (cs * ms^2 * vs), W = sum Mi[i, a] Mi[j, b] T[a, b, c] Vi[c, k],
    # taken as three flat products:
    # D[a, b, k] = sum_c T[a, b, c] * Vi[c, k]
    d = ik.exact_matmul((t if t64 is None else t64).reshape(n * n, n), vi,
                        tmax, ik.max_abs(vi), box=False)
    # X[j, a, k] = sum_b Mi[j, b] * D[a, b, k]
    d = d.reshape(n, n, n).transpose(1, 0, 2).reshape(n, n * n)
    x = ik.exact_matmul(mi, d, mmax, ik.max_abs(d), box=False)
    # W[i, j, k] = sum_a Mi[i, a] * X[j, a, k]
    x = x.reshape(n, n, n).transpose(1, 0, 2).reshape(n, n * n)
    w = ik.exact_matmul(mi, x, mmax, ik.max_abs(x), box=False)
    return NilpotentAlgebra._from_scaled(w.reshape(n, n, n), cs * ms * ms * vs)
