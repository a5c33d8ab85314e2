"""Graded pairings by the augmented reduction lienil first used.

For the degree-k representatives reps / s and the canonical basis of
N^{k+1}, the rows [reps | s * I] and [tail | 0] are reduced once per
target degree; the residual of [w | 0] against them is then
[0 | -d * coordinates] when the bracket row w lies in N^k, and nonzero
on the first n columns otherwise.  lienil.nilalg.graded_pairing reads
the same coordinates off the filtration's canonical rows instead, with
no reduction, and must give the same tensor and kernels.
"""

import numpy as np

from lienil import _intkernel as ik
from lienil.nilalg import BilinearPairing, GradedAlgebra


def target_rref(g: GradedAlgebra, k: int) -> ik.ScaledRref:
    """Row space of [s * target_r | s * e_r] and [tail_t | 0]."""
    n = g.algebra.dim
    target, s = g.scaled_piece(k)
    rrefs = g.filtration.rrefs
    tail = rrefs[k].nums if k < len(rrefs) else np.zeros((0, n), dtype=object)
    dt = target.shape[0]
    reps = np.vstack([target, tail]).astype(object)
    return ik.rref_from_rows(np.hstack([reps, s * np.eye(reps.shape[0], dt, dtype=object)]), n + dt)


def augmented_pairing(g: GradedAlgebra, i: int, j: int) -> BilinearPairing:
    """graded_pairing(g, i, j), every bracket reduced against target_rref."""
    a = g.algebra
    n = a.dim
    ui, us = g.scaled_piece(i)
    vi, vs = g.scaled_piece(j)
    e = target_rref(g, i + j)
    du, dv, dt = ui.shape[0], vi.shape[0], e.ambient - n
    t, cs, tmax = a.int_tensor()
    x = ik.exact_matmul(ui, t.reshape(n, n * n), ik.max_abs(ui), tmax)
    x = x.reshape(du, n, n).transpose(0, 2, 1).reshape(du * n, n)
    w = ik.exact_matmul(x, vi.T).reshape(du, n, dv).transpose(0, 2, 1).reshape(du * dv, n)
    res = e.residuals(np.hstack([w, np.zeros((du * dv, dt), dtype=object)]))
    if res[:, :n].any():
        raise AssertionError("bracket left the expected filtration level")
    coords = -res[:, n:].reshape(du, dv, dt)
    return BilinearPairing(i, j, (du, dv), dt, coords, e.den * cs * us * vs)
