"""The benchmark's workloads: seeded inputs, timed calls, oracles.

Each workload's set-up makes its inputs from the run seed and returns
the batch as a list of Items.  An item's ``run`` is the timed call into
lienil; its ``verdict`` turns the call's output into a short string
that must equal ``expected``.  Expected verdicts come from the type
that generated the input, from ``rootsys`` degree data and the
nilradical's own constants, or from exit codes fixed by hand for
inputs built to fail; they never come from re-running the code path
under test.

Calls go through module attributes (``nilalg.graded``, not a name
imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from lienil import chevalley, cli, exactlin, fingerprint, nilalg, rootsys


@dataclass(frozen=True)
class Item:
    name: str
    seed: int | None
    expected: str
    run: Callable[[], object]
    verdict: Callable[[object], str]


def item_seed(seed: int, workload: str, name: str) -> int:
    """Per-item seed drawn from the run seed; same seed, same inputs."""
    return random.Random(f"{workload}/{seed}/{name}").randrange(2**31)


def _simple(name: str):
    return rootsys.SimpleType.parse(name)


def _build(name: str) -> nilalg.NilpotentAlgebra:
    return chevalley.nilradical(rootsys.build_root_system(_simple(name)))


# --------------------------------------------------------------- roundtrip

# E8 is left out here and below: one E8 item takes 12-20 s, longer than
# a run can afford to spend on one input.  Each type is scrambled with
# three seeds, since one scramble's cost varies by about 20% between
# seeds.
ROUNDTRIP_TYPES = ("E6", "C7", "D8", "B8", "C8", "E7")
SCRAMBLES = 3

# Presentations that identify under another name (A1 = B1 = C1,
# B2 = C2, A3 = D3); any other type identifies as itself.
CANONICAL_NAME = {"B1": "A1", "C1": "A1", "C2": "B2", "D3": "A3"}


def _roundtrip_run(name: str, seed: int):
    a = _build(name)
    m = exactlin.random_unimodular(a.dim, seed)
    return fingerprint.identify(nilalg.change_basis(a, m))


def _identified(ident) -> str:
    return str(ident.canonical)


def roundtrip(seed: int, workdir: Path) -> list[Item]:
    """Library path: build, scramble, identify; no set-up beyond seeds."""
    items = []
    for name in ROUNDTRIP_TYPES:
        for k in range(SCRAMBLES):
            s = item_seed(seed, "roundtrip", f"{name}#{k}")
            items.append(Item(f"{name}#{k}", s, CANONICAL_NAME.get(name, name),
                              partial(_roundtrip_run, name, s), _identified))
    return items


# ------------------------------------------------------------ cli-identify

CLI_TYPES = ("C4", "B4", "A5", "D4")
REJECTION_BASE = "D4"
OBFUSCATIONS = 3

# Tables appended to a scrambled base as a direct sum, with the verdict
# each must get.  [x, y] = y is a Lie algebra that is not nilpotent, so
# the series falls back to its definition and stalls; the second table
# is antisymmetric but breaks Jacobi on its only triple:
# [[a,b],c] + [[b,c],a] + [[c,a],b] = c - b.
REJECTED = (
    ("solvable", {(0, 1): ((1, 1),)}, 2, "exit 1 not nilpotent"),
    ("nonjacobi", {(0, 1): ((1, 1),), (0, 2): ((1, 1),), (1, 2): ((2, 1),)}, 3,
     "exit 2 violations=1"),
)


def run_cli(*argv) -> tuple[int, str, str]:
    """cli.main with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(x) for x in argv])
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_ok(*argv) -> None:
    code, _, err = run_cli(*argv)
    if code != 0:
        raise RuntimeError(f"lienil {' '.join(map(str, argv))} exited {code}: {err.strip()}")


def _cli_verdict(result) -> str:
    code, out, err = result
    if code == 0:
        return f"exit 0 {json.loads(out)['canonical']}"
    message = err.strip().removeprefix("error: ")
    if code == 1:
        return f"exit 1 {message.split(':')[0]}"
    found = re.search(r"fails on (\d+) basis triples", message)
    if code == 2 and found:
        return f"exit 2 violations={found.group(1)}"
    return f"exit {code} {message}"


def _direct_sum(a: nilalg.NilpotentAlgebra, dim: int, table) -> nilalg.NilpotentAlgebra:
    n = a.dim
    constants = dict(a.constants)
    for (i, j), terms in table.items():
        constants[(n + i, n + j)] = tuple((n + k, Fraction(v)) for k, v in terms)
    return nilalg.NilpotentAlgebra(n + dim, constants)


def _write_scrambled(path: Path, name: str, seed: int) -> Path:
    """emit, then obfuscate OBFUSCATIONS times with seeds seed, seed+1, ..."""
    _cli_ok("emit", name[0], name[1:], "-o", path)
    for k in range(OBFUSCATIONS):
        _cli_ok("obfuscate", path, "--seed", seed + k, "-o", path)
    return path


def cli_identify(seed: int, workdir: Path) -> list[Item]:
    """CLI path: files written with emit + obfuscate, then identified.

    Every file is obfuscated three times, each from its own seed.  The
    Jacobi check's time grows about as the square of the number of
    nonzero constants and with their size; after one obfuscation it
    still varies about fivefold from seed to seed, after three by
    about 7% (coefficient of variation).
    """
    items = []
    for name in CLI_TYPES:
        s = item_seed(seed, "cli-identify", name)
        path = _write_scrambled(workdir / f"{name}.json", name, s)
        items.append(Item(name, s, f"exit 0 {name}", partial(run_cli, "identify", path),
                          _cli_verdict))
    for suffix, table, dim, expected in REJECTED:
        name = f"{REJECTION_BASE}+{suffix}"
        s = item_seed(seed, "cli-identify", name)
        path = _write_scrambled(workdir / f"{name}.json", REJECTION_BASE, s)
        base = cli.load_algebra(str(path))
        cli.save_algebra(str(path), _direct_sum(base, dim, table))
        items.append(Item(name, s, expected, partial(run_cli, "identify", path),
                          _cli_verdict))
    return items


# --------------------------------------------------------- graded-pairings

GRADED_CANONICAL = ("E7", "B8", "C8")
GRADED_PERTURBED = ("E6", "C6")


def _perturbed(g: nilalg.GradedAlgebra, rng: random.Random) -> nilalg.GradedAlgebra:
    """Each coset representative plus a random element of the next
    filtration term: the same cosets, other representatives."""
    f = g.filtration
    pieces = []
    for d, piece in enumerate(g.pieces, start=1):
        rows = []
        for row in piece.entries:
            new = list(row)
            for trow in f.terms[d].basis.entries:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                new = [x + c * y for x, y in zip(new, trow)]
            rows.append(tuple(new))
        pieces.append(exactlin.Matrix(tuple(rows), len(rows), g.algebra.dim))
    return nilalg.GradedAlgebra(g.algebra, f, tuple(pieces))


def _pairings(g: nilalg.GradedAlgebra):
    """Every pairing gr^i x gr^j -> gr^{i+j} (i <= j, i + j <= class)
    with its right and left kernels."""
    cls = g.filtration.nilpotency_class
    out = {}
    for i in range(1, cls + 1):
        for j in range(i, cls - i + 1):
            p = nilalg.graded_pairing(g, i, j)
            out[(i, j)] = (p.tensor, nilalg.right_kernel(p).dim, nilalg.left_kernel(p).dim)
    return g.dims, out


def _pairings_from_scratch(a: nilalg.NilpotentAlgebra):
    return _pairings(nilalg.graded(a))


def _pairing_oracle(name: str, a: nilalg.NilpotentAlgebra) -> tuple[str, Callable]:
    """Expected verdict and the verdict function for one type.

    Graded dims must be the degree histogram.  Against representatives
    of canonical cosets (basis vectors x_alpha, ordered by degree) the
    pairing tensors are the nilradical's constants
    [x_alpha, x_beta] = N x_{alpha+beta}; representative independence
    makes that the answer for perturbed representatives too.  The
    B/C discriminating kernel (gr^2 x gr^{2n-3}) is 0 for B_n and
    nontrivial for C_n.
    """
    t = _simple(name)
    rs = rootsys.build_root_system(t)
    hist = tuple(rootsys.degree_histogram(rs))
    by_degree = {d: [k for k, r in enumerate(rs.positive_roots) if r.degree == d]
                 for d in range(1, len(hist) + 1)}
    pairs = [(i, j) for i in range(1, len(hist) + 1) for j in range(i, len(hist) - i + 1)]
    disc = (2, 2 * t.rank - 3) if t.family in ("B", "C") else None

    def coef(x: int, y: int, z: int):
        terms = a.constants.get((min(x, y), max(x, y)), ())
        v = next((v for k, v in terms if k == z), 0)
        return v if x < y else -v

    def verdict(result) -> str:
        dims, pairings = result
        equal = 0
        for (i, j), (tensor, _, _) in pairings.items():
            want = tuple(tuple(tuple(coef(x, y, z) for z in by_degree[i + j])
                               for y in by_degree[j]) for x in by_degree[i])
            equal += tensor == want
        text = f"dims={list(dims)} tensors={equal}/{len(pairings)}"
        if disc:
            ker = pairings[disc][1] if disc in pairings else None
            text += f" ker{disc}=" + ("none" if ker is None else "0" if ker == 0 else ">=1")
        return text

    expected = f"dims={list(hist)} tensors={len(pairs)}/{len(pairs)}"
    if disc:
        expected += f" ker{disc}=" + ("0" if t.family == "B" else ">=1")
    return expected, verdict


def graded_pairings(seed: int, workdir: Path) -> list[Item]:
    """All graded pairings and kernels: canonical E7, B8, C8 from
    scratch, E6 and C6 on seeded perturbed representatives."""
    items = []
    for name in GRADED_CANONICAL:
        a = _build(name)
        expected, verdict = _pairing_oracle(name, a)
        items.append(Item(name, None, expected,
                          partial(_pairings_from_scratch, a), verdict))
    for name in GRADED_PERTURBED:
        a = _build(name)
        s = item_seed(seed, "graded-pairings", name)
        g = _perturbed(nilalg.graded(a), random.Random(s))
        expected, verdict = _pairing_oracle(name, a)
        items.append(Item(f"{name}~perturbed", s, expected,
                          partial(_pairings, g), verdict))
    return items


WORKLOADS: dict[str, Callable[[int, Path], list[Item]]] = {
    "roundtrip": roundtrip,
    "cli-identify": cli_identify,
    "graded-pairings": graded_pairings,
}
