"""Command-line surface: build, inspect, serialize, scramble, and
identify nilradicals, and report the claims that lienil.claims checks.

Interchange is a small JSON schema (format_version 1) storing the
upper-triangular bracket table with lowest-term integer fractions, so
exactness survives serialization.  Exit codes are uniform across
subcommands: 0 success, 1 semantic rejection (not nilpotent, no type
matches, failed claims), 2 malformed input (bad arguments, unreadable
or invalid files, unwritable output paths, Jacobi violations, rank
bound exceeded, a dim above every nilradical within the rank bound,
constants too large for the residue primes).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from functools import cache
from itertools import groupby

from ._intkernel import PrimesExhausted
from .chevalley import nilradical, verify_jacobi
from .claims import run_claims
from .exactlin import random_unimodular
from .fingerprint import (
    DEFAULT_MAX_RANK,
    UnrecognizedAlgebraError,
    fingerprint,
    identify,
    simple_dimension,
)
from .nilalg import (
    NilpotentAlgebra,
    NotNilpotentError,
    change_basis,
    graded,
    lower_central_series,
)
from .rootsys import (
    SimpleType,
    all_types,
    build_root_system,
    degree_histogram,
)

FORMAT_VERSION = 1
ENV_MAX_RANK = "LIENIL_MAX_RANK"
MAX_TENSOR_BYTES = 2**30  # the dense dim^3 structure tensor: dim <= 512


class CliError(Exception):
    """Carries the exit code and message for a failed subcommand."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class AlgebraFileError(Exception):
    """The file does not satisfy the interchange schema."""


# ------------------------------------------------------------ serialization


def algebra_to_payload(a: NilpotentAlgebra, metadata: dict | None = None) -> dict:
    brackets = [{"i": i, "j": j, "terms": [{"k": k, "num": p, "den": q} for _, _, k, p, q in run]}
                for (i, j), run in groupby(a._nonzero_terms(), lambda t: t[:2])]
    payload = {"format_version": FORMAT_VERSION, "dim": a.dim, "brackets": brackets}
    if metadata is not None:
        payload["metadata"] = metadata
    return payload


def _require(cond: bool, message: str) -> None:
    """Raise AlgebraFileError(message) unless cond."""
    if not cond:
        raise AlgebraFileError(message)


def algebra_from_payload(payload) -> NilpotentAlgebra:
    """The algebra of a schema-checked payload, read as integers.  The
    checks of each bracket and term, thousands in a large file, are
    inline statements rather than calls."""
    _require(isinstance(payload, dict), "top level must be a JSON object")
    _require(set(payload) <= {"format_version", "dim", "brackets", "metadata"},
             "unknown top-level keys")
    _require(payload.get("format_version") == FORMAT_VERSION,
             f"format_version must be {FORMAT_VERSION}")
    dim = payload.get("dim")
    _require(type(dim) is int and dim >= 1, "dim must be a positive integer")
    brackets = payload.get("brackets")
    _require(isinstance(brackets, list), "brackets must be a list")
    terms, pairs = [], set()
    for entry in brackets:
        if not (isinstance(entry, dict) and entry.keys() == {"i", "j", "terms"}):
            raise AlgebraFileError("each bracket needs exactly the keys i, j, terms")
        i, j, entry_terms = entry["i"], entry["j"], entry["terms"]
        if not (type(i) is int and 0 <= i < dim):
            raise AlgebraFileError(f"i must be an integer in [0, {dim})")
        if not (type(j) is int and 0 <= j < dim):
            raise AlgebraFileError(f"j must be an integer in [0, {dim})")
        if i >= j:
            raise AlgebraFileError("brackets must be upper-triangular (i < j)")
        if (i, j) in pairs:
            raise AlgebraFileError(f"duplicate bracket ({i}, {j})")
        pairs.add((i, j))
        if not (isinstance(entry_terms, list) and entry_terms):
            raise AlgebraFileError("terms must be a nonempty list")
        seen = set()
        for term in entry_terms:
            if not (isinstance(term, dict) and term.keys() == {"k", "num", "den"}):
                raise AlgebraFileError("each term needs exactly the keys k, num, den")
            k, num, den = term["k"], term["num"], term["den"]
            if not (type(k) is int and 0 <= k < dim):
                raise AlgebraFileError(f"k must be an integer in [0, {dim})")
            if k in seen:
                raise AlgebraFileError(f"duplicate output index {k} in bracket ({i}, {j})")
            seen.add(k)
            if type(num) is not int or type(den) is not int:
                raise AlgebraFileError("num and den must be integers")
            if not num:
                raise AlgebraFileError("zero terms must be omitted")
            if den < 1:
                raise AlgebraFileError("den must be positive")
            if den != 1 and math.gcd(num, den) != 1:
                raise AlgebraFileError("fractions must be in lowest terms")
            terms.extend((i, j, k, num, den))
    return NilpotentAlgebra._from_terms(dim, terms)


def save_algebra(path: str, a: NilpotentAlgebra, metadata: dict | None = None) -> None:
    """Write a to path atomically: a temporary file in the same directory
    replaces path only once it is complete, so rewriting a file in place
    never leaves it truncated.  The file is compact JSON: without indent,
    json.dumps runs its C encoder."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(algebra_to_payload(a, metadata), sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_algebra(path: str) -> NilpotentAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise AlgebraFileError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise AlgebraFileError(f"{path} nests JSON too deeply to read") from None
    except ValueError:  # json's one other error: an integer past Python's limit on digits
        raise AlgebraFileError(f"{path} holds an integer of more than "
                               f"{sys.get_int_max_str_digits()} digits") from None
    return algebra_from_payload(payload)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------------ helpers


def _rank_bound() -> int:
    raw = os.environ.get(ENV_MAX_RANK)
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        bound = int(raw)
    except ValueError:
        raise CliError(2, f"{ENV_MAX_RANK} must be an integer, got {raw!r}") from None
    if bound < 1:
        raise CliError(2, f"{ENV_MAX_RANK} must be at least 1")
    return bound


def _parse_type(family: str, rank: int, bound: int) -> SimpleType:
    try:
        t = SimpleType(family.strip().upper(), rank)
    except ValueError as exc:
        raise CliError(2, str(exc)) from None
    if not t.is_valid():
        raise CliError(2, f"no simple algebra of type {t}")
    if t.rank > bound:
        raise CliError(2, f"rank {t.rank} exceeds the bound {bound} "
                          f"(set {ENV_MAX_RANK} to raise it)")
    return t


def _largest_nilradical_dim(bound: int) -> int:
    """Largest nilradical dimension among the types of rank <= bound.

    Past rank 8 only the classical families remain, and B_r (= C_r, r^2
    positive roots) tops them at r = bound, so no more types are listed.
    """
    types = all_types(min(bound, 8))
    if bound > 8:
        types.append(SimpleType("B", bound))
    return max((simple_dimension(t) - t.rank) // 2 for t in types)


def _load_within_bound(path: str, bound: int) -> NilpotentAlgebra:
    """Load a file whose dim is at most the largest nilradical dimension
    within the rank bound and whose dim^3 tensor of 8-byte entries fits
    in MAX_TENSOR_BYTES; both checks run before it is allocated."""
    try:
        a = load_algebra(path)
    except AlgebraFileError as exc:
        raise CliError(2, str(exc)) from None
    except (ValueError, TypeError) as exc:
        raise CliError(2, f"invalid algebra data: {exc}") from None
    largest = _largest_nilradical_dim(bound)
    if a.dim > largest:
        raise CliError(2, f"dim {a.dim} exceeds {largest}, the largest nilradical of "
                          f"rank at most {bound} (set {ENV_MAX_RANK} to raise the bound)")
    if a.dim ** 3 * 8 > MAX_TENSOR_BYTES:
        raise CliError(2, f"dim {a.dim} needs a dense structure tensor of {a.dim ** 3 * 8} "
                          f"bytes, above the limit of {MAX_TENSOR_BYTES}")
    return a


def _save(path: str, a: NilpotentAlgebra, metadata: dict) -> None:
    """save_algebra, with an unwritable path reported as exit 2."""
    try:
        save_algebra(path, a, metadata)
    except OSError as exc:
        raise CliError(2, f"cannot write {path}: {exc}") from None


# -------------------------------------------------------------- subcommands


def cmd_table(args) -> int:
    bound = _rank_bound()
    if args.max_rank < 1 or args.max_rank > bound:
        raise CliError(2, f"--max-rank must be between 1 and {bound}")
    rows = [
        {
            "type": str(t),
            "family": t.family,
            "rank": t.rank,
            "dimension": simple_dimension(t),
            "nilradical_dim": (simple_dimension(t) - t.rank) // 2,
        }
        for t in all_types(args.max_rank)
    ]
    if args.format == "json":
        print(_json({"max_rank": args.max_rank, "rows": rows}), end="")
    else:
        print(f"{'type':<6}{'rank':>6}{'dim':>8}{'dim nil':>9}")
        for r in rows:
            print(f"{r['type']:<6}{r['rank']:>6}{r['dimension']:>8}{r['nilradical_dim']:>9}")
    return 0


def cmd_roots(args) -> int:
    t = _parse_type(args.family, args.rank, _rank_bound())
    rs = build_root_system(t)
    roots = [{"coeffs": list(r.coeffs), "degree": r.degree} for r in rs.positive_roots]
    if args.format == "json":
        print(_json({
            "type": str(t),
            "rank": t.rank,
            "count": len(roots),
            "degree_histogram": degree_histogram(rs),
            "roots": roots,
        }), end="")
    else:
        print(f"{t}: {len(roots)} positive roots")
        for r in roots:
            coeffs = " ".join(f"{c:>2}" for c in r["coeffs"])
            print(f"  [{coeffs}]  degree {r['degree']}")
    return 0


def cmd_invariants(args) -> int:
    bound = _rank_bound()
    t = _parse_type(args.family, args.rank, bound)
    rs = build_root_system(t)
    a = nilradical(rs)
    g = graded(a)
    fp = fingerprint(g)
    ident = identify(g, max_rank=bound)
    print(_json({
        "type": str(t),
        "nilradical_dim": a.dim,
        "rank": fp.rank,
        "simple_dim": fp.simple_dim,
        "nilpotency_class": fp.nilpotency_class,
        "lcs_dims": list(g.filtration.dims),
        "graded_dims": list(fp.graded_dims),
        "degree_histogram": degree_histogram(rs),
        "identification": {
            "canonical": str(ident.canonical),
            "aliases": [str(x) for x in ident.aliases],
        },
    }), end="")
    return 0


def cmd_emit(args) -> int:
    t = _parse_type(args.family, args.rank, _rank_bound())
    a = nilradical(build_root_system(t))
    _save(args.out, a, {"type": str(t)})
    print(f"wrote {t} nilradical (dim {a.dim}) to {args.out}")
    return 0


def cmd_obfuscate(args) -> int:
    a = _load_within_bound(args.file, _rank_bound())
    try:
        lower_central_series(a)
    except NotNilpotentError as exc:
        raise CliError(1, f"input is not nilpotent: {exc}") from None
    b = change_basis(a, random_unimodular(a.dim, args.seed))
    _save(args.out, b, {"seed": args.seed})
    print(f"wrote obfuscated algebra (dim {b.dim}, seed {args.seed}) to {args.out}")
    return 0


def cmd_identify(args) -> int:
    bound = _rank_bound()
    a = _load_within_bound(args.file, bound)
    report = verify_jacobi(a)
    if not report.ok:
        first = ", ".join(str(v) for v in report.violations[:3])
        raise CliError(2, f"Jacobi identity fails on {len(report.violations)} "
                          f"basis triples (first: {first})")
    try:
        g = graded(a)
        ident = identify(g, max_rank=bound)
    except NotNilpotentError as exc:
        raise CliError(1, f"not nilpotent: {exc}") from None
    except UnrecognizedAlgebraError as exc:
        raise CliError(1, f"unrecognized: {exc}") from None
    fp = fingerprint(g)
    t = ident.canonical
    print(_json({
        "canonical": str(t),
        "aliases": [str(x) for x in ident.aliases],
        "fingerprint": {
            "rank": fp.rank,
            "nil_dim": fp.nil_dim,
            "simple_dim": fp.simple_dim,
            "nilpotency_class": fp.nilpotency_class,
            "graded_dims": list(fp.graded_dims),
            "bc_family": t.family if t.family in ("B", "C") and t.rank >= 3 else None,
        },
    }), end="")
    return 0


def cmd_verify_claims(args) -> int:
    bound = _rank_bound()
    if args.max_rank < 1 or args.max_rank > bound:
        raise CliError(2, f"--max-rank must be between 1 and {bound}")
    results = run_claims(args.max_rank)
    width = max(len(r.claim_id) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.claim_id:<{width}}  {r.witness}")
    failed = sum(1 for r in results if not r.ok)
    print(f"{len(results) - failed}/{len(results)} claims passed (max rank {args.max_rank})")
    return 0 if failed == 0 else 1


# --------------------------------------------------------------- entrypoint


@cache  # built on the first main() call, never at import
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lienil",
        description="Nilradicals of Borel subalgebras: construction, graded "
                    "invariants, and simple-type identification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="rank/dimension table of the simple algebras")
    t.add_argument("--max-rank", type=int, default=8)
    t.add_argument("--format", choices=("text", "json"), default="text")
    t.set_defaults(func=cmd_table)

    r = sub.add_parser("roots", help="positive roots of one simple type")
    r.add_argument("family")
    r.add_argument("rank", type=int)
    r.add_argument("--format", choices=("text", "json"), default="text")
    r.set_defaults(func=cmd_roots)

    i = sub.add_parser("invariants", help="graded invariants of one nilradical")
    i.add_argument("family")
    i.add_argument("rank", type=int)
    i.set_defaults(func=cmd_invariants)

    e = sub.add_parser("emit", help="write a nilradical to an algebra file")
    e.add_argument("family")
    e.add_argument("rank", type=int)
    e.add_argument("-o", "--out", required=True)
    e.set_defaults(func=cmd_emit)

    o = sub.add_parser("obfuscate", help="rewrite an algebra file in a scrambled basis")
    o.add_argument("file")
    o.add_argument("--seed", type=int, required=True)
    o.add_argument("-o", "--out", required=True)
    o.set_defaults(func=cmd_obfuscate)

    d = sub.add_parser("identify", help="name the simple type behind an algebra file")
    d.add_argument("file")
    d.set_defaults(func=cmd_identify)

    v = sub.add_parser("verify-claims", help="check the library's guarantees")
    v.add_argument("--max-rank", type=int, default=8)
    v.set_defaults(func=cmd_verify_claims)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PrimesExhausted as exc:
        print(f"error: structure constants too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
