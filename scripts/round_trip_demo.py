#!/usr/bin/env python3
"""Scramble a nilradical behind a random unimodular basis change and
recover its simple type from the structure constants alone.

Shows the whole pipeline: build, obfuscate, a save and load of the
scrambled table through the file format, Jacobi check, lower central
series, associated graded, identify, and every graded pairing
gr^i x gr^j -> gr^{i+j} (i <= j, i + j <= class) with its right and
left kernels, with timings per stage and the number of residue primes
the Jacobi check used.  The load is timed
with the first int_tensor() call, which builds the integer tensor.  The series and the
graded algebra are timed on their own, and identify is handed the
graded algebra, so the identify time is the rest of identification.
The last line is the process's peak resident set size.

    PYTHONPATH=src python scripts/round_trip_demo.py E8 --seed 101
"""

import argparse
import os
import resource
import sys
import tempfile
import time

import numpy as np

from lienil.cli import load_algebra, save_algebra
from lienil.chevalley import jacobi_primes, nilradical, verify_jacobi
from lienil.exactlin import random_unimodular
from lienil.fingerprint import identify
from lienil.nilalg import (change_basis, graded, graded_pairing, left_kernel, lower_central_series,
                           right_kernel)
from lienil.rootsys import SimpleType, build_root_system


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("type", nargs="?", default="E6", help="simple type, e.g. B4")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    t = SimpleType.parse(args.type)
    t0 = time.perf_counter()
    a = nilradical(build_root_system(t))
    t1 = time.perf_counter()
    scrambled = change_basis(a, random_unimodular(a.dim, args.seed))
    t2 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scrambled.json")
        save_algebra(path, scrambled)
        ts = time.perf_counter()
        loaded = load_algebra(path)
        loaded.int_tensor()
        tl = time.perf_counter()
        size = os.path.getsize(path)
    assert loaded == scrambled, "the file does not read back as the scrambled table"
    tj = time.perf_counter()
    report = verify_jacobi(scrambled)
    t3 = time.perf_counter()
    series = lower_central_series(scrambled)
    t4 = time.perf_counter()
    g = graded(scrambled, series)
    t5 = time.perf_counter()
    ident = identify(g)
    t6 = time.perf_counter()
    cls = series.nilpotency_class
    pairs = [(i, j) for i in range(1, cls + 1) for j in range(i, cls - i + 1)]
    for i, j in pairs:
        p = graded_pairing(g, i, j)
        right_kernel(p), left_kernel(p)
    t7 = time.perf_counter()

    # Counted on the integer tensor: the Fraction table is never built.
    entries = np.count_nonzero(scrambled.int_tensor()[0]) // 2
    print(f"built {t} nilradical: dim {a.dim} ({t1 - t0:.3f}s)")
    print(f"scrambled with seed {args.seed}: {entries} nonzero terms ({t2 - t1:.3f}s)")
    print(f"file of {size} bytes: save {ts - t2:.3f}s, load + tensor {tl - ts:.3f}s")
    print(f"Jacobi {'holds' if report.ok else 'FAILS'} on {report.triples_checked} triples, "
          f"{len(jacobi_primes(scrambled))} residue primes ({t3 - tj:.3f}s)")
    print(f"lower central series: dims {series.dims} ({t4 - t3:.3f}s)")
    print(f"graded: dims {g.dims} ({t5 - t4:.3f}s)")
    print(f"identified: {ident.canonical}"
          + (f" (aliases: {', '.join(map(str, ident.aliases))})" if ident.aliases else "")
          + f" ({t6 - t5:.3f}s)")
    print(f"graded pairings: {len(pairs)}, each with both kernels ({t7 - t6:.3f}s)")
    assert ident == identify(a), "round trip disagrees with the canonical answer"
    print("matches the canonical identification")
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak RSS: {rss / (2**20 if sys.platform == 'darwin' else 2**10):.1f} MiB")


if __name__ == "__main__":
    main()
