#!/usr/bin/env python3
"""Benchmark of lienil's pipeline, measured from outside the package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload roundtrip --seed 101 --seconds 30 --trace 0

The workloads are listed in BENCHMARK.json and built in workloads.py.
Each runs as a closed loop: one caller in one process sends the next
item only after the last one returned.  BLAS threads stay at their
default.

--trace 0 measures the end-to-end metrics.  wall_ref is the time to
finish the batch in reference units: each item's time is divided by
the time of a fixed reference loop (calibrate()) run just before and
after it, so that the machine's speed cancels out: on a shared
two-core virtual machine, other tenants' load moves it by 20-30%
within a minute.  Passes
over the same items repeat while --seconds allows (at least one), and
wall_ref sums each item's median over the passes.  setup_s is the median
of three set-ups (this process and two fresh interpreters, each paying
imports and input generation).  peak_rss_mib is the process's peak
resident memory.  --trace 1 runs one traced set-up and one traced pass
and reports the per-layer metrics; spans are written under
.bench_out/.  The last line of stdout is the result JSON; the line
before it holds machine facts and one row per item run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3


def use_checkout_source() -> None:
    """Import lienil from this checkout's src/, or exit 1."""
    if not (SRC / "lienil" / "__init__.py").is_file():
        sys.exit(f"error: no lienil package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lienil

    if SRC.resolve() not in Path(lienil.__file__).resolve().parents:
        sys.exit(f"error: lienil was imported from {lienil.__file__}, not {SRC}")


def timed_setup(workload: str, seed: int, workdir: Path):
    """(seconds, items): imports plus the workload's input generation."""
    start = time.perf_counter()
    use_checkout_source()
    import workloads

    items = workloads.WORKLOADS[workload](seed, workdir)
    return time.perf_counter() - start, items


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy already loaded, if any."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work lienil does:
    Fraction and Python-int arithmetic and small numpy products."""
    import numpy as np

    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(i % 97, i % 13 + 1)
    x = 0
    for i in range(150_000):
        x += i * i
    a = np.arange(3600, dtype=np.int64).reshape(60, 60) % 7
    for _ in range(15):
        a = a @ a % 7
    b = a[:30, :30].astype(object)
    for _ in range(3):
        b @ b
    return time.perf_counter() - start


def run_pass(items, rows: list, pass_no: int, tracer=None, reference=None) -> float:
    """Run every item once; returns the summed time of the timed calls.

    A wrong verdict and an exception both count as failures, and the
    batch goes on.  With a reference clock, each row also gets the
    item's time in reference units: its seconds over the mean of the
    reference timings taken just before and just after it.
    """
    total = 0.0
    first = len(rows)
    for item in items:
        ref = reference() if reference else None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = item.run()
            else:
                with tracer.span("harness.item"):
                    out = item.run()
        except Exception as exc:  # the batch continues; the row records it
            seconds = time.perf_counter() - start
            verdict = f"raised {type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - start
            try:
                verdict = item.verdict(out)
            except Exception as exc:
                verdict = f"unreadable output: {type(exc).__name__}: {exc}"
        total += seconds
        rows.append({"pass": pass_no, "item": item.name, "seed": item.seed,
                     "verdict": verdict, "expected": item.expected,
                     "ok": verdict == item.expected, "seconds": seconds, "ref_s": ref})
    if reference:
        refs = [r["ref_s"] for r in rows[first:]] + [reference()]
        for r, before, after in zip(rows[first:], refs, refs[1:]):
            r["ref_units"] = 2 * r["seconds"] / (before + after)
    return total


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list]:
    setup_s, items = timed_setup(workload, seed, workdir)
    samples = [setup_s] + [setup_in_fresh_interpreter(workload, seed)
                           for _ in range(SETUP_SAMPLES - 1)]
    rows: list = []
    started = time.perf_counter()
    while True:
        last = run_pass(items, rows, rows[-1]["pass"] + 1 if rows else 0, reference=calibrate)
        if time.perf_counter() - started + last > seconds:
            break
    per_item: dict[str, list[float]] = {}
    for r in rows:
        per_item.setdefault(r["item"], []).append(r["ref_units"])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_ref": (sum(statistics.median(v) for v in per_item.values()), "ref"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    return metrics, rows


def trace(workload: str, seed: int, workdir: Path) -> tuple[dict, list]:
    use_checkout_source()
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.span("harness.setup"):
            items = workloads.WORKLOADS[workload](seed, workdir)
        setup_s = time.perf_counter() - start
        rows: list = []
        wall_s = run_pass(items, rows, 0, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload}-{seed}.json")
    return tracer.layer_metrics(setup_s, wall_s), rows


def declared(section: str) -> list[str]:
    """Names of the workloads or metrics BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=declared("workloads"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            setup_s, _ = timed_setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, rows = trace(args.workload, args.seed, workdir)
            names = declared("per_layer")
        else:
            metrics, rows = measure(args.workload, args.seed, args.seconds, workdir)
            names = declared("end_to_end")

    failed = sum(not r["ok"] for r in rows)
    seconds: dict[str, list[float]] = {}
    for r in rows:
        seconds.setdefault(r["item"], []).append(r["seconds"])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_facts(),
        "passes": rows[-1]["pass"] + 1,
        "wall_s": sum(statistics.median(v) for v in seconds.values()),
        "items": rows,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
