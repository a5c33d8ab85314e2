"""Tests of the benchmark itself, on batches shrunk to small types.

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py
"""

import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import tracer  # noqa: E402
import workloads  # noqa: E402
from lienil import nilalg  # noqa: E402

COUNTS = (
    "intkernel.exact_matmul.calls",
    "intkernel.exact_matmul.madds",
    "intkernel.exact_matmul.max_bound_bits",
    "intkernel.ScaledRref.insert.calls",
    "intkernel.ScaledRref.insert.useful_ratio",
    "intkernel.ScaledRref.insert_rows.added_ratio",
    "nilalg.graded_pairing.calls",
    "nilalg.bracket.calls",
    "chevalley.verify_jacobi.triples",
    "fingerprint.bc_discriminator.calls",
)


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Every workload on small types, spans written under tmp_path."""
    monkeypatch.setattr(workloads, "ROUNDTRIP_TYPES", ("B4", "C4", "D4"))
    monkeypatch.setattr(workloads, "SCRAMBLES", 1)
    monkeypatch.setattr(workloads, "CLI_TYPES", ("C3", "A3"))
    monkeypatch.setattr(workloads, "REJECTION_BASE", "A3")
    monkeypatch.setattr(workloads, "GRADED_CANONICAL", ("B4", "C4"))
    monkeypatch.setattr(workloads, "GRADED_PERTURBED", ("C3",))
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


def _failed(items) -> int:
    rows: list = []
    run.run_pass(items, rows, 0)
    assert len(rows) == len(items)  # the batch went on after each failure
    return sum(not r["ok"] for r in rows)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_small_batches_pass(small, workload):
    items = workloads.WORKLOADS[workload](101, small)
    assert _failed(items) == 0


def test_wrong_verdict_counts_as_failure(small):
    items = workloads.roundtrip(7, small)
    wrong = workloads.Item(items[0].name, items[0].seed, "C4", items[0].run, items[0].verdict)
    assert items[0].expected == "B4" and items[0].name == "B4#0"
    assert _failed([wrong] + items[1:]) == 1


def test_wrong_exit_code_counts_as_failure(small):
    items = workloads.cli_identify(7, small)
    rejected = items[-1]
    assert rejected.expected == "exit 2 violations=1"
    wrong = workloads.Item(rejected.name, rejected.seed, "exit 1 not nilpotent",
                           rejected.run, rejected.verdict)
    assert _failed(items[:-1] + [wrong]) == 1


def test_exception_counts_as_failure(small, monkeypatch):
    items = workloads.graded_pairings(7, small)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(nilalg, "left_kernel", broken)
    rows: list = []
    run.run_pass(items, rows, 0)
    assert [r["ok"] for r in rows] == [False] * len(items)
    assert rows[0]["verdict"] == "raised RuntimeError: injected"


def test_same_seed_same_inputs(small):
    for build in workloads.WORKLOADS.values():
        first = [(i.name, i.seed, i.expected) for i in build(5, small)]
        assert first == [(i.name, i.seed, i.expected) for i in build(5, small)]
    seeds = [i.seed for i in workloads.roundtrip(5, small)]
    assert seeds != [i.seed for i in workloads.roundtrip(6, small)]


def test_untraced_run_reports_time_in_reference_units(small):
    metrics, rows = run.measure("roundtrip", 3, 0, small)
    assert {r["pass"] for r in rows} == {0} and all(r["ok"] for r in rows)
    assert all(r["ref_units"] > 0 for r in rows)
    assert metrics["wall_ref"][0] == pytest.approx(sum(r["ref_units"] for r in rows))
    assert metrics["setup_s"][0] > 0 and metrics["peak_rss_mib"][0] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_spans_cover_the_wall(small, workload):
    first, rows = run.trace(workload, 3, small)
    second, _ = run.trace(workload, 3, small)
    assert all(r["ok"] for r in rows)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["intkernel.exact_matmul.calls"][0] > 0
    assert 0.9 <= first["trace.coverage"][0] <= 1.1
    assert (run.OUT / f"spans-{workload}-3.json").is_file()


def test_tracer_wraps_every_binding_and_restores_it():
    from lienil import fingerprint

    before = (nilalg.lower_central_series, fingerprint.lower_central_series,
              nilalg.NilpotentAlgebra.__dict__["__init__"])
    t = tracer.Tracer()
    t.install()
    try:
        assert fingerprint.lower_central_series is nilalg.lower_central_series
        assert fingerprint.lower_central_series is not before[0]
        nilalg.NilpotentAlgebra(2, {(0, 1): ((1, 1),)})
    finally:
        t.uninstall()
    assert (nilalg.lower_central_series, fingerprint.lower_central_series,
            nilalg.NilpotentAlgebra.__dict__["__init__"]) == before
    assert t.counters["nilalg.NilpotentAlgebra.init"]["calls"] == 1


def test_declared_metrics_match_what_the_runs_report(small):
    traced, _ = run.trace("roundtrip", 3, small)
    assert set(run.declared("per_layer")) <= set(traced)
    assert set(run.declared("end_to_end")) == {"wall_ref", "setup_s", "peak_rss_mib"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
