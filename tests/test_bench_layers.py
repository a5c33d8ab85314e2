"""The benchmark's tracer wraps lienil functions by name: each of its
LAYERS must still resolve, or only the traced benchmark runs break."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("lienil_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr in tracer.LAYERS:
        owner = importlib.import_module(f"lienil.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # The tracer replaces owner.__dict__[leaf], so the name must be
        # bound on the owner itself, not inherited.
        if owner is None or not callable(vars(owner).get(leaf)):
            missing.append(f"{module}.{attr}")
    assert tracer.LAYERS and not missing
