"""The benchmark's span tracer must still find every function it traces.

``bench/run.py --trace 1`` installs ``bench/spans.Tracer``, which raises if
a function named in ``TRACED`` is bound nowhere. This test keeps a deletion
or rename in ``src/`` from breaking the traced bench while tier-1 passes.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_function_and_restores_it():
    spans = load_spans()
    originals = {
        (mod, fn): getattr(importlib.import_module(f"bevprobe.{mod}"), fn)
        for mod, fn, _counter in spans.TRACED
    }
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (mod, fn), original in originals.items():
            assert getattr(importlib.import_module(f"bevprobe.{mod}"), fn) is not original, (
                f"bevprobe.{mod}.{fn} was not wrapped"
            )
    finally:
        tracer.uninstall()
    for (mod, fn), original in originals.items():
        assert getattr(importlib.import_module(f"bevprobe.{mod}"), fn) is original
