"""The benchmark's tracer wraps program functions by name: every name it
looks up must exist, and uninstalling must put each original back."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_hooked_name_and_restores_it():
    tracing = load_tracing()
    hooks = [(module, attr) for module, attr, *_ in tracing.TIMED + tracing.COUNTED]
    originals = {hook: getattr(*hook) for hook in hooks}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [hook for hook in hooks if getattr(*hook) is not originals[hook]]
    finally:
        tracer.uninstall()
    assert wrapped == hooks
    assert [hook for hook in hooks if getattr(*hook) is not originals[hook]] == []
