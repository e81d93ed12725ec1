"""The benchmark's tracer wraps program functions by name: every name it
looks up must exist, and uninstalling must put each original back."""

import importlib.util
import math
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


def test_kernel_probe_returns_its_four_timings():
    """The benchmark's kernel probe runs the scalar-pose calls (a one-row
    ``exp_map``, ``apply`` and ``log_map`` of its row, ``register_rigid``)
    and the smoother, each to a finite positive time per call."""
    metrics = load_tracing().kernel_metrics()
    names = ["lie.exp_map.us", "lie.log_map.us", "trajest.register_rigid.us", "smoother.smooth_track.us"]
    assert sorted(metrics) == sorted(names)
    for value, unit in metrics.values():
        assert unit == "us" and math.isfinite(value) and value > 0
