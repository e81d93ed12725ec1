"""Per-layer timings and call counts for a traced run.

The program is not changed: ``Tracer.install`` replaces public functions of
its modules, at the names their callers look up, with wrappers that time
and count each call, and keeps the calls at layer boundaries as spans in
memory. ``Tracer.uninstall`` puts the originals back. Calls are counted
where the pipeline's modules make them (``trajest.exp_map`` is wrapped,
``synth``'s own reference is not).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

import numpy as np

from artikit import artmodel, evalkit, lie, pipeline, smoother, synth, trackio, trajest
from artikit.smoother import SmootherConfig
from artikit.trackio import Track3D

# (module, attribute, layer name, keep spans): timed and counted
TIMED = [
    (synth, "generate", "synth.generate", True),
    (trackio, "save_trackset", "trackio.save_trackset", True),
    (trackio, "load_trackset", "trackio.load_trackset", True),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", True),
    (pipeline, "process_segment", "pipeline.process_segment", True),
    (pipeline, "stage_filter", "pipeline.stage_filter", True),
    (pipeline, "to_world", "trackio.to_world", False),
    (pipeline, "stage_smooth", "pipeline.stage_smooth", True),
    (pipeline, "stage_estimate", "pipeline.stage_estimate", True),
    (pipeline, "build_correspondences", "trajest.build_correspondences", True),
    (pipeline, "fit_independent", "trajest.fit_independent", True),
    (pipeline, "fit_regularized", "trajest.fit_regularized", True),
    (pipeline, "build_articulation_estimate", "artmodel.build_articulation_estimate", True),
    (pipeline, "save_results", "pipeline.save_results", True),
    (evalkit, "evaluate", "evalkit.evaluate", True),
]
# (module, attribute, layer name): counted only, too frequent to time
COUNTED = [
    (pipeline, "smooth_track", "smoother.smooth_track"),
    (trajest, "register_rigid", "trajest.register_rigid"),
    (artmodel, "fit_twist_to_poses", "artmodel.fit_twist_to_poses"),
    (trajest, "exp_map", "lie.exp_map"),
    (artmodel, "exp_map", "lie.exp_map"),
    (trajest, "log_map", "lie.log_map"),
    (artmodel, "log_map", "lie.log_map"),
]


class Tracer:
    """Collects seconds and calls per layer, plus spans, across threads."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.non_converged = 0
        self.spans = []  # dicts: name, recording, thread, start, end, parent
        self.recording = None  # label of the recording being traced
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []
        self._t0 = time.perf_counter()

    def _timed(self, fn, name, keep_span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            if keep_span:
                span = {"name": name, "recording": self.recording,
                        "thread": threading.get_ident(), "parent": stack[-1] if stack else None}
                with self._lock:
                    span["id"] = len(self.spans)
                    self.spans.append(span)
                stack.append(span["id"])
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if keep_span:
                    stack.pop()
                    span["start"], span["end"] = start - self._t0, end - self._t0
                with self._lock:
                    self.seconds[name] += end - start
                    self.calls[name] += 1
            if name == "trajest.fit_regularized" and not out.converged:
                with self._lock:
                    self.non_converged += 1
            return out

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        for module, attr, name, keep_span in TIMED:
            self._replace(module, attr, self._timed(getattr(module, attr), name, keep_span))
        for module, attr, name in COUNTED:
            self._replace(module, attr, self._counted(getattr(module, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def layer_metrics(self, recordings: int, tracks_bytes: int) -> dict:
        """Per-recording layer metrics of the traced run plus the kernels'
        microseconds per call, as (value, unit) by name."""
        n = recordings
        out = {}
        for name in ("synth.generate", "trackio.save_trackset", "trackio.load_trackset",
                     "trackio.to_world", "pipeline.stage_filter", "pipeline.stage_smooth",
                     "pipeline.stage_estimate", "trajest.build_correspondences",
                     "trajest.fit_independent", "trajest.fit_regularized",
                     "artmodel.build_articulation_estimate", "pipeline.run_pipeline",
                     "pipeline.process_segment", "pipeline.save_results"):
            out[f"{name}_s"] = (self.seconds[name] / n, "s")
        out["trackio.tracks_file_mb"] = (tracks_bytes / n / 1e6, "MB")
        out["trajest.fit_regularized.non_converged"] = (self.non_converged / n, "count")
        for name in ("smoother.smooth_track", "trajest.register_rigid",
                     "artmodel.fit_twist_to_poses", "lie.exp_map", "lie.log_map"):
            out[f"{name}.calls"] = (self.calls[name] / n, "count")
        out.update(kernel_metrics())
        return out


def _per_call_us(fn, batch_s=0.01, batches=11) -> float:
    """Median microseconds per call over batches of about ``batch_s``."""
    n, t = 1, 0.0
    while t < batch_s:
        n *= 2
        start = time.perf_counter()
        for _ in range(n):
            fn()
        t = time.perf_counter() - start
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) / n * 1e6


def kernel_metrics() -> dict:
    """Microseconds per call of the kernels under the stages, on fixed inputs."""
    xi = lie.Twist(np.array([0.36, 0.48, 0.8]), np.array([0.3, -0.2, 0.1]))
    T = lie.exp_map(xi, 0.7)
    rng = np.random.default_rng(5)
    src = rng.uniform(-0.25, 0.25, (48, 3))
    dst = lie.apply(T, src) + rng.normal(0.0, 0.005, (48, 3))
    walk = np.cumsum(rng.normal(0.0, 0.01, (46, 3)), axis=0)
    track = Track3D(walk, rng.random(46) > 0.2)
    cfg = SmootherConfig()
    cases = {
        "lie.exp_map.us": lambda: lie.exp_map(xi, 0.7),
        "lie.log_map.us": lambda: lie.log_map(T),
        "trajest.register_rigid.us": lambda: trajest.register_rigid(src, dst),
        "smoother.smooth_track.us": lambda: smoother.smooth_track(track, cfg),
    }
    return {name: (_per_call_us(fn), "us") for name, fn in cases.items()}
