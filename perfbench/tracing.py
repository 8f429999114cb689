"""In-memory span tracer installed from outside the package.

The tracer wraps the public names that ``pipeline.run`` and
``tracker.acquire``/``tracker.track_step`` look up in their module
namespaces, plus ``Scene.nearest_hit``. Each call records one span
(name, start, end, parent, op id). Self times and counts are derived
from the spans after the run; nothing is written while an op runs.

``geom`` helpers are not wrapped: their cost is counted in the self time
of whichever layer calls them.
"""

from __future__ import annotations

import functools
import json
import time

perf = time.perf_counter

# (module attribute, function name) -> span name. The module attribute is
# resolved against the modules passed to ``Tracer.install``.
WRAPPED = [
    ("pipeline", "load_scenario", "pipeline.load"),
    ("pipeline", "parse_scenario", "pipeline.load"),
    ("pipeline", "run", "pipeline.run"),
    ("pipeline", "compute_metrics", "pipeline.report"),
    ("pipeline", "record_to_csv", "pipeline.report"),
    ("pipeline", "export", "pipeline.report"),
    ("pipeline", "simulate_full_scan", "scan_sim.full_scan"),
    ("pipeline", "simulate_vibration_frame", "scan_sim.vibration_frame"),
    ("pipeline", "observe_vds", "scan_sim.observe"),
    ("pipeline", "observe_ego_direction", "scan_sim.observe"),
    ("pipeline", "acquire", "tracker.acquire"),
    ("pipeline", "track_step", "tracker.track_step"),
    ("pipeline", "match_vds", "vp_rot.match"),
    ("pipeline", "estimate_rotation", "vp_rot.estimate"),
    ("pipeline", "filter_rotation", "vp_rot.filter"),
    ("pipeline", "accumulate_motion", "vp_rot.motion"),
    ("pipeline", "correct_rotation", "vp_rot.motion"),
    ("tracker", "project", "depth_image.project"),
    ("tracker", "detect", "detector.detect"),
    ("tracker", "mean_shift_refine", "tracker.mean_shift"),
]

ROOT = "bench.op"

# Every span name, in report order. Their self times sum to the root
# span's duration.
SPAN_NAMES = [
    "scan_sim.full_scan", "scan_sim.vibration_frame", "scan_sim.nearest_hit",
    "scan_sim.observe", "depth_image.project", "detector.detect",
    "tracker.acquire", "tracker.track_step", "tracker.mean_shift",
    "vp_rot.match", "vp_rot.estimate", "vp_rot.filter", "vp_rot.motion",
    "pipeline.load", "pipeline.run", "pipeline.report", ROOT,
]

class Tracer:
    """Records spans for ops run between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.stack = []        # indices of open spans
        self.op_id = -1
        self.counts = {}       # counter name -> total over all ops
        self.pending = []      # (counter, thunk) evaluated after the op
        self._saved = []

    # -- recording ---------------------------------------------------
    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), 0.0, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = perf()

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def innermost(self, prefix):
        for idx in reversed(self.stack):
            if self.spans[idx][0].startswith(prefix):
                return self.spans[idx][0]
        return None

    def op(self, fn, *args):
        """Run ``fn(*args)`` as one op under a root span."""
        self.op_id += 1
        self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close()
            # Counts that cost real work are taken after the root span closes.
            for name, thunk in self.pending:
                self.count(name, thunk())
            self.pending.clear()

    def _span(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close()
                if hook is not None:
                    hook(args, None, exc)
                raise
            self._close()
            if hook is not None:
                hook(args, out, None)
            return out
        return wrapper

    # -- counters at layer boundaries ----------------------------------
    def _hook_for(self, span):
        if span in ("scan_sim.full_scan", "scan_sim.vibration_frame"):
            def hook(args, out, exc):
                if out is not None:
                    self.count("scan_sim.returns", len(out))
            return hook
        if span == "detector.detect":
            def hook(args, out, exc):
                data = args[0].data
                self.pending.append(("detector.candidates",
                                     lambda: int((data != 0.0).sum())))
            return hook
        if span == "tracker.mean_shift":
            def hook(args, out, exc):
                self.count("tracker.mean_shift.calls")
            return hook
        if span == "tracker.track_step":
            def hook(args, out, exc):
                if out is not None and out.misses > 0:
                    self.count("tracker.misses")
            return hook
        if span == "vp_rot.match":
            def hook(args, out, exc):
                if exc is not None and type(exc).__name__ == "AmbiguousMatchError":
                    self.count("vp_rot.ambiguous")
            return hook
        return None

    def install(self, modules, scene_cls):
        """Patch the wrapped names; ``modules`` maps 'pipeline'/'tracker' to modules."""
        for mod_key, attr, span in WRAPPED:
            mod = modules[mod_key]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._span(span, orig, self._hook_for(span)))

        orig_hit = scene_cls.nearest_hit
        tracer = self

        def nearest_hit(scene, origins, *args, **kwargs):
            parent = tracer.innermost("scan_sim.") or "scan_sim.other"
            tracer.count(parent + ".rays", len(origins))
            return span_hit(scene, origins, *args, **kwargs)

        span_hit = self._span("scan_sim.nearest_hit", orig_hit)
        self._saved.append((scene_cls, "nearest_hit", orig_hit))
        scene_cls.nearest_hit = nearest_hit

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- derived numbers -----------------------------------------------
    def self_times(self):
        """Per op: span name -> self time (duration minus child coverage)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_op = {}
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            acc = per_op.setdefault(op_id, {})
            acc[name] = acc.get(name, 0.0) + (end - start) - child[i]
        return per_op

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
