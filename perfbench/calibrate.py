"""Machine-speed probe used to normalise the benchmark's timings.

On a shared virtual machine the CPU throughput available to one process
swings by 1.5-2x in phases that last from seconds to minutes, and a
wall-time metric follows it. ``probe()`` times a fixed kernel that does
not touch ``dronepose``: vectorised ray-sphere arithmetic on a few
thousand rays (the shape of the simulator's hot loop) and a pure-Python
loop. The benchmark runs it between ops and scales each op's timings by
``NOMINAL_S / probe time``, i.e. reports them at the speed the machine
had when the kernel took ``NOMINAL_S``. Raw timings are kept in the run
report next to the normalised ones.

The kernel is fixed: changing it, or ``NOMINAL_S``, changes every
normalised timing, so it is part of the benchmark definition.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

perf = time.perf_counter

# Median probe time on a 2-vCPU Intel Xeon virtual machine (x86-64 Linux,
# Python 3.11, numpy 2.4) in a fast phase.
NOMINAL_S = 0.015
REPEATS = 3

_rng = np.random.default_rng(20201113)
_ORIGINS = _rng.normal(size=(20000, 3))
_DIRS = _rng.normal(size=(20000, 3))
_DIRS /= np.linalg.norm(_DIRS, axis=1)[:, None]
_CENTERS = _rng.normal(scale=5.0, size=(24, 3))
_RADII = _rng.uniform(0.2, 1.0, size=24)


def _kernel():
    best = np.full(len(_ORIGINS), np.inf)
    for center, radius in zip(_CENTERS, _RADII):
        oc = _ORIGINS - center
        b = np.einsum("ij,ij->i", oc, _DIRS)
        c = np.einsum("ij,ij->i", oc, oc) - radius * radius
        disc = b * b - c
        hit = disc > 0.0
        t = -b - np.sqrt(np.where(hit, disc, 0.0))
        np.minimum(best, np.where(hit & (t > 0.0), t, np.inf), out=best)
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    return float(best[np.isfinite(best)].sum()) + acc


_kernel()     # first call pays for page faults and caches


def sample():
    """Time one run of the fixed kernel, in seconds."""
    t0 = perf()
    _kernel()
    return perf() - t0


class SpeedProbe:
    """Kernel samples between ops and, inside ops, during ray casting.

    Inside an op a sample is taken when ``Scene.nearest_hit`` is called
    and ``period`` seconds have passed since the last sample, so samples
    are spread evenly over sweeps and vibration frames. Ray casting runs
    outside the estimator's frame timer and outside ``acquire``. The
    samples' time is summed in ``spent`` so the op timer can leave it out.
    A wrapper on the ``simulate_vibration_frame`` name in
    ``dronepose.pipeline`` stamps when each frame's simulation returns,
    which is when that frame's estimator timer starts.
    """

    def __init__(self, pipeline, scene_cls, period):
        self.stamps = []        # perf_counter at the middle of each sample
        self.samples = []       # kernel time of each sample
        self.frame_stamps = []  # perf_counter when each vibration frame was simulated
        self.spent = 0.0
        self.enabled = True
        probe = self
        orig_frame = pipeline.simulate_vibration_frame
        orig_hit = scene_cls.nearest_hit

        def simulate_vibration_frame(*args, **kwargs):
            out = orig_frame(*args, **kwargs)
            if probe.enabled:
                probe.frame_stamps.append(perf())
            return out

        def nearest_hit(*args, **kwargs):
            if probe.enabled and perf() - probe.stamps[-1] >= period:
                probe.take(1)
            return orig_hit(*args, **kwargs)

        pipeline.simulate_vibration_frame = simulate_vibration_frame
        scene_cls.nearest_hit = nearest_hit

    def take(self, repeats=REPEATS):
        for _ in range(repeats):
            t0 = perf()
            dt = sample()
            self.stamps.append(t0 + dt / 2.0)
            self.samples.append(dt)
            self.spent += dt

    def scale(self, start, end, nearest=2 * REPEATS):
        """Factor that brings a timing made between ``start`` and ``end`` to NOMINAL_S speed.

        Uses every sample taken in that interval and the ``nearest``
        samples outside it.
        """
        stamps = np.asarray(self.stamps)
        dist = np.maximum(start - stamps, stamps - end)
        inside = int((dist <= 0.0).sum())
        chosen = np.argsort(dist, kind="stable")[:inside + nearest]
        return NOMINAL_S / float(np.median(np.asarray(self.samples)[chosen]))
