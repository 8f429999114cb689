"""Mean-shift position refinement and the per-frame tracking loop.

Refinement fixes the support set once, as the points within ``radius``
of the starting estimate, then repeats the Gaussian-weighted mean a
fixed number of iterations with no early exit; the iterate count is
part of the contract so independent re-computation matches exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .depth_image import ProjectionParams, project
from .detector import KernelParams, detect

_SUPPORT_BLOCK = 65536     # points per block when selecting the mean-shift support: 0.5 MB a column


@dataclass
class MeanShiftParams:
    radius: float = 1.0          # m, spherical support neighborhood
    iterations: int = 10         # full refinement passes
    bandwidth: float = 1.0       # m^2 Gaussian kernel denominator
    track_iterations: int = 3    # passes per vibration frame
    miss_limit: int = 5          # consecutive empty frames before loss

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be > 0")
        if self.iterations < 1 or self.track_iterations < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be > 0")
        if self.miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")


@dataclass
class TrackState:
    position: np.ndarray                  # current estimate, vehicle frame, m
    status: str = "locked"                # 'locked' | 'lost'
    misses: int = 0

    @property
    def pointing_azimuth(self) -> float:
        """Where the single-axis mount aims next: the estimate's azimuth."""
        return float(np.arctan2(self.position[1], self.position[0]))


def _support(pts, center, radius):
    """``pts[np.linalg.norm(pts - center, axis=1) <= radius]``, bit for bit, faster.

    A point that test keeps has |dx| <= radius (more squares only add, and
    sqrt(dx*dx) rounds to |dx| unless dx*dx underflows, which the 1e-150
    floor rules out), so the test on x drops none of them. The norm test
    then runs per axis on the few points left: ``add.reduce`` sums a row of
    three left to right, as ``dx*dx + dy*dy + dz*dz`` does.
    """
    kept = [pts[:0]]
    for i in range(0, len(pts), _SUPPORT_BLOCK):   # a full sweep's temporaries stay small
        blk = pts[i:i + _SUPPORT_BLOCK]
        near = blk.take((np.abs(blk[:, 0] - center[0]) <= max(radius, 1e-150)).nonzero()[0], axis=0)
        dx, dy, dz = (near - center).T
        kept.append(near[np.sqrt(dx * dx + dy * dy + dz * dz) <= radius])
    return np.concatenate(kept)


def mean_shift_refine(points, start, params: MeanShiftParams,
                      iterations: int | None = None) -> np.ndarray | None:
    """Iterated Gaussian-weighted mean over the fixed support neighborhood.

    None when no point lies within ``radius`` of ``start``: nothing to refine on.
    A non-finite ``start`` raises ValueError; the points are not checked.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    estimate = np.asarray(start, dtype=float).copy()
    if estimate.shape != (3,) or not all(map(math.isfinite, estimate.tolist())):
        raise ValueError("start must be a finite 3-vector")
    support = _support(pts, estimate, params.radius)
    if len(support) == 0:
        return None
    n_iter = params.iterations if iterations is None else iterations
    for _ in range(n_iter):
        offsets = support - estimate
        sq = np.add.reduce(np.square(offsets, out=offsets), axis=1)    # np.sum's own reduce
        weights = np.exp(sq / -params.bandwidth)    # -sq / bandwidth, bit for bit
        total = np.add.reduce(weights)
        if total == 0.0:    # all underflowed (weights are >= 0): the same weighted mean, scaled up
            weights = np.exp(-(sq - sq.min()) / params.bandwidth)
            total = np.add.reduce(weights)
        estimate = (weights @ support) / total
    return estimate


def track_step(state: TrackState, frame, params: MeanShiftParams) -> TrackState:
    """Relocalize against one vibration frame and repoint the motor.

    A frame with no points near the estimate counts as a miss; after
    ``miss_limit`` consecutive misses the state flips to lost (loss is
    a state, not an error).
    """
    refined = mean_shift_refine(frame.points, state.position, params,
                                iterations=params.track_iterations)
    if refined is None:
        misses = state.misses + 1
        status = "lost" if misses >= params.miss_limit else state.status
        return replace(state, misses=misses, status=status)
    return TrackState(position=refined)


def acquire(frame, proj: ProjectionParams, kernel: KernelParams,
            params: MeanShiftParams) -> TrackState | None:
    """Full-sweep acquisition: project, detect, refine, lock.

    Also the re-acquisition path after a loss. None when there is nothing to
    lock on: the image is empty, or no return lies within ``radius`` of the detection.

    Mean-shift reads only the rows ``project`` found in front of the image plane
    when ``detection.depth > 2 * radius``, with the same bits: a point within
    ``radius`` of the detection (up to ulps) has depth above ``depth - radius > 0``,
    and the rows keep input order, so the support is the same. Else: the whole sweep.
    """
    detection = detect(image := project(frame.points, proj), kernel, proj)
    if detection is None:
        return None
    points = image.front if detection.depth > 2.0 * params.radius else frame.points
    position = mean_shift_refine(points, detection.position, params)
    return None if position is None else TrackState(position=position)
