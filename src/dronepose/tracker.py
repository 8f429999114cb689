"""Mean-shift position refinement and the per-frame tracking loop.

Refinement fixes the support set once, as the points within ``radius``
of the starting estimate, then repeats the Gaussian-weighted mean a
fixed number of iterations with no early exit; the iterate count is
part of the contract so independent re-computation matches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .depth_image import ProjectionParams, project
from .detector import KernelParams, detect

_SUPPORT_BLOCK = 16384     # points per block when selecting the mean-shift support


class TargetLostError(RuntimeError):
    """No scan points fell inside the refinement neighborhood."""


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
    pointing_azimuth: float = 0.0         # where the single-axis mount aims next


def mean_shift_refine(points, start, params: MeanShiftParams,
                      iterations: int | None = None) -> np.ndarray:
    """Iterated Gaussian-weighted mean over the fixed support neighborhood."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    estimate = np.asarray(start, dtype=float).copy()
    if len(pts):
        # Block-wise, so a full sweep's temporaries stay small and reused.
        support = np.concatenate([
            blk[np.linalg.norm(blk - estimate, axis=1) <= params.radius]
            for blk in (pts[i:i + _SUPPORT_BLOCK] for i in range(0, len(pts), _SUPPORT_BLOCK))])
    else:
        support = pts
    if len(support) == 0:
        raise TargetLostError("target lost: empty refinement neighborhood")
    n_iter = params.iterations if iterations is None else iterations
    for _ in range(n_iter):
        sq = np.sum((support - estimate) ** 2, axis=1)
        weights = np.exp(-sq / params.bandwidth)
        if not weights.any():   # all underflowed: the same weighted mean, scaled up
            weights = np.exp(-(sq - sq.min()) / params.bandwidth)
        estimate = (weights @ support) / np.sum(weights)
    return estimate


def _azimuth(position) -> float:
    return float(np.arctan2(position[1], position[0]))


def track_step(state: TrackState, frame, params: MeanShiftParams) -> TrackState:
    """Relocalize against one vibration frame and repoint the motor.

    A frame with no points near the estimate counts as a miss; after
    ``miss_limit`` consecutive misses the state flips to lost (loss is
    a state, not an error).
    """
    try:
        refined = mean_shift_refine(frame.points, state.position, params,
                                    iterations=params.track_iterations)
    except TargetLostError:
        misses = state.misses + 1
        status = "lost" if misses >= params.miss_limit else state.status
        return replace(state, misses=misses, status=status)
    return TrackState(position=refined, pointing_azimuth=_azimuth(refined))


def acquire(frame, proj: ProjectionParams, kernel: KernelParams,
            params: MeanShiftParams) -> TrackState:
    """Full-sweep acquisition: project, detect, refine, lock.

    Also the re-acquisition path after a loss. Propagates the
    detector's NoCandidatesError when the sky is empty.
    """
    image = project(frame.points, proj)
    detection = detect(image, kernel, proj)
    position = mean_shift_refine(frame.points, detection.position, params)
    return TrackState(position=position, pointing_azimuth=_azimuth(position))
