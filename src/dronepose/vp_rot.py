"""Relative rotation from vanishing directions, with motion-based yaw repair.

Vanishing directions are axial (v and -v are the same feature), and in
a Manhattan-like environment the dominant directions form an orthogonal
triple, so correspondence locks onto the wrong axis family whenever the
prior rotation is more than 45 degrees off about an axis. The repair
compares the drone's motion as measured by itself against the motion
the vehicle tracked, and cancels the resulting heading offset in the
world frame.

The rotation smoother is a geodesic rate limiter: a full filter with a
tuned process model is not warranted by the available observation
model, and the limiter provides the property that matters downstream,
bounded angular velocity so axes cannot swap frame-to-frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .geom import (
    _vec,
    angle_between,
    geodesic_step,
    orthonormalize,
    rotation_aligning_xy,
)

MATCH_LIMIT = np.deg2rad(45.0)
_MIN_PAIR_ANGLE = np.deg2rad(10.0)


class AmbiguousMatchError(ValueError):
    """Best residual exceeded the 45-degree correspondence limit."""


def complete_vd(v1, v2) -> np.ndarray:
    """Build a full vanishing matrix from two directions via cross product.

    The columns are unit vectors, the third orthogonal to the others, and
    the determinant is ``|v1 x v2|``, which the pair check keeps above sin 10 deg.
    """
    v1 = _vec(v1) / np.linalg.norm(v1)
    v2 = _vec(v2) / np.linalg.norm(v2)
    cross = np.cross(v1, v2)
    if np.linalg.norm(cross) <= np.sin(_MIN_PAIR_ANGLE):
        raise ValueError("near-collinear vanishing directions")
    v3 = cross / np.linalg.norm(cross)
    return np.column_stack([v1, v2, v3])


@dataclass
class MatchResult:
    """Column correspondence from drone to vehicle vanishing directions."""

    permutation: tuple     # vehicle column i pairs with drone column permutation[i]
    signs: tuple           # +-1 applied to the drone column
    residuals: np.ndarray  # rad, per vehicle column

    def apply(self, drone_vds) -> np.ndarray:
        v = _vec(drone_vds)
        out = np.empty((3, 3))
        for i in range(3):
            out[:, i] = self.signs[i] * v[:, self.permutation[i]]
        return out


def match_vds(vehicle_vds, drone_vds, prior) -> MatchResult:
    """Greedy smallest-angle assignment after rotating drone VDs by the prior.

    Signs are searched because vanishing directions are axial. Raises
    AmbiguousMatchError when any assigned pair disagrees by more than
    45 degrees, past which Manhattan-world correspondence is undefined.
    """
    vg = _vec(vehicle_vds)
    moved = _vec(prior) @ _vec(drone_vds)
    angles = np.empty((3, 3, 2))
    for i in range(3):
        for k in range(3):
            a = angle_between(vg[:, i], moved[:, k])
            angles[i, k, 0] = a
            angles[i, k, 1] = np.pi - a
    perm = [0, 0, 0]
    signs = [1.0, 1.0, 1.0]
    residuals = np.zeros(3)
    free_i = set(range(3))
    free_k = set(range(3))
    for _ in range(3):
        best = None
        for i in sorted(free_i):
            for k in sorted(free_k):
                for s in (0, 1):
                    cand = (angles[i, k, s], i, k, s)
                    if best is None or cand < best:
                        best = cand
        ang, i, k, s = best
        if ang > MATCH_LIMIT:
            raise AmbiguousMatchError(
                f"ambiguous correspondence: best residual {np.rad2deg(ang):.1f} deg")
        perm[i] = k
        signs[i] = 1.0 if s == 0 else -1.0
        residuals[i] = ang
        free_i.remove(i)
        free_k.remove(k)
    return MatchResult(tuple(perm), tuple(signs), residuals)


def estimate_rotation(vehicle_vds, drone_vds, residuals=None) -> np.ndarray:
    """Rotation mapping drone-frame directions into the vehicle frame.

    ``drone_vds`` must already be in matched column order with signs
    applied. Only the two most trustworthy pairs are used (smallest
    matching residuals; columns 0 and 1 when no residuals are given);
    the third direction is rebuilt by cross product. The raw product
    of the two bases is projected to the nearest proper rotation since
    noisy directions make it slightly non-orthogonal.
    """
    vg = _vec(vehicle_vds)
    vd = _vec(drone_vds)
    if residuals is not None:
        order = np.argsort(residuals, kind="stable")
        a, b = int(order[0]), int(order[1])
    else:
        a, b = 0, 1
    vg2 = complete_vd(vg[:, a], vg[:, b])
    vd2 = complete_vd(vd[:, a], vd[:, b])
    try:
        raw = vg2 @ np.linalg.inv(vd2)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular vanishing matrix") from exc
    return orthonormalize(raw)


@dataclass
class RotationFilterState:
    """Rate-limited smoothed rotation estimate."""

    rotation: np.ndarray
    max_rate: float = np.deg2rad(20.0)   # rad/s
    last_time: float = 0.0

    def __post_init__(self):
        self.rotation = _vec(self.rotation)


def filter_rotation(state: RotationFilterState, measured, t: float) -> RotationFilterState:
    """Step toward the measurement along the geodesic, capped at max_rate * dt."""
    if t <= state.last_time:
        raise ValueError("filter update time must be strictly increasing")
    dt = t - state.last_time
    stepped = geodesic_step(state.rotation, _vec(measured), state.max_rate * dt)
    return replace(state, rotation=orthonormalize(stepped), last_time=t)


@dataclass
class MotionAccumulator:
    """Window of per-frame drone motion vectors with a consistency gate.

    Each frame's motion is the tracked world position minus the one
    ``frame_gap`` frames earlier; vectors shorter than ``min_distance``
    break the streak. When ``window`` consecutive vectors agree within
    ``cone`` pairwise, their sum (and the matching sum of self-observed
    unit directions) is emitted for the yaw correction.
    """

    window: int = 7
    frame_gap: int = 14
    cone: float = np.deg2rad(30.0)
    min_distance: float = 1.0
    _frames: deque = field(default_factory=deque, repr=False)

    def frame_motion(self, track_world) -> np.ndarray | None:
        """Gap displacement ending at the latest tracked position, if long enough."""
        k = len(track_world) - 1
        if k < self.frame_gap:
            return None
        motion = _vec(track_world[k]) - _vec(track_world[k - self.frame_gap])
        if np.linalg.norm(motion) < self.min_distance:
            return None
        return motion

    def reset(self):
        self._frames.clear()


def accumulate_motion(acc: MotionAccumulator, track_world, ego_direction,
                      vehicle_rotation, current_rotation):
    """Feed one frame; returns (observed_sum, self_sum) when the window agrees.

    ``track_world`` holds the track's per-frame world positions, oldest
    first; only the last ``frame_gap + 1`` are read, so a bounded deque
    gives the same emissions as the full history. ``ego_direction`` is
    the drone's own motion direction over the frame gap, in its camera
    frame (None when unavailable). No emission is a value, not an error.
    """
    motion = acc.frame_motion(track_world)
    if motion is None or ego_direction is None:
        acc.reset()
        return None
    self_motion = _vec(vehicle_rotation) @ _vec(current_rotation) @ _vec(ego_direction)
    acc._frames.append((motion, self_motion))
    while len(acc._frames) > acc.window:
        acc._frames.popleft()
    if len(acc._frames) < acc.window:
        return None
    vecs = [f[0] for f in acc._frames]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if angle_between(vecs[i], vecs[j]) > acc.cone:
                return None
    observed = np.sum([f[0] for f in acc._frames], axis=0)
    self_observed = np.sum([f[1] for f in acc._frames], axis=0)
    acc.reset()
    return observed, self_observed


def correct_rotation(rotation, vehicle_rotation, observed_motion, self_motion) -> np.ndarray:
    """Cancel the heading offset between self-measured and tracked motion.

    Both motion sums live in the world frame; the Z-rotation aligning
    their XY projections is conjugated back through the vehicle
    orientation and applied to the current estimate.
    """
    rg = _vec(vehicle_rotation)
    heading_fix = rotation_aligning_xy(self_motion, observed_motion)
    return rg.T @ heading_fix @ rg @ _vec(rotation)
