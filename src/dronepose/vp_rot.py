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
from dataclasses import dataclass, replace

import numpy as np

from .geom import (
    _vec,
    angle_between,
    clamp_unit,
    geodesic_step,
    orthonormalize,
    rotation_aligning_xy,
)

MATCH_LIMIT = np.deg2rad(45.0)
_MIN_PAIR_SIN = np.sin(np.deg2rad(10.0))


class AmbiguousMatchError(ValueError):
    """Best residual exceeded the 45-degree correspondence limit."""


def complete_vd(v1, v2) -> np.ndarray:
    """Build a full vanishing matrix from two directions via cross product.

    The columns are unit vectors, the third orthogonal to the others, and
    the determinant is ``|v1 x v2|``, which the pair check keeps above sin 10 deg.
    """
    (a0, a1, a2), (b0, b1, b2) = ((_vec(v) / np.linalg.norm(v)).tolist() for v in (v1, v2))
    # np.cross's own arithmetic, on floats: one multiply each, then the subtraction.
    cross = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    norm = np.linalg.norm(cross)
    if norm <= _MIN_PAIR_SIN:
        raise ValueError("near-collinear vanishing directions")
    c0, c1, c2 = (cross / norm).tolist()
    return np.array([[a0, b0, c0], [a1, b1, c1], [a2, b2, c2]])


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
    vg, vd, prior = _vec(vehicle_vds), _vec(drone_vds), _vec(prior)
    if not (np.isfinite(vd).all() and np.isfinite(prior).all()):   # before inf * 0 in the matmul
        raise ValueError("degenerate direction: zero-length or non-finite input")
    moved = prior @ vd
    # angle_between of each pair, with each column's norm taken once.
    norms_g = [np.linalg.norm(vg[:, i]) for i in range(3)]
    norms_m = [np.linalg.norm(moved[:, k]) for k in range(3)]
    if not all(1e-12 <= n < np.inf for n in norms_g + norms_m):    # False on NaN
        raise ValueError("degenerate direction: zero-length or non-finite input")
    pairs = []
    for i in range(3):
        for k in range(3):
            cosang = float(np.dot(vg[:, i], moved[:, k]) / (norms_g[i] * norms_m[k]))
            a = float(np.arccos(clamp_unit(cosang)))
            pairs += [(a, i, k, 0), (np.pi - a, i, k, 1)]
    # Smallest residual first; ties go to the smaller (i, k, flipped).
    perm, signs, residuals = [0, 0, 0], [1.0, 1.0, 1.0], np.zeros(3)
    free_i, free_k = {0, 1, 2}, {0, 1, 2}
    for ang, i, k, s in sorted(pairs):
        if i not in free_i or k not in free_k:
            continue
        if ang > MATCH_LIMIT:
            raise AmbiguousMatchError(
                f"ambiguous correspondence: best residual {np.rad2deg(ang):.1f} deg")
        perm[i], signs[i], residuals[i] = k, 1.0 if s == 0 else -1.0, ang
        free_i.remove(i)
        free_k.remove(k)
    return MatchResult(tuple(perm), tuple(signs), residuals)


def estimate_rotation(vehicle_vds, drone_vds, residuals) -> np.ndarray:
    """Rotation mapping drone-frame directions into the vehicle frame.

    ``drone_vds`` must already be in matched column order with signs
    applied. Only the two most trustworthy pairs are used (smallest
    matching residuals, earlier columns first on ties); the third
    direction is rebuilt by cross product. The raw product of the two
    bases is projected to the nearest proper rotation since noisy
    directions make it slightly non-orthogonal.
    """
    vg = _vec(vehicle_vds)
    vd = _vec(drone_vds)
    a, b = np.argsort(residuals, kind="stable")[:2]
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
    ``frame_gap`` frames earlier, so only the last ``frame_gap + 1``
    positions are kept; vectors shorter than ``min_distance`` break the
    streak. When ``window`` consecutive vectors agree within
    ``cone`` pairwise, their sum (and the matching sum of self-observed
    unit directions) is emitted for the yaw correction.
    """

    window: int = 7
    frame_gap: int = 14
    cone: float = np.deg2rad(30.0)
    min_distance: float = 1.0

    def __post_init__(self):
        self._positions = deque(maxlen=self.frame_gap + 1)   # latest world positions
        self._pairs = deque(maxlen=self.window)              # (motion, self motion)


def accumulate_motion(acc: MotionAccumulator, track_position, ego_direction,
                      vehicle_rotation, current_rotation):
    """Feed one frame; returns (observed_sum, self_sum) when the window agrees.

    ``track_position`` is this frame's tracked world position.
    ``ego_direction`` is the drone's own motion direction over the frame
    gap, in its camera frame (None when unavailable). No emission is a
    value, not an error.
    """
    acc._positions.append(_vec(track_position))
    motion = acc._positions[-1] - acc._positions[0]
    if (len(acc._positions) <= acc.frame_gap or ego_direction is None
            or np.linalg.norm(motion) < acc.min_distance):
        acc._pairs.clear()
        return None
    self_motion = _vec(vehicle_rotation) @ _vec(current_rotation) @ _vec(ego_direction)
    acc._pairs.append((motion, self_motion))
    if len(acc._pairs) < acc.window:
        return None
    vecs = [f[0] for f in acc._pairs]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if angle_between(vecs[i], vecs[j]) > acc.cone:
                return None
    observed = np.sum(vecs, axis=0)
    self_observed = np.sum([f[1] for f in acc._pairs], axis=0)
    acc._pairs.clear()
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
