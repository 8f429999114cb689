"""Rotation and direction math shared across the pipeline.

Rotation matrices are 3x3 float arrays acting on column vectors. Euler
angles use the extrinsic X-Y-Z convention throughout, i.e. a triple
(rx, ry, rz) reassembles as ``Rz(rz) @ Ry(ry) @ Rx(rx)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# XY-projections shorter than this carry no usable heading.
XY_DEGENERACY_NORM = 1e-6

_ROT_TOL = 1e-9
_EYE3, _FLIP_LAST = np.eye(3), np.diag([1.0, 1.0, -1.0])


def _vec(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def clamp_unit(x: float) -> float:
    """``np.clip(x, -1.0, 1.0)`` for one float, without the array call; NaN stays NaN."""
    return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm``'s own arithmetic for a vector; inf, not a RuntimeWarning, on overflow."""
    if math.hypot(*v.tolist()) < 1e150:     # the squares and their sum stay finite
        return math.sqrt(v.dot(v))
    with np.errstate(over="ignore"):        # near 1e154 or past it, or NaN: rare
        return math.sqrt(v.dot(v))


def angle_between(a, b) -> float:
    """Angle in [0, pi] between two directions."""
    a, b = _vec(a), _vec(b)
    na, nb = _norm(a), _norm(b)
    if not (1e-12 <= na < math.inf and 1e-12 <= nb < math.inf):     # False on NaN
        raise ValueError("degenerate direction: zero-length or non-finite input")
    return float(np.arccos(clamp_unit(float(np.dot(a, b) / (na * nb)))))


def rotation_about_x(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_about_y(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_about_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_about_axis(axis, theta: float) -> np.ndarray:
    """Rodrigues rotation about an arbitrary (non-zero) axis."""
    axis = _vec(axis)
    n = _norm(axis)
    if not (1e-12 <= n < math.inf and math.isfinite(theta)):     # False on NaN
        raise ValueError("rotation axis must be non-zero and finite, and the angle finite")
    x, y, z = (axis / n).tolist()
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return _EYE3 + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def rotation_aligning_xy(a, b) -> np.ndarray:
    """Z-axis rotation taking the XY-projection of ``a`` onto that of ``b``.

    Raises ValueError on a non-finite entry or XY cross or dot product, and
    when either projection is too short to define a heading (near-vertical motion).
    """
    a, b = _vec(a).tolist(), _vec(b).tolist()
    cross, dot = a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1]   # inf, not a warning
    if not all(map(math.isfinite, a + b + [cross, dot])):
        raise ValueError("motion vectors and their XY products must be finite")
    if np.hypot(a[0], a[1]) <= XY_DEGENERACY_NORM or np.hypot(b[0], b[1]) <= XY_DEGENERACY_NORM:
        raise ValueError("vertical motion, yaw unobservable")
    return rotation_about_z(float(np.arctan2(cross, dot)))


def euler_xyz(rotation) -> tuple[float, float, float]:
    """Decompose into extrinsic X-Y-Z angles (rx, ry, rz).

    Defined everywhere: the full atan2 triple, which rebuilds the rotation
    also next to gimbal lock (|ry| near pi/2), and only at the lock exactly
    (the first column on the z axis) rz = 0 with the coupled angle in rx.
    A non-finite entry, which could read as the identity, raises ValueError.
    """
    r = _vec(rotation).tolist()
    if not all(map(math.isfinite, r[0] + r[1] + r[2])):
        raise ValueError("rotation matrix has a non-finite entry")
    cy = np.hypot(r[0][0], r[1][0])
    rx, rz = ((np.arctan2(r[2][1], r[2][2]), np.arctan2(r[1][0], r[0][0])) if cy > 0.0
              else (np.arctan2(-r[1][2], r[1][1]), 0.0))
    return float(rx), float(np.arctan2(-r[2][0], cy)), float(rz)


def euler_to_rotation(rx: float, ry: float, rz: float) -> np.ndarray:
    """Inverse of euler_xyz: Rz(rz) @ Ry(ry) @ Rx(rx)."""
    return rotation_about_z(rz) @ rotation_about_y(ry) @ rotation_about_x(rx)


def _trace_skew(r: np.ndarray) -> tuple[float, np.ndarray]:
    """trace(R) and R's skew differences; ValueError unless the four are finite,
    as they are exactly when the nine entries are (and no sum overflows)."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r.ravel().tolist()
    trace = r00 + r11 + r22     # np.trace's order: (r00 + r11) + r22
    skew = (r21 - r12, r02 - r20, r10 - r01)
    if not all(map(math.isfinite, (trace, *skew))):
        raise ValueError("rotation matrix has a non-finite entry")
    return trace, np.array(skew)


def rotation_log(rotation) -> np.ndarray:
    """Rotation vector (axis * angle) of a rotation matrix."""
    r = _vec(rotation)
    trace, skew = _trace_skew(r)
    theta = float(np.arccos(clamp_unit((trace - 1.0) / 2.0)))
    if theta < 1e-7:
        return 0.5 * skew
    if theta > np.pi - 1e-5:
        # Skew part vanishes near pi; recover the axis from (R + I)/2 = aa^T.
        m = (r + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(m)))
        axis = m[:, i] / np.sqrt(max(m[i, i], 1e-15))
        axis /= np.linalg.norm(axis)
        if np.dot(axis, skew) < 0.0:
            axis = -axis
        return axis * theta
    return skew * (theta / (2.0 * np.sin(theta)))


def rotation_exp(rotvec) -> np.ndarray:
    """Rotation matrix of a rotation vector."""
    rv = _vec(rotvec)
    theta = _norm(rv)
    return np.eye(3) if theta < 1e-12 else rotation_about_axis(rv, theta)


def rotation_angle(rotation) -> float:
    """Geodesic distance of a rotation from the identity, in [0, pi].

    atan2 form: keeps full precision near the identity, where the
    arccos-of-trace expression loses half the significant digits.
    """
    trace, skew = _trace_skew(_vec(rotation))
    return float(np.arctan2(0.5 * np.linalg.norm(skew), 0.5 * (trace - 1.0)))


def geodesic_step(start, target, max_step: float) -> np.ndarray:
    """Move from ``start`` toward ``target`` along the geodesic, at most ``max_step`` rad."""
    start, target = _vec(start), _vec(target)
    if not all(map(math.isfinite, start.ravel().tolist() + target.ravel().tolist())):
        raise ValueError("rotation matrix has a non-finite entry")     # before the matmul
    rv = rotation_log(start.T @ target)
    theta = math.sqrt(rv.dot(rv))
    if theta <= max_step:
        return target.copy()
    return start @ rotation_exp(rv * (max_step / theta))


def orthonormalize(rotation) -> np.ndarray:
    """Nearest proper rotation (Frobenius sense); cleans up filter drift.

    Raises ValueError on a non-finite entry: np.linalg.svd may never return
    on an infinite one.
    """
    r = _vec(rotation)
    if not all(map(math.isfinite, r.ravel().tolist())):     # cheaper than np.isfinite
        raise ValueError("cannot orthonormalize a matrix with a non-finite entry")
    u, _, vt = np.linalg.svd(r)
    # u @ vt is orthogonal to rounding, so its determinant is +-1 within a few
    # ulps and the cofactor sum has the sign np.linalg.det would give.
    (a, b, c), (d, e, f), (g, h, i) = (u @ vt).tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return u @ (_EYE3 if det > 0.0 else _FLIP_LAST) @ vt


def is_rotation(rotation, tol: float = _ROT_TOL) -> bool:
    """Entries of R R^T - I and det R - 1 within ``tol``, on R's nine floats."""
    r = _vec(rotation)
    if r.shape != (3, 3) or not all(map(math.isfinite, m := r.ravel().tolist())):
        return False
    a, b, c, d, e, f, g, h, i = m
    return all(abs(x) <= tol for x in (
        a * a + b * b + c * c - 1.0, d * d + e * e + f * f - 1.0, g * g + h * h + i * i - 1.0,
        a * d + b * e + c * f, a * g + b * h + c * i, d * g + e * h + f * i,
        a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0))


@dataclass
class Pose:
    """Rigid transform mapping local coordinates into the parent frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = _vec(self.rotation)
        self.translation = _vec(self.translation)
        if not is_rotation(self.rotation, tol=1e-6):
            raise ValueError("pose rotation is not a proper rotation matrix")
        if self.translation.shape != (3,) or not all(map(math.isfinite, self.translation.tolist())):
            raise ValueError("pose translation must be a finite 3-vector")
