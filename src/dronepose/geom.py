"""Rotation and direction math shared across the pipeline.

Rotation matrices are 3x3 float arrays acting on column vectors. Euler
angles use the extrinsic X-Y-Z convention throughout, i.e. a triple
(rx, ry, rz) reassembles as ``Rz(rz) @ Ry(ry) @ Rx(rx)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# XY-projections shorter than this carry no usable heading.
XY_DEGENERACY_NORM = 1e-6

_ROT_TOL = 1e-9


class GimbalLockError(ValueError):
    """Euler decomposition requested too close to the Y-axis singularity."""


def _vec(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def angle_between(a, b) -> float:
    """Angle in [0, pi] between two directions."""
    a = _vec(a)
    b = _vec(b)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise ValueError("degenerate direction: zero-length input")
    cosang = np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)
    return float(np.arccos(cosang))


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
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("degenerate direction: zero-length axis")
    x, y, z = axis / n
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def rotation_aligning_xy(a, b) -> np.ndarray:
    """Z-axis rotation taking the XY-projection of ``a`` onto that of ``b``.

    Raises ValueError when either projection is too short to define a
    heading (near-vertical motion).
    """
    a = _vec(a)
    b = _vec(b)
    if np.hypot(a[0], a[1]) <= XY_DEGENERACY_NORM or np.hypot(b[0], b[1]) <= XY_DEGENERACY_NORM:
        raise ValueError("vertical motion, yaw unobservable")
    theta = np.arctan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])
    return rotation_about_z(float(theta))


def euler_xyz(rotation) -> tuple[float, float, float]:
    """Decompose into extrinsic X-Y-Z angles (rx, ry, rz).

    Raises GimbalLockError when |ry| is within ~1e-6 rad of pi/2, where
    rx and rz become indistinct.
    """
    r = _vec(rotation)
    cy = np.hypot(r[0, 0], r[1, 0])
    if cy < 1e-6:
        raise GimbalLockError("pitch (Y axis) within 1e-6 of +-pi/2; rx/rz are coupled")
    rx = np.arctan2(r[2, 1], r[2, 2])
    ry = np.arctan2(-r[2, 0], cy)
    rz = np.arctan2(r[1, 0], r[0, 0])
    return float(rx), float(ry), float(rz)


def euler_to_rotation(rx: float, ry: float, rz: float) -> np.ndarray:
    """Inverse of euler_xyz: Rz(rz) @ Ry(ry) @ Rx(rx)."""
    return rotation_about_z(rz) @ rotation_about_y(ry) @ rotation_about_x(rx)


def rotation_log(rotation) -> np.ndarray:
    """Rotation vector (axis * angle) of a rotation matrix."""
    r = _vec(rotation)
    cos_t = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_t))
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
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
    theta = float(np.linalg.norm(rv))
    if theta < 1e-12:
        return np.eye(3)
    return rotation_about_axis(rv, theta)


def rotation_angle(rotation) -> float:
    """Geodesic distance of a rotation from the identity, in [0, pi].

    atan2 form: keeps full precision near the identity, where the
    arccos-of-trace expression loses half the significant digits.
    """
    r = _vec(rotation)
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_t = 0.5 * np.linalg.norm(skew)
    cos_t = 0.5 * (np.trace(r) - 1.0)
    return float(np.arctan2(sin_t, cos_t))


def geodesic_step(start, target, max_step: float) -> np.ndarray:
    """Move from ``start`` toward ``target`` along the geodesic, at most ``max_step`` rad."""
    start = _vec(start)
    rv = rotation_log(start.T @ _vec(target))
    theta = float(np.linalg.norm(rv))
    if theta <= max_step:
        return _vec(target).copy()
    return start @ rotation_exp(rv * (max_step / theta))


def orthonormalize(rotation) -> np.ndarray:
    """Nearest proper rotation (Frobenius sense); cleans up filter drift."""
    u, _, vt = np.linalg.svd(_vec(rotation))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def is_rotation(rotation, tol: float = _ROT_TOL) -> bool:
    r = _vec(rotation)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    return (
        np.max(np.abs(r @ r.T - np.eye(3))) <= tol
        and abs(np.linalg.det(r) - 1.0) <= tol
    )


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
        if self.translation.shape != (3,) or not np.all(np.isfinite(self.translation)):
            raise ValueError("pose translation must be a finite 3-vector")

    def transform(self, points) -> np.ndarray:
        """Local -> parent frame, for one point or an (n, 3) batch."""
        p = _vec(points)
        return p @ self.rotation.T + self.translation

    def inverse_transform(self, points) -> np.ndarray:
        """Parent frame -> local."""
        p = _vec(points)
        return (p - self.translation) @ self.rotation
