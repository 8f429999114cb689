"""Projection between 3D scan points and a sparse square depth image.

Depth here is distance along the viewing axis (planar depth), not
Euclidean range, so apparent target size follows the pinhole
similar-triangles relation exactly. Pixel (u, v) covers the continuous
coordinate square [u, u+1) x [v, v+1); its center sits at half-integer
offsets, which places the principal point on the corner shared by the
four central pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import _vec

_PROJECT_BLOCK = 65536     # points per block when projecting a sweep: 0.5 MB of depths


@dataclass
class ProjectionParams:
    """Square pinhole looking along ``view_direction`` (vehicle frame, default straight up)."""

    resolution: int = 512
    half_fov: float = np.deg2rad(60.0)
    view_direction: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.resolution < 64 or self.resolution % 2 != 0:
            raise ValueError(f"resolution must be even and >= 64, got {self.resolution!r}")
        if not 0.0 < self.half_fov < np.pi / 2:
            raise ValueError("half_fov must lie in (0, pi/2)")
        w = _vec(self.view_direction)
        n = np.linalg.norm(w)
        if n < 1e-12:
            raise ValueError("view_direction must be non-zero")
        w = w / n
        # Deterministic in-plane basis: seed with whichever world axis is
        # least parallel to the view axis.
        helper = np.array([1.0, 0.0, 0.0]) if abs(w[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
        u = helper - np.dot(helper, w) * w
        u /= np.linalg.norm(u)
        self.w_axis = w
        self.u_axis = u
        self.v_axis = np.cross(w, u)

    @property
    def focal(self) -> float:
        """Pixels; (N/2) / tan(half_fov)."""
        return (self.resolution / 2.0) / np.tan(self.half_fov)


@dataclass
class DepthImage:
    """N x N planar depths in meters, 0 where no return landed; ``front``: the rows
    of ``project``'s points in front of the image plane, None if built elsewhere."""

    data: np.ndarray
    front: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        n = self.data.shape[0]
        if self.data.shape != (n, n):
            raise ValueError("depth image must be square")
        # No temporaries; NaN fails both comparisons, and a 0 x 0 image is valid.
        if self.data.size and not (0.0 <= self.data.min() and self.data.max() < np.inf):
            raise ValueError("depth values must be finite and >= 0")


def _project_block(blk, start, params: ProjectionParams):
    """(rows in front + start, flat pixels, depths) of one block; its temporaries go on return."""
    n, f = params.resolution, params.focal
    z = blk @ params.w_axis
    if not np.isfinite(z).all():    # as it is for any non-finite point
        raise ValueError("points and their depths must be finite")
    front = np.flatnonzero(z > 0.0)     # a gather: 6-12 % of a sweep's rows
    blk, z = np.take(blk, front, axis=0), np.take(z, front)
    u = np.floor(f * (blk @ params.u_axis) / z + n / 2.0)
    v = np.floor(f * (blk @ params.v_axis) / z + n / 2.0)
    inside = (u >= 0) & (u < n) & (v >= 0) & (v < n)
    return front + start, (v[inside] * n + u[inside]).astype(np.intp), z[inside]  # exact in floats


def project(points, params: ProjectionParams) -> DepthImage:
    """Bin points into the image, keeping the smallest depth per pixel.

    Points behind the image plane or outside the field of view are
    dropped. Raises ValueError on a non-finite point.
    """
    # C order once: a block's matmuls give the same bits on any input layout.
    pts = np.ascontiguousarray(points, dtype=float).reshape(-1, 3)
    # Block-wise, so a full sweep's temporaries stay small; one scatter at the
    # end keeps each pixel's minimum, which does not depend on the points' order.
    # Bounds on the floats: a point just in front of the plane has a pixel
    # index past int64's range (or an infinite one, from a subnormal z),
    # which must not reach the cast. No points make one empty block.
    with np.errstate(over="ignore", invalid="ignore"):
        front, cells, depths = map(np.concatenate, zip(*[
            _project_block(pts[start:start + _PROJECT_BLOCK], start, params)
            for start in range(0, max(len(pts), 1), _PROJECT_BLOCK)]))
    depth = np.zeros(params.resolution ** 2)    # depths are finite, > 0: inf only where one lands
    depth[cells] = np.inf
    np.minimum.at(depth, cells, depths)
    return DepthImage(depth.reshape(params.resolution, -1), front)


def unproject(pixel, depth: float, params: ProjectionParams) -> np.ndarray:
    """3D point at the center of ``pixel`` with the given planar depth."""
    u, v = pixel
    n = params.resolution
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("pixel outside image")
    if depth <= 0.0:
        raise ValueError("depth must be positive")
    f = params.focal
    x = (u + 0.5 - n / 2.0) * depth / f
    y = (v + 0.5 - n / 2.0) * depth / f
    return x * params.u_axis + y * params.v_axis + depth * params.w_axis

