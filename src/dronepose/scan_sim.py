"""Deterministic synthetic world and motorized spinning-LiDAR model.

Sensor geometry: the multi-beam unit spins about a horizontal axis so
its beam fan sweeps elevation, and the whole unit sits on a motor that
rotates about the vehicle's vertical axis. In the motor frame the spin
axis is +Y; at internal spin angle ``a`` and beam offset ``b`` a ray
points ``(cos b sin a, sin b, cos b cos a)``, i.e. the fan plane holds
the motor's azimuth and passes through the zenith. Rotating the motor
by 180 degrees therefore covers the full sphere.

Poses are evaluated at each firing's emission time (motion blur), and
all returns of one frame are expressed in the vehicle camera frame at
the frame's start time; a frame carries no per-point times.

Indirect observations (vanishing directions from the two cameras, the
drone's own motion direction) are synthesized here from ground truth
plus angular noise; detecting them from imagery is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geom import Pose, _vec, is_rotation, rotation_about_axis, rotation_log

_RAY_EPS = 1e-9
_BOUND_PAD = 1e-6     # relative and absolute (m) growth of bounding spheres
_FAN_SLACK = 1e-6     # relative and absolute (m) margin of the fan test; rad for planes
_BLOCK_FIRINGS = 2560  # firings culled together; holds a default vibration frame
_SIGNS = np.array((-1.0, 1.0))     # the scramble's column signs, gathered by a draw


@dataclass
class ScenePrimitive:
    """Static world content.

    kind 'sphere': dimensions[0] is the diameter.
    kind 'box': dimensions are full side lengths, axis-aligned.
    kind 'ground_plane': horizontal rectangle at center z with x/y
        extents dimensions[0], dimensions[1].
    kind 'sparse_blob': ``count`` small spheres of diameter
        dimensions[0] scattered within ``scatter_radius`` of center
        (stands in for foliage and similar porous structure).
    """

    kind: str
    center: tuple
    dimensions: tuple = (1.0, 1.0, 1.0)
    count: int = 0
    scatter_radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sphere", "box", "ground_plane", "sparse_blob"):
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        self.center = _vec(self.center)
        self.dimensions = _vec(self.dimensions)
        if not all(map(math.isfinite, [*self.center.ravel().tolist(), self.scatter_radius])):
            raise ValueError("primitive center and scatter_radius must be finite")
        if not all(0.0 < d < math.inf for d in self.dimensions.ravel().tolist()):   # not NaN
            raise ValueError("primitive dimensions must be finite and > 0")
        if self.kind == "sparse_blob":
            if self.count < 1:
                raise ValueError("sparse_blob count must be >= 1")
            if self.scatter_radius <= 0.0:
                raise ValueError("sparse_blob scatter_radius must be > 0")


@dataclass
class DroneModel:
    """Target body: a box of side ``width`` centered on the drone position."""

    width: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.width < math.inf:     # False on NaN
            raise ValueError("drone width must be finite and > 0")


@dataclass
class LidarModel:
    beam_elevations: np.ndarray = field(
        default_factory=lambda: np.deg2rad(np.linspace(-15.0, 15.0, 16)))
    azimuth_step: float = np.deg2rad(0.2)   # internal spin advance per firing
    range_noise: float = 0.0                # m, 1-sigma along the ray
    max_range: float = 100.0
    points_per_second: float = 300_000.0

    def __post_init__(self):
        self.beam_elevations = np.atleast_1d(_vec(self.beam_elevations))
        if len(self.beam_elevations) < 2:
            raise ValueError("need at least 2 beams")
        if not np.isfinite(self.beam_elevations).all():
            raise ValueError("beam elevations must be finite")
        # Each comparison is False on NaN.
        if not 0.0 < self.azimuth_step < math.inf:
            raise ValueError("azimuth_step must be finite and > 0")
        if not 0.0 <= self.range_noise < math.inf:
            raise ValueError("range_noise must be finite and >= 0")
        if not (0.0 < self.max_range < math.inf and 0.0 < self.points_per_second < math.inf):
            raise ValueError("max_range and points_per_second must be finite and > 0")

    @property
    def firing_interval(self) -> float:
        """Seconds between firings; all beams fire together."""
        return len(self.beam_elevations) / self.points_per_second


@dataclass
class ScanFrame:
    """Returns of one sweep or vibration period, in the vehicle frame at t_start.

    Each return was cast from the poses at its firing's emission time;
    the frame keeps only its interval, not per-point times, and ``pose``,
    the vehicle pose at t_start that maps its points into the world.
    """

    points: np.ndarray     # (n, 3) m
    t_start: float
    t_end: float
    pose: Pose

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)

    def __len__(self):
        return len(self.points)


class TrajectorySpec:
    """Piecewise-linear position and geodesic rotation over waypoints."""

    def __init__(self, times, positions, rotations):
        self.times = np.asarray(times, dtype=float)
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.rotations = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
        if len(self.times) < 2:
            raise ValueError("trajectory needs at least 2 waypoints")
        if not all(map(math.isfinite, [*self.times.ravel().tolist(),
                                       *self.positions.ravel().tolist()])):
            raise ValueError("waypoint times and positions must be finite")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        if len(self.times) != len(self.positions) or len(self.times) != len(self.rotations):
            raise ValueError("waypoint arrays must have equal length")
        for r in self.rotations:
            if not is_rotation(r, tol=1e-6):
                raise ValueError("waypoint rotation is not a proper rotation")
        # Per segment: None when its rotation is constant, else (theta, K, K @ K)
        # of the relative rotation's axis-angle, for Rodrigues' formula.
        self._segments = [_segment_terms(r0, r1)
                          for r0, r1 in zip(self.rotations[:-1], self.rotations[1:])]
        # Per segment: True when np.interp gives its start's bits at every time on it:
        # the same bits at both ends, none -0.0 (+0.0 between the knots of a -0.0,
        # -0.0 at them), which p + 0.0 alone turns into +0.0.
        self._still = [p0.tobytes() == p1.tobytes() == (p0 + 0.0).tobytes()
                       for p0, p1 in zip(self.positions[:-1], self.positions[1:])]

    def positions_at(self, ts) -> np.ndarray:
        """(n, 3) positions at ``ts``, the transpose of C-ordered (3, n) per-axis rows."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.array([np.interp(ts, self.times, self.positions[:, i]) for i in range(3)]).T

    def position_rows(self, ts) -> np.ndarray:
        """``positions_at(ts)`` for non-decreasing ``ts``, or its one shared (1, 3)
        row when the first and the last time (clamped) lie on one still segment."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if len(ts):
            s = np.clip(self.times.searchsorted(ts[[0, -1]], "right") - 1, 0, len(self.times) - 2)
            if s[0] == s[1] and self._still[s[0]]:
                return self.positions[s[0]][None].copy()
        return self.positions_at(ts)

    def position_at(self, t: float) -> np.ndarray:
        """``positions_at([t])[0]``: the same np.interp loop, on one float."""
        return np.array([np.interp(t, self.times, self.positions[:, i]) for i in range(3)])

    def rotation_rows(self, ts):
        """R[i][j] at times ``ts`` (clamped) as a (3, 3, n) array of per-entry rows,
        or as nested lists of floats when every time lies on one constant segment."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        seg = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(self.times) - 2)
        if len(ts) and seg.min() == seg.max():
            return self._segment_rows(seg[0], ts)
        out = np.empty((3, 3, len(ts)))
        for s in np.unique(seg):
            sel = seg == s
            out[:, :, sel] = np.reshape(self._segment_rows(s, ts[sel]), (3, 3, -1))
        return out

    def _segment_rows(self, s, ts):
        """Rodrigues' formula on segment ``s``, entry by entry: B = (I + sin K) +
        (1 - cos) K^2, then R[i][c] = (r0[i,0] B[0][c] + r0[i,1] B[1][c]) +
        r0[i,2] B[2][c], the order in which einsum's kernel sums "ij,njk->nik"."""
        r0 = self.rotations[s]
        if self._segments[s] is None:
            return r0.tolist()
        theta, k, k2 = self._segments[s]
        ang = np.clip((ts - self.times[s]) / (self.times[s + 1] - self.times[s]), 0.0, 1.0) * theta
        b = ((np.eye(3)[:, :, None] + k[:, :, None] * np.sin(ang))
             + k2[:, :, None] * (1.0 - np.cos(ang)))
        r0 = r0[:, :, None, None]
        return (r0[:, 0] * b[0] + r0[:, 1] * b[1]) + r0[:, 2] * b[2]

    def rotation_at(self, t: float) -> np.ndarray:
        """``rotation_rows([t])`` as a 3x3 array; on a constant segment, a waypoint's copy."""
        s = min(max(self.times.searchsorted(t, "right") - 1, 0), len(self.times) - 2)
        return (self.rotations[s].copy() if self._segments[s] is None
                else self._segment_rows(s, np.array([t])).reshape(3, 3))

    def pose_at(self, t: float) -> Pose:
        return Pose(self.rotation_at(t), self.position_at(t))


def _segment_terms(r0, r1):
    """(theta, K, K @ K) of the rotation from ``r0`` to ``r1``, or None if it is constant."""
    if np.array_equal(r0, r1):
        return None
    rv = rotation_log(r0.T @ r1)
    theta = float(np.linalg.norm(rv))
    if theta < 1e-12:
        return None
    x, y, z = rv / theta
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return theta, k, k @ k


@dataclass
class Trajectories:
    drone: TrajectorySpec
    vehicle: TrajectorySpec


@dataclass
class IndirectObsModel:
    """Synthetic vanishing-direction and ego-motion observation noise."""

    vd_noise: float = 0.0      # rad, per vanishing direction
    ego_noise: float = 0.0     # rad, on the drone's motion direction
    scramble: bool = True      # unlabeled detections: permute and flip signs

    def __post_init__(self):
        if not (0.0 <= self.vd_noise < math.inf and 0.0 <= self.ego_noise < math.inf):
            raise ValueError("noise sigmas must be finite and >= 0")


class Fans(NamedTuple):
    """F planar fans of rays and the primitives each may hit (``Scene.fan_candidates``)."""

    rows: np.ndarray      # (bounds + rects + 1, F) bools
    origins: np.ndarray   # (F, 3), or (1, 3): one origin shared by every fan
    axes: np.ndarray      # (F, 3) unit: the direction halfway between the end rays
    normals: np.ndarray   # (F, 3) unit normal of the fan's plane; zero for a fan of one ray
    spread: float         # rad: every ray lies within it of the fan's axis

    def take(self, k):
        """The fans ``k`` (indices), in that order."""
        return Fans(self.rows[:, k], _rows(self.origins, k), self.axes[k], self.normals[k],
                    self.spread)


class Scene:
    """Static primitives compiled to closed-form shapes for ray casting.

    Blob scatter is materialized from (seed, primitive index) so a
    scene rebuilds identically; rays starting inside a primitive yield
    no return from it.

    Each sphere, box and blob also gets an enclosing sphere, inflated by
    ``_BOUND_PAD`` (bounding volumes, Kay & Kajiya, SIGGRAPH 1986).
    ``fan_candidates`` culls whole firings by the plane and the cone that hold
    each firing's rays (packet culling, Wald et al., Eurographics 2001), and
    ``nearest_hit`` runs a box's exact test on every ray of the firings kept
    for its sphere. The spheres descend one level further: each sphere of a
    blob is tested against each firing kept for the blob, as the blob's sphere
    was, and the exact ray-sphere test runs on every ray of the (sphere,
    firing) pairs left (Reshetov et al., SIGGRAPH 2005). Rays given without
    firings are fans of one ray, built by ``fan_candidates``. Every (ray,
    primitive) distance is computed as without culling and the minimum is
    exact, so returns are bit-identical.
    """

    def __init__(self, primitives, seed: int = 0):
        self.primitives = list(primitives)
        centers, radii = [], []
        bounds = []               # (center, radius) of the sphere enclosing each box and group
        self.boxes = []           # (bound row, lo, hi)
        self.sphere_groups = []   # (bound row, first, end) of the group's spheres
        self.rects = []
        for idx, prim in enumerate(self.primitives):
            if prim.kind == "box":
                half = prim.dimensions / 2.0
                self.boxes.append((len(bounds), prim.center - half, prim.center + half))
                bounds.append((prim.center, np.linalg.norm(half)))
            elif prim.kind == "ground_plane":
                self.rects.append((prim.center[2], prim.center[0], prim.center[1],
                                   prim.dimensions[0] / 2.0, prim.dimensions[1] / 2.0))
            else:                   # a sphere is a blob of one, at its center
                r = prim.dimensions[0] / 2.0
                pts, reach = prim.center[None], 0.0
                if prim.kind == "sparse_blob":
                    rng = np.random.default_rng([int(seed), idx])
                    raw = rng.normal(size=(prim.count, 3))
                    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
                    dist = prim.scatter_radius * np.cbrt(rng.uniform(size=prim.count))
                    pts, reach = prim.center + raw * dist[:, None], prim.scatter_radius
                self.sphere_groups.append((len(bounds), len(centers), len(centers) + len(pts)))
                bounds.append((prim.center, reach + r))
                centers.extend(pts)
                radii.extend([r] * len(pts))
        self.sphere_centers = np.asarray(centers, dtype=float).reshape(-1, 3)
        self.sphere_radii = np.asarray(radii, dtype=float)
        self.bound_centers = np.array([c for c, _ in bounds], dtype=float).reshape(-1, 3)
        self.bound_radii = _pad(np.array([r for _, r in bounds], dtype=float))

    def fan_candidates(self, origins, u, v, beams, drone_centers=None, drone_half=0.0):
        """Which primitives each of F fans of rays can hit, as ``Fans``: (bounds +
        rects + 1, F) bool rows next to the fans' geometry.

        Fan f holds the rays cos(b) u[f] + sin(b) v[f] from ``origins[f]``, for
        the elevations b in ``beams``; u[f] and v[f] are orthonormal. Rows follow
        the bounds, then ``rects``, then the drone box around ``drone_centers[f]``,
        and are False only where no ray of the fan can hit (``_fan_may_hit``).
        ``origins`` or ``drone_centers`` may be one (1, 3) row shared by every fan.

        A ray hits a rectangle at z0 only when it points toward the plane
        (``_ray_rect_z`` needs t > 0). A ray's z is cos(b) u_z + sin(b) v_z =
        rho cos(b - beta), below zero on an open half-circle of b. An arc of
        elevations shorter than pi cannot hold that half-circle strictly inside,
        so one of its ends lies on it whenever any of its rays does: a fan
        narrower than pi is kept when an end ray points toward the plane.
        """
        lo, hi = beams.min(), beams.max()
        spread = (hi - lo) / 2.0
        axes = np.cos((hi + lo) / 2.0) * u + np.sin((hi + lo) / 2.0) * v
        (ux, uy, uz), (vx, vy, vz) = u.T, v.T
        normals = np.array([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx]).T
        n_bounds = len(self.bound_radii)
        rows = np.zeros((n_bounds + len(self.rects) + 1, len(u)), dtype=bool)
        rows[:n_bounds] = _fan_may_hit(origins, axes, normals, self.bound_centers[:, None],
                                       self.bound_radii[:, None], spread)
        down = up = True
        if spread < np.pi / 2.0:
            z_lo, z_hi = np.cos(lo) * uz + np.sin(lo) * vz, np.cos(hi) * uz + np.sin(hi) * vz
            down = np.minimum(z_lo, z_hi) <= _FAN_SLACK
            up = np.maximum(z_lo, z_hi) >= -_FAN_SLACK
        oz = origins[:, 2]
        for k, rect in enumerate(self.rects, start=n_bounds):
            rows[k] = ((oz > rect[0]) & down) | ((oz < rect[0]) & up)
        if drone_centers is not None and drone_half > 0.0:
            rows[-1] = _fan_may_hit(origins, axes, normals, drone_centers,
                                    _pad(np.sqrt(3.0) * drone_half), spread)
        return Fans(rows, origins, axes, normals, spread)

    def nearest_hit(self, origins, dirs, drone_centers=None, drone_half: float = 0.0,
                    fans=None):
        """Smallest positive hit distance per ray (inf = no hit).

        ``origins`` and ``dirs`` are (n, 3) in any layout; the cast passes the
        transposes of C-ordered (3, n) per-axis rows, which are read without a
        copy, and every gather takes whole rows (``np.take(rows, sel, axis=1)``).
        ``origins`` may be one (1, 3) row shared by every ray, which is broadcast,
        never repeated; so are n rows of zero stride (``np.broadcast_to``).
        ``fans``, if given, is ``fan_candidates``' ``Fans`` for the F fans whose
        rays these are, laid out fan by fan, ``len(dirs) // F`` rays per fan;
        ``drone_centers`` then holds one centre per fan, or one shared row.
        Without ``fans`` each ray is a fan of its own, with its own (or the
        shared) drone centre: ``fan_candidates`` with the ray as u, a zero v and one
        beam at elevation 0 gives axis the ray, zero normal and spread 0. A
        non-finite origin, direction or drone centre then raises ``ValueError``.

        Each exact test runs on every ray of the fans its row keeps: each box
        and the drone box on the fans of their rows, each sphere of a group on
        the fans that its group's row and ``_sphere_fans`` keep. Ground
        rectangles are tested on every ray, since most rays cast lie in fans
        whose rectangle row is kept (90 % on exp1, 64 % on exp2), and a gather
        of only those rays replayed slower. No ray that can hit is dropped (see
        ``_fan_may_hit``), so ``t`` is the same, bit for bit, as testing every
        ray against every primitive.
        """
        if len(origins) > 1 and origins.strides[0] == 0:
            origins = origins[:1]
        if fans is None:
            if not all(np.isfinite(a).all() for a in (origins, dirs, drone_centers)
                       if a is not None):
                raise ValueError("ray origins, directions and drone centres must be finite")
            fans = self.fan_candidates(origins, dirs, np.zeros_like(dirs), np.zeros(1),
                                       drone_centers, drone_half)
        o, d = np.ascontiguousarray(origins.T), np.ascontiguousarray(dirs.T)
        per_fan = len(dirs) // max(len(fans.axes), 1)
        t = np.full(len(dirs), np.inf)
        for g, lo, hi in self.boxes:
            _box_hits(o, d, _fan_rays(np.flatnonzero(fans.rows[g]), per_fan), lo, hi, t)
        spheres = [group for group in self.sphere_groups if fans.rows[group[0]].any()]
        if spheres:
            sphere, fan = _sphere_fans(self.sphere_centers, _pad(self.sphere_radii), spheres, fans)
            _ray_spheres(o, d, self.sphere_centers, self.sphere_radii,
                         np.repeat(sphere, per_fan), _fan_rays(fan, per_fan), t)
        for z0, cx, cy, hx, hy in self.rects:
            t = np.minimum(t, _ray_rect_z(o.T, d.T, z0, cx, cy, hx, hy))
        if drone_centers is not None and drone_half > 0.0:
            ray = _fan_rays(np.flatnonzero(fans.rows[-1]), per_fan)
            c = _rows(drone_centers, ray // per_fan)
            _box_hits(o, d, ray, c - drone_half, c + drone_half, t)
        return t


def _fan_rays(fan, per_fan):
    """Indices of the rays of the fans ``fan`` (indices), fans laid out in turn."""
    return (fan[:, None] * per_fan + np.arange(per_fan)).ravel()


def _rows(a, k, axis=0):
    """``np.take(a, k, axis)``, or ``a`` itself when it holds one row shared by all."""
    return a if a.shape[axis] == 1 else np.take(a, k, axis=axis)


def _box_hits(o, d, ray, lo, hi, t):
    """Lower ``t`` at the rays ``ray`` (indices) to their ``_ray_box`` hits on the
    box ``lo`` to ``hi``, one box or one per ray; rays are gathered from the (3, n)
    rows ``o`` (or its one shared column) and ``d``."""
    if len(ray):
        t[ray] = np.minimum(t[ray], _ray_box(_rows(o, ray, axis=1).T,
                                             np.take(d, ray, axis=1).T, lo, hi))


def _sphere_fans(centers, radii, groups, fans):
    """(sphere, fan) index pairs that ``_fan_may_hit`` keeps, of the spheres at
    ``centers`` with the padded ``radii`` and ``fans``; the spheres ``first`` to
    ``end`` are paired only with the fans that row ``group`` of ``fans.rows``
    keeps, for each (group, first, end) of ``groups``. A plane pass over those
    pairs runs first, |c.n - o.n| <= r + ``_FAN_SLACK`` (|o| + |c| + r + 1) with
    |c| + r taken at its largest over the group: ``_fan_may_hit``'s plane test
    with a wider slack (see there). A fan of one ray, marked by a zero normal,
    passes both plane tests."""
    o, n = fans.origins, fans.normals
    along = o[:, 0] * n[:, 0] + o[:, 1] * n[:, 1] + o[:, 2] * n[:, 2]
    slack = _FAN_SLACK * np.sqrt(o[:, 0] * o[:, 0] + o[:, 1] * o[:, 1] + o[:, 2] * o[:, 2])
    reach = _FAN_SLACK * (np.sqrt(np.square(centers).sum(axis=1)) + (radii + 1.0))
    sphere, fan = [], []
    for g, first, end in groups:
        kept = np.flatnonzero(fans.rows[g])
        r = radii[first:end, None]
        s, f = np.nonzero(np.abs(centers[first:end] @ n[kept].T - along[kept])
                          <= r + (_rows(slack, kept) + reach[first:end].max()))
        sphere.append(first + s)
        fan.append(kept[f])
    sphere, fan = np.concatenate(sphere), np.concatenate(fan)
    near = _fan_may_hit(_rows(o, fan), fans.axes[fan], n[fan], centers[sphere], radii[sphere],
                        fans.spread)
    return sphere[near], fan[near]


def _pad(radius):
    """Bounding radius grown so rounding in the exact tests cannot escape it."""
    return radius * (1.0 + _BOUND_PAD) + _BOUND_PAD


def _fan_may_hit(origins, axes, normals, centers, radius, spread):
    """Fan phase: True where a ray of a fan may meet a sphere at a positive distance.

    A fan's rays leave ``origins`` in the plane of unit normal ``normals``,
    within ``spread`` rad of the unit ``axes``; the arrays broadcast. With
    w = center - origin, a ray meets the sphere only if the plane does,
    |w.normal| <= r, and only if the origin is inside or angle(d, w) <=
    asin(r / |w|), so a fan's ray has angle(axis, w) <= s + asin(r / |w|).
    While that sum is below pi, which s < pi/2 ensures, this reads
    w.axis >= cos(s) sqrt(|w|^2 - r^2) - sin(s) r, squared here; a fan of
    s >= pi/2 gets the plane test alone. A zero normal marks a fan of one
    ray (s = 0), which lies in every plane: the plane test passes and the
    cone test is the ray's own. The radius is grown by the slack
    ``_FAN_SLACK (|w| + r + 1)`` and the slack is subtracted from the
    threshold; that covers a computed ray's distance from its fan's plane
    (a few ulps of its length) and the rounding of the axis, the normal and
    this test.

    ``nearest_hit`` runs the exact tests on every ray of the fans this test
    keeps for a primitive's padded bounding sphere: a box's, a sphere
    group's, the drone box's and, in ``_sphere_fans``, each sphere's own. That drops no ray that can
    hit. The exact tests find a hit only on a ray that comes within the
    primitive's bound at a positive distance, up to their rounding: ``_pad``
    covers the slab test's (a few ulps of |w|), and the sphere test's, the
    square root of its rounding of |w|^2, reaches a few 1e-8 |w| past r,
    under a tenth of the slack. The plane pass of ``_sphere_fans`` widens
    the plane test alone: its slack holds |c| + |o| >= |w| and |c| + r at
    their largest over the blob, and its rounding of c.n - o.n, a few 1e-16
    (|c| + |o|), lies far inside that slack. Each (ray, primitive) distance
    is computed as without culling, so the minimum has the same bits.
    """
    wx, wy, wz = (centers[..., i] - origins[..., i] for i in range(3))
    dist2 = wx * wx + wy * wy + wz * wz
    slack = _FAN_SLACK * (np.sqrt(dist2) + (radius + 1.0))
    radius = radius + slack
    near = np.abs(wx * normals[..., 0] + wy * normals[..., 1] + wz * normals[..., 2]) <= radius
    if spread >= np.pi / 2.0:
        return near
    ahead = (wx * axes[..., 0] + wy * axes[..., 1] + wz * axes[..., 2]
             + np.sin(spread) * radius + slack)
    # max(ahead, 0)^2 >= gap: gap <= 0, or ahead >= 0 and ahead^2 >= gap
    gap = np.cos(spread) ** 2 * (dist2 - radius * radius)
    return near & (np.square(np.maximum(ahead, 0.0)) >= gap)


def _ray_spheres(o, d, centers, radii, sphere, ray, t):
    """Lower ``t`` to each ray's nearest positive hit on the spheres (``centers``
    (m, 3), ``radii``) over the (``sphere``, ``ray``) index pairs; rays are
    gathered from the (3, n) rows ``o`` (or its one shared column) and ``d``."""
    # Per-axis products summed as (x + z) + y: numpy's einsum kernel adds a
    # length-3 contraction in that order, so the bits match einsum's
    # "mnd,nd->mn" and "mnd,mnd->mn" on the (m, n, 3) offsets; (x + y) + z would not.
    if not len(ray):
        return
    ox, oy, oz = (_rows(o[i], ray) - np.take(centers[:, i], sphere) for i in range(3))
    dx, dy, dz = (np.take(d[i], ray) for i in range(3))
    b = (ox * dx + oz * dz) + oy * dy
    c = ((ox * ox + oz * oz) + oy * oy) - np.take(radii ** 2, sphere)
    disc = b * b - c
    hit = np.flatnonzero(disc >= 0.0)
    b, sq = b[hit], np.sqrt(disc[hit])
    t1 = -b - sq
    t2 = -b + sq
    np.minimum.at(t, ray[hit], np.where(t1 > _RAY_EPS, t1, np.where(t2 > _RAY_EPS, t2, np.inf)))


def _ray_box(origins, dirs, lo, hi):
    """Slab test, axis by axis: (n, 3) ``origins`` and ``dirs`` in any layout,
    ``lo`` and ``hi`` (3,) or (n, 3). The slabs' max and min are taken over the
    axes in turn, exact like a reduction over axis 1."""
    t_near, t_far = -np.inf, np.inf
    for i in range(3):
        di = np.where(dirs[:, i] == 0.0, 1e-300, dirs[:, i])
        t1 = (lo[..., i] - origins[:, i]) / di
        t2 = (hi[..., i] - origins[:, i]) / di
        t_near = np.maximum(t_near, np.minimum(t1, t2))
        t_far = np.minimum(t_far, np.maximum(t1, t2))
    hit = (t_far >= t_near) & (t_near > _RAY_EPS)
    return np.where(hit, t_near, np.inf)


def _ray_rect_z(origins, dirs, z0, cx, cy, hx, hy):
    dz = np.where(dirs[:, 2] == 0.0, 1e-300, dirs[:, 2])
    t = (z0 - origins[:, 2]) / dz
    px = origins[:, 0] + t * dirs[:, 0]
    py = origins[:, 1] + t * dirs[:, 1]
    hit = (t > _RAY_EPS) & (np.abs(px - cx) <= hx) & (np.abs(py - cy) <= hy)
    return np.where(hit, t, np.inf)


def _cast(scene, trajectories, lidar, t0, duration, angle_fn, drone, rng):
    """Shared ray-casting loop.

    Beam b of a firing points cos(b) u + sin(b) v, with u = R (sin a cos phi,
    sin a sin phi, cos a) and v = R (-sin phi, cos phi, 0) for the vehicle
    rotation R, spin angle a and motor angle phi, so the firing is a fan in
    one plane. Each block of ``_BLOCK_FIRINGS`` firings is one pass: one
    ``Scene.fan_candidates`` call culls its fans, and rays are built only for
    the firings it keeps and cast in one ``nearest_hit`` call. A dropped firing
    has no return and draws no noise, and ``rng.normal`` gives the same stream
    in one call or several, so the points match a cast of every firing.

    Ray data stays in per-axis rows: R as nine (F,) rows (floats while the
    vehicle rotation is constant), origins and directions as (3, n) rows whose
    transposes go to ``nearest_hit``, and each block's returns written into one
    output array, of which only the pages the returns land on are touched.
    A block's one row from ``position_rows`` is broadcast, never repeated per
    firing or ray (the origin as a zero-stride view of the rays' count).
    """
    if lidar.range_noise > 0.0 and rng is None:
        raise ValueError("range noise requires an rng")
    n_firings = int(np.floor(duration / lidar.firing_interval + 1e-9))
    beams = lidar.beam_elevations
    n_beams = len(beams)
    sb, cb = np.sin(beams), np.cos(beams)
    pose = trajectories.vehicle.pose_at(t0)
    drone_half = drone.width / 2.0 if drone is not None else 0.0

    points = np.empty((n_firings * n_beams, 3))
    n_points = 0
    for block in range(0, n_firings, _BLOCK_FIRINGS):
        idx = np.arange(block, min(block + _BLOCK_FIRINGS, n_firings))
        times = t0 + idx * lidar.firing_interval
        alpha = idx * lidar.azimuth_step
        sa, ca = np.sin(alpha), np.cos(alpha)
        phi = angle_fn(times)
        cp, sp = np.cos(phi), np.sin(phi)
        rot = trajectories.vehicle.rotation_rows(times)
        veh_pos = trajectories.vehicle.position_rows(times)
        drone_pos = trajectories.drone.position_rows(times) if drone is not None else None

        sa_cp, sa_sp = sa * cp, sa * sp
        u = np.array([r0 * sa_cp + r1 * sa_sp + r2 * ca for r0, r1, r2 in rot]).T
        v = np.array([r1 * cp - r0 * sp for r0, r1, _ in rot]).T
        fans = scene.fan_candidates(veh_pos, u, v, beams, drone_pos, drone_half)
        k = np.flatnonzero(fans.rows.any(axis=0))
        # Motor-frame directions, then the rotation by R written out as
        # (R_i0 x + R_i2 z) + R_i1 y: the order in which einsum's kernel sums
        # "fij,fbj->fbi", so the bits are the same.
        sa_cb = sa[k, None] * cb
        x = sa_cb * cp[k, None] - sb * sp[k, None]
        y = sa_cb * sp[k, None] + sb * cp[k, None]
        z = ca[k, None] * cb
        rot_k = rot if isinstance(rot, list) else rot[:, :, k, None]
        dirs = np.empty((3, len(k), n_beams))
        for i, (r0, r1, r2) in enumerate(rot_k):
            dirs[i] = (r0 * x + r2 * z) + r1 * y
        dirs = dirs.reshape(3, -1)
        origins = veh_pos.T if len(veh_pos) == 1 else np.repeat(veh_pos.T[:, k], n_beams, axis=1)
        drone_centers = _rows(drone_pos, k) if drone is not None else None

        t_hit = scene.nearest_hit(np.broadcast_to(origins.T, dirs.T.shape), dirs.T,
                                  drone_centers, drone_half, fans.take(k))
        hit = np.flatnonzero(np.isfinite(t_hit) & (t_hit <= lidar.max_range))
        ranges = t_hit[hit]
        if lidar.range_noise > 0.0 and len(ranges):
            ranges = ranges + rng.normal(0.0, lidar.range_noise, size=len(ranges))
            keep = (ranges > 0.0) & (ranges <= lidar.max_range)
            hit, ranges = hit[keep], ranges[keep]
        # (o_i + r d_i) - a_i per axis into a C-ordered (m, 3) array, then one matmul
        rel = np.empty((len(hit), 3))
        np.subtract(_rows(origins, hit, axis=1) + ranges * np.take(dirs, hit, axis=1),
                    pose.translation[:, None], out=rel.T)
        np.matmul(rel, pose.rotation, out=points[n_points:n_points + len(hit)])
        n_points += len(hit)

    return ScanFrame(points[:n_points], t0, t0 + duration, pose)


def simulate_full_scan(scene, trajectories, lidar, angular_velocity, t0, drone=None,
                       rng=None) -> ScanFrame:
    """One detection sweep: the motor turns by pi at ``angular_velocity``, covering the sphere."""
    def angle_fn(ts):
        return angular_velocity * (ts - t0)

    return _cast(scene, trajectories, lidar, t0, np.pi / angular_velocity, angle_fn, drone, rng)


def simulate_vibration_frame(scene, trajectories, lidar, center, amplitude, period, t0,
                             drone=None, rng=None) -> ScanFrame:
    """One tracking frame of ``period`` s: the motor bounces +-amplitude around ``center``."""
    def angle_fn(ts):
        u = ((ts - t0) / period) % 1.0
        tri = np.where(u < 0.25, 4.0 * u, np.where(u < 0.75, 2.0 - 4.0 * u, 4.0 * u - 4.0))
        return center + amplitude * tri

    return _cast(scene, trajectories, lidar, t0, period, angle_fn, drone, rng)


def _perturb_direction(direction, sigma, rng):
    """Tilt a unit vector by |N(0, sigma)| about a random orthogonal axis; no draw at sigma <= 0."""
    if sigma <= 0.0:
        return direction.copy()
    rng = np.random.default_rng(rng)
    while True:
        raw = rng.normal(size=3)
        ortho = raw - raw.dot(direction) * direction
        n = math.sqrt(ortho.dot(ortho))     # np.linalg.norm of a vector, without its wrapper
        if n > 1e-9:
            break
    angle = abs(rng.normal(0.0, sigma))
    return rotation_about_axis(ortho / n, angle) @ direction


def observe_vds(camera_pose: Pose, model: IndirectObsModel, rng=None) -> np.ndarray:
    """Vanishing directions of the world axes as seen by one camera.

    Columns are the world X, Y and Z axes rotated into the camera frame
    (the columns of the camera rotation's transpose), each tilted by
    angular noise; with ``scramble`` on, column order and signs are
    randomized the way an unlabeled detector would return them.
    """
    if model.vd_noise > 0.0 or model.scramble:
        rng = np.random.default_rng(rng)
    cols = camera_pose.rotation.T.copy()
    if model.vd_noise > 0.0:
        for i in range(3):
            col = _perturb_direction(cols[:, i], model.vd_noise, rng)
            cols[:, i] = col / math.sqrt(col.dot(col))     # contiguous, as np.linalg.norm reads it
    if model.scramble:
        perm = rng.permutation(3)
        cols = cols[:, perm] * _SIGNS[rng.integers(0, 2, size=3)]     # rng.choice's bits and draws
    return cols


def observe_ego_direction(pose_i: Pose, pose_j: Pose, sigma: float = 0.0,
                          rng=None) -> np.ndarray | None:
    """Drone-frame unit direction of travel between two of its poses.

    Matches what a scale-free visual-odometry solver yields: direction
    only, expressed in the frame-i camera coordinates. None when the drone
    has not moved, before any draw from ``rng``.
    """
    delta = pose_j.translation - pose_i.translation
    n = math.sqrt(delta.dot(delta))
    if n < 1e-12:
        return None
    return _perturb_direction(pose_i.rotation.T @ (delta / n), sigma, rng)
