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

from dataclasses import dataclass, field

import numpy as np

from .geom import Pose, _vec, is_rotation, rotation_about_axis, rotation_log

_RAY_EPS = 1e-9
_BOUND_PAD = 1e-6     # relative and absolute (m) growth of bounding spheres
_CHUNK_FIRINGS = 512


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
        if np.any(self.dimensions <= 0.0):
            raise ValueError("primitive dimensions must be > 0")
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
        if self.width <= 0.0:
            raise ValueError("drone width must be > 0")


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
        if self.azimuth_step <= 0.0:
            raise ValueError("azimuth_step must be > 0")
        if self.range_noise < 0.0:
            raise ValueError("range_noise must be >= 0")
        if self.max_range <= 0.0 or self.points_per_second <= 0.0:
            raise ValueError("max_range and points_per_second must be > 0")

    @property
    def firing_interval(self) -> float:
        """Seconds between firings; all beams fire together."""
        return len(self.beam_elevations) / self.points_per_second


@dataclass
class ScanFrame:
    """Returns of one sweep or vibration period, vehicle frame at t_start.

    Each return was cast from the poses at its firing's emission time;
    the frame keeps only its interval, not per-point times.
    """

    points: np.ndarray     # (n, 3) m
    t_start: float
    t_end: float

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
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        if len(self.times) != len(self.positions) or len(self.times) != len(self.rotations):
            raise ValueError("waypoint arrays must have equal length")
        for r in self.rotations:
            if not is_rotation(r, tol=1e-6):
                raise ValueError("waypoint rotation is not a proper rotation")

    def positions_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.stack([np.interp(ts, self.times, self.positions[:, i]) for i in range(3)], axis=1)

    def position_at(self, t: float) -> np.ndarray:
        return self.positions_at([t])[0]

    def rotations_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        seg = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(self.times) - 2)
        t0 = self.times[seg]
        t1 = self.times[seg + 1]
        u = np.clip((ts - t0) / (t1 - t0), 0.0, 1.0)
        out = np.empty((len(ts), 3, 3))
        for s in np.unique(seg):
            sel = seg == s
            r0 = self.rotations[s]
            rv = rotation_log(r0.T @ self.rotations[s + 1])
            theta = float(np.linalg.norm(rv))
            if theta < 1e-12:
                out[sel] = r0
                continue
            x, y, z = rv / theta
            k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
            k2 = k @ k
            ang = u[sel] * theta
            blend = (np.eye(3)[None] + np.sin(ang)[:, None, None] * k
                     + (1.0 - np.cos(ang))[:, None, None] * k2)
            out[sel] = np.einsum("ij,njk->nik", r0, blend)
        return out

    def rotation_at(self, t: float) -> np.ndarray:
        return self.rotations_at([t])[0]

    def pose_at(self, t: float) -> Pose:
        return Pose(self.rotation_at(t), self.position_at(t))


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
        if self.vd_noise < 0.0 or self.ego_noise < 0.0:
            raise ValueError("noise sigmas must be >= 0")


class Scene:
    """Static primitives compiled to closed-form shapes for ray casting.

    Blob scatter is materialized from (seed, primitive index) so a
    scene rebuilds identically; rays starting inside a primitive yield
    no return from it.

    Each box and each blob also gets an enclosing sphere, inflated by
    ``_BOUND_PAD``, and ``nearest_hit`` runs a primitive's exact test only
    on the rays that can meet its sphere (bounding-volume culling, Kay &
    Kajiya, SIGGRAPH 1986). Every (ray, primitive) distance is computed
    as without culling and the minimum is exact, so returns are
    bit-identical.
    """

    def __init__(self, primitives, seed: int = 0):
        self.primitives = list(primitives)
        centers, radii = [], []
        lone = []                 # indices of standalone spheres in ``centers``
        self.groups = []          # (exact test, arg, arg) for each bounded primitive
        bounds = []               # (center, radius) of the sphere enclosing each group
        self.rects = []
        for idx, prim in enumerate(self.primitives):
            if prim.kind == "sphere":
                lone.append(len(centers))
                centers.append(prim.center)
                radii.append(prim.dimensions[0] / 2.0)
            elif prim.kind == "box":
                half = prim.dimensions / 2.0
                self.groups.append((_ray_box, prim.center - half, prim.center + half))
                bounds.append((prim.center, np.linalg.norm(half)))
            elif prim.kind == "ground_plane":
                self.rects.append((prim.center[2], prim.center[0], prim.center[1],
                                   prim.dimensions[0] / 2.0, prim.dimensions[1] / 2.0))
            elif prim.kind == "sparse_blob":
                rng = np.random.default_rng([int(seed), idx])
                raw = rng.normal(size=(prim.count, 3))
                raw /= np.linalg.norm(raw, axis=1, keepdims=True)
                dist = prim.scatter_radius * np.cbrt(rng.uniform(size=prim.count))
                pts = prim.center + raw * dist[:, None]
                r = prim.dimensions[0] / 2.0
                self.groups.append((_ray_spheres, pts, np.full(prim.count, r)))
                bounds.append((prim.center, prim.scatter_radius + r))
                centers.extend(pts)
                radii.extend([r] * prim.count)
        self.sphere_centers = np.asarray(centers, dtype=float).reshape(-1, 3)
        self.sphere_radii = np.asarray(radii, dtype=float)
        self.lone_centers = self.sphere_centers[lone]
        self.lone_radii = self.sphere_radii[lone]
        self.bound_centers = np.array([c for c, _ in bounds], dtype=float).reshape(-1, 3)
        self.bound_radii = _pad(np.array([r for _, r in bounds], dtype=float))

    def nearest_hit(self, origins, dirs, drone_centers=None, drone_half: float = 0.0):
        """Smallest positive hit distance per ray (inf = no hit)."""
        t = np.full(len(origins), np.inf)
        if len(self.lone_centers):
            t = np.minimum(t, _ray_spheres(origins, dirs, self.lone_centers, self.lone_radii))
        if self.groups:
            cand = _may_hit(origins[None] - self.bound_centers[:, None], dirs,
                            self.bound_radii[:, None])
            for (exact, a, b), rays in zip(self.groups, cand):
                sel = np.flatnonzero(rays)
                if len(sel):
                    t[sel] = np.minimum(t[sel], exact(origins[sel], dirs[sel], a, b))
        for z0, cx, cy, hx, hy in self.rects:
            t = np.minimum(t, _ray_rect_z(origins, dirs, z0, cx, cy, hx, hy))
        if drone_centers is not None and drone_half > 0.0:
            sel = np.flatnonzero(_may_hit(origins - drone_centers, dirs,
                                          _pad(np.sqrt(3.0) * drone_half)))
            if len(sel):
                c = drone_centers[sel]
                t[sel] = np.minimum(t[sel], _ray_box(origins[sel], dirs[sel],
                                                     c - drone_half, c + drone_half))
        return t


def _pad(radius):
    """Bounding radius grown so rounding in the exact tests cannot escape it."""
    return radius * (1.0 + _BOUND_PAD) + _BOUND_PAD


def _may_hit(offsets, dirs, radius):
    """Broad phase: True where a ray, given as origin minus sphere center
    and unit direction, can meet the sphere at a positive distance."""
    b = np.einsum("...d,...d->...", offsets, dirs)
    c = np.einsum("...d,...d->...", offsets, offsets) - radius * radius
    return (c <= 0.0) | ((b <= 0.0) & (b * b >= c))


def _ray_spheres(origins, dirs, centers, radii):
    oc = origins[None, :, :] - centers[:, None, :]
    b = np.einsum("mnd,nd->mn", oc, dirs)
    c = np.einsum("mnd,mnd->mn", oc, oc) - radii[:, None] ** 2
    disc = b * b - c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t1 = -b - sq
    t2 = -b + sq
    t = np.where(hit & (t1 > _RAY_EPS), t1,
                 np.where(hit & (t2 > _RAY_EPS), t2, np.inf))
    return t.min(axis=0)


def _ray_box(origins, dirs, lo, hi):
    d = np.where(dirs == 0.0, 1e-300, dirs)
    t1 = (lo - origins) / d
    t2 = (hi - origins) / d
    t_near = np.minimum(t1, t2).max(axis=1)
    t_far = np.maximum(t1, t2).min(axis=1)
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
    """Shared ray-casting loop; chunked over firings to bound memory."""
    if lidar.range_noise > 0.0 and rng is None:
        raise ValueError("range noise requires an rng")
    n_firings = int(np.floor(duration / lidar.firing_interval + 1e-9))
    beams = lidar.beam_elevations
    n_beams = len(beams)
    sb, cb = np.sin(beams), np.cos(beams)
    align_rot = trajectories.vehicle.rotation_at(t0)
    align_pos = trajectories.vehicle.position_at(t0)
    drone_half = drone.width / 2.0 if drone is not None else 0.0

    all_points = []
    for start in range(0, n_firings, _CHUNK_FIRINGS):
        idx = np.arange(start, min(start + _CHUNK_FIRINGS, n_firings))
        times = t0 + idx * lidar.firing_interval
        alpha = idx * lidar.azimuth_step
        sa, ca = np.sin(alpha), np.cos(alpha)
        dirs = np.empty((len(idx), n_beams, 3))
        dirs[:, :, 0] = sa[:, None] * cb[None, :]
        dirs[:, :, 1] = sb[None, :]
        dirs[:, :, 2] = ca[:, None] * cb[None, :]
        phi = angle_fn(times)
        cp, sp = np.cos(phi), np.sin(phi)
        x = dirs[:, :, 0] * cp[:, None] - dirs[:, :, 1] * sp[:, None]
        y = dirs[:, :, 0] * sp[:, None] + dirs[:, :, 1] * cp[:, None]
        dirs[:, :, 0] = x
        dirs[:, :, 1] = y

        veh_rot = trajectories.vehicle.rotations_at(times)
        dirs_world = np.einsum("fij,fbj->fbi", veh_rot, dirs).reshape(-1, 3)
        origins = np.repeat(trajectories.vehicle.positions_at(times), n_beams, axis=0)
        drone_centers = (np.repeat(trajectories.drone.positions_at(times), n_beams, axis=0)
                         if drone is not None else None)

        t_hit = scene.nearest_hit(origins, dirs_world, drone_centers, drone_half)
        ok = np.isfinite(t_hit) & (t_hit <= lidar.max_range)
        ranges = t_hit[ok]
        if lidar.range_noise > 0.0 and len(ranges):
            ranges = ranges + rng.normal(0.0, lidar.range_noise, size=len(ranges))
            keep = (ranges > 0.0) & (ranges <= lidar.max_range)
            ranges = ranges[keep]
        else:
            keep = slice(None)
        hits_world = origins[ok][keep] + ranges[:, None] * dirs_world[ok][keep]
        all_points.append((hits_world - align_pos) @ align_rot)

    points = np.concatenate(all_points) if all_points else np.empty((0, 3))
    return ScanFrame(points, t0, t0 + duration)


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
    """Tilt a unit vector by |N(0, sigma)| about a random orthogonal axis."""
    if sigma <= 0.0:
        return direction.copy()
    while True:
        raw = rng.normal(size=3)
        ortho = raw - np.dot(raw, direction) * direction
        n = np.linalg.norm(ortho)
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
    need_rng = model.vd_noise > 0.0 or model.scramble
    if need_rng:
        rng = np.random.default_rng(rng)
    cols = camera_pose.rotation.T.copy()
    if model.vd_noise > 0.0:
        for i in range(3):
            cols[:, i] = _perturb_direction(cols[:, i], model.vd_noise, rng)
            cols[:, i] /= np.linalg.norm(cols[:, i])
    if model.scramble:
        perm = rng.permutation(3)
        signs = rng.choice((-1.0, 1.0), size=3)
        cols = cols[:, perm] * signs[None, :]
    return cols


def observe_ego_direction(pose_i: Pose, pose_j: Pose, sigma: float = 0.0,
                          rng=None) -> np.ndarray:
    """Drone-frame unit direction of travel between two of its poses.

    Matches what a scale-free visual-odometry solver yields: direction
    only, expressed in the frame-i camera coordinates.
    """
    delta = pose_j.translation - pose_i.translation
    n = np.linalg.norm(delta)
    if n < 1e-12:
        raise ValueError("no motion between frames")
    direction = pose_i.rotation.T @ (delta / n)
    if sigma > 0.0:
        rng = np.random.default_rng(rng)
        direction = _perturb_direction(direction, sigma, rng)
    return direction
