"""Independent reference implementations used to cross-check the library.

These deliberately avoid the production code paths: the detector oracle
evaluates every non-zero pixel with per-candidate coordinate grids and
explicit bounds handling (no shared padding, no size grouping), and the
mean-shift oracle iterates plain Python arithmetic with exact fsum.

The ``reference_*`` estimator functions are the mean-shift support and the
rotation stages as they were before their per-call numpy work was cut
(a row-wise norm over every point, ``np.cross``, ``np.clip`` on scalars,
two norms per angle, ``np.linalg.det``); the library must match them bit
for bit.

``reference_observe_vds`` and ``reference_observe_ego_direction`` are the
simulated VD and ego-motion observations as they were before their numpy
wrappers were cut (``np.linalg.norm`` per vector, a fresh ``np.eye(3)`` in
Rodrigues' formula, the normalized column read back strided), and
``reference_is_rotation`` the rotation check in its matmul and
``np.linalg.det`` form: the library must give the same bits, the same RNG
stream and the same verdicts.

``reference_acquire`` is acquisition as it was before mean-shift read only
the rows in front of the image plane: the support is selected from the
whole sweep. ``reference_rotation_aligning_xy`` forms the heading's cross
and dot products on numpy scalars, as before they moved to Python floats.
The library must give their bits.

``reference_lower_bounds`` is the detector's lower bound as it was before
its passes over the whole crop were reordered: the integral image summed
along columns first, the tile maxima over both axes at once and the tile
minima over an ``np.where`` copy with empty cells set to inf. Only the
neighbourhood stack and the tile size are shared with the library. The
bounds must keep their bits.

The cast oracle is the simulator's ray-casting loop as it was before its
per-block work was cut: one ``rotation_log`` per trajectory segment and
block, one einsum over all three direction axes, and every ray of every
firing tested against every primitive (``dense_nearest_hit``, whose
ray-sphere test keeps its einsum form and whose slab test its broadcast
form). It shares no culling code with the library, only the
ground-rectangle test and ``positions_at``, and pins the bits of
everything the rewrites touched. ``reference_may_hit`` is the per-ray
bounding-sphere test that the library's culls must keep every ray of.
"""

import math
from itertools import permutations, product

import numpy as np

from dronepose.depth_image import project
from dronepose.detector import _TILE, _neighbourhood_stack, detect
from dronepose.geom import Pose, rotation_about_z, rotation_exp, rotation_log
from dronepose.scan_sim import _BLOCK_FIRINGS, _RAY_EPS, ScanFrame, _ray_rect_z
from dronepose.tracker import mean_shift_refine
from dronepose.vp_rot import MATCH_LIMIT, AmbiguousMatchError


def oracle_inner_size(depth, drone_width, focal, max_inner):
    raw = 2 * math.floor(drone_width * focal / depth / 2.0) + 1
    return min(max(raw, 1), max_inner)


def _window_values(data, v, u, half):
    """Row-major values of a square window; off-image cells read as 0."""
    n = data.shape[0]
    rng = np.arange(-half, half + 1)
    vv = v + rng[:, None] + np.zeros_like(rng)[None, :]
    uu = u + np.zeros_like(rng)[:, None] + rng[None, :]
    inside = (vv >= 0) & (vv < n) & (uu >= 0) & (uu < n)
    vals = np.where(inside, data[np.clip(vv, 0, n - 1), np.clip(uu, 0, n - 1)], 0.0)
    return vals.ravel()


def oracle_scores(data, v, u, params, focal):
    """(e, e_inner) for one candidate pixel, straight from the definitions."""
    d_c = float(data[v, u])
    k = oracle_inner_size(d_c, params.drone_width, focal, params.max_inner_px)
    half = (k - 1) // 2
    inner_vals = _window_values(data, v, u, half)
    inner_diffs = np.abs(inner_vals - d_c)
    if params.inner_skip_empty:     # lenient mode: an empty inner cell costs 0
        inner_diffs = np.where(inner_vals == 0.0, 0.0, inner_diffs)
    e_inner = float(np.sum(inner_diffs))

    band = params.outer_band_px
    side = k + 2 * band
    outer_all = _window_values(data, v, u, half + band)
    keep = np.ones(side * side, dtype=bool)
    grid = keep.reshape(side, side)
    grid[band: band + k, band: band + k] = False
    vals = outer_all[keep]
    diffs = np.abs(vals - d_c)
    with np.errstate(divide="ignore"):
        contrib = np.where(vals == 0.0, 0.0,
                           np.where(diffs <= params.depth_epsilon,
                                    1.0 / params.depth_epsilon, 1.0 / diffs))
    e_outer = float(np.sum(contrib))
    return e_inner + e_outer, e_inner


def reference_lower_bounds(crop, vs, us, depths, sizes, params):
    """``detector._lower_bounds`` in its column-first, two-axis, ``np.where`` form."""
    h, w = crop.shape
    occupied = np.zeros((h + 1, w + 1), dtype=np.int32)
    np.cumsum(np.cumsum(crop != 0.0, axis=0, dtype=np.int32), axis=1, out=occupied[1:, 1:])

    def count(half):
        r0, r1 = np.clip(vs - half, 0, h), np.clip(vs + half + 1, 0, h)
        c0, c1 = np.clip(us - half, 0, w), np.clip(us + half + 1, 0, w)
        return occupied[r1, c1] - occupied[r0, c1] - occupied[r1, c0] + occupied[r0, c0]

    half_in = (sizes - 1) // 2
    half_out = half_in + params.outer_band_px
    n_inner = count(half_in)
    n_band = count(half_out) - n_inner

    rows, cols = -(-h // _TILE), -(-w // _TILE)
    tiles = np.pad(crop, ((0, rows * _TILE - h), (0, cols * _TILE - w)))
    tiles = tiles.reshape(rows, _TILE, cols, _TILE)
    reach = -(-half_out // _TILE)
    hi = _neighbourhood_stack(tiles.max(axis=(1, 3)), int(reach.max()), np.maximum, 0.0)
    lo = _neighbourhood_stack(np.where(tiles == 0.0, np.inf, tiles).min(axis=(1, 3)),
                              int(reach.max()), np.minimum, np.inf)
    tv, tu = vs // _TILE, us // _TILE
    spread = np.maximum(hi[reach, tv, tu] - depths, depths - lo[reach, tv, tu])
    bound = n_band * (1.0 / np.maximum(params.depth_epsilon, spread))
    if not params.inner_skip_empty:
        bound += depths * (sizes * sizes - n_inner)
    return bound * (1.0 - 1e-9)


def oracle_detect(image, params, proj):
    """Scan every non-zero pixel; returns (pixel (u, v), e) of the argmin."""
    data = image.data
    n = data.shape[0]
    focal = proj.focal
    best = None
    for v in range(n):
        for u in range(n):
            if data[v, u] == 0.0:
                continue
            e, e_inner = oracle_scores(data, v, u, params, focal)
            cand = (e, e_inner, v, u)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    e, _, v, u = best
    return (u, v), e


def oracle_mean_shift(points, start, radius, bandwidth, iterations):
    """Plain-Python iterated weighted mean over the fixed neighborhood."""
    support = [tuple(map(float, p)) for p in points
               if math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, start))) <= radius]
    if not support:
        raise ValueError("empty neighborhood")
    est = [float(x) for x in start]
    for _ in range(iterations):
        weights = [math.exp(-sum((p[i] - est[i]) ** 2 for i in range(3)) / bandwidth)
                   for p in support]
        wsum = math.fsum(weights)
        est = [math.fsum(w * p[i] for w, p in zip(weights, support)) / wsum
               for i in range(3)]
    return np.array(est)


def _angle(a, b):
    c = np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0)
    return float(np.arccos(c))


def oracle_match(vehicle_vds, drone_vds, prior):
    """Exhaustive 3! * 2^3 assignment minimizing the residual sum."""
    moved = prior @ drone_vds
    best = None
    for perm in permutations(range(3)):
        for signs in product((1.0, -1.0), repeat=3):
            residuals = [_angle(vehicle_vds[:, i], signs[i] * moved[:, perm[i]])
                         for i in range(3)]
            cand = (sum(residuals), perm, signs, residuals)
            if best is None or cand[:3] < best[:3]:
                best = cand
    _, perm, signs, residuals = best
    return perm, signs, np.array(residuals)


def reference_acquire(frame, proj, kernel, params):
    """The locked position (None when nothing locks), refined on the whole sweep."""
    detection = detect(project(frame.points, proj), kernel, proj)
    return None if detection is None else mean_shift_refine(frame.points, detection.position, params)


def reference_rotation_aligning_xy(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    theta = np.arctan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])
    return rotation_about_z(float(theta))


def reference_support(points, center, radius):
    """The mean-shift support: every point within ``radius`` of ``center``, in order."""
    return points[np.linalg.norm(points - center, axis=1) <= radius]


def reference_mean_shift_refine(points, start, params, iterations=None):
    """mean_shift_refine's earlier numpy form: np.sum, ``-sq / bandwidth`` and
    ``weights.any()`` for the all-underflow case, on the row-wise norm support."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    estimate = np.asarray(start, dtype=float).copy()
    support = reference_support(pts, estimate, params.radius)
    if len(support) == 0:
        return None
    for _ in range(params.iterations if iterations is None else iterations):
        sq = np.sum((support - estimate) ** 2, axis=1)
        weights = np.exp(-sq / params.bandwidth)
        if not weights.any():
            weights = np.exp(-(sq - sq.min()) / params.bandwidth)
        estimate = (weights @ support) / np.sum(weights)
    return estimate


def reference_angle_between(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise ValueError("degenerate direction: zero-length input")
    return float(np.arccos(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)))


def reference_complete_vd(v1, v2):
    v1 = np.asarray(v1, dtype=float) / np.linalg.norm(v1)
    v2 = np.asarray(v2, dtype=float) / np.linalg.norm(v2)
    cross = np.cross(v1, v2)
    if np.linalg.norm(cross) <= np.sin(np.deg2rad(10.0)):
        raise ValueError("near-collinear vanishing directions")
    return np.column_stack([v1, v2, cross / np.linalg.norm(cross)])


def reference_match_vds(vehicle_vds, drone_vds, prior):
    """Greedy smallest-angle match; (permutation, signs, residuals)."""
    vg = np.asarray(vehicle_vds, dtype=float)
    moved = np.asarray(prior, dtype=float) @ np.asarray(drone_vds, dtype=float)
    angles = np.empty((3, 3, 2))
    for i in range(3):
        for k in range(3):
            a = reference_angle_between(vg[:, i], moved[:, k])
            angles[i, k, 0] = a
            angles[i, k, 1] = np.pi - a
    perm, signs, residuals = [0, 0, 0], [1.0, 1.0, 1.0], np.zeros(3)
    free_i, free_k = set(range(3)), set(range(3))
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
        perm[i], signs[i], residuals[i] = k, 1.0 if s == 0 else -1.0, ang
        free_i.remove(i)
        free_k.remove(k)
    return tuple(perm), tuple(signs), residuals


def reference_orthonormalize(rotation):
    u, _, vt = np.linalg.svd(np.asarray(rotation, dtype=float))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def reference_estimate_rotation(vehicle_vds, drone_vds, residuals):
    vg, vd = np.asarray(vehicle_vds, dtype=float), np.asarray(drone_vds, dtype=float)
    a, b = np.argsort(residuals, kind="stable")[:2]
    vg2 = reference_complete_vd(vg[:, a], vg[:, b])
    vd2 = reference_complete_vd(vd[:, a], vd[:, b])
    return reference_orthonormalize(vg2 @ np.linalg.inv(vd2))


def reference_rotation_log(rotation):
    r = np.asarray(rotation, dtype=float)
    cos_t = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_t))
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-7:
        return 0.5 * skew
    if theta > np.pi - 1e-5:
        m = (r + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(m)))
        axis = m[:, i] / np.sqrt(max(m[i, i], 1e-15))
        axis /= np.linalg.norm(axis)
        if np.dot(axis, skew) < 0.0:
            axis = -axis
        return axis * theta
    return skew * (theta / (2.0 * np.sin(theta)))


def reference_filter_rotation(rotation, max_rate, last_time, measured, t):
    """One rate-limited geodesic step; the new rotation."""
    rv = reference_rotation_log(rotation.T @ measured)
    theta, max_step = float(np.linalg.norm(rv)), max_rate * (t - last_time)
    stepped = (measured.copy() if theta <= max_step
               else rotation @ rotation_exp(rv * (max_step / theta)))
    return reference_orthonormalize(stepped)


def reference_is_rotation(rotation, tol=1e-9):
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    return (
        np.max(np.abs(r @ r.T - np.eye(3))) <= tol
        and abs(np.linalg.det(r) - 1.0) <= tol
    )


def reference_rotation_about_axis(axis, theta):
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("degenerate direction: zero-length axis")
    x, y, z = axis / n
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def reference_perturb_direction(direction, sigma, rng):
    if sigma <= 0.0:
        return direction.copy()
    while True:
        raw = rng.normal(size=3)
        ortho = raw - np.dot(raw, direction) * direction
        n = np.linalg.norm(ortho)
        if n > 1e-9:
            break
    angle = abs(rng.normal(0.0, sigma))
    return reference_rotation_about_axis(ortho / n, angle) @ direction


def reference_observe_vds(camera_pose, model, rng=None):
    need_rng = model.vd_noise > 0.0 or model.scramble
    if need_rng:
        rng = np.random.default_rng(rng)
    cols = camera_pose.rotation.T.copy()
    if model.vd_noise > 0.0:
        for i in range(3):
            cols[:, i] = reference_perturb_direction(cols[:, i], model.vd_noise, rng)
            cols[:, i] /= np.linalg.norm(cols[:, i])
    if model.scramble:
        perm = rng.permutation(3)
        signs = rng.choice((-1.0, 1.0), size=3)
        cols = cols[:, perm] * signs[None, :]
    return cols


def reference_observe_ego_direction(pose_i, pose_j, sigma=0.0, rng=None):
    delta = pose_j.translation - pose_i.translation
    n = np.linalg.norm(delta)
    if n < 1e-12:
        return None
    direction = pose_i.rotation.T @ (delta / n)
    if sigma > 0.0:
        rng = np.random.default_rng(rng)
        direction = reference_perturb_direction(direction, sigma, rng)
    return direction


def reference_rotations_at(traj, ts):
    """Geodesic rotation interpolation, relative rotation logged per call."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    seg = np.clip(np.searchsorted(traj.times, ts, side="right") - 1, 0, len(traj.times) - 2)
    t0 = traj.times[seg]
    t1 = traj.times[seg + 1]
    u = np.clip((ts - t0) / (t1 - t0), 0.0, 1.0)
    out = np.empty((len(ts), 3, 3))
    for s in np.unique(seg):
        sel = seg == s
        r0 = traj.rotations[s]
        rv = rotation_log(r0.T @ traj.rotations[s + 1])
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


def reference_ray_spheres(origins, dirs, centers, radii):
    """Nearest positive hit of each ray over all spheres, from einsums on the
    (m, n, 3) offsets."""
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


def reference_ray_box(origins, dirs, lo, hi):
    """Slab test on (n, 3) arrays by broadcasting, the column-wise max and min
    taken in turn."""
    d = np.where(dirs == 0.0, 1e-300, dirs)
    t1 = (lo - origins) / d
    t2 = (hi - origins) / d
    lo_t, hi_t = np.minimum(t1, t2), np.maximum(t1, t2)
    t_near = np.maximum(np.maximum(lo_t[:, 0], lo_t[:, 1]), lo_t[:, 2])
    t_far = np.minimum(np.minimum(hi_t[:, 0], hi_t[:, 1]), hi_t[:, 2])
    hit = (t_far >= t_near) & (t_near > _RAY_EPS)
    return np.where(hit, t_near, np.inf)


def reference_may_hit(origins, dirs, centers, radius):
    """Per-ray bounding-sphere test: True where a ray (origin, unit direction)
    can meet a sphere (center, radius) at a positive distance; the arrays
    broadcast. The spec that the fan and per-sphere culls must not undercut."""
    wx, wy, wz = (centers[..., i] - origins[..., i] for i in range(3))
    ahead = wx * dirs[..., 0] + wy * dirs[..., 1] + wz * dirs[..., 2]
    gap = wx * wx + wy * wy + wz * wz - radius * radius
    return (gap <= 0.0) | ((ahead >= 0.0) & (ahead * ahead >= gap))


def dense_nearest_hit(scene, origins, dirs, drone_centers=None, drone_half=0.0):
    """``Scene.nearest_hit`` without culling: every ray against every primitive,
    and against the drone box around its own ``drone_centers`` row."""
    t = np.full(len(origins), np.inf)
    if len(scene.sphere_centers):
        t = np.minimum(t, reference_ray_spheres(origins, dirs, scene.sphere_centers,
                                                scene.sphere_radii))
    for prim in scene.primitives:
        c, half = prim.center, prim.dimensions / 2.0
        if prim.kind == "box":
            t = np.minimum(t, reference_ray_box(origins, dirs, c - half, c + half))
        elif prim.kind == "ground_plane":
            t = np.minimum(t, _ray_rect_z(origins, dirs, c[2], c[0], c[1], half[0], half[1]))
    if drone_centers is not None and drone_half > 0.0:
        t = np.minimum(t, reference_ray_box(origins, dirs, drone_centers - drone_half,
                                            drone_centers + drone_half))
    return t


def reference_cast(scene, trajectories, lidar, t0, duration, angle_fn, drone, rng):
    """``scan_sim._cast`` with the same signature, in its per-block form."""
    if lidar.range_noise > 0.0 and rng is None:
        raise ValueError("range noise requires an rng")
    n_firings = int(np.floor(duration / lidar.firing_interval + 1e-9))
    beams = lidar.beam_elevations
    n_beams = len(beams)
    sb, cb = np.sin(beams), np.cos(beams)
    align_rot = reference_rotations_at(trajectories.vehicle, [t0])[0]
    align_pos = trajectories.vehicle.position_at(t0)
    drone_half = drone.width / 2.0 if drone is not None else 0.0

    all_points = []
    for start in range(0, n_firings, _BLOCK_FIRINGS):
        idx = np.arange(start, min(start + _BLOCK_FIRINGS, n_firings))
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

        veh_rot = reference_rotations_at(trajectories.vehicle, times)
        dirs_world = np.einsum("fij,fbj->fbi", veh_rot, dirs).reshape(-1, 3)
        origins = np.repeat(trajectories.vehicle.positions_at(times), n_beams, axis=0)
        drone_centers = (np.repeat(trajectories.drone.positions_at(times), n_beams, axis=0)
                         if drone is not None else None)

        t_hit = dense_nearest_hit(scene, origins, dirs_world, drone_centers, drone_half)
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
    return ScanFrame(points, t0, t0 + duration, Pose(align_rot, align_pos))
