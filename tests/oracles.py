"""Independent reference implementations used to cross-check the library.

These deliberately avoid the production code paths: the detector oracle
evaluates every non-zero pixel with per-candidate coordinate grids and
explicit bounds handling (no shared padding, no size grouping), and the
mean-shift oracle iterates plain Python arithmetic with exact fsum.

The cast oracle is the simulator's ray-casting loop as it was before its
per-chunk work was cut: one ``rotation_log`` per trajectory segment and
chunk, and one einsum over all three direction axes. It shares
``Scene.nearest_hit`` and ``positions_at`` with the library and pins the
bits of everything the rewrite touched.
"""

import math
from itertools import permutations, product

import numpy as np

from dronepose.geom import rotation_log
from dronepose.scan_sim import _CHUNK_FIRINGS, ScanFrame


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


def reference_cast(scene, trajectories, lidar, t0, duration, angle_fn, drone, rng):
    """``scan_sim._cast`` with the same signature, in its per-chunk form."""
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

        veh_rot = reference_rotations_at(trajectories.vehicle, times)
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
