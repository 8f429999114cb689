"""Independent reference implementations used to cross-check the library.

These deliberately avoid the production code paths: the detector oracle
evaluates every non-zero pixel with per-candidate coordinate grids and
explicit bounds handling (no shared padding, no size grouping), and the
mean-shift oracle iterates plain Python arithmetic with exact fsum.
"""

import math
from itertools import permutations, product

import numpy as np


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
