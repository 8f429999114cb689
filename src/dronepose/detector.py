"""Initial drone detection in a sparse depth image.

Every non-zero pixel is scored as a candidate target center with a
two-part kernel: an inner square sized to the expected apparent width
of the drone at the candidate's depth, which should be uniformly
filled at that depth, and a surrounding band that should be empty.
The candidate with the lowest combined dissimilarity wins.

Pixels off the image edge are treated as empty: they take the maximal
per-pixel penalty inside the inner square and contribute nothing in
the outer band, so edge-clipped candidates are disfavored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depth_image import DepthImage, ProjectionParams, unproject

_TILE = 8      # px, side of the tiles whose depth range bounds a window's spread


class NoCandidatesError(ValueError):
    """Raised when the depth image contains no non-zero pixel."""


@dataclass
class KernelParams:
    drone_width: float = 0.5       # m, assumed physical target width
    outer_band_px: int = 20        # band width around the inner square, pixels
    depth_epsilon: float = 0.1     # m, floor for the similarity penalty
    max_inner_px: int = 101        # cap on the inner square side, odd
    inner_skip_empty: bool = False  # lenient mode: empty inner pixels cost 0

    def __post_init__(self):
        if self.drone_width <= 0.0:
            raise ValueError("drone_width must be > 0")
        if self.outer_band_px < 1:
            raise ValueError("outer_band_px must be >= 1")
        if self.depth_epsilon <= 0.0:
            raise ValueError("depth_epsilon must be > 0")
        if self.max_inner_px < 1 or self.max_inner_px % 2 == 0:
            raise ValueError("max_inner_px must be odd and >= 1")


@dataclass
class Detection:
    pixel: tuple        # (u, v)
    depth: float        # m, at the winning pixel
    dissimilarity: float
    position: np.ndarray  # vehicle frame, m


def _window(padded: np.ndarray, v: int, u: int, half: int, pad: int) -> np.ndarray:
    vc, uc = v + pad, u + pad
    return padded[vc - half: vc + half + 1, uc - half: uc + half + 1]


def _inner_term(window: np.ndarray, center_depth: float, skip_empty: bool) -> float:
    diffs = np.abs(window - center_depth)
    if skip_empty:
        diffs = np.where(window == 0.0, 0.0, diffs)
    return float(np.sum(diffs))


def _outer_term(values: np.ndarray, center_depth: float, epsilon: float) -> float:
    # values: band pixels in row-major order; empty pixels cost 0, pixels
    # near the candidate depth cost 1/epsilon, others 1/|depth difference|.
    diffs = np.abs(values - center_depth)
    with np.errstate(divide="ignore"):
        contrib = np.where(
            values == 0.0,
            0.0,
            np.where(diffs <= epsilon, 1.0 / epsilon, 1.0 / diffs),
        )
    return float(np.sum(contrib))


def _band_mask(inner: int, band: int) -> np.ndarray:
    side = inner + 2 * band
    mask = np.ones((side, side), dtype=bool)
    mask[band: band + inner, band: band + inner] = False
    return mask


def _inner_sizes(depths: np.ndarray, params: KernelParams, proj: ProjectionParams) -> np.ndarray:
    """Inner square side per depth, pixels: 2*floor((s*f/Z)/2) + 1, clipped to [1, max]."""
    raw = 2.0 * np.floor(params.drone_width * proj.focal / depths / 2.0) + 1.0
    return np.clip(raw, 1, params.max_inner_px).astype(np.intp)


def _neighbourhood_stack(grid: np.ndarray, reach: int, op, fill: float) -> np.ndarray:
    """``[r]`` is ``op`` over the (2r+1)^2 cells around each cell, r = 0..reach."""
    out = [grid]
    for _ in range(reach):
        g = np.pad(out[-1], 1, constant_values=fill)
        g = op(op(g[:-2], g[1:-1]), g[2:])
        out.append(op(op(g[:, :-2], g[:, 1:-1]), g[:, 2:]))
    return np.stack(out)


def _lower_bounds(crop: np.ndarray, vs: np.ndarray, us: np.ndarray, depths: np.ndarray,
                  sizes: np.ndarray, params: KernelParams) -> np.ndarray:
    """A lower bound on every candidate's ``e_inner + e_outer``, vectorized.

    ``vs``, ``us`` index the candidates in ``crop``; every cell outside
    ``crop`` must be empty. Inner term: each empty cell costs exactly the
    center depth. Outer term: each non-empty band cell costs at least
    1/max(epsilon, spread), where the spread bounds |depth - center depth|
    over the window, read from the depth range of the tiles around it.
    Counts come from one integral image. The final (1 - 1e-9) factor covers
    the rounding of the exact sums, whose terms are all >= 0.
    """
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
    reach = -(-half_out // _TILE)    # tiles around the candidate's tile that hold its window
    hi = _neighbourhood_stack(tiles.max(axis=(1, 3)), int(reach.max()), np.maximum, 0.0)
    lo = _neighbourhood_stack(np.where(tiles == 0.0, np.inf, tiles).min(axis=(1, 3)),
                              int(reach.max()), np.minimum, np.inf)
    tv, tu = vs // _TILE, us // _TILE
    spread = np.maximum(hi[reach, tv, tu] - depths, depths - lo[reach, tv, tu])
    bound = n_band * (1.0 / np.maximum(params.depth_epsilon, spread))
    if not params.inner_skip_empty:
        bound += depths * (sizes * sizes - n_inner)
    return bound * (1.0 - 1e-9)


def detect(image: DepthImage, params: KernelParams, proj: ProjectionParams) -> Detection:
    """Return the global dissimilarity argmin over every non-zero pixel.

    Ties break toward the smaller inner term, then row-major pixel order.
    Candidates are scored exactly in ascending order of a lower bound on
    their dissimilarity (``_lower_bounds``); the search stops at the first
    bound above the best exact score, since no later candidate can win.
    """
    data = image.data
    vs, us = np.nonzero(data)
    if len(vs) == 0:
        raise NoCandidatesError("no candidates: depth image is empty")
    depths = data[vs, us]
    sizes = _inner_sizes(depths, params, proj)

    # Every window lies within the candidates' bounding box grown by pad;
    # all cells outside that box are empty, so the crop changes no value.
    band = params.outer_band_px
    pad = (int(sizes.max()) - 1) // 2 + band
    v0, u0 = int(vs.min()), int(us.min())
    crop = data[v0: int(vs.max()) + 1, u0: int(us.max()) + 1]
    cv, cu = vs - v0, us - u0     # candidates in crop coordinates
    bounds = _lower_bounds(crop, cv, cu, depths, sizes, params)
    padded = np.pad(crop, pad)

    masks = {}
    best = None     # (e_total, e_inner, row-major candidate index)
    for i in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[i] > best[0]:
            break
        v, u, d_c, k = int(cv[i]), int(cu[i]), float(depths[i]), int(sizes[i])
        if k not in masks:
            masks[k] = _band_mask(k, band)
        half_in = (k - 1) // 2
        ei = _inner_term(_window(padded, v, u, half_in, pad), d_c, params.inner_skip_empty)
        outer = _window(padded, v, u, half_in + band, pad)
        eo = _outer_term(outer[masks[k]], d_c, params.depth_epsilon)
        score = (ei + eo, ei, int(i))
        if best is None or score < best:
            best = score

    e_total, _, i = best
    u, v, d_c = int(us[i]), int(vs[i]), float(depths[i])
    return Detection(
        pixel=(u, v),
        depth=d_c,
        dissimilarity=e_total,
        position=unproject((u, v), d_c, proj),
    )
