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
_FIRST_BATCH = 4        # candidates exactly scored in the first batch; most sweeps need no more
_BATCH_CELLS = 1 << 14  # window cells per scoring call: its temporaries stay under 0.4 MB


@dataclass
class KernelParams:
    drone_width: float = 0.5       # m, assumed physical target width
    outer_band_px: int = 20        # band width around the inner square, pixels
    depth_epsilon: float = 0.1     # m, floor for the similarity penalty
    max_inner_px: int = 101        # cap on the inner square side, odd
    inner_skip_empty: bool = False  # lenient mode: empty inner pixels cost 0

    def __post_init__(self):
        if not 0.0 < self.drone_width < np.inf:     # NaN fails too
            raise ValueError("drone_width must be finite and > 0")
        if self.outer_band_px < 1:
            raise ValueError("outer_band_px must be >= 1")
        if not 0.0 < self.depth_epsilon < np.inf:
            raise ValueError("depth_epsilon must be finite and > 0")
        if self.max_inner_px < 1 or self.max_inner_px % 2 == 0:
            raise ValueError("max_inner_px must be odd and >= 1")


@dataclass
class Detection:
    pixel: tuple        # (u, v)
    depth: float        # m, at the winning pixel
    dissimilarity: float
    position: np.ndarray  # vehicle frame, m


def _exact_scores(flat: np.ndarray, starts: np.ndarray, depths: np.ndarray, cells,
                  params: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact (e_inner, e_total) of candidates that share ``cells`` (``_window_cells``).

    ``starts`` index their windows' top-left cells in ``flat``. Each term
    array is C-contiguous, one candidate per row, so a row sums in the order
    ``np.sum`` takes over that candidate's cells alone.
    """
    inner, ring = cells
    d = depths[:, None]
    vals = flat[starts[:, None] + inner]
    diffs = np.abs(vals - d)
    if params.inner_skip_empty:     # lenient mode: empty inner pixels cost 0
        diffs *= vals != 0.0
    e_inner = diffs.sum(axis=1)
    # band: empty pixels cost 0, pixels near the candidate depth 1/epsilon,
    # others 1/|depth difference|; max() gives where()'s bits, with no 1/0
    vals = flat[starts[:, None] + ring]
    filled = vals != 0.0
    costs = np.abs(np.subtract(vals, d, out=vals), out=vals)
    np.divide(1.0, np.maximum(costs, params.depth_epsilon, out=costs), out=costs)
    costs *= filled
    return e_inner, e_inner + costs.sum(axis=1)


def _window_cells(inner: int, band: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major offsets of a window's inner and band cells from its top-left, rows ``width`` apart."""
    side = inner + 2 * band
    grid = np.arange(side)[:, None] * width + np.arange(side)
    ring = np.ones((side, side), dtype=bool)
    ring[band: band + inner, band: band + inner] = False
    return grid[band: band + inner, band: band + inner].ravel(), grid[ring]


def _inner_sizes(depths: np.ndarray, params: KernelParams, proj: ProjectionParams) -> np.ndarray:
    """Inner square side per depth, pixels: 2*floor((s*f/Z)/2) + 1, clipped to [1, max]."""
    raw = 2.0 * np.floor(params.drone_width * proj.focal / depths / 2.0) + 1.0
    return np.clip(raw, 1, params.max_inner_px).astype(np.intp)


def _neighbourhood_stack(grid: np.ndarray, reach: int, op, fill: float) -> np.ndarray:
    """``[r]`` is ``op`` over the (2r+1)^2 cells around each cell, r = 0..reach."""
    h, w = grid.shape
    out = np.empty((reach + 1, h, w))
    out[0] = grid
    g = np.full((h + 2, w + 2), fill)   # level r inside a border of fill, set once
    rows = np.empty((h, w + 2))
    for r in range(reach):
        g[1:-1, 1:-1] = out[r]
        op(op(g[:-2], g[1:-1], out=rows), g[2:], out=rows)
        op(op(rows[:, :-2], rows[:, 1:-1], out=out[r + 1]), rows[:, 2:], out=out[r + 1])
    return out


def _candidates(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero(data != 0.0)``'s row-major (vs, us), from one cheaper flat scan."""
    return np.divmod(np.flatnonzero(data != 0.0), data.shape[1])


def _lower_bounds(crop: np.ndarray, vs: np.ndarray, us: np.ndarray, depths: np.ndarray,
                  sizes: np.ndarray, params: KernelParams) -> np.ndarray:
    """A lower bound on every candidate's ``e_inner + e_outer``, vectorized.

    ``vs``, ``us`` must index each non-zero cell of ``crop`` once (``depths``
    their values), and all cells outside it must be empty. Inner term: each
    empty cell costs exactly the center depth. Outer term: each non-empty band
    cell costs at least 1/max(epsilon, spread), where the spread bounds
    |depth - center depth| over the window, from the depth ranges of the tiles
    around it. Counts and ranges read only the candidates: one integral image
    over the rows and columns holding one, a max or min scattered in any order.
    The final (1 - 1e-9) factor covers the rounding of the exact sums (terms >= 0).
    """
    h, w = crop.shape
    half = (sizes - 1) // 2 + np.array([[0], [params.outer_band_px]])   # inner square; window
    m = int(half.max()) + 1     # below[m + e]: rows holding a candidate above row edge e
    sv, su = vs + m, us + m
    below = np.cumsum(np.bincount(sv + 1, minlength=h + 2 * m) > 0)
    left = np.cumsum(np.bincount(su + 1, minlength=w + 2 * m) > 0)     # likewise columns
    stride = int(left[-1]) + 1
    occupied = np.zeros((int(below[-1]) + 1, stride), dtype=np.int32)
    occupied.put((below[sv] + 1) * stride + left[su] + 1, 1)
    occupied = np.cumsum(np.cumsum(occupied, axis=1, out=occupied), axis=0, out=occupied).ravel()
    r0, r1 = below[sv - half] * stride, below[sv + half + 1] * stride
    c0, c1 = left[su - half], left[su + half + 1]
    counts = occupied[r1 + c1] - occupied[r0 + c1] - occupied[r1 + c0] + occupied[r0 + c0]
    n_inner, n_band = counts[0], counts[1] - counts[0]

    rows, cols, tv, tu = -(-h // _TILE), -(-w // _TILE), vs // _TILE, us // _TILE
    hi, lo = np.zeros((rows, cols)), np.full((rows, cols), np.inf)
    np.maximum.at(hi.ravel(), tv * cols + tu, depths)   # a flat index: ufunc.at's fast path
    np.minimum.at(lo.ravel(), tv * cols + tu, depths)
    reach = -(-half[1] // _TILE)    # tiles around the candidate's tile that hold its window
    hi = _neighbourhood_stack(hi, int(reach.max()), np.maximum, 0.0)
    lo = _neighbourhood_stack(lo, int(reach.max()), np.minimum, np.inf)
    spread = np.maximum(hi[reach, tv, tu] - depths, depths - lo[reach, tv, tu])
    bound = n_band * (1.0 / np.maximum(params.depth_epsilon, spread))
    if not params.inner_skip_empty:
        bound += depths * (sizes * sizes - n_inner)
    return bound * (1.0 - 1e-9)


def detect(image: DepthImage, params: KernelParams, proj: ProjectionParams) -> Detection | None:
    """Return the global dissimilarity argmin over every non-zero pixel, None if there is none.

    Ties break toward the smaller inner term, then row-major pixel order.
    Candidates are scored exactly, in batches, in ascending order of a lower
    bound on their dissimilarity (``_lower_bounds``); the search stops where
    the bounds pass the best exact score, since no later candidate can win.
    """
    data = image.data
    vs, us = _candidates(data)
    if len(vs) == 0:
        return None
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
    width = crop.shape[1] + 2 * pad     # the crop grown by pad, from its candidates alone
    flat = np.zeros((crop.shape[0] + 2 * pad) * width)
    flat[(cv + pad) * width + cu + pad] = depths

    # Batches grow from _FIRST_BATCH; the stop test runs between them. Any
    # candidate a batch scores past the sequential stop has a bound, and so
    # an exact score, above the best, so the argmin and tie-break hold. So
    # does the order among equal bounds: all or none of them are scored.
    order = np.argsort(bounds)
    cells = {}
    best, pos, size = None, 0, _FIRST_BATCH
    while pos < len(order):
        batch = order[pos: pos + size]
        if best is not None:
            batch = batch[: np.count_nonzero(bounds[batch] <= best[0])]
            if len(batch) == 0:
                break
        scored = [] if best is None else [best]     # (e_total, e_inner, index) minima
        for k in set(sizes[batch].tolist()):
            if k not in cells:
                cells[k] = _window_cells(k, band, width)
            group, corner = batch[sizes[batch] == k], pad - (k - 1) // 2 - band
            step = max(1, _BATCH_CELLS // (k + 2 * band) ** 2)     # caps the temporaries
            for ids in (group[c: c + step] for c in range(0, len(group), step)):
                starts = (cv[ids] + corner) * width + cu[ids] + corner    # windows' top-left
                e_inner, e_total = _exact_scores(flat, starts, depths[ids], cells[k], params)
                scored.append(min(zip(e_total.tolist(), e_inner.tolist(), ids.tolist())))
        best = min(scored)
        pos, size = pos + len(batch), 2 * size

    e_total, _, i = best
    u, v, d_c = int(us[i]), int(vs[i]), float(depths[i])
    return Detection(pixel=(u, v), depth=d_c, dissimilarity=e_total,
                     position=unproject((u, v), d_c, proj))
