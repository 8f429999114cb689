import tracemalloc

import numpy as np
import pytest

from dronepose.depth_image import DepthImage, ProjectionParams, project
from dronepose.detector import (
    _FIRST_BATCH,
    KernelParams,
    _candidates,
    _inner_sizes,
    _lower_bounds,
    detect,
)
from oracles import oracle_detect, oracle_inner_size, oracle_scores, reference_lower_bounds


@pytest.fixture
def proj512():
    return ProjectionParams(resolution=512, half_fov=np.deg2rad(60.0))


# N=64, half fov 45 deg -> focal exactly 32 px; with drone_width=1 the
# inner square is 3 px at depth 10.
@pytest.fixture
def proj64():
    return ProjectionParams(resolution=64, half_fov=np.deg2rad(45.0))


@pytest.fixture
def kernel64():
    return KernelParams(drone_width=1.0, outer_band_px=3, depth_epsilon=0.1)


def sparse_image(n, cells):
    data = np.zeros((n, n))
    for (u, v), d in cells.items():
        data[v, u] = d
    return DepthImage(data)


def inner_size(depth, params, proj):
    return int(_inner_sizes(np.array([depth]), params, proj)[0])


def inner_term(image, u, v, params, proj):
    return oracle_scores(image.data, v, u, params, proj.focal)[1]


def outer_term(image, u, v, params, proj):
    e, e_inner = oracle_scores(image.data, v, u, params, proj.focal)
    return e - e_inner


class TestKernelParams:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_drone_width(self, value):
        # NaN made detect raise "invalid value encountered in cast"; inf was accepted
        with pytest.raises(ValueError, match="drone_width must be finite and > 0"):
            KernelParams(drone_width=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_depth_epsilon(self, value):
        # NaN gave detect a NaN dissimilarity; inf was accepted
        with pytest.raises(ValueError, match="depth_epsilon must be finite and > 0"):
            KernelParams(depth_epsilon=value)


class TestInnerSize:
    def test_reference_values(self, proj512):
        params = KernelParams(drone_width=0.5)
        # f = 256/tan(60 deg) = 147.80 px; 0.5*f/10 = 7.39 -> 7
        assert inner_size(10.0, params, proj512) == 7
        assert inner_size(5.0, params, proj512) == 15

    def test_far_limit_is_one(self, proj512):
        assert inner_size(1e9, KernelParams(), proj512) == 1

    def test_odd_and_monotone(self, proj512):
        params = KernelParams(drone_width=0.5)
        sizes = _inner_sizes(np.linspace(0.2, 200.0, 500), params, proj512).tolist()
        assert all(k % 2 == 1 for k in sizes)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_cap(self, proj512):
        params = KernelParams(drone_width=0.5, max_inner_px=5)
        assert inner_size(0.01, params, proj512) == 5
        with np.errstate(over="ignore"):     # w*f/d overflows to inf
            assert _inner_sizes(np.array([1e-310]), params, proj512).tolist() == [5]

    @pytest.mark.parametrize("max_inner", [5, 101])
    def test_vectorized_matches_scalar(self, proj512, max_inner):
        # depths where w*f/d/2 rounds to an exact integer, the depths a few
        # ulps either side of them, and depths far inside the cap
        params = KernelParams(drone_width=0.5, max_inner_px=max_inner)
        wf = params.drone_width * proj512.focal
        exact = wf / (2.0 * np.arange(1.0, 80.0))
        depths = np.concatenate([exact + k * np.spacing(exact) for k in range(-3, 4)]
                                + [np.geomspace(1e-3, 1e3, 200)])
        hits = wf / depths / 2.0
        assert np.count_nonzero(hits == np.floor(hits)) > 50
        assert np.count_nonzero(hits != np.floor(hits)) > 300
        expected = [oracle_inner_size(float(d), params.drone_width, proj512.focal, max_inner)
                    for d in depths]
        assert _inner_sizes(depths, params, proj512).tolist() == expected
        assert max(expected) == max_inner


class TestInnerDissimilarity:
    """The kernel's inner term, as the oracle that ``detect`` is checked against computes it."""

    def test_uniform_patch_is_zero(self, proj64, kernel64):
        img = sparse_image(64, {(u, v): 10.0 for u in range(30, 35) for v in range(30, 35)})
        assert inner_term(img, 32, 32, kernel64, proj64) == 0.0

    def test_hand_sum(self, proj64, kernel64):
        # inner size 3 at depth 10: eight neighbors, seven at 10 and one at 12
        cells = {(u, v): 10.0 for u in range(31, 34) for v in range(31, 34)}
        cells[(33, 33)] = 12.0
        img = sparse_image(64, cells)
        assert inner_term(img, 32, 32, kernel64, proj64) == pytest.approx(2.0)

    def test_isolated_point_pays_empty_penalty(self, proj64, kernel64):
        img = sparse_image(64, {(32, 32): 10.0})
        assert inner_term(img, 32, 32, kernel64, proj64) == pytest.approx(80.0)

    def test_skip_empty_variant(self, proj64):
        lenient = KernelParams(drone_width=1.0, outer_band_px=3, depth_epsilon=0.1,
                               inner_skip_empty=True)
        img = sparse_image(64, {(32, 32): 10.0})
        assert inner_term(img, 32, 32, lenient, proj64) == 0.0


class TestOuterDissimilarity:
    """The kernel's band term, as the oracle computes it."""

    def test_empty_band_is_zero(self, proj64, kernel64):
        img = sparse_image(64, {(32, 32): 10.0})
        assert outer_term(img, 32, 32, kernel64, proj64) == 0.0

    def test_similar_depth_pays_epsilon_penalty(self, proj64, kernel64):
        img = sparse_image(64, {(32, 32): 10.0, (32 + 3, 32): 10.0})
        assert outer_term(img, 32, 32, kernel64, proj64) == pytest.approx(10.0)

    def test_distant_depth_pays_inverse_gap(self, proj64, kernel64):
        img = sparse_image(64, {(32, 32): 10.0, (32 + 3, 32): 12.0})
        assert outer_term(img, 32, 32, kernel64, proj64) == pytest.approx(0.5)


def paint_square(cells, cu, cv, half, depth):
    for u in range(cu - half, cu + half + 1):
        for v in range(cv - half, cv + half + 1):
            cells[(u, v)] = depth


class TestDetect:
    def test_ideal_blob_scores_zero_at_center(self, proj64, kernel64):
        cells = {}
        paint_square(cells, 32, 32, 1, 10.0)   # exactly the 3x3 inner square
        img = sparse_image(64, cells)
        det = detect(img, kernel64, proj64)
        assert det.pixel == (32, 32)
        assert det.dissimilarity == 0.0
        assert det.depth == 10.0

    def test_drone_beats_wall_at_same_depth(self, proj64, kernel64):
        cells = {}
        paint_square(cells, 16, 16, 1, 20.0)   # drone-sized blob (inner size 1 at 20 m... paint 3x3)
        for u in range(34, 58):
            for v in range(34, 58):
                cells[(u, v)] = 20.0           # dense wall, same depth
        img = sparse_image(64, cells)
        det = detect(img, kernel64, proj64)
        oracle_pixel, oracle_e = oracle_detect(img, kernel64, proj64)
        assert det.pixel == oracle_pixel
        assert det.dissimilarity == oracle_e
        assert 15 <= det.pixel[0] <= 17 and 15 <= det.pixel[1] <= 17

    def test_drone_beats_sparse_tree(self, proj64, kernel64):
        cells = {}
        paint_square(cells, 20, 20, 1, 10.0)
        # six scattered returns around one tree center, similar depth
        for du, dv in ((0, 0), (2, 1), (-2, -1), (1, -2), (-1, 2), (2, -2)):
            cells[(44 + du, 44 + dv)] = 10.0
        img = sparse_image(64, cells)
        det = detect(img, kernel64, proj64)
        oracle_pixel, oracle_e = oracle_detect(img, kernel64, proj64)
        assert det.pixel == oracle_pixel
        assert det.dissimilarity == oracle_e
        assert det.pixel == (20, 20)

    def test_all_zero_raises(self, proj64, kernel64):
        assert detect(sparse_image(64, {}), kernel64, proj64) is None

    def test_position_is_unprojection(self, proj64, kernel64):
        cells = {}
        paint_square(cells, 32, 32, 1, 10.0)
        det = detect(sparse_image(64, cells), kernel64, proj64)
        assert det.position @ proj64.w_axis == pytest.approx(10.0, abs=1e-12)

    def test_translation_equivariance(self, proj64, kernel64, rng):
        cells = {}
        paint_square(cells, 24, 26, 1, 8.0)
        for _ in range(30):
            u, v = int(rng.integers(10, 54)), int(rng.integers(10, 54))
            cells.setdefault((u, v), float(rng.uniform(3, 30)))
        base = detect(sparse_image(64, cells), kernel64, proj64)
        shifted = {(u + 3, v + 2): d for (u, v), d in cells.items()}
        moved = detect(sparse_image(64, shifted), kernel64, proj64)
        assert moved.pixel == (base.pixel[0] + 3, base.pixel[1] + 2)

    def test_depth_scaling_keeps_blob_center(self, proj64, kernel64):
        for scale in (1.0, 2.0, 3.0):
            depth = 10.0 * scale
            half = (inner_size(depth, kernel64, proj64) - 1) // 2
            cells = {}
            paint_square(cells, 30, 30, half, depth)
            det = detect(sparse_image(64, cells), kernel64, proj64)
            assert det.pixel == (30, 30)
            assert det.dissimilarity == 0.0

    def test_matches_oracle_on_random_images(self, proj64, rng):
        for _ in range(15):
            n_pts = int(rng.integers(10, 120))
            data = np.zeros((64, 64))
            us = rng.integers(0, 64, n_pts)
            vs = rng.integers(0, 64, n_pts)
            data[vs, us] = rng.uniform(2.0, 40.0, n_pts)
            img = DepthImage(data)
            params = KernelParams(drone_width=float(rng.choice([0.5, 1.0, 2.0])),
                                  outer_band_px=int(rng.integers(2, 7)),
                                  depth_epsilon=float(rng.choice([0.05, 0.1, 0.5])))
            det = detect(img, params, proj64)
            oracle_pixel, oracle_e = oracle_detect(img, params, proj64)
            assert det.pixel == oracle_pixel
            assert det.dissimilarity == oracle_e

    def test_matches_oracle_in_lenient_mode(self, rng):
        for _ in range(30):
            n = int(rng.integers(32, 49)) * 2
            data = random_image(rng, n, int(rng.integers(20, 350)), high=60.0)
            if rng.integers(0, 3) == 0:
                cu, cv = rng.integers(8, n - 8, 2)
                data[cv - 2: cv + 3, cu - 2: cu + 3] = rng.uniform(2.0, 60.0)
            img = DepthImage(data)
            proj = ProjectionParams(resolution=n,
                                    half_fov=np.deg2rad(float(rng.choice([30, 45, 60]))))
            params = KernelParams(drone_width=float(rng.choice([0.25, 0.5, 1.0])),
                                  outer_band_px=int(rng.integers(2, 9)),
                                  depth_epsilon=float(rng.choice([0.05, 0.1, 0.5])),
                                  inner_skip_empty=True)
            det = detect(img, params, proj)
            oracle_pixel, oracle_e = oracle_detect(img, params, proj)
            assert det.pixel == oracle_pixel
            assert det.dissimilarity == oracle_e

    def test_scores_are_nonnegative(self, proj64, kernel64, rng):
        data = np.zeros((64, 64))
        us = rng.integers(0, 64, 50)
        vs = rng.integers(0, 64, 50)
        data[vs, us] = rng.uniform(2.0, 40.0, 50)
        img = DepthImage(data)
        for u, v in zip(us, vs):
            assert inner_term(img, u, v, kernel64, proj64) >= 0.0
            assert outer_term(img, u, v, kernel64, proj64) >= 0.0


def detector_bounds(image, params, proj, lower_bounds=_lower_bounds):
    """(vs, us, bounds) as ``detect`` computes them, on the candidates' crop."""
    data = image.data
    vs, us = _candidates(data)
    depths = data[vs, us]
    crop = data[vs.min(): vs.max() + 1, us.min(): us.max() + 1]
    bounds = lower_bounds(crop, vs - vs.min(), us - us.min(), depths,
                          _inner_sizes(depths, params, proj), params)
    return vs, us, bounds


def random_image(rng, n, n_pts, low=2.0, high=40.0):
    data = np.zeros((n, n))
    data[rng.integers(0, n, n_pts), rng.integers(0, n, n_pts)] = rng.uniform(low, high, n_pts)
    return data


class TestLowerBounds:
    def assert_below_exact(self, image, params, proj):
        vs, us, bounds = detector_bounds(image, params, proj)
        assert np.all(bounds >= 0.0)
        for v, u, b in zip(vs, us, bounds):
            assert b <= oracle_scores(image.data, v, u, params, proj.focal)[0], (u, v)

    @pytest.mark.parametrize("lenient", [False, True])
    def test_random_images(self, proj64, rng, lenient):
        for _ in range(12):
            data = random_image(rng, 64, int(rng.integers(5, 400)), low=0.5)
            if rng.integers(0, 2):
                cu, cv = rng.integers(6, 58, 2)
                data[cv - 4: cv + 5, cu - 4: cu + 5] = rng.uniform(2.0, 40.0)
            params = KernelParams(drone_width=float(rng.choice([0.5, 1.0, 3.0])),
                                  outer_band_px=int(rng.integers(1, 21)),
                                  depth_epsilon=float(rng.choice([0.05, 0.5, 50.0])),
                                  max_inner_px=int(rng.choice([3, 101])),
                                  inner_skip_empty=lenient)
            self.assert_below_exact(DepthImage(data), params, proj64)

    def test_real_sweep(self, acquisition_sweep):
        # a coarser projection keeps the exhaustive scoring quick; a wider
        # drone gives inner squares of several sizes
        points, scenario = acquisition_sweep
        proj = ProjectionParams(resolution=128, half_fov=scenario.projection.half_fov)
        image = project(points, proj)
        assert np.count_nonzero(image.data) > 500
        params = KernelParams(drone_width=2.0, outer_band_px=5)
        self.assert_below_exact(image, params, proj)


def boxed_image(rng, n, v0, u0, h, w):
    """Random depths whose non-zero cells span exactly rows v0..v0+h-1, columns u0..u0+w-1."""
    data = np.zeros((n, n))
    n_pts = int(rng.integers(1, 4 * h * w)) if h * w > 1 else 1
    data[rng.integers(v0, v0 + h, n_pts), rng.integers(u0, u0 + w, n_pts)] = rng.uniform(
        0.5, 40.0, n_pts)
    data[v0, u0 + int(rng.integers(0, w))] = rng.uniform(0.5, 40.0)
    data[v0 + h - 1, u0 + int(rng.integers(0, w))] = rng.uniform(0.5, 40.0)
    data[v0 + int(rng.integers(0, h)), u0] = rng.uniform(0.5, 40.0)
    data[v0 + int(rng.integers(0, h)), u0 + w - 1] = rng.uniform(0.5, 40.0)
    return data


class TestLowerBoundsMatchReference:
    """``_lower_bounds`` and the candidate scan keep the bits of their earlier forms."""

    CROPS = {"1x1": (1, 1), "1xk": (1, 37), "kx1": (29, 1), "13x21": (13, 21),
             "100x203": (100, 203), "full": (512, 512)}

    def assert_same_bits(self, image, params, proj):
        vs, us = _candidates(image.data)
        ref_vs, ref_us = np.nonzero(image.data != 0.0)
        assert vs.dtype == ref_vs.dtype and us.dtype == ref_us.dtype
        assert np.array_equal(vs, ref_vs) and np.array_equal(us, ref_us)
        _, _, bounds = detector_bounds(image, params, proj)
        _, _, expected = detector_bounds(image, params, proj, reference_lower_bounds)
        assert bounds.dtype == expected.dtype and bounds.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize("crop", sorted(CROPS))
    def test_random_crops(self, proj512, crop, lenient):
        h, w = self.CROPS[crop]
        rng = np.random.default_rng(sorted(self.CROPS).index(crop))
        for _ in range(6):
            v0, u0 = int(rng.integers(0, 513 - h)), int(rng.integers(0, 513 - w))
            image = DepthImage(boxed_image(rng, 512, v0, u0, h, w))
            params = KernelParams(drone_width=float(rng.choice([0.5, 1.0, 3.0])),
                                  outer_band_px=int(rng.integers(1, 21)),
                                  depth_epsilon=float(rng.choice([0.05, 0.5, 50.0])),
                                  max_inner_px=int(rng.choice([3, 101])),
                                  inner_skip_empty=lenient)
            self.assert_same_bits(image, params, proj512)

    @pytest.mark.parametrize("index", [5, 7, 13])
    def test_real_sweeps(self, cold_start_sweeps, index):
        points, scenario = cold_start_sweeps[index]
        image = project(points, scenario.projection)
        assert np.count_nonzero(image.data) > 1000
        self.assert_same_bits(image, scenario.kernel, scenario.projection)


class TestBoundsReadEveryCandidate:
    """The bounds' counts and tile ranges come from the candidate list: the last
    candidate in row-major order, as the window's extreme depth, still counts."""

    @pytest.mark.parametrize("extreme", [0.25, 60.0])     # below and above every other depth
    def test_last_candidate_is_the_extreme(self, proj512, extreme):
        rng = np.random.default_rng(25)
        params = KernelParams(drone_width=1.0, outer_band_px=8, depth_epsilon=0.05)
        for h, w in ((1, 9), (9, 1), (13, 21), (100, 203)):
            data = boxed_image(rng, 512, int(rng.integers(0, 513 - h)),
                               int(rng.integers(0, 513 - w)), h, w)
            vs, us = np.nonzero(data)
            data[vs[-1], us[-1]] = extreme
            image = DepthImage(data)
            _, _, bounds = detector_bounds(image, params, proj512)
            _, _, expected = detector_bounds(image, params, proj512, reference_lower_bounds)
            assert bounds.tobytes() == expected.tobytes(), (h, w)


def mirrored(rng, n=64):
    # whole-metre depths keep the sums exact, so each pixel ties its mirror twin
    data = np.rint(random_image(rng, n, 300))
    data[:, n // 2:] = data[:, : n // 2][:, ::-1]
    return data


def corners(rng, n=64):
    data = random_image(rng, n, 40)
    for sv, su in ((slice(0, 3), slice(0, 3)), (slice(0, 2), slice(n - 2, n)),
                   (slice(n - 3, n), slice(0, 1)), (slice(n - 1, n), slice(n - 1, n))):
        data[sv, su] = rng.uniform(2.0, 40.0)
    return data


def single(rng, n=64):
    data = np.zeros((n, n))
    data[int(rng.integers(0, n)), int(rng.integers(0, n))] = rng.uniform(2.0, 40.0)
    return data


class TestDetectPrune:
    """``detect`` against the oracle's exhaustive argmin on inputs that stress the prune."""

    CASES = {
        # the winner ties its mirror twin, so the row-major tie-break decides
        "mirror_ties": (mirrored, dict(drone_width=3.0, outer_band_px=3)),
        # every band cell costs 1/epsilon, so the outer bound is tight
        "band_1_wide_epsilon": (lambda rng: random_image(rng, 64, 200),
                                dict(drone_width=1.0, outer_band_px=1, depth_epsilon=100.0)),
        "corners": (corners, dict(drone_width=1.0, outer_band_px=4)),
        "single": (single, dict(drone_width=1.0, outer_band_px=20)),
        # near depths give inner squares far above the cap
        "clamped": (lambda rng: random_image(rng, 64, 120, low=0.2, high=2.0),
                    dict(drone_width=1.0, outer_band_px=2, max_inner_px=5)),
    }

    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_exhaustive(self, proj64, case, lenient):
        make, kwargs = self.CASES[case]
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        params = KernelParams(inner_skip_empty=lenient, **kwargs)
        for _ in range(4):
            image = DepthImage(make(rng))
            det = detect(image, params, proj64)
            pixel, e = oracle_detect(image, params, proj64)
            assert det.pixel == pixel
            assert det.dissimilarity == e
            assert det.depth == image.data[pixel[1], pixel[0]]

    def blob_grid(self, rng):
        # 100 identical drone-sized blobs, each centre scoring exactly 0 with a
        # bound of 0, among clutter: a tie run far longer than the first batch
        data = random_image(rng, 128, 150)
        for cv in range(6, 128, 12):
            for cu in range(6, 128, 12):
                data[cv - 4: cv + 5, cu - 4: cu + 5] = 0.0     # an empty 3 px band
                data[cv - 1: cv + 2, cu - 1: cu + 2] = 20.0
        return data

    @pytest.mark.parametrize("lenient", [False, True])
    def test_tie_run_crosses_batches(self, lenient):
        # at depth 20 the inner square is 3 px (focal 64, width 1); a stop test
        # that dropped equal bounds, or scored only a batch's prefix of a run,
        # would return another blob than the row-major first
        proj = ProjectionParams(resolution=128, half_fov=np.deg2rad(45.0))
        params = KernelParams(drone_width=1.0, outer_band_px=3, inner_skip_empty=lenient)
        rng = np.random.default_rng(16)
        for _ in range(3):
            image = DepthImage(self.blob_grid(rng))
            det = detect(image, params, proj)
            pixel, e = oracle_detect(image, params, proj)
            assert det.pixel == pixel
            assert det.dissimilarity == e == 0.0
            _, _, bounds = detector_bounds(image, params, proj)
            assert np.count_nonzero(bounds <= e) > 4 * _FIRST_BATCH

    @pytest.mark.parametrize("index", [5, 7, 13])
    def test_real_sweeps_with_many_exact_candidates(self, cold_start_sweeps, index):
        # building corners in full cold-start sweeps: hundreds to thousands of
        # candidates are scored exactly, over many batches and inner sizes
        points, scenario = cold_start_sweeps[index]
        proj, params = scenario.projection, scenario.kernel
        image = project(points, proj)
        det = detect(image, params, proj)
        pixel, e = oracle_detect(image, params, proj)
        assert det.pixel == pixel
        assert det.dissimilarity == e
        vs, us, bounds = detector_bounds(image, params, proj)
        scored = bounds <= e
        assert np.count_nonzero(scored) >= 300
        assert len(np.unique(_inner_sizes(image.data[vs, us][scored], params, proj))) > 1


def test_scoring_memory_is_bounded(cold_start_sweeps):
    # 376, 2316 and 380 candidates are scored exactly here; all their windows at
    # once would take up to about 40 MB per temporary. The bounds read only the
    # candidates, so the peak is the padded crop for exact scoring plus the
    # capped batches (0.4 MB): about 2.9, 2.1 and 2.9 MB.
    for index, (points, scenario) in sorted(cold_start_sweeps.items()):
        image = project(points, scenario.projection)
        tracemalloc.start()
        try:
            detect(image, scenario.kernel, scenario.projection)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20, (index, peak)
