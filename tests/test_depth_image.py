import numpy as np
import pytest

import tracemalloc

from dronepose.depth_image import _PROJECT_BLOCK, DepthImage, ProjectionParams, project, unproject
from conftest import ROOT


@pytest.fixture
def params():
    return ProjectionParams(resolution=128, half_fov=np.deg2rad(60.0))


class TestParams:
    def test_focal(self):
        p = ProjectionParams(resolution=512, half_fov=np.deg2rad(60.0))
        assert p.focal == pytest.approx(256.0 / np.tan(np.deg2rad(60.0)), abs=1e-9)

    def test_rejects_odd_or_small_resolution(self):
        with pytest.raises(ValueError):
            ProjectionParams(resolution=63)
        with pytest.raises(ValueError):
            ProjectionParams(resolution=32)

    def test_rejects_bad_fov(self):
        with pytest.raises(ValueError):
            ProjectionParams(half_fov=np.pi / 2)

    @pytest.mark.parametrize("direction", [(np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0),
                                           (0.0, -np.inf, 1.0), (0.0, 0.0, np.nan)])
    def test_rejects_non_finite_view_direction(self, direction):
        # NaN built NaN axes without a word; inf raised a divide RuntimeWarning
        with pytest.raises(ValueError, match="view_direction must be non-zero and finite"):
            ProjectionParams(view_direction=direction)

    def test_default_basis_is_world_axes(self):
        p = ProjectionParams()
        assert np.allclose(p.u_axis, [1, 0, 0])
        assert np.allclose(p.v_axis, [0, 1, 0])
        assert np.allclose(p.w_axis, [0, 0, 1])


class TestProject:
    def test_on_axis_point_hits_center_pixel(self, params):
        n = params.resolution
        img = project([(0.0, 0.0, 10.0)], params)
        assert img.data[n // 2, n // 2] == 10.0
        assert np.count_nonzero(img.data) == 1

    def test_min_depth_wins_per_pixel(self, params):
        n = params.resolution
        img = project([(0.0, 0.0, 12.0), (0.0, 0.0, 10.0)], params)
        assert img.data[n // 2, n // 2] == 10.0

    def test_point_outside_fov_dropped(self, params):
        off = np.tan(np.deg2rad(61.0)) * 10.0
        img = project([(off, 0.0, 10.0)], params)
        assert np.count_nonzero(img.data) == 0

    def test_point_behind_plane_dropped(self, params):
        img = project([(0.0, 0.0, -5.0)], params)
        assert np.count_nonzero(img.data) == 0

    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_point_grazing_the_plane_dropped_without_a_cast(self, params, x):
        # f x / z is about 1e302, past int64's range: the bounds are taken on
        # the floats, so no RuntimeWarning from an int cast (an error in tier-1)
        n = params.resolution
        img = project([(x, 0.0, 1e-300), (0.0, x, 1e-300), (0.0, 0.0, 10.0)], params)
        assert img.data[n // 2, n // 2] == 10.0
        assert np.count_nonzero(img.data) == 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_subnormal_depth(self, params, sign):
        # f x / z overflows to inf, which the float bounds drop without a
        # RuntimeWarning; at x = 0 the point stays on the centre pixel
        n = params.resolution
        assert np.count_nonzero(project([(sign, 0.0, 1e-310)], params).data) == 0
        assert np.count_nonzero(project([(0.0, sign, 1e-310)], params).data) == 0
        img = project([(0.0, 0.0, 1e-310)], params)
        assert img.data[n // 2, n // 2] == 1e-310
        assert np.count_nonzero(img.data) == 1

    def test_monotone_occlusion(self, params, rng):
        pts = [(0.1, -0.2, 10.0)]
        base = project(pts, params)
        farther = project(pts + [(0.1, -0.2, 20.0)], params)
        nearer = project(pts + [(0.1, -0.2, 5.0)], params)
        assert np.array_equal(base.data, farther.data)
        assert not np.array_equal(base.data, nearer.data)

    def test_sparsity(self, params, rng):
        pts = rng.uniform(-3, 3, size=(200, 3)) + [0, 0, 10]
        img = project(pts, params)
        assert np.count_nonzero(img.data) <= len(pts)

    @pytest.mark.exact("depth_image.project")
    @pytest.mark.parametrize("view", [(0.0, 0.0, 1.0), (0.3, -0.1, 1.0)])
    def test_block_wise_matches_whole_array(self, acquisition_sweep, view):
        # a real sweep spans at least three projection blocks; it holds points
        # behind the image plane and points outside the field of view
        points, scenario = acquisition_sweep
        p = ProjectionParams(resolution=scenario.projection.resolution,
                             half_fov=scenario.projection.half_fov, view_direction=view)
        n, f = p.resolution, p.focal
        z = points @ p.w_axis
        keep = z > 0.0
        pts, z = points[keep], z[keep]
        u = np.floor(f * (pts @ p.u_axis) / z + n / 2.0).astype(int)
        v = np.floor(f * (pts @ p.v_axis) / z + n / 2.0).astype(int)
        inside = (u >= 0) & (u < n) & (v >= 0) & (v < n)
        assert len(points) >= 3 * _PROJECT_BLOCK and not keep.all() and not inside.all()
        whole = np.full((n, n), np.inf)
        np.minimum.at(whole, (v[inside], u[inside]), z[inside])
        whole[~np.isfinite(whole)] = 0.0
        assert np.array_equal(project(points, p).data, whole)

    @pytest.mark.exact("depth_image.project")
    @pytest.mark.parametrize("nearest", [0, 1, 2], ids=["first_block", "middle_block", "last_block"])
    def test_pixel_minimum_across_blocks(self, params, nearest):
        # one pixel gets a point from each of three blocks, the others stay empty;
        # whichever block holds the nearest, the pixel keeps its depth
        n = params.resolution
        pts = np.tile([0.0, 0.0, -1.0], (3 * _PROJECT_BLOCK, 1))    # behind the plane
        rows = [7, _PROJECT_BLOCK + 7, 3 * _PROJECT_BLOCK - 7]
        depths = [12.0, 11.0, 13.0]
        depths[nearest] = 10.0
        pts[rows, 2] = depths
        img = project(pts, params)
        assert img.data[n // 2, n // 2] == 10.0
        assert np.count_nonzero(img.data) == 1

    @pytest.mark.exact("depth_image.project")
    @pytest.mark.parametrize("view", [(0.0, 0.0, 1.0), (0.3, -0.1, 1.0), (-0.5, 0.2, 0.6)])
    def test_memory_layout_does_not_change_the_image(self, acquisition_sweep, view):
        # the block matmuls give other bits on another layout: an F-ordered
        # copy of a sweep once changed about a quarter of a tilted view's pixels
        points, scenario = acquisition_sweep
        p = ProjectionParams(resolution=scenario.projection.resolution,
                             half_fov=scenario.projection.half_fov, view_direction=view)
        expected = project(points, p).data
        assert np.count_nonzero(expected) > 5000
        wide = np.zeros((len(points), 7))
        wide[:, 1:6:2] = points
        for layout in (points.copy(order="F"), wide[:, 1:6:2], wide[:, 1:6:2].T.T):
            assert not layout.flags.c_contiguous
            assert np.array_equal(project(layout, p).data, expected)

    @pytest.mark.exact("depth_image.project")
    @pytest.mark.parametrize("view", [(0.0, 0.0, 1.0), (0.3, -0.1, 1.0), (-0.5, 0.2, 0.6)])
    def test_front_is_the_rows_with_depth_above_zero(self, acquisition_sweep, view):
        # in input order, in the field of view or not
        points, scenario = acquisition_sweep
        p = ProjectionParams(resolution=scenario.projection.resolution,
                             half_fov=scenario.projection.half_fov, view_direction=view)
        front = project(points, p).front
        want = np.flatnonzero(points @ p.w_axis > 0.0)
        assert 0 < len(want) < len(points)
        assert front.dtype == np.intp and np.array_equal(front, want)

    def test_front_across_block_edges(self, params):
        # rows on either side of each block edge, on the plane (z = 0 or -0),
        # just off it and out of the field of view
        pts = np.tile([0.0, 0.0, -1.0], (3 * _PROJECT_BLOCK + 5, 1))     # behind the plane
        rows = [0, _PROJECT_BLOCK - 1, _PROJECT_BLOCK, 2 * _PROJECT_BLOCK + 1,
                3 * _PROJECT_BLOCK - 1, 3 * _PROJECT_BLOCK + 4]
        pts[rows, 2] = [5.0, 5e-324, 1e-300, 7.0, 3.0, 2.0]
        pts[_PROJECT_BLOCK + 1, 2] = 0.0
        pts[2 * _PROJECT_BLOCK, 2] = -0.0
        pts[2 * _PROJECT_BLOCK - 1] = [1e3, 0.0, 1.0]        # in front, outside the image
        image = project(pts, params)
        assert np.array_equal(image.front, sorted(rows + [2 * _PROJECT_BLOCK - 1]))
        n = params.resolution       # the on-axis rows share the centre pixel
        assert image.data[n // 2, n // 2] == 5e-324 and np.count_nonzero(image.data) == 1

    def test_front_of_no_points_and_of_an_image_built_elsewhere(self, params):
        front = project(np.empty((0, 3)), params).front
        assert front.dtype == np.intp and len(front) == 0
        assert DepthImage(np.zeros((64, 64))).front is None

    def test_c_ordered_points_are_not_copied(self, acquisition_sweep):
        points, scenario = acquisition_sweep
        tracemalloc.start()
        try:
            project(points, scenario.projection)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < points.nbytes / 3

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, _PROJECT_BLOCK + 123, 3 * _PROJECT_BLOCK + 99],
                             ids=["first_block", "middle_block", "last_block"])
    def test_non_finite_point_raises(self, params, value, row):
        # a ValueError, not a RuntimeWarning from the matmul (an error in
        # tier-1) nor a point dropped without a word
        pts = np.random.default_rng(3).uniform(-3.0, 3.0, (3 * _PROJECT_BLOCK + 100, 3)) + [0, 0, 10]
        for axis in range(3):
            bad = pts.copy()
            bad[row, axis] = value
            with pytest.raises(ValueError, match="finite"):
                project(bad, params)


class TestDepthImage:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
    def test_rejects_negative_or_non_finite_depth(self, bad):
        data = np.zeros((64, 64))
        data[63, 0] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            DepthImage(data)

    def test_accepts_zero_depths_and_an_empty_image(self):
        assert DepthImage(np.full((4, 4), -0.0)).data.shape == (4, 4)
        assert DepthImage(np.zeros((0, 0))).data.shape == (0, 0)


class TestUnproject:
    def test_center_pixel_depth(self, params):
        n = params.resolution
        p = unproject((n // 2, n // 2), 10.0, params)
        assert p @ params.w_axis == pytest.approx(10.0, abs=1e-12)
        # pixel center sits half a pixel off the principal point
        assert abs(p[0]) <= 10.0 / params.focal
        assert abs(p[1]) <= 10.0 / params.focal

    def test_rejects_bad_input(self, params):
        with pytest.raises(ValueError):
            unproject((0, 0), 0.0, params)
        with pytest.raises(ValueError):
            unproject((-1, 0), 1.0, params)

    @pytest.mark.parametrize("depth", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_depth(self, params, depth):
        # NaN returned a NaN point; inf raised a multiply RuntimeWarning
        with pytest.raises(ValueError, match="depth must be finite and positive"):
            unproject((0, 0), depth, params)

    def test_round_trip_identity(self, params, rng):
        n = params.resolution
        for _ in range(1000):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            d = float(rng.uniform(0.5, 80.0))
            pt = unproject((u, v), d, params)
            img = project([pt], params)
            assert img.data[v, u] == pytest.approx(d, abs=1e-9)
            assert np.count_nonzero(img.data) == 1

    def test_corner_ray_angle(self, params):
        n = params.resolution
        pt = unproject((n - 1, n - 1), 5.0, params)
        expected = np.arctan(np.sqrt(2.0) * np.tan(params.half_fov) * (1.0 - 1.0 / n))
        got = np.arccos(pt @ params.w_axis / np.linalg.norm(pt))
        assert got == pytest.approx(expected, abs=1e-12)


class TestTiltedView:
    def test_round_trip_with_tilted_axis(self, rng):
        p = ProjectionParams(resolution=128, half_fov=np.deg2rad(50.0),
                             view_direction=(0.3, -0.1, 1.0))
        for _ in range(100):
            u = int(rng.integers(0, 128))
            v = int(rng.integers(0, 128))
            d = float(rng.uniform(1.0, 50.0))
            pt = unproject((u, v), d, p)
            img = project([pt], p)
            assert img.data[v, u] == pytest.approx(d, abs=1e-9)


class TestAsciiDump:
    def test_golden_file(self):
        # the P2 grid in tests/data holds a projection's depths in integer mm
        p = ProjectionParams(resolution=64, half_fov=np.deg2rad(45.0))
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(-4, 4, 20), rng.uniform(-4, 4, 20),
                               rng.uniform(2, 30, 20)])
        magic, size, top, *rows = (ROOT / "tests" / "data" / "depth_64.pgm").read_text().splitlines()
        grid = np.array([[int(x) for x in row.split()] for row in rows])
        assert (magic, size) == ("P2", "64 64") and int(top) == grid.max()
        assert np.array_equal(grid, np.rint(project(pts, p).data * 1000.0))
