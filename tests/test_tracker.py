import numpy as np
import pytest

from dronepose import pipeline
from dronepose.depth_image import ProjectionParams
from dronepose.detector import KernelParams
from dronepose.geom import Pose
from dronepose.scan_sim import (
    DroneModel,
    LidarModel,
    ScanFrame,
    Scene,
    Trajectories,
    simulate_full_scan,
)
from dronepose.scenario import parse_scenario
from dronepose.tracker import (
    _SUPPORT_BLOCK,
    MeanShiftParams,
    TrackState,
    _support,
    acquire,
    mean_shift_refine,
    track_step,
)
from conftest import SWEEP_OMEGA, static_trajectory
from oracles import oracle_mean_shift, reference_support


@pytest.fixture
def params():
    return MeanShiftParams()


def cluster_frame(center, t0, n=60, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.asarray(center) + rng.normal(scale=spread, size=(n, 3))
    return ScanFrame(pts, t0, t0 + 0.12, Pose(np.eye(3), np.zeros(3)))


class TestMeanShiftRefine:
    def test_single_point_snaps_to_it(self, params):
        q = np.array([1.0, 2.0, 3.0])
        out = mean_shift_refine([q], q + [0.3, 0.0, -0.2], params)
        assert np.allclose(out, q, atol=1e-15)

    def test_symmetric_pair_fixpoint(self, params):
        c = np.array([0.5, -0.3, 2.0])
        delta = np.array([0.2, 0.1, -0.15])
        out = mean_shift_refine([c + delta, c - delta], c, params)
        assert np.allclose(out, c, atol=1e-9)

    def test_tiny_bandwidth_snaps_to_nearest_point(self):
        # every Gaussian weight underflows to 0 at this bandwidth; the step must
        # not divide 0 by 0
        near, far = np.array([2.0, 1.0, 10.0]), np.array([3.0, 1.0, 10.0])
        params = MeanShiftParams(radius=2.0, bandwidth=1e-7)
        out = mean_shift_refine([far, near], near + [0.3, 0.1, 0.0], params)
        assert np.array_equal(out, near)

    def test_empty_neighborhood_raises(self, params):
        assert mean_shift_refine([(10.0, 10.0, 10.0)], (0.0, 0.0, 0.0), params) is None

    def test_matches_oracle_exactly(self, params, rng):
        for _ in range(20):
            n = int(rng.integers(5, 400))
            c = rng.uniform(-5, 5, size=3)
            pts = c + rng.normal(scale=0.3, size=(n, 3))
            start = c + rng.uniform(-0.4, 0.4, size=3)
            out = mean_shift_refine(pts, start, params)
            ref = oracle_mean_shift(pts, start, params.radius, params.bandwidth,
                                    params.iterations)
            assert np.max(np.abs(out - ref)) < 1e-12

    def test_block_wise_support_matches_whole_array(self, params, rng):
        # sweep-sized input spanning several support blocks, partial last block;
        # every third point lies outside the support, the rest inside it
        start = rng.uniform(-0.5, 0.5, size=3)
        pts = start + rng.uniform(-0.55, 0.55, size=(3 * 16384 + 17, 3))
        pts[1::3, 0] += 5.0
        support = pts[np.linalg.norm(pts - start, axis=1) <= params.radius]
        estimate = start.copy()
        for _ in range(params.iterations):
            weights = np.exp(-np.sum((support - estimate) ** 2, axis=1) / params.bandwidth)
            estimate = (weights @ support) / np.sum(weights)
        assert np.array_equal(mean_shift_refine(pts, start, params), estimate)

    def test_gaussian_cluster_near_weighted_centroid(self, params):
        rng = np.random.default_rng(42)
        c = np.array([1.0, -2.0, 14.0])
        pts = c + rng.normal(scale=0.1, size=(100, 3))
        start = c + np.array([0.3, -0.2, 0.2])
        out = mean_shift_refine(pts, start, params)
        # one-shot Gaussian-weighted centroid around the true center
        w = np.exp(-np.sum((pts - c) ** 2, axis=1) / params.bandwidth)
        centroid = (w @ pts) / w.sum()
        assert np.linalg.norm(out - centroid) < 0.05

    def test_iterates_stay_in_support_bounding_box(self, params, rng):
        pts = rng.uniform(-1, 1, size=(50, 3))
        start = np.zeros(3)
        support = pts[np.linalg.norm(pts - start, axis=1) <= params.radius]
        out = mean_shift_refine(pts, start, params)
        assert np.all(out >= support.min(axis=0) - 1e-12)
        assert np.all(out <= support.max(axis=0) + 1e-12)


def at_radius_edge(rng, center, radius, n):
    """Points whose distance from ``center`` rounds to within a few ulps of
    ``radius``, kept only where sqrt(s) <= r and s <= r*r disagree (s the
    squared distance as computed), so a squared-radius test drops them."""
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ulps = rng.integers(-4, 5, size=n)[:, None] * np.spacing(radius)
    pts = center + dirs * (radius + ulps)
    s = np.sum((pts - center) ** 2, axis=1)
    return pts[(np.sqrt(s) <= radius) != (s <= radius * radius)]


class TestSupportSameBits:
    """The support selection keeps the rows the row-wise norm test keeps, in order."""

    @staticmethod
    def check(pts, center, radius):
        got = _support(pts, center, radius)
        want = reference_support(pts, center, radius)
        assert got.shape == want.shape and np.array_equal(got, want)
        return len(got)

    def test_seeded_points(self, rng):
        for radius in (0.05, 0.3, 1.0, 2.5):
            for _ in range(20):
                center = rng.uniform(-20.0, 20.0, size=3)
                pts = center + rng.normal(scale=rng.choice([0.3, 1.0, 5.0]), size=(3000, 3))
                self.check(pts, center, radius)

    def test_where_squared_radius_test_disagrees(self, rng):
        found = 0
        for radius in rng.uniform(0.01, 3.0, size=200):
            center = rng.uniform(-30.0, 30.0, size=3)
            edge = at_radius_edge(rng, center, radius, 400)
            pts = np.concatenate([edge, center + rng.normal(scale=radius, size=(200, 3))])
            found += len(edge)
            self.check(rng.permutation(pts), center, radius)
        assert found > 100

    def test_one_km_from_the_origin(self, rng):
        for _ in range(20):
            center = rng.normal(size=3)
            center *= 1000.0 / np.linalg.norm(center)
            pts = np.concatenate([center + rng.normal(scale=0.8, size=(2000, 3)),
                                  at_radius_edge(rng, center, 1.0, 2000)])
            assert self.check(pts, center, 1.0) > 0

    @pytest.mark.parametrize("n", [_SUPPORT_BLOCK - 1, _SUPPORT_BLOCK, _SUPPORT_BLOCK + 1])
    def test_block_boundaries(self, rng, n):
        center = rng.uniform(-1.0, 1.0, size=3)
        pts = center + rng.uniform(-1.2, 1.2, size=(n, 3))
        pts[-5:] = at_radius_edge(rng, center, 1.0, 400)[:5]   # the last block's edge rows
        self.check(pts, center, 1.0)

    def test_empty_input_and_tiny_radius(self):
        assert self.check(np.empty((0, 3)), np.zeros(3), 1.0) == 0
        # |dx| > radius, yet dx * dx underflows to 0 and the norm test keeps the point
        pts = np.array([[2e-200, 0.0, 0.0], [3e-100, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert self.check(pts, np.zeros(3), 1e-200) == 2

    def test_acquisition_sweep(self, acquisition_sweep, rng):
        points, scenario = acquisition_sweep
        radius = scenario.meanshift.radius
        for center in points[rng.integers(0, len(points), size=8)]:
            assert self.check(points, center, radius) > 0


class TestTrackStep:
    def test_static_target_has_negligible_drift(self, params):
        c = (3.0, 1.0, 12.0)
        state = TrackState(position=np.asarray(c))
        prev = state.position
        for k in range(20):
            state = track_step(state, cluster_frame(c, 0.12 * k, seed=5), params)
            assert state.status == "locked"
            drift = np.linalg.norm(state.position - prev)
            prev = state.position
            if k > 0:
                assert drift < 1e-6

    def test_moving_target_lag_below_radius(self, params):
        c0 = np.array([2.0, 0.0, 10.0])
        state = TrackState(position=c0.copy())
        errs = []
        for k in range(100):
            c = c0 + [0.1 * (k + 1), 0.0, 0.0]
            state = track_step(state, cluster_frame(tuple(c), 0.12 * k, seed=k), params)
            errs.append(np.linalg.norm(state.position - c))
        errs = np.array(errs)
        assert errs.max() < params.radius
        assert np.sqrt(np.mean(errs ** 2)) < 0.2

    def test_teleport_sets_lost_after_miss_limit(self, params):
        state = TrackState(position=np.array([0.0, 0.0, 10.0]))
        state = track_step(state, cluster_frame((0, 0, 10), 0.0), params)
        for k in range(params.miss_limit):
            assert state.status == "locked"
            state = track_step(state, cluster_frame((30, 30, 10), 0.12 * (k + 1)), params)
        assert state.status == "lost"
        assert state.misses == params.miss_limit

    def test_pointing_azimuth_follows_target(self, monkeypatch):
        # run asks the source for each frame at the track's azimuth; a miss keeps it
        path = [np.array([3.0, 0.4 * k, 10.0]) for k in range(8)]
        path[4] = path[4] + 30.0            # nothing near the track: a miss
        asked = []
        identity = Pose(np.eye(3), np.zeros(3))

        class Source:
            def __init__(self, scenario):
                self.t = 0.0

            def sweep(self):
                return None if asked else cluster_frame(path[0], 0.0)

            def vibration(self, azimuth, want_ego):
                k = len(asked)
                if k == len(path):
                    return None
                asked.append(azimuth)
                return pipeline._VibrationInputs(
                    cluster_frame(path[k], 0.12 * k, seed=k), 0.12 * k + 0.06, identity,
                    np.eye(3), np.eye(3), None, path[k], np.eye(3))

        monkeypatch.setattr(pipeline, "_SimSource", Source)
        monkeypatch.setattr(pipeline, "acquire", lambda scan, *params: TrackState(path[0]))
        record = pipeline.run(parse_scenario(
            "schema_version = 1\nseed = 9\n"
            "drone.waypoint.0.time = 0\ndrone.waypoint.0.position = 0 0 20\n"))
        assert record.status == ["locked"] * len(path)
        estimates = [path[0], *record.est_positions[:-1]]
        assert asked == [float(np.arctan2(p[1], p[0])) for p in estimates]
        assert np.array_equal(record.est_positions[4], record.est_positions[3])
        assert asked[5] == asked[4] and len(set(asked)) == len(path) - 1


class TestAcquire:
    def _world(self, drone_pos, drone_width=0.15):
        scene = Scene([])
        traj = Trajectories(drone=static_trajectory(drone_pos),
                            vehicle=static_trajectory((0.0, 0.0, 1.5)))
        lidar = LidarModel(points_per_second=400000.0)
        return simulate_full_scan(scene, traj, lidar, SWEEP_OMEGA, 0.0,
                                  drone=DroneModel(width=drone_width))

    def test_locks_with_small_error(self):
        frame = self._world((2.0, 1.5, 11.0))
        proj = ProjectionParams()
        state = acquire(frame, proj, KernelParams(drone_width=0.15), MeanShiftParams())
        assert state.status == "locked"
        truth = np.array([2.0, 1.5, 9.5])
        assert np.linalg.norm(state.position - truth) < 0.1

    def test_empty_sky_raises(self):
        scene = Scene([])
        traj = Trajectories(drone=static_trajectory((0, 0, 20)),
                            vehicle=static_trajectory((0, 0, 1.5)))
        frame = simulate_full_scan(scene, traj, LidarModel(), SWEEP_OMEGA, 0.0, drone=None)
        assert acquire(frame, ProjectionParams(), KernelParams(), MeanShiftParams()) is None

    def test_fov_cull_gates_acquisition(self):
        proj = ProjectionParams()  # half fov 60 deg about +Z
        # at 65 deg off zenith the drone never enters the image
        off = np.tan(np.deg2rad(65.0)) * 10.0
        frame = self._world((off, 0.0, 1.5 + 10.0), drone_width=0.5)
        assert acquire(frame, proj, KernelParams(), MeanShiftParams()) is None
        # at 50 deg it is acquired
        off = np.tan(np.deg2rad(50.0)) * 10.0
        frame = self._world((off, 0.0, 1.5 + 10.0), drone_width=0.5)
        state = acquire(frame, proj, KernelParams(), MeanShiftParams())
        assert state.status == "locked"

    def test_no_return_near_the_detection_is_no_lock(self):
        # the detection is the winning pixel's centre, more than 1 mm from every return
        frame = self._world((2.0, 1.5, 11.0))
        proj, kernel = ProjectionParams(), KernelParams(drone_width=0.15)
        assert acquire(frame, proj, kernel, MeanShiftParams(radius=1e-3)) is None
        assert acquire(frame, proj, kernel, MeanShiftParams()).status == "locked"
