import numpy as np
import pytest

from dronepose.geom import Pose, angle_between, rotation_about_z
from dronepose.scan_sim import (
    DroneModel,
    IndirectObsModel,
    LidarModel,
    Scene,
    ScenePrimitive,
    Trajectories,
    TrajectorySpec,
    observe_ego_direction,
    observe_vds,
    simulate_full_scan,
    simulate_vibration_frame,
    _ray_box,
    _ray_rect_z,
    _ray_spheres,
)
from conftest import SWEEP_OMEGA, static_trajectory

VIBRATE_AMPLITUDE = np.deg2rad(5.0)
VIBRATE_PERIOD = 0.12    # s


@pytest.fixture
def vehicle_at_origin():
    return static_trajectory((0.0, 0.0, 0.0))


def world(drone_pos=(0.0, 0.0, 20.0), vehicle_pos=(0.0, 0.0, 0.0)):
    return Trajectories(drone=static_trajectory(drone_pos),
                        vehicle=static_trajectory(vehicle_pos))


class TestPrimitives:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScenePrimitive("cylinder", (0, 0, 0))

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            ScenePrimitive("box", (0, 0, 0), (1.0, 0.0, 1.0))

    def test_blob_needs_count_and_radius(self):
        with pytest.raises(ValueError):
            ScenePrimitive("sparse_blob", (0, 0, 0), count=0, scatter_radius=1.0)
        with pytest.raises(ValueError):
            ScenePrimitive("sparse_blob", (0, 0, 0), count=5, scatter_radius=0.0)

    def test_blob_scatter_is_seed_stable(self):
        prim = ScenePrimitive("sparse_blob", (5, 5, 5), (0.2, 0.2, 0.2),
                              count=12, scatter_radius=2.0)
        a = Scene([prim], seed=9)
        b = Scene([prim], seed=9)
        assert np.array_equal(a.sphere_centers, b.sphere_centers)
        assert np.all(np.linalg.norm(a.sphere_centers - (5, 5, 5), axis=1) <= 2.0)


def dense_nearest_hit(scene, origins, dirs, drone_centers=None, drone_half=0.0):
    """Reference without culling: every ray against every primitive."""
    t = np.full(len(origins), np.inf)
    if len(scene.sphere_centers):
        t = np.minimum(t, _ray_spheres(origins, dirs, scene.sphere_centers, scene.sphere_radii))
    for prim in scene.primitives:
        c, half = prim.center, prim.dimensions / 2.0
        if prim.kind == "box":
            t = np.minimum(t, _ray_box(origins, dirs, c - half, c + half))
        elif prim.kind == "ground_plane":
            t = np.minimum(t, _ray_rect_z(origins, dirs, c[2], c[0], c[1], half[0], half[1]))
    if drone_centers is not None and drone_half > 0.0:
        t = np.minimum(t, _ray_box(origins, dirs, drone_centers - drone_half,
                                   drone_centers + drone_half))
    return t


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_scene(rng):
    prims = [ScenePrimitive("ground_plane", (0.0, 0.0, rng.uniform(-2, 0)), (60.0, 50.0, 1.0))]
    for _ in range(rng.integers(1, 4)):
        prims.append(ScenePrimitive("box", rng.uniform(-12, 12, 3), rng.uniform(0.5, 6, 3)))
    for _ in range(rng.integers(1, 4)):
        prims.append(ScenePrimitive("sparse_blob", rng.uniform(-12, 12, 3),
                                    (rng.uniform(0.1, 0.6),) * 3,
                                    count=int(rng.integers(1, 30)),
                                    scatter_radius=rng.uniform(0.5, 4.0)))
    for _ in range(rng.integers(0, 4)):
        prims.append(ScenePrimitive("sphere", rng.uniform(-12, 12, 3), (rng.uniform(0.2, 3),) * 3))
    return Scene(prims, seed=int(rng.integers(100)))


def grazing_rays(rng, centers, radii):
    """Rays tangent to each sphere, from origins 1-30 m away along the tangent."""
    normal = unit(rng.normal(size=centers.shape))
    along = unit(np.cross(normal, rng.normal(size=centers.shape)))
    touch = centers + radii[:, None] * normal
    origins = touch - rng.uniform(1.0, 30.0, size=(len(centers), 1)) * along
    return origins, along


def edge_case_rays(rng, scene):
    """Origins and directions covering the broad phase's edge cases."""
    n = 400
    origins = [rng.uniform(-20, 20, (n, 3))]
    dirs = [unit(rng.normal(size=(n, 3)))]
    # zero direction components: axis-aligned and in-plane rays, signed zeros
    axis = np.zeros((n, 3))
    axis[np.arange(n), rng.integers(0, 3, n)] = rng.choice((-1.0, 1.0), n)
    planar = unit(rng.normal(size=(n, 3)))
    planar[np.arange(n), rng.integers(0, 3, n)] = rng.choice((0.0, -0.0), n)
    origins += [rng.uniform(-20, 20, (n, 3)), rng.uniform(-20, 20, (n, 3))]
    dirs += [axis, unit(planar)]
    # origins inside blob spheres and at the centers of the bounds
    for pts in (scene.sphere_centers, scene.bound_centers):
        if len(pts):
            pick = pts[rng.integers(0, len(pts), n)] + rng.normal(0.0, 0.01, (n, 3))
            origins.append(pick)
            dirs.append(unit(rng.normal(size=(n, 3))))
    # rays grazing the padded bounds, the small spheres and the box corners
    for centers, radii in ((scene.bound_centers, scene.bound_radii),
                           (scene.sphere_centers, scene.sphere_radii)):
        if len(centers):
            o, d = grazing_rays(rng, centers, radii)
            origins.append(o)
            dirs.append(d)
    for prim in scene.primitives:
        if prim.kind == "box":
            corners = prim.center + prim.dimensions / 2.0 * rng.choice((-1.0, 1.0), (50, 3))
            o = rng.uniform(-25, 25, (50, 3))
            origins.append(o)
            dirs.append(unit(corners - o))
    return np.concatenate(origins), np.concatenate(dirs)


class TestBroadPhase:
    """Culled nearest_hit returns the same bits as the all-pairs cast."""

    def test_random_scenes_match_dense_reference(self):
        rng = np.random.default_rng(20861)
        hits = 0
        for _ in range(25):
            scene = random_scene(rng)
            origins, dirs = edge_case_rays(rng, scene)
            got = scene.nearest_hit(origins, dirs)
            assert np.array_equal(got, dense_nearest_hit(scene, origins, dirs))
            hits += np.count_nonzero(np.isfinite(got))
        assert hits > 10_000

    def test_drone_boxes_with_per_ray_centers(self):
        rng = np.random.default_rng(20862)
        for half in (0.05, 0.25, 1.5):
            scene = random_scene(rng)
            origins, dirs = edge_case_rays(rng, scene)
            drone = origins + 6.0 * dirs + rng.normal(0.0, 2.0 * half, origins.shape)
            drone[::7] = origins[::7] + rng.uniform(-half, half, (len(drone[::7]), 3))
            got = scene.nearest_hit(origins, dirs, drone, half)
            ref = dense_nearest_hit(scene, origins, dirs, drone, half)
            assert np.array_equal(got, ref)
            assert np.count_nonzero(got < dense_nearest_hit(scene, origins, dirs)) > 100

    def test_empty_scene(self):
        rng = np.random.default_rng(3)
        origins, dirs = rng.uniform(-5, 5, (50, 3)), unit(rng.normal(size=(50, 3)))
        scene = Scene([])
        assert np.all(np.isinf(scene.nearest_hit(origins, dirs)))
        drone = origins + 3.0 * dirs
        got = scene.nearest_hit(origins, dirs, drone, 0.25)
        assert np.array_equal(got, dense_nearest_hit(scene, origins, dirs, drone, 0.25))
        assert np.all(np.isfinite(got))

    def test_single_ray(self):
        rng = np.random.default_rng(4)
        scene = random_scene(rng)
        origins, dirs = edge_case_rays(rng, scene)
        for i in range(0, len(origins), 37):
            o, d = origins[i][None], dirs[i][None]
            assert np.array_equal(scene.nearest_hit(o, d), dense_nearest_hit(scene, o, d))


class TestFullScan:
    def test_noiseless_sphere_hits_lie_on_surface(self, vehicle_at_origin):
        center = np.array([10.0, 0.0, 0.0])
        scene = Scene([ScenePrimitive("sphere", center, (4.0, 4.0, 4.0))])
        traj = Trajectories(drone=static_trajectory((0, 0, 500)), vehicle=vehicle_at_origin)
        frame = simulate_full_scan(scene, traj, LidarModel(points_per_second=60000.0),
                                   SWEEP_OMEGA, 0.0)
        assert len(frame) > 100
        radii = np.linalg.norm(frame.points - center, axis=1)
        assert np.max(np.abs(radii - 2.0)) < 1e-9

    def test_empty_scene_empty_frame(self, vehicle_at_origin):
        frame = simulate_full_scan(Scene([]), world(), LidarModel(),
                                   SWEEP_OMEGA, 0.0)
        assert len(frame) == 0

    def test_drone_only_returns_near_body(self):
        drone = DroneModel(width=0.5)
        frame = simulate_full_scan(Scene([]), world(drone_pos=(0, 0, 20)), LidarModel(),
                                   SWEEP_OMEGA, 0.0, drone=drone)
        assert len(frame) > 0
        dists = np.linalg.norm(frame.points - (0, 0, 20), axis=1)
        assert np.max(dists) <= 0.5 * np.sqrt(3.0) / 2.0 + 1e-9

    def test_box_hits_lie_on_faces(self, vehicle_at_origin):
        center = np.array([0.0, 12.0, 3.0])
        dims = np.array([4.0, 2.0, 6.0])
        scene = Scene([ScenePrimitive("box", center, dims)])
        traj = Trajectories(drone=static_trajectory((0, 0, 500)), vehicle=vehicle_at_origin)
        frame = simulate_full_scan(scene, traj, LidarModel(points_per_second=60000.0),
                                   SWEEP_OMEGA, 0.0)
        assert len(frame) > 50
        rel = np.abs(frame.points - center) - dims / 2.0
        on_face = np.min(np.abs(rel), axis=1) < 1e-9
        inside = np.all(rel <= 1e-9, axis=1)
        assert np.all(on_face & inside)

    def test_sweep_azimuth_coverage(self, vehicle_at_origin):
        scene = Scene([ScenePrimitive("sphere", (0, 0, 0), (100.0, 100.0, 100.0))])
        traj = Trajectories(drone=static_trajectory((0, 0, 500)), vehicle=vehicle_at_origin)
        lidar = LidarModel(points_per_second=60000.0, max_range=80.0)
        frame = simulate_full_scan(scene, traj, lidar, SWEEP_OMEGA, 0.0)
        azimuths = np.arctan2(frame.points[:, 1], frame.points[:, 0])
        step = SWEEP_OMEGA * lidar.firing_interval
        # directions wrap, so measure covered arc on the circle
        hist, _ = np.histogram(azimuths, bins=360, range=(-np.pi, np.pi))
        covered = np.count_nonzero(hist) / 360.0 * 2.0 * np.pi
        assert covered >= np.pi - step - np.deg2rad(2.0)

    def test_back_projection_with_moving_vehicle(self):
        # vehicle translates and yaws during the sweep; mapping the frame
        # (aligned at t_start) back to world must land on the surface,
        # which fails if poses are not evaluated per emission timestamp
        center = np.array([15.0, 5.0, 4.0])
        scene = Scene([ScenePrimitive("sphere", center, (6.0, 6.0, 6.0))])
        vehicle = TrajectorySpec(
            [0.0, 3.0],
            [(0.0, 0.0, 1.5), (6.0, 1.0, 1.5)],
            [np.eye(3), rotation_about_z(np.deg2rad(25.0))],
        )
        traj = Trajectories(drone=static_trajectory((0, 0, 500)), vehicle=vehicle)
        frame = simulate_full_scan(scene, traj, LidarModel(points_per_second=60000.0),
                                   SWEEP_OMEGA, 0.0)
        assert len(frame) > 50
        align = vehicle.pose_at(0.0)
        world_pts = align.transform(frame.points)
        radii = np.linalg.norm(world_pts - center, axis=1)
        assert np.max(np.abs(radii - 3.0)) < 1e-9

    def test_range_noise_statistics(self, vehicle_at_origin):
        center = np.array([10.0, 0.0, 0.0])
        scene = Scene([ScenePrimitive("sphere", center, (4.0, 4.0, 4.0))])
        traj = Trajectories(drone=static_trajectory((0, 0, 500)), vehicle=vehicle_at_origin)
        lidar = LidarModel(points_per_second=60000.0, range_noise=0.05)
        frame = simulate_full_scan(scene, traj, lidar, SWEEP_OMEGA, 0.0,
                                   rng=np.random.default_rng(3))
        radii = np.linalg.norm(frame.points - center, axis=1)
        spread = np.std(radii - 2.0)
        assert 0.03 < spread < 0.08


class TestVibrationFrame:
    def test_drone_inside_wedge_gets_returns(self):
        drone_pos = (5.0, 5.0, 18.0)
        frame = simulate_vibration_frame(Scene([]), world(drone_pos), LidarModel(),
                                         np.arctan2(5.0, 5.0), VIBRATE_AMPLITUDE,
                                         VIBRATE_PERIOD, 0.0, drone=DroneModel())
        assert len(frame) >= 1
        assert np.all(np.linalg.norm(frame.points - drone_pos, axis=1) < 0.5)

    def test_drone_far_outside_wedge_gets_none(self):
        drone_pos = (5.0, 5.0, 1.0)   # low elevation so the fan must point at it
        az = np.arctan2(5.0, 5.0)
        frame = simulate_vibration_frame(Scene([]), world(drone_pos), LidarModel(),
                                         az + np.pi / 2, VIBRATE_AMPLITUDE, VIBRATE_PERIOD,
                                         0.0, drone=DroneModel())
        assert len(frame) == 0

    def test_deterministic_for_same_seed(self):
        scene = Scene([ScenePrimitive("box", (10, 0, 5), (4, 4, 10))], seed=2)
        lidar = LidarModel(range_noise=0.03)
        frames = [
            simulate_vibration_frame(scene, world(), lidar, 0.2, VIBRATE_AMPLITUDE,
                                     VIBRATE_PERIOD, 0.0, drone=DroneModel(),
                                     rng=np.random.default_rng(77))
            for _ in range(2)
        ]
        assert np.array_equal(frames[0].points, frames[1].points)

    def test_frame_duration_is_one_period(self):
        frame = simulate_vibration_frame(Scene([]), world(), LidarModel(), 0.0,
                                         VIBRATE_AMPLITUDE, 0.12, 2.0)
        assert frame.t_start == 2.0
        assert frame.t_end == pytest.approx(2.12)


class TestTrajectory:
    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            TrajectorySpec([0.0], [(0, 0, 0)], [np.eye(3)])

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            TrajectorySpec([0.0, 0.0], [(0, 0, 0)] * 2, [np.eye(3)] * 2)

    def test_position_interpolation(self):
        traj = TrajectorySpec([0.0, 10.0], [(0, 0, 0), (10, 0, 0)], [np.eye(3)] * 2)
        assert np.allclose(traj.position_at(2.5), (2.5, 0, 0))
        assert np.allclose(traj.position_at(-1.0), (0, 0, 0))   # clamped
        assert np.allclose(traj.position_at(99.0), (10, 0, 0))

    def test_rotation_interpolation_is_geodesic(self):
        r0 = np.eye(3)
        r1 = rotation_about_z(np.deg2rad(90.0))
        traj = TrajectorySpec([0.0, 10.0], [(0, 0, 0)] * 2, [r0, r1])
        mid = traj.rotation_at(5.0)
        assert np.allclose(mid, rotation_about_z(np.deg2rad(45.0)), atol=1e-9)

    def test_batch_matches_scalar(self, rng):
        times = [0.0, 2.0, 7.0]
        traj = TrajectorySpec(times, rng.normal(size=(3, 3)),
                              [rotation_about_z(a) for a in (0.0, 0.7, -0.4)])
        ts = rng.uniform(-1.0, 9.0, size=20)
        batch_p = traj.positions_at(ts)
        batch_r = traj.rotations_at(ts)
        for i, t in enumerate(ts):
            assert np.allclose(batch_p[i], traj.position_at(float(t)))
            assert np.allclose(batch_r[i], traj.rotation_at(float(t)))


class TestObserveVds:
    def test_identity_pose_no_noise_no_scramble(self):
        model = IndirectObsModel(vd_noise=0.0, scramble=False)
        v = observe_vds(Pose(np.eye(3), np.zeros(3)), model)
        assert np.allclose(v, np.eye(3))

    def test_known_rotation_recovered_up_to_scramble(self, rng):
        model = IndirectObsModel(vd_noise=0.0, scramble=True)
        rot = rotation_about_z(0.8)
        v = observe_vds(Pose(rot, np.zeros(3)), model, rng)
        expected = rot.T  # columns of R^T are the world axes in camera coords
        # every returned column equals +-1 times some expected column
        for i in range(3):
            dots = np.abs(expected.T @ v[:, i])
            assert np.max(dots) == pytest.approx(1.0, abs=1e-12)

    def test_noise_statistics_half_normal(self):
        model = IndirectObsModel(vd_noise=np.deg2rad(1.0), scramble=False)
        rng = np.random.default_rng(11)
        pose = Pose(np.eye(3), np.zeros(3))
        devs = []
        for _ in range(1000):
            v = observe_vds(pose, model, rng)
            for i in range(3):
                devs.append(angle_between(v[:, i], np.eye(3)[:, i]))
        mean_dev = np.rad2deg(np.mean(devs))
        assert 0.6 < mean_dev < 1.4

    def test_columns_stay_unit(self, rng):
        model = IndirectObsModel(vd_noise=np.deg2rad(3.0), scramble=True)
        v = observe_vds(Pose(rotation_about_z(0.5), np.zeros(3)), model, rng)
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-9)


class TestObserveEgoDirection:
    def test_pure_x_motion_identity_frame(self):
        a = Pose(np.eye(3), (0.0, 0.0, 10.0))
        b = Pose(np.eye(3), (3.0, 0.0, 10.0))
        assert np.allclose(observe_ego_direction(a, b), (1, 0, 0))

    def test_rotated_frame(self):
        yawed = rotation_about_z(np.deg2rad(90.0))
        a = Pose(yawed, (0.0, 0.0, 10.0))
        b = Pose(yawed, (3.0, 0.0, 10.0))
        # +X world seen from a frame yawed +90 deg appears along -Y
        assert np.allclose(observe_ego_direction(a, b), (0, -1, 0), atol=1e-12)

    def test_zero_displacement_raises(self):
        a = Pose(np.eye(3), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="no motion"):
            observe_ego_direction(a, a)
