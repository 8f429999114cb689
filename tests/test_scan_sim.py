from itertools import permutations, product

import numpy as np
import pytest

from dronepose import scan_sim
from dronepose.geom import Pose, angle_between, euler_to_rotation, rotation_about_z
from dronepose.scenario import load_scenario
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
    _BLOCK_FIRINGS,
    _pad,
    _ray_box,
    _ray_rect_z,
    _sphere_fans,
)
from conftest import ROOT, SWEEP_OMEGA, static_trajectory
from oracles import (
    dense_nearest_hit,
    reference_cast,
    reference_may_hit,
    reference_observe_ego_direction,
    reference_observe_vds,
    reference_ray_box,
    reference_ray_spheres,
    reference_rotations_at,
)

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


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# A vehicle about 1 km from the world origin: there the broad phase's padding
# is smallest relative to the coordinates it is computed from.
FAR = np.array([830.0, -560.0, 40.0])


def random_scene(rng, shift=np.zeros(3)):
    prims = [ScenePrimitive("ground_plane", shift + (0.0, 0.0, rng.uniform(-2, 0)),
                            (60.0, 50.0, 1.0))]
    for _ in range(rng.integers(1, 4)):
        prims.append(ScenePrimitive("box", shift + rng.uniform(-12, 12, 3),
                                    rng.uniform(0.5, 6, 3)))
    for _ in range(rng.integers(1, 4)):
        prims.append(ScenePrimitive("sparse_blob", shift + rng.uniform(-12, 12, 3),
                                    (rng.uniform(0.1, 0.6),) * 3,
                                    count=int(rng.integers(1, 30)),
                                    scatter_radius=rng.uniform(0.5, 4.0)))
    for _ in range(rng.integers(0, 4)):
        prims.append(ScenePrimitive("sphere", shift + rng.uniform(-12, 12, 3),
                                    (rng.uniform(0.2, 3),) * 3))
    return Scene(prims, seed=int(rng.integers(100)))


def grazing_rays(rng, centers, radii, normal=None):
    """Rays tangent to each sphere, from origins 1-30 m away along the tangent;
    the tangent points lie along ``normal`` (random by default)."""
    if normal is None:
        normal = unit(rng.normal(size=centers.shape))
    along = unit(np.cross(normal, rng.normal(size=centers.shape)))
    touch = centers + radii[:, None] * normal
    origins = touch - rng.uniform(1.0, 30.0, size=(len(centers), 1)) * along
    return origins, along


def edge_case_rays(rng, scene, shift=np.zeros(3)):
    """Origins and directions covering the broad phase's edge cases."""
    n = 400
    origins = [shift + rng.uniform(-20, 20, (n, 3))]
    dirs = [unit(rng.normal(size=(n, 3)))]
    # zero direction components: axis-aligned and in-plane rays, signed zeros
    axis = np.zeros((n, 3))
    axis[np.arange(n), rng.integers(0, 3, n)] = rng.choice((-1.0, 1.0), n)
    planar = unit(rng.normal(size=(n, 3)))
    planar[np.arange(n), rng.integers(0, 3, n)] = rng.choice((0.0, -0.0), n)
    origins += [shift + rng.uniform(-20, 20, (n, 3)), shift + rng.uniform(-20, 20, (n, 3))]
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
            o = shift + rng.uniform(-25, 25, (50, 3))
            origins.append(o)
            dirs.append(unit(corners - o))
            # tangent to the box's bounding sphere at a corner, where both touch
            centers = np.repeat(prim.center[None], 50, axis=0)
            o, d = grazing_rays(rng, centers, np.full(50, np.linalg.norm(prim.dimensions) / 2.0),
                                unit(corners - prim.center))
            origins.append(o)
            dirs.append(d)
    return np.concatenate(origins), np.concatenate(dirs)


@pytest.mark.exact("scan_sim.nearest_hit")
class TestBroadPhase:
    """Culled nearest_hit returns the same bits as the all-pairs cast."""

    def test_random_scenes_match_dense_reference(self):
        self.check_random_scenes(np.zeros(3))

    def test_random_scenes_far_from_origin(self):
        self.check_random_scenes(FAR)

    def test_drone_boxes_with_per_ray_centers(self):
        self.check_drone_boxes(np.zeros(3))

    def test_drone_boxes_far_from_origin(self):
        self.check_drone_boxes(FAR)

    @staticmethod
    def check_random_scenes(shift):
        rng = np.random.default_rng(20861)
        hits = 0
        for _ in range(25):
            scene = random_scene(rng, shift)
            origins, dirs = edge_case_rays(rng, scene, shift)
            got = scene.nearest_hit(origins, dirs)
            assert np.array_equal(got, dense_nearest_hit(scene, origins, dirs))
            hits += np.count_nonzero(np.isfinite(got))
        assert hits > 10_000

    @staticmethod
    def check_drone_boxes(shift):
        rng = np.random.default_rng(20862)
        for half in (0.05, 0.25, 1.5):
            scene = random_scene(rng, shift)
            origins, dirs = edge_case_rays(rng, scene, shift)
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

    @pytest.mark.parametrize("shift", [np.zeros(3), FAR], ids=["origin", "far"])
    def test_standalone_spheres_only(self, shift):
        # each sphere is its own group: a bound of its own radius, padded
        rng = np.random.default_rng(20863)
        hits = 0
        for _ in range(10):
            scene = Scene([ScenePrimitive("sphere", shift + rng.uniform(-12, 12, 3),
                                          (rng.uniform(0.05, 3),) * 3)
                           for _ in range(rng.integers(1, 6))])
            assert len(scene.sphere_groups) == len(scene.primitives) == len(scene.sphere_centers)
            origins, dirs = edge_case_rays(rng, scene, shift)
            got = scene.nearest_hit(origins, dirs)
            assert np.array_equal(got, dense_nearest_hit(scene, origins, dirs))
            hits += np.count_nonzero(np.isfinite(got))
        assert hits > 1000

    def test_single_ray(self):
        rng = np.random.default_rng(4)
        scene = random_scene(rng)
        origins, dirs = edge_case_rays(rng, scene)
        for i in range(0, len(origins), 37):
            o, d = origins[i][None], dirs[i][None]
            assert np.array_equal(scene.nearest_hit(o, d), dense_nearest_hit(scene, o, d))

    def test_bare_rays_get_the_per_sphere_cull(self, monkeypatch):
        # 200 rays aimed into a 20-sphere blob's bound: each of its spheres
        # goes to the exact test only with the rays whose fans of one keep it
        rng = np.random.default_rng(20870)
        blob = ScenePrimitive("sparse_blob", (12.0, -3.0, 4.0), (0.3, 0.3, 0.3), count=20,
                              scatter_radius=1.5)
        scene = Scene([blob], seed=5)
        origins = rng.uniform(-2.0, 2.0, (200, 3))
        aim = blob.center + unit(rng.normal(size=(200, 3))) * rng.uniform(0.0, 1.4, (200, 1))
        dirs = unit(aim - origins)
        assert np.all(reference_may_hit(origins, dirs, scene.bound_centers[0],
                                        scene.bound_radii[0]))
        pairs = []
        real = scan_sim._ray_spheres

        def ray_spheres(o, d, centers, radii, sphere, ray, t):
            pairs.append(len(ray))
            real(o, d, centers, radii, sphere, ray, t)

        monkeypatch.setattr(scan_sim, "_ray_spheres", ray_spheres)
        got = scene.nearest_hit(origins, dirs)
        assert sum(pairs) < len(scene.sphere_centers) * len(origins)
        assert np.array_equal(got, dense_nearest_hit(scene, origins, dirs))
        assert np.count_nonzero(np.isfinite(got)) > 10

    def test_slab_test_sees_every_ray_of_the_fans_kept(self, monkeypatch):
        # two boxes and the drone: each slab test gets exactly the rays of the
        # fans its row keeps, also those that miss the bound, with 16-beam fans
        # and with bare rays (fans of one)
        rng = np.random.default_rng(20872)
        scene = Scene([ScenePrimitive("box", (6.0, 2.0, 1.0), (2.0, 1.0, 3.0)),
                       ScenePrimitive("box", (-4.0, 7.0, 2.0), (1.5, 1.5, 1.5)),
                       ScenePrimitive("ground_plane", (0.0, 0.0, -1.0), (50.0, 50.0, 1.0))])
        half, drone_r = 0.25, _pad(np.sqrt(3.0) * 0.25)
        origins, dirs = edge_case_rays(rng, scene)
        drone = origins + 6.0 * dirs + rng.normal(0.0, 2.0 * half, origins.shape)
        # rays passing 5e-7 m outside the padded bounds of the boxes and of the
        # first 40 drone boxes: inside the fan test's slack
        o_box, d_box = grazing_rays(rng, scene.bound_centers, scene.bound_radii + 5e-7)
        o_drone, d_drone = grazing_rays(rng, drone[:40], np.full(40, drone_r + 5e-7))
        origins = np.concatenate([origins, o_box, o_drone])
        dirs = np.concatenate([dirs, d_box, d_drone])
        drone = np.concatenate([drone, drone[:len(o_box)], drone[:40]])
        calls = []
        real = scan_sim._ray_box

        def ray_box(o, d, lo, hi):
            calls.append((o, d, lo, hi))
            return real(o, d, lo, hi)

        monkeypatch.setattr(scan_sim, "_ray_box", ray_box)
        beams = np.deg2rad(np.linspace(-15.0, 15.0, 16))
        u, v, fan_o, fan_d = planar_fans(rng, origins, dirs, beams)
        for fans, rays_o, rays_d in (
                (scene.fan_candidates(origins, u, v, beams, drone, half), fan_o, fan_d),
                (scene.fan_candidates(origins, dirs, np.zeros_like(dirs), np.zeros(1),
                                      drone, half), origins, dirs)):
            per_fan = len(rays_o) // len(origins)
            calls.clear()
            got = scene.nearest_hit(rays_o, rays_d, drone, half, fans if per_fan > 1 else None)
            ray_drone = np.repeat(drone, per_fan, axis=0)
            assert np.array_equal(got, dense_nearest_hit(scene, rays_o, rays_d, ray_drone, half))
            rows = [fans.rows[g] for g, _, _ in scene.boxes] + [fans.rows[-1]]
            assert len(calls) == len(rows) == 3
            for k, ((o, d, lo, hi), row) in enumerate(zip(calls, rows)):
                assert 0 < np.count_nonzero(row) < len(row)
                ray = (np.flatnonzero(row)[:, None] * per_fan + np.arange(per_fan)).ravel()
                assert np.array_equal(o, rays_o[ray]) and np.array_equal(d, rays_d[ray])
                if k < len(scene.boxes):
                    c, r = scene.bound_centers[k], scene.bound_radii[k]
                    assert np.array_equal(lo, scene.boxes[k][1])
                    assert np.array_equal(hi, scene.boxes[k][2])
                else:
                    c, r = ray_drone[ray], drone_r
                    assert np.array_equal(lo, c - half) and np.array_equal(hi, c + half)
                # the rays kept include rays that the per-ray bound test drops
                assert not np.all(reference_may_hit(o, d, c, r))

    def test_bare_rays_make_one_fan_candidates_call(self, monkeypatch):
        rng = np.random.default_rng(20873)
        scene = random_scene(rng)
        origins, dirs = edge_case_rays(rng, scene)
        drone = origins + 6.0 * dirs + rng.normal(0.0, 0.5, origins.shape)
        calls = []
        real = Scene.fan_candidates

        def fan_candidates(scene, *args, **kwargs):
            calls.append(args)
            return real(scene, *args, **kwargs)

        monkeypatch.setattr(Scene, "fan_candidates", fan_candidates)
        got = scene.nearest_hit(origins, dirs, drone, 0.25)
        assert len(calls) == 1
        assert np.array_equal(got, dense_nearest_hit(scene, origins, dirs, drone, 0.25))
        assert np.count_nonzero(got < dense_nearest_hit(scene, origins, dirs)) > 100

    @pytest.mark.parametrize("field, value", [("origin", np.nan), ("dir", np.inf),
                                              ("dir", -np.inf), ("drone", np.nan)])
    def test_non_finite_bare_rays_raise(self, field, value):
        scenario = load_scenario(ROOT / "scenarios" / "exp1_gentle_drift.scenario")
        scene = Scene(scenario.primitives, seed=scenario.seed)
        rng = np.random.default_rng(20871)
        rays = {"origin": rng.uniform(-5.0, 5.0, (5, 3)), "dir": unit(rng.normal(size=(5, 3)))}
        rays["drone"] = rays["origin"] + 4.0 * rays["dir"]
        rays[field][2, 1] = value
        drone = (rays["drone"], 0.25) if field == "drone" else ()
        with pytest.raises(ValueError, match="finite"):
            scene.nearest_hit(rays["origin"], rays["dir"], *drone)


def rays_from(rng, scene, origin):
    """Unit directions from one ``origin``: random ones, axis-aligned ones and
    ones with a signed zero component, and ones aimed at every sphere, bound and
    box corner and at points near their rims (near-grazing)."""
    n = 300
    dirs = [unit(rng.normal(size=(n, 3)))]
    axis = np.zeros((n, 3))
    axis[np.arange(n), rng.integers(0, 3, n)] = rng.choice((-1.0, 1.0), n)
    planar = unit(rng.normal(size=(n, 3)))
    planar[np.arange(n), rng.integers(0, 3, n)] = rng.choice((0.0, -0.0), n)
    dirs += [axis, unit(planar)]
    aims = [p.center + p.dimensions / 2.0 * np.array(signs) for p in scene.primitives
            if p.kind == "box" for signs in product((-1.0, 1.0), repeat=3)]
    for centers, radii in ((scene.sphere_centers, scene.sphere_radii),
                           (scene.bound_centers, scene.bound_radii)):
        side = unit(np.cross(centers - origin + rng.normal(0.0, 1e-3, centers.shape),
                             rng.normal(size=centers.shape)))
        aims += [*centers, *(centers + radii[:, None] * side),
                 *(centers + (1.0 + 1e-7) * radii[:, None] * side)]
    aims = np.array(aims) - origin
    dirs.append(unit(aims[np.linalg.norm(aims, axis=1) > 1e-6]))
    return np.concatenate(dirs)


@pytest.mark.exact("scan_sim.nearest_hit")
class TestSharedOrigin:
    """One (1, 3) origin and one (1, 3) drone centre give the bits of the same
    origin and centre repeated per fan and per ray, culled or not."""

    @pytest.mark.parametrize("shift", [np.zeros(3), FAR], ids=["origin", "far"])
    def test_nearest_hit(self, shift):
        rng = np.random.default_rng(20875)
        beams = np.deg2rad(np.linspace(-15.0, 15.0, 16))
        hits = 0
        for half in (0.05, 0.25, 1.5):
            scene = random_scene(rng, shift)
            # in the open, at a bound's centre and at a blob sphere's centre
            for origin in (shift + rng.uniform(-20, 20, 3), scene.bound_centers[-1],
                           scene.sphere_centers[0]):
                rays = rays_from(rng, scene, origin)
                u, v, _, dirs = planar_fans(rng, np.repeat(origin[None], len(rays), 0), rays,
                                            beams)
                for drone in (origin + 6.0 * rays[0] + rng.normal(0.0, half, 3), origin):
                    per_fan = [np.repeat(a[None], len(u), axis=0) for a in (origin, drone)]
                    per_ray = [np.repeat(a[None], len(dirs), axis=0) for a in (origin, drone)]
                    one = scene.fan_candidates(origin[None], u, v, beams, drone[None], half)
                    each = scene.fan_candidates(*per_fan[:1], u, v, beams, per_fan[1], half)
                    assert np.array_equal(one.rows, each.rows)
                    ref = dense_nearest_hit(scene, per_ray[0], dirs, per_ray[1], half)
                    for got in (scene.nearest_hit(origin[None], dirs, drone[None], half, one),
                                scene.nearest_hit(np.broadcast_to(origin, dirs.shape), dirs,
                                                  drone[None], half, one),
                                scene.nearest_hit(per_ray[0], dirs, per_fan[1], half, each),
                                scene.nearest_hit(origin[None], dirs, drone[None], half),
                                scene.nearest_hit(per_ray[0], dirs, per_ray[1], half)):
                        assert np.array_equal(got, ref)
                    bare = dense_nearest_hit(scene, per_ray[0], dirs)
                    assert np.array_equal(scene.nearest_hit(origin[None], dirs), bare)
                    hits += np.count_nonzero(np.isfinite(ref))
                    assert 0 < np.count_nonzero(~one.rows)
        assert hits > 10_000

    def test_fans_take_keeps_the_shared_row(self):
        rng = np.random.default_rng(20876)
        scene = random_scene(rng)
        beams = np.deg2rad(np.linspace(-15.0, 15.0, 16))
        origin = rng.uniform(-5, 5, 3)
        rays = rays_from(rng, scene, origin)
        u, v, _, _ = planar_fans(rng, np.repeat(origin[None], len(rays), 0), rays, beams)
        fans = scene.fan_candidates(origin[None], u, v, beams)
        k = np.flatnonzero(fans.rows.any(axis=0))
        taken = fans.take(k)
        assert taken.origins.shape == (1, 3) and np.array_equal(taken.origins[0], origin)
        assert taken.rows.shape == (len(fans.rows), len(k)) and len(taken.axes) == len(k)


def planar_fans(rng, origins, rays, beams, normals=None):
    """Fans of rays cos(b) u + sin(b) v from ``origins``, one per given ray,
    for the elevations b in ``beams``, from seeded orthonormal u and v. The
    given ray is one of the fan's beams (the first or the last for every
    fourth fan), and the fan's plane holds it and is normal to ``normals``
    (random by default). Returns u, v and the fans' rays' origins and
    directions, laid out fan by fan."""
    if normals is None:
        normals = rng.normal(size=rays.shape)
    side = unit(np.cross(normals, rays))
    j = rng.integers(0, len(beams), len(rays))
    j[::4] = rng.choice((0, len(beams) - 1), len(j[::4]))
    cj, sj = np.cos(beams[j])[:, None], np.sin(beams[j])[:, None]
    u, v = cj * rays - sj * side, sj * rays + cj * side
    dirs = np.cos(beams)[None, :, None] * u[:, None] + np.sin(beams)[None, :, None] * v[:, None]
    return u, v, np.repeat(origins, len(beams), axis=0), dirs.reshape(-1, 3)


def plane_grazing_rays(rng, centers, radii):
    """For each sphere, rays in planes at distance r (1 -+ 1e-9) from its center,
    aimed at the plane's nearest point to it from 1-30 m away; returns the
    origins, the directions and the planes' normals. The first half of the
    planes cut the sphere, the second half miss it."""
    centers, radii = np.tile(centers, (2, 1)), np.tile(radii, 2)
    normals = unit(rng.normal(size=centers.shape))
    along = unit(np.cross(normals, rng.normal(size=centers.shape)))
    gap = radii * np.repeat([1.0 - 1e-9, 1.0 + 1e-9], len(radii) // 2)
    foot = centers - gap[:, None] * normals
    return foot - rng.uniform(1.0, 30.0, (len(centers), 1)) * along, along, normals


def fan_scene(rng, shift):
    """``random_scene`` with a ceiling rectangle, so fans meet rectangles from
    above and from below."""
    scene = random_scene(rng, shift)
    return Scene(scene.primitives + [ScenePrimitive("ground_plane", shift + (2.0, -3.0, 8.0),
                                                    (30.0, 40.0, 1.0))],
                 seed=int(rng.integers(100)))


# Fan half-angles: a single ray, the LiDAR's 15 degrees, wide, either side of
# pi/2 (where the end-ray rule for rectangles gives way to keeping every fan
# and the cone test to the plane test alone), past pi, and the half-angles of
# spans of 15, 80, 89, 91, 179, 200 and 400 degrees.
FAN_SPREADS = {"ray": 0.0, "lidar": np.deg2rad(15.0), "wide": 1.2,
               "under_half_pi": np.pi / 2 - 1e-9, "over_half_pi": np.pi / 2 + 1e-9, "past_pi": 3.5,
               **{f"span_{span}": np.deg2rad(span / 2.0)
                  for span in (15, 80, 89, 91, 179, 200, 400)}}


@pytest.mark.exact("scan_sim.fan_candidates")
class TestFanCull:
    """The fan-level broad phase drops no ray that the per-ray test keeps."""

    @staticmethod
    def fan_cases(shift, spread, seed):
        """Planar fans of 2 and 16 beams with elevations centred on 0.3 rad,
        through the broad phase's edge-case rays, then along planes grazing
        every sphere at r and at ``_pad(r)`` and every bound (in that order;
        see ``plane_grazing_rays``), in scenes with a ground and a ceiling
        rectangle."""
        rng = np.random.default_rng(seed)
        for half, per_fan in ((0.05, 16), (0.25, 2), (1.5, 16)):
            beams = 0.3 + np.linspace(-spread, spread, per_fan)
            scene = fan_scene(rng, shift)
            rays_o, rays_d = edge_case_rays(rng, scene, shift)
            parts = [(rays_o, rays_d, *planar_fans(rng, rays_o, rays_d, beams))]
            for centers, radii in ((scene.sphere_centers, scene.sphere_radii),
                                   (scene.sphere_centers, _pad(scene.sphere_radii)),
                                   (scene.bound_centers, scene.bound_radii)):
                graze_o, graze_d, graze_n = plane_grazing_rays(rng, centers, radii)
                parts.append((graze_o, graze_d,
                              *planar_fans(rng, graze_o, graze_d, beams, graze_n)))
            fan_o, fan_d, u, v, origins, dirs = (np.concatenate(p) for p in zip(*parts))
            drone = fan_o + 6.0 * fan_d + rng.normal(0.0, 2.0 * half, fan_o.shape)
            drone[::7] = fan_o[::7] + rng.uniform(-half, half, (len(drone[::7]), 3))
            yield scene, half, beams, fan_o, u, v, drone, origins, dirs

    @pytest.mark.parametrize("shift", [np.zeros(3), FAR], ids=["origin", "far"])
    @pytest.mark.parametrize("spread", FAN_SPREADS.values(), ids=FAN_SPREADS.keys())
    def test_nearest_hit_with_fans_is_bit_identical(self, shift, spread):
        culled = 0
        for scene, half, beams, fan_o, u, v, fan_drone, origins, dirs in self.fan_cases(
                shift, spread, 20864):
            fans = scene.fan_candidates(fan_o, u, v, beams, fan_drone, half)
            assert fans.rows.shape == (len(scene.bound_radii) + len(scene.rects) + 1, len(fan_o))
            got = scene.nearest_hit(origins, dirs, fan_drone, half, fans)   # a centre per fan
            drone = np.repeat(fan_drone, len(beams), axis=0)
            assert np.array_equal(got, scene.nearest_hit(origins, dirs, drone, half))
            assert np.array_equal(got, dense_nearest_hit(scene, origins, dirs, drone, half))
            culled += np.count_nonzero(~fans.rows)
        assert culled > 0

    @pytest.mark.parametrize("shift", [np.zeros(3), FAR], ids=["origin", "far"])
    @pytest.mark.parametrize("spread", FAN_SPREADS.values(), ids=FAN_SPREADS.keys())
    def test_every_ray_kept_lies_in_a_fan_kept(self, shift, spread):
        for scene, half, beams, fan_o, u, v, fan_drone, origins, dirs in self.fan_cases(
                shift, spread, 20865):
            fans = scene.fan_candidates(fan_o, u, v, beams, fan_drone, half)
            drone = np.repeat(fan_drone, len(beams), axis=0)
            rays = [reference_may_hit(origins, dirs, c, r)
                    for c, r in zip(scene.bound_centers, scene.bound_radii)]
            rays += [np.isfinite(_ray_rect_z(origins, dirs, *rect)) for rect in scene.rects]
            rays.append(reference_may_hit(origins, dirs, drone, _pad(np.sqrt(3.0) * half)))
            for row, ray_kept in zip(fans.rows, rays):
                assert not np.any(ray_kept.reshape(-1, len(beams)).any(axis=1) & ~row)
            # each fan in a plane cutting a bound by 1e-9 r holds a ray that meets it
            first_cut = len(fan_o) - 2 * len(scene.bound_centers)
            for g in range(len(scene.bound_centers)):
                assert rays[g].reshape(-1, len(beams))[first_cut + g].any()

    @pytest.mark.parametrize("shift", [np.zeros(3), FAR], ids=["origin", "far"])
    @pytest.mark.parametrize("spread", FAN_SPREADS.values(), ids=FAN_SPREADS.keys())
    def test_every_sphere_hit_lies_in_a_sphere_fan_kept(self, shift, spread):
        for scene, half, beams, fan_o, u, v, fan_drone, origins, dirs in self.fan_cases(
                shift, spread, 20869):
            fans = scene.fan_candidates(fan_o, u, v, beams, fan_drone, half)
            kept = np.zeros((len(scene.sphere_centers), len(fan_o)), dtype=bool)
            kept[_sphere_fans(scene.sphere_centers, _pad(scene.sphere_radii),
                              scene.sphere_groups, fans)] = True
            # spheres grazed by planes at r (1 - 1e-9), which cut them
            first_cut = len(fan_o) - 2 * len(scene.bound_centers) - 4 * len(kept)
            for s, (c, r) in enumerate(zip(scene.sphere_centers, scene.sphere_radii)):
                hit = np.isfinite(reference_ray_spheres(origins, dirs, c[None], r[None]))
                near = reference_may_hit(origins, dirs, c, _pad(r))
                for rays in (hit.reshape(-1, len(beams)), near.reshape(-1, len(beams))):
                    assert not np.any(rays.any(axis=1) & ~kept[s])
                assert hit.reshape(-1, len(beams))[first_cut + s].any()

    def test_ground_seen_from_below(self):
        # a ceiling: fans from below reach it only when some ray points up
        scene = Scene([ScenePrimitive("ground_plane", (0.0, 0.0, 10.0), (40.0, 40.0, 1.0))])
        beams = np.deg2rad(np.linspace(-15.0, 15.0, 16))
        e = np.deg2rad([-60.0, -16.0, -14.0, 0.0, 30.0])
        u = np.stack([np.cos(e), np.zeros(5), np.sin(e)], axis=1)   # the fans' axes
        v = np.stack([-np.sin(e), np.zeros(5), np.cos(e)], axis=1)  # rays rise toward v
        below = scene.fan_candidates(np.zeros((5, 3)), u, v, beams).rows
        above = scene.fan_candidates(np.tile([0.0, 0.0, 20.0], (5, 1)), u, v, beams).rows
        level = scene.fan_candidates(np.tile([0.0, 0.0, 10.0], (5, 1)), u, v, beams).rows
        assert below[0].tolist() == [False, False, True, True, True]
        assert above[0].tolist() == [True, True, True, True, False]
        assert not level[0].any()


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
        world_pts = frame.points @ align.rotation.T + align.translation
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
        batch_r = np.reshape(traj.rotation_rows(ts), (3, 3, -1))
        for i, t in enumerate(ts):
            assert np.allclose(batch_p[i], traj.position_at(float(t)))
            assert np.allclose(batch_r[:, :, i], traj.rotation_at(float(t)))


# Segments of 2.5 s: rotating ones, constant ones (equal waypoint rotations,
# and two that differ in one ulp), and a mix of both.
_RA = euler_to_rotation(0.3, -0.7, 2.1)
_RA_ULP = np.nextafter(_RA, 2.0)
TRAJECTORY_ROTATIONS = {
    "rotating": [euler_to_rotation(*a) for a in
                 ((0.1, -0.2, 0.3), (0.4, 0.1, -1.2), (-0.3, 0.5, 2.9), (0.0, 0.0, -2.0))],
    "constant": [_RA, _RA, _RA_ULP, _RA_ULP],
    "mixed": [_RA, _RA, rotation_about_z(0.4), euler_to_rotation(1.0, 0.2, -0.5),
              euler_to_rotation(1.0, 0.2, -0.5)],
    "yawing": [np.eye(3), rotation_about_z(0.6), rotation_about_z(-1.1), rotation_about_z(-1.1)],
}
ROTATION_TIMES = {
    "unsorted_all_segments": np.random.default_rng(7).uniform(0.0, 10.0, 60),
    "first_and_last_in_one_segment": np.array([1.0, 3.0, 6.0, 1.5]),
    "one_segment_unsorted": np.array([4.9, 2.6, 4.1, 2.5]),
    "outside_the_waypoints": np.array([-4.0, -1e-9, 0.0, 7.5, 7.5 + 1e-9, 10.0, 1e3]),
    "empty": np.array([]),
}


@pytest.mark.exact("scan_sim.rotation_at")
class TestRotationsAtMatchesReference:
    """The single-time query ``rotation_at`` gives the reference's bits at each
    time: cached segment terms against logging each segment per call."""

    @pytest.mark.parametrize("times", sorted(ROTATION_TIMES))
    @pytest.mark.parametrize("kind", sorted(TRAJECTORY_ROTATIONS))
    def test_bit_identical(self, kind, times):
        rots = TRAJECTORY_ROTATIONS[kind]
        traj = TrajectorySpec(np.arange(len(rots)) * 2.5, np.zeros((len(rots), 3)), rots)
        ts = ROTATION_TIMES[times]
        for t, want in zip(ts, reference_rotations_at(traj, ts)):
            got = traj.rotation_at(float(t))
            assert got.shape == (3, 3) and got.dtype == float
            assert np.array_equal(got, want)


def rotation_trajectory(kind):
    rots = TRAJECTORY_ROTATIONS[kind]
    return TrajectorySpec(np.arange(len(rots)) * 2.5, np.zeros((len(rots), 3)), rots)


@pytest.mark.exact("scan_sim.rotation_rows")
class TestRotationRows:
    """``rotation_rows`` gives the reference's rotations entry by entry, and
    floats on a constant segment."""

    @pytest.mark.parametrize("times", sorted(ROTATION_TIMES))
    @pytest.mark.parametrize("kind", sorted(TRAJECTORY_ROTATIONS))
    def test_entries_bit_identical(self, kind, times):
        traj = rotation_trajectory(kind)
        ts = ROTATION_TIMES[times]
        rows, ref = traj.rotation_rows(ts), reference_rotations_at(traj, ts)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(np.broadcast_to(rows[i][j], len(ts)), ref[:, i, j])

    # (kind, times that all fall on one constant segment, clamped ones included)
    CONSTANT_SEGMENTS = [("constant", [-3.0, 0.0, 1.0, 2.4999]), ("constant", [5.0, 9.9, 1e3]),
                         ("mixed", [-1e3, 2.0, 0.5, 1.0]), ("mixed", [9.0, 7.6, 1e3, 12.0]),
                         ("yawing", [8.0, 1e3, 7.5])]

    @pytest.mark.parametrize("kind, ts", CONSTANT_SEGMENTS)
    def test_constant_segment_gives_floats(self, kind, ts):
        rows = rotation_trajectory(kind).rotation_rows(ts)
        assert all(type(rows[i][j]) is float for i in range(3) for j in range(3))
        ref = reference_rotations_at(rotation_trajectory(kind), ts)
        assert np.array_equal(np.broadcast_to(np.array(rows)[None], ref.shape), ref)

    @pytest.mark.parametrize("kind, ts", [("rotating", [0.1]), ("yawing", [2.0, 1.0]),
                                          ("mixed", [1.0, 3.0]), ("constant", [1.0, 6.0])])
    def test_rotating_or_several_segments_give_rows(self, kind, ts):
        rows = rotation_trajectory(kind).rotation_rows(ts)
        assert isinstance(rows, np.ndarray) and rows.shape == (3, 3, len(ts))


# Waypoint positions on uneven knots: still segments (one at +0.0), moving ones,
# one moving by one ulp, a still one holding -0.0, and one whose ends are
# +0.0 and -0.0 (equal, but not the same bits).
_ONE = np.nextafter(1.0, 2.0)
POSITION_KINDS = {
    "still_moving_still": [(3.0, -2.5, 1.5), (3.0, -2.5, 1.5), (4.0, 1.0, -0.5), (4.0, 1.0, -0.5)],
    "moving_still_moving": [(0.3, 0.1, 9.0), (7.0, -4.0, 2.0), (7.0, -4.0, 2.0), (6.0, 2.0, 1e3)],
    "positive_zero_ulp": [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (_ONE, 1.0, 1.0)],
    "negative_zero": [(0.0, -0.0, 1.5), (0.0, -0.0, 1.5), (-0.0, 2.0, 1.5), (-0.0, 2.0, 1.5)],
    "signed_zero_ends": [(2.0, 0.0, 1.0), (2.0, -0.0, 1.0), (2.0, -0.0, 1.0), (-0.0, 0.0, 1.0)],
}


def position_trajectory(kind):
    positions = POSITION_KINDS[kind]
    return TrajectorySpec(POSE_KNOTS[:len(positions)], positions, [np.eye(3)] * len(positions))


def position_blocks(knots):
    """Non-decreasing blocks of firing times: each knot alone and one ulp either side,
    blocks inside each segment, from a knot into its segment and from inside a
    segment up to the next knot, blocks that straddle a knot, clamped blocks before
    the first and after the last knot, and an empty block."""
    blocks = [[t] for k in knots for t in (np.nextafter(k, -np.inf), k, np.nextafter(k, np.inf))]
    for a, b in zip(knots[:-1], knots[1:]):
        inside = list(a + (b - a) * np.linspace(0.1, 0.9, 7))
        blocks += [inside, [a, *inside], [*inside, np.nextafter(b, -np.inf)], [*inside, b],
                   [np.nextafter(a, np.inf), np.nextafter(b, -np.inf)]]
    for a, b, c in zip(knots[:-2], knots[1:-1], knots[2:]):
        blocks.append([(a + b) / 2.0, b, (b + c) / 2.0])
    blocks += [[-1e6, knots[0] - 2.0, np.nextafter(knots[0], -np.inf)], [-1e6, knots[0]],
               [knots[-1], knots[-1] + 3.0, 1e6], [np.nextafter(knots[-1], np.inf), 1e6], []]
    return [np.array(b, dtype=float) for b in blocks]


@pytest.mark.exact("scan_sim.position_rows")
class TestPositionRows:
    """``position_rows`` gives ``positions_at``'s bits, signed zeros included, and
    one shared row only for a block on one segment that np.interp holds still."""

    @pytest.mark.parametrize("kind", sorted(POSITION_KINDS))
    def test_bits_of_positions_at(self, kind):
        traj = position_trajectory(kind)
        shared = 0
        for ts in position_blocks(traj.times):
            rows, want = traj.position_rows(ts), traj.positions_at(ts)
            assert rows.dtype == float and rows.shape in ((1, 3), want.shape)
            got = np.broadcast_to(rows, want.shape)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
            shared += rows.shape == (1, 3) and len(ts) > 1
        # 4 blocks of several times on each still segment (5 on the last, whose end
        # knot is clamped into it), and 2 clamped blocks at each end that is still
        assert shared == {"still_moving_still": 13, "moving_still_moving": 4,
                          "positive_zero_ulp": 6, "negative_zero": 0, "signed_zero_ends": 0}[kind]

    @pytest.mark.parametrize("kind, ts", [("still_moving_still", [-3.0, 0.0, 0.69]),
                                          ("still_moving_still", [2.45, 4.0, 1e3]),
                                          ("moving_still_moving", [0.7, 1.2, 2.4]),
                                          ("positive_zero_ulp", [-1e3, 0.6])])
    def test_one_row_on_a_still_segment(self, kind, ts):
        traj = position_trajectory(kind)
        rows = traj.position_rows(ts)
        assert rows.shape == (1, 3) and rows.flags.c_contiguous
        assert np.array_equal(rows[0], traj.position_at(ts[0]))
        rows[:] = np.nan                  # a copy, not a view of the waypoints
        assert np.isfinite(traj.positions).all()

    @pytest.mark.parametrize("kind, ts", [("still_moving_still", [0.0, 0.7, 0.71]),
                                          ("still_moving_still", [0.8, 1.0]),
                                          ("moving_still_moving", [2.0, 2.45]),
                                          ("positive_zero_ulp", [2.45, 3.0]),
                                          ("negative_zero", [-1.0, 0.0]),
                                          ("signed_zero_ends", [-1.0, 0.0]),
                                          ("signed_zero_ends", [0.8, 2.4])])
    def test_per_firing_rows_elsewhere(self, kind, ts):
        traj = position_trajectory(kind)
        assert traj.position_rows(ts).shape == (len(ts), 3)

    def test_negative_zero_is_signed_at_the_knots_only(self):
        # np.interp returns the waypoint's -0.0 at a knot and +0.0 between knots,
        # so a still segment holding -0.0 has no one row that gives its bits
        traj = position_trajectory("negative_zero")
        ys = traj.positions_at([-1.3, -1.0, 0.0, 0.7])[:, 1]
        assert ys.tolist() == [0.0] * 4 and np.signbit(ys).tolist() == [True, False, False, True]
        assert traj.position_rows([-1.3, 0.0]).shape == (2, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [
    lambda: TrajectorySpec([0.0, 1.0], [(0.0, 0.0, 0.0), (np.nan, 0.0, 0.0)], [np.eye(3)] * 2),
    lambda: TrajectorySpec([0.0, 1.0], [(0.0, np.inf, 0.0)] * 2, [np.eye(3)] * 2),
    lambda: TrajectorySpec([0.0, np.nan], [(0.0, 0.0, 0.0)] * 2, [np.eye(3)] * 2),
    lambda: TrajectorySpec([0.0, np.inf], [(0.0, 0.0, 0.0)] * 2, [np.eye(3)] * 2),
    lambda: TrajectorySpec([np.inf, np.inf], [(0.0, 0.0, 0.0)] * 2, [np.eye(3)] * 2),
    lambda: ScenePrimitive("box", (np.nan, 0.0, 0.0)),
    lambda: ScenePrimitive("box", (0.0, 0.0, 0.0), (1.0, np.inf, 1.0)),
    lambda: ScenePrimitive("sphere", (0.0, -np.inf, 0.0), (1.0, 1.0, 1.0)),
    lambda: ScenePrimitive("sparse_blob", (0.0, 0.0, 0.0), count=3, scatter_radius=np.nan),
    lambda: LidarModel(range_noise=np.nan),
    lambda: LidarModel(range_noise=np.inf),
    lambda: LidarModel(azimuth_step=np.nan),
    lambda: LidarModel(azimuth_step=np.inf),
    lambda: LidarModel(max_range=np.nan),
    lambda: LidarModel(points_per_second=np.nan),
    lambda: LidarModel(beam_elevations=[0.0, np.nan]),
    lambda: DroneModel(width=np.nan),
    lambda: DroneModel(width=np.inf),
    lambda: IndirectObsModel(vd_noise=np.nan),
    lambda: IndirectObsModel(ego_noise=np.inf),
], ids=["trajectory_nan_position", "trajectory_inf_position", "trajectory_nan_time",
        "trajectory_inf_time", "trajectory_inf_times", "primitive_nan_center",
        "primitive_inf_dimensions", "primitive_inf_center", "blob_nan_scatter",
        "lidar_nan_range_noise", "lidar_inf_range_noise", "lidar_nan_azimuth_step",
        "lidar_inf_azimuth_step", "lidar_nan_max_range", "lidar_nan_points_per_second",
        "lidar_nan_beam", "drone_nan_width", "drone_inf_width", "obs_nan_vd_noise",
        "obs_inf_ego_noise"])
def test_non_finite_model_input_raises(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def layouts(a):
    """``a`` C-ordered, F-ordered and as the transpose of C-ordered (3, n) rows."""
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "rows": np.ascontiguousarray(a.T).T}


@pytest.mark.exact("scan_sim.nearest_hit")
class TestRayLayouts:
    """``nearest_hit`` and the slab test give the same bits for every memory
    layout of their (n, 3) inputs."""

    @pytest.mark.parametrize("shift", [np.zeros(3), FAR], ids=["origin", "far"])
    def test_nearest_hit(self, shift):
        for scene, half, beams, fan_o, u, v, fan_drone, origins, dirs in TestFanCull.fan_cases(
                shift, FAN_SPREADS["lidar"], 20867):
            fans = scene.fan_candidates(fan_o, u, v, beams, fan_drone, half)
            drone = np.repeat(fan_drone, len(beams), axis=0)
            # the reference on C-ordered inputs: einsum's sum order follows the layout
            ref = dense_nearest_hit(scene, origins, dirs, drone, half)
            bare = dense_nearest_hit(scene, origins, dirs)
            for o, d, c_fan, c_ray in zip(*(layouts(a).values()
                                            for a in (origins, dirs, fan_drone, drone))):
                assert np.array_equal(scene.nearest_hit(o, d, c_fan, half, fans), ref)
                assert np.array_equal(scene.nearest_hit(o, d, c_ray, half), ref)
                assert np.array_equal(scene.nearest_hit(o, d), bare)

    def test_ray_box(self):
        rng = np.random.default_rng(20868)
        scene = random_scene(rng)
        origins, dirs = edge_case_rays(rng, scene)
        # a box per ray a few metres along it, and each box of the scene
        centers = (origins + rng.uniform(1.0, 10.0, (len(origins), 1)) * dirs
                   + rng.normal(0.0, 1.0, origins.shape))
        halves = rng.uniform(0.1, 2.0, origins.shape)
        boxes = [(centers - halves, centers + halves)]
        boxes += [(p.center - p.dimensions / 2.0, p.center + p.dimensions / 2.0)
                  for p in scene.primitives if p.kind == "box"]
        hits = 0
        for lo, hi in boxes:
            ref = reference_ray_box(origins, dirs, lo, hi)
            hits += np.count_nonzero(np.isfinite(ref))
            for o, d in zip(layouts(origins).values(), layouts(dirs).values()):
                for lo_l, hi_l in zip(*(layouts(np.atleast_2d(a)).values() for a in (lo, hi))):
                    got = _ray_box(o, d, lo_l.reshape(lo.shape), hi_l.reshape(hi.shape))
                    assert np.array_equal(got, ref)
        assert hits > 1000


CAST_START = 0.5            # s; the yawing vehicle's rotation starts 10 ms later,
CAST_YAW_START = 0.51       # inside the first block of firings
DRONE_POS = (6.0, 6.0, 15.0)
DRONE_AZIMUTH = np.arctan2(DRONE_POS[1], DRONE_POS[0])
CAST_VEHICLES = {
    "static": lambda: static_trajectory((0.0, 0.0, 1.5), (1.0, -0.5, 2.0)),
    "translating": lambda: TrajectorySpec([0.0, 10.0], [(0.0, 0.0, 1.5), (3.0, 1.0, 1.7)],
                                          [np.eye(3)] * 2),
    "yawing": lambda: TrajectorySpec(
        [0.0, CAST_YAW_START, 10.0], [(0.0, 0.0, 1.5), (0.0, 0.0, 1.5), (1.0, -2.0, 1.5)],
        [np.eye(3), np.eye(3), rotation_about_z(0.6)]),
}
CAST_DRONES = {
    "static": lambda: static_trajectory(DRONE_POS),
    "moving": lambda: TrajectorySpec([0.0, 0.55, 4.0], [DRONE_POS, (6.5, 5.7, 14.6), (8, 4, 13)],
                                     [np.eye(3), rotation_about_z(0.3), rotation_about_z(-0.2)]),
    None: lambda: static_trajectory((0.0, 0.0, 500.0)),
}
# (vehicle, drone, range noise): every vehicle, drone and noise setting at least once
CAST_CASES = [("static", "static", 0.0), ("static", None, 0.03),
              ("translating", "moving", 0.0), ("translating", "static", 0.03),
              ("yawing", "moving", 0.03), ("yawing", None, 0.0)]


# A knot 60 ms into the cast: inside the vibration frame and the sweep's first block.
CAST_KNOT = CAST_START + 0.06
# name -> (vehicle, drone, whether position_rows gives the vehicle and the drone one
# row in every block): a drone that hovers and then moves, a vehicle that is still
# and then translates, and a still vehicle at a -0.0 coordinate (per-firing rows).
ONE_ROW_CASES = {
    "drone_hovers_then_moves": (
        lambda: static_trajectory((0.0, 0.0, 1.5), (1.0, -0.5, 2.0)),
        lambda: TrajectorySpec([0.0, CAST_KNOT, 4.0], [DRONE_POS, DRONE_POS, (7.0, 5.0, 14.0)],
                               [np.eye(3)] * 3),
        (True, False)),
    "vehicle_still_then_translates": (
        lambda: TrajectorySpec([0.0, CAST_KNOT, 10.0],
                               [(0.0, 0.0, 1.5), (0.0, 0.0, 1.5), (3.0, 1.0, 1.7)], [np.eye(3)] * 3),
        lambda: static_trajectory(DRONE_POS),
        (False, True)),
    "vehicle_at_negative_zero": (
        lambda: static_trajectory((0.0, -0.0, 1.5)),
        lambda: static_trajectory(DRONE_POS),
        (False, True)),
}


def cast_scene():
    return Scene([ScenePrimitive("ground_plane", (0.0, 0.0, 0.0), (80.0, 80.0, 1.0)),
                  ScenePrimitive("box", (12.0, 10.0, 4.0), (4.0, 4.0, 8.0)),
                  ScenePrimitive("sparse_blob", (-8.0, -8.0, 5.0), (0.3, 0.3, 0.3),
                                 count=40, scatter_radius=3.0),
                  ScenePrimitive("sphere", (10.0, 9.0, 20.0), (3.0, 3.0, 3.0))], seed=5)


def both_casts(monkeypatch, simulate, noise, *args, **kwargs):
    """Points from ``simulate`` with the library's cast and the reference cast,
    each from a fresh generator of the same seed; both frames carry the
    vehicle pose at their start."""
    def frame():
        rng = np.random.default_rng(41) if noise > 0.0 else None
        return simulate(*args, rng=rng, **kwargs)

    got = frame()
    with monkeypatch.context() as m:
        m.setattr(scan_sim, "_cast", reference_cast)
        ref = frame()
    assert got.t_start == ref.t_start
    assert np.array_equal(got.pose.rotation, ref.pose.rotation)
    assert np.array_equal(got.pose.translation, ref.pose.translation)
    return got.points, ref.points


def canopy_scene():
    """A ground and a dense canopy in the vibration wedge: 6 blobs of 20 spheres
    of 0.3 m, each within 2 m of a centre 2.5-3.5 m up and 6-11 m out along the
    drone's azimuth, as in the benchmark's foliage scenes."""
    rng = np.random.default_rng(20870)
    radial = np.array([np.cos(DRONE_AZIMUTH), np.sin(DRONE_AZIMUTH), 0.0])
    tangent = np.array([-radial[1], radial[0], 0.0])
    prims = [ScenePrimitive("ground_plane", (0.0, 0.0, 0.0), (300.0, 300.0, 1.0))]
    for _ in range(6):
        center = radial * rng.uniform(6.0, 11.0) + tangent * rng.uniform(-1.0, 1.0)
        center[2] = rng.uniform(2.5, 3.5)
        prims.append(ScenePrimitive("sparse_blob", center, (0.3, 0.3, 0.3), count=20,
                                    scatter_radius=2.0))
    return Scene(prims, seed=11)


@pytest.mark.exact("scan_sim.cast")
class TestCastMatchesReference:
    """The cast returns the reference's points bit for bit, RNG draws included."""

    @pytest.mark.parametrize("vehicle, drone, noise", CAST_CASES)
    def test_vibration_frame(self, monkeypatch, vehicle, drone, noise):
        traj = Trajectories(drone=CAST_DRONES[drone](), vehicle=CAST_VEHICLES[vehicle]())
        got, ref = both_casts(monkeypatch, simulate_vibration_frame, noise, cast_scene(), traj,
                              LidarModel(range_noise=noise), DRONE_AZIMUTH, VIBRATE_AMPLITUDE,
                              VIBRATE_PERIOD, CAST_START,
                              drone=DroneModel() if drone else None)
        assert len(got) > 1000
        assert np.array_equal(got, ref)
        near_drone = np.linalg.norm(got - DRONE_POS, axis=1) < 3.0
        assert np.any(near_drone) == (drone is not None)

    @pytest.mark.parametrize("vehicle, drone, noise", CAST_CASES)
    def test_full_scan(self, monkeypatch, vehicle, drone, noise):
        traj = Trajectories(drone=CAST_DRONES[drone](), vehicle=CAST_VEHICLES[vehicle]())
        got, ref = both_casts(monkeypatch, simulate_full_scan, noise, cast_scene(), traj,
                              LidarModel(range_noise=noise, points_per_second=40000.0),
                              SWEEP_OMEGA, CAST_START, drone=DroneModel() if drone else None)
        assert len(got) > 10_000
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("sweep", [False, True], ids=["vibration_frame", "full_scan"])
    @pytest.mark.parametrize("case", sorted(ONE_ROW_CASES))
    def test_one_row_or_per_firing(self, monkeypatch, case, sweep):
        make_vehicle, make_drone, one_row = ONE_ROW_CASES[case]
        traj = Trajectories(drone=make_drone(), vehicle=make_vehicle())
        rows = ([], [])
        real = TrajectorySpec.position_rows

        def position_rows(spec, ts):
            out = real(spec, ts)
            rows[spec is traj.drone].append(len(out))
            return out

        monkeypatch.setattr(TrajectorySpec, "position_rows", position_rows)
        if sweep:
            got, ref = both_casts(monkeypatch, simulate_full_scan, 0.03, cast_scene(), traj,
                                  LidarModel(range_noise=0.03, points_per_second=40000.0),
                                  SWEEP_OMEGA, CAST_START, drone=DroneModel())
        else:
            got, ref = both_casts(monkeypatch, simulate_vibration_frame, 0.03, cast_scene(), traj,
                                  LidarModel(range_noise=0.03), DRONE_AZIMUTH, VIBRATE_AMPLITUDE,
                                  VIBRATE_PERIOD, CAST_START, drone=DroneModel())
        assert len(got) > 1000
        assert np.array_equal(got, ref)
        assert len(rows[0]) == len(rows[1]) == (3 if sweep else 1)
        for lengths, one in zip(rows, one_row):
            assert all((n == 1) == one for n in lengths)

    @pytest.mark.parametrize("sweep", [False, True], ids=["vibration_frame", "full_scan"])
    def test_canopy(self, monkeypatch, sweep):
        scene = canopy_scene()
        traj = Trajectories(drone=CAST_DRONES["moving"](), vehicle=CAST_VEHICLES["static"]())
        if sweep:
            got, ref = both_casts(monkeypatch, simulate_full_scan, 0.03, scene, traj,
                                  LidarModel(range_noise=0.03, points_per_second=40000.0),
                                  SWEEP_OMEGA, CAST_START, drone=DroneModel())
        else:
            got, ref = both_casts(monkeypatch, simulate_vibration_frame, 0.03, scene, traj,
                                  LidarModel(range_noise=0.03), DRONE_AZIMUTH,
                                  VIBRATE_AMPLITUDE, VIBRATE_PERIOD, CAST_START,
                                  drone=DroneModel())
        assert np.array_equal(got, ref)
        pose = traj.vehicle.pose_at(CAST_START)
        world_pts = got @ pose.rotation.T + pose.translation
        gap = np.linalg.norm(world_pts[:, None] - scene.sphere_centers, axis=2).min(axis=1)
        assert np.count_nonzero(gap < 0.3) > 200       # returns from the canopy


# Beam layouts as ``scenario`` builds them: (lidar.elevation_span_deg, lidar.beam_count).
# Spans of 200 and 400 degrees give fans wider than a half-sphere; spans of 89, 90 and 91
# degrees lie either side of where the pointing bound on a fan's rays reaches the zenith.
BEAM_LAYOUTS = [(span, count) for span in (0.0, -30.0, 89.0, 90.0, 91.0, 179.0, 200.0, 400.0)
                for count in (2, 16)]


def tilted_world():
    """A rolling, pitching and yawing vehicle under a ceiling rectangle, so fan
    planes are not vertical and some rays meet a rectangle from below."""
    vehicle = TrajectorySpec([0.0, 0.52, 3.0], [(0.0, 0.0, 1.5), (0.2, 0.1, 1.6), (1.0, -1.0, 2.0)],
                             [euler_to_rotation(0.3, -0.2, 0.1), euler_to_rotation(0.25, -0.1, 0.3),
                              euler_to_rotation(-0.2, 0.4, 0.5)])
    scene = Scene(cast_scene().primitives
                  + [ScenePrimitive("ground_plane", (4.0, 2.0, 25.0), (30.0, 20.0, 1.0))], seed=5)
    return scene, Trajectories(drone=CAST_DRONES["moving"](), vehicle=vehicle)


@pytest.mark.exact("scan_sim.cast")
class TestCastBeamLayouts:
    """The culled cast matches the reference for every fan width."""

    @pytest.mark.parametrize("span, count", BEAM_LAYOUTS)
    def test_vibration_frame(self, monkeypatch, span, count):
        scene, traj = tilted_world()
        lidar = LidarModel(beam_elevations=np.deg2rad(np.linspace(-span / 2, span / 2, count)),
                           range_noise=0.03)
        got, ref = both_casts(monkeypatch, simulate_vibration_frame, 0.03, scene, traj, lidar,
                              DRONE_AZIMUTH, VIBRATE_AMPLITUDE, VIBRATE_PERIOD, CAST_START,
                              drone=DroneModel())
        assert len(got) > 1000
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("span, count", BEAM_LAYOUTS)
    def test_full_scan(self, monkeypatch, span, count):
        scene, traj = tilted_world()
        lidar = LidarModel(beam_elevations=np.deg2rad(np.linspace(-span / 2, span / 2, count)),
                           points_per_second=2500.0 * count)
        got, ref = both_casts(monkeypatch, simulate_full_scan, 0.0, scene, traj, lidar,
                              SWEEP_OMEGA, CAST_START, drone=DroneModel())
        assert len(got) > 1000
        assert np.array_equal(got, ref)


@pytest.mark.exact("scan_sim.cast")
class TestCastBlockEdges:
    """Casts whose firings fill blocks of ``_BLOCK_FIRINGS`` exactly, fall one
    short or spill one over, and a sweep with a block that keeps no firing,
    match the reference bit for bit, range-noise draws included."""

    @staticmethod
    def record_blocks(monkeypatch):
        """(firings, kept firings) of each ``fan_candidates`` call."""
        blocks = []
        real = Scene.fan_candidates

        def fan_candidates(scene, veh_pos, *args, **kwargs):
            fans = real(scene, veh_pos, *args, **kwargs)
            blocks.append((len(veh_pos), np.count_nonzero(fans.rows.any(axis=0))))
            return fans

        monkeypatch.setattr(Scene, "fan_candidates", fan_candidates)
        return blocks

    @pytest.mark.parametrize("n_firings", [_BLOCK_FIRINGS - 1, _BLOCK_FIRINGS,
                                           _BLOCK_FIRINGS + 1, 2 * _BLOCK_FIRINGS + 1])
    def test_vibration_frame(self, monkeypatch, n_firings):
        lidar = LidarModel(range_noise=0.03)
        traj = Trajectories(drone=CAST_DRONES["moving"](), vehicle=CAST_VEHICLES["yawing"]())
        blocks = self.record_blocks(monkeypatch)
        got, ref = both_casts(monkeypatch, simulate_vibration_frame, 0.03, cast_scene(), traj,
                              lidar, DRONE_AZIMUTH, VIBRATE_AMPLITUDE,
                              n_firings * lidar.firing_interval, CAST_START, drone=DroneModel())
        full, last = divmod(n_firings, _BLOCK_FIRINGS)
        assert [n for n, _ in blocks] == [_BLOCK_FIRINGS] * full + ([last] if last else [])
        assert len(got) > 1000
        assert np.array_equal(got, ref)

    def test_sweep_with_a_sky_only_block(self, monkeypatch):
        # two small spheres 140 degrees apart in azimuth: the motor faces the
        # first in the first block of the sweep and the second in the last
        scene = Scene([ScenePrimitive("sphere", (10.0 * np.cos(a), 10.0 * np.sin(a), 3.0),
                                      (1.0, 1.0, 1.0)) for a in np.deg2rad([20.0, 160.0])])
        lidar = LidarModel(points_per_second=40000.0, range_noise=0.03)
        blocks = self.record_blocks(monkeypatch)
        got, ref = both_casts(monkeypatch, simulate_full_scan, 0.03, scene,
                              world(vehicle_pos=(0.0, 0.0, 1.5)), lidar, SWEEP_OMEGA, CAST_START)
        kept = [k for _, k in blocks]
        assert len(kept) == 3 and kept[0] > 0 and kept[1] == 0 and kept[2] > 0
        assert len(got) > 100
        assert np.array_equal(got, ref)


class TestBenchmarkHooks:
    """perfbench counts ``scan_sim.*.rays`` from ``len(origins)`` of each
    ``Scene.nearest_hit`` call, samples machine speed on that call, and places
    its cold-start drones with a single-ray call."""

    def test_every_kept_ray_passes_through_nearest_hit(self, monkeypatch):
        calls, kept = [], []
        real_hit, real_fans = Scene.nearest_hit, Scene.fan_candidates

        def nearest_hit(scene, origins, dirs, *args, **kwargs):
            calls.append((len(origins), len(dirs)))
            return real_hit(scene, origins, dirs, *args, **kwargs)

        def fan_candidates(scene, *args, **kwargs):
            fans = real_fans(scene, *args, **kwargs)
            kept.append(np.count_nonzero(fans.rows.any(axis=0)))
            return fans

        monkeypatch.setattr(Scene, "nearest_hit", nearest_hit)
        monkeypatch.setattr(Scene, "fan_candidates", fan_candidates)
        traj = Trajectories(drone=CAST_DRONES["moving"](), vehicle=CAST_VEHICLES["yawing"]())
        for lidar, simulate, args, duration in (
                (LidarModel(), simulate_vibration_frame,
                 (DRONE_AZIMUTH, VIBRATE_AMPLITUDE, VIBRATE_PERIOD, CAST_START), VIBRATE_PERIOD),
                (LidarModel(points_per_second=40000.0), simulate_full_scan,
                 (SWEEP_OMEGA, CAST_START), np.pi / SWEEP_OMEGA)):
            calls.clear()
            kept.clear()
            frame = simulate(cast_scene(), traj, lidar, *args, drone=DroneModel())
            # one fan_candidates and one nearest_hit call per block of firings
            n_firings = int(np.floor(duration / lidar.firing_interval + 1e-9))
            n_blocks = -(-n_firings // _BLOCK_FIRINGS)
            assert len(frame) > 1000
            assert len(calls) == len(kept) == n_blocks
            assert all(n_origins == n_dirs for n_origins, n_dirs in calls)
            assert sum(n for n, _ in calls) == sum(kept) * len(lidar.beam_elevations)

    @pytest.mark.exact("scan_sim.nearest_hit")
    def test_single_ray_call(self):
        rng = np.random.default_rng(20866)
        scene = cast_scene()
        sensor = np.array([0.0, 0.0, 1.5])
        hits = 0
        for _ in range(200):
            d = unit(rng.normal(size=3) + (0.0, 0.0, 0.5))
            got = scene.nearest_hit(sensor[None], d[None])
            assert got.shape == (1,)
            assert np.array_equal(got, dense_nearest_hit(scene, sensor[None], d[None]))
            hits += np.isfinite(got[0])
        assert 20 < hits < 200


# Uneven knots, none a multiple of 0.5, so interpolation fractions are not round.
POSE_KNOTS = np.array([-1.3, 0.7, 2.45, 4.1, 7.7])


def pose_trajectory(kind):
    rots = TRAJECTORY_ROTATIONS[kind]
    positions = np.random.default_rng(5).normal(scale=20.0, size=(len(rots), 3))
    return TrajectorySpec(POSE_KNOTS[:len(rots)], positions, rots)


def pose_times(knots):
    """Waypoint times exactly and one ulp on either side, times outside the waypoints
    (clamped), and times inside every segment."""
    inside = [a + f * (b - a) for a, b in zip(knots[:-1], knots[1:]) for f in (0.1, 0.5, 0.93)]
    return [*knots, *np.nextafter(knots, -np.inf), *np.nextafter(knots, np.inf),
            knots[0] - 2.0, knots[-1] + 3.0, -1e6, 1e6, *inside]


@pytest.mark.exact("scan_sim.pose_at")
class TestPoseAtMatchesArrayPath:
    """``pose_at``, ``rotation_at`` and ``position_at`` take one time without the array
    path, and give its bits: ``rotation_rows([t])`` and ``positions_at([t])[0]``."""

    @pytest.mark.parametrize("kind", sorted(TRAJECTORY_ROTATIONS))
    def test_bit_identical(self, kind):
        traj = pose_trajectory(kind)
        for t in pose_times(traj.times):
            t = float(t)
            want_r = np.reshape(traj.rotation_rows([t]), (3, 3))
            want_p = traj.positions_at([t])[0]
            pose = traj.pose_at(t)
            for got, want in ((traj.rotation_at(t), want_r), (pose.rotation, want_r),
                              (traj.position_at(t), want_p), (pose.translation, want_p)):
                assert got.shape == want.shape and got.dtype == float
                assert np.array_equal(got, want), (kind, t)

    def test_times_cover_both_segment_kinds(self):
        # "mixed" holds constant and rotating segments; each gets times inside it
        traj = pose_trajectory("mixed")
        kinds = {traj._segments[s] is None for s in range(len(traj.times) - 1)}
        assert kinds == {True, False}

    @pytest.mark.parametrize("kind", ["constant", "mixed"])
    def test_constant_segment_gives_a_copy(self, kind):
        traj = pose_trajectory(kind)        # the first segment is constant in both
        want = traj.rotations[0].copy()
        traj.rotation_at(0.0)[:] = 0.0
        traj.pose_at(0.0).rotation[:] = 0.0
        assert np.array_equal(traj.rotations[0], want)
        assert np.array_equal(traj.rotation_at(0.0), want)


class TestCastWork:
    """A cast interpolates rotations from terms cached per trajectory segment."""

    @pytest.mark.parametrize("vehicle", ["static", "yawing"])
    def test_no_rotation_log_per_cast(self, monkeypatch, vehicle):
        calls = []
        real = scan_sim.rotation_log
        monkeypatch.setattr(scan_sim, "rotation_log", lambda r: calls.append(r) or real(r))
        traj = Trajectories(drone=CAST_DRONES["moving"](), vehicle=CAST_VEHICLES[vehicle]())
        # construction logs each rotating segment once; equal waypoints are skipped
        assert len(calls) == {"static": 2, "yawing": 3}[vehicle]
        calls.clear()
        simulate_vibration_frame(cast_scene(), traj, LidarModel(), DRONE_AZIMUTH,
                                 VIBRATE_AMPLITUDE, VIBRATE_PERIOD, CAST_START, drone=DroneModel())
        simulate_full_scan(cast_scene(), traj, LidarModel(points_per_second=40000.0),
                           SWEEP_OMEGA, CAST_START, drone=DroneModel())
        assert calls == []


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


def axis_aligned_rotations():
    """The 24 proper rotations whose entries are 0 and +-1."""
    out = []
    for perm, signs in product(permutations(range(3)), product((-1.0, 1.0), repeat=3)):
        r = np.zeros((3, 3))
        r[range(3), perm] = signs
        if np.linalg.det(r) > 0.0:
            out.append(r)
    return out


def seeded_poses(n=200, seed=2024):
    rng = np.random.default_rng(seed)
    rots = [euler_to_rotation(*rng.uniform(-np.pi, np.pi, 3)) for _ in range(n)]
    return [Pose(r, rng.normal(scale=30.0, size=3)) for r in rots + axis_aligned_rotations()]


@pytest.mark.exact("scan_sim.observe")
class TestObserveVdsMatchesReference:
    """The VD and ego observations give ``reference_observe_vds``'s and
    ``reference_observe_ego_direction``'s bits and leave the RNG where they do."""

    @pytest.mark.parametrize("scramble", [True, False], ids=["scramble", "labelled"])
    @pytest.mark.parametrize("noise_deg", [0.0, 1.0, 30.0])
    def test_bit_identical(self, noise_deg, scramble):
        model = IndirectObsModel(vd_noise=np.deg2rad(noise_deg), scramble=scramble)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        poses = seeded_poses()
        assert len(poses) == 224
        for pose in poses:
            got = observe_vds(pose, model, rng)
            assert np.array_equal(got, reference_observe_vds(pose, model, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("noise_deg", [1.0, 30.0])
    def test_seed_argument(self, noise_deg):
        model = IndirectObsModel(vd_noise=np.deg2rad(noise_deg), scramble=True)
        pose = seeded_poses(n=1)[0]
        for seed in range(20):
            assert np.array_equal(observe_vds(pose, model, seed),
                                  reference_observe_vds(pose, model, seed))

    @pytest.mark.parametrize("noise_deg", [0.0, 1.0, 30.0])
    def test_ego_direction_bit_identical(self, noise_deg):
        sigma = np.deg2rad(noise_deg)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        poses = seeded_poses()
        for pose_i, pose_j in zip(poses, poses[1:] + poses[:1]):
            got = observe_ego_direction(pose_i, pose_j, sigma, rng)
            want = reference_observe_ego_direction(pose_i, pose_j, sigma, ref_rng)
            assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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

    def test_zero_displacement_returns_none(self):
        # hovering: no direction, and no draw from the stream
        a, rng = Pose(np.eye(3), (1.0, 2.0, 3.0)), np.random.default_rng(0)
        before = rng.bit_generator.state
        assert observe_ego_direction(a, a, sigma=0.1, rng=rng) is None
        assert rng.bit_generator.state == before
