import numpy as np
import pytest

from dronepose.geom import (
    GimbalLockError,
    Pose,
    angle_between,
    euler_to_rotation,
    euler_xyz,
    geodesic_step,
    is_rotation,
    orthonormalize,
    rotation_about_axis,
    rotation_about_z,
    rotation_angle,
    rotation_exp,
    rotation_log,
    rotation_aligning_xy,
)


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_about_axis(axis, rng.uniform(0.0, np.pi))


class TestAngleBetween:
    def test_identical_directions(self):
        assert angle_between((1, 0, 0), (1, 0, 0)) == 0.0

    def test_orthogonal(self):
        assert angle_between((1, 0, 0), (0, 1, 0)) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_45_degrees(self):
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        # independent check: arccos of the dot product with (1,0,0)
        assert angle_between((1, 0, 0), v) == pytest.approx(np.arccos(1.0 / np.sqrt(2.0)), abs=1e-12)
        assert angle_between((1, 0, 0), v) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_zero_length_raises(self):
        with pytest.raises(ValueError, match="degenerate direction"):
            angle_between((0, 0, 0), (1, 0, 0))

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = (rng.normal(size=3) for _ in range(3))
            assert angle_between(a, b) == pytest.approx(angle_between(b, a), abs=1e-12)
            assert angle_between(a, c) <= angle_between(a, b) + angle_between(b, c) + 1e-9


class TestRotationAboutZ:
    def test_zero_is_identity(self):
        assert np.allclose(rotation_about_z(0.0), np.eye(3))

    def test_quarter_turn(self):
        assert np.allclose(rotation_about_z(np.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_half_turn(self):
        assert np.allclose(rotation_about_z(np.pi) @ [1, 1, 0], [-1, -1, 0], atol=1e-12)

    def test_always_proper(self, rng):
        for theta in rng.uniform(-10, 10, size=50):
            assert is_rotation(rotation_about_z(theta))


class TestRotationAligningXY:
    def test_same_heading_is_identity(self):
        r = rotation_aligning_xy((1, 0, 0.3), (1, 0, -0.5))
        assert np.allclose(r, np.eye(3), atol=1e-12)

    def test_quarter_turn(self):
        r = rotation_aligning_xy((1, 0, 0), (0, 1, 0))
        assert np.allclose(r, rotation_about_z(np.pi / 2), atol=1e-12)

    def test_signed_angle(self):
        r = rotation_aligning_xy((1, 1, 0), (-1, 1, 0))
        assert np.allclose(r, rotation_about_z(np.pi / 2), atol=1e-12)

    def test_vertical_motion_raises(self):
        with pytest.raises(ValueError, match="yaw unobservable"):
            rotation_aligning_xy((0, 0, 1), (1, 0, 0))

    def test_alignment_post_condition(self, rng):
        for _ in range(100):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            if np.hypot(a[0], a[1]) < 1e-3 or np.hypot(b[0], b[1]) < 1e-3:
                continue
            moved = rotation_aligning_xy(a, b) @ a
            ma = moved[:2] / np.linalg.norm(moved[:2])
            mb = b[:2] / np.linalg.norm(b[:2])
            assert np.allclose(ma, mb, atol=1e-9)

    def test_never_changes_z(self, rng):
        for _ in range(100):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            if np.hypot(a[0], a[1]) < 1e-3 or np.hypot(b[0], b[1]) < 1e-3:
                continue
            r = rotation_aligning_xy(a, b)
            v = rng.normal(size=3)
            assert (r @ v)[2] == pytest.approx(v[2], abs=1e-12)


class TestEuler:
    def test_identity(self):
        assert euler_xyz(np.eye(3)) == (0.0, 0.0, 0.0)

    def test_pure_yaw(self):
        rx, ry, rz = euler_xyz(rotation_about_z(0.3))
        assert (rx, ry) == (0.0, -0.0) or (rx, ry) == (0.0, 0.0)
        assert rz == pytest.approx(0.3, abs=1e-12)

    def test_composed(self):
        r = euler_to_rotation(-0.4, 0.1, 0.2)
        assert euler_xyz(r) == pytest.approx((-0.4, 0.1, 0.2), abs=1e-12)

    def test_round_trip_property(self, rng):
        for _ in range(1000):
            r = random_rotation(rng)
            try:
                angles = euler_xyz(r)
            except GimbalLockError:
                continue
            back = euler_to_rotation(*angles)
            assert np.max(np.abs(back - r)) < 1e-8

    def test_gimbal_lock_raises(self):
        with pytest.raises(GimbalLockError, match="Y axis"):
            euler_xyz(euler_to_rotation(0.2, np.pi / 2, 0.1))


class TestLogExp:
    def test_round_trip(self, rng):
        for _ in range(300):
            r = random_rotation(rng)
            assert np.max(np.abs(rotation_exp(rotation_log(r)) - r)) < 1e-8

    def test_near_pi(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = rotation_about_axis(axis, np.pi - 1e-7)
            assert np.max(np.abs(rotation_exp(rotation_log(r)) - r)) < 1e-6

    def test_small_angles(self):
        r = rotation_about_axis((0, 0, 1), 1e-9)
        assert np.linalg.norm(rotation_log(r)) == pytest.approx(1e-9, rel=1e-3)


class TestGeodesicStep:
    def test_reaches_target_when_close(self):
        target = rotation_about_z(0.01)
        assert np.array_equal(geodesic_step(np.eye(3), target, 0.02), target)

    def test_clamps_step(self):
        start = np.eye(3)
        target = rotation_about_z(np.pi / 2)
        stepped = geodesic_step(start, target, np.deg2rad(2.0))
        assert rotation_angle(stepped) == pytest.approx(np.deg2rad(2.0), abs=1e-12)


class TestOrthonormalize:
    def test_fixes_drift(self, rng):
        r = random_rotation(rng) + rng.normal(scale=1e-4, size=(3, 3))
        fixed = orthonormalize(r)
        assert is_rotation(fixed)

    def test_identity_on_rotations(self, rng):
        r = random_rotation(rng)
        assert np.max(np.abs(orthonormalize(r) - r)) < 1e-12


class TestPose:
    def test_transform_round_trip(self, rng):
        pose = Pose(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        assert np.allclose(pose.inverse_transform(pose.transform(pts)), pts, atol=1e-9)

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError, match="rotation"):
            Pose(np.eye(3) * 2.0, np.zeros(3))
