import signal

import numpy as np
import pytest

from dronepose.geom import (
    Pose,
    angle_between,
    euler_to_rotation,
    euler_xyz,
    geodesic_step,
    is_rotation,
    orthonormalize,
    rotation_about_axis,
    rotation_about_x,
    rotation_about_y,
    rotation_about_z,
    rotation_angle,
    rotation_exp,
    rotation_log,
    rotation_aligning_xy,
)
from oracles import reference_is_rotation, reference_rotation_about_axis


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

    @pytest.mark.parametrize("bad", [(np.inf, 0, 0), (-np.inf, np.inf, 0), (np.nan, 1, 0)])
    def test_non_finite_raises(self, bad):
        for a, b in ((bad, (1, 0, 0)), ((1, 0, 0), bad)):
            with pytest.raises(ValueError, match="non-finite"):
                angle_between(a, b)

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
            back = euler_to_rotation(*euler_xyz(r))
            assert np.max(np.abs(back - r)) < 1e-8

    # exact Ry(+-90 deg): the first column of Rz @ Y @ Rx lies on the z axis to the bit
    LOCKED_Y = {1.0: np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
                -1.0: np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])}

    @pytest.mark.parametrize("off_lock", [0.0, 1e-12, 9e-7])
    def test_defined_at_and_near_gimbal_lock(self, off_lock):
        # the full triple also within 1e-6 rad of the lock; rz = 0 only at the lock exactly
        for sign in (1.0, -1.0):
            y = (self.LOCKED_Y[sign] if off_lock == 0.0
                 else rotation_about_y(sign * (np.pi / 2 - off_lock)))
            r = rotation_about_z(0.1) @ y @ rotation_about_x(0.2)
            rx, ry, rz = euler_xyz(r)
            assert np.max(np.abs(euler_to_rotation(rx, ry, rz) - r)) <= 1e-12
            assert (rz == 0.0) == (off_lock == 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2), (0, 2)])
    def test_non_finite_entry_raises(self, bad, entry):
        # a NaN at (1, 2) used to give (0, -0, 0): a broken rotation read as the identity
        r = np.eye(3)
        r[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            euler_xyz(r)


class TestRodrigues:
    """``rotation_about_axis`` gives ``reference_rotation_about_axis``'s bits, and it
    and ``rotation_exp`` raise on a non-finite axis or angle."""

    def test_matches_reference(self, rng):
        axes = [*rng.normal(size=(300, 3)), *np.eye(3), *-np.eye(3), (1e-6, 0.0, 0.0),
                (3.0, 4.0, 12.0), (1e150, -1e150, 1e150)]
        for axis in axes:
            for theta in (rng.uniform(-4.0, 4.0), 0.0, np.pi, 1e-9):
                got = rotation_about_axis(axis, theta)
                assert np.array_equal(got, reference_rotation_about_axis(axis, theta))
        for rv in rng.normal(scale=2.0, size=(300, 3)):
            theta = float(np.linalg.norm(rv))
            assert np.array_equal(rotation_exp(rv), reference_rotation_about_axis(rv, theta))

    def test_zero_axis_raises(self):
        with pytest.raises(ValueError, match="non-zero"):
            rotation_about_axis((0.0, 0.0, 0.0), 0.3)
        assert np.array_equal(rotation_exp((0.0, 0.0, 0.0)), np.eye(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_raises(self, bad):
        # inf used to give a numpy RuntimeWarning (an error under this suite's settings)
        for axis, theta in (((bad, 0.0, 1.0), 0.3), ((0.0, 1.0, 0.0), bad)):
            with pytest.raises(ValueError, match="finite"):
                rotation_about_axis(axis, theta)
        for rv in ((bad, 0.0, 0.0), (0.1, bad, 0.2)):
            with pytest.raises(ValueError, match="finite"):
                rotation_exp(rv)


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)])
    def test_non_finite_entry_raises(self, bad, entry):
        # an infinite diagonal entry used to read as the identity (angle 0)
        r = rotation_about_axis((1.0, 2.0, 3.0), 0.7)
        r[entry] = bad
        for fn in (rotation_log, rotation_angle):
            with pytest.raises(ValueError, match="non-finite"):
                fn(r)


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_entry_raises_at_once(self, bad):
        # np.linalg.svd does not return on an infinite entry, and a Python signal
        # handler cannot interrupt it there, so the alarm keeps its default action
        # and ends the process: a hang cannot pass unseen.
        previous = signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.alarm(5)
        try:
            r = np.eye(3)
            r[0, 0] = bad       # the input on which the SVD was seen not to return
            with pytest.raises(ValueError, match="non-finite"):
                orthonormalize(r)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def is_rotation_cases(rng):
    """(name, matrix): rotations, reflections, rotations off by 1e-7 and 1e-5 per
    entry, non-finite entries and wrong shapes."""
    rots = [random_rotation(rng) for _ in range(100)] + [np.eye(3), rotation_about_z(np.pi)]
    cases = [("rotation", r) for r in rots]
    cases += [("reflection", r @ np.diag([1.0, 1.0, -1.0])) for r in rots[:30]]
    cases += [("reflection", -r) for r in rots[:30]]
    for scale in (1e-7, 1e-5):
        cases += [(f"off {scale}", r + rng.normal(scale=scale, size=(3, 3))) for r in rots]
    for bad in (np.nan, np.inf, -np.inf):
        for entry in np.ndindex(3, 3):
            r = rots[entry[0] * 3 + entry[1]].copy()
            r[entry] = bad
            cases.append(("non-finite", r))
    shapes = [np.eye(2), np.eye(4), np.ones(3), np.ones(9), np.eye(3)[None], np.zeros((3, 0)),
              np.ones((0, 3, 3)), np.eye(3)[:, :2], np.float64(1.0)]
    return cases + [("shape", m) for m in shapes]


class TestIsRotationMatchesReference:
    """``is_rotation`` on nine floats gives ``reference_is_rotation``'s verdict (matmul
    and ``np.linalg.det``) at both tolerances the library uses: the default and 1e-6."""

    @pytest.mark.parametrize("tol", [None, 1e-6])
    def test_same_verdict(self, rng, tol):
        verdicts = {}
        for name, m in is_rotation_cases(rng):
            got = is_rotation(m) if tol is None else is_rotation(m, tol=tol)
            assert got == (reference_is_rotation(m) if tol is None
                           else reference_is_rotation(m, tol=tol)), (name, m)
            verdicts.setdefault(name, set()).add(got)
        assert verdicts["rotation"] == {True}
        for name in ("reflection", "non-finite", "shape", "off 1e-05"):
            assert verdicts[name] == {False}
        assert verdicts["off 1e-07"] == ({True} if tol == 1e-6 else {False})   # default 1e-9

    def test_overflowing_entries_are_not_a_rotation(self):
        # the products overflow to inf (and inf - inf to NaN) without a warning
        for big in (1e200, -1e300):
            r = np.eye(3)
            r[0, 1] = big
            assert not is_rotation(r)
            assert not is_rotation(np.full((3, 3), big))


class TestPose:
    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError, match="rotation"):
            Pose(np.eye(3) * 2.0, np.zeros(3))
