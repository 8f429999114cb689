import numpy as np
import pytest

from dronepose.geom import (
    Pose,
    angle_between,
    orthonormalize,
    rotation_about_axis,
    rotation_about_x,
    rotation_about_z,
    rotation_angle,
    is_rotation,
)
from dronepose.scan_sim import IndirectObsModel, observe_ego_direction, observe_vds
from dronepose.vp_rot import (
    AmbiguousMatchError,
    MotionAccumulator,
    RotationFilterState,
    accumulate_motion,
    complete_vd,
    correct_rotation,
    estimate_rotation,
    filter_rotation,
    match_vds,
)
from oracles import (
    oracle_match,
    reference_angle_between,
    reference_complete_vd,
    reference_estimate_rotation,
    reference_filter_rotation,
    reference_match_vds,
    reference_orthonormalize,
)


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_about_axis(axis, rng.uniform(0.0, max_angle))


class TestCompleteVd:
    def test_orthogonal_pair(self):
        v = complete_vd((1, 0, 0), (0, 1, 0))
        assert np.allclose(v[:, 2], (0, 0, 1))

    def test_oblique_pair(self):
        v = complete_vd((1, 0, 0), np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
        assert np.allclose(v[:, 2], (0, 0, 1), atol=1e-12)

    def test_near_collinear_raises(self):
        v2 = rotation_about_z(np.deg2rad(5.0)) @ np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="collinear"):
            complete_vd((1, 0, 0), v2)

    def test_accepted_pairs_give_well_conditioned_matrices(self):
        # On finite, non-zero directions the 10-degree pair check is the only check
        # complete_vd makes; what it accepts must be unit columns, pairwise non-collinear, far from singular.
        rng = np.random.default_rng(12)
        limit = np.deg2rad(10.0)
        margins = np.concatenate([[1e-12, 1e-9, 1e-6], rng.uniform(0.0, np.pi - 2 * limit, 60)])
        for margin in margins:
            for angle in (limit + margin, np.pi - limit - margin):
                v1 = rng.normal(size=3)
                v1 /= np.linalg.norm(v1)
                v2 = rotation_about_axis(np.cross(v1, rng.normal(size=3)), angle) @ v1
                scale1, scale2 = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
                v = complete_vd(scale1 * v1, scale2 * v2)
                assert np.max(np.abs(np.linalg.norm(v, axis=0) - 1.0)) <= 1e-12
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    assert np.linalg.norm(np.cross(v[:, i], v[:, j])) >= np.sin(limit)
                assert abs(np.linalg.det(v)) > 0.1


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_direction_raises(self, bad):
        # an inf entry gave "invalid value encountered in divide", a NaN a NaN matrix
        for v1, v2 in (((bad, 0.0, 0.0), (0.0, 1.0, 0.0)), ((1.0, 0.0, 0.0), (0.3, bad, 1.0))):
            with pytest.raises(ValueError, match="non-zero and finite"):
                complete_vd(v1, v2)

    @pytest.mark.filterwarnings("error")
    def test_zero_length_direction_raises(self):
        for v1, v2 in (((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)), ((1.0, 0.0, 0.0), (1e-170, 0.0, 0.0))):
            with pytest.raises(ValueError, match="non-zero and finite"):
                complete_vd(v1, v2)


class TestMatchVds:
    def test_exact_prior_identity_match(self, rng):
        rot = random_rotation(rng, max_angle=1.0)
        vg = np.eye(3)
        vd = rot.T @ vg
        result = match_vds(vg, vd, rot)
        assert result.permutation == (0, 1, 2)
        assert result.signs == (1.0, 1.0, 1.0)
        assert np.max(result.residuals) < 1e-9

    def test_scramble_recovery(self, rng):
        rot = random_rotation(rng, max_angle=1.0)
        vg = np.eye(3)
        vd = rot.T @ vg
        perm = (2, 0, 1)
        signs = (1.0, -1.0, 1.0)
        scrambled = np.column_stack([signs[i] * vd[:, perm[i]] for i in range(3)])
        result = match_vds(vg, scrambled, rot)
        assert np.allclose(result.apply(scrambled), vd)

    def test_manhattan_90_degree_lock_is_consistent(self):
        # prior off by 90 deg yaw in a Manhattan world: matching still
        # succeeds with small residuals, but onto swapped axes
        truth = np.eye(3)
        vd = np.eye(3)
        prior = rotation_about_z(np.deg2rad(90.0))
        result = match_vds(np.eye(3), vd, prior)
        assert np.max(result.residuals) < 1e-9
        assert result.permutation != (0, 1, 2)

    def test_large_residual_raises(self):
        # a 60 deg turn about the cube diagonal leaves every axis ~48 deg
        # from every signed axis, past the correspondence limit
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        spoil = rotation_about_axis(axis, np.deg2rad(60.0))
        with pytest.raises(AmbiguousMatchError, match="ambiguous correspondence"):
            match_vds(np.eye(3), spoil, np.eye(3))

    @pytest.mark.parametrize("side, bad", [("vehicle", np.nan), ("drone", np.nan),
                                           ("vehicle", np.inf), ("drone", np.inf),
                                           ("drone", -np.inf)])
    def test_non_finite_direction_raises(self, side, bad):
        vds = np.eye(3)
        vds[1, 1] = bad
        vehicle, drone = (vds, np.eye(3)) if side == "vehicle" else (np.eye(3), vds)
        with pytest.raises(ValueError, match="non-finite"):
            match_vds(vehicle, drone, np.eye(3))

    def test_agrees_with_exhaustive_search_below_40deg(self, rng):
        for _ in range(100):
            truth = random_rotation(rng, max_angle=1.2)
            vg = np.eye(3)
            vd = truth.T @ vg
            err_axis = rng.normal(size=3)
            err_axis /= np.linalg.norm(err_axis)
            prior = rotation_about_axis(err_axis, rng.uniform(0.0, np.deg2rad(40.0))) @ truth
            result = match_vds(vg, vd, prior)
            perm, signs, _ = oracle_match(vg, vd, prior)
            assert result.permutation == perm
            assert result.signs == signs
            assert result.permutation == (0, 1, 2)
            assert result.signs == (1.0, 1.0, 1.0)


class TestEstimateRotation:
    def test_identity(self):
        assert np.allclose(estimate_rotation(np.eye(3), np.eye(3), np.zeros(3)), np.eye(3))

    def test_recovers_random_rotation(self, rng):
        for _ in range(100):
            rot = random_rotation(rng)
            vd = rot.T @ np.eye(3)
            est = estimate_rotation(np.eye(3), vd, np.zeros(3))
            assert rotation_angle(est.T @ rot) < 1e-9

    def test_oblique_vds_still_exact(self, rng):
        # non-orthogonal world directions: the product form stays exact
        axes = np.column_stack([
            [1.0, 0.0, 0.0],
            np.array([1.0, 2.0, 0.2]) / np.linalg.norm([1.0, 2.0, 0.2]),
            np.array([0.3, -0.2, 1.0]) / np.linalg.norm([0.3, -0.2, 1.0]),
        ])
        rot = random_rotation(rng)
        est = estimate_rotation(axes, rot.T @ axes, np.zeros(3))
        assert rotation_angle(est.T @ rot) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("which", ["vehicle", "drone"])
    @pytest.mark.parametrize("entry", [(0, 0), (2, 1), (1, 2)])
    def test_non_finite_entry_raises(self, bad, which, entry):
        # an inf entry gave "invalid value encountered in divide"; one in the
        # column the residuals leave out was read past
        vg, vd = np.eye(3), rotation_about_z(0.3).T
        (vg if which == "vehicle" else vd)[entry] = bad
        with pytest.raises(ValueError, match="finite"):
            estimate_rotation(vg, vd, np.array([0.0, 0.1, 0.2]))

    def test_output_is_proper_rotation_under_noise(self, rng):
        for _ in range(100):
            rot = random_rotation(rng)
            vd = rot.T @ np.eye(3) + rng.normal(scale=0.05, size=(3, 3))
            vd /= np.linalg.norm(vd, axis=0)
            est = estimate_rotation(np.eye(3), vd, np.zeros(3))
            assert is_rotation(est)

    def test_monte_carlo_median_error_below_2deg(self):
        rng = np.random.default_rng(5)
        model = IndirectObsModel(vd_noise=np.deg2rad(1.0), scramble=False)
        errors = []
        for _ in range(500):
            rot = random_rotation(rng, max_angle=0.8)
            vg = observe_vds(Pose(np.eye(3), np.zeros(3)), model, rng)
            vd = observe_vds(Pose(rot, np.zeros(3)), model, rng)
            match = match_vds(vg, vd, rot)
            est = estimate_rotation(vg, match.apply(vd), match.residuals)
            errors.append(rotation_angle(est.T @ rot))
        assert np.rad2deg(np.median(errors)) < 2.0

    def test_scramble_invariance_of_final_rotation(self, rng):
        for _ in range(50):
            rot = random_rotation(rng, max_angle=0.6)
            vd = rot.T @ np.eye(3)
            match = match_vds(np.eye(3), vd, rot)
            base = estimate_rotation(np.eye(3), match.apply(vd), match.residuals)
            perm = rng.permutation(3)
            signs = rng.choice((-1.0, 1.0), size=3)
            scrambled = vd[:, perm] * signs[None, :]
            match2 = match_vds(np.eye(3), scrambled, rot)
            redone = estimate_rotation(np.eye(3), match2.apply(scrambled), match2.residuals)
            assert rotation_angle(base.T @ redone) < 1e-9


class TestFilterRotation:
    def test_no_change_when_measurement_equals_state(self):
        state = RotationFilterState(rotation=rotation_about_z(0.4), last_time=0.0)
        out = filter_rotation(state, state.rotation, 1.0)
        assert rotation_angle(out.rotation.T @ state.rotation) < 1e-12

    def test_step_clamped_to_rate(self):
        state = RotationFilterState(rotation=np.eye(3), max_rate=np.deg2rad(20.0),
                                    last_time=0.0)
        out = filter_rotation(state, rotation_about_z(np.pi / 2), 0.1)
        assert rotation_angle(out.rotation) == pytest.approx(np.deg2rad(2.0), abs=1e-9)

    def test_monotone_convergence(self):
        target = rotation_about_z(np.deg2rad(50.0))
        state = RotationFilterState(rotation=np.eye(3), last_time=0.0)
        dist = rotation_angle(target)
        for k in range(30):
            state = filter_rotation(state, target, 0.12 * (k + 1))
            new_dist = rotation_angle(state.rotation.T @ target)
            assert new_dist <= dist + 1e-12
            dist = new_dist
        assert dist < 1e-9

    def test_rate_cap_on_random_sequences(self, rng):
        state = RotationFilterState(rotation=np.eye(3), max_rate=np.deg2rad(15.0),
                                    last_time=0.0)
        t = 0.0
        for _ in range(100):
            dt = float(rng.uniform(0.05, 0.3))
            t += dt
            prev = state.rotation
            state = filter_rotation(state, random_rotation(rng), t)
            step = rotation_angle(prev.T @ state.rotation)
            assert step <= np.deg2rad(15.0) * dt + 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("which", ["measured", "state"])
    def test_non_finite_entry_raises(self, bad, which):
        r = rotation_about_z(0.2)
        r[1, 0] = bad
        state = RotationFilterState(r if which == "state" else np.eye(3))
        with pytest.raises(ValueError, match="non-finite"):
            filter_rotation(state, r if which == "measured" else np.eye(3), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_time_raises(self, t):
        # inf was taken as the last time, so every later update raised; NaN raised
        # "rotation axis must be non-zero and finite"
        state = RotationFilterState(rotation=np.eye(3), last_time=1.0)
        with pytest.raises(ValueError, match="time must be finite"):
            filter_rotation(state, rotation_about_z(0.5), t)

    @pytest.mark.parametrize("field, value", [("max_rate", -1.0), ("max_rate", np.nan),
                                              ("max_rate", np.inf), ("last_time", np.inf),
                                              ("last_time", -np.inf), ("last_time", np.nan)])
    def test_bad_rate_or_time_raises(self, field, value):
        # max_rate = -1 stepped 0.1 rad away from a 0.5 rad measurement
        with pytest.raises(ValueError, match="max_rate must be finite"):
            RotationFilterState(np.eye(3), **{field: value})

    def test_zero_rate_holds_the_rotation(self):
        # rotation.max_rate_deg = 0 is a valid scenario: the estimate does not move
        start = rotation_about_z(0.2)
        out = filter_rotation(RotationFilterState(start, max_rate=0.0), rotation_about_z(0.7), 1.0)
        assert rotation_angle(start.T @ out.rotation) < 1e-12 and out.last_time == 1.0

    def test_requires_increasing_time(self):
        state = RotationFilterState(rotation=np.eye(3), last_time=1.0)
        with pytest.raises(ValueError):
            filter_rotation(state, np.eye(3), 1.0)


class TestMotionAccumulator:
    def _run(self, path, acc=None, ego=(1.0, 0.0, 0.0)):
        acc = acc or MotionAccumulator()
        return [accumulate_motion(acc, np.asarray(pos, dtype=float), np.asarray(ego),
                                  np.eye(3), np.eye(3)) for pos in path]

    def test_straight_line_emits_after_exactly_seven_qualifying_frames(self):
        path = [(0.12 * k, 0.0, 15.0) for k in range(60)]   # 1 m/s => 1.68 m per gap
        emissions = self._run(path)
        first = next(i for i, e in enumerate(emissions) if e is not None)
        # frames 0..13 lack a gap partner; qualifying frames start at index 14
        assert first == 14 + 7 - 1
        observed, self_observed = emissions[first]
        assert np.allclose(observed / np.linalg.norm(observed), (1, 0, 0), atol=1e-12)
        assert np.allclose(self_observed / np.linalg.norm(self_observed), (1, 0, 0))

    def test_zigzag_never_emits(self):
        # construct positions whose gap displacements alternate +-45 deg,
        # so every window violates the 30 deg pairwise cone
        gap = MotionAccumulator().frame_gap
        path = [np.array([0.15 * k, 0.0, 15.0]) for k in range(gap)]
        for k in range(gap, 80):
            heading = np.deg2rad(45.0) * (1.0 if k % 2 == 0 else -1.0)
            step = 1.7 * np.array([np.cos(heading), np.sin(heading), 0.0])
            path.append(path[k - gap] + step)
        emissions = self._run(path)
        assert all(e is None for e in emissions)

    def test_hover_never_emits(self):
        path = [(0.002 * k, 0.0, 15.0) for k in range(80)]  # far below 1 m per gap
        emissions = self._run(path)
        assert all(e is None for e in emissions)

    def test_missing_ego_resets_streak(self):
        # dropout at frame 18 clears the 4-frame streak; the window must
        # refill, moving the first emission from 20 to 25
        acc = MotionAccumulator()
        emitted_at = []
        for k in range(30):
            ego = None if k == 18 else np.array([1.0, 0.0, 0.0])
            out = accumulate_motion(acc, np.array([0.12 * k, 0.0, 15.0]), ego,
                                    np.eye(3), np.eye(3))
            if out is not None:
                emitted_at.append(k)
        assert emitted_at[0] == 25


class TestCorrectRotation:
    def test_identity_when_motions_agree(self):
        r0 = rotation_about_z(0.3)
        out = correct_rotation(r0, np.eye(3), (2.0, 1.0, 0.1), (2.0, 1.0, -0.2))
        assert rotation_angle(out.T @ r0) < 1e-12

    def test_cancels_90deg_yaw_error(self):
        truth = rotation_about_z(np.deg2rad(-40.0)) @ rotation_about_x(np.deg2rad(3.0))
        wrong = rotation_about_z(np.deg2rad(90.0)) @ truth
        motion = np.array([1.5, 0.7, 0.0])
        ego = truth.T @ motion            # drone-frame direction of true motion
        self_motion = wrong @ ego         # world view distorted by the wrong estimate
        out = correct_rotation(wrong, np.eye(3), motion, self_motion)
        assert rotation_angle(out.T @ truth) < 1e-9

    def test_conjugation_invariance_in_vehicle_yaw(self):
        truth_world = rotation_about_z(np.deg2rad(-40.0))
        for veh_yaw in (0.0, 0.7, -1.3):
            r_g = rotation_about_z(veh_yaw)
            truth = r_g.T @ truth_world
            wrong = r_g.T @ rotation_about_z(np.deg2rad(90.0)) @ r_g @ truth
            motion = np.array([1.5, 0.7, 0.0])
            ego = truth.T @ (r_g.T @ motion)
            self_motion = r_g @ (wrong @ ego)
            out = correct_rotation(wrong, r_g, motion, self_motion)
            assert rotation_angle(out.T @ truth) < 1e-9

    def test_idempotent_once_self_motion_recomputed(self):
        truth = rotation_about_z(np.deg2rad(10.0))
        wrong = rotation_about_z(np.deg2rad(190.0))
        motion = np.array([2.0, -0.5, 0.0])
        ego = truth.T @ motion
        corrected = correct_rotation(wrong, np.eye(3), motion, wrong @ ego)
        again = correct_rotation(corrected, np.eye(3), motion, corrected @ ego)
        assert rotation_angle(again.T @ corrected) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["observed", "self"])
    def test_non_finite_motion_raises(self, value, which):
        motion, self_motion = np.array([2.0, 1.0, 0.1]), np.array([2.0, 1.0, -0.2])
        (motion if which == "observed" else self_motion)[0] = value
        with pytest.raises(ValueError, match="finite"):
            correct_rotation(np.eye(3), np.eye(3), motion, self_motion)

    def test_vertical_motion_propagates_degeneracy(self):
        with pytest.raises(ValueError, match="yaw unobservable"):
            correct_rotation(np.eye(3), np.eye(3), (0, 0, 2.0), (0, 0, 2.0))


def synthetic_rotation_run(offset_deg, vd_noise_deg, ego_noise_deg, seed, frames=45):
    """Pure-observation pipeline loop (no LiDAR): returns final yaw error, k_init."""
    rng = np.random.default_rng(seed)
    obs = IndirectObsModel(vd_noise=np.deg2rad(vd_noise_deg),
                           ego_noise=np.deg2rad(ego_noise_deg), scramble=True)
    r_g = rotation_about_z(np.deg2rad(25.0))
    r_d = rotation_about_z(np.deg2rad(-40.0)) @ rotation_about_x(np.deg2rad(3.0))
    truth = r_g.T @ r_d
    start = r_g.T @ rotation_about_z(np.deg2rad(offset_deg)) @ r_g @ truth
    state = RotationFilterState(rotation=start, last_time=0.0)
    acc = MotionAccumulator()
    drone_pos = lambda t: np.array([1.0 * t, 2.0, 15.0])
    hist, times = [], []
    k_init = None
    for k in range(frames):
        t = 0.12 * (k + 1)
        hist.append(drone_pos(t))
        times.append(t)
        vg = observe_vds(Pose(r_g, np.zeros(3)), obs, rng)
        vd = observe_vds(Pose(r_d, drone_pos(t)), obs, rng)
        try:
            match = match_vds(vg, vd, state.rotation)
            meas = estimate_rotation(vg, match.apply(vd), match.residuals)
            state = filter_rotation(state, meas, t)
        except AmbiguousMatchError:
            pass
        if k_init is None:
            ego = None
            if len(hist) - 1 >= acc.frame_gap:
                ego = observe_ego_direction(
                    Pose(r_d, hist[len(hist) - 1 - acc.frame_gap]),
                    Pose(r_d, hist[-1]), np.deg2rad(ego_noise_deg), rng)
            emission = accumulate_motion(acc, hist[-1], ego, r_g, state.rotation)
            if emission is not None:
                fixed = correct_rotation(state.rotation, r_g, emission[0], emission[1])
                state = RotationFilterState(rotation=orthonormalize(fixed),
                                            max_rate=state.max_rate,
                                            last_time=state.last_time)
                k_init = k
    err = rotation_angle(state.rotation.T @ truth)
    return err, k_init


class TestYawRecovery:
    @pytest.mark.parametrize("offset", [90.0, 180.0, 270.0])
    def test_noiseless_recovery_is_exact(self, offset):
        err, k_init = synthetic_rotation_run(offset, 0.0, 0.0, seed=3)
        assert k_init is not None
        assert err < 1e-6

    def test_noisy_recovery_below_10deg(self):
        errors = []
        for seed in range(20):
            err, k_init = synthetic_rotation_run(90.0, 1.0, 2.0, seed=seed)
            assert k_init is not None
            errors.append(np.rad2deg(err))
        assert np.median(errors) < 10.0


def same_outcome(fn, ref, *args):
    """Both raise the same error, or both return bit-equal arrays; the result."""
    try:
        want = ref(*args)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            fn(*args)
        assert str(got.value) == str(exc)
        return None
    out = fn(*args)
    assert np.array_equal(out, want) and out.dtype == want.dtype
    return out


def vd_cases(seed, n=400):
    """(vehicle VDs, drone VDs, prior): noisy, unnormalized triples; drone
    columns scrambled and sign-flipped; priors from exact to far past the
    45-degree match limit; in every fifth case two directions are 10 degrees
    apart, give or take rounding, so the estimate may find them collinear."""
    rng = np.random.default_rng(seed)
    for case in range(n):
        truth = random_rotation(rng)
        vehicle = random_rotation(rng)
        noise = np.deg2rad(rng.choice([0.0, 1.0, 8.0]))
        if case % 5 == 0:   # the first two at the 10-degree pair check
            edge = np.deg2rad(10.0) + rng.choice([-1e-9, 0.0, 1e-9, 1e-3])
            side = np.cross(vehicle[:, 0], rng.normal(size=3))
            vehicle[:, 1] = rotation_about_axis(side, edge) @ vehicle[:, 0]
            noise = 0.0
        vg = vehicle + rng.normal(scale=noise, size=(3, 3))
        vd = truth.T @ vehicle + rng.normal(scale=noise, size=(3, 3))
        vd = vd[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
        vg = vg * 10.0 ** rng.uniform(-2.0, 2.0, size=3)
        prior = truth @ random_rotation(rng, max_angle=rng.choice([0.0, 0.3, 1.0, np.pi]))
        yield vg, vd, prior


@pytest.mark.exact("vp_rot.rotation")
class TestSameBitsAsReference:
    """The 3x3 rotation work gives the same bits as before its numpy calls were cut."""

    def test_match_estimate_filter(self):
        outcomes = {"matched": 0, "ambiguous": 0, "collinear": 0}
        rng = np.random.default_rng(77)
        for vg, vd, prior in vd_cases(31):
            try:
                want = reference_match_vds(vg, vd, prior)
            except AmbiguousMatchError as exc:
                with pytest.raises(AmbiguousMatchError, match=str(exc)):
                    match_vds(vg, vd, prior)
                outcomes["ambiguous"] += 1
                continue
            match = match_vds(vg, vd, prior)
            assert (match.permutation, match.signs) == want[:2]
            assert np.array_equal(match.residuals, want[2])
            measured = same_outcome(estimate_rotation, reference_estimate_rotation,
                                    vg, match.apply(vd), match.residuals)
            if measured is None:
                outcomes["collinear"] += 1
                continue
            outcomes["matched"] += 1
            state = RotationFilterState(random_rotation(rng, 0.5) @ prior, last_time=1.0)
            t = 1.0 + rng.choice([1e-3, 0.12, 10.0])
            got = filter_rotation(state, measured, t).rotation
            want_rot = reference_filter_rotation(state.rotation, state.max_rate, 1.0, measured, t)
            assert np.array_equal(got, want_rot)
        assert min(outcomes.values()) > 10, outcomes

    # (vehicle VDs, drone VDs, prior) whose residuals tie exactly
    C10, S10 = np.cos(np.deg2rad(10.0)), np.sin(np.deg2rad(10.0))
    SPLIT = np.column_stack([(C10, S10, 0.0), (C10, -S10, 0.0), (0.0, 0.0, 1.0)])
    SIGNED_PERM = np.eye(3)[:, [2, 0, 1]] * [1.0, -1.0, -1.0]
    TIES = {
        # every residual 0, pi/2 or pi, and a == pi - a at pi/2
        "identity": (np.eye(3), np.eye(3), np.eye(3)),
        "exact_prior": (np.eye(3), SIGNED_PERM.T, SIGNED_PERM),
        # vehicle columns 0 and 1 are bit-equally 10 deg from drone column 0: the
        # smaller i takes it, so column 1 takes drone column 1 (15 deg, not 35)
        "split": (SPLIT, np.column_stack([(1.0, 0.0, 0.0),
                                          rotation_about_z(np.deg2rad(-25.0))[:, 0],
                                          (0.0, 0.0, 1.0)]), np.eye(3)),
        # the same tie, the loser left with a drone column 80 deg away: ambiguous
        "split_ambiguous": (SPLIT, np.eye(3), np.eye(3)),
    }

    @pytest.mark.parametrize("case", sorted(TIES))
    def test_match_on_exact_ties(self, case):
        vg, vd, prior = self.TIES[case]
        try:
            want = reference_match_vds(vg, vd, prior)
        except AmbiguousMatchError as exc:
            assert case == "split_ambiguous"
            with pytest.raises(AmbiguousMatchError, match=str(exc)):
                match_vds(vg, vd, prior)
            return
        match = match_vds(vg, vd, prior)
        assert (match.permutation, match.signs) == want[:2]
        assert np.array_equal(match.residuals, want[2])
        if case == "split":
            assert match.permutation == (0, 1, 2)

    def test_complete_vd(self):
        rng = np.random.default_rng(32)
        raised = 0
        for _ in range(2000):
            v1 = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0)
            angle = np.deg2rad(10.0) + rng.choice([-1e-12, 0.0, 1e-12, rng.uniform(0.0, 2.8)])
            v2 = rotation_about_axis(np.cross(v1, rng.normal(size=3)), angle) @ v1
            raised += same_outcome(complete_vd, reference_complete_vd, v1, v2) is None
        assert 0 < raised < 2000

    def test_orthonormalize_proper_and_reflected(self):
        rng = np.random.default_rng(33)
        for scale in (1e-9, 1e-3, 0.3, 3.0):
            for _ in range(300):
                m = random_rotation(rng) + rng.normal(scale=scale, size=(3, 3))
                m[:, 2] *= rng.choice([-1.0, 1.0])   # half of them reflections
                assert np.array_equal(orthonormalize(m), reference_orthonormalize(m))

    def test_angle_between_at_the_clamp(self):
        rng = np.random.default_rng(34)
        for _ in range(2000):
            a = rng.normal(size=3)
            b = a * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
            b = b + rng.choice([0.0, 1e-14, 1e-3]) * rng.normal(size=3)
            assert angle_between(a, b) == reference_angle_between(a, b)
        nan = np.array([np.nan, 1.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):    # was a NaN angle
            angle_between(nan, (1.0, 0.0, 0.0))
        assert np.isnan(reference_angle_between(nan, (1.0, 0.0, 0.0)))


class TestHugeColumns:
    """Columns of norm 1e150-1e155 give a ValueError or the reference's bits, never a
    RuntimeWarning: np.matmul warns on an overflow inside it, np.dot on the squares."""

    @staticmethod
    def reference(fn, *args):
        with np.errstate(all="ignore"):
            try:
                return fn(*args)
            except ValueError:
                return None

    @staticmethod
    def scaled(rng, vds):
        return vds / np.linalg.norm(vds, axis=0) * 10.0 ** rng.uniform(150.0, 155.0, size=3)

    @pytest.mark.exact("vp_rot.rotation")
    @pytest.mark.filterwarnings("error")
    def test_value_error_or_reference_bits(self):
        rng = np.random.default_rng(35)
        same = {"match": 0, "complete": 0, "estimate": 0}
        for n, (vg, vd, prior) in enumerate(vd_cases(36, n=300)):
            vg = vg if n % 3 == 1 else self.scaled(rng, vg)     # one side huge, or both
            vd = vd if n % 3 == 0 else self.scaled(rng, vd)
            want = self.reference(reference_match_vds, vg, vd, prior)
            try:
                match = match_vds(vg, vd, prior)
            except ValueError:
                pass
            else:
                assert want is not None and (match.permutation, match.signs) == want[:2]
                assert match.residuals.tobytes() == want[2].tobytes()
                same["match"] += 1
            for fn, ref, args in ((complete_vd, reference_complete_vd, (vd[:, 0], vd[:, 1])),
                                  (estimate_rotation, reference_estimate_rotation,
                                   (vg, vd, rng.permutation(3) * 0.1))):
                want = self.reference(ref, *args)
                try:
                    got = fn(*args)
                except ValueError:
                    continue
                assert want is not None and got.tobytes() == want.tobytes()
                same["complete" if fn is complete_vd else "estimate"] += 1
        assert min(same.values()) > 30, same
