from pathlib import Path

import numpy as np
import pytest

from dronepose import pipeline
from dronepose.geom import (
    Pose,
    euler_to_rotation,
    rotation_about_y,
    rotation_about_z,
    rotation_angle,
)
from dronepose.pipeline import (
    RunRecord,
    ScenarioError,
    compute_metrics,
    export,
    load_scenario,
    parse_scenario,
    record_from_csv,
    record_to_csv,
    run,
)
from dronepose.scan_sim import ScanFrame
from dronepose.tracker import TrackState
from dronepose.vp_rot import MotionAccumulator, accumulate_motion
from conftest import manhattan_scenario_text

EXP1 = Path(__file__).resolve().parent.parent / "scenarios" / "exp1_gentle_drift.scenario"

MINIMAL = """
schema_version = 1
seed = 9
drone.waypoint.0.time = 0
drone.waypoint.0.position = 0 0 20
"""


class TestParsing:
    def test_minimal_file_gets_documented_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.kernel.drone_width == 0.5
        assert sc.projection.resolution == 512
        assert sc.meanshift.radius == 1.0
        assert sc.meanshift.iterations == 10
        assert sc.kernel.outer_band_px == 20
        assert sc.kernel.depth_epsilon == 0.1
        assert sc.vibration_period == 0.12
        # single waypoint expands to a hover
        assert np.allclose(sc.trajectories.drone.position_at(5.0), (0, 0, 20))

    def test_missing_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario("schema_version = 1\ndrone.waypoint.0.time = 0\n"
                           "drone.waypoint.0.position = 0 0 20\n")

    def test_negative_drone_width_names_field(self):
        with pytest.raises(ScenarioError, match="drone.width"):
            parse_scenario(MINIMAL + "drone.width = -0.5\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(MINIMAL + "drone.wdith = 0.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(MINIMAL + "seed = 10\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ScenarioError, match=":2:"):
            parse_scenario("schema_version = 1\nnot a key value line\n")

    def test_bad_vector_reported(self):
        with pytest.raises(ScenarioError, match="position"):
            parse_scenario(MINIMAL.replace("0 0 20", "0 20"))

    def test_missing_drone_waypoints_rejected(self):
        with pytest.raises(ScenarioError, match="waypoint"):
            parse_scenario("schema_version = 1\nseed = 1\n")

    def test_non_contiguous_indices_rejected(self):
        with pytest.raises(ScenarioError, match="contiguous"):
            parse_scenario(MINIMAL + "scene.1.kind = box\nscene.1.center = 0 0 0\n")

    def test_schema_version_checked(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(MINIMAL.replace("schema_version = 1", "schema_version = 2"))

    def test_unknown_primitive_kind_names_entry(self):
        text = MINIMAL + ("scene.0.kind = cone\nscene.0.center = 0 0 0\n")
        with pytest.raises(ScenarioError, match="scene.0"):
            parse_scenario(text)

    def test_echo_round_trips(self, tmp_path):
        sc = parse_scenario(manhattan_scenario_text(seed=5))
        echo = sc.echo_text()
        again = parse_scenario(echo)
        assert again.echo_text() == echo

    def test_load_with_overrides_and_seed(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text(manhattan_scenario_text(seed=5))
        sc = load_scenario(path, overrides={"lidar.range_noise": "0.05",
                                            "meanshift.radius": "0.8"}, seed=77)
        assert sc.seed == 77
        assert sc.lidar.range_noise == 0.05
        assert sc.meanshift.radius == 0.8

    @pytest.mark.parametrize("key, value, problem", [
        ("bogus.key", "1", "unknown key 'bogus.key'"),
        ("duration", "", "empty key or value"),
        ("", "5", "empty key or value"),
    ])
    def test_override_errors_name_the_override(self, key, value, problem):
        # an override has no line in the file: the error names the override
        with pytest.raises(ScenarioError) as info:
            load_scenario(EXP1, overrides={key: value})
        assert str(info.value) == f"override '{key}={value}': {problem}"


def synthetic_record(n=10, bias=(0.0, 0.0, 0.0), k_init=None):
    times = 0.12 * np.arange(n)
    truth = np.column_stack([np.linspace(0, 5, n), np.zeros(n), np.full(n, 15.0)])
    est = truth + np.asarray(bias)
    rots = np.tile(np.eye(3), (n, 1, 1))
    return RunRecord(
        times=times,
        est_positions=est,
        truth_positions=truth,
        est_rotations=rots.copy(),
        truth_rotations=rots.copy(),
        status=["locked"] * n,
        corrected=np.arange(n) >= (k_init if k_init is not None else n + 1),
        k_init=k_init,
        acquisition_time=2.6,
        frame_compute_times=np.full(n, 0.001),
    )


class TestMetrics:
    def test_perfect_estimator_is_zero(self):
        report = compute_metrics(synthetic_record())
        assert np.allclose(report.pos_rmse, 0.0)
        assert np.allclose(report.rot_rmse_deg, 0.0)
        assert report.rot_whole_run

    def test_constant_bias(self):
        report = compute_metrics(synthetic_record(bias=(0.3, 0.0, 0.0)))
        assert report.pos_rmse[0] == pytest.approx(0.3, abs=1e-12)
        assert report.pos_rmse[1] == 0.0
        assert report.pos_rmse[2] == 0.0

    def test_rmse_arithmetic(self):
        rec = synthetic_record(n=2)
        rec.est_positions = rec.truth_positions + np.array([[3.0, 0, 0], [4.0, 0, 0]])
        report = compute_metrics(rec)
        assert report.pos_rmse[0] == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_angle_wrap(self):
        from dronepose.geom import rotation_about_z

        rec = synthetic_record(n=4)
        rec.est_rotations = np.array([rotation_about_z(np.deg2rad(179.0))] * 4)
        rec.truth_rotations = np.array([rotation_about_z(np.deg2rad(-179.0))] * 4)
        report = compute_metrics(rec)
        assert report.rot_rmse_deg[2] == pytest.approx(2.0, abs=1e-9)

    def test_post_k_init_window(self):
        from dronepose.geom import rotation_about_z

        rec = synthetic_record(n=10, k_init=6)
        # wrong before k_init, perfect after: post-k_init RMSE must be 0
        for i in range(6):
            rec.est_rotations[i] = rotation_about_z(np.deg2rad(90.0))
        report = compute_metrics(rec)
        assert not report.rot_whole_run
        assert np.allclose(report.rot_rmse_deg, 0.0)

    def test_lost_frames_excluded_from_position(self):
        rec = synthetic_record(n=10, bias=(0.1, 0.0, 0.0))
        rec.status[5] = "lost"
        rec.est_positions[5] = rec.truth_positions[5] + 100.0
        report = compute_metrics(rec)
        assert report.n_locked == 9
        assert report.pos_rmse[0] == pytest.approx(0.1, abs=1e-12)


class TestCsvRoundTrip:
    def test_row_count_and_reload(self, tmp_path):
        rec = synthetic_record(n=7, bias=(0.2, -0.1, 0.05), k_init=3)
        text = record_to_csv(rec)
        assert len(text.strip().splitlines()) == 8
        path = tmp_path / "trajectory.csv"
        path.write_text(text)
        back = record_from_csv(path)
        assert back.k_init == 3
        assert np.allclose(back.est_positions, rec.est_positions, atol=1e-12)
        a = compute_metrics(rec)
        b = compute_metrics(back)
        assert np.allclose(a.pos_rmse, b.pos_rmse, atol=1e-9)
        assert np.allclose(a.rot_rmse_deg, b.rot_rmse_deg, atol=1e-9)

    def test_gimbal_lock_round_trip(self, tmp_path):
        # pitch exactly +-90 deg: euler_xyz raises, export writes rz = 0
        locked = [euler_to_rotation(0.0, np.pi / 2, 0.0),
                  euler_to_rotation(0.4, np.pi / 2, -1.1),
                  euler_to_rotation(-2.0, -np.pi / 2, 0.7),
                  rotation_about_z(0.3) @ rotation_about_y(-np.pi / 2)]
        rec = synthetic_record(n=len(locked))
        rec.est_rotations = np.array(locked)
        rec.truth_rotations = np.array(locked[::-1])
        path = tmp_path / "trajectory.csv"
        path.write_text(record_to_csv(rec))
        back = record_from_csv(path)
        assert np.max(np.abs(back.est_rotations - rec.est_rotations)) < 1e-9
        assert np.max(np.abs(back.truth_rotations - rec.truth_rotations)) < 1e-9
        for row in path.read_text().splitlines()[1:]:
            cells = row.split(",")
            assert float(cells[9]) == 0.0 and float(cells[12]) == 0.0
        assert np.all(np.isfinite(compute_metrics(back).rot_rmse_deg))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ScenarioError, match="header"):
            record_from_csv(path)


@pytest.fixture(scope="module")
def short_noiseless_run():
    text = manhattan_scenario_text(
        seed=21,
        duration=8.0,
        drone_width=0.15,
        points_per_second=400000.0,
        drone_waypoints=[
            (0.0, "2 1.5 11", "0 0 0"),
            (3.0, "2 1.5 11", "0 0 0"),
            (8.0, "2 4.0 11.5", "0 0 0"),
        ],
    )
    scenario = parse_scenario(text)
    return text, scenario, run(scenario)


class TestRun:
    def test_noiseless_position_accuracy(self, short_noiseless_run):
        _, scenario, record = short_noiseless_run
        assert record.acquisition_time is not None
        assert record.acquisition_time <= np.pi / (scenario.sweep_rpm * 2 * np.pi / 60) + 1e-6
        assert all(s == "locked" for s in record.status)
        report = compute_metrics(record)
        assert np.all(report.pos_rmse < 0.1)

    def test_correct_prior_keeps_rotation_exact(self, short_noiseless_run):
        _, _, record = short_noiseless_run
        errors = [rotation_angle(e.T @ t) for e, t in
                  zip(record.est_rotations, record.truth_rotations)]
        assert max(errors) < 1e-6

    def test_determinism_byte_identical(self, short_noiseless_run):
        text, scenario, record = short_noiseless_run
        again = run(parse_scenario(text))
        assert record_to_csv(record) == record_to_csv(again)

    def test_export_files(self, short_noiseless_run, tmp_path):
        _, scenario, record = short_noiseless_run
        report = compute_metrics(record)
        paths = export(record, report, tmp_path / "out", scenario)
        csv_text = (tmp_path / "out" / "trajectory.csv").read_text()
        assert len(csv_text.strip().splitlines()) == len(record.times) + 1
        metrics_text = (tmp_path / "out" / "metrics.txt").read_text()
        assert metrics_text == report.to_text()
        assert f"pos_rmse_x = {float(report.pos_rmse[0])!r}" in metrics_text
        echoed = (tmp_path / "out" / "scenario.txt").read_text()
        assert parse_scenario(echoed).seed == scenario.seed

    def test_acquisition_failure_recorded_not_thrown(self):
        # drone far outside the upward field of view, empty scene: every
        # sweep finds nothing and the run ends with an empty record
        text = manhattan_scenario_text(
            seed=13,
            duration=6.0,
            scene="none",
            drone_waypoints=[(0.0, "60 0 2", "0 0 0")],
        )
        record = run(parse_scenario(text))
        assert record.acquisition_time is None
        assert len(record.times) == 0
        report = compute_metrics(record)
        assert report.pos_rmse is None
        assert report.rot_rmse_deg is None

    def test_yaw_flip_corrects_at_k_init(self):
        text = manhattan_scenario_text(
            seed=31,
            duration=8.0,
            drone_width=0.4,
            initial_rpy_deg="0 0 90",
            drone_waypoints=[
                (0.0, "2 1.5 11", "0 0 0"),
                (3.0, "2 1.5 11", "0 0 0"),
                (8.0, f"2 {1.5 + 1.3 * 5.0} 11", "0 0 0"),
            ],
        )
        record = run(parse_scenario(text))
        assert record.k_init is not None
        pre = [rotation_angle(e.T @ t) for e, t in
               zip(record.est_rotations[:record.k_init],
                   record.truth_rotations[:record.k_init])]
        post = [rotation_angle(e.T @ t) for e, t in
                zip(record.est_rotations[-5:], record.truth_rotations[-5:])]
        assert min(pre) > np.deg2rad(80.0)
        assert max(post) < 1e-6
        assert np.all(record.corrected[record.k_init:])
        assert not np.any(record.corrected[:record.k_init])


class TestBundledScenarios:
    def test_all_bundled_files_parse(self):
        import pathlib

        root = pathlib.Path(__file__).parent.parent / "scenarios"
        files = sorted(root.glob("*.scenario"))
        assert len(files) == 4
        seeds = set()
        for path in files:
            sc = load_scenario(path)
            seeds.add(sc.seed)
            assert sc.duration == 30.0
        assert len(seeds) == 4

    def test_bundled_scenario_smoke_run(self):
        import pathlib

        path = (pathlib.Path(__file__).parent.parent / "scenarios"
                / "exp1_gentle_drift.scenario")
        scenario = load_scenario(path, overrides={"duration": "6.0"})
        record = run(scenario)
        assert record.acquisition_time is not None
        assert len(record.times) > 20
        assert all(s == "locked" for s in record.status)


# -- the estimator step on hand-built frames: no Scene, no ray casting --------

AXES = np.eye(3)
IDENTITY = Pose(np.eye(3), np.zeros(3))
# body diagonals: every one is 54.7 deg from every axis, past the 45 deg limit
DIAGONALS = np.column_stack([(1, 1, 1), (1, -1, 1), (-1, 1, 1)]) / np.sqrt(3.0)
# three directions within 5 deg of x: matched, but no basis can be built from them
COLLINEAR = np.column_stack([(1, 0, 0), (np.cos(0.05), np.sin(0.05), 0),
                             (np.cos(0.05), 0, np.sin(0.05))])


def cluster_inputs(k, center, drone_vds=AXES, ego=None, spread=0.05):
    """Frame k: a point cluster at ``center`` and the given drone VDs."""
    t0 = 0.12 * k
    rng = np.random.default_rng(k)
    pts = np.asarray(center, dtype=float) + rng.normal(scale=spread, size=(60, 3))
    scan = ScanFrame(pts, t0, t0 + 0.12)
    return pipeline._VibrationInputs(scan, t0 + 0.06, IDENTITY, IDENTITY, AXES, drone_vds, ego,
                                     truth_position=np.asarray(center, dtype=float),
                                     truth_rotation=np.eye(3))


def estimator(extra="", at=(2.0, 1.0, 10.0)):
    est = pipeline._Estimator(parse_scenario(MINIMAL + extra))
    est.track = TrackState(position=np.asarray(at, dtype=float))
    return est


class TestEstimatorStep:
    @pytest.mark.parametrize("drone_vds", [DIAGONALS, COLLINEAR], ids=["ambiguous", "degenerate"])
    def test_unusable_vd_measurement_holds_the_rotation(self, drone_vds):
        est = estimator("rotation.initial_rpy_deg = 0 0 30\n")
        before = est.rot
        est.step(cluster_inputs(0, (2.0, 1.0, 10.0), drone_vds=drone_vds))
        assert est.rot is before
        assert est.track.status == "locked"
        # a usable measurement on the next frame moves it again
        est.step(cluster_inputs(1, (2.0, 1.0, 10.0)))
        assert est.rot.last_time == pytest.approx(0.18)
        assert rotation_angle(est.rot.rotation) < rotation_angle(before.rotation)

    @pytest.mark.parametrize("drone_vds", [AXES, AXES[:, [2, 0, 1]] * [1, -1, -1]],
                             ids=["exact", "scrambled"])
    def test_exact_or_scrambled_vds_converge(self, drone_vds):
        est = estimator("rotation.initial_rpy_deg = 0 0 1\n")
        for k in range(3):
            est.step(cluster_inputs(k, (2.0, 1.0, 10.0), drone_vds=drone_vds))
        assert rotation_angle(est.rot.rotation) < 1e-12

    def test_filter_time_order_error_is_not_swallowed(self):
        est = estimator()
        est.rot.last_time = 5.0
        with pytest.raises(ValueError, match="strictly increasing"):
            est.step(cluster_inputs(0, (2.0, 1.0, 10.0)))

    def test_miss_limit_misses_make_the_loop_ask_for_a_sweep(self, monkeypatch):
        center = np.array([2.0, 1.0, 10.0])
        calls = []

        class Source:
            def __init__(self, scenario):
                self.t = 0.0

            def sweep(self):
                calls.append("sweep")
                if calls.count("sweep") > 2:
                    return None
                self.t += 1.0
                return cluster_inputs(0, center).scan

            def vibration(self, azimuth, want_ego):
                calls.append("frame")
                return cluster_inputs(len(calls), center + 30.0)   # nothing near the track

        monkeypatch.setattr(pipeline, "_SimSource", Source)
        monkeypatch.setattr(pipeline, "acquire", lambda scan, *params: TrackState(center))
        record = run(parse_scenario(MINIMAL))
        limit = 5
        assert calls == (["sweep"] + ["frame"] * limit) * 2 + ["sweep"]
        assert record.status == (["locked"] * (limit - 1) + ["lost"]) * 2
        assert record.acquisition_time == 1.0
        assert record.reacquisitions == 1
        assert len(record.frame_compute_times) == 2 * limit

    def test_bounded_history_gives_the_full_list_emissions(self, monkeypatch):
        calls = []

        def recording(acc, track_world, ego, vehicle_rotation, current_rotation):
            out = accumulate_motion(acc, track_world, ego, vehicle_rotation, current_rotation)
            calls.append((track_world[-1].copy(), ego, current_rotation, out))
            return out

        monkeypatch.setattr(pipeline, "accumulate_motion", recording)
        est = estimator("rotation.initial_rpy_deg = 0 0 90\n")
        for k in range(30):
            # 1 m/s along +y in the world: 1.68 m per 14-frame gap
            center = (2.0, 1.0 + 0.12 * k, 10.0)
            ego = None if k == 17 else np.array([0.0, 1.0, 0.0])
            est.step(cluster_inputs(k, center, ego=ego))
            assert len(est.world) <= est.motion.frame_gap + 1
        assert est.corrected and est.k_init == len(calls) - 1

        reference = MotionAccumulator(window=7, frame_gap=14)
        full = []
        for position, ego, current, out in calls:
            full.append(position)
            expected = accumulate_motion(reference, full, ego, np.eye(3), current)
            if out is None:
                assert expected is None
            else:
                assert all(np.array_equal(a, b) for a, b in zip(out, expected))
        assert calls[-1][3] is not None
