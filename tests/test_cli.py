import subprocess
import sys
from pathlib import Path

import pytest

from dronepose.cli import main
from dronepose.report import CSV_HEADER
from conftest import manhattan_scenario_text

EXP1 = Path(__file__).resolve().parent.parent / "scenarios" / "exp1_gentle_drift.scenario"


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "short.scenario"
    path.write_text(manhattan_scenario_text(
        seed=3,
        duration=5.0,
        drone_width=0.3,
        scene="light",
        drone_waypoints=[(0.0, "2 1.5 11", "0 0 0"), (5.0, "2 2.5 11", "0 0 0")],
    ))
    return path


class TestRunCommand:
    def test_run_writes_outputs_and_exits_zero(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "pos_rmse_x" in captured
        assert (out / "trajectory.csv").exists()
        assert (out / "metrics.txt").exists()
        assert (out / "scenario.txt").exists()

    def test_seed_override_changes_output(self, scenario_file, tmp_path):
        # needs sensor noise in play: a noiseless scenario is seed-invariant
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_a),
                     "--seed", "11", "--overrides", "lidar.range_noise=0.03"]) == 0
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_b),
                     "--seed", "12", "--overrides", "lidar.range_noise=0.03"]) == 0
        a = (out_a / "trajectory.csv").read_text()
        b = (out_b / "trajectory.csv").read_text()
        assert a != b

    def test_same_seed_byte_identical(self, scenario_file, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert main(["run", "--scenario", str(scenario_file), "--out", str(out),
                         "--seed", "11"]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_overrides_applied(self, scenario_file, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out),
                     "--overrides", "duration=4.0"])
        assert code == 0
        assert "duration = 4.0" in (out / "scenario.txt").read_text()

    def test_bad_config_exits_nonzero(self, scenario_file, tmp_path, capsys):
        code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "z"),
                     "--overrides", "drone.width=-1"])
        assert code == 1
        assert "drone.width" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["bogus.key=1", "duration="])
    def test_override_error_names_the_override(self, override, tmp_path, capsys):
        code = main(["run", "--scenario", str(EXP1), "--out", str(tmp_path / "z"),
                     "--overrides", override])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: override '{override}': ")
        assert ".scenario:" not in err

    @pytest.mark.parametrize("overrides, line", [
        # a bad resolution is reported as one, not as a band wider than it
        (["projection.resolution=10"], "projection: resolution must be even and >= 64, got 10"),
        (["projection.resolution=10", "kernel.outer_band=5"],
         "projection: resolution must be even and >= 64, got 10"),
        (["projection.resolution=65"], "projection: resolution must be even and >= 64, got 65"),
        (["kernel.outer_band=600"], "kernel.outer_band: must be <= projection.resolution, got 600"),
    ])
    def test_range_error_names_the_key_at_fault(self, overrides, line, tmp_path, capsys):
        code = main(["run", "--scenario", str(EXP1), "--out", str(tmp_path / "r"),
                     "--overrides", *overrides])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.scenario"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("override", [
        "meanshift.radius=0.01",        # no return within 1 cm of the detected pixel's centre
        "projection.fov_deg=179.9",     # a pixel spans degrees: its centre lies metres from returns
    ])
    def test_nothing_to_lock_on_exits_zero(self, override, tmp_path, capsys):
        # used to end in a traceback from the acquisition's refinement
        out = tmp_path / "none"
        code = main(["run", "--scenario", str(EXP1), "--out", str(out),
                     "--overrides", "duration=4", override])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert (out / "trajectory.csv").read_text() == CSV_HEADER + "\n"
        assert "acquisition_time = absent" in captured.out


class TestMetricsCommand:
    def test_metrics_matches_run_output(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "m"
        main(["run", "--scenario", str(scenario_file), "--out", str(out), "--seed", "4"])
        run_metrics = capsys.readouterr().out
        code = main(["metrics", "--record", str(out / "trajectory.csv")])
        assert code == 0
        recomputed = capsys.readouterr().out
        for line in recomputed.splitlines():
            if line.startswith("pos_rmse_x"):
                a = float(line.split("=")[1])
        for line in run_metrics.splitlines():
            if line.startswith("pos_rmse_x"):
                b = float(line.split("=")[1])
        assert a == pytest.approx(b, rel=1e-9)

    def test_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense\n")
        assert main(["metrics", "--record", str(bad)]) == 1

    @pytest.mark.parametrize("column, cell", [(3, "abc"), (13, "tracking"), (14, "yes"),
                                              (7, "nan"), (11, "inf"), (1, "nan"), (0, "nan")])
    def test_bad_cell_exits_one_naming_the_line(self, column, cell, tmp_path):
        row = ["0.5"] + ["1.0"] * 12 + ["locked", "0"]
        bad = list(row)
        bad[column] = cell
        path = tmp_path / "trajectory.csv"
        path.write_text("\n".join([CSV_HEADER, ",".join(row), ",".join(bad)]) + "\n")
        result = subprocess.run(
            [sys.executable, "-m", "dronepose.cli", "metrics", "--record", str(path)],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {path}:3: ")
        assert repr(cell) in result.stderr
        assert "Traceback" not in result.stderr


class TestSweepCommand:
    def test_sweep_table(self, scenario_file, tmp_path, capsys):
        code = main(["sweep", "--scenario", str(scenario_file),
                     "--param", "lidar.range_noise", "--values", "0.0,0.03",
                     "--seed", "5", "--out", str(tmp_path / "sweep")])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == ("param,value,pos_rmse_x,pos_rmse_y,pos_rmse_z,rot_rmse_deg_x,"
                            "rot_rmse_deg_y,rot_rmse_deg_z,n_frames,k_init")
        assert len(lines) == 3
        assert (tmp_path / "sweep" / "sweep.csv").read_text() == out


class TestConsoleEntry:
    def test_module_invocation(self, scenario_file, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dronepose.cli", "run",
             "--scenario", str(scenario_file), "--out", str(tmp_path / "sub"),
             "--seed", "2"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "pos_rmse_x" in result.stdout

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "dronepose.cli", "run"],
            capture_output=True, text=True)
        assert result.returncode == 2

    @pytest.mark.parametrize("override", [
        "duration=nan",                     # used to loop forever
        "drone.width=nan",                  # used to end in a traceback from the detector
        "drone.waypoint.1.position=2 inf 12",
    ])
    def test_non_finite_override_exits_one(self, override, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dronepose.cli", "run", "--scenario", str(EXP1),
             "--out", str(tmp_path / "nf"), "--overrides", override],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        key = override.partition("=")[0]
        assert f"error: {key}: cannot parse" in result.stderr
        assert "must be finite" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, flag", [("run", "--scenario"), ("metrics", "--record")],
                             ids=["run", "metrics"])
    def test_undecodable_file_exits_one(self, command, flag, tmp_path):
        path = tmp_path / "not_utf8"
        path.write_bytes(b"\xff\xfe\x00bad")
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        result = subprocess.run(
            [sys.executable, "-m", "dronepose.cli", command, flag, str(path), *out],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("seed", ["3", "4"])
    def test_degenerate_vd_measurement_exits_zero(self, seed, tmp_path):
        # 60 deg VD noise makes some matched directions near-collinear, so
        # estimate_rotation rejects them; the run keeps the prior and goes on
        result = subprocess.run(
            [sys.executable, "-m", "dronepose.cli", "run", "--scenario", str(EXP1),
             "--out", str(tmp_path / "vd"), "--seed", seed,
             "--overrides", "observation.vd_noise_deg=60", "duration=6.0"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr

    def test_gimbal_lock_drone_exports(self, tmp_path):
        out = tmp_path / "gl"
        pitched = [f"drone.waypoint.{i}.rpy_deg=0 90 0" for i in range(4)]
        result = subprocess.run(
            [sys.executable, "-m", "dronepose.cli", "run", "--scenario", str(EXP1),
             "--out", str(out), "--overrides", "duration=6.0", *pitched],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        for name in ("trajectory.csv", "metrics.txt", "scenario.txt"):
            assert (out / name).is_file()
