import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from dronepose import pipeline, scan_sim
from dronepose.geom import euler_to_rotation
from dronepose.pipeline import _SimSource
from dronepose.scan_sim import TrajectorySpec
from dronepose.scenario import load_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent

SWEEP_OMEGA = 11.4 * 2.0 * np.pi / 60.0    # rad/s, the scenario default of 11.4 rpm


def pytest_collection_modifyitems(items):
    """Each ``exact`` mark names the one stage whose bits it pins."""
    for item in items:
        for mark in item.iter_markers("exact"):
            if mark.kwargs or len(mark.args) != 1 or not isinstance(mark.args[0], str):
                raise pytest.UsageError(f"{item.nodeid}: write exact(\"<stage>\"), "
                                        "as in exact(\"tracker.support\")")


def perfbench_workloads():
    """``perfbench/workloads.py``, loaded once as the module ``perfbench_workloads``."""
    workloads = sys.modules.get("perfbench_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads     # its dataclasses look their module up
        spec.loader.exec_module(workloads)
    return workloads


def static_trajectory(position, rpy_deg=(0.0, 0.0, 0.0), t_end=1000.0):
    rot = euler_to_rotation(*np.deg2rad(rpy_deg))
    return TrajectorySpec([0.0, t_end], [position, position], [rot, rot])


def line_trajectory(p0, p1, t0, t1, rpy_deg=(0.0, 0.0, 0.0)):
    rot = euler_to_rotation(*np.deg2rad(rpy_deg))
    return TrajectorySpec([t0, t1], [p0, p1], [rot, rot])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def acquisition_sweep():
    """(points, scenario) of exp1's first full sweep: about 440k returns,
    ground points behind the image plane and walls outside the field of view."""
    scenario = load_scenario(ROOT / "scenarios" / "exp1_gentle_drift.scenario")
    return _SimSource(scenario).sweep().points, scenario


@pytest.fixture(scope="session")
def cold_start_sweeps():
    """{i: (points, scenario)} of the acquisition sweeps of perfbench's seed-0
    ``cold_start`` inputs 5, 7 and 13: building corners that leave 376, 2316
    and 380 candidates for ``detect`` to score exactly."""
    inputs = perfbench_workloads().cold_start_inputs(pipeline, scan_sim, str(ROOT), 0, count=14)
    sweeps = {}
    for i in (5, 7, 13):
        scenario = parse_scenario(inputs[i].text, source=inputs[i].name)
        sweeps[i] = _SimSource(scenario).sweep().points, scenario
    return sweeps


def manhattan_scenario_text(
    seed=1,
    duration=16.0,
    drone_width=0.5,
    range_noise=0.0,
    vd_noise_deg=0.0,
    ego_noise_deg=0.0,
    initial_rpy_deg="0 0 0",
    points_per_second=300000.0,
    sweep_rpm=11.4,
    drone_waypoints=None,
    vehicle_waypoints=None,
    scene="full",
    extra="",
):
    """Scenario file for a Manhattan-style block with configurable knobs.

    Default drone path hovers through the acquisition sweep, then moves
    in a straight line fast enough for the motion window to qualify.
    """
    if drone_waypoints is None:
        drone_waypoints = [
            (0.0, "2 1.5 11", "0 0 0"),
            (3.0, "2 1.5 11", "0 0 0"),
            (duration, f"2 {1.5 + 1.2 * (duration - 3.0):.3f} 11", "0 0 0"),
        ]
    if vehicle_waypoints is None:
        vehicle_waypoints = [(0.0, "0 0 1.5", "0 0 0")]
    lines = [
        "schema_version = 1",
        f"seed = {seed}",
        f"duration = {duration}",
        f"drone.width = {drone_width}",
        f"lidar.range_noise = {range_noise}",
        f"lidar.points_per_second = {points_per_second}",
        f"motor.sweep_rpm = {sweep_rpm}",
        f"observation.vd_noise_deg = {vd_noise_deg}",
        f"observation.ego_noise_deg = {ego_noise_deg}",
        f"rotation.initial_rpy_deg = {initial_rpy_deg}",
    ]
    if scene == "full":
        lines += [
            "scene.0.kind = ground_plane",
            "scene.0.center = 0 0 0",
            "scene.0.dimensions = 200 200 1",
            "scene.1.kind = box",
            "scene.1.center = 25 0 6",
            "scene.1.dimensions = 10 30 12",
            "scene.2.kind = box",
            "scene.2.center = -22 10 9",
            "scene.2.dimensions = 8 24 18",
            "scene.3.kind = sparse_blob",
            "scene.3.center = 8 -15 7",
            "scene.3.dimensions = 0.3 0.3 0.3",
            "scene.3.count = 25",
            "scene.3.scatter_radius = 2.5",
        ]
    elif scene == "light":
        lines += [
            "scene.0.kind = ground_plane",
            "scene.0.center = 0 0 0",
            "scene.0.dimensions = 200 200 1",
            "scene.1.kind = box",
            "scene.1.center = 25 0 6",
            "scene.1.dimensions = 10 30 12",
        ]
    elif scene == "none":
        pass
    for i, (t, pos, rpy) in enumerate(drone_waypoints):
        lines.append(f"drone.waypoint.{i}.time = {t}")
        lines.append(f"drone.waypoint.{i}.position = {pos}")
        lines.append(f"drone.waypoint.{i}.rpy_deg = {rpy}")
    for i, (t, pos, rpy) in enumerate(vehicle_waypoints):
        lines.append(f"vehicle.waypoint.{i}.time = {t}")
        lines.append(f"vehicle.waypoint.{i}.position = {pos}")
        lines.append(f"vehicle.waypoint.{i}.rpy_deg = {rpy}")
    if extra:
        lines.append(extra.strip())
    return "\n".join(lines) + "\n"
