"""Scenario-driven experiment runner.

A scenario is a flat text file of ``dotted.key = value`` lines (``#``
starts a comment). Unknown keys are rejected; every omitted key takes
the documented default; the seed is mandatory because every run must
be reproducible. Vectors are space-separated numbers. Indexed groups
use a numeric path segment starting at 0:

    schema_version = 1
    seed = 7
    duration = 30.0
    drone.width = 0.5
    drone.waypoint.0.time = 0.0
    drone.waypoint.0.position = 0 0 20
    scene.0.kind = ground_plane
    scene.0.center = 0 0 0
    scene.0.dimensions = 200 200 1

A run produces per-frame rows (time, estimated and true drone position
in the vehicle camera frame, estimated and true relative orientation
as extrinsic-XYZ angles in degrees, tracking status, correction flag),
plus a metrics summary and a resolved scenario echo that reloads to an
identical run.
"""

from __future__ import annotations

import contextlib
import math
import re
import time as _time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .detector import KernelParams, NoCandidatesError
from .depth_image import ProjectionParams
from .geom import GimbalLockError, Pose, euler_to_rotation, euler_xyz, orthonormalize
from .scan_sim import (
    DroneModel,
    IndirectObsModel,
    LidarModel,
    ScanFrame,
    Scene,
    ScenePrimitive,
    Trajectories,
    TrajectorySpec,
    observe_ego_direction,
    observe_vds,
    simulate_full_scan,
    simulate_vibration_frame,
)
from .tracker import MeanShiftParams, TrackState, acquire, track_step
from .vp_rot import (
    MotionAccumulator,
    RotationFilterState,
    accumulate_motion,
    correct_rotation,
    estimate_rotation,
    filter_rotation,
    match_vds,
)


class ScenarioError(ValueError):
    """Scenario file could not be parsed or validated."""


# key -> (type tag, default-as-string or None when required)
_SCHEMA = {
    "schema_version": ("int", None),
    "seed": ("int", None),
    "duration": ("float", "30.0"),
    "drone.width": ("float", "0.5"),
    "kernel.outer_band": ("int", "20"),
    "kernel.epsilon": ("float", "0.1"),
    "kernel.max_inner": ("int", "101"),
    "kernel.skip_empty_inner": ("bool", "false"),
    "projection.resolution": ("int", "512"),
    "projection.fov_deg": ("float", "120.0"),
    "projection.view_direction": ("vec3", "0 0 1"),
    "meanshift.radius": ("float", "1.0"),
    "meanshift.iterations": ("int", "10"),
    "meanshift.bandwidth": ("float", "1.0"),
    "meanshift.track_iterations": ("int", "3"),
    "meanshift.miss_limit": ("int", "5"),
    "lidar.beam_count": ("int", "16"),
    "lidar.elevation_span_deg": ("float", "30.0"),
    "lidar.azimuth_step_deg": ("float", "0.2"),
    "lidar.range_noise": ("float", "0.0"),
    "lidar.max_range": ("float", "100.0"),
    "lidar.points_per_second": ("float", "300000.0"),
    "motor.sweep_rpm": ("float", "11.4"),
    "motor.vibration_amplitude_deg": ("float", "5.0"),
    "motor.vibration_period": ("float", "0.12"),
    "observation.vd_noise_deg": ("float", "0.0"),
    "observation.ego_noise_deg": ("float", "0.0"),
    "observation.scramble": ("bool", "true"),
    "rotation.initial_rpy_deg": ("vec3", "0 0 0"),
    "rotation.max_rate_deg": ("float", "20.0"),
    "motion.window": ("int", "7"),
    "motion.frame_gap": ("int", "14"),
    "motion.cone_deg": ("float", "30.0"),
    "motion.min_distance": ("float", "1.0"),
}

_SCENE_FIELDS = {
    "kind": ("str", None),
    "center": ("vec3", None),
    "dimensions": ("vec3", "1 1 1"),
    "count": ("int", "0"),
    "scatter_radius": ("float", "0.0"),
}

_WAYPOINT_FIELDS = {
    "time": ("float", None),
    "position": ("vec3", None),
    "rpy_deg": ("vec3", "0 0 0"),
}

_INDEXED = re.compile(
    r"^(scene|drone\.waypoint|vehicle\.waypoint)\.(\d+)\.([a-z_]+)$")


def _convert(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("must be finite")
            return value
        if kind == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError("expected true or false")
        if kind == "vec3":
            parts = [float(p) for p in raw.split()]
            if len(parts) != 3:
                raise ValueError("expected 3 numbers")
            if not all(map(math.isfinite, parts)):
                raise ValueError("must be finite")
            return np.array(parts)
        return raw
    except ValueError as exc:
        raise ScenarioError(f"{key}: cannot parse {raw!r} ({exc})") from None


def _canonical(kind: str, value) -> str:
    if kind == "vec3":
        return " ".join(repr(float(v)) for v in np.asarray(value, dtype=float))
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(value)


@dataclass
class Scenario:
    seed: int
    duration: float
    drone: DroneModel
    kernel: KernelParams
    projection: ProjectionParams
    meanshift: MeanShiftParams
    lidar: LidarModel
    sweep_rpm: float
    vibration_amplitude: float     # rad
    vibration_period: float        # s
    obs: IndirectObsModel
    initial_rotation: np.ndarray   # prior relative rotation, possibly wrong
    max_rotation_rate: float       # rad/s
    motion_window: int
    motion_frame_gap: int
    motion_cone: float             # rad
    motion_min_distance: float     # m
    primitives: list
    trajectories: Trajectories
    resolved: dict                 # canonical key -> value echo

    def echo_text(self) -> str:
        return "".join(f"{k} = {self.resolved[k]}\n" for k in sorted(self.resolved))


def _collect_raw(text: str, source: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ScenarioError(f"{source}:{lineno}: empty key or value")
        if key in raw:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        if key not in _SCHEMA and not _INDEXED.match(key):
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def _indexed_group(raw: dict, prefix: str, fields: dict, resolved: dict) -> list:
    indices = set()
    for key in raw:
        m = _INDEXED.match(key)
        if m and m.group(1) == prefix:
            if m.group(3) not in fields:
                raise ScenarioError(f"{key}: unknown field {m.group(3)!r}")
            indices.add(int(m.group(2)))
    if not indices:
        return []
    if sorted(indices) != list(range(len(indices))):
        raise ScenarioError(f"{prefix}: indices must be contiguous from 0")
    entries = []
    for i in range(len(indices)):
        entry = {}
        for name, (kind, default) in fields.items():
            key = f"{prefix}.{i}.{name}"
            if key in raw:
                entry[name] = _convert(key, kind, raw[key])
            elif default is not None:
                entry[name] = _convert(key, kind, default)
            else:
                raise ScenarioError(f"{key}: required field missing")
            resolved[key] = _canonical(kind, entry[name])
        entries.append(entry)
    return entries


def _waypoints_to_trajectory(entries: list, duration: float, label: str) -> TrajectorySpec:
    if not entries:
        entries = [{"time": 0.0, "position": np.zeros(3), "rpy_deg": np.zeros(3)}]
    if len(entries) == 1:
        only = entries[0]
        entries = [only, {**only, "time": max(float(only["time"]) + 1.0, duration)}]
    times = [float(e["time"]) for e in entries]
    positions = [e["position"] for e in entries]
    rotations = [euler_to_rotation(*np.deg2rad(e["rpy_deg"])) for e in entries]
    try:
        return TrajectorySpec(times, positions, rotations)
    except ValueError as exc:
        raise ScenarioError(f"{label}: {exc}") from None


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    return _build_scenario(_collect_raw(text, source))


def _build_scenario(raw: dict) -> Scenario:
    resolved = {}
    values = {}
    for key, (kind, default) in _SCHEMA.items():
        if key in raw:
            values[key] = _convert(key, kind, raw[key])
        elif default is not None:
            values[key] = _convert(key, kind, default)
        else:
            raise ScenarioError(f"{key}: required key missing (seeds are mandatory)"
                                if key == "seed" else f"{key}: required key missing")
        resolved[key] = _canonical(kind, values[key])

    if values["schema_version"] != 1:
        raise ScenarioError("schema_version: only version 1 is supported")
    if values["duration"] <= 0.0:
        raise ScenarioError("duration: must be > 0")
    if values["seed"] < 0:
        raise ScenarioError("seed: must be a non-negative integer")

    scene_entries = _indexed_group(raw, "scene", _SCENE_FIELDS, resolved)
    drone_wp = _indexed_group(raw, "drone.waypoint", _WAYPOINT_FIELDS, resolved)
    vehicle_wp = _indexed_group(raw, "vehicle.waypoint", _WAYPOINT_FIELDS, resolved)
    if not drone_wp:
        raise ScenarioError("drone.waypoint.0: at least one drone waypoint is required")

    def build(label, factory):
        try:
            return factory()
        except ValueError as exc:
            raise ScenarioError(f"{label}: {exc}") from None

    primitives = [
        build(f"scene.{i}", lambda e=e: ScenePrimitive(
            kind=e["kind"], center=e["center"], dimensions=e["dimensions"],
            count=e["count"], scatter_radius=e["scatter_radius"]))
        for i, e in enumerate(scene_entries)
    ]
    drone = build("drone.width", lambda: DroneModel(width=values["drone.width"]))
    kernel = build("kernel", lambda: KernelParams(
        drone_width=values["drone.width"],
        outer_band_px=values["kernel.outer_band"],
        depth_epsilon=values["kernel.epsilon"],
        max_inner_px=values["kernel.max_inner"],
        inner_skip_empty=values["kernel.skip_empty_inner"]))
    projection = build("projection", lambda: ProjectionParams(
        resolution=values["projection.resolution"],
        half_fov=np.deg2rad(values["projection.fov_deg"] / 2.0),
        view_direction=tuple(values["projection.view_direction"])))
    meanshift = build("meanshift", lambda: MeanShiftParams(
        radius=values["meanshift.radius"],
        iterations=values["meanshift.iterations"],
        bandwidth=values["meanshift.bandwidth"],
        track_iterations=values["meanshift.track_iterations"],
        miss_limit=values["meanshift.miss_limit"]))
    if values["lidar.beam_count"] < 2:
        raise ScenarioError("lidar.beam_count: need at least 2 beams")
    span = np.deg2rad(values["lidar.elevation_span_deg"])
    lidar = build("lidar", lambda: LidarModel(
        beam_elevations=np.linspace(-span / 2.0, span / 2.0, values["lidar.beam_count"]),
        azimuth_step=np.deg2rad(values["lidar.azimuth_step_deg"]),
        range_noise=values["lidar.range_noise"],
        max_range=values["lidar.max_range"],
        points_per_second=values["lidar.points_per_second"]))
    obs = build("observation", lambda: IndirectObsModel(
        vd_noise=np.deg2rad(values["observation.vd_noise_deg"]),
        ego_noise=np.deg2rad(values["observation.ego_noise_deg"]),
        scramble=values["observation.scramble"]))
    if values["motor.sweep_rpm"] <= 0.0:
        raise ScenarioError("motor.sweep_rpm: must be > 0")
    if values["motor.vibration_amplitude_deg"] <= 0.0:
        raise ScenarioError("motor.vibration_amplitude_deg: must be > 0")
    if values["motor.vibration_period"] <= 0.0:
        raise ScenarioError("motor.vibration_period: must be > 0")
    for key in ("motion.window", "motion.frame_gap"):
        if values[key] < 1:
            raise ScenarioError(f"{key}: must be >= 1")
    if values["motion.min_distance"] <= 0.0:
        raise ScenarioError("motion.min_distance: must be > 0")

    trajectories = Trajectories(
        drone=_waypoints_to_trajectory(drone_wp, values["duration"], "drone.waypoint"),
        vehicle=_waypoints_to_trajectory(vehicle_wp, values["duration"], "vehicle.waypoint"),
    )

    return Scenario(
        seed=values["seed"],
        duration=values["duration"],
        drone=drone,
        kernel=kernel,
        projection=projection,
        meanshift=meanshift,
        lidar=lidar,
        sweep_rpm=values["motor.sweep_rpm"],
        vibration_amplitude=np.deg2rad(values["motor.vibration_amplitude_deg"]),
        vibration_period=values["motor.vibration_period"],
        obs=obs,
        initial_rotation=euler_to_rotation(*np.deg2rad(values["rotation.initial_rpy_deg"])),
        max_rotation_rate=np.deg2rad(values["rotation.max_rate_deg"]),
        motion_window=values["motion.window"],
        motion_frame_gap=values["motion.frame_gap"],
        motion_cone=np.deg2rad(values["motion.cone_deg"]),
        motion_min_distance=values["motion.min_distance"],
        primitives=primitives,
        trajectories=trajectories,
        resolved=resolved,
    )


def load_scenario(path, overrides=None, seed=None) -> Scenario:
    """Parse and validate a scenario file, with optional key overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    raw = _collect_raw(text, str(path))
    seed_override = {} if seed is None else {"seed": seed}
    for key, value in {**(overrides or {}), **seed_override}.items():
        key, value = str(key).strip(), str(value).strip()
        if not key or not value:
            raise ScenarioError(f"override '{key}={value}': empty key or value")
        if key not in _SCHEMA and not _INDEXED.match(key):
            raise ScenarioError(f"override '{key}={value}': unknown key {key!r}")
        raw[key] = value
    return _build_scenario(raw)


@dataclass
class RunRecord:
    """Per-frame estimates aligned with ground truth for one run."""

    times: np.ndarray
    est_positions: np.ndarray
    truth_positions: np.ndarray
    est_rotations: np.ndarray
    truth_rotations: np.ndarray
    status: list
    corrected: np.ndarray
    k_init: int | None = None
    acquisition_time: float | None = None
    reacquisitions: int = 0
    frame_compute_times: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class _VibrationInputs:
    """One vibration frame as the vehicle senses it, plus the truth to score it."""

    scan: ScanFrame
    t_mid: float
    start: Pose                    # vehicle pose at the frame start, the scan's frame
    vehicle: Pose                  # vehicle pose at the frame midpoint
    vehicle_vds: np.ndarray
    drone_vds: np.ndarray
    ego: np.ndarray | None         # drone's own motion direction over the frame gap
    truth_position: np.ndarray
    truth_rotation: np.ndarray


class _SimSource:
    """The simulated sensor: owns the RNG, the scene, the trajectories and the clock.

    A vibration frame draws scan noise, vehicle VDs, drone VDs, then the ego
    direction: on request, once ``motion_frame_gap`` earlier frames exist.
    """

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.rng = np.random.default_rng(scenario.seed)
        self.scene = Scene(scenario.primitives, seed=scenario.seed)
        self.sweep_omega = scenario.sweep_rpm * 2.0 * np.pi / 60.0
        self.t = 0.0
        self.mid_times = deque(maxlen=scenario.motion_frame_gap + 1)

    def sweep(self) -> ScanFrame | None:
        """The next full acquisition sweep, or None when it would pass the duration."""
        sweep_duration = np.pi / self.sweep_omega
        if self.t + sweep_duration > self.sc.duration + 1e-9:
            return None
        scan = simulate_full_scan(self.scene, self.sc.trajectories, self.sc.lidar,
                                  self.sweep_omega, self.t, drone=self.sc.drone, rng=self.rng)
        self.t += sweep_duration
        return scan

    def vibration(self, azimuth: float, want_ego: bool) -> _VibrationInputs | None:
        """The next vibration frame centred on ``azimuth``, or None past the duration."""
        sc, traj, period = self.sc, self.sc.trajectories, self.sc.vibration_period
        if self.t + period > sc.duration + 1e-9:
            return None
        t_start, t_mid = self.t, self.t + period / 2.0
        scan = simulate_vibration_frame(self.scene, traj, sc.lidar, azimuth,
                                        sc.vibration_amplitude, period, t_start,
                                        drone=sc.drone, rng=self.rng)
        self.t += period
        self.mid_times.append(t_mid)
        start, vehicle = traj.vehicle.pose_at(t_start), traj.vehicle.pose_at(t_mid)
        drone_pose = traj.drone.pose_at(t_mid)
        v_vehicle = observe_vds(vehicle, sc.obs, self.rng)
        v_drone = observe_vds(drone_pose, sc.obs, self.rng)
        ego = None
        if want_ego and len(self.mid_times) > sc.motion_frame_gap:
            with contextlib.suppress(ValueError):   # no motion over the gap
                ego = observe_ego_direction(traj.drone.pose_at(self.mid_times[0]), drone_pose,
                                            sigma=sc.obs.ego_noise, rng=self.rng)
        return _VibrationInputs(
            scan, t_mid, start, vehicle, v_vehicle, v_drone, ego,
            truth_position=start.rotation.T @ (traj.drone.position_at(t_mid) - start.translation),
            truth_rotation=vehicle.rotation.T @ traj.drone.rotation_at(t_mid))


class _Estimator:
    """The per-frame estimator: mean-shift tracking, VD rotation, heading repair.

    Stages are called through this module's names (``acquire``, ``track_step``,
    ``match_vds``, ...), so that a profiler rebinding those names sees every call.
    """

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.track: TrackState | None = None
        self.rot = RotationFilterState(orthonormalize(scenario.initial_rotation),
                                       max_rate=scenario.max_rotation_rate, last_time=0.0)
        self.motion = MotionAccumulator(
            window=scenario.motion_window, frame_gap=scenario.motion_frame_gap,
            cone=scenario.motion_cone, min_distance=scenario.motion_min_distance)
        # World positions of the latest frames: all that accumulate_motion reads.
        self.world = deque(maxlen=scenario.motion_frame_gap + 1)
        self.frames = 0
        self.corrected = False
        self.k_init: int | None = None

    def acquire(self, scan) -> bool:
        """Lock on a full sweep; False when the detector finds no candidate."""
        try:
            self.track = acquire(scan, self.sc.projection, self.sc.kernel, self.sc.meanshift)
        except NoCandidatesError:
            self.track = None
        return self.track is not None

    def step(self, inputs: _VibrationInputs) -> None:
        """Track, update the rotation, and try the heading repair for one frame."""
        self.track = track_step(self.track, inputs.scan, self.sc.meanshift)
        self.world.append(inputs.start.rotation @ self.track.position + inputs.start.translation)
        try:
            match = match_vds(inputs.vehicle_vds, inputs.drone_vds, self.rot.rotation)
            measured = estimate_rotation(inputs.vehicle_vds, match.apply(inputs.drone_vds),
                                         match.residuals)
        except ValueError:
            pass    # ambiguous match or degenerate directions: keep the prior
        else:
            self.rot = filter_rotation(self.rot, measured, inputs.t_mid)
        if not self.corrected:
            emission = accumulate_motion(self.motion, self.world, inputs.ego,
                                         inputs.vehicle.rotation, self.rot.rotation)
            if emission is not None:
                try:
                    fixed = correct_rotation(self.rot.rotation, inputs.vehicle.rotation, *emission)
                except ValueError:
                    pass
                else:
                    self.rot = replace(self.rot, rotation=orthonormalize(fixed))
                    self.corrected, self.k_init = True, self.frames
        self.frames += 1


def run(scenario: Scenario) -> RunRecord:
    """Execute one scenario end to end; deterministic for a given seed.

    The simulated sensor feeds the estimator; only the estimator step is timed.
    """
    source, est = _SimSource(scenario), _Estimator(scenario)
    rows, lock_times = [], []
    while True:
        if est.track is None or est.track.status == "lost":
            scan = source.sweep()
            if scan is None:
                break
            if est.acquire(scan):
                lock_times.append(source.t)
            continue
        inputs = source.vibration(est.track.pointing_azimuth, want_ego=not est.corrected)
        if inputs is None:
            break
        tic = _time.perf_counter()
        est.step(inputs)
        elapsed = _time.perf_counter() - tic
        rows.append((inputs.t_mid, est.track.position, inputs.truth_position, est.rot.rotation,
                     inputs.truth_rotation, est.track.status, est.corrected, elapsed))
    cols = list(zip(*rows)) or [()] * 8
    return RunRecord(
        times=np.asarray(cols[0]),
        est_positions=np.asarray(cols[1]).reshape(-1, 3),
        truth_positions=np.asarray(cols[2]).reshape(-1, 3),
        est_rotations=np.asarray(cols[3]).reshape(-1, 3, 3),
        truth_rotations=np.asarray(cols[4]).reshape(-1, 3, 3),
        status=list(cols[5]),
        corrected=np.asarray(cols[6], dtype=bool),
        k_init=est.k_init,
        acquisition_time=lock_times[0] if lock_times else None,
        reacquisitions=max(len(lock_times) - 1, 0),
        frame_compute_times=np.asarray(cols[7]),
    )


@dataclass
class MetricsReport:
    """Per-axis RMSE summary of one run."""

    pos_rmse: np.ndarray | None        # m, (x, y, z) over locked frames
    rot_rmse_deg: np.ndarray | None    # deg, (rx, ry, rz) after the correction
    rot_whole_run: bool                # no correction fired; angles cover the run
    acquisition_time: float | None
    mean_frame_time: float | None      # s, estimator step only, no simulation
    n_frames: int
    n_locked: int
    k_init: int | None
    reacquisitions: int

    def as_dict(self) -> dict:
        """metrics.txt name -> value text, in file order; missing values read 'absent'."""
        def fmt(v):
            return "absent" if v is None else repr(float(v))

        out = {f"{name}_{label}": fmt(None if arr is None else arr[axis])
               for name, arr in (("pos_rmse", self.pos_rmse), ("rot_rmse_deg", self.rot_rmse_deg))
               for axis, label in enumerate(("x", "y", "z"))}
        return {**out,
                "rot_whole_run": "true" if self.rot_whole_run else "false",
                "acquisition_time": fmt(self.acquisition_time),
                "mean_frame_time": fmt(self.mean_frame_time),
                "n_frames": str(self.n_frames),
                "n_locked": str(self.n_locked),
                "k_init": "absent" if self.k_init is None else str(self.k_init),
                "reacquisitions": str(self.reacquisitions)}

    def to_text(self) -> str:
        return "".join(f"{name} = {value}\n" for name, value in self.as_dict().items())


def _wrap_degrees(diff):
    wrapped = (np.asarray(diff) + 180.0) % 360.0 - 180.0
    return np.where(wrapped == -180.0, 180.0, wrapped)


def _euler_deg(rotations) -> np.ndarray:
    """``euler_xyz`` in degrees; at gimbal lock rz = 0 and rx takes the coupled angle."""
    angles = []
    for r in rotations:
        try:
            angles.append(euler_xyz(r))
        except GimbalLockError:
            angles.append((np.arctan2(-r[1, 2], r[1, 1]),
                           np.arctan2(-r[2, 0], np.hypot(r[0, 0], r[1, 0])), 0.0))
    return np.rad2deg(np.array(angles, dtype=float)).reshape(-1, 3)


def compute_metrics(record: RunRecord) -> MetricsReport:
    """Position RMSE over locked frames; angle RMSE after the yaw correction.

    When no correction fired the angle RMSE covers the whole run and is
    flagged; angle residuals wrap to (-180, 180] degrees.
    """
    locked = np.array([s == "locked" for s in record.status], dtype=bool)
    n_locked = int(locked.sum())
    pos_rmse = None
    if n_locked:
        resid = record.est_positions[locked] - record.truth_positions[locked]
        pos_rmse = np.sqrt(np.mean(resid ** 2, axis=0))

    start = record.k_init if record.k_init is not None else 0
    rot_rmse = None
    if len(record.times) > start:
        est = _euler_deg(record.est_rotations[start:])
        truth = _euler_deg(record.truth_rotations[start:])
        diff = _wrap_degrees(est - truth)
        rot_rmse = np.sqrt(np.mean(diff ** 2, axis=0))

    mean_frame = (float(np.mean(record.frame_compute_times))
                  if len(record.frame_compute_times) else None)
    return MetricsReport(
        pos_rmse=pos_rmse,
        rot_rmse_deg=rot_rmse,
        rot_whole_run=record.k_init is None,
        acquisition_time=record.acquisition_time,
        mean_frame_time=mean_frame,
        n_frames=len(record.times),
        n_locked=n_locked,
        k_init=record.k_init,
        reacquisitions=record.reacquisitions,
    )


CSV_HEADER = ("time,est_x,est_y,est_z,truth_x,truth_y,truth_z,"
              "est_rx_deg,est_ry_deg,est_rz_deg,truth_rx_deg,truth_ry_deg,truth_rz_deg,"
              "status,corrected")


def record_to_csv(record: RunRecord) -> str:
    """Trajectory table; floats use shortest round-trip formatting."""
    est_euler = _euler_deg(record.est_rotations) if len(record.times) else np.empty((0, 3))
    truth_euler = _euler_deg(record.truth_rotations) if len(record.times) else np.empty((0, 3))
    lines = [CSV_HEADER]
    for i in range(len(record.times)):
        vals = [record.times[i], *record.est_positions[i], *record.truth_positions[i],
                *est_euler[i], *truth_euler[i]]
        cells = [repr(float(v)) for v in vals]
        cells.append(record.status[i])
        cells.append(str(int(record.corrected[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def record_from_csv(path) -> RunRecord:
    """Rebuild a record from an exported trajectory table.

    Timing fields are not stored in the table, so acquisition time and
    per-frame compute times come back absent.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ScenarioError(f"{path}: not a trajectory table (bad header)")
    times, est_p, truth_p, est_r, truth_r, status, flags = [], [], [], [], [], [], []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 15:
            raise ScenarioError(f"{path}:{lineno}: malformed row {line!r}")
        try:
            nums = [float(c) for c in cells[:13]]
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: {exc}") from None
        if cells[13] not in ("locked", "lost") or cells[14] not in ("0", "1"):
            raise ScenarioError(f"{path}:{lineno}: expected status locked/lost and flag 0/1, "
                                f"not {cells[13]!r}, {cells[14]!r}")
        times.append(nums[0])
        est_p.append(nums[1:4])
        truth_p.append(nums[4:7])
        est_r.append(euler_to_rotation(*np.deg2rad(nums[7:10])))
        truth_r.append(euler_to_rotation(*np.deg2rad(nums[10:13])))
        status.append(cells[13])
        flags.append(cells[14] == "1")
    flags = np.asarray(flags, dtype=bool)
    k_init = int(np.argmax(flags)) if flags.any() else None
    n = len(times)
    return RunRecord(
        times=np.asarray(times),
        est_positions=np.asarray(est_p).reshape(n, 3),
        truth_positions=np.asarray(truth_p).reshape(n, 3),
        est_rotations=np.asarray(est_r).reshape(n, 3, 3),
        truth_rotations=np.asarray(truth_r).reshape(n, 3, 3),
        status=status,
        corrected=flags,
        k_init=k_init,
    )


def export(record: RunRecord, report: MetricsReport, out_dir, scenario: Scenario) -> dict:
    """Write trajectory.csv, metrics.txt and the resolved scenario echo."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trajectory": os.path.join(out_dir, "trajectory.csv"),
        "metrics": os.path.join(out_dir, "metrics.txt"),
        "scenario": os.path.join(out_dir, "scenario.txt"),
    }
    try:
        with open(paths["trajectory"], "w", encoding="utf-8") as fh:
            fh.write(record_to_csv(record))
        with open(paths["metrics"], "w", encoding="utf-8") as fh:
            fh.write(report.to_text())
        with open(paths["scenario"], "w", encoding="utf-8") as fh:
            fh.write(scenario.echo_text())
    except OSError as exc:
        raise ScenarioError(f"cannot write outputs under {out_dir}: {exc}") from None
    return paths
