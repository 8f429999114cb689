"""Scenario files: the schema, parsing and range checks.

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

The resolved scenario echoes every key, defaults included, and reloads
to an identical run.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .detector import KernelParams
from .depth_image import ProjectionParams
from .geom import euler_to_rotation
from .scan_sim import (
    DroneModel,
    IndirectObsModel,
    LidarModel,
    ScenePrimitive,
    Trajectories,
    TrajectorySpec,
)
from .tracker import MeanShiftParams


class ScenarioError(ValueError):
    """Scenario file could not be parsed or validated."""


# key -> (type tag, default text or None when required, range rule). A rule is
# "<op> <bound>", the bound a number or a key listed above it. None: any value
# of the type, or the component that receives the value checks its range. A
# rule bound by a key is checked once that key's component has accepted it.
_SCHEMA = {
    "schema_version": ("int", None, "== 1"),
    "seed": ("int", None, ">= 0"),
    "duration": ("float", "30.0", "> 0"),
    "drone.width": ("float", "0.5", None),
    "projection.resolution": ("int", "512", "<= 1024"),
    "projection.fov_deg": ("float", "120.0", None),
    "projection.view_direction": ("vec3", "0 0 1", None),
    "kernel.outer_band": ("int", "20", "<= projection.resolution"),
    "kernel.epsilon": ("float", "0.1", None),
    "kernel.max_inner": ("int", "101", None),
    "kernel.skip_empty_inner": ("bool", "false", None),
    "meanshift.radius": ("float", "1.0", None),
    "meanshift.iterations": ("int", "10", "<= 1000"),
    "meanshift.bandwidth": ("float", "1.0", None),
    "meanshift.track_iterations": ("int", "3", "<= 1000"),
    "meanshift.miss_limit": ("int", "5", None),
    "lidar.beam_count": ("int", "16", None),
    "lidar.elevation_span_deg": ("float", "30.0", None),
    "lidar.azimuth_step_deg": ("float", "0.2", None),
    "lidar.range_noise": ("float", "0.0", None),
    "lidar.max_range": ("float", "100.0", None),
    "lidar.points_per_second": ("float", "300000.0", None),
    "motor.sweep_rpm": ("float", "11.4", "> 0"),
    "motor.vibration_amplitude_deg": ("float", "5.0", "> 0"),
    "motor.vibration_period": ("float", "0.12", "> 0"),
    "observation.vd_noise_deg": ("float", "0.0", None),
    "observation.ego_noise_deg": ("float", "0.0", None),
    "observation.scramble": ("bool", "true", None),
    "rotation.initial_rpy_deg": ("vec3", "0 0 0", None),
    "rotation.max_rate_deg": ("float", "20.0", ">= 0"),
    "motion.window": ("int", "7", ">= 1"),
    "motion.frame_gap": ("int", "14", ">= 1"),
    "motion.cone_deg": ("float", "30.0", "> 0"),
    "motion.min_distance": ("float", "1.0", "> 0"),
}

MAX_CAST_POINTS = 1e7      # rays one sweep or vibration frame may cast

_SCENE_FIELDS = {
    "kind": ("str", None, None),
    "center": ("vec3", None, None),
    "dimensions": ("vec3", "1 1 1", None),
    "count": ("int", "0", None),
    "scatter_radius": ("float", "0.0", None),
}

_WAYPOINT_FIELDS = {
    "time": ("float", None, None),
    "position": ("vec3", None, None),
    "rpy_deg": ("vec3", "0 0 0", None),
}

_INDEXED = re.compile(
    r"^(scene|drone\.waypoint|vehicle\.waypoint)\.(\d+)\.([a-z_]+)$")

_OPS = {"==": operator.eq, ">=": operator.ge, ">": operator.gt, "<=": operator.le}


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


def _admit(key: str, value: str, where: str) -> None:
    """Reject an empty key or value, or a key that is not in the schema."""
    if not key or not value:
        raise ScenarioError(f"{where}: empty key or value")
    if key not in _SCHEMA and not _INDEXED.match(key):
        raise ScenarioError(f"{where}: unknown key {key!r}")


def _collect_raw(text: str, source: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        _admit(key, value, f"{source}:{lineno}")
        if key in raw:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _resolve(raw: dict, prefix: str, fields: dict, resolved: dict) -> dict:
    """Convert, default, range-check and echo each ``prefix + name`` of ``fields``;
    a rule bound by another key waits until the components are built."""
    values = {}
    for name, (kind, default, rule) in fields.items():
        key = prefix + name
        if key not in raw and default is None:
            raise ScenarioError(f"{key}: required key missing (seeds are mandatory)"
                                if key == "seed" else f"{key}: required key missing")
        values[name] = _convert(key, kind, raw.get(key, default))
        if rule is not None and rule.partition(" ")[2] not in fields:
            _check_rule(key, values[name], rule, values)
        resolved[key] = _canonical(kind, values[name])
    return values


def _check_rule(key: str, value, rule: str, values: dict) -> None:
    """Raise unless ``key``'s ``value`` meets ``rule``; a key bound is read from ``values``."""
    op, _, bound = rule.partition(" ")
    limit = values[bound] if bound in values else float(bound)
    if not _OPS[op](value, limit):
        raise ScenarioError(f"{key}: must be {rule}, got {value!r}")


def _indexed_group(raw: dict, prefix: str, fields: dict, resolved: dict) -> list:
    indices = set()
    for key in raw:
        m = _INDEXED.match(key)
        if m and m.group(1) == prefix:
            if m.group(3) not in fields:
                raise ScenarioError(f"{key}: unknown field {m.group(3)!r}")
            indices.add(int(m.group(2)))
    if sorted(indices) != list(range(len(indices))):
        raise ScenarioError(f"{prefix}: indices must be contiguous from 0")
    return [_resolve(raw, f"{prefix}.{i}.", fields, resolved) for i in range(len(indices))]


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
    values = _resolve(raw, "", _SCHEMA, resolved)
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
    # Rules bound by a key, now that every component has accepted its values.
    for key, (_, _, rule) in _SCHEMA.items():
        if rule is not None and rule.partition(" ")[2] in _SCHEMA:
            _check_rule(key, values[key], rule, values)
    # A sweep (pi / omega) or frame shorter than one firing casts nothing and can stop the
    # clock; one holding more than MAX_CAST_POINTS rays runs too long and too large.
    period = values["motor.vibration_period"]
    for key, what, seconds in (("motor.sweep_rpm", "sweep", 30.0 / values["motor.sweep_rpm"]),
                               ("motor.vibration_period", "frame", period)):
        if seconds < lidar.firing_interval:
            raise ScenarioError(f"{key}: a {what} of {seconds!r} s is shorter than one lidar "
                                f"firing ({lidar.firing_interval!r} s)")
        if seconds * lidar.points_per_second > MAX_CAST_POINTS:
            raise ScenarioError(f"lidar.points_per_second: a {what} of {seconds!r} s ({key}) "
                                f"would cast more than {MAX_CAST_POINTS:.0f} points")

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
        _admit(key, value, f"override '{key}={value}'")
        raw[key] = value
    return _build_scenario(raw)
