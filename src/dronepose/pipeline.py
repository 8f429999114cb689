"""The run loop: a simulated sensor source feeds the per-frame estimator."""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .geom import Pose, orthonormalize
from .report import RunRecord
from .scan_sim import (
    ScanFrame,
    Scene,
    observe_ego_direction,
    observe_vds,
    simulate_full_scan,
    simulate_vibration_frame,
)
from .scenario import Scenario
from .tracker import TrackState, acquire, track_step
from .vp_rot import (
    MotionAccumulator,
    RotationFilterState,
    accumulate_motion,
    correct_rotation,
    estimate_rotation,
    filter_rotation,
    match_vds,
)

# perfbench looks up and wraps these names on this module (tracing.WRAPPED, workloads.run_op).
from .report import compute_metrics, export, record_to_csv  # noqa: F401
from .scenario import load_scenario, parse_scenario  # noqa: F401


@dataclass
class _VibrationInputs:
    """One vibration frame as the vehicle senses it, plus the truth to score it."""

    scan: ScanFrame
    t_mid: float
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
        self.drone_poses = deque(maxlen=scenario.motion_frame_gap + 1)   # at frame midpoints

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
        start, vehicle = scan.pose, traj.vehicle.pose_at(t_mid)
        drone_pose = traj.drone.pose_at(t_mid)
        self.drone_poses.append(drone_pose)
        v_vehicle = observe_vds(vehicle, sc.obs, self.rng)
        v_drone = observe_vds(drone_pose, sc.obs, self.rng)
        ego = None
        if want_ego and len(self.drone_poses) > sc.motion_frame_gap:
            ego = observe_ego_direction(self.drone_poses[0], drone_pose,
                                        sigma=sc.obs.ego_noise, rng=self.rng)
        return _VibrationInputs(
            scan, t_mid, vehicle, v_vehicle, v_drone, ego,
            truth_position=start.rotation.T @ (drone_pose.translation - start.translation),
            truth_rotation=vehicle.rotation.T @ drone_pose.rotation)


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
        self.corrected = False

    def acquire(self, scan) -> bool:
        """Lock on a full sweep; False when there is nothing to lock on."""
        self.track = acquire(scan, self.sc.projection, self.sc.kernel, self.sc.meanshift)
        return self.track is not None

    def step(self, inputs: _VibrationInputs) -> None:
        """Track, update the rotation, and try the heading repair for one frame."""
        self.track = track_step(self.track, inputs.scan, self.sc.meanshift)
        try:
            match = match_vds(inputs.vehicle_vds, inputs.drone_vds, self.rot.rotation)
            measured = estimate_rotation(inputs.vehicle_vds, match.apply(inputs.drone_vds),
                                         match.residuals)
        except ValueError:
            pass    # ambiguous match or degenerate directions: keep the prior
        else:
            self.rot = filter_rotation(self.rot, measured, inputs.t_mid)
        if not self.corrected:
            start = inputs.scan.pose
            world = start.rotation @ self.track.position + start.translation
            emission = accumulate_motion(self.motion, world, inputs.ego,
                                         inputs.vehicle.rotation, self.rot.rotation)
            if emission is not None:
                try:
                    fixed = correct_rotation(self.rot.rotation, inputs.vehicle.rotation, *emission)
                except ValueError:
                    pass
                else:
                    self.rot = replace(self.rot, rotation=orthonormalize(fixed))
                    self.corrected = True


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
        acquisition_time=lock_times[0] if lock_times else None,
        reacquisitions=max(len(lock_times) - 1, 0),
        frame_compute_times=np.asarray(cols[7]),
    )
