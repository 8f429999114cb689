"""Run records, their metrics and the exported files.

A run produces per-frame rows (time, estimated and true drone position
in the vehicle camera frame, estimated and true relative orientation
as extrinsic-XYZ angles in degrees, tracking status, correction flag),
plus a metrics summary and the resolved scenario echo.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geom import euler_to_rotation, euler_xyz, rotation_angle
from .scenario import Scenario, ScenarioError


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
    acquisition_time: float | None = None
    reacquisitions: int = 0
    frame_compute_times: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def k_init(self) -> int | None:
        """Row of the heading repair: the first corrected row, or None."""
        hits = np.flatnonzero(self.corrected)
        return int(hits[0]) if len(hits) else None


@dataclass
class MetricsReport:
    """Per-axis and geodesic RMSE summary of one run."""

    pos_rmse: np.ndarray | None        # m, (x, y, z) over locked frames
    rot_rmse_deg: np.ndarray | None    # deg, (rx, ry, rz) after the correction
    rot_geodesic_rmse_deg: float | None  # deg, angle of est^T truth, same rows
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
                "rot_geodesic_rmse_deg": fmt(self.rot_geodesic_rmse_deg),
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
    """``euler_xyz`` of each rotation, in degrees, as an (n, 3) array."""
    return np.rad2deg(np.array([euler_xyz(r) for r in rotations], dtype=float)).reshape(-1, 3)


def compute_metrics(record: RunRecord) -> MetricsReport:
    """Position RMSE over locked frames; angle RMSE after the yaw correction.

    When no correction fired the angle RMSE covers the whole run and is
    flagged; angle residuals wrap to (-180, 180] degrees. The geodesic RMSE
    covers the same rows, from the angle of each row's est^T truth.
    """
    locked = np.array([s == "locked" for s in record.status], dtype=bool)
    n_locked = int(locked.sum())
    pos_rmse = None
    if n_locked:
        resid = record.est_positions[locked] - record.truth_positions[locked]
        pos_rmse = np.sqrt(np.mean(resid ** 2, axis=0))

    k_init = record.k_init
    start = k_init if k_init is not None else 0
    rot_rmse = rot_geodesic = None
    if len(record.times) > start:
        est = _euler_deg(record.est_rotations[start:])
        truth = _euler_deg(record.truth_rotations[start:])
        diff = _wrap_degrees(est - truth)
        rot_rmse = np.sqrt(np.mean(diff ** 2, axis=0))
        # One angle per row, defined at gimbal lock where the Euler angles are not.
        angles = [rotation_angle(e.T @ t) for e, t in
                  zip(record.est_rotations[start:], record.truth_rotations[start:])]
        rot_geodesic = float(np.rad2deg(np.sqrt(np.mean(np.square(angles)))))

    mean_frame = (float(np.mean(record.frame_compute_times))
                  if len(record.frame_compute_times) else None)
    return MetricsReport(
        pos_rmse=pos_rmse,
        rot_rmse_deg=rot_rmse,
        rot_geodesic_rmse_deg=rot_geodesic,
        rot_whole_run=k_init is None,
        acquisition_time=record.acquisition_time,
        mean_frame_time=mean_frame,
        n_frames=len(record.times),
        n_locked=n_locked,
        k_init=k_init,
        reacquisitions=record.reacquisitions,
    )


CSV_HEADER = ("time,est_x,est_y,est_z,truth_x,truth_y,truth_z,"
              "est_rx_deg,est_ry_deg,est_rz_deg,truth_rx_deg,truth_ry_deg,truth_rz_deg,"
              "status,corrected")


def record_to_csv(record: RunRecord) -> str:
    """Trajectory table; floats use shortest round-trip formatting."""
    est_euler, truth_euler = _euler_deg(record.est_rotations), _euler_deg(record.truth_rotations)
    lines = [CSV_HEADER]
    for i in range(len(record.times)):
        vals = [record.times[i], *record.est_positions[i], *record.truth_positions[i],
                *est_euler[i], *truth_euler[i]]
        cells = [repr(float(v)) for v in vals] + [record.status[i], str(int(record.corrected[i]))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _finite(cell):
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {cell!r}")
    return value


def record_from_csv(path) -> RunRecord:
    """Rebuild a record from an exported trajectory table.

    Timing fields are not stored in the table, so acquisition time and
    per-frame compute times come back absent. Raises ScenarioError on a bad
    row, and on a table whose position RMSE would overflow.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    if not lines or lines[0][1] != CSV_HEADER:
        raise ScenarioError(f"{path}: not a trajectory table (bad header)")
    times, est_p, truth_p, est_r, truth_r, status, flags = [], [], [], [], [], [], []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 15:
            raise ScenarioError(f"{path}:{lineno}: malformed row {line!r}")
        try:
            nums = [_finite(c) for c in cells[:13]]
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: {exc}") from None
        if cells[13] not in ("locked", "lost") or cells[14] not in ("0", "1"):
            raise ScenarioError(f"{path}:{lineno}: expected status locked/lost and flag 0/1, "
                                f"not {cells[13]!r}, {cells[14]!r}")
        for k, axis in enumerate("xyz", start=1) if cells[13] == "locked" else ():
            resid = nums[k] - nums[k + 3]   # compute_metrics' bits; Python floats never warn
            if not math.isfinite(resid * resid):
                raise ScenarioError(f"{path}:{lineno}: est_{axis} {cells[k]!r} against "
                                    f"truth_{axis} {cells[k + 3]!r}: the squared position "
                                    "residual overflows")
        times.append(nums[0])
        est_p.append(nums[1:4])
        truth_p.append(nums[4:7])
        est_r.append(euler_to_rotation(*np.deg2rad(nums[7:10])))
        truth_r.append(euler_to_rotation(*np.deg2rad(nums[10:13])))
        status.append(cells[13])
        flags.append(cells[14] == "1")
    n = len(times)
    est_p, truth_p = np.asarray(est_p).reshape(n, 3), np.asarray(truth_p).reshape(n, 3)
    locked = np.array([s == "locked" for s in status], dtype=bool)
    with np.errstate(over="ignore"):    # the sum that compute_metrics' mean takes
        sums = np.add.reduce((est_p[locked] - truth_p[locked]) ** 2, axis=0)
    if not np.isfinite(sums).all():
        axis = "xyz"[int(np.argmin(np.isfinite(sums)))]
        raise ScenarioError(f"{path}: the squared {axis} position residuals of the "
                            "locked rows overflow their sum")
    return RunRecord(
        times=np.asarray(times),
        est_positions=est_p,
        truth_positions=truth_p,
        est_rotations=np.asarray(est_r).reshape(n, 3, 3),
        truth_rotations=np.asarray(truth_r).reshape(n, 3, 3),
        status=status,
        corrected=np.asarray(flags, dtype=bool),
    )


def export(record: RunRecord, report: MetricsReport, out_dir, scenario: Scenario) -> dict:
    """Write trajectory.csv, metrics.txt and the resolved scenario echo."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trajectory": os.path.join(out_dir, "trajectory.csv"),
        "metrics": os.path.join(out_dir, "metrics.txt"),
        "scenario": os.path.join(out_dir, "scenario.txt"),
    }
    texts = {"trajectory": record_to_csv(record), "metrics": report.to_text(),
             "scenario": scenario.echo_text()}
    try:
        for name, path in paths.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(texts[name])
    except OSError as exc:
        raise ScenarioError(f"cannot write outputs under {out_dir}: {exc}") from None
    return paths
