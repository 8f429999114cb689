"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines. The end-to-end criteria use purpose-built scenarios sized for a
desk machine; sensor timing is measured and reported, never gated.
"""

import time

import numpy as np
import pytest

from dronepose.depth_image import DepthImage, ProjectionParams
from dronepose.detector import KernelParams, detect
from dronepose.geom import rotation_angle, rotation_about_axis
from dronepose.pipeline import run
from dronepose.report import compute_metrics, export
from dronepose.scenario import parse_scenario
from dronepose.tracker import MeanShiftParams, mean_shift_refine
from dronepose.vp_rot import AmbiguousMatchError, match_vds
from conftest import manhattan_scenario_text
from oracles import oracle_detect, oracle_match, oracle_mean_shift


def verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- scenarios shared between criteria -------------------------------------

# Compact target and a dense beam fan: with zero sensor noise the
# residual error is quantization (body extent, beam spacing, pixel grid).
NOISELESS_TEXT = manhattan_scenario_text(
    seed=21,
    duration=16.0,
    drone_width=0.15,
    points_per_second=400000.0,
    drone_waypoints=[
        (0.0, "2 1.5 11", "0 0 0"),
        (3.0, "2 1.5 11", "0 0 0"),
        (16.0, "4.5 5.5 12", "0 0 0"),
    ],
    extra="lidar.beam_count = 32\nmotor.vibration_amplitude_deg = 10.0",
)


@pytest.fixture(scope="module")
def noiseless_run():
    return run(parse_scenario(NOISELESS_TEXT))


def rotation_scenario_text(seed, yaw_offset_deg, range_noise, vd_noise_deg,
                           ego_noise_deg, duration=12.5):
    return manhattan_scenario_text(
        seed=seed,
        duration=duration,
        drone_width=0.5,
        range_noise=range_noise,
        vd_noise_deg=vd_noise_deg,
        ego_noise_deg=ego_noise_deg,
        initial_rpy_deg=f"0 0 {yaw_offset_deg}",
        points_per_second=150000.0,
        sweep_rpm=22.8,
        scene="light",
        drone_waypoints=[
            (0.0, "2 1.5 11", "0 0 0"),
            (2.0, "2 1.5 11", "0 0 0"),
            (duration, f"2 {1.5 + 1.3 * (duration - 2.0):.3f} "
                       f"{11 + 0.1 * (duration - 2.0):.3f}", "0 0 0"),
        ],
    )


# --- criterion 1: detector oracle equivalence -------------------------------

@pytest.mark.exact("detector.detect")
def test_criterion_1_detector_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    checked = 0
    for trial in range(200):
        n = int(rng.integers(32, 65)) * 2          # even, 64..128
        n_pts = int(rng.integers(20, 350)) if trial % 10 else int(rng.integers(350, 501))
        data = np.zeros((n, n))
        us = rng.integers(0, n, n_pts)
        vs = rng.integers(0, n, n_pts)
        data[vs, us] = rng.uniform(2.0, 60.0, n_pts)
        if trial % 3 == 0:
            # add a dense square patch so inner regions also see structure
            cu, cv = rng.integers(8, n - 8, 2)
            data[cv - 2: cv + 3, cu - 2: cu + 3] = rng.uniform(2.0, 60.0)
        img = DepthImage(data)
        proj = ProjectionParams(resolution=n,
                                half_fov=np.deg2rad(float(rng.choice([30, 45, 60]))))
        params = KernelParams(
            drone_width=float(rng.choice([0.25, 0.5, 1.0])),
            outer_band_px=20 if trial % 10 == 0 else int(rng.integers(2, 9)),
            depth_epsilon=float(rng.choice([0.05, 0.1, 0.5])),
        )
        det = detect(img, params, proj)
        oracle_pixel, oracle_e = oracle_detect(img, params, proj)
        assert det.pixel == oracle_pixel, f"argmin mismatch on image {trial}"
        assert det.dissimilarity == oracle_e, f"score mismatch on image {trial}"
        checked += 1
    elapsed = time.perf_counter() - start
    verdict(1, checked == 200 and elapsed < 30.0,
            f"{checked}/200 images exactly match the brute-force scan "
            f"in {elapsed:.1f}s (< 30s)")


# --- criterion 2: mean-shift oracle equivalence ------------------------------

def test_criterion_2_mean_shift_oracle_equivalence():
    rng = np.random.default_rng(2002)
    params = MeanShiftParams()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 1001))
        center = rng.uniform(-10, 10, size=3)
        pts = center + rng.normal(scale=rng.uniform(0.05, 0.5), size=(n, 3))
        start = center + rng.uniform(-0.5, 0.5, size=3)
        out = mean_shift_refine(pts, start, params)
        ref = oracle_mean_shift(pts, start, params.radius, params.bandwidth,
                                params.iterations)
        worst = max(worst, float(np.max(np.abs(out - ref))))
    verdict(2, worst < 1e-12,
            f"100 point sets, worst per-coordinate gap {worst:.2e} (< 1e-12)")


# --- criterion 3: noiseless end-to-end position ------------------------------

def test_criterion_3_noiseless_position(noiseless_run):
    record = noiseless_run
    scenario = parse_scenario(NOISELESS_TEXT)
    sweep_duration = np.pi / (scenario.sweep_rpm * 2.0 * np.pi / 60.0)
    report = compute_metrics(record)
    acquired_first_sweep = (record.acquisition_time is not None
                            and record.acquisition_time <= sweep_duration + 1e-9)
    ok = (acquired_first_sweep
          and report.n_frames >= 100
          and report.n_locked == report.n_frames
          and np.all(report.pos_rmse < 0.1))
    verdict(3, ok,
            f"acquired at {record.acquisition_time:.2f}s (one sweep), "
            f"{report.n_frames} frames, per-axis RMSE "
            f"{np.array2string(report.pos_rmse, precision=3)} m (< 0.1)")


# --- criterion 4: noise-matched position RMSE --------------------------------

def test_criterion_4_noisy_position_rmse():
    text = manhattan_scenario_text(
        seed=44,
        duration=27.7,
        drone_width=0.5,
        range_noise=0.03,
        vd_noise_deg=1.0,
        ego_noise_deg=2.0,
        drone_waypoints=[
            (0.0, "3 2 13", "0 0 0"),
            (3.5, "3 2 13", "0 0 0"),
            (16.0, "6 14 15", "0 0 10"),
            (27.7, "-4 18 12", "0 0 -15"),
        ],
        vehicle_waypoints=[
            (0.0, "0 0 1.5", "0 0 0"),
            (3.5, "0 0 1.5", "0 0 0"),
            (27.7, "6 10 1.5", "0 0 15"),
        ],
    )
    start = time.perf_counter()
    record = run(parse_scenario(text))
    elapsed = time.perf_counter() - start
    report = compute_metrics(record)
    ok = (report.n_frames >= 200
          and np.all(report.pos_rmse <= 0.6)
          and elapsed < 60.0)
    verdict(4, ok,
            f"{report.n_frames} frames in {elapsed:.1f}s (< 60s), per-axis RMSE "
            f"{np.array2string(report.pos_rmse, precision=3)} m (<= 0.6)")


# --- criterion 5: noiseless rotation recovery --------------------------------

def test_criterion_5_noiseless_rotation_recovery():
    text = manhattan_scenario_text(
        seed=55,
        duration=10.0,
        drone_width=0.3,
        points_per_second=200000.0,
        sweep_rpm=22.8,
        scene="light",
        drone_waypoints=[
            (0.0, "2 1.5 11", "0 0 -20"),
            (2.0, "2 1.5 11", "0 0 -20"),
            (10.0, "2 6 12", "0 5 20"),
        ],
    )
    record = run(parse_scenario(text))
    errors = np.array([rotation_angle(e.T @ t) for e, t in
                       zip(record.est_rotations, record.truth_rotations)])
    ok = len(errors) >= 50 and float(errors.max()) < 1e-6
    verdict(5, ok,
            f"{len(errors)} frames, max rotation error {errors.max():.2e} rad (< 1e-6)")


# --- criterion 6: noisy rotation RMSE ----------------------------------------

def test_criterion_6_noisy_rotation_rmse():
    per_run_rmse = []
    for seed in range(20):
        text = rotation_scenario_text(seed=6000 + seed, yaw_offset_deg=90,
                                      range_noise=0.03, vd_noise_deg=1.0,
                                      ego_noise_deg=2.0)
        record = run(parse_scenario(text))
        assert record.k_init is not None, f"no correction fired for seed {seed}"
        report = compute_metrics(record)
        per_run_rmse.append(report.rot_rmse_deg)
    medians = np.median(np.asarray(per_run_rmse), axis=0)
    ok = np.all(medians <= 6.0)
    verdict(6, ok,
            f"20 runs, median per-angle RMSE after correction "
            f"{np.array2string(medians, precision=2)} deg (<= 6)")


# --- criterion 7: yaw-correction behavior ------------------------------------

def _yaw_offset_case(offset_deg, noisy, seed):
    if noisy:
        text = rotation_scenario_text(seed=seed, yaw_offset_deg=offset_deg,
                                      range_noise=0.03, vd_noise_deg=1.0,
                                      ego_noise_deg=2.0)
    else:
        text = rotation_scenario_text(seed=seed, yaw_offset_deg=offset_deg,
                                      range_noise=0.0, vd_noise_deg=0.0,
                                      ego_noise_deg=0.0)
    record = run(parse_scenario(text))
    tail = [rotation_angle(e.T @ t) for e, t in
            zip(record.est_rotations[-10:], record.truth_rotations[-10:])]
    return record, float(np.median(tail))


def test_criterion_7_yaw_correction():
    details = []
    ok = True
    gap_plus_window = 14 + 7 - 1
    for offset in (90, 180, 270):
        record, tail_err = _yaw_offset_case(offset, noisy=False, seed=70 + offset)
        fired = record.k_init is not None and record.k_init >= gap_plus_window
        once = bool(np.all(np.diff(record.corrected.astype(int)) >= 0))
        ok = ok and fired and once and tail_err < 1e-6
        details.append(f"{offset}deg noiseless k_init={record.k_init} "
                       f"err={tail_err:.1e}")
        record, tail_err = _yaw_offset_case(offset, noisy=True, seed=700 + offset)
        fired = record.k_init is not None and record.k_init >= gap_plus_window
        ok = ok and fired and tail_err < np.deg2rad(10.0)
        details.append(f"{offset}deg noisy k_init={record.k_init} "
                       f"err={np.rad2deg(tail_err):.2f}deg")
    verdict(7, ok, "; ".join(details))


# --- criterion 8: matching ambiguity boundary --------------------------------

def test_criterion_8_matching_ambiguity_boundary():
    rng = np.random.default_rng(8008)
    vg = np.eye(3)
    vd = np.eye(3)   # truth rotation is the identity; prior carries the error
    below_ok = 0
    n_below = 0
    for _ in range(150):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(np.deg2rad(1.0), np.deg2rad(40.0) - 1e-9)
        prior = rotation_about_axis(axis, angle)
        result = match_vds(vg, vd, prior)
        perm, signs, _ = oracle_match(vg, vd, prior)
        n_below += 1
        if (result.permutation == (0, 1, 2) and result.signs == (1.0, 1.0, 1.0)
                and result.permutation == perm and result.signs == signs):
            below_ok += 1

    # Above the limit the breakdown statement is about errors around one
    # of the dominant axes: an off-grid error axis moves every direction
    # less than the error angle, so a 51 deg diagonal error can still
    # match correctly. Sample the per-axis case.
    above_ok = 0
    n_above = 0
    for trial in range(150):
        axis = np.eye(3)[trial % 3] * float(rng.choice((-1.0, 1.0)))
        angle = rng.uniform(np.deg2rad(50.0) + 1e-9, np.deg2rad(89.0))
        prior = rotation_about_axis(axis, angle)
        n_above += 1
        try:
            first = match_vds(vg, vd, prior)
        except AmbiguousMatchError:
            above_ok += 1
            continue
        again = match_vds(vg, vd, prior)
        misassigned = not (first.permutation == (0, 1, 2)
                           and first.signs == (1.0, 1.0, 1.0))
        consistent = (first.permutation, first.signs) == (again.permutation, again.signs)
        if misassigned and consistent:
            above_ok += 1
    ok = below_ok == n_below and above_ok == n_above
    verdict(8, ok,
            f"{below_ok}/{n_below} correct below 40deg; "
            f"{above_ok}/{n_above} raise-or-misassign above 50deg "
            f"(exhaustive-search checked)")


# --- criterion 9: determinism -------------------------------------------------

def test_criterion_9_byte_identical_reruns(tmp_path):
    # noisy scenario on purpose: every random path (range noise, direction
    # scrambling, ego noise) must replay identically from the seed
    text = rotation_scenario_text(seed=99, yaw_offset_deg=90, range_noise=0.03,
                                  vd_noise_deg=1.0, ego_noise_deg=2.0, duration=6.0)
    scenario = parse_scenario(text)
    blobs = []
    for name in ("a", "b"):
        record = run(parse_scenario(text))
        export(record, compute_metrics(record), tmp_path / name, scenario)
        blobs.append((tmp_path / name / "trajectory.csv").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    verdict(9, ok, f"re-run produced byte-identical CSV ({len(blobs[0])} bytes)")


# --- reported, not gated ------------------------------------------------------

def test_report_frame_timing(noiseless_run):
    report = compute_metrics(noiseless_run)
    print(f"ACCEPTANCE timing note: mean per-frame compute time "
          f"{1000.0 * report.mean_frame_time:.1f} ms (reported, not gated)")
