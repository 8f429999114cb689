"""Scenario ranges: each rule at and past its bound, inputs that used to
misbehave, a seeded fuzz test driven by the same tables, the schema
defaults against the components' own, and the README key table.

The fuzz test follows Claessen & Hughes, "QuickCheck" (ICFP 2000): it
mutates a small valid scenario and checks one property of every case.
Either the CLI exits 1 with an ``error:`` line, or it exits 0 with no
more frames than the clock allows.
"""

import dataclasses
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from dronepose.cli import main
from dronepose.depth_image import ProjectionParams
from dronepose.detector import KernelParams
from dronepose.scan_sim import DroneModel, IndirectObsModel, LidarModel
from dronepose.scenario import (
    _SCENE_FIELDS,
    _SCHEMA,
    _WAYPOINT_FIELDS,
    MAX_CAST_POINTS,
    MAX_EXTENT,
    ScenarioError,
    parse_scenario,
)
from dronepose.tracker import MeanShiftParams
from dronepose.vp_rot import MotionAccumulator, RotationFilterState

ROOT = Path(__file__).resolve().parent.parent
EXP1 = ROOT / "scenarios" / "exp1_gentle_drift.scenario"

# One 0.5 s sweep locks on the drone, then 8 frames track it: about 0.1 s a run.
BASE = {
    "schema_version": "1",
    "seed": "5",
    "duration": "1.5",
    "lidar.points_per_second": "40000",
    "motor.sweep_rpm": "60",
    "scene.0.kind": "ground_plane",
    "scene.0.center": "0 0 0",
    "scene.0.dimensions": "60 60 1",
    "scene.1.kind": "box",
    "scene.1.center": "10 0 3",
    "scene.1.dimensions": "4 8 6",
    "drone.waypoint.0.time": "0",
    "drone.waypoint.0.position": "2 1.5 8",
    "drone.waypoint.1.time": "1.5",
    "drone.waypoint.1.position": "2 2.5 8",
    "vehicle.waypoint.0.time": "0",
    "vehicle.waypoint.0.position": "0 0 1.5",
    "vehicle.waypoint.1.time": "1.5",
    "vehicle.waypoint.1.position": "0.5 0 1.5",
}
FIRING_S = 16 / 40000.0     # default beam count over BASE's points per second
SWEEP_S = 30.0 / 60         # BASE's sweep, its longest cast
CAP_RATE = MAX_CAST_POINTS / SWEEP_S     # points per second that fill BASE's sweep to the cap


def text_of(entries: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def value_of(entries: dict, key: str) -> float:
    return float(entries.get(key, _SCHEMA[key][1]))


def _fmt(kind: str, value) -> str:
    return str(int(value)) if kind == "int" else repr(float(value))


def spec_of(key: str):
    """(type tag, default, rule) of ``key``; an indexed key's from its group's fields."""
    m = re.match(r"^(scene|drone\.waypoint|vehicle\.waypoint)\.\d+\.([a-z_]+)$", key)
    if m is None:
        return _SCHEMA[key]
    return (_SCENE_FIELDS if m.group(1) == "scene" else _WAYPOINT_FIELDS)[m.group(2)]


def rule_cases(key: str):
    """(value text, accepted) at and just past ``key``'s rule, against BASE. A
    "within" rule is passed by one component at a time, each side of zero."""
    kind, _, rule = spec_of(key)
    op, _, bound = rule.partition(" ")
    limit = value_of(BASE, bound) if bound in _SCHEMA else float(bound)

    def past(direction):
        return limit + direction if kind == "int" else np.nextafter(limit, direction * np.inf)

    if op == "within" and kind == "vec3":
        out = float(past(1))
        return [(f"{-out!r} 1.0 1.0", False), (f"1.0 {out!r} 1.0", False),
                (f"1.0 1.0 {out!r}", False), (" ".join([repr(limit)] * 3), True)]
    rejected = {">": [limit, past(-1)], ">=": [past(-1)], "<=": [past(1)],
                "==": [past(-1), past(1)], "within": [past(1), -past(1)]}[op]
    cases = [(_fmt(kind, v), False) for v in rejected]
    return cases + ([] if op == ">" else [(_fmt(kind, limit), True)])


RULED = [key for key, (_, _, rule) in _SCHEMA.items() if rule is not None]
# BASE's scene.1 is a box: its scatter_radius is read and checked, then unused.
RULED_INDEXED = ["scene.1.center", "scene.1.dimensions", "scene.1.scatter_radius",
                 "drone.waypoint.0.position", "vehicle.waypoint.1.position"]


@pytest.mark.parametrize("key, value, accepted",
                         [(key, *case) for key in RULED + RULED_INDEXED
                          for case in rule_cases(key)])
def test_rule_bound(key, value, accepted):
    text = text_of({**BASE, key: value})
    if accepted:
        assert parse_scenario(text).resolved[key] == value
    else:
        with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: must be "):
            parse_scenario(text)


def test_rules_cover_the_motor_and_motion_keys():
    assert {"motor.sweep_rpm", "motor.vibration_amplitude_deg", "motor.vibration_period",
            "motion.window", "motion.frame_gap", "motion.cone_deg",
            "motion.min_distance"} <= set(RULED)


@pytest.mark.parametrize("key, at, past", [
    ("motor.vibration_period", FIRING_S, FIRING_S * (1 - 1e-9)),
    ("motor.sweep_rpm", 30.0 / FIRING_S, 30.0 / FIRING_S * (1 + 1e-9)),
])
def test_sweeps_and_frames_hold_one_firing(key, at, past):
    parse_scenario(text_of({**BASE, key: repr(at)}))
    with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: a .* shorter than one lidar"):
        parse_scenario(text_of({**BASE, key: repr(past)}))


@pytest.mark.parametrize("entries", [{}, {"motor.vibration_period": "1.0"}],
                         ids=["sweep", "frame"])
def test_one_sweep_or_frame_casts_at_most_the_cap(entries):
    # the longer of the sweep and the frame sets the point rate's limit
    seconds = max(SWEEP_S, value_of({**BASE, **entries}, "motor.vibration_period"))
    at = MAX_CAST_POINTS / seconds
    parse_scenario(text_of({**BASE, **entries, "lidar.points_per_second": repr(at)}))
    with pytest.raises(ScenarioError, match=r"^lidar\.points_per_second: a .* more than "):
        parse_scenario(text_of({**BASE, **entries,
                                "lidar.points_per_second": repr(at * (1 + 1e-9))}))


# Every length that reaches the cast at MAX_EXTENT: far apart (huge boxes, a blob
# scattered over 1e6 m, a 1e6 m drone, both bodies crossing the whole range), and
# together at a corner of the range, where the drone is locked and tracked.
AT_EXTENT = {
    "far_apart": {
        "scene.0.center": "-1e6 -1e6 -1e6", "scene.0.dimensions": "1e6 1e6 1",
        "scene.1.center": "1e6 1e6 1e6", "scene.1.dimensions": "1e6 1e6 1e6",
        "scene.2.kind": "sparse_blob", "scene.2.center": "-1e6 1e6 -1e6",
        "scene.2.dimensions": "0.5 0.5 0.5", "scene.2.count": "50",
        "scene.2.scatter_radius": "1e6", "drone.width": "1e6",
        "drone.waypoint.0.position": "1e6 -1e6 1e6",
        "drone.waypoint.1.position": "-1e6 1e6 -1e6",
        "vehicle.waypoint.0.position": "-1e6 -1e6 -1e6",
        "vehicle.waypoint.1.position": "1e6 1e6 1e6"},
    "at_a_corner": {
        "scene.0.center": "999970 -999970 999970", "scene.0.dimensions": "60 60 1",
        "scene.1.center": "999980 -999970 999973",
        "drone.waypoint.0.position": "999972 -999968.5 999978",
        "drone.waypoint.1.position": "999972 -999967.5 999978",
        "vehicle.waypoint.0.position": "999970 -999970 999971.5",
        "vehicle.waypoint.1.position": "999970.5 -999970 999971.5"},
}


@pytest.mark.parametrize("case", AT_EXTENT)
def test_lengths_at_the_extent_cast_without_a_warning(case, tmp_path, capsys):
    # RuntimeWarnings are errors in this suite (pyproject.toml): an overflow fails here
    path = tmp_path / "extent.scenario"
    path.write_text(text_of({**BASE, **AT_EXTENT[case]}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    n_locked = int(re.search(r"^n_locked = (\d+)$", out, re.M).group(1))
    assert (n_locked > 0) == (case == "at_a_corner")


@pytest.mark.parametrize("override", ["scene.1.center=1e200 0 6",
                                      "drone.waypoint.0.position=1e200 0 12",
                                      "drone.width=1e200"])
def test_lengths_past_the_extent_exit_one(override, tmp_path):
    # each once overflowed in the cast: a RuntimeWarning and exit 0, or a traceback
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dronepose.cli", "run",
         "--scenario", str(EXP1), "--out", str(tmp_path / "o"), "--overrides", "duration=4.0",
         override], capture_output=True, text=True, timeout=30)
    assert result.returncode == 1
    key = override.partition("=")[0]
    assert result.stderr.startswith(f"error: {key}: must be within {MAX_EXTENT:g}, got ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("override", [
    "rotation.max_rate_deg=-5",          # used to step the filter away from each measurement
    "projection.resolution=2000000",     # used to end in a MemoryError
    "kernel.outer_band=100000000",       # used to never finish
    "motor.vibration_period=1e-300",     # used to fail: filter update time must increase
    "motor.sweep_rpm=1e300",             # used to never finish: the clock did not advance
    "lidar.points_per_second=1e12",      # used to never finish: every chunk's points were kept
    "meanshift.iterations=1000000000",   # used to never finish
    "meanshift.track_iterations=1000000000",
])
def test_misbehaving_override_exits_one(override, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "dronepose.cli", "run", "--scenario", str(EXP1),
         "--out", str(tmp_path / "o"), "--overrides", "duration=3.0", override],
        capture_output=True, text=True, timeout=5)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {override.partition('=')[0]}: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("count", ["0", "1", "-3"])
def test_beam_count_is_checked_by_the_lidar_model(count):
    with pytest.raises(ScenarioError, match="^lidar: "):
        parse_scenario(text_of({**BASE, "lidar.beam_count": count}))


# -- seeded fuzz ---------------------------------------------------------------

FIELDS = {"scene": _SCENE_FIELDS, "drone.waypoint": _WAYPOINT_FIELDS,
          "vehicle.waypoint": _WAYPOINT_FIELDS}
WRONG_TYPE = {"int": ["1.5", "ten", "0x10"], "float": ["ten", "1,5", "--1"],
              "bool": ["yes", "1"], "vec3": ["1 2", "1 2 3 4", "a b c"], "str": ["cone", "7"]}
CASE_CAP_S = 10.0
MAX_FRAMES = 200


def value_mutations(key: str, kind: str, rule, rng) -> list:
    """At and past the rule, 0, -1, nan, inf and a wrong type, as text for ``key``."""
    scalars = ["0", "-1", "nan", "inf"]
    if kind == "vec3":
        texts = [" ".join([s] * 3) for s in scalars[:2]]
        texts += [" ".join(rng.permutation([s, "1", "2"])) for s in scalars[2:]]
    else:
        texts = list(scalars)
    texts.append(str(rng.choice(WRONG_TYPE[kind])))
    if rule is not None:
        texts += [value for value, _ in rule_cases(key)]
        far = {"int": 10 ** 8, "float": 1e300}[kind] * (1 if rule.startswith("<") else -1)
        texts.append(str(far))
    if key == "motor.vibration_period":
        texts += [repr(FIRING_S), repr(FIRING_S * (1 - 1e-9)), "1e-300"]
    if key == "motor.sweep_rpm":
        texts += [repr(30.0 / FIRING_S), repr(30.0 / FIRING_S * (1 + 1e-9)), "1e300"]
    if key == "lidar.points_per_second":    # at the cap in mutation_pool, with a short run
        texts += [repr(CAP_RATE * (1 + 1e-9)), "1e12"]
    if key == "meanshift.radius":           # no return near the detection: nothing to lock on
        texts.append("1e-3")
    if key == "projection.fov_deg":         # pixels degrees wide: the same
        texts.append("179.9")
    return texts


def mutation_pool(rng) -> list:
    """(description, edit) pairs; each edit changes a copy of BASE in place."""
    def set_to(key, text):
        return f"{key} = {text!r}", lambda e: e.__setitem__(key, text)

    pool = [set_to(key, text) for key, (kind, _, rule) in _SCHEMA.items()
            for text in value_mutations(key, kind, rule, rng)]
    # A sweep at the cast cap takes seconds: the run ends after it, with no frame.
    pool.append((f"lidar.points_per_second = {CAP_RATE!r} for one sweep",
                 lambda e: e.update({"lidar.points_per_second": repr(CAP_RATE),
                                     "duration": repr(SWEEP_S + 0.05)})))
    for group, fields in FIELDS.items():
        for name, (kind, _, _) in fields.items():
            key = f"{group}.{rng.integers(2)}.{name}"
            pool += [set_to(key, text) for text in value_mutations(key, kind, None, rng)]

    letters = "".join(rng.choice(list("abcdefghij"), 6))
    for key in (letters, f"lidar.{letters}", f"scene.0.{letters}", f"drone.waypoint.1.{letters}",
                "scene.x.kind", "drone.waypoint.-1.time", "Seed", "scene.7.kind"):
        pool.append(set_to(key, "1"))

    def drop(prefix):
        return f"drop {prefix}*", lambda e: [e.pop(k) for k in list(e) if k.startswith(prefix)]

    pool += [drop("scene."), drop("seed"), drop("drone.waypoint.0.position"),
             drop("drone.waypoint."), drop("vehicle.waypoint.")]
    for group in ("drone.waypoint", "vehicle.waypoint"):
        t0, t1 = f"{group}.0.time", f"{group}.1.time"

        def reverse(e, t0=t0, t1=t1):
            if t0 in e and t1 in e:     # a combined mutation may have dropped them
                e[t0], e[t1] = e[t1], e[t0]

        def duplicate(e, t0=t0, t1=t1):
            if t0 in e:
                e[t1] = e[t0]

        pool += [(f"reverse {group} times", reverse), (f"duplicate {group} times", duplicate)]
    return pool


def frame_step(entries: dict) -> float:
    """min(vibration period, sweep), s: the clock advances at least this much per frame."""
    return min(value_of(entries, "motor.vibration_period"),
               30.0 / value_of(entries, "motor.sweep_rpm"))


def fuzz_cases(seed=20, n_combined=60):
    """Every mutation alone, then seeded combinations of two or three."""
    rng = np.random.default_rng(seed)
    pool = mutation_pool(rng)
    picks = [[m] for m in pool]
    picks += [[pool[i] for i in rng.choice(len(pool), rng.integers(2, 4), replace=False)]
              for _ in range(n_combined)]
    for mutations in picks:
        entries = dict(BASE)
        for _, edit in mutations:
            edit(entries)
        # Keep the frame bound at a few hundred frames when a mutation shortens the step.
        if not any(desc.startswith("duration ") for desc, _ in mutations):
            try:
                step = frame_step(entries)
            except (ValueError, ZeroDivisionError):
                step = 0.0      # an unparsable or zero value: the loader rejects the case
            if step > 0.0:      # a negative one too, and must be the key it names
                entries["duration"] = repr(min(value_of(entries, "duration"), MAX_FRAMES * step))
        yield "; ".join(desc for desc, _ in mutations), entries


class CaseTimeout(Exception):
    pass


@contextmanager
def time_cap(seconds):
    def expire(signum, frame):
        raise CaseTimeout(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_fuzzed_scenarios_exit_one_or_stay_in_the_frame_bound(tmp_path, capsys):
    failures, outcomes = [], {0: 0, 1: 0}
    for i, (desc, entries) in enumerate(fuzz_cases()):
        path = tmp_path / f"case{i}.scenario"
        path.write_text(text_of(entries))
        try:
            with time_cap(CASE_CAP_S):
                outcome = main(["run", "--scenario", str(path), "--out", str(tmp_path / f"o{i}")])
        except Exception as exc:    # any escape is a finding; name the case
            outcome = exc
        out, err = capsys.readouterr()
        if outcome == 1:
            if not any(line.startswith("error: ") for line in err.splitlines()):
                failures.append(f"{desc}: exit 1 without an error line: {err!r}")
        elif outcome == 0:
            n_frames = int(re.search(r"^n_frames = (\d+)$", out, re.M).group(1))
            bound = value_of(entries, "duration") / frame_step(entries) + 1
            if n_frames > bound:
                failures.append(f"{desc}: {n_frames} frames > {bound}")
        else:
            failures.append(f"{desc}: {outcome!r}")
        if outcome in (0, 1):
            outcomes[outcome] += 1
    assert not failures, "\n".join(failures)
    assert outcomes[0] >= 20 and outcomes[1] >= 100, outcomes   # both paths exercised


# -- defaults ------------------------------------------------------------------

def test_schema_defaults_match_the_component_defaults():
    """A key's ``_SCHEMA`` default, after the builder's conversion, equals its
    component's own dataclass default: the two copies may not drift apart."""
    sc = parse_scenario(text_of({"schema_version": "1", "seed": "0",
                                 "drone.waypoint.0.time": "0",
                                 "drone.waypoint.0.position": "0 0 10"}))

    def same(got, want, label):
        assert np.shape(got) == np.shape(want), label
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), label   # deg->rad rounding

    for got, want in ((sc.drone, DroneModel()), (sc.kernel, KernelParams()),
                      (sc.projection, ProjectionParams()), (sc.meanshift, MeanShiftParams()),
                      (sc.lidar, LidarModel()), (sc.obs, IndirectObsModel())):
        for f in dataclasses.fields(want):
            same(getattr(got, f.name), getattr(want, f.name), f"{type(want).__name__}.{f.name}")
    same(sc.max_rotation_rate, RotationFilterState(np.eye(3)).max_rate, "max_rate")
    acc = MotionAccumulator()
    for name in ("window", "frame_gap", "cone", "min_distance"):
        same(getattr(sc, f"motion_{name}"), getattr(acc, name), f"MotionAccumulator.{name}")


# -- docs ----------------------------------------------------------------------

def test_readme_table_lists_every_key_with_its_default_and_rule():
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        m = re.match(r"^\| `([a-z_.]+)` \| ([^|]*) \| ([^|]*) \|", line)
        if m:
            rows[m.group(1)] = (m.group(2).strip().strip("`"), m.group(3))
    for key, (kind, default, rule) in _SCHEMA.items():
        assert key in rows, key
        shown, valid = rows[key]
        if default is None:
            assert shown == "required", key
        elif kind == "bool":
            assert shown == default, key
        else:
            assert [float(x) for x in shown.split()] == [float(x) for x in default.split()], key
        if rule is not None:
            assert f"`{rule}`" in valid, key
