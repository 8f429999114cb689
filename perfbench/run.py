"""Benchmark entry point.

    python3 perfbench/run.py --workload bundled --seed 0 --seconds 20 --trace 0

Run from the repository root. Builds nothing: it imports ``dronepose``
from ``src/`` of the same checkout and exits 2 without a result when
that is missing. One workload per process, one thread, closed loop:
the next op starts when the previous one has ended, until the ops' time,
scaled to the probe kernel's nominal speed (calibrate.py), reaches
``--seconds`` (at least one op).

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs every op twice, untraced and then traced, and prints
the per-layer metrics of the traced runs. The last stdout line is the
JSON result; the full report (platform stamp, per-op rows, every
metric, spans) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# One process, one thread: keep BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("bundled", "cold_start", "foliage")
SETUP_REPEATS = 7
PROBE_PERIOD_S = 0.4   # seconds between speed samples inside an op
# cold_start ops cycle through the four bundled scenes, whose acquisitions
# cost up to 2x apart, so its timing metrics use whole cycles only.
CYCLES = {"cold_start": 4}
# Each acquisition is timed again on its own frame after the op, until the
# repeats took LOCK_RETIME_S or LOCK_RETIMES were made: an acquisition on
# foliage takes about 20 ms, too short to time once.
LOCK_RETIME_S = 0.25
LOCK_RETIMES = 5

E2E_UNITS = {
    "setup_s": "s",
    "scenario_s": "s",
    "cold_start_p50_s": "s",
    "lock_p50_s": "s",
    "est_frame_p50_ms": "ms",
    "est_frame_p90_ms": "ms",
    "est_frame_p95_ms": "ms",
    "lock_err_p50_m": "m",
    "pos_rmse_m": "m",
    "rot_rmse_deg": "deg",
    "fail_ratio": "ratio",
    "mislock_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Fresh import of the package from this checkout (drops cached modules)."""
    for mod in [m for m in sys.modules if m == "dronepose" or m.startswith("dronepose.")]:
        del sys.modules[mod]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"dronepose.{name}")
            for name in ("pipeline", "tracker", "scan_sim", "geom")}
    pkg_dir = os.path.dirname(os.path.abspath(mods["pipeline"].__file__))
    if pkg_dir != os.path.join(SRC, "dronepose"):
        raise ImportError(f"dronepose imported from {pkg_dir}, not from {SRC}")
    return mods


def _setup_once(workload, seed):
    from workloads import make_inputs, parse_input

    mods = _import_package()
    inputs = make_inputs(workload, mods["pipeline"], mods["scan_sim"], ROOT, seed)
    for inp in inputs:
        scenario = parse_input(mods["pipeline"], inp)
        mods["scan_sim"].Scene(scenario.primitives, seed=scenario.seed)
    return mods, inputs


def _stamp():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(), "commit": commit}


def _median(values):
    return float(statistics.median(values)) if len(values) else float("nan")


def _e2e_metrics(results, cycle, setup_times):
    """End-to-end numbers; timings come from whole cycles of ``cycle`` ops."""
    import numpy as np

    timed = results[:len(results) - len(results) % cycle] or results
    ok = [r for r in results if not r.failed and not r.mislock]
    frames = np.concatenate([r.frame_times for r in timed])
    acquires = [a for r in timed for a in r.acquire_s]
    pos_sq = np.concatenate([r.pos_sq for r in ok]) if ok else np.empty(0)
    rot_sq = np.concatenate([r.rot_sq for r in ok]) if ok else np.empty(0)
    return {
        "setup_s": _median(setup_times),
        "scenario_s": _median([r.wall_s for r in timed]),
        "cold_start_p50_s": _median([r.first_lock_s for r in timed
                                     if r.first_lock_s is not None]),
        "lock_p50_s": _median(acquires),
        "est_frame_p50_ms": float(np.percentile(frames, 50) * 1e3) if len(frames) else float("nan"),
        # The tail an op sees: each op's p90 frame time, median over ops.
        # Pooling the run's frames instead lets one op with a burst of slow
        # frames move the tail (see README).
        "est_frame_p90_ms": _median([np.percentile(r.frame_times, 90) * 1e3
                                     for r in timed if len(r.frame_times)]),
        "est_frame_p95_ms": float(np.percentile(frames, 95) * 1e3) if len(frames) else float("nan"),
        "lock_err_p50_m": _median([r.lock_err_m for r in ok]),
        "pos_rmse_m": float(np.sqrt(pos_sq.mean())) if len(pos_sq) else float("nan"),
        "rot_rmse_deg": float(np.sqrt(rot_sq.mean())) if len(rot_sq) else float("nan"),
        "fail_ratio": sum(r.failed for r in results) / len(results),
        "mislock_ratio": sum(r.mislock for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"timed_ops": len(timed), "frame_samples": int(len(frames)),
        "acquire_samples": len(acquires), "ok_ops": len(ok)}


def _layer_metrics(tracer, traced, traced_walls, overheads):
    from tracing import SPAN_NAMES

    per_op = tracer.self_times()
    n = len(per_op)
    totals = {name: sum(op.get(name, 0.0) for op in per_op.values()) for name in SPAN_NAMES}
    counts = tracer.counts
    rays = counts.get("scan_sim.full_scan.rays", 0) + counts.get("scan_sim.vibration_frame.rays", 0)
    cands = counts.get("detector.candidates", 0)
    metrics = {f"{name}.self_s": totals[name] / n for name in SPAN_NAMES}
    for name in ("scan_sim.full_scan.rays", "scan_sim.vibration_frame.rays",
                 "detector.candidates", "tracker.mean_shift.calls", "tracker.misses",
                 "vp_rot.ambiguous"):
        metrics[name] = counts.get(name, 0) / n
    metrics["tracker.mislocks"] = sum(r.mislock for r in traced) / n
    metrics["scan_sim.return_ratio"] = counts.get("scan_sim.returns", 0) / rays if rays else 0.0
    metrics["detector.us_per_candidate"] = (
        totals["detector.detect"] / cands * 1e6 if cands else 0.0)
    metrics["trace.wall_s"] = sum(traced_walls) / n
    metrics["trace.overhead_s"] = _median(overheads)
    layers = {}
    for name in SPAN_NAMES:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + totals[name] / n
    return metrics, {"traced_ops": n, "layer_self_s": layers}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return {"detector.us_per_candidate": "us", "scan_sim.return_ratio": "ratio"}.get(name, "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "dronepose", "__init__.py")):
        sys.stderr.write(f"error: no dronepose package under {SRC}; "
                         "run from a full checkout of the repository\n")
        return 2
    sys.path.insert(0, HERE)

    import calibrate

    # Set-up, repeated: fresh package import, input generation, scenario
    # parsing and Scene construction. The first repeat also pays for
    # importing numpy and compiling bytecode. Speed samples between the
    # repeats scale the set-up times like the op timings (calibrate.py).
    setup_samples = [calibrate.sample()]
    raw_setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        mods, inputs = _setup_once(args.workload, args.seed)
        raw_setup.append(perf() - t0)
        setup_samples.append(calibrate.sample())
    setup_scale = calibrate.NOMINAL_S / statistics.median(setup_samples)
    setup_times = [t * setup_scale for t in raw_setup]
    from tracing import Tracer
    from workloads import AcquireProbe, run_op, warmup_input

    pipeline, geom = mods["pipeline"], mods["geom"]
    probe = AcquireProbe(pipeline)
    speed = calibrate.SpeedProbe(pipeline, mods["scan_sim"].Scene, PROBE_PERIOD_S)
    speed.take()
    os.makedirs(RESULTS, exist_ok=True)

    # Warm-up, untimed: one sweep, acquisition and two frames on a scene
    # that no workload uses, so the first timed op does not pay for first
    # use of large buffers and code paths, and nothing it computes can be
    # reused by a timed op.
    t0 = perf()
    warm = run_op(pipeline, geom, probe, speed, warmup_input(), RESULTS)
    warmup_s = perf() - t0
    if warm.failed:
        raise RuntimeError(f"warm-up op failed: {warm.error}")

    results, traced_results, checks, digests = [], [], [], {}
    tracer = Tracer() if args.trace else None
    traced_walls, overheads = [], []
    # The run ends with the op in which the ops' scaled time reaches
    # --seconds, so it holds the same ops whatever the machine's speed.
    speed.take()
    measured = 0.0
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        i += 1
        res = run_op(pipeline, geom, probe, speed, inp, RESULTS)
        for start, end in probe.retime(LOCK_RETIME_S, LOCK_RETIMES):
            res.acquire_s.append(end - start)
            res.acquire_spans.append((start, end))
        speed.take()
        res.normalise(speed)
        measured += res.wall_s
        results.append(res)
        if res.digest:
            first = digests.setdefault(inp.name, res.digest)
            if first != res.digest:
                checks.append(f"{inp.name}: rerun digest {res.digest[:16]} != {first[:16]}")
        if inp.golden is not None and res.digest != inp.golden:
            checks.append(f"{inp.name}: {res.error or 'no trajectory.csv'}")
        if tracer is not None:
            # Traced ops are not scaled and take no in-op speed samples.
            speed.enabled = False
            tracer.install({"pipeline": pipeline, "tracker": mods["tracker"]},
                           mods["scan_sim"].Scene)
            t0 = perf()
            traced = tracer.op(run_op, pipeline, geom, probe, speed, inp, RESULTS)
            traced_walls.append(perf() - t0)
            tracer.uninstall()
            speed.enabled = True
            speed.take()
            traced_results.append(traced)
            measured += traced.wall_s * res.scale
            overheads.append(traced.wall_s - res.raw_wall_s)
            if traced.digest != res.digest or traced.error != res.error:
                checks.append(f"{inp.name}: traced run differs from untraced "
                              f"({traced.digest[:16]} vs {res.digest[:16]})")
        if measured >= args.seconds:
            break

    e2e, e2e_extra = _e2e_metrics(results, CYCLES.get(args.workload, 1), setup_times)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": _stamp(), "setup_times_s": setup_times,
        "raw_setup_times_s": raw_setup, "setup_scale": setup_scale,
        "warmup_s": warmup_s, "speed_samples_s": speed.samples,
        "checks_failed": checks,
        "ops": [{"name": r.name, "wall_s": r.wall_s, "raw_wall_s": r.raw_wall_s,
                 "scale": r.scale, "error": r.error, "mislock": r.mislock, "digest": r.digest,
                 "frames": r.frames, "first_lock_s": r.first_lock_s,
                 "acquire_s": r.acquire_s, "lock_err_m": r.lock_err_m,
                 "frame_ms": (r.frame_times * 1e3).tolist(),
                 "repaired": r.repaired} for r in results],
        "end_to_end": e2e, "end_to_end_samples": e2e_extra,
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        layer, layer_extra = _layer_metrics(tracer, traced_results, traced_walls, overheads)
        report["per_layer"] = layer
        report["per_layer_detail"] = layer_extra
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: {"value": layer[name], "unit": _layer_unit(name)} for name in wanted}
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": e2e[name], "unit": E2E_UNITS[name]} for name in wanted}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(RESULTS, tag + "-spans.json"))

    stamp = report["stamp"]
    print(f"# {tag}: {len(results)} ops, {sum(r.failed for r in results)} failed, "
          f"{sum(r.mislock for r in results)} mis-locked; "
          f"nproc={stamp['nproc']} cpu={stamp['cpu']!r} python={stamp['python']} "
          f"numpy={stamp['numpy']} commit={stamp['commit']}")
    for r in results:
        print(f"#   {r.name}: {r.wall_s:.3f} s ({r.raw_wall_s:.3f} s raw x {r.scale:.3f}) "
              f"{r.frames} frames" + (" MIS-LOCK" if r.mislock else "")
              + (f" FAILED {r.error}" if r.failed else ""))
    for name, value in sorted(e2e.items()):
        print(f"#   {name} = {value:.6g} {E2E_UNITS[name]}")
    for line in checks:
        print(f"# CHECK FAILED {line}")
    out = {
        "correct": not checks,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
