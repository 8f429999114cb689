"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload once at minimal size (one op, seed 0), untraced and
traced, each in a fresh process, and asserts:

- the last stdout line has exactly the keys correct/attempted/failed/
  metrics, with ``correct`` true;
- every metric named in BENCHMARK.json is emitted, with its unit and a
  finite value (end-to-end untraced, per-layer traced);
- the per-layer self times sum to the traced wall time;
- the benchmark refuses to run (non-zero exit, no result line) in a
  directory that holds only BENCHMARK.json and the benchmark.

Takes about three minutes on a 2-core x86-64 machine.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SELF_SUM_TOLERANCE = 0.01   # share of the traced wall time


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _check_result(spec, workload, trace, proc):
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(out)}"
    assert out["correct"] is True, f"{where}: correct is false\n{proc.stdout}"
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, where
    assert isinstance(out["failed"], int), where
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}, f"{where}: metric names differ"
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), \
            f"{where}: {m['name']} = {got['value']!r}"
        if not trace:
            assert got["value"] > 0.0, f"{where}: end-to-end {m['name']} reads 0"
    return out


def _check_self_sum(workload):
    path = os.path.join(HERE, "results", f"{workload}-seed0-trace1.json")
    with open(path, encoding="utf-8") as fh:
        layer = json.load(fh)["per_layer"]
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    wall = layer["trace.wall_s"]
    assert abs(self_sum - wall) <= SELF_SUM_TOLERANCE * wall, \
        f"{workload}: self times sum to {self_sum:.4f} s, traced wall {wall:.4f} s"
    return self_sum, wall


def _check_bare_directory():
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = _run(bare, "bundled", 0)
    assert proc.returncode != 0, "benchmark ran without the package"
    assert not proc.stdout.strip(), f"printed a result without the package: {proc.stdout!r}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for wl in spec["workloads"]:
        name = wl["name"]
        _check_result(spec, name, 0, _run(ROOT, name, 0))
        _check_result(spec, name, 1, _run(ROOT, name, 1))
        self_sum, wall = _check_self_sum(name)
        print(f"ok {name}: all metrics emitted; self times {self_sum:.3f} s "
              f"of traced wall {wall:.3f} s")
    _check_bare_directory()
    print("ok bare directory: refused without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
