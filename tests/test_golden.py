"""Golden gate: the bundled scenarios' trajectory.csv stays byte-identical.

The digests were taken from `dronepose run` on each file in `scenarios/`
at its own seed. They live in one table, ``GOLDEN`` in
``perfbench/workloads.py``, which the benchmark checks its ops against
too. Floating-point results can differ in the last bits across platforms
and library builds, so they hold only for x86-64 Linux, Python 3.11 and
numpy 2.4; the test skips elsewhere. A change that alters the output on
purpose updates a digest and says why.

Generated inputs are pinned too, built by ``perfbench/workloads.py`` at
seed 0: the ``foliage`` scenario (the heading repair fires over a
canopy) and ``cold_start`` inputs 0, 5 and 13, which exercise
acquisition: input 0 locks on the drone and loses it after 7 frames,
inputs 5 and 13 lock onto a building corner.
"""

import hashlib
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from dronepose import pipeline, scan_sim
from dronepose.pipeline import run
from dronepose.report import compute_metrics, export
from dronepose.scenario import load_scenario, parse_scenario
from conftest import ROOT, perfbench_workloads

SCENARIOS = ROOT / "scenarios"

workloads = perfbench_workloads()
GOLDEN = workloads.GOLDEN

GENERATED = {
    "foliage": "8c1f751253cfd7a8fb00663d0120af5e0fa67fecb89c70a49497606fae933a89",
    "cold_start[0]": "e35ed3db1b9a44e736bfd7c1767325eb84267f561e58673858b9d6009f3c59a9",
    "cold_start[5]": "3a3f083ba709fc5288821dcdcd92319684c76fc7fa13f1e6c3ef7d5f2bdd8233",
    "cold_start[13]": "1a319fcd0a4251307f260b30b796325aa9ffd7f79ef79eb0fed9ee66ed6df528",
}

PINNED_PLATFORM = (sys.platform == "linux" and platform.machine() == "x86_64"
                   and sys.version_info[:2] == (3, 11) and np.__version__.startswith("2.4."))


def test_every_bundled_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.scenario")) == sorted(GOLDEN)


pinned_only = pytest.mark.skipif(
    not PINNED_PLATFORM, reason="digests pinned for x86-64 Linux, Python 3.11, numpy 2.4")


def _trajectory_digest(scenario, out_dir):
    record = run(scenario)
    paths = export(record, compute_metrics(record), out_dir, scenario)
    return hashlib.sha256(Path(paths["trajectory"]).read_bytes()).hexdigest()


@pinned_only
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_digest(name, tmp_path):
    assert _trajectory_digest(load_scenario(SCENARIOS / f"{name}.scenario"), tmp_path) == GOLDEN[name]


@pytest.fixture(scope="module")
def generated_texts():
    """Scenario text of each generated input, keyed as in ``GENERATED``."""
    cold = workloads.cold_start_inputs(pipeline, scan_sim, str(ROOT), 0, count=14)
    texts = {f"cold_start[{i}]": cold[i].text for i in (0, 5, 13)}
    texts["foliage"] = workloads.foliage_inputs(pipeline, 0)[0].text
    return texts


@pinned_only
@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_trajectory_digest(name, generated_texts, tmp_path):
    scenario = parse_scenario(generated_texts[name], source=name)
    assert _trajectory_digest(scenario, tmp_path) == GENERATED[name]
