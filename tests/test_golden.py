"""Golden gate: the bundled scenarios' trajectory.csv stays byte-identical.

The digests were taken from `dronepose run` on each file in `scenarios/`
at its own seed. Floating-point results can differ in the last bits
across platforms and library builds, so they hold only for x86-64 Linux,
Python 3.11 and numpy 2.4; the test skips elsewhere. A change that alters
the output on purpose updates a digest here and says why.
"""

import hashlib
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from dronepose.pipeline import run
from dronepose.report import compute_metrics, export
from dronepose.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "exp1_gentle_drift": "b150a022ecbb9112fe5d764706b88d8f28a0da02cd665f28f6286a0ded7be8f6",
    "exp2_moving_vehicle": "3651a5a0d688b4ec7f85bdbc86605f60e7afae63ad343694e2e2483486ee3c96",
    "exp3_aggressive": "9d2c69751e8c35a1670299d4199bba81a73b8485bca5f1a69b3c5186df7480e9",
    "exp4_near_correct_prior": "eba8c48af54b232fcbc95c979bf9504366f287c1c6ab8ba0e8c2aff2b9c47890",
}

PINNED_PLATFORM = (sys.platform == "linux" and platform.machine() == "x86_64"
                   and sys.version_info[:2] == (3, 11) and np.__version__.startswith("2.4."))


def test_every_bundled_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.scenario")) == sorted(GOLDEN)


@pytest.mark.skipif(not PINNED_PLATFORM,
                    reason="digests pinned for x86-64 Linux, Python 3.11, numpy 2.4")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_digest(name, tmp_path):
    scenario = load_scenario(SCENARIOS / f"{name}.scenario")
    record = run(scenario)
    paths = export(record, compute_metrics(record), tmp_path, scenario)
    digest = hashlib.sha256(Path(paths["trajectory"]).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
