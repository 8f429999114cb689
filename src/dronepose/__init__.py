"""Drone / ground-vehicle relative pose estimation on synthetic spinning-LiDAR data."""

from .pipeline import run
from .report import MetricsReport, RunRecord, compute_metrics, export
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "MetricsReport",
    "RunRecord",
    "Scenario",
    "ScenarioError",
    "compute_metrics",
    "export",
    "load_scenario",
    "parse_scenario",
    "run",
    "__version__",
]
