"""Experiment harness: scenario presets, runner, sweeps, figure generators.

Quick use::

    from repro.experiments import random_waypoint_scenario, run_scenario

    summary = run_scenario(random_waypoint_scenario(policy="sdsrp"))
    print(summary.table_row())

Figure reproduction lives in :mod:`repro.experiments.figures`, with paper-
scale parameter grids behind ``full=True`` and reduced-scale defaults that
preserve the orderings (see DESIGN.md §4).
"""

from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.figures import (
    PAPER_POLICIES,
    FigureData,
    fig3_intermeeting,
    fig4_priority_curve,
    fig8_buffer,
    fig8_churn,
    fig8_copies,
    fig8_rate,
    fig9_buffer,
    fig9_churn,
    fig9_copies,
    fig9_rate,
    reduced,
)
from repro.experiments.runner import (
    build_scenario,
    run_scenario,
    run_scenario_safe,
)
from repro.experiments.scenario import (
    ScenarioConfig,
    config_fingerprint,
    epfl_scenario,
    random_waypoint_scenario,
    scale_scenario,
)
from repro.experiments.sweep import replicate, run_many, summarize_replicates

__all__ = [
    "PAPER_POLICIES",
    "FigureData",
    "ScenarioConfig",
    "SweepCheckpoint",
    "build_scenario",
    "config_fingerprint",
    "epfl_scenario",
    "fig3_intermeeting",
    "fig4_priority_curve",
    "fig8_buffer",
    "fig8_churn",
    "fig8_copies",
    "fig8_rate",
    "fig9_buffer",
    "fig9_churn",
    "fig9_copies",
    "fig9_rate",
    "random_waypoint_scenario",
    "reduced",
    "replicate",
    "run_many",
    "run_scenario",
    "run_scenario_safe",
    "scale_scenario",
    "summarize_replicates",
]
