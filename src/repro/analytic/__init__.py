"""Mean-field analytical backend (``engine_backend="analytic"``).

The discrete simulator answers the paper's questions — delivery ratio,
delay, buffer occupancy versus copy budget L and buffer size — by walking
every contact of every node.  That caps usable fleet sizes around the
thousands.  This package answers the *same
queries from closed-form / ODE mean-field models* in milliseconds at any
fleet size, and doubles as an independent oracle the simulator is
cross-validated against (``tests/analytic/test_cross_validation.py``).

Three model layers (docs/analytic.md has the derivations):

* :mod:`repro.analytic.meeting` — the pairwise intermeeting rate λ, either
  derived from the configured mobility model (Groenevelt's mean-field
  formula for waypoint mobilities) or calibrated from a short seeded
  simulator run (the taxi fleet's hotspot clustering defeats the uniform
  formula).
* :mod:`repro.analytic.snw` — the binary Spray-and-Wait delay distribution
  as the absorption time of a birth/absorption CTMC (Diana & Lochin,
  arXiv 1111.6860), solved exactly with a matrix exponential so million-node
  stiffness costs nothing.
* :mod:`repro.analytic.epidemic` — the epidemic infection / buffer
  occupancy / delivery reliability ODE system under finite buffers (Chen
  et al., arXiv 1601.06345), integrated with a fixed-step RK4 in scaled
  time for determinism.

:func:`repro.analytic.runner.run_analytic` evaluates a scenario config and
returns an :class:`~repro.analytic.result.AnalyticResult`, which renders
into the existing :class:`~repro.reports.summary.RunSummary` and
time-series shapes — the CLI, experiment presets, figure pipelines and the
``repro.service`` result cache all consume analytic results unchanged.

``engine_backend="hybrid"`` additionally samples a small set of discrete
per-message outcomes from the model's delay CDF via named RNG streams
(:mod:`repro.analytic.hybrid`), keeping the determinism contract: same
config, same bytes.
"""

from repro.analytic.meeting import MeetingRate, meeting_rate
from repro.analytic.result import AnalyticResult
from repro.analytic.runner import run_analytic

__all__ = [
    "AnalyticResult",
    "MeetingRate",
    "meeting_rate",
    "run_analytic",
]
