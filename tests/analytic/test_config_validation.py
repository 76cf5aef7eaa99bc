"""The analytic validity envelope: loud rejection, never silent ignoring.

Covers every `_validate_analytic` clause, the `build_scenario` guard, and
the chaos-sampler axis: widening the backend space to include
"analytic"/"hybrid" must only ever produce constructible, clean-running
cases (malformed combinations surface as ConfigurationError at
construction, not as crashes mid-run)."""

from __future__ import annotations

import pytest

from repro.chaos.runner import run_case
from repro.chaos.space import ChaosSpace, sample_case
from repro.errors import ConfigurationError
from repro.experiments.runner import build_scenario, run_scenario_safe
from repro.experiments.scenario import (
    ANALYTIC_BACKENDS,
    ANALYTIC_MOBILITIES,
    ANALYTIC_ROUTERS,
    ENGINE_BACKENDS,
)
from repro.faults.plan import FaultPlan
from tests.analytic.util import analytic_config


class TestEnvelope:
    @pytest.mark.parametrize("backend", ANALYTIC_BACKENDS)
    def test_backends_are_registered(self, backend):
        assert backend in ENGINE_BACKENDS
        analytic_config(backend=backend)  # constructs cleanly

    @pytest.mark.parametrize(
        "overrides",
        [
            {"router": "prophet"},
            {"router": "snf"},
            {"mobility": "stationary"},
            {"faults": FaultPlan(link_flap_rate=0.1)},
            {"sanitize": True},
            {"trace_capacity": 1024},
            {"snapshot_every": 100.0},
            {"with_buffer_report": True},
            {"metrics_warmup": 50.0},
            {"profile": True},
            {"engine_backend": "vector"},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_unsupported_features_rejected_at_construction(self, overrides):
        with pytest.raises(ConfigurationError) as excinfo:
            analytic_config(**overrides)
        if "engine_backend" in overrides:
            # An unknown backend (such as the removed "vector") is refused
            # with the list of accepted ones.
            assert str(ENGINE_BACKENDS) in str(excinfo.value)

    def test_disabled_fault_plan_is_allowed(self):
        # A plan with nothing enabled changes no numbers; only *enabled*
        # fault machinery is out of envelope.
        config = analytic_config(faults=FaultPlan())
        assert config.faults is not None and not config.faults.enabled

    def test_supported_routers_and_mobilities(self):
        for router in ANALYTIC_ROUTERS:
            analytic_config(router=router)
        for mobility in ANALYTIC_MOBILITIES:
            if mobility == "taxi":
                continue  # needs the calibrated estimator; covered elsewhere
            analytic_config(mobility=mobility)


class TestRunnerGuards:
    def test_build_scenario_refuses_analytic_backends(self):
        with pytest.raises(ConfigurationError, match="run_scenario"):
            build_scenario(analytic_config())

    def test_run_scenario_safe_dispatches_without_snapshots(self):
        summary = run_scenario_safe(analytic_config())
        assert summary.created > 0


class TestChaosAxis:
    SPACE = ChaosSpace(engine_backends=("scalar", "analytic", "hybrid"))

    def test_sampled_analytic_cases_construct_and_pass(self):
        """Every analytic/hybrid draw is coerced into the envelope and runs
        clean under the full oracle battery."""
        seen_analytic = 0
        for index in range(24):
            config = sample_case(self.SPACE, base_seed=2024, index=index)
            if config.engine_backend not in ANALYTIC_BACKENDS:
                continue
            seen_analytic += 1
            assert config.router in ANALYTIC_ROUTERS
            assert config.mobility in ANALYTIC_MOBILITIES
            assert config.faults is None
            assert not config.sanitize
            assert config.trace_capacity == 0
            result = run_case(config)
            assert result.ok, result.failure
            assert result.trace_jsonl is None
        # The backend axis is drawn uniformly: 24 draws over 3 backends
        # make an analytic-family case overwhelmingly likely.
        assert seen_analytic >= 3

    def test_default_space_corpus_mapping_is_preserved(self):
        """The default space must keep the historical (seed, index) ->
        case mapping: no analytic backends, identical draws."""
        default = ChaosSpace()
        assert default.engine_backends == ("scalar",)
        config = sample_case(default, base_seed=2024, index=0)
        assert config.engine_backend == "scalar"
