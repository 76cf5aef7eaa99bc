"""AnalyticResult rendering: RunSummary shape, timeseries schema, and the
service-cache byte-identity contract on repeat submission."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.analytic.runner import run_analytic
from repro.chaos.oracles import check_summary
from repro.chaos.runner import stable_summary
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import config_fingerprint
from repro.obs.timeseries import TimeSeriesCollector, read_timeseries_json
from repro.reports.summary import RunSummary
from repro.service.api import STATUS_DONE, STATUS_QUEUED, ScenarioService
from repro.service.cache import ResultCache
from tests.analytic.util import analytic_config


@pytest.fixture(scope="module")
def result():
    return run_analytic(analytic_config())


class TestSummary:
    def test_summary_is_a_consistent_run_summary(self, result):
        summary = result.summary()
        assert isinstance(summary, RunSummary)
        # The chaos summary oracle accepts analytic output as-is.
        assert check_summary(summary) is None
        assert summary.created > 0
        assert 0 < summary.delivered <= summary.created
        assert summary.relayed >= summary.delivered
        assert 0.0 < summary.delivery_ratio < 1.0
        assert summary.average_latency > 0.0
        assert summary.contacts > 0
        assert summary.mean_intermeeting == pytest.approx(
            1.0 / result.meeting.rate
        )

    def test_summary_record_round_trips(self, result):
        summary = result.summary()
        clone = RunSummary.from_record(summary.record())
        assert clone == summary

    def test_epidemic_and_direct_render_too(self):
        for router in ("epidemic", "direct"):
            summary = run_analytic(analytic_config(router=router)).summary()
            assert check_summary(summary) is None
            assert summary.created > 0
        # Direct delivery never relays beyond the delivery hop.
        direct = run_analytic(analytic_config(router="direct")).summary()
        assert direct.relayed == direct.delivered
        assert direct.average_hopcount == pytest.approx(1.0)

    def test_zero_window_horizon_yields_nan_latency(self):
        config = analytic_config(sim_time=600.0, ttl=1.0)
        summary = run_analytic(config).summary()
        assert summary.delivered == 0
        assert math.isnan(summary.average_latency)


class TestTimeseries:
    def test_export_parses_with_the_simulator_reader(self, result, tmp_path):
        path = tmp_path / "obs.json"
        result.write_timeseries(path)
        payload = read_timeseries_json(path)
        assert payload["columns"] == list(TimeSeriesCollector.column_names())
        samples = payload["samples"]
        assert samples["time"][-1] == pytest.approx(result.config.sim_time)
        # Counters are monotone and consistent at the horizon.
        for column in ("created", "delivered", "relayed"):
            series = samples[column]
            assert all(b >= a for a, b in zip(series, series[1:]))
        assert samples["delivered"][-1] == result.summary().delivered
        hist = payload["histograms"]["delivery_latency_s"]
        assert sum(hist["counts"]) == hist["n"] == result.summary().delivered

    def test_interval_override(self, result):
        payload = result.timeseries(interval=500.0)
        assert payload["interval"] == 500.0
        assert payload["samples"]["time"][0] == 500.0


class TestServiceCache:
    def test_repeat_evaluation_is_bit_identical(self, tmp_path):
        """Two independent evaluations differ only in wall-clock; pinning
        it makes the cache write the exact same bytes."""
        config = analytic_config()
        first = run_scenario(config)
        second = run_scenario(config)
        assert stable_summary(first) == stable_summary(second)

        cache = ResultCache(tmp_path / "cache")
        fingerprint = config_fingerprint(config)
        cache.put(fingerprint, first)
        blob = cache.get_bytes(fingerprint)
        cache.put(
            fingerprint,
            dataclasses.replace(second, wall_seconds=first.wall_seconds),
        )
        assert cache.get_bytes(fingerprint) == blob

    @pytest.mark.parametrize("backend", ["analytic", "hybrid"])
    def test_repeat_submission_serves_cached_bytes(self, tmp_path, backend):
        config = analytic_config(backend=backend)
        service = ScenarioService(
            tmp_path / "svc",
            workers=0,
            run_fn=run_scenario,
            sleep=lambda _s: None,
        )
        first = service.submit(config)
        assert first.status == STATUS_QUEUED
        assert service.drain()
        blob = service.cache.get_bytes(first.fingerprint)
        assert blob is not None

        again = service.submit(config)
        assert again.status == STATUS_DONE and again.cached
        assert service.cache.get_bytes(first.fingerprint) == blob
        served = service.result(again.job_id)
        assert isinstance(served, RunSummary)
        assert stable_summary(served) == stable_summary(run_scenario(config))
        service.close()
