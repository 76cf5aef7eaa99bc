"""The backend-identity oracle: scalar vs vector divergence is a finding.

Mutation-style coverage for the cross-backend metamorphic check: a healthy
simulator passes it silently, while a deliberately broken batched ranking —
the only code the vector backend runs and the scalar one does not — is
caught, verified by its own cross-backend replay (not downgraded to a
failure-replay record) and written to the corpus as a replayable
backend-identity entry.  The cases use SDSRP, a batchable policy, so the
batched ranking is reached at all.
"""

from __future__ import annotations

from repro.chaos.corpus import load_corpus, replay_reproduces
from repro.chaos.fuzzer import fuzz
from repro.chaos.oracles import ORACLE_BACKEND
from repro.chaos.runner import check_backend_identity
from repro.core.sdsrp import SdsrpPolicy
from repro.routing.base import Router
from tests.chaos.conftest import fast_space, tiny_case


def break_vector_ranking(monkeypatch):
    """Make the batched SDSRP ranking (vector backend only) rank every
    buffer backwards, and batch even one-message buffers."""
    real = SdsrpPolicy.priorities

    def backwards(self, messages, now):
        return [-value for value in real(self, messages, now)]

    monkeypatch.setattr(SdsrpPolicy, "priorities", backwards)
    monkeypatch.setattr(Router, "batch_min_messages", 1)


class TestCheckBackendIdentity:
    def test_healthy_case_passes_both_directions(self):
        for backend in ("scalar", "vector"):
            case = tiny_case(engine_backend=backend, policy="sdsrp")
            assert check_backend_identity(case) is None

    def test_broken_vector_kernel_is_detected(self, monkeypatch):
        break_vector_ranking(monkeypatch)
        failure = check_backend_identity(
            tiny_case(engine_backend="vector", policy="sdsrp")
        )
        assert failure is not None
        assert failure.oracle == ORACLE_BACKEND
        assert failure.invariant == "backend-identity"


class TestFuzzCampaign:
    def test_healthy_campaign_counts_the_oracle_and_stays_clean(self):
        report = fuzz(
            4,
            seed=1201,
            space=fast_space(policies=("sdsrp",)),
            metamorphic_every=1,
            shrink_failures=False,
        )
        assert report.checks.get(ORACLE_BACKEND, 0) == 4
        assert report.ok, [f.failure.as_dict() for f in report.findings]

    def test_broken_vector_engine_is_found_and_recorded(
        self, monkeypatch, tmp_path
    ):
        break_vector_ranking(monkeypatch)
        report = fuzz(
            4,
            seed=1201,
            space=fast_space(policies=("sdsrp",)),
            corpus_dir=str(tmp_path),
            metamorphic_every=1,
            shrink_failures=False,
        )
        findings = [
            f for f in report.findings if f.failure.oracle == ORACLE_BACKEND
        ]
        assert findings, "no backend-identity finding on a broken engine"
        # Verified by the cross-backend replay, not downgraded.
        assert all(f.replay_confirmed for f in findings)
        entries = load_corpus(tmp_path)
        assert any(
            e["failure"]["oracle"] == ORACLE_BACKEND for _, e in entries
        )
        # ... and with the engine still broken, the entry reproduces.
        for _, entry in entries:
            if entry["failure"]["oracle"] == ORACLE_BACKEND:
                assert replay_reproduces(entry)
