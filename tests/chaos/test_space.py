"""Chaos search space: determinism, range discipline, fault-plan sampling."""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.chaos.space import ChaosSpace, describe_case, sample_case
from repro.rng import derive_seed
from tests.chaos.conftest import fast_space


class TestDeterminism:
    def test_same_seed_and_index_is_the_same_case(self):
        space = ChaosSpace()
        assert sample_case(space, 7, 3) == sample_case(space, 7, 3)

    def test_cases_vary_across_indices(self):
        space = ChaosSpace()
        cases = [sample_case(space, 7, i) for i in range(10)]
        assert len({c.seed for c in cases}) == 10
        assert len({(c.router, c.policy, c.n_nodes) for c in cases}) > 1

    def test_seed_is_derived_from_base_and_index(self):
        case = sample_case(ChaosSpace(), 42, 5)
        assert case.seed == derive_seed(42, "chaos", 5)
        assert case.name == "chaos-5"


class TestRanges:
    def test_every_draw_respects_the_space(self):
        space = ChaosSpace()
        for i in range(30):
            case = sample_case(space, 1, i)
            assert case.router in space.routers
            assert case.policy in space.policies
            assert case.mobility in space.mobilities
            assert space.n_nodes[0] <= case.n_nodes <= space.n_nodes[1]
            assert space.sim_time[0] <= case.sim_time <= space.sim_time[1]
            assert case.ttl in space.ttl_choices
            assert case.initial_copies in space.copies_choices
            lo, hi = case.interval_range
            assert space.interval_lo[0] <= lo <= space.interval_lo[1]
            assert lo < hi
            k = case.buffer_bytes // space.message_size
            assert space.buffer_messages[0] <= k <= space.buffer_messages[1]

    def test_cases_are_sanitizer_armed_and_traced(self):
        case = sample_case(ChaosSpace(), 3, 0)
        assert case.sanitize
        assert case.trace_capacity > 0

    def test_restricted_space_is_respected(self):
        space = fast_space()
        for i in range(10):
            case = sample_case(space, 2, i)
            assert case.router == "snw"
            assert case.policy == "fifo"

    def test_both_engine_backends_are_sampled(self):
        space = ChaosSpace(engine_backends=("scalar", "analytic"))
        backends = {sample_case(space, 6, i).engine_backend for i in range(30)}
        assert backends == {"scalar", "analytic"}

    def test_backend_axis_can_be_restricted(self):
        space = fast_space(engine_backends=("analytic",))
        for i in range(10):
            assert sample_case(space, 2, i).engine_backend == "analytic"

    def test_backend_draw_does_not_shift_earlier_axes(self):
        """The backend is drawn last: the draws before it must be unchanged
        from what a one-backend space would have produced, so pre-existing
        corpus entries keep their (seed, index) identity."""
        wide = ChaosSpace(engine_backends=("scalar", "analytic"))
        narrow = ChaosSpace()
        drawn = set()
        for i in range(15):
            a = sample_case(wide, 4, i)
            b = sample_case(narrow, 4, i)
            drawn.add(a.engine_backend)
            if a.engine_backend == "analytic":
                # Only the fields the analytic envelope coerces may differ.
                a = a.replace(
                    engine_backend="scalar", router=b.router,
                    mobility=b.mobility, faults=b.faults,
                    sanitize=b.sanitize, trace_capacity=b.trace_capacity,
                )
            assert a == b
        assert drawn == {"scalar", "analytic"}

    def test_seed_index_to_case_mapping_is_pinned(self):
        """Pins the (seed, index) -> case mapping the committed corpus
        relies on: adding, dropping or reordering a draw changes it."""
        records = [
            dataclasses.asdict(sample_case(ChaosSpace(), 7, i))
            for i in range(200)
        ]
        payload = json.dumps(records, sort_keys=True, default=str)
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
            "8973a423b595e0fe65f37babb13dd2efc4fe33a4390551245372bc7bc56d6f4f"
        )


class TestFaultPlans:
    def test_events_are_valid_and_time_sorted(self):
        for i in range(30):
            case = sample_case(ChaosSpace(), 9, i)
            plan = case.faults
            if plan is None or not plan.events:
                continue
            times = [e.time for e in plan.events]
            assert times == sorted(times)
            for event in plan.events:
                assert 0.0 <= event.time <= case.sim_time
                assert 0 <= event.node < case.n_nodes
            # The plan must survive build-time validation as sampled.
            plan.validate_for(case.sim_time, case.n_nodes)

    def test_some_cases_carry_no_faults(self):
        # With per-family probabilities < 1 the space must also produce
        # plain cases (the fuzzer's clean baseline for metamorphic checks).
        plans = [sample_case(ChaosSpace(), 5, i).faults for i in range(40)]
        assert any(p is None for p in plans)
        assert any(p is not None for p in plans)


class TestDescribe:
    def test_one_liner_mentions_the_essentials(self):
        case = sample_case(ChaosSpace(), 1, 4)
        line = describe_case(case)
        assert case.name in line
        assert case.router in line
        assert case.policy in line

    def test_no_fault_case_is_labelled(self):
        case = sample_case(ChaosSpace(), 5, 0).replace(faults=None)
        assert "no-faults" in describe_case(case)
