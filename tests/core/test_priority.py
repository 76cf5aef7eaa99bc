"""The paper's equations (4-13): values, equivalences, monotonicity, peak."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import FORM_CLOSED, FORM_TAYLOR
from repro.core.priority import (
    PEAK_P_R,
    delivery_probability,
    exponent_coefficient,
    p_delivered,
    p_remaining,
    priority_closed_form,
    priority_from_probabilities,
    priority_taylor,
    sdsrp_priority,
)
from repro.errors import ConfigurationError
from repro.rng import RngFactory

N = 100
LAM = 1e-4

# Strategy producing sensible (C, R, m, n) operating points.
points = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16, 32, 64]),  # C_i
    st.floats(min_value=1.0, max_value=20_000.0),  # R_i
    st.integers(min_value=0, max_value=N - 1),  # m_i
    st.integers(min_value=1, max_value=N - 1),  # n_i
)


class TestExponentCoefficient:
    def test_single_copy_reduces_to_remaining_ttl(self):
        # C=1: log2(C)=0, so A = R exactly.
        assert exponent_coefficient(1, 1234.0, LAM, N) == pytest.approx(1234.0)

    def test_hand_computed_value(self):
        # C=4: A = 3R - 2*3/(2*99*lam)
        expected = 3 * 1000.0 - 6 / (2 * 99 * LAM)
        assert exponent_coefficient(4, 1000.0, LAM, N) == pytest.approx(expected)

    def test_negative_for_tiny_ttl_and_many_copies(self):
        assert exponent_coefficient(64, 0.1, LAM, N) < 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            exponent_coefficient(1, 100.0, 0.0, N)
        with pytest.raises(ConfigurationError):
            exponent_coefficient(0.5, 100.0, LAM, N)
        with pytest.raises(ConfigurationError):
            exponent_coefficient(1, 100.0, LAM, 1)

    def test_vectorized(self):
        out = exponent_coefficient(np.array([1, 4]), np.array([100.0, 100.0]),
                                   LAM, N)
        assert out.shape == (2,)


class TestEq5:
    def test_fraction_of_seen(self):
        assert p_delivered(0, N) == 0.0
        assert p_delivered(99, N) == 1.0
        assert p_delivered(33, N) == pytest.approx(33 / 99)

    def test_clipped_against_overestimates(self):
        assert p_delivered(500, N) == 1.0


class TestEq6:
    def test_in_unit_interval_for_positive_coefficient(self):
        pr = p_remaining(8, 10_000.0, 5, LAM, N)
        assert 0.0 < float(pr) < 1.0

    def test_more_holders_increase_p_remaining(self):
        lo = p_remaining(8, 5_000.0, 1, LAM, N)
        hi = p_remaining(8, 5_000.0, 20, LAM, N)
        assert float(hi) > float(lo)

    def test_longer_ttl_increases_p_remaining(self):
        lo = p_remaining(8, 1_000.0, 5, LAM, N)
        hi = p_remaining(8, 10_000.0, 5, LAM, N)
        assert float(hi) > float(lo)

    def test_negative_when_expired(self):
        # R < 0 gives a (meaningless but finite) negative probability that
        # still ranks expired messages at the bottom.
        assert float(p_remaining(1, -100.0, 1, LAM, N)) < 0.0


class TestEq7:
    def test_combines_both_terms(self):
        pt = float(p_delivered(33, N))
        pr = float(p_remaining(8, 5_000.0, 4, LAM, N))
        expected = pt + (1 - pt) * pr
        got = float(delivery_probability(8, 5_000.0, 33, 4, LAM, N))
        assert got == pytest.approx(expected)

    def test_already_delivered_dominates(self):
        assert float(delivery_probability(1, 100.0, 99, 1, LAM, N)) == 1.0


class TestEq10And11Equivalence:
    @given(points)
    def test_closed_form_equals_probability_form(self, point):
        c, r, m, n = point
        u10 = float(priority_closed_form(c, r, m, n, LAM, N))
        pt = float(p_delivered(m, N))
        pr = float(p_remaining(c, r, n, LAM, N))
        u11 = float(priority_from_probabilities(pt, pr, n))
        # Eq. 11 carries a 1/n_i factor; Eq. 10's λA e^{-λnA} equals
        # (P(R)-1) ln(1-P(R)) / n — same quantity.  Tolerance is loose
        # because 1-P(R) suffers catastrophic cancellation near saturation.
        assert u10 == pytest.approx(u11, rel=1e-5, abs=1e-12)

    def test_hand_computed_point(self):
        # C=1, R s.t. lam*n*A = 1 -> P(R) = 1 - 1/e (the peak, Eq. 12).
        n = 2
        r = 1.0 / (LAM * n)
        u = float(priority_closed_form(1, r, 0, n, LAM, N))
        # At the peak: U = lam * A * e^{-1} = (1/n) e^{-1}
        assert u == pytest.approx(np.exp(-1.0) / n)


class TestMonotonicity:
    @given(points)
    def test_priority_decreases_with_p_delivered(self, point):
        c, r, m, n = point
        if m + 5 > N - 1:
            m = N - 6
        lo = float(priority_closed_form(c, r, m, n, LAM, N))
        hi = float(priority_closed_form(c, r, m + 5, n, LAM, N))
        # "higher delivered probability leads to lower priority"
        if lo > 0:
            assert hi <= lo + 1e-12

    @given(points)
    def test_more_holders_lower_priority_for_positive_coeff(self, point):
        c, r, m, n = point
        coeff = float(exponent_coefficient(c, r, LAM, N))
        if coeff <= 0 or n + 5 > N - 1:
            return
        lo = float(priority_closed_form(c, r, m, n + 5, LAM, N))
        hi = float(priority_closed_form(c, r, m, n, LAM, N))
        assert lo <= hi + 1e-12


class TestPeak:
    def test_peak_of_eq11_at_1_minus_1_over_e(self):
        p_r = np.linspace(0.0, 0.9999, 20001)
        u = priority_from_probabilities(0.0, p_r, 1.0)
        peak = p_r[int(np.argmax(u))]
        assert peak == pytest.approx(PEAK_P_R, abs=1e-3)

    def test_rising_then_falling(self):
        u_low = float(priority_from_probabilities(0.0, 0.2, 1.0))
        u_peak = float(priority_from_probabilities(0.0, PEAK_P_R, 1.0))
        u_high = float(priority_from_probabilities(0.0, 0.95, 1.0))
        assert u_peak > u_low and u_peak > u_high

    def test_limit_at_certainty_is_zero(self):
        assert float(priority_from_probabilities(0.0, 1.0, 1.0)) == 0.0


class TestEq13Taylor:
    @given(
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=1, max_value=20),
    )
    def test_converges_to_eq11_from_below(self, p_r, p_t, terms):
        exact = float(priority_from_probabilities(p_t, p_r, 1.0))
        approx = float(priority_taylor(p_t, p_r, 1.0, terms=terms))
        better = float(priority_taylor(p_t, p_r, 1.0, terms=terms + 10))
        assert approx <= exact + 1e-12  # truncation underestimates
        assert abs(better - exact) <= abs(approx - exact) + 1e-12

    def test_high_term_count_matches_closely(self):
        p_r = np.linspace(0.0, 0.9, 50)
        exact = priority_from_probabilities(0.1, p_r, 2.0)
        approx = priority_taylor(0.1, p_r, 2.0, terms=200)
        assert np.allclose(exact, approx, atol=1e-8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            priority_taylor(0.0, 0.5, 1.0, terms=0)


class TestNumericalRobustness:
    def test_huge_exponents_do_not_overflow(self):
        u = priority_closed_form(64, 1e9, 0, 99, 1e-3, N)
        assert np.isfinite(u)
        u = priority_closed_form(64, -1e9, 0, 99, 1e-3, N)
        assert np.isfinite(u)

    def test_vectorized_batch_matches_scalars(self):
        c = np.array([1, 4, 16, 64])
        r = np.array([100.0, 5_000.0, 10_000.0, 30.0])
        m = np.array([0, 10, 50, 98])
        n = np.array([1, 3, 9, 2])
        batch = priority_closed_form(c, r, m, n, LAM, N)
        for i in range(4):
            single = float(
                priority_closed_form(int(c[i]), float(r[i]), int(m[i]),
                                     int(n[i]), LAM, N)
            )
            assert batch[i] == pytest.approx(single)


class TestEq12PeakCondition:
    """Eq. 12: messages whose expected destination-encounter time equals the
    spray-adjusted TTL budget sit exactly at the P(R) = 1 - 1/e peak."""

    @pytest.mark.parametrize("c_i", [1, 2, 8, 32])
    @pytest.mark.parametrize("n_i", [1, 3, 10])
    def test_solving_eq12_lands_on_the_peak(self, c_i, n_i):
        k = np.log2(c_i)
        e_min = 1.0 / ((N - 1) * LAM)
        # Eq. 12: 1/(lam n) = (k+1) R - E(I_min) k(k+1)/2  ->  solve for R.
        r = (1.0 / (LAM * n_i) + e_min * k * (k + 1) / 2.0) / (k + 1.0)
        pr = float(p_remaining(c_i, r, n_i, LAM, N))
        assert pr == pytest.approx(PEAK_P_R, rel=1e-9)
        # And the priority there beats nearby R on both sides.
        u_peak = float(priority_closed_form(c_i, r, 0, n_i, LAM, N))
        u_lo = float(priority_closed_form(c_i, r * 0.5, 0, n_i, LAM, N))
        u_hi = float(priority_closed_form(c_i, r * 2.0, 0, n_i, LAM, N))
        assert u_peak > u_lo and u_peak > u_hi


class TestSdsrpPriority:
    """One entry point, scalars or arrays: an array call must equal the
    per-element scalar calls of the underlying equations to the last bit
    (the Fig. 4 curves make array calls, the policy scalar ones)."""

    SEEDS = (0, 1, 2, 3, 4)

    def sample(self, seed, size):
        rng = RngFactory(seed).stream("tests.core.priority")
        copies = rng.integers(1, 33, size=size)
        remaining = rng.uniform(0.0, 18000.0, size=size)
        m_seen = rng.integers(0, 10, size=size)
        n_holders = np.maximum(1, m_seen + 1 - rng.integers(0, 3, size=size))
        return copies, remaining, m_seen, n_holders

    @pytest.mark.parametrize("seed", SEEDS)
    def test_closed_form_is_bit_identical_to_scalar(self, seed):
        copies, remaining, m_seen, n_holders = self.sample(seed, 200)
        lam, n_nodes = 0.0004, 100
        batch = sdsrp_priority(
            copies, remaining, m_seen, n_holders, lam, n_nodes,
            form=FORM_CLOSED,
        )
        scalar = [
            float(priority_closed_form(
                int(c), float(r), int(m), int(n), lam, n_nodes
            ))
            for c, r, m, n in zip(copies, remaining, m_seen, n_holders)
        ]
        assert batch.tolist() == scalar  # exact, not approx

    @pytest.mark.parametrize("seed", SEEDS)
    def test_taylor_form_is_bit_identical_to_scalar(self, seed):
        copies, remaining, m_seen, n_holders = self.sample(seed, 200)
        lam, n_nodes, terms = 0.0004, 100, 8
        batch = sdsrp_priority(
            copies, remaining, m_seen, n_holders, lam, n_nodes,
            form=FORM_TAYLOR, taylor_terms=terms,
        )
        scalar = []
        for c, r, m, n in zip(copies, remaining, m_seen, n_holders):
            pt = p_delivered(int(m), n_nodes)
            pr = p_remaining(int(c), float(r), int(n), lam, n_nodes)
            scalar.append(float(priority_taylor(pt, pr, int(n), terms=terms)))
        assert batch.tolist() == scalar

    def test_empty_batch(self):
        empty = np.empty(0)
        out = sdsrp_priority(empty, empty, empty, empty, 0.001, 10)
        assert out.size == 0
