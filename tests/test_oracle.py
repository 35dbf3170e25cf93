import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crocodai import oracle
from crocodai.errors import ProtocolError, QuorumError, StalePriceError
from crocodai.oracle import (
    FIXED_TARGET,
    SILENT,
    PriceFeed,
    medianize,
    report_price,
    tail_bound,
    tail_probability_experiment,
)


class TestReportPrice:
    def test_zero_noise_limit(self):
        feed = PriceFeed(0, mu=0.0, sigma2=1e-30)
        rng = np.random.default_rng(0)
        assert report_price(feed, 0, 0, 1500.0, rng) == pytest.approx(1500.0, abs=1e-9)

    def test_fixed_target_ignores_base(self):
        feed = PriceFeed(1, honest=False, strategy=FIXED_TARGET, strategy_value=0.0)
        rng = np.random.default_rng(0)
        assert report_price(feed, 0, 0, 1500.0, rng) == 0.0
        assert report_price(feed, 0, 0, 3.0, rng) == 0.0

    def test_silent_returns_none(self):
        feed = PriceFeed(1, honest=False, strategy=SILENT)
        assert report_price(feed, 0, 0, 10.0, np.random.default_rng(0)) is None

    def test_deterministic_replay(self):
        feed = PriceFeed(0, mu=0.1, sigma2=4.0)
        a = report_price(feed, 0, 0, 100.0, np.random.default_rng(42))
        b = report_price(feed, 0, 0, 100.0, np.random.default_rng(42))
        assert a == b

    def test_negative_reports_floored(self):
        feed = PriceFeed(0, mu=-1000.0, sigma2=1.0)
        assert report_price(feed, 0, 0, 1.0, np.random.default_rng(0)) == 0.0

    def test_base_price_must_be_positive(self):
        with pytest.raises(ProtocolError):
            report_price(PriceFeed(0), 0, 0, 0.0, np.random.default_rng(0))

    def test_per_token_noise_overrides(self):
        feed = PriceFeed(0, mu=0.0, sigma2=1.0, per_token={7: (50.0, 1e-30)})
        rng = np.random.default_rng(0)
        assert report_price(feed, 7, 0, 100.0, rng) == pytest.approx(150.0, abs=1e-9)


class TestMedianize:
    def test_resists_high_outliers(self):
        assert medianize([0.9, 1.0, 1.1, 100.0, 100.0]) == 1.1

    def test_single_report(self):
        assert medianize([1.0]) == 1.0

    def test_even_count_mean_of_middle(self):
        assert medianize([1.0, 2.0]) == 1.5
        assert medianize([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_empty_is_stale(self):
        with pytest.raises(StalePriceError):
            medianize([])

    @given(
        st.lists(st.floats(0, 1e6), min_size=3, max_size=9),
        st.lists(st.floats(-1e9, 1e9), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_median_stays_within_honest_interval(self, honest, corrupt):
        # with a strict minority of corrupt reports the median cannot leave
        # the closed interval spanned by the honest ones
        corrupt = corrupt[: (len(honest) - 1) // 2]
        med = medianize(honest + corrupt)
        assert min(honest) <= med <= max(honest)


class TestVaultPriceUpdates:
    def test_update_and_staleness(self, system):
        assert oracle.update_vault_price(system, system.eth, [1.0, 1.2, 1.1]) == 1.1
        assert float(system.prices[system.eth]) == 1.1


class TestTailExperiment:
    def test_corrupt_majority_refused(self):
        with pytest.raises(QuorumError):
            tail_probability_experiment(5, 3, 1.0, 2.0, 10**4, np.random.default_rng(0))

    def test_too_few_trials_refused(self):
        with pytest.raises(ProtocolError):
            tail_probability_experiment(5, 2, 1.0, 2.0, 100, np.random.default_rng(0))

    def test_deep_tail_is_rare(self):
        est = tail_probability_experiment(5, 2, 1.0, 5.0, 10**6, np.random.default_rng(1))
        assert est.empirical <= 1e-4

    def test_degenerate_threshold_with_far_target(self):
        # a far fixed target drags the median onto an honest extreme, so any
        # noise at all crosses a zero threshold
        est = tail_probability_experiment(
            5, 2, 1.0, 1e-12, 10**4, np.random.default_rng(2), corrupt_target=10_000.0
        )
        assert est.empirical > 0.99

    def test_exceedance_below_bound_for_c_at_least_two_sigma(self):
        rng = np.random.default_rng(3)
        previous = 1.0
        for c in (2.0, 2.5, 3.0):
            est = tail_probability_experiment(5, 2, 1.0, c, 2 * 10**5, rng)
            assert est.empirical <= est.bound
            assert est.empirical <= previous
            previous = est.empirical

    def test_log_exceedance_decreasing_in_c_squared(self):
        rng = np.random.default_rng(4)
        points = []
        for c in (0.5, 1.0, 1.5):
            est = tail_probability_experiment(5, 2, 1.0, c, 2 * 10**5, rng)
            if est.empirical > 0:
                points.append((c * c, math.log(est.empirical)))
        assert len(points) >= 2
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            assert x1 > x0 and y1 < y0

    def test_more_honest_feeds_reduce_exceedance(self):
        # grow the honest set at a fixed corrupt count; tested on a seed
        # schedule with wide spacing (far beyond 3 sigma of the estimates)
        c = 1.0
        small = [
            tail_probability_experiment(5, 2, 1.0, c, 10**5, np.random.default_rng(s)).empirical
            for s in range(5)
        ]
        large = [
            tail_probability_experiment(9, 2, 1.0, c, 10**5, np.random.default_rng(s)).empirical
            for s in range(5)
        ]
        assert np.mean(large) < np.mean(small)

    def test_bound_formula(self):
        # exp(-(O-O') c^2 / (2 sigma^2)) / (c sqrt(2 pi) / sigma)
        got = tail_bound(5, 2, 1.0, 2.0)
        assert got == pytest.approx(math.exp(-6.0) / (2.0 * math.sqrt(2 * math.pi)))
        got = tail_bound(7, 1, 2.0, 3.0)
        assert got == pytest.approx(math.exp(-6 * 9 / 8) * 2.0 / (3.0 * math.sqrt(2 * math.pi)))
