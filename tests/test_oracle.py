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
    _median_with_target,
    _merge_exchange,
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

    @pytest.mark.parametrize("base_price", [math.nan, math.inf])
    def test_non_finite_base_price_refused(self, base_price):
        # a NaN base price used to floor the report to 0.0
        with pytest.raises(ProtocolError, match="base price must be finite"):
            report_price(PriceFeed(0), 0, 0, base_price, np.random.default_rng(0))

    @pytest.mark.parametrize("field", ["mu", "sigma2", "strategy_value"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_feed_refused(self, field, value):
        with pytest.raises(ProtocolError, match=f"{field} must be finite"):
            PriceFeed(0, **{field: value})

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

    @pytest.mark.parametrize("reports", [[math.inf], [1.0, math.inf, math.inf], [math.nan]])
    def test_non_finite_median_refused(self, system, reports):
        # an infinite median used to raise OverflowError from Fraction(inf)
        with pytest.raises(ProtocolError, match="not finite"):
            oracle.update_vault_price(system, system.eth, reports)
        assert system.prices[system.eth] == 1

    def test_vault_price_needs_a_registered_token(self, system):
        # the price used to be written straight into system.prices
        with pytest.raises(ProtocolError, match="unknown token id 99"):
            oracle.update_vault_price(system, 99, [1.0, 2.0, 3.0])
        assert 99 not in system.prices

    @pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf, "nan", "-inf"],
                             ids=["nan", "inf", "-inf", "str-nan", "str-minus-inf"])
    def test_set_price_refuses_non_finite(self, system, price):
        # NaN used to escape as ValueError and +-inf as OverflowError
        with pytest.raises(ProtocolError, match="not finite"):
            system.set_price(system.eth, price)
        assert system.prices[system.eth] == 1


class TestTailExperiment:
    def test_corrupt_majority_refused(self):
        with pytest.raises(QuorumError):
            tail_probability_experiment(5, 3, 1.0, 2.0, 10**4, np.random.default_rng(0))

    def test_too_few_trials_refused(self):
        with pytest.raises(ProtocolError):
            tail_probability_experiment(5, 2, 1.0, 2.0, 100, np.random.default_rng(0))

    def test_feed_count_ceiling_checked_before_any_draw(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ProtocolError, match="feed count 65 is above the ceiling of 64"):
            tail_probability_experiment(65, 0, 1.0, 2.0, 10**4, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
        assert tail_probability_experiment(64, 31, 1.0, 2.0, 10**4, rng).trials == 10**4

    @pytest.mark.parametrize("n_corrupt, c", [(0, 0.1), (20, 0.05)])
    def test_chunks_are_bounded_and_give_one_draw(self, n_corrupt, c):
        class Recorder:  # the generator, with the size of each draw recorded
            def __init__(self):
                self.rng, self.sizes = np.random.default_rng(5), []

            def normal(self, loc, scale, size):
                self.sizes.append(size)
                return self.rng.normal(loc, scale, size)

        trials, honest = 20_000, 64 - n_corrupt
        rng = Recorder()
        est = tail_probability_experiment(64, n_corrupt, 1.0, c, trials, rng)
        assert len(rng.sizes) > 1
        assert max(math.prod(size) for size in rng.sizes) <= oracle.MAX_CHUNK_REPORTS
        base = 1000.0 + c
        reports = np.random.default_rng(5).normal(base, 1.0, size=(trials, honest))
        rows = np.hstack([reports, np.full((trials, n_corrupt), base + c)])
        expected = int(np.count_nonzero(np.abs(np.median(rows, axis=1) - base) > c))
        assert est.exceedances == expected > 0

    def test_deep_tail_is_rare(self):
        est = tail_probability_experiment(5, 2, 1.0, 5.0, 10**6, np.random.default_rng(1))
        assert est.empirical <= 1e-4

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

    def test_criterion_9_counts_pinned(self):
        rng = np.random.default_rng(99)
        counts = [
            tail_probability_experiment(5, 2, 1.0, c, 10**6, rng).exceedances
            for c in (2.0, 3.0, 4.0, 5.0)
        ]
        assert counts == [23, 0, 0, 0]

    def test_huge_sigma_has_a_finite_bound(self):
        # sigma_star**2 used to raise OverflowError above about 1.3e154
        assert tail_bound(5, 2, 1e200, 1.0) == pytest.approx(1e200 / math.sqrt(2 * math.pi))
        assert tail_bound(5, 2, 1e200, 1e200) == pytest.approx(
            math.exp(-1.5) / math.sqrt(2 * math.pi))
        est = tail_probability_experiment(5, 2, 1e200, 1.0, 10**4, np.random.default_rng(0))
        assert math.isfinite(est.bound) and 0.0 <= est.empirical <= 1.0

    def test_bound_bits_at_unit_sigma(self):
        # the values the CLI's default run reports
        assert [tail_bound(5, 2, 1.0, c) for c in (2.0, 3.0, 4.0, 5.0)] == [
            0.000494439522954646, 1.8231118141971048e-07, 3.765151959792317e-12,
            4.1294954327152956e-18]

    @pytest.mark.parametrize("sigma_star, c", [(1e306, 1.0), (1e305, 1.7e308), (1e300, 1e-10)])
    def test_out_of_range_is_refused(self, sigma_star, c):
        # the base price 1000 * sigma_star + |c| or the bound is not finite
        with pytest.raises(ProtocolError, match="too large|not finite"):
            tail_probability_experiment(5, 2, sigma_star, c, 10**4, np.random.default_rng(0))

    @pytest.mark.parametrize("field, value", [
        ("sigma_star", math.nan), ("sigma_star", math.inf),
        ("c", math.nan), ("c", math.inf), ("c", -math.inf),
    ])
    def test_non_finite_inputs_refused(self, field, value):
        # NaN used to pass every check and report NaN, within bound
        args = {"sigma_star": 1.0, "c": 2.0, field: value}
        with pytest.raises(ProtocolError, match=f"{field} must be finite"):
            tail_probability_experiment(
                5, 2, args["sigma_star"], args["c"], 10**4, np.random.default_rng(0),
            )


class TestMedianKernel:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_network_sorts_every_zero_one_input(self, n):
        # the 0-1 principle: a comparator network that sorts every 0-1
        # input sorts every input
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        cols = list(bits.T)
        for i, j in _merge_exchange(n):
            cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
        assert np.array_equal(np.stack(cols, axis=1), np.sort(bits, axis=1))

    def test_three_comparators_for_three_keys(self):
        assert _merge_exchange(3) == [(0, 2), (0, 1), (1, 2)]

    @pytest.mark.parametrize("n_feeds", range(1, 16))
    def test_bit_identical_to_np_median(self, n_feeds):
        rng = np.random.default_rng(n_feeds)
        for n_corrupt in range((n_feeds + 1) // 2):
            honest = n_feeds - n_corrupt
            normal = rng.normal(1000.0, 1.0, size=(500, honest))
            tied = rng.integers(998, 1003, size=(500, honest)).astype(float)
            for reports in (normal, tied):
                lo, hi = reports.min(), reports.max()
                # below, inside (tied with an honest report) and above the
                # honest range
                for target in (lo - 1.0, reports[0, 0], (lo + hi) / 2, hi + 1.0):
                    merged = np.hstack([reports, np.full((len(reports), n_corrupt), target)])
                    want = np.median(merged, axis=1)
                    got = _median_with_target(reports.T, n_corrupt, target)
                    assert got.tobytes() == want.tobytes(), (n_feeds, n_corrupt, target)
