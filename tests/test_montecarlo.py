import numpy as np
import pytest
from scipy import stats

from crocodai.errors import DataError, ModelError
from crocodai.montecarlo import (
    Portfolio,
    confidence_interval,
    historical_replay,
    simulate_failure,
    table_sweep,
)
from crocodai.riskmodel import NORMAL, STUDENT_T, PriceSeries, ReturnModel, cholesky


def toy_model(cov, nu=5.0, mu=None, names=None):
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    m = len(cov)
    return ReturnModel(
        assets=names or [f"A{i}" for i in range(m)],
        mu=np.zeros(m) if mu is None else np.asarray(mu, dtype=float),
        cov=cov,
        chol=cholesky(cov),
        nu=np.full(m, float(nu)),
        n_obs=1000,
    )


class TestPortfolio:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DataError):
            Portfolio("bad", ("A", "B"), np.array([0.6, 0.6]))

    def test_no_negative_weights(self):
        with pytest.raises(DataError):
            Portfolio("bad", ("A", "B"), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            Portfolio("bad", ("A", "B"), np.array([bad, 0.5]))

    def test_zero_total_weights_rejected(self):
        # the all-zero basket used to normalise to [nan nan] and never fail
        with pytest.raises(DataError, match="positive, finite total"):
            Portfolio.from_weights("p", {"A": 0.0, "B": 0.0})

    def test_scale_invariance_of_amounts(self):
        a = Portfolio.from_amounts("p", {"A": 10.0, "B": 30.0})
        b = Portfolio.from_amounts("p", {"A": 1000.0, "B": 3000.0})
        assert np.array_equal(a.weights, b.weights)


class TestConfidenceInterval:
    def test_zero_failures_degenerate(self):
        assert confidence_interval(0, 1000) == 0.0

    def test_half_at_ten_thousand(self):
        assert confidence_interval(5000, 10**4) == pytest.approx(0.0098, abs=1e-4)

    def test_single_run(self):
        assert confidence_interval(0, 1) == 0.0
        assert confidence_interval(1, 1) == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            confidence_interval(5, 4)


class TestSimulateFailure:
    def test_zero_volatility_never_fails(self):
        model = toy_model(np.zeros((1, 1)))
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        est = simulate_failure(p, model, 1.2, 1.1, horizon=50, runs=3000, seed=0)
        assert est.probability == 0.0 and est.failures == 0

    @pytest.mark.parametrize("distribution", [NORMAL, STUDENT_T])
    def test_single_slot_matches_cdf_oracle(self, distribution):
        sigma, nu = 0.08, 5.0
        model = toy_model([[sigma**2]], nu=nu)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        q = np.log(1.1 / 1.2)  # log of the failure threshold theta/gamma'
        if distribution == NORMAL:
            expected = stats.norm.cdf(q / sigma)
        else:
            expected = stats.t.cdf(q * np.sqrt(nu / (nu - 2.0)) / sigma, nu)
        est = simulate_failure(
            p, model, 1.2, 1.1, horizon=1, runs=10**5, distribution=distribution, seed=3
        )
        assert abs(est.probability - expected) <= 3 * est.ci_half_width

    def test_perfectly_correlated_pair_matches_single_asset(self):
        s2 = 0.08**2
        model = toy_model([[s2, s2], [s2, s2]])
        pair = Portfolio("pair", ("A0", "A1"), np.array([0.5, 0.5]))
        solo = Portfolio("solo", ("A0",), np.array([1.0]))
        a = simulate_failure(pair, model, 1.2, 1.1, 1, 20_000, NORMAL, seed=4)
        b = simulate_failure(solo, model, 1.2, 1.1, 1, 20_000, NORMAL, seed=4)
        assert a.failures == b.failures

    def test_unknown_asset_rejected(self):
        model = toy_model(np.eye(1) * 0.01)
        p = Portfolio("ghost", ("NOPE",), np.array([1.0]))
        with pytest.raises(ModelError):
            simulate_failure(p, model, 1.2, 1.1, 10, 100)

    def test_levels_validated(self):
        model = toy_model(np.eye(1) * 0.01)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        with pytest.raises(DataError):
            simulate_failure(p, model, 1.1, 1.2, 10, 100)

    @pytest.mark.parametrize("horizon, runs", [(0, 100), (10, 0), (-1, 100)])
    def test_horizon_and_runs_validated(self, horizon, runs):
        model = toy_model(np.eye(1) * 0.01)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        with pytest.raises(DataError):
            simulate_failure(p, model, 1.2, 1.1, horizon, runs)

    def test_is_the_one_cell_of_a_table_sweep(self):
        model = toy_model(np.eye(2) * 0.02**2, nu=4.0)
        p = Portfolio("pair", ("A0", "A1"), np.array([0.3, 0.7]))
        est = simulate_failure(p, model, 1.3, 1.1, 24, 3000, NORMAL, seed=2, zero_drift=True)
        sweep = table_sweep([p], [1.3], model, 1.1, 24, 3000, NORMAL, seed=2, zero_drift=True)
        assert est == sweep.estimates[(1.3, "pair")]

    def test_seed_determinism_and_parallel_merge(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3)) * 0.02
        model = toy_model(a @ a.T, nu=4.0)
        p = Portfolio("eq", tuple(model.assets), np.ones(3) / 3)
        one = simulate_failure(p, model, 1.2, 1.1, 48, 5000, seed=9, jobs=1)
        two = simulate_failure(p, model, 1.2, 1.1, 48, 5000, seed=9, jobs=1)
        par = simulate_failure(p, model, 1.2, 1.1, 48, 5000, seed=9, jobs=3)
        assert one.failures == two.failures == par.failures

    def test_t_with_high_dof_matches_normal(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2)) * 0.03
        cov = a @ a.T + 1e-4 * np.eye(2)
        model = toy_model(cov, nu=200.0)
        p = Portfolio("eq", tuple(model.assets), np.array([0.5, 0.5]))
        t_est = simulate_failure(p, model, 1.2, 1.1, 24, 20_000, STUDENT_T, seed=5)
        n_est = simulate_failure(p, model, 1.2, 1.1, 24, 20_000, NORMAL, seed=6)
        assert abs(t_est.probability - n_est.probability) <= (
            t_est.ci_half_width + n_est.ci_half_width
        )


class TestHistoricalReplay:
    def test_constant_series_never_fails(self):
        s = PriceSeries("X", np.arange(50) * 300, np.full(50, 7.0))
        p = Portfolio("solo", ("X",), np.array([1.0]))
        est = historical_replay(p, {"X": s}, 1.3, 1.1, horizon=10)
        assert est.probability == 0.0

    def test_gamma_prime_equal_theta_fails_at_start(self):
        # threshold is 1 and the window-start ratio is exactly 1 (<= rule)
        s = PriceSeries("X", np.arange(30) * 300, np.linspace(5, 6, 30))
        p = Portfolio("solo", ("X",), np.array([1.0]))
        est = historical_replay(p, {"X": s}, 1.1, 1.1, horizon=5)
        assert est.probability == 1.0

    def test_single_drawdown_fails_exactly_covering_windows(self):
        # one 15% dip at index 40 with threshold drop 1 - theta/gamma' ~ 8.3%:
        # exactly the windows whose span contains index 40 fail
        prices = np.full(100, 100.0)
        prices[40] = 85.0
        s = PriceSeries("X", np.arange(100) * 300, prices)
        p = Portfolio("solo", ("X",), np.array([1.0]))
        horizon = 12
        est = historical_replay(p, {"X": s}, 1.2, 1.1, horizon=horizon)
        starts = range(0, 100 - horizon)
        covering = [t for t in starts if t <= 40 <= t + horizon and t != 40]
        # a window starting exactly at the dip rebases on the dip price
        assert est.failures == len(covering)

    def test_insufficient_data(self):
        s = PriceSeries("X", np.arange(5) * 300, np.full(5, 3.0))
        p = Portfolio("solo", ("X",), np.array([1.0]))
        with pytest.raises(DataError):
            historical_replay(p, {"X": s}, 1.2, 1.1, horizon=10)

    def test_windows_never_span_periods(self):
        times = np.concatenate([np.arange(8) * 300, 10**6 + np.arange(8) * 300])
        prices = np.concatenate([np.full(8, 10.0), np.full(8, 1.0)])  # cliff at the gap
        s = PriceSeries("X", times, prices, boundaries=frozenset({8}))
        p = Portfolio("solo", ("X",), np.array([1.0]))
        est = historical_replay(p, {"X": s}, 1.2, 1.1, horizon=5)
        assert est.probability == 0.0  # the 90% drop is hidden behind the boundary


def reference_replay(portfolio, series_map, gamma_prime, theta, horizon):
    """(failures, windows) by the one-window-at-a-time loop that the blocked
    replay replaced, on its own common timeline and gap cuts."""
    assets = portfolio.assets
    common = series_map[assets[0]].times
    for a in assets[1:]:
        common = np.intersect1d(common, series_map[a].times, assume_unique=True)
    panel = np.array([series_map[a].prices[np.searchsorted(series_map[a].times, common)]
                      for a in assets])
    cuts = [0, *(np.nonzero(np.diff(common) > 2 * 300)[0] + 1).tolist(), len(common)]
    failures = windows = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        for start in range(a, b - horizon):
            seg = panel[:, start : start + horizon + 1]
            rel = portfolio.weights @ (seg / seg[:, :1])
            windows += 1
            failures += int(rel.min() <= theta / gamma_prime)
    return failures, windows


def two_period_series(first=700, second=400, seed=3):
    """Three assets on 5-minute slots with a 50-minute gap after `first`
    slots; asset C misses one slot, which the common timeline drops."""
    times = np.concatenate([np.arange(first), first + 10 + np.arange(second)]) * 300
    rng = np.random.default_rng(seed)
    out = {}
    for k, name in enumerate("ABC"):
        steps = rng.standard_t(3.0, len(times)) * 0.01 * (k + 1)
        keep = np.arange(len(times)) != (250 if name == "C" else -1)
        out[name] = PriceSeries(name, times[keep], 50.0 * np.exp(np.cumsum(steps))[keep])
    return out


class TestBlockedReplay:
    """Replay weighs many windows per numpy call; every count must be the one
    the per-window loop gives. That includes gamma' = theta, where the
    threshold is 1 and a window fails on its start slot exactly when the
    weights' float sum is at most 1: 0.33 + 0.56 + 0.11 is 1 + 2**-52 in
    this order and 1 in the reverse one."""

    @pytest.mark.parametrize("horizon", [1, 24, 300])
    @pytest.mark.parametrize("weights", [(0.1, 0.2, 0.7), (0.33, 0.56, 0.11), (0.0, 1.0, 0.0)])
    def test_equals_per_window_loop(self, horizon, weights):
        series = two_period_series()
        p = Portfolio("mix", ("A", "B", "C"), np.array(weights))
        for g in (1.1, 1.15, 1.2, 1.3, 1.5):
            est = historical_replay(p, series, g, 1.1, horizon)
            assert (est.failures, est.runs) == reference_replay(p, series, g, 1.1, horizon)
        # the 699-slot first period (C misses one) holds more than one block of starts
        assert est.runs == (699 - horizon) + max(400 - horizon, 0)

    def test_gamma_prime_equal_theta_depends_on_the_weight_sum(self):
        series = two_period_series()
        p = Portfolio("mix", ("A", "B", "C"), np.array([0.33, 0.56, 0.11]))
        est = historical_replay(p, series, 1.1, 1.1, 24)
        assert 0 < est.failures < est.runs  # windows that only rise do not fail
        assert (est.failures, est.runs) == reference_replay(p, series, 1.1, 1.1, 24)

    def test_window_ending_at_a_period_cut(self):
        # flat prices but a 20% dip on the last slot of the first period: only
        # the one window that ends exactly there sees it
        times = np.concatenate([np.arange(40), 50 + np.arange(40)]) * 300
        prices = np.full(80, 10.0)
        prices[39] = 8.0
        series = {"X": PriceSeries("X", times, prices), "Y": PriceSeries("Y", times, np.full(80, 3.0))}
        p = Portfolio("solo", ("X",), np.array([1.0]))
        est = historical_replay(p, series, 1.2, 1.1, horizon=12)
        assert (est.failures, est.runs) == (1, 2 * (40 - 12))
        assert (est.failures, est.runs) == reference_replay(p, series, 1.2, 1.1, 12)
        both = Portfolio("both", ("X", "Y"), np.array([0.5, 0.5]))  # 10% drop: 0.9 <= 11/12
        assert historical_replay(both, series, 1.2, 1.1, 12).failures == 1


class TestTableSweep:
    def sweep(self, runs=20_000, crn=True):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3)) * 0.02
        model = toy_model(a @ a.T, nu=4.0)
        ps = [
            Portfolio("eq", tuple(model.assets), np.ones(3) / 3),
            Portfolio("solo", ("A0",), np.array([1.0])),
        ]
        return table_sweep(
            ps, [1.2, 1.3, 1.4, 1.5], model, 1.1, horizon=48, runs=runs,
            seed=5, common_random_numbers=crn,
        )

    def test_single_cell(self):
        model = toy_model(np.eye(1) * 1e-4)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        res = table_sweep([p], [1.2], model, 1.1, horizon=5, runs=500, seed=1)
        assert set(res.estimates) == {(1.2, "solo")}

    def test_monotone_in_gamma_prime_under_crn(self):
        res = self.sweep()
        for name in res.portfolios:
            probs = [res.estimates[(g, name)].probability for g in res.gamma_primes]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_same_seed_identical_table(self):
        a, b = self.sweep(runs=5000), self.sweep(runs=5000)
        assert a.to_csv() == b.to_csv()

    def test_csv_layout(self):
        res = self.sweep(runs=2000)
        lines = res.to_csv().strip().splitlines()
        assert lines[0] == "gamma_prime,eq,solo"
        assert len(lines) == 5
        assert lines[1].startswith("1.2,")

    def test_zero_drift_suppresses_trend(self):
        # strong negative drift with no volatility fails every run unless
        # the sweep is asked to drop the drift
        model = toy_model(np.zeros((1, 1)), mu=[-0.01])
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        with_drift = table_sweep([p], [1.2], model, 1.1, 288, 200, seed=0)
        without = table_sweep([p], [1.2], model, 1.1, 288, 200, seed=0, zero_drift=True)
        assert with_drift.estimates[(1.2, "solo")].probability == 1.0
        assert without.estimates[(1.2, "solo")].probability == 0.0

    @pytest.mark.parametrize("horizon, runs", [(0, 100), (5, 0)])
    def test_horizon_and_runs_validated(self, horizon, runs):
        model = toy_model(np.eye(1) * 1e-4)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        with pytest.raises(DataError):
            table_sweep([p], [1.2], model, 1.1, horizon=horizon, runs=runs)

    def test_duplicate_names_rejected(self):
        # cells are keyed by name: a second "x" would overwrite the first's
        model = toy_model(np.eye(2) * 1e-4)
        ps = [Portfolio("x", ("A0",), np.array([1.0])), Portfolio("x", ("A1",), np.array([1.0]))]
        with pytest.raises(DataError, match="unique"):
            table_sweep(ps, [1.2], model, 1.1, horizon=5, runs=100)


class TestSharedDraws:
    """Portfolios that share a seed share each chunk's draws; the result must
    be the one each portfolio gets when swept on its own."""

    GAMMAS = [1.05, 1.1, 1.2]

    def model(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) * 0.02
        return toy_model(a @ a.T, nu=4.0, mu=[1e-4, -2e-4, 0.0, 3e-4])

    def portfolios(self):
        return [
            Portfolio("low", ("A0", "A1"), np.array([0.4, 0.6])),
            Portfolio("high", ("A3", "A2"), np.array([0.7, 0.3])),  # disjoint from "low"
            Portfolio("solo", ("A2",), np.array([1.0])),
            Portfolio("all", ("A0", "A1", "A2", "A3"), np.ones(4) / 4),
        ]

    def sweep(self, portfolios, **kw):
        kw.setdefault("distribution", STUDENT_T)
        return table_sweep(portfolios, self.GAMMAS, self.model(), 1.02, horizon=24,
                           runs=2500, seed=8, **kw)

    @pytest.mark.parametrize("distribution", [NORMAL, STUDENT_T])
    def test_crn_cells_equal_one_portfolio_sweeps(self, distribution):
        ps = self.portfolios()
        table = self.sweep(ps, distribution=distribution)
        assert any(e.failures for e in table.estimates.values())
        for p in ps:
            alone = self.sweep([p], distribution=distribution)
            for g in self.GAMMAS:
                assert table.estimates[(g, p.name)] == alone.estimates[(g, p.name)]

    def test_independent_seeds_without_crn(self):
        ps = self.portfolios()
        table = self.sweep(ps, common_random_numbers=False)
        for p_i, p in enumerate(ps):
            seed = 8 + 7919 * (p_i + 1)
            alone = table_sweep([p], self.GAMMAS, self.model(), 1.02, horizon=24, runs=2500,
                                seed=seed)
            for g in self.GAMMAS:
                assert table.estimates[(g, p.name)].seed == seed
                assert table.estimates[(g, p.name)] == alone.estimates[(g, p.name)]

    @pytest.mark.parametrize("crn", [True, False])
    def test_parallel_equals_serial(self, crn):
        ps = self.portfolios()[:3]
        serial = self.sweep(ps, common_random_numbers=crn, jobs=1)
        parallel = self.sweep(ps, common_random_numbers=crn, jobs=2)
        assert serial.as_json() == parallel.as_json()
