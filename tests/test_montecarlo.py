import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import sweep_cell, toy_model
from crocodai import montecarlo, riskmodel
from crocodai.errors import DataError, ModelError
from crocodai.montecarlo import (
    CHUNK_RUNS,
    Portfolio,
    _chunk_min_relvalue,
    _window_minima,
    builtin_portfolio,
    confidence_interval,
    historical_replay,
    table_sweep,
)
from crocodai.riskmodel import (
    NORMAL,
    STUDENT_T,
    PriceSeries,
    ingest_prices,
    sample_returns,
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
        est = sweep_cell(p, model, 1.2, 1.1, horizon=50, runs=3000, seed=0)
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
        est = sweep_cell(
            p, model, 1.2, 1.1, horizon=1, runs=10**5, distribution=distribution, seed=3
        )
        assert abs(est.probability - expected) <= 3 * est.ci_half_width

    def test_perfectly_correlated_pair_matches_single_asset(self):
        s2 = 0.08**2
        model = toy_model([[s2, s2], [s2, s2]])
        pair = Portfolio("pair", ("A0", "A1"), np.array([0.5, 0.5]))
        solo = Portfolio("solo", ("A0",), np.array([1.0]))
        a = sweep_cell(pair, model, 1.2, 1.1, 1, 20_000, NORMAL, seed=4)
        b = sweep_cell(solo, model, 1.2, 1.1, 1, 20_000, NORMAL, seed=4)
        assert a.failures == b.failures

    def test_unknown_asset_rejected(self):
        model = toy_model(np.eye(1) * 0.01)
        p = Portfolio("ghost", ("NOPE",), np.array([1.0]))
        with pytest.raises(ModelError):
            sweep_cell(p, model, 1.2, 1.1, 10, 100)

    def test_levels_validated(self):
        model = toy_model(np.eye(1) * 0.01)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        with pytest.raises(DataError):
            sweep_cell(p, model, 1.1, 1.2, 10, 100)

    @pytest.mark.parametrize("horizon, runs", [(0, 100), (10, 0), (-1, 100)])
    def test_horizon_and_runs_validated(self, horizon, runs):
        model = toy_model(np.eye(1) * 0.01)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        with pytest.raises(DataError):
            sweep_cell(p, model, 1.2, 1.1, horizon, runs)

    def test_seed_determinism_and_parallel_merge(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3)) * 0.02
        model = toy_model(a @ a.T, nu=4.0)
        p = Portfolio("eq", tuple(model.assets), np.ones(3) / 3)
        one = sweep_cell(p, model, 1.2, 1.1, 48, 5000, seed=9, jobs=1)
        two = sweep_cell(p, model, 1.2, 1.1, 48, 5000, seed=9, jobs=1)
        par = sweep_cell(p, model, 1.2, 1.1, 48, 5000, seed=9, jobs=3)
        assert one == two == par

    def test_pool_is_no_larger_than_the_task_count(self, monkeypatch):
        # a fork-started process pool launched all max_workers processes at
        # its first submit, so --jobs 8 on two chunk tasks used to fork 8
        sizes = []

        class SerialPool:  # records the pool size and starts no thread
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
        model = toy_model(np.eye(1) * 0.01)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        serial = sweep_cell(p, model, 1.2, 1.1, 12, 2 * CHUNK_RUNS, seed=3, jobs=1)
        pooled = sweep_cell(p, model, 1.2, 1.1, 12, 2 * CHUNK_RUNS, seed=3, jobs=8)
        assert sizes == [2]
        assert pooled == serial

    def test_one_job_builds_no_pool(self, monkeypatch):
        """jobs=1 runs every chunk in the calling thread. The benchmark's
        clock is process CPU time less the time its SIGALRM handler spends,
        so a chunk on a worker thread while the handler runs would be
        subtracted with it."""
        model = toy_model(np.eye(2) * 1e-3, nu=4.0)
        p = Portfolio("eq", tuple(model.assets), np.ones(2) / 2)
        pooled = sweep_cell(p, model, 1.2, 1.1, 12, 2 * CHUNK_RUNS + 5, seed=4, jobs=2)

        def no_pool(*_, **__):
            raise AssertionError("jobs=1 built a pool")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
        assert sweep_cell(p, model, 1.2, 1.1, 12, 2 * CHUNK_RUNS + 5, seed=4, jobs=1) == pooled

    def test_t_with_high_dof_matches_normal(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2)) * 0.03
        cov = a @ a.T + 1e-4 * np.eye(2)
        model = toy_model(cov, nu=200.0)
        p = Portfolio("eq", tuple(model.assets), np.array([0.5, 0.5]))
        t_est = sweep_cell(p, model, 1.2, 1.1, 24, 20_000, STUDENT_T, seed=5)
        n_est = sweep_cell(p, model, 1.2, 1.1, 24, 20_000, NORMAL, seed=6)
        assert abs(t_est.probability - n_est.probability) <= (
            t_est.ci_half_width + n_est.ci_half_width
        )


def replay_cell(portfolio, series_map, gamma_prime, theta, horizon):
    """The one cell of a one-gamma' replay."""
    result = historical_replay(portfolio, series_map, [gamma_prime], theta, horizon)
    return result.estimates[(gamma_prime, portfolio.name)]


class TestHistoricalReplay:
    def test_constant_series_never_fails(self):
        s = PriceSeries("X", np.arange(50) * 300, np.full(50, 7.0))
        p = Portfolio("solo", ("X",), np.array([1.0]))
        est = replay_cell(p, {"X": s}, 1.3, 1.1, horizon=10)
        assert est.probability == 0.0

    def test_gamma_prime_equal_theta_fails_at_start(self):
        # threshold is 1 and the window-start ratio is exactly 1 (<= rule)
        s = PriceSeries("X", np.arange(30) * 300, np.linspace(5, 6, 30))
        p = Portfolio("solo", ("X",), np.array([1.0]))
        est = replay_cell(p, {"X": s}, 1.1, 1.1, horizon=5)
        assert est.probability == 1.0

    def test_single_drawdown_fails_exactly_covering_windows(self):
        # one 15% dip at index 40 with threshold drop 1 - theta/gamma' ~ 8.3%:
        # exactly the windows whose span contains index 40 fail
        prices = np.full(100, 100.0)
        prices[40] = 85.0
        s = PriceSeries("X", np.arange(100) * 300, prices)
        p = Portfolio("solo", ("X",), np.array([1.0]))
        horizon = 12
        est = replay_cell(p, {"X": s}, 1.2, 1.1, horizon=horizon)
        starts = range(0, 100 - horizon)
        covering = [t for t in starts if t <= 40 <= t + horizon and t != 40]
        # a window starting exactly at the dip rebases on the dip price
        assert est.failures == len(covering)

    def test_insufficient_data(self):
        s = PriceSeries("X", np.arange(5) * 300, np.full(5, 3.0))
        p = Portfolio("solo", ("X",), np.array([1.0]))
        with pytest.raises(DataError):
            replay_cell(p, {"X": s}, 1.2, 1.1, horizon=10)

    def test_every_gamma_prime_validated(self):
        s = PriceSeries("X", np.arange(30) * 300, np.full(30, 2.0))
        p = Portfolio("solo", ("X",), np.array([1.0]))
        with pytest.raises(DataError, match="got 1.05, 1.1"):
            historical_replay(p, {"X": s}, [1.2, 1.05], 1.1, horizon=5)

    def test_windows_never_span_periods(self):
        times = np.concatenate([np.arange(8) * 300, 10**6 + np.arange(8) * 300])
        prices = np.concatenate([np.full(8, 10.0), np.full(8, 1.0)])  # cliff at the gap
        s = PriceSeries("X", times, prices)
        p = Portfolio("solo", ("X",), np.array([1.0]))
        est = replay_cell(p, {"X": s}, 1.2, 1.1, horizon=5)
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
        gammas = (1.1, 1.15, 1.2, 1.3, 1.5)
        result = historical_replay(p, series, gammas, 1.1, horizon)
        for g in gammas:
            est = result.estimates[(g, "mix")]
            assert (est.failures, est.runs) == reference_replay(p, series, g, 1.1, horizon)
        # the 699-slot first period (C misses one) holds more than one block of starts
        assert result.runs == (699 - horizon) + max(400 - horizon, 0)

    def test_gamma_prime_equal_theta_depends_on_the_weight_sum(self):
        series = two_period_series()
        p = Portfolio("mix", ("A", "B", "C"), np.array([0.33, 0.56, 0.11]))
        est = replay_cell(p, series, 1.1, 1.1, 24)
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
        est = replay_cell(p, series, 1.2, 1.1, horizon=12)
        assert (est.failures, est.runs) == (1, 2 * (40 - 12))
        assert (est.failures, est.runs) == reference_replay(p, series, 1.2, 1.1, 12)
        both = Portfolio("both", ("X", "Y"), np.array([0.5, 0.5]))  # 10% drop: 0.9 <= 11/12
        assert replay_cell(both, series, 1.2, 1.1, 12).failures == 1


def random_panel(seed, assets, periods):
    """Seeded random walks for `assets` on 5-minute slots, in `periods`
    periods of the given lengths, each after a 50-minute gap."""
    rng = np.random.default_rng(seed)
    slots = np.concatenate([10 * k + np.arange(n) for k, n in enumerate(periods)])
    times = (slots + np.repeat(np.cumsum([0, *periods[:-1]]), periods)) * 300
    return {name: PriceSeries(name, times, 30.0 * np.exp(np.cumsum(rng.normal(0, 0.02, len(times)))))
            for name in assets}


class TestPrunedReplay:
    """Replay weighs only the windows whose sliding-minimum bound can reach a
    threshold; its counts must be the per-window loop's everywhere."""

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 16, 40])
    def test_window_minima_equal_a_direct_scan(self, width):
        row = np.random.default_rng(width).normal(size=41)
        direct = [row[s : s + width].min() for s in range(len(row) - width + 1)]
        assert np.array_equal(_window_minima(row, width), direct)
        block = np.random.default_rng(width).normal(size=(3, 41))
        minima = _window_minima(block, width)
        assert minima.shape == (3, 41 - width + 1)
        for row, got in zip(block, minima):
            assert np.array_equal(got, [row[s : s + width].min() for s in range(len(row) - width + 1)])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("horizon", [1, 5, 37, 120])
    def test_random_panels_equal_the_per_window_loop(self, seed, horizon):
        rng = np.random.default_rng(100 + seed)
        assets = ("A", "B", "C", "D")[: 1 + seed]
        series = random_panel(seed, assets, periods=[90, 300, 30, 170][: 2 + seed % 3])
        # three assets take the weights whose float sum is 1 + 2**-52, so at
        # gamma' = theta a window's start slot alone decides its failure
        weights = (0.33, 0.56, 0.11) if len(assets) == 3 else rng.dirichlet(np.ones(len(assets)))
        p = Portfolio("p", assets, np.array(weights))
        gammas = (1.1, 1.12, 1.2, 1.3, 1.5)
        result = historical_replay(p, series, gammas, 1.1, horizon)
        for g in gammas:
            est = result.estimates[(g, "p")]
            assert (est.failures, est.runs) == reference_replay(p, series, g, 1.1, horizon)

    @pytest.mark.parametrize("horizon", [1, 6, 50])
    def test_single_asset_threshold_at_a_window_minimum(self, horizon):
        # one asset: the bound is the window's exact minimum, so a threshold
        # equal to it is the tie that must still be weighed and counted
        series = random_panel(7, ("X",), periods=[200, 140])
        p = Portfolio("solo", ("X",), np.array([1.0]))
        prices = series["X"].prices
        minima = sorted({min(prices[s : s + horizon + 1]) / prices[s]
                         for a, b in ((0, 200), (200, 340)) for s in range(a, b - horizon)})
        gammas = []
        for target in minima[:: max(1, len(minima) // 6)]:
            g = 1.1 / target
            for _ in range(8):  # a gamma' whose threshold is exactly this minimum
                if g >= 1.1 and 1.1 / g == target:
                    gammas.append(g)
                    break
                g = np.nextafter(g, np.inf if 1.1 / g > target else 0.0)
        assert len(gammas) >= 3
        result = historical_replay(p, series, gammas, 1.1, horizon)
        for g in gammas:
            est = result.estimates[(g, "solo")]
            assert est.failures >= 1
            assert (est.failures, est.runs) == reference_replay(p, series, g, 1.1, horizon)

    def test_empty_gamma_prime_list(self):
        series = random_panel(3, ("A", "B"), periods=[100, 50])
        p = Portfolio("p", ("A", "B"), np.array([0.5, 0.5]))
        result = historical_replay(p, series, [], 1.1, 20)
        assert (result.gamma_primes, result.estimates, result.runs) == ((), {}, 80 + 30)

    def test_period_shorter_than_a_window(self):
        series = random_panel(5, ("A", "B"), periods=[30, 12, 25])
        p = Portfolio("p", ("A", "B"), np.array([0.5, 0.5]))
        with pytest.raises(DataError, match="no window"):
            historical_replay(p, series, [1.2], 1.1, 30)
        # a short period among longer ones is skipped
        est = replay_cell(p, series, 1.2, 1.1, 20)
        assert (est.failures, est.runs) == reference_replay(p, series, 1.2, 1.1, 20)
        assert est.runs == (30 - 20) + (25 - 20)

    def test_seed_zero_benchmark_csv_counts(self, tmp_path):
        # pinned from the full evaluation: C-Mix2 over the seed-0 5,000-slot CSV
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_prices.py"
        path = tmp_path / "prices.csv"
        subprocess.run([sys.executable, str(script), "--slots", "5000", "--seed", "0",
                        "--out", str(path)], check=True, stdout=subprocess.DEVNULL)
        gammas = (1.2, 1.3, 1.4, 1.5)
        result = historical_replay(builtin_portfolio("C-Mix2"), ingest_prices(path), gammas,
                                   1.1, 288)
        assert result.runs == 4424
        assert [result.estimates[(g, "C-Mix2")].failures for g in gammas] == [783, 94, 0, 0]


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

    def test_negative_seed_rejected(self):
        # SeedSequence(-1) raised numpy's ValueError, which callers do not map to exit 2
        model = toy_model(np.eye(1) * 1e-4)
        p = Portfolio("solo", ("A0",), np.array([1.0]))
        for crn in (True, False):
            with pytest.raises(DataError, match="seed must be >= 0, got -1"):
                table_sweep([p], [1.2], model, 1.1, horizon=5, runs=100, seed=-1,
                            common_random_numbers=crn)

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

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("crn", [True, False])
    def test_parallel_equals_serial(self, crn, jobs):
        # without CRN there are three seed groups, each with a partial chunk
        ps = self.portfolios()[:3]
        serial = self.sweep(ps, common_random_numbers=crn, jobs=1)
        parallel = self.sweep(ps, common_random_numbers=crn, jobs=jobs)
        assert serial.as_json() == parallel.as_json()

    def test_threads_lose_no_chunk(self):
        # 36 small tasks on more threads than cores, switching as often as
        # the interpreter allows: a lost or misplaced write leaves another
        # task's minima, or np.empty's garbage, in some column
        ps = self.portfolios()
        seeds = [8 + 7919 * (p_i + 1) for p_i in range(len(ps))]
        args = (ps, seeds, self.model(), 3, 8 * CHUNK_RUNS + 7, STUDENT_T, False)
        serial = montecarlo._min_relative_values(*args, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = montecarlo._min_relative_values(*args, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(threaded, serial)


class TestOneSampler:
    """The simulator draws every chunk through `riskmodel.sample_returns`, the
    sampler acceptance criterion 4 validates: chunk c of a seed is
    sample_returns over horizon*n slots from SeedSequence(seed, spawn_key=(c,)),
    laid out slot by slot with one column per run."""

    @pytest.mark.parametrize("distribution", [NORMAL, STUDENT_T])
    def test_failures_follow_sample_returns(self, distribution):
        cov = np.array([[4e-4, 2e-4], [2e-4, 3e-4]])
        model = toy_model(cov, nu=4.0, mu=[1e-4, -3e-4])
        p = Portfolio("second", ("A1",), np.array([1.0]))
        gammas, theta, horizon, seed = [1.15, 1.2, 1.3], 1.1, 24, 11
        runs = CHUNK_RUNS + 300  # a full chunk and a partial one
        res = table_sweep([p], gammas, model, theta, horizon, runs, distribution, seed)
        mins = []
        for chunk, start in enumerate(range(0, runs, CHUNK_RUNS)):
            n = min(CHUNK_RUNS, runs - start)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
            r = sample_returns(model, horizon * n, distribution, rng)[1].reshape(horizon, n)
            mins.append(np.exp(np.cumsum(r, axis=0)).min(axis=0))
        mins = np.concatenate(mins)
        for g in gammas:
            expected = int(np.count_nonzero(mins <= theta / g))
            assert 0 < expected < runs
            assert res.estimates[(g, p.name)].failures == expected


class TestChunkKernel:
    """`_chunk_min_relvalue` sums each path slot by slot and weighs each
    portfolio by a sequential multiply-add: bit-identical to np.cumsum and
    np.einsum("i,itn->tn") over the same draws."""

    HORIZON, N, SEED, CHUNK = 24, 300, 21, 3

    def model(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5)) * 0.02
        model = toy_model(a @ a.T, mu=rng.normal(size=5) * 1e-3)
        model.nu = np.array([2.5, 3.0, 4.5, 8.0, 40.0])
        return model

    def reference(self, model, members, distribution, horizon=HORIZON, n=N):
        m = len(model.assets)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.SEED, spawn_key=(self.CHUNK,)))
        rel = np.exp(np.cumsum(
            sample_returns(model, horizon * n, distribution, rng).reshape(m, horizon, n), axis=1))
        return np.stack([np.einsum("i,itn->tn", w, rel[idx]).min(axis=0) for w, idx in members])

    @pytest.mark.parametrize("distribution", [NORMAL, STUDENT_T])
    @pytest.mark.parametrize("baskets", [
        # every asset row in use, one basket listing its assets out of order
        [((0, 1, 2, 3, 4), (0.1, 0.2, 0.3, 0.15, 0.25)), ((3, 0), (0.6, 0.4)), ((2,), (1.0,))],
        # a subset of the rows, so the group sums and weighs them in place
        [((4, 1), (0.7, 0.3)), ((1,), (1.0,)), ((1, 3, 4), (0.5, 0.25, 0.25))],
    ], ids=["all-rows", "row-subset"])
    def test_bit_identical_to_cumsum_and_einsum(self, distribution, baskets):
        model = self.model()
        members = tuple((np.array(w), np.array(idx)) for idx, w in baskets)
        got = _chunk_min_relvalue(
            model, members, self.HORIZON, self.N, distribution, self.SEED, self.CHUNK, False)
        want = self.reference(model, members, distribution)
        assert got.shape == (len(members), self.N)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("distribution", [NORMAL, STUDENT_T])
    @pytest.mark.parametrize("baskets", [
        # rows 1, 3 and 4: two runs of consecutive rows
        [((4, 1), (0.7, 0.3)), ((1,), (1.0,)), ((1, 3, 4), (0.5, 0.25, 0.25))],
        # rows 0 and 2 only, so rows 3 and 4 are never drawn
        [((2, 0), (0.6, 0.4)), ((0,), (1.0,))],
    ], ids=["row-runs", "rows-below-the-last"])
    @pytest.mark.parametrize("horizon, n", [
        (24, 1024),  # 16 + 8 slots
        (120, 300),  # 54 + 54 + 12 slots
        (3, riskmodel.COLOUR_BLOCK + 1),  # one slot a block
    ], ids=["two-blocks", "partial-last-block", "slot-by-slot"])
    def test_weighed_a_slot_block_at_a_time(self, distribution, baskets, horizon, n):
        model = self.model()
        members = tuple((np.array(w), np.array(idx)) for idx, w in baskets)
        got = _chunk_min_relvalue(model, members, horizon, n, distribution, self.SEED, self.CHUNK, False)
        want = self.reference(model, members, distribution, horizon, n)
        assert got.shape == (len(members), n)
        assert np.array_equal(got, want)


class TestChunkMemory:
    """One chunk's working set, counted by tracemalloc, never timed: the
    draw buffer `sample_returns` returns, and little besides. The group's
    rows have gaps, as C-Mix2's have in the 8-asset benchmark model, and
    the last row is in use, so every row is drawn."""

    HORIZON, N = 288, CHUNK_RUNS

    def model(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(8, 8)) * 0.01
        return toy_model(a @ a.T, nu=4.0, mu=rng.normal(size=8) * 1e-4)

    @pytest.mark.parametrize("distribution, bound", [(NORMAL, 1.15), (STUDENT_T, 1.25)])
    def test_chunk_peaks_near_its_draw_buffer(self, distribution, bound):
        model = self.model()
        # rows 0, 1, 3, 4, 6 and 7
        members = ((np.array([0.2, 0.2, 0.6]), np.array([4, 7, 0])),
                   (np.full(4, 0.25), np.array([1, 3, 6, 0])))

        def chunk():
            return _chunk_min_relvalue(model, members, self.HORIZON, self.N, distribution, 0, 0, False)

        chunk()  # first call, so no lazy set-up is counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            chunk()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        buffer = len(model.assets) * self.HORIZON * self.N * 8
        assert peak <= bound * buffer, peak / buffer
