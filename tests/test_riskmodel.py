import math

import numpy as np
import pytest

from scipy import stats

from conftest import write_price_csv
from crocodai.errors import DataError, ModelError
from crocodai.riskmodel import (
    NORMAL,
    NU_MAX,
    NU_MIN,
    STUDENT_T,
    PriceSeries,
    ReturnModel,
    aligned_log_returns,
    cholesky,
    common_timeline,
    estimate_model,
    fit_model_from_series,
    fit_nu,
    ingest_prices,
    sample_returns,
)


class TestIngest:
    def test_two_row_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,100\n2022-01-01T00:05:00Z,110\n")
        series = ingest_prices(f)
        assert list(series) == ["BTC"]
        assert len(series["BTC"]) == 2
        assert series["BTC"].periods() == [(0, 2)]

    def test_negative_price_reports_row(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,100\n2022-01-01T00:05:00Z,-1\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_prices(f)

    def test_gap_becomes_period_boundary(self, tmp_path):
        f = write_price_csv(tmp_path / "p.csv", ["BTC"], slots=20, gap_at=9)
        series = ingest_prices(f)
        assert series["BTC"].periods() == [(0, 10), (10, 20)]

    def test_two_slot_gap_is_not_a_boundary(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,BTC\n"
            "2022-01-01T00:00:00Z,100\n"
            "2022-01-01T00:10:00Z,101\n"  # 2 slots: allowed
        )
        assert ingest_prices(f)["BTC"].periods() == [(0, 2)]

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,BTC\n2022-01-01T00:05:00Z,100\n2022-01-01T00:00:00Z,101\n"
        )
        with pytest.raises(DataError, match="row 3"):
            ingest_prices(f)

    def test_malformed_row_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,100,7\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_prices(f)

    def test_empty_cell_is_missing(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,BTC,ETH\n"
            "2022-01-01T00:00:00Z,100,10\n"
            "2022-01-01T00:05:00Z,,11\n"
            "2022-01-01T00:10:00Z,102,12\n"
        )
        series = ingest_prices(f)
        assert len(series["BTC"]) == 2
        assert len(series["ETH"]) == 3


class TestLogReturns:
    def test_definition(self):
        s = PriceSeries("X", [0, 300], [100.0, 110.0])
        _, (r,) = aligned_log_returns({s.symbol: s})
        assert r == pytest.approx([math.log(1.1)])
        assert r[0] == pytest.approx(0.0953102, abs=1e-7)

    def test_constant_series_all_zeros(self):
        s = PriceSeries("X", [0, 300, 600], [5.0, 5.0, 5.0])
        assert np.all(aligned_log_returns({s.symbol: s})[1] == 0.0)

    def test_returns_skip_period_boundary(self):
        times = [0, 300, 600, 20000, 20300]
        s = PriceSeries("X", times, [1, 2, 4, 8, 16], boundaries=frozenset({3}))
        _, (r,) = aligned_log_returns({s.symbol: s})
        assert len(r) == 3  # junctions 0-1, 1-2 and 3-4 only

    def test_too_short(self):
        s = PriceSeries("X", [0], [1.0])
        with pytest.raises(DataError):
            aligned_log_returns({s.symbol: s})

    def test_boundary_without_a_time_gap_is_kept(self):
        # index 5 starts a new period although the timestamps run on evenly
        s = PriceSeries("X", np.arange(10) * 300, np.arange(1.0, 11.0), boundaries=frozenset({5}))
        _, (r,) = aligned_log_returns({s.symbol: s})
        assert len(r) == 8  # junction 4-5 is skipped
        assert r[4] == pytest.approx(math.log(7.0 / 6.0))

    def test_aligned_uses_common_timestamps(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,A,B\n"
            "2022-01-01T00:00:00Z,1,2\n"
            "2022-01-01T00:05:00Z,2,\n"
            "2022-01-01T00:10:00Z,4,8\n"
        )
        symbols, rets = aligned_log_returns(ingest_prices(f))
        assert symbols == ["A", "B"]
        assert rets.shape == (2, 1)
        assert rets[0, 0] == pytest.approx(math.log(4.0))


    def test_common_timeline_panel_and_cuts(self):
        # B misses t=600; the 3,000 s jump after t=900 is a gap (> 2 slots)
        a = PriceSeries("A", [0, 300, 600, 900, 3900, 4200], [1, 2, 3, 4, 5, 6])
        b = PriceSeries("B", [0, 300, 900, 3900, 4200, 4500], [10, 20, 40, 50, 60, 70])
        panel, cuts = common_timeline({"A": a, "B": b}, ["B", "A"])
        assert panel.tolist() == [[10, 20, 40, 50, 60], [1, 2, 4, 5, 6]]
        assert cuts == [0, 3, 5]

    def test_one_series_boundary_cuts_the_common_timeline(self):
        # only A has a boundary, at its index 4 (t=1200), where B has no
        # observation: the common step 900 -> 1500 crosses A's periods
        times = np.arange(8) * 300
        a = PriceSeries("A", times, np.arange(1.0, 9.0), boundaries=frozenset({4}))
        b = PriceSeries("B", np.delete(times, 4), np.arange(1.0, 8.0))
        for order in (["A", "B"], ["B", "A"]):
            _, cuts = common_timeline({"A": a, "B": b}, order)
            assert cuts == [0, 4, 7]
        _, rets = aligned_log_returns({"A": a, "B": b})
        assert rets.shape == (2, 5)
        assert rets[0].tolist() == pytest.approx(np.log([2 / 1, 3 / 2, 4 / 3, 7 / 6, 8 / 7]).tolist())

    def test_common_timeline_unknown_symbol(self):
        with pytest.raises(DataError, match="not in the dataset"):
            common_timeline({"A": PriceSeries("A", [0], [1.0])}, ["A", "Z"])


def t_loglik(x, nu, scale):
    return float(stats.t.logpdf(x, nu, 0.0, scale).sum())


class TestFitNu:
    """The gradient fit maximises the same location-0 likelihood as
    `scipy.stats.t.fit(x, floc=0)`, so it must land on the same nu."""

    @pytest.mark.parametrize("nu", [3.0, 5.0, 10.0, 30.0])
    def test_agrees_with_scipy(self, nu):
        x = np.random.default_rng(int(nu)).standard_t(nu, 100_000)
        x = (x - x.mean()) / x.std(ddof=1)
        ref_nu, _, ref_scale = stats.t.fit(x, floc=0.0)
        got = fit_nu(x)
        assert abs(got - ref_nu) <= 1e-3 * ref_nu
        # at its own nu, the profile likelihood is not below scipy's optimum
        _, _, scale = stats.t.fit(x, fdf=got, floc=0.0)
        assert t_loglik(x, got, scale) >= t_loglik(x, ref_nu, ref_scale) - 1e-6 * len(x)

    def test_gaussian_clamps_to_max(self):
        assert fit_nu(np.random.default_rng(1).standard_normal(100_000)) == NU_MAX

    def test_cauchy_clamps_to_min(self):
        assert fit_nu(np.random.default_rng(2).standard_cauchy(100_000)) == NU_MIN

    @pytest.mark.parametrize("bad", [[1.0, np.nan, -1.0], [1.0, np.inf, -1.0], [0.0, 0.0], []])
    def test_degenerate_input_rejected(self, bad):
        with pytest.raises(ModelError):
            fit_nu(np.array(bad))

    def test_deterministic(self):
        x = np.random.default_rng(7).standard_t(4.0, 20_000)
        assert fit_nu(x) == fit_nu(x.copy())


class TestEstimateModel:
    def test_recovers_t_dof(self):
        rng = np.random.default_rng(11)
        x = rng.standard_t(4.0, 100_000) * 0.01
        y = rng.standard_t(4.0, 100_000) * 0.015
        model = estimate_model({"P": x, "Q": y})
        assert np.all(model.nu >= 3.5) and np.all(model.nu <= 4.5)

    def test_gaussian_clamps_high(self):
        rng = np.random.default_rng(12)
        model = estimate_model({"G": rng.standard_normal(100_000) * 0.01})
        assert model.nu[0] >= 100.0  # clamp ceiling is 200

    def test_zero_variance_rejected(self):
        with pytest.raises(ModelError, match="zero-variance"):
            estimate_model({"C": np.zeros(500)})

    def test_min_observations(self):
        with pytest.raises(ModelError):
            estimate_model({"X": np.random.default_rng(0).normal(size=50)})

    def test_misaligned_lengths_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError):
            estimate_model({"A": rng.normal(size=200), "B": rng.normal(size=150)})

    def test_roundtrip_json(self, tmp_path):
        rng = np.random.default_rng(5)
        model = estimate_model(
            {"A": rng.normal(size=500) * 0.01, "B": rng.normal(size=500) * 0.02}
        )
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ReturnModel.load(path)
        assert loaded.assets == model.assets
        assert np.array_equal(loaded.cov, model.cov)
        assert np.array_equal(loaded.nu, model.nu)

    def test_fit_from_series(self, tmp_path):
        f = write_price_csv(tmp_path / "p.csv", ["BTC", "ETH"], slots=300, seed=3)
        model = fit_model_from_series(ingest_prices(f))
        assert model.assets == ["BTC", "ETH"]
        assert model.n_obs == 299


class TestCholesky:
    def test_known_factor(self):
        cov = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = cholesky(cov)
        assert L == pytest.approx(np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]]))
        assert L @ L.T == pytest.approx(cov)

    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_indefinite_rejected(self):
        with pytest.raises(ModelError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1

    def test_asymmetric_rejected(self):
        with pytest.raises(ModelError):
            cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_zero_matrix_exact(self):
        assert np.array_equal(cholesky(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_singular_psd_gets_jitter(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        L = cholesky(cov)
        assert np.linalg.norm(L @ L.T - cov) / np.linalg.norm(cov) < 1e-10


def toy_model(cov, nu=5.0, mu=None):
    cov = np.asarray(cov, dtype=float)
    m = len(cov)
    return ReturnModel(
        assets=[f"A{i}" for i in range(m)],
        mu=np.zeros(m) if mu is None else np.asarray(mu, dtype=float),
        cov=cov,
        chol=cholesky(cov),
        nu=np.full(m, float(nu)),
        n_obs=1000,
    )


class TestSampler:
    def test_zero_covariance_zero_drift_gives_zeros(self):
        model = toy_model(np.zeros((2, 2)))
        r = sample_returns(model, 10, STUDENT_T, np.random.default_rng(0))
        assert np.array_equal(r, np.zeros((2, 10)))

    def test_perfect_correlation_duplicates_rows(self):
        s2 = 0.04
        model = toy_model([[s2, s2], [s2, s2]])
        r = sample_returns(model, 500, NORMAL, np.random.default_rng(1))
        assert np.allclose(r[0], r[1], atol=1e-4)

    def test_empirical_covariance_converges(self):
        rng0 = np.random.default_rng(2)
        a = rng0.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        model = toy_model(cov, nu=6.0)

        def err(n, seed):
            r = sample_returns(model, n, STUDENT_T, np.random.default_rng(seed))
            emp = np.cov(r, ddof=1)
            return np.linalg.norm(emp - cov) / np.linalg.norm(cov)

        coarse, fine = err(10_000, 3), err(1_000_000, 3)
        assert fine < 0.01
        assert fine < coarse  # ~1/sqrt(N) improvement

    def test_determinism(self):
        model = toy_model(np.eye(2) * 0.01)
        a = sample_returns(model, 50, STUDENT_T, np.random.default_rng(9))
        b = sample_returns(model, 50, STUDENT_T, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_drift_added_per_slot(self):
        model = toy_model(np.zeros((1, 1)), mu=[0.5])
        r = sample_returns(model, 4, NORMAL, np.random.default_rng(0))
        assert np.array_equal(r, np.full((1, 4), 0.5))
        r0 = sample_returns(model, 4, NORMAL, np.random.default_rng(0), zero_drift=True)
        assert np.array_equal(r0, np.zeros((1, 4)))

    def test_low_dof_rejected(self):
        model = toy_model(np.eye(1), nu=2.0)
        with pytest.raises(ModelError):
            sample_returns(model, 5, STUDENT_T, np.random.default_rng(0))
