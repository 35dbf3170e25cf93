import json

import pytest

from conftest import write_price_csv
from crocodai.cli import main
from crocodai.ledger import SCALE


@pytest.fixture
def prices(tmp_path):
    return write_price_csv(tmp_path / "prices.csv", ["BTC", "ETH", "TRX"], slots=300, seed=1)


def read(path):
    return json.loads(path.read_text())


class TestIngest:
    def test_summary(self, prices, tmp_path):
        out = tmp_path / "summary.json"
        assert main(["ingest", "--prices", str(prices), "--out", str(out)]) == 0
        doc = read(out)
        assert doc["symbols"]["BTC"]["observations"] == 300
        assert "config_digest" in doc and "tool_version" in doc

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["ingest", "--prices", str(tmp_path / "nope.csv")]) == 2

    def test_env_fallback(self, prices, tmp_path, monkeypatch):
        monkeypatch.setenv("CROCODAI_DATA", str(prices.parent))
        out = tmp_path / "s.json"
        assert main(["ingest", "--out", str(out)]) == 0

    def test_no_prices_no_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CROCODAI_DATA", raising=False)
        assert main(["ingest"]) == 2


class TestFitSimulateReplay:
    def test_fit_writes_model(self, prices, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--out", str(model_path)]) == 0
        doc = read(model_path)
        assert doc["model"]["assets"] == ["BTC", "ETH", "TRX"]

    def test_fit_output_loads_back_into_simulate(self, prices, tmp_path):
        model_path = tmp_path / "model.json"
        main(["fit", "--prices", str(prices), "--out", str(model_path)])
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        code = main(
            ["simulate", "--model", str(model_path), "--portfolio", str(weights),
             "--gamma-prime", "1.2", "--n", "500", "--horizon", "8", "--seed", "1"]
        )
        assert code == 0

    def test_simulate_outputs_estimates(self, prices, tmp_path):
        out = tmp_path / "sim.json"
        csv_out = tmp_path / "sim.csv"
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"name": "demo", "weights": {"BTC": 0.5, "ETH": 0.5}}))
        code = main(
            ["simulate", "--prices", str(prices), "--portfolio", str(weights),
             "--gamma-prime", "1.2,1.3", "--n", "2000", "--horizon", "24",
             "--seed", "11", "--out", str(out), "--csv", str(csv_out)]
        )
        assert code == 0
        doc = read(out)
        assert set(doc["results"]["portfolios"]) == {"demo"}
        assert csv_out.read_text().startswith("gamma_prime,demo")

    def test_byte_identical_reruns(self, prices, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            weights = tmp_path / "w.json"
            weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
            main(
                ["simulate", "--prices", str(prices), "--portfolio", str(weights),
                 "--gamma-prime", "1.2", "--n", "1000", "--horizon", "12",
                 "--seed", "3", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_replay(self, prices, tmp_path):
        out = tmp_path / "replay.json"
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 0.6, "ETH": 0.4}}))
        code = main(
            ["replay", "--prices", str(prices), "--portfolio", str(weights),
             "--gamma-prime", "1.2", "--horizon", "24", "--out", str(out)]
        )
        assert code == 0
        doc = read(out)
        assert "1.2" in doc["results"]

    def test_builtin_portfolio_requires_model_assets(self, prices, tmp_path):
        # C-Mix2 references assets the tiny fixture does not carry
        assert main(["simulate", "--prices", str(prices), "--portfolio", "C-Mix2",
                     "--n", "100", "--horizon", "4"]) == 2


    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--horizon", "0")])
    def test_empty_simulation_is_usage_error(self, prices, tmp_path, flag, value):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        argv = ["simulate", "--prices", str(prices), "--portfolio", str(weights),
                "--gamma-prime", "1.2", "--n", "100", "--horizon", "4"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2


class TestCommaListFlags:
    def test_simulate_gamma_prime(self, prices, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        assert main(["simulate", "--prices", str(prices), "--portfolio", str(weights),
                     "--gamma-prime", "1.2,x", "--n", "100", "--horizon", "4"]) == 2
        assert "--gamma-prime" in capsys.readouterr().err

    def test_replay_gamma_prime(self, prices, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        assert main(["replay", "--prices", str(prices), "--portfolio", str(weights),
                     "--gamma-prime", "1.2,", "--horizon", "4"]) == 2
        assert "--gamma-prime" in capsys.readouterr().err

    def test_oracle_tail_c(self, capsys):
        assert main(["oracle-tail", "--c", "2,x", "--trials", "10000"]) == 2
        assert "--c" in capsys.readouterr().err


class TestPortfolioFile:
    """A bad --portfolio file is a usage error (exit 2) that names the
    problem, never a traceback or a silently empty estimate."""

    @pytest.mark.parametrize("text, needle", [
        ('{"weights": {"BTC": 1.0}', "not valid JSON"),
        ('{"name": "p"}', "$.weights"),
        ('[1, 2]', "$.weights"),
        ('{"weights": [0.5, 0.5]}', "$.weights"),
        ('{"weights": {"BTC": "half", "ETH": 0.5}}', "$.weights.BTC"),
        ('{"weights": {"BTC": null}}', "$.weights.BTC"),
        ('{"weights": {"BTC": 0.0, "ETH": 0.0}}', "positive, finite total"),
        ('{"weights": {"BTC": NaN, "ETH": 0.5}}', "finite total"),
        ('{"weights": {"BTC": Infinity, "ETH": 0.5}}', "finite total"),
    ])
    def test_replay_rejects(self, prices, tmp_path, capsys, text, needle):
        weights = tmp_path / "w.json"
        weights.write_text(text)
        assert main(["replay", "--prices", str(prices), "--portfolio", str(weights),
                     "--gamma-prime", "1.2", "--horizon", "4"]) == 2
        assert needle in capsys.readouterr().err

    def test_zero_weights_do_not_simulate(self, prices, tmp_path):
        # an all-zero basket used to report failure probability 0 with exit 0
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 0, "ETH": 0}}))
        assert main(["simulate", "--prices", str(prices), "--portfolio", str(weights),
                     "--gamma-prime", "1.2", "--n", "100", "--horizon", "4"]) == 2


class TestOptimize:
    def test_weights_sum_to_one(self, prices, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--prices", str(prices), "--cap", "0.6",
                     "--beta", "0.1", "--out", str(out)]) == 0
        doc = read(out)
        total = sum(doc["weights"].values())
        assert total == pytest.approx(1.0, abs=1e-8)
        assert doc["kkt_residual"] < 1e-6
        assert set(doc["debt_ceilings"]) == set(doc["weights"])

    def test_unknown_universe_restriction(self, prices):
        # the D universe has no overlap with BTC/ETH/TRX... except none: ETH is in D
        code = main(["optimize", "--prices", str(prices), "--universe", "D", "--cap", "1.0"])
        assert code == 0

    def test_lambda_alias_for_cap(self, prices, tmp_path):
        out = tmp_path / "opt.json"
        code = main(["optimize", "--prices", str(prices), "--lambda", "0.6", "--out", str(out)])
        assert code == 0
        assert read(out)["config"]["cap"] == 0.6


class TestScenarioCommand:
    def test_exit_zero_on_pass(self, tmp_path):
        f = tmp_path / "ok.json"
        f.write_text("{}")
        assert main(["scenario", str(f)]) == 0

    def test_exit_one_on_failed_assertion(self, tmp_path):
        doc = {
            "chains": [{"name": "a", "accounts": {"1": 10 * SCALE}}, {"name": "b"}],
            "workload": [
                {"op": "request_transfer", "chain": "a", "sender": 1, "amount": 5 * SCALE,
                 "target_chain": "b", "target": 2},
                {"op": "step"},
            ],
            # the committed mint is backed by the burn, but debt is zero, so
            # a conservation check of circulating <= debt fails
            "assertions": [{"check": "conservation"}],
        }
        f = tmp_path / "fail.json"
        f.write_text(json.dumps(doc))
        assert main(["scenario", str(f)]) == 1

    def test_exit_two_on_schema_error(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"wat": 1}')
        assert main(["scenario", str(f)]) == 2

    def test_exit_two_on_missing_file(self, tmp_path):
        assert main(["scenario", str(tmp_path / "missing.json")]) == 2

    def test_run_prefix_accepted(self, tmp_path):
        f = tmp_path / "ok.json"
        f.write_text("{}")
        assert main(["scenario", "run", str(f)]) == 0


class TestOracleTail:
    def test_within_bound_run(self, tmp_path):
        out = tmp_path / "tail.json"
        code = main(
            ["oracle-tail", "--feeds", "5", "--corrupt", "2", "--c", "2,3",
             "--trials", "100000", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        doc = read(out)
        assert doc["within_bound"] is True
        assert [row["c"] for row in doc["results"]] == [2.0, 3.0]

    def test_majority_corrupt_is_usage_error(self):
        assert main(["oracle-tail", "--feeds", "5", "--corrupt", "3",
                     "--trials", "10000"]) == 2
