import copy
import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_price_csv
from crocodai import montecarlo, oracle, riskmodel
from crocodai.cli import main
from crocodai.ledger import SCALE
from crocodai.riskmodel import MAX_CELL_CHARS


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

    def test_symbol_without_observations(self, tmp_path):
        # an empty series used to end in an IndexError traceback, exit 1
        prices = tmp_path / "p.csv"
        prices.write_text("timestamp,BTC,ETH\n2022-01-01T00:00:00Z,1,\n")
        out = tmp_path / "summary.json"
        assert main(["ingest", "--prices", str(prices), "--out", str(out)]) == 0
        assert read(out)["symbols"] == {
            "BTC": {"observations": 1, "periods": 1, "first": 1640995200, "last": 1640995200},
            "ETH": {"observations": 0, "periods": 0, "first": None, "last": None},
        }

    def test_symbol_named_twice_is_usage_error(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text("timestamp,BTC,BTC\n2022-01-01T00:00:00Z,1,2\n")
        out = tmp_path / "summary.json"
        assert main(["ingest", "--prices", str(prices), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {prices}: header names symbol 'BTC' twice\n"
        assert not out.exists()

    def test_no_prices_no_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CROCODAI_DATA", raising=False)
        assert main(["ingest"]) == 2

    @pytest.mark.parametrize("command", [
        ["ingest"], ["fit"], ["replay", "--portfolio", "C-Mix2"],
    ], ids=["ingest", "fit", "replay"])
    def test_malformed_price_is_usage_error(self, prices, tmp_path, capsys, command):
        lines = prices.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "abc"
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        assert main([*command, "--prices", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: row 6: malformed price 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["header", "quoted", "unquoted"])
    def test_cell_past_the_csv_field_limit_is_usage_error(self, prices, tmp_path, capsys, cell):
        # the csv module's "field larger than field limit" used to escape as a traceback
        limit = MAX_CELL_CHARS
        big = "1" * (limit + 1)  # unquoted, a price that float reads as inf
        lines = prices.read_text().splitlines()
        if cell == "header":
            lines[0] += "," + big
        else:
            cells = lines[5].split(",")
            cells[1] = f'"{big}"' if cell == "quoted" else big
            lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--prices", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        where = f"{bad}: header" if cell == "header" else "row 6"
        assert capsys.readouterr().err == f"error: {where}: field larger than field limit ({limit})\n"

    @pytest.mark.parametrize("ambient", [None, 10**9], ids=["default-limit", "raised-limit"])
    @pytest.mark.parametrize("quoted", [True, False], ids=["quoted", "unquoted"])
    def test_one_cell_length_rule(self, prices, tmp_path, capsys, quoted, ambient):
        # an unquoted long cell used to read as its number, and a quoted one
        # to read or not as the process-wide csv.field_size_limit allowed
        cell = "0" * 140_000 + "2.5"
        lines = prices.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = f'"{cell}"' if quoted else cell
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        before = csv.field_size_limit()
        try:
            if ambient is not None:
                csv.field_size_limit(ambient)
            expected = csv.field_size_limit()
            assert main(["ingest", "--prices", str(bad), "--out", str(tmp_path / "out.json")]) == 2
            assert csv.field_size_limit() == expected
        finally:
            csv.field_size_limit(before)
        assert capsys.readouterr().err == "error: row 6: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("quoted", [True, False], ids=["quoted", "unquoted"])
    def test_long_cell_after_a_bad_cell(self, prices, tmp_path, capsys, quoted):
        # a quoted long cell used to be refused before the bad cells above it were read
        lines = prices.read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = "abc"
        lines[2] = ",".join(cells)
        cells = lines[5].split(",")
        cells[1] = '"' + "1" * 140_000 + '"' if quoted else "1" * 140_000
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--prices", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == "error: row 3: malformed price 'abc'\n"


class TestFitSimulateReplay:
    def test_fit_writes_model(self, prices, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--out", str(model_path)]) == 0
        doc = read(model_path)
        assert doc["model"]["assets"] == ["BTC", "ETH", "TRX"]

    @pytest.mark.parametrize("min_obs", ["-1", "0", "1"])
    def test_fit_of_one_return_is_usage_error(self, tmp_path, capsys, min_obs):
        # n - 1 = 0 divided the variance: numpy warned three times, and the
        # error blamed the t-fit's input
        prices = tmp_path / "p.csv"
        prices.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,100\n2022-01-01T00:05:00Z,110\n")
        out = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--min-obs", min_obs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: need at least 2 return observations, got 1\n"
        assert not out.exists()

    def test_fit_of_a_repeated_symbol_is_usage_error(self, prices, tmp_path, capsys):
        # fit wrote "assets": ["BTC", "BTC"], a model every reader refused
        out = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--symbols", "BTC,ETH,BTC",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: 'assets' must name each asset once, got 'BTC' twice\n")
        assert not out.exists()

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

    def test_replay_weighs_windows_once_for_every_gamma_prime(self, prices, tmp_path,
                                                               monkeypatch):
        # replay used to run once per gamma'; now one call yields every cell
        calls = []
        original = montecarlo.historical_replay

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result.runs)
            return result

        monkeypatch.setattr(montecarlo, "historical_replay", counted)
        out = tmp_path / "replay.json"
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 0.6, "ETH": 0.4}}))
        assert main(["replay", "--prices", str(prices), "--portfolio", str(weights),
                     "--gamma-prime", "1.15,1.2,1.3,1.5", "--horizon", "24",
                     "--out", str(out)]) == 0
        rows = read(out)["results"]
        assert len(calls) == 1
        assert sorted(rows) == ["1.15", "1.2", "1.3", "1.5"]
        assert all(row["runs"] == calls[0] for row in rows.values())
        failures = [rows[g]["failures"] for g in ("1.15", "1.2", "1.3", "1.5")]
        assert failures == sorted(failures, reverse=True)

    @pytest.mark.parametrize("make, needle", [
        (lambda p: p.write_text("not json {"), "not valid JSON"),
        (lambda p: p.mkdir(), "Is a directory"),
    ], ids=["not-json", "directory"])
    def test_unreadable_model_file_is_usage_error(self, tmp_path, capsys, make, needle):
        model = tmp_path / "model.json"
        make(model)
        assert main(["simulate", "--model", str(model), "--portfolio", "C-Mix2",
                     "--n", "100", "--horizon", "4"]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and needle in err

    def test_model_file_missing_field_is_usage_error(self, prices, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--out", str(model)]) == 0
        doc = read(model)
        del doc["model"]["mu"]
        model.write_text(json.dumps(doc))
        assert main(["simulate", "--model", str(model), "--portfolio", "C-Mix2",
                     "--n", "100", "--horizon", "4"]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and "missing field 'mu'" in err

    @pytest.mark.parametrize("field, edit, needle", [
        ("cov", lambda v: [row + [0.0] for row in v], "'cov' must be 3x3"),
        ("mu", lambda v: v + [0.0], "'mu' must have 3 entries"),
        ("nu", lambda v: v[:2], "'nu' must have 3 entries"),
        ("nu", lambda v: 5.0, "'nu' must have 3 entries"),
        ("mu", lambda v: [float("inf")] + v[1:], "'mu' must be finite"),
        ("cov", lambda v: [[float("nan")] + v[0][1:]] + v[1:], "'cov' must be finite"),
        ("nu", lambda v: [float("nan")] + v[1:], "'nu' must be finite"),
        ("assets", lambda v: [v[0], v[0], v[2]], "'assets' must name each asset once"),
        ("cov", lambda v: [v[0][:2] + [1e-3]] + v[1:], "covariance must be symmetric"),
        ("cov", lambda v: [[-x for x in row] for row in v], "not positive semi-definite"),
        ("assets", lambda v: [v[0], 1.5, v[2]], "'assets' must be a list of asset names"),
        ("n_obs", lambda v: float("inf"), "malformed"),
    ], ids=["cov-3x4", "mu-long", "nu-short", "nu-scalar", "mu-inf", "cov-nan", "nu-nan",
            "assets-repeated", "cov-asymmetric", "cov-not-psd", "assets-not-names", "n_obs-inf"])
    def test_exit_two_on_bad_model_field(self, prices, tmp_path, capsys, field, edit, needle):
        # a short nu, a number among the asset names (in optimize) or an
        # infinite n_obs used to end in a traceback, exit 1, and a repeated
        # asset name silently mapped to its last row
        model = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--out", str(model)]) == 0
        doc = read(model)
        doc["model"][field] = edit(doc["model"][field])
        model.write_text(json.dumps(doc))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        assert main(["simulate", "--model", str(model), "--portfolio", str(weights),
                     "--n", "100", "--horizon", "4"]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and needle in err

    def test_stored_chol_is_ignored(self, prices, tmp_path):
        # simulate used to colour its draws with a stored chol while optimize
        # read cov, so a chol that was not cov's factor gave two covariances
        model = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--out", str(model)]) == 0
        doc = read(model)
        doubled = tmp_path / "doubled.json"
        doc["model"]["chol"] = (2 * np.linalg.cholesky(np.array(doc["model"]["cov"]))).tolist()
        doubled.write_text(json.dumps(doc))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        results = []
        for path in (model, doubled):
            out = tmp_path / "sim.json"
            assert main(["simulate", "--model", str(path), "--portfolio", str(weights),
                         "--gamma-prime", "1.2", "--n", "2000", "--horizon", "24",
                         "--method", "normal", "--out", str(out)]) == 0
            results.append(read(out)["results"])
        assert [cell["failures"] > 0 for cell in results[0]["cells"].values()] == [True]
        assert results[0] == results[1]

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

    @pytest.mark.parametrize("jobs", [0, -3, 65, 10**9])
    def test_jobs_outside_its_range_is_usage_error(self, prices, tmp_path, capsys,
                                                   monkeypatch, jobs):
        # --jobs 0 and -3 used to run serially without a word, and nothing
        # bounded the pool's size; the ceiling is checked by refusal only
        def no_work(*_, **__):
            raise AssertionError(f"ran a chunk with --jobs {jobs}")

        monkeypatch.setattr(montecarlo, "_chunk_min_relvalue", no_work)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--prices", str(prices), "--portfolio", str(weights),
                     "--gamma-prime", "1.2", "--n", "100", "--horizon", "4",
                     "--jobs", str(jobs), "--out", str(out)]) == 2
        assert f"jobs must be between 1 and 64, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_chunk_error_exits_two_at_any_job_count(self, prices, tmp_path, capsys, jobs):
        # the sampler's refusal is raised inside a chunk task: on a worker
        # thread at --jobs 2, so it must reach main the same way as at --jobs 1
        model = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--out", str(model)]) == 0
        doc = read(model)
        doc["model"]["nu"] = [2.0] + doc["model"]["nu"][1:]
        model.write_text(json.dumps(doc))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 0.5, "ETH": 0.5}}))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--model", str(model), "--portfolio", str(weights),
                     "--gamma-prime", "1.2", "--n", str(3 * montecarlo.CHUNK_RUNS),
                     "--horizon", "4", "--jobs", jobs, "--out", str(out)]) == 2
        assert "nu must exceed 2 for the t sampler" in capsys.readouterr().err
        assert not out.exists()


class TestConfig:
    """An output records its subcommand and every flag but --out, --csv and
    --jobs, so two outputs share a digest only when their flags agree."""

    def test_fit_flags_are_recorded_by_simulate(self, prices, tmp_path):
        # --symbols and --min-obs change the fitted model, and simulate used
        # to record neither: three different results had one digest
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        digests = set()
        for flags in ([], ["--symbols", "BTC,ETH"], ["--min-obs", "50"]):
            out = tmp_path / "sim.json"
            assert main(["simulate", "--prices", str(prices), "--portfolio", str(weights),
                         "--gamma-prime", "1.2", "--n", "100", "--horizon", "4", *flags,
                         "--out", str(out)]) == 0
            digests.add(read(out)["config_digest"])
        assert len(digests) == 3

    def test_price_file_is_recorded_by_replay(self, prices, tmp_path):
        other = write_price_csv(tmp_path / "other.csv", ["BTC", "ETH", "TRX"], slots=300, seed=2)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        digests = set()
        for path in (prices, other):
            out = tmp_path / "replay.json"
            assert main(["replay", "--prices", str(path), "--portfolio", str(weights),
                         "--gamma-prime", "1.2", "--horizon", "4", "--out", str(out)]) == 0
            digests.add(read(out)["config_digest"])
        assert len(digests) == 2

    def test_default_price_file_is_recorded(self, prices, tmp_path, monkeypatch):
        monkeypatch.setenv("CROCODAI_DATA", str(prices.parent))
        out = tmp_path / "s.json"
        assert main(["ingest", "--out", str(out)]) == 0
        assert read(out)["config"] == {"command": "ingest", "prices": str(prices)}

    def test_parsed_flags_are_recorded(self, tmp_path):
        out = tmp_path / "tail.json"
        assert main(["oracle-tail", "--c", "2,3", "--trials", "10000", "--seed", "1",
                     "--out", str(out)]) == 0
        assert read(out)["config"] == {"command": "oracle-tail", "feeds": 5, "corrupt": 2,
                                       "sigma": 1.0, "c": [2.0, 3.0], "trials": 10000,
                                       "seed": 1}

    def test_where_and_how_leave_the_output_alone(self, prices, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 0.5, "ETH": 0.5}}))
        argv = ["simulate", "--prices", str(prices), "--portfolio", str(weights),
                "--gamma-prime", "1.2,1.3", "--n", "2100", "--horizon", "8"]
        assert main(argv) == 0
        texts = [capsys.readouterr().out]
        out = tmp_path / "sim.json"
        assert main([*argv, "--jobs", "2", "--csv", str(tmp_path / "sim.csv"),
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_run_token_leaves_the_output_alone(self, tmp_path):
        f = tmp_path / "ok.json"
        f.write_text("{}")
        texts = []
        for argv in (["scenario", str(f)], ["scenario", "run", str(f)]):
            out = tmp_path / "report.json"
            assert main([*argv, "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["config"] == {"command": "scenario", "file": str(f)}

    def test_two_price_files_at_one_path_have_two_digests(self, tmp_path):
        # the config records the path, so two different files copied to one
        # path used to share a config_digest
        sources = [write_price_csv(tmp_path / f"src{seed}.csv", ["BTC", "ETH", "TRX"],
                                   slots=300, seed=seed) for seed in (1, 2)]
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        path, docs = tmp_path / "p.csv", []
        for source in sources:
            path.write_bytes(source.read_bytes())
            out = tmp_path / "replay.json"
            assert main(["replay", "--prices", str(path), "--portfolio", str(weights),
                         "--gamma-prime", "1.2", "--horizon", "4", "--out", str(out)]) == 0
            docs.append(read(out))
        assert docs[0]["config"] == docs[1]["config"]
        assert docs[0]["config_digest"] != docs[1]["config_digest"]
        assert [d["input_sha256"]["prices"] for d in docs] == [
            hashlib.sha256(s.read_bytes()).hexdigest() for s in sources]
        assert docs[0]["input_sha256"]["portfolio"] == hashlib.sha256(
            weights.read_bytes()).hexdigest()

    def test_every_input_file_is_identified(self, prices, tmp_path):
        model = tmp_path / "model.json"
        assert main(["fit", "--prices", str(prices), "--out", str(model)]) == 0
        scenario = tmp_path / "ok.json"
        scenario.write_text("{}")
        runs = {
            "prices": (prices, ["ingest", "--prices", str(prices)]),
            "model": (model, ["optimize", "--model", str(model), "--cap", "0.6"]),
            "file": (scenario, ["scenario", str(scenario)]),
        }
        for key, (path, argv) in runs.items():
            first = read_run(argv, tmp_path)
            assert first["input_sha256"] == {key: hashlib.sha256(path.read_bytes()).hexdigest()}
            # the same file, changed by one byte, gives another digest
            path.write_bytes(path.read_bytes() + b"\n")
            assert read_run(argv, tmp_path)["config_digest"] != first["config_digest"]
        assert read_run(["oracle-tail", "--trials", "10000"], tmp_path)["input_sha256"] == {}


def read_run(argv, tmp_path):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    return read(out)


class TestPaths:
    """A path that cannot be read or written is a usage error, exit 2, found
    before the work starts where it can be."""

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_missing_output_directory_exits_two_before_the_work(self, prices, tmp_path,
                                                                capsys, monkeypatch, flag):
        # an --out into a missing directory used to end in a FileNotFoundError
        # traceback after the whole computation
        monkeypatch.setattr(montecarlo, "table_sweep", lambda *a, **k: pytest.fail("work started"))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        target = tmp_path / "missing" / "x.out"
        assert main(["simulate", "--prices", str(prices), "--portfolio", str(weights),
                     "--n", "100", "--horizon", "4", flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {target}:") and "not found" in err

    def test_oracle_tail_out_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        assert main(["oracle-tail", "--trials", "10000", "--out", str(target)]) == 2
        assert f"--out {target}" in capsys.readouterr().err

    def test_output_path_that_is_a_directory(self, tmp_path, capsys):
        assert main(["oracle-tail", "--trials", "10000", "--out", str(tmp_path)]) == 2
        assert f"--out {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_write_that_fails_after_the_work_exits_two(self, tmp_path, capsys, monkeypatch):
        # the directory goes away while the experiment runs
        folder = tmp_path / "d"
        folder.mkdir()
        original = oracle.tail_probability_experiment

        def remove_folder(*args):
            if folder.exists():
                folder.rmdir()
            return original(*args)

        monkeypatch.setattr(oracle, "tail_probability_experiment", remove_folder)
        target = folder / "x.json"
        assert main(["oracle-tail", "--trials", "10000", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {target}: cannot write:")

    @pytest.mark.parametrize("command, flag", [
        (["ingest", "--prices", "{dir}"], "--prices"),
        (["replay", "--prices", "{prices}", "--portfolio", "{dir}"], "--portfolio"),
        (["simulate", "--model", "{dir}", "--portfolio", "C-Mix2"], "--model"),
        (["scenario", "{dir}"], "scenario file"),
    ], ids=["prices", "portfolio", "model", "scenario"])
    def test_directory_input_exits_two(self, prices, tmp_path, capsys, command, flag):
        # --prices <dir> and --portfolio <dir>.json used to end in an
        # IsADirectoryError traceback
        folder = tmp_path / "in.json"
        folder.mkdir()
        argv = [a.format(dir=folder, prices=prices) for a in command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} {folder}: Is a directory\n"

    @pytest.mark.parametrize("command, flag", [
        (["ingest", "--prices", "{missing}"], "--prices"),
        (["replay", "--prices", "{prices}", "--portfolio", "{missing}"], "--portfolio"),
        (["simulate", "--model", "{missing}", "--portfolio", "C-Mix2"], "--model"),
        (["scenario", "{missing}"], "scenario file"),
    ], ids=["prices", "portfolio", "model", "scenario"])
    def test_missing_input_names_its_flag(self, prices, tmp_path, capsys, command, flag):
        missing = tmp_path / "nope.json"
        assert main([a.format(missing=missing, prices=prices) for a in command]) == 2
        assert capsys.readouterr().err == f"error: {flag} {missing}: not found\n"


# values that no model field holds: scalars, non-finite and huge numbers,
# short lists and objects
_ODD = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 10**400, "1.5", "nan"]),
    st.lists(st.floats(), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# numbers no float holds: non-finite, or an integer past float range
_NOT_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
_MODEL_FIELDS = ["assets", "mu", "cov", "nu", "n_obs", "chol"]


def _mutate_model(doc, draw):
    """The enveloped fit output `doc` with one to three fields dropped,
    retyped, resized or given a non-finite entry, then possibly unwrapped to
    the bare model or replaced by a document that is not an object."""
    doc = copy.deepcopy(doc)
    model = doc["model"]
    model["chol"] = np.linalg.cholesky(np.array(model["cov"])).tolist()  # as older fit outputs hold
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(_MODEL_FIELDS))
        if name not in model:
            continue
        edit = draw(st.sampled_from(["drop", "retype", "resize", "non-finite"]))
        value = model[name]
        if edit == "drop":
            del model[name]
        elif edit == "non-finite" and not isinstance(value, list):
            model[name] = draw(_NOT_FLOAT)
        elif edit == "retype" or not isinstance(value, list) or not value:
            model[name] = draw(_ODD)
        else:
            # a whole field, or one row of a matrix
            if isinstance(value[0], list) and draw(st.booleans()):
                value = value[draw(st.integers(0, len(value) - 1))]
            i = draw(st.integers(0, len(value) - 1))
            if edit == "non-finite":
                value[i] = draw(_NOT_FLOAT)
            elif draw(st.booleans()):
                del value[i]
            else:
                value.append(copy.deepcopy(value[i]))
    if draw(st.booleans()):
        doc = model
    return draw(st.just(doc) | _ODD)


class TestModelFileFuzz:
    """Every model file makes simulate and optimize exit 0 or 2, never raise."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("model-fuzz")
        prices = write_price_csv(folder / "prices.csv", ["BTC", "ETH", "TRX"], slots=300, seed=1)
        fit = folder / "fit.json"
        assert main(["fit", "--prices", str(prices), "--out", str(fit)]) == 0
        weights = folder / "w.json"
        weights.write_text(json.dumps({"weights": {"BTC": 0.5, "ETH": 0.5}}))

        def run(mutate) -> list[int]:
            model = folder / "model.json"
            model.write_text(json.dumps(mutate(read(fit))))
            out = str(folder / "out.json")
            return [main(["simulate", "--model", str(model), "--portfolio", str(weights),
                          "--gamma-prime", "1.2", "--n", "64", "--horizon", "4", "--out", out]),
                    main(["optimize", "--model", str(model), "--cap", "0.6", "--out", out])]
        return run

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_fit_output(self, run, data):
        assert set(run(lambda doc: _mutate_model(doc, data.draw))) <= {0, 2}


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

    @pytest.mark.parametrize("command", ["simulate", "replay"])
    def test_non_finite_gamma_prime(self, prices, tmp_path, capsys, command):
        # 1.2,inf used to exit 0 and write Infinity, which is not JSON
        weights, out = tmp_path / "w.json", tmp_path / "out.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        argv = [command, "--prices", str(prices), "--portfolio", str(weights),
                "--gamma-prime", "1.2,inf", "--horizon", "4", "--out", str(out)]
        assert main(argv + (["--n", "100"] if command == "simulate" else [])) == 2
        assert "--gamma-prime" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, gammas, repeated", [
        ("simulate", "1.2,1.2", "[1.2]"), ("replay", "1.3,1.2,1.3", "[1.3]"),
    ])
    def test_repeated_gamma_prime_refused_before_any_work(self, prices, tmp_path, monkeypatch,
                                                          capsys, command, gammas, repeated):
        # simulate wrote one JSON cell but two CSV rows, and replay one
        # result per value while its config recorded the repeats
        def no_work(*_, **__):
            raise AssertionError("ran with a repeated gamma'")

        for name in ("_min_relative_values", "common_timeline"):
            monkeypatch.setattr(montecarlo, name, no_work)
        weights, out, csv_out = tmp_path / "w.json", tmp_path / "out.json", tmp_path / "out.csv"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        argv = [command, "--prices", str(prices), "--portfolio", str(weights),
                "--gamma-prime", gammas, "--horizon", "4", "--out", str(out)]
        if command == "simulate":
            argv += ["--n", "100", "--csv", str(csv_out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: gamma' values must be unique, repeated: {repeated}\n"
        assert not out.exists() and not csv_out.exists()

    @pytest.mark.parametrize("command", ["simulate", "replay"])
    def test_gamma_prime_at_theta_refused_before_any_work(self, prices, tmp_path, monkeypatch,
                                                          capsys, command):
        # replay took gamma' = theta, where every window fails on its start
        # slot, and wrote probability 1.0; simulate refused it
        def no_work(*_, **__):
            raise AssertionError("ran with gamma' = theta")

        for name in ("_min_relative_values", "common_timeline"):
            monkeypatch.setattr(montecarlo, name, no_work)
        weights, out = tmp_path / "w.json", tmp_path / "out.json"
        weights.write_text(json.dumps({"weights": {"BTC": 1.0}}))
        argv = [command, "--prices", str(prices), "--portfolio", str(weights),
                "--gamma-prime", "1.2,1.1", "--theta", "1.1", "--horizon", "4", "--out", str(out)]
        assert main(argv + (["--n", "100"] if command == "simulate" else [])) == 2
        assert capsys.readouterr().err == "error: need gamma' > theta > 1, got 1.1, 1.1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "oracle-tail"])
    def test_negative_seed_refused_before_any_work(self, prices, monkeypatch, capsys, command):
        # numpy's generators raised ValueError for -1: a traceback with exit 1
        def no_work(*_, **__):
            raise AssertionError("ran with a negative seed")

        for module, name in ((riskmodel, "ingest_prices"), (montecarlo, "table_sweep"),
                             (oracle, "tail_probability_experiment")):
            monkeypatch.setattr(module, name, no_work)
        flags = {"simulate": ["--prices", str(prices), "--portfolio", "C-Mix2", "--n", "100"],
                 "oracle-tail": ["--trials", "10000"]}[command]
        assert main([command, *flags, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed: must be >= 0, got -1\n"


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
        ('{"weights": {}}', "positive, finite total, got 0.0"),
        ('{"name": [1], "weights": {"BTC": 1.0}}', "$.name"),
        ('{"name": 5, "weights": {"BTC": 1.0}}', "$.name"),
        ('{"name": null, "weights": {"BTC": 1.0}}', "$.name"),
        ('{"name": {}, "weights": {"BTC": 1.0}}', "$.name"),
    ])
    def test_replay_rejects(self, prices, tmp_path, capsys, text, needle):
        weights = tmp_path / "w.json"
        weights.write_text(text)
        assert main(["replay", "--prices", str(prices), "--portfolio", str(weights),
                     "--gamma-prime", "1.2", "--horizon", "4"]) == 2
        assert needle in capsys.readouterr().err

    def test_weights_whose_sum_overflows_are_normalised(self, prices, tmp_path):
        # 1e308 + 1e308 is inf in floats, yet the basket is plainly 50/50
        results = []
        for w in (1e308, 1):
            weights, out = tmp_path / "w.json", tmp_path / "out.json"
            weights.write_text(json.dumps({"weights": {"BTC": w, "ETH": w}}))
            assert main(["replay", "--prices", str(prices), "--portfolio", str(weights),
                         "--gamma-prime", "1.2", "--horizon", "4", "--out", str(out)]) == 0
            results.append(read(out)["results"])
        assert results[0] == results[1]

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

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta(self, prices, tmp_path, capsys, beta):
        # nan used to write NaN for every ceiling, and inf NaN for a zero weight
        out = tmp_path / "opt.json"
        assert main(["optimize", "--prices", str(prices), "--cap", "0.6", "--beta", beta,
                     "--out", str(out)]) == 2
        assert "beta" in capsys.readouterr().err
        assert not out.exists()


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

    WORLD = {"chains": [{"name": "eth", "accounts": {"1": 10 * SCALE}}],
             "tokens": [{"symbol": "ETH", "chain": "eth", "price": 2000}]}

    @pytest.mark.parametrize("section, needle", [
        ({"cdps": [{"owner": 1, "token": "ETH"}]}, "$.cdps[0]: missing field 'collateral'"),
        ({"cdps": [{"token": "ETH", "collateral": 5}]}, "$.cdps[0]: missing field 'owner'"),
        ({"cdps": [{"owner": 1, "token": "ETH", "collateral": "lots"}]}, "$.cdps[0].collateral"),
        ({"workload": [{"op": "step", "count": "x"}]}, "$.workload[0].count"),
        ({"workload": [{"op": "repay_debt", "cdp": 0, "amount": None}]}, "$.workload[0].amount"),
        ({"workload": [{"op": "set_price", "token": "ETH", "price": "cheap"}]},
         "$.workload[0].price"),
        ({"workload": [{"op": "oracle_update", "token": "ETH", "base_price": 1800.0,
                        "feeds": [{"sigma2": [1]}]}]}, "$.workload[0].feeds[0].sigma2"),
        ({"workload": [{"op": "oracle_update", "token": "ETH", "base_price": 1800.0,
                        "feeds": 5}]}, "$.workload[0].feeds"),
        ({"tokens": [{"symbol": "ETH", "chain": "eth", "ceiling": "1/0"}]}, "$.tokens[0].ceiling"),
        ({"attacks": [{"kind": "corrupt_oracles", "trials": "many"}]}, "$.attacks[0].trials"),
        ({"relays": {"faults": {"x": "crashed"}}}, "$.relays.faults.x: relay id is not an integer"),
        ({"relays": {"faults": {"99": "crashed"}}}, "$.relays.faults.99: relay id outside"),
        ({"workload": [{"op": "oracle_update", "token": "ETH", "base_price": 1800.0, "seed": -1,
                        "feeds": [{}]}]}, "$.workload[0].seed"),
        ({"attacks": [{"kind": "corrupt_oracles", "seed": -1}]}, "$.attacks[0].seed"),
        ({"workload": [{"op": "request_transfer", "chain": "eth", "sender": 1, "amount": 5,
                        "target_chain": "sol", "target": 2}]},
         "$.workload[0].target_chain: unknown chain 'sol'"),
        ({"params": {"gamma": "x"}}, "$.params.gamma: "),
        ({"cdps": [{"owner": 1, "token": "ETH", "collateral": 5, "debtt": 7}]},
         "$.cdps[0]: unknown keys ['debtt']"),
        ({"cdps": [{"owner": 1, "token": "ETH", "collateral": 5, "debt": 10**5}]},
         "$.cdps[0]: collateral value"),
        ({"tokens": [{"symbol": "ETH", "chain": "eth"}],
          "cdps": [{"owner": 1, "token": "ETH", "collateral": 5, "debt": 1}]}, "$.cdps[0]: "),
        ({"attacks": [{"kind": "corrupt_oracles", "sigma": float("nan")}]},
         "$.attacks[0]: sigma_star must be finite"),
        ({"attacks": [{"kind": "corrupt_oracles", "c": "inf"}]}, "$.attacks[0]: c must be finite"),
        ({"attacks": [{"kind": "corrupt_oracles", "sigma": 1e306}]}, "$.attacks[0]: sigma_star"),
        # malformed values used to end in a ValueError, AttributeError or TypeError traceback
        ({"chains": [{"name": "eth", "accounts": {"x": 1}}]}, "$.chains[0].accounts.x"),
        ({"chains": [{"name": "eth", "accounts": {"1": "abc"}}]}, "$.chains[0].accounts.1"),
        ({"chains": [{"name": "eth", "accounts": [1, 2]}]}, "$.chains[0].accounts"),
        ({"chains": [{"name": "eth", "wards": 5}]}, "$.chains[0].wards"),
        ({"chains": [{"name": ["x"]}]}, "$.chains[0].name"),
        ({"tokens": [{"symbol": ["A"], "chain": "eth"}]}, "$.tokens[0].symbol"),
        ({"attacks": [{"kind": "token_crash", "tokens": [[]]}]}, "$.attacks[0].tokens[0]"),
        # misspelt keys used to be ignored
        ({"chains": [{"name": "eth", "acounts": {"1": 5}}]},
         "$.chains[0]: unknown keys ['acounts']"),
        ({"tokens": [{"symbol": "ETH", "chain": "eth", "prise": 5}]},
         "$.tokens[0]: unknown keys ['prise']"),
        ({"workload": [{"op": "step", "cuont": 3}]}, "$.workload[0]: unknown keys ['cuont']"),
        ({"attacks": [{"kind": "token_crash", "tokenz": ["ETH"]}]},
         "$.attacks[0]: unknown keys ['tokenz']"),
        # values that used to be coerced or ignored
        ({"tokens": [{"symbol": "ETH", "chain": "eth", "pegged": False}]},
         "$.tokens[0]: unknown keys ['pegged']"),
        ({"workload": [{"op": "transfer_local", "chain": "eth", "from": 1, "to": 2,
                        "amount": 1.7}]}, "$.workload[0].amount"),
        ({"workload": [{"op": "transfer_local", "chain": "eth", "from": 1, "to": 2,
                        "amount": True}]}, "$.workload[0].amount"),
        ({"workload": [{"op": "step", "count": "3"}]}, "$.workload[0].count"),
        ({"workload": [{"op": "step", "count": -3}]}, "$.workload[0].count: must be >= 0"),
        ({"workload": [{"op": "deposit_collateral", "cdp": 0, "amount": 1e9}]},
         "$.workload[0].amount"),
        # refusals that used to name no JSON path
        ({"workload": [{"op": "set_price", "token": "NOPE", "price": 1}]},
         "$.workload[0].token: unknown token symbol 'NOPE'"),
        ({"workload": [{"op": "transfer_local", "chain": "eth", "from": 3, "to": 2, "amount": 5}]},
         "$.workload[0]: account 3 holds 0, needs 5"),
        ({"chains": [{"name": "eth"}, {"name": "sol"}],
          "attacks": [{"kind": "compromised_chain", "chain": "eth", "h_prime": -1}]},
         "$.attacks[0]: h_prime must be >= 0"),
        ({"cdps": [{"owner": 1, "token": "ETH", "collateral": SCALE, "debt": 1000 * SCALE}],
          "workload": [{"op": "set_price", "token": "ETH", "price": 1000}],
          "attacks": [{"kind": "token_crash", "tokens": []}]},
         "$.attacks[0]: CDP 0 starts at ratio <= gamma"),
        ({"chains": [{"name": "eth"}, {"name": "eth"}]},
         "$.chains[1].name: chain name already registered: 'eth'"),
        ({"tokens": [{"symbol": "ETH", "chain": "eth"}, {"symbol": "ETH", "chain": "eth"}]},
         "$.tokens[1].symbol: token symbol already registered: 'ETH'"),
        ({"workload": [{"op": "open_cdp", "chain": "sol", "owner": 1, "token": "ETH"}]},
         "$.workload[0].chain: token ETH is not on chain 'sol'"),
        # non-finite oracle inputs: a NaN base price used to install a vault
        # price of 0, an infinite sigma2 to raise OverflowError
        ({"workload": [{"op": "oracle_update", "token": "ETH", "base_price": float("nan"),
                        "feeds": [{}]}]}, "$.workload[0]: base price must be finite"),
        ({"workload": [{"op": "oracle_update", "token": "ETH", "base_price": 1800.0,
                        "feeds": [{"sigma2": "inf"}]}]}, "$.workload[0]: sigma2 must be finite"),
        ({"workload": [{"op": "oracle_update", "token": "ETH", "base_price": 1800.0,
                        "feeds": [{"mu": float("nan")}]}]}, "$.workload[0]: mu must be finite"),
        # decimal.Overflow used to escape the fee accrual
        ({"params": {"stability_fee": 0.001},
          "cdps": [{"owner": 1, "token": "ETH", "collateral": SCALE, "debt": SCALE}],
          "workload": [{"op": "accrue_fees", "slots": 10**12}]}, "$.workload[0]: growth factor"),
        # the refusal's message used to raise OverflowError from float(gamma * debt)
        ({"params": {"gamma": "1e400"},
          "cdps": [{"owner": 1, "token": "ETH", "collateral": SCALE, "debt": SCALE}]},
         "$.cdps[0]: collateral value 2000 would not strictly exceed gamma * debt = inf"),
        # a NaN rate used to raise decimal.InvalidOperation from SystemParams.validate
        ({"params": {"stability_fee": float("nan")}}, "$.params.stability_fee: "),
        # int params used to be truncated or coerced to 4, 12 and 1
        ({"params": {"relay_n": 4.9}}, "$.params.relay_n: not an integer: 4.9"),
        ({"params": {"auction_duration": "12"}}, "$.params.auction_duration: not an integer"),
        ({"params": {"transfer_timeout": True}}, "$.params.transfer_timeout: not an integer"),
        # a relay round visits every relay of the roster for each pending transfer
        ({"params": {"relay_n": 10**9}}, "$.params.relay_n: relay_n must be <= 64"),
        # 10**999999999 used to be built before anything was checked
        ({"tokens": [{"symbol": "ETH", "chain": "eth", "price": "1e999999999"}]},
         "$.tokens[0].price: decimal exponent of '1e999999999' is past +-4300"),
        # ids are read as the ledger reads them: an int's own decimal string;
        # int(key) used to run " 5", "+6" and "0_7" as accounts 5, 6 and 7
        *[({"chains": [{"name": "eth", "accounts": {key: 7}}]},
           f"$.chains[0].accounts.{key}: account id is not an integer")
          for key in (" 5", "+6", "0_7", "05")],
        *[({"relays": {"faults": {key: "crashed"}}}, f"$.relays.faults.{key}: relay id is not an integer")
          for key in (" 1", "+1", "0_1", "01")],
        # a huge feed count used to reach numpy's "Maximum allowed dimension exceeded", exit 1
        ({"attacks": [{"kind": "corrupt_oracles", "feeds": 10**30, "trials": 10000}]},
         f"$.attacks[0]: feed count {10**30} is above the ceiling of 64"),
    ])
    def test_exit_two_on_bad_field(self, tmp_path, capsys, section, needle):
        # a missing or non-numeric field used to end in a traceback, exit 1
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({**self.WORLD, **section}))
        assert main(["scenario", str(f)]) == 2
        assert needle in capsys.readouterr().err

    # ops 0-2 open, fund and over-mint a CDP: 2000 of collateral against 1900 of debt
    UNDER_RATIO = [
        {"op": "open_cdp", "owner": 1, "token": "ETH"},
        {"op": "deposit_collateral", "cdp": 0, "amount": SCALE},
        {"op": "withdraw_stablecoins", "cdp": 0, "amount": 1900 * SCALE},
    ]

    def test_whole_document_checked_before_any_op_runs(self, tmp_path, capsys):
        # ops 0-2 used to run, and the refused op 2 ended the run before op 3 was read
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({**self.WORLD, "workload": [*self.UNDER_RATIO, {"op": "bogus"}]}))
        assert main(["scenario", str(f)]) == 2
        assert "error: $.workload[3]: unknown workload op 'bogus'" in capsys.readouterr().err

    def test_refused_op_exits_two_naming_its_path(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({**self.WORLD, "workload": self.UNDER_RATIO}))
        assert main(["scenario", str(f)]) == 2
        assert ("error: $.workload[2]: collateral value 2000 would not strictly exceed "
                "gamma * debt = 2850") in capsys.readouterr().err

    def test_run_prefix_accepted(self, tmp_path):
        f = tmp_path / "ok.json"
        f.write_text("{}")
        assert main(["scenario", "run", str(f)]) == 0

    def test_readme_example_passes(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"\*\*Scenario JSON\*\*.*?```json\n(.*?)```", readme, re.S)
        f = tmp_path / "readme.json"
        f.write_text(example.group(1))
        out = tmp_path / "report.json"
        assert main(["scenario", str(f), "--out", str(out)]) == 0
        assert read(out)["report"]["passed"] is True


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

    @pytest.mark.parametrize("flags", [["--sigma", "nan"], ["--sigma", "inf"], ["--c", "inf"],
                                       ["--c", "2,nan"]])
    def test_non_finite_is_usage_error(self, tmp_path, capsys, flags):
        # --sigma nan used to exit 0 with "sigma": NaN, which is not JSON
        out = tmp_path / "tail.json"
        assert main(["oracle-tail", "--trials", "10000", "--out", str(out), *flags]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_sigma_reports_a_finite_bound(self, tmp_path):
        # sigma**2 used to raise OverflowError, a traceback with exit 1
        out = tmp_path / "tail.json"
        assert main(["oracle-tail", "--sigma", "1e200", "--trials", "10000", "--c", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))
        assert doc["results"][0]["bound"] == pytest.approx(1e200 / (2 * 3.141592653589793) ** 0.5)

    @pytest.mark.parametrize("flags", [["--sigma", "1e306"], ["--sigma", "1e300", "--c", "1e-10"]])
    def test_out_of_range_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "tail.json"
        assert main(["oracle-tail", "--trials", "10000", "--out", str(out), *flags]) == 2
        assert "sigma_star" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("feeds", [10**30, 10**400], ids=["1e30", "1e400"])
    def test_huge_feed_count_is_usage_error(self, tmp_path, capsys, feeds):
        # numpy's "Maximum allowed dimension exceeded" (10**30) and the minority
        # check's OverflowError (10**400) used to end in a traceback
        out = tmp_path / "tail.json"
        assert main(["oracle-tail", "--feeds", str(feeds), "--trials", "10000",
                     "--out", str(out)]) == 2
        assert f"feed count {feeds} is above the ceiling of 64" in capsys.readouterr().err
        assert not out.exists()

    def test_default_seed_zero_exceedances(self, tmp_path):
        out = tmp_path / "tail.json"
        assert main(["oracle-tail", "--seed", "0", "--out", str(out)]) == 0
        assert [row["exceedances"] for row in read(out)["results"]] == [21, 0, 0, 0]
