"""The scripts under scripts/: the synthetic price generator's bytes and the
usage errors of the generator and of run_risk_tables.py."""

import importlib.util
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = load("make_synthetic_prices")
risk_tables = load("run_risk_tables")


def reference_csv(prices, slots: int, gap_at: int) -> bytes:
    """The generator's original per-row writer, kept as the reference."""
    SYMBOLS = gen.SYMBOLS
    m = len(SYMBOLS)
    t = datetime(2022, 8, 26, 2, 0, tzinfo=timezone.utc)
    lines = ["timestamp," + ",".join(SYMBOLS)]
    for slot in range(slots):
        stamp = t.strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(stamp + "," + ",".join(f"{prices[i, slot]:.6f}" for i in range(m)))
        t += timedelta(minutes=5)
        if slot == gap_at:
            t += timedelta(hours=6)
    return ("\n".join(lines) + "\n").encode()


def generate(tmp_path, *flags) -> bytes:
    out = tmp_path / "prices.csv"
    assert gen.main(["--out", str(out), *map(str, flags)]) == 0
    return out.read_bytes()


CASES = [
    (slots, seed, gap_at)
    for slots in (0, 1, 5000)
    for seed in (0, 7)
    for gap_at in (None, -1, 0, slots - 1, slots)
] + [(20000, 11, 19998)]


@pytest.mark.parametrize("slots,seed,gap_at", CASES)
def test_bytes_match_the_per_row_writer(tmp_path, slots, seed, gap_at):
    flags = ["--slots", slots, "--seed", seed]
    if gap_at is not None:
        flags += ["--gap-at", gap_at]
    expected = reference_csv(gen.draw_prices(slots, seed), slots,
                             2500 if gap_at is None else gap_at)
    assert generate(tmp_path, *flags) == expected


def test_same_flags_same_bytes(tmp_path):
    flags = ("--slots", 3000, "--seed", 5, "--gap-at", 100)
    assert generate(tmp_path, *flags) == generate(tmp_path, *flags)


def test_blocks_join_seamlessly(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "BLOCK_ROWS", 7)
    prices = gen.draw_prices(50, 3)
    assert generate(tmp_path, "--slots", 50, "--seed", 3, "--gap-at", 20) == \
        reference_csv(prices, 50, 20)


class TestGeneratorArguments:
    def refused(self, monkeypatch, capsys, *flags) -> str:
        def no_draw(*_):
            raise AssertionError("drew prices for refused arguments")

        monkeypatch.setattr(gen, "draw_prices", no_draw)
        assert gen.main([*map(str, flags)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        return err.strip()

    def test_negative_slots(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "x.csv"
        err = self.refused(monkeypatch, capsys, "--slots", -1, "--out", out)
        assert err == "error: --slots -1: must be >= 0"
        assert not out.exists()

    def test_out_in_missing_directory(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "missing" / "x.csv"
        err = self.refused(monkeypatch, capsys, "--out", out)
        assert err == f"error: --out {out}: directory {out.parent} not found"

    def test_out_is_a_directory(self, tmp_path, monkeypatch, capsys):
        err = self.refused(monkeypatch, capsys, "--out", tmp_path)
        assert err == f"error: --out {tmp_path}: Is a directory"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_generator_write_that_fails(capsys):
    assert gen.main(["--slots", "10", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: --out /dev/full: cannot write: No space left on device\n"


class TestRiskTablesArguments:
    def refused(self, capsys, *flags) -> str:
        assert risk_tables.main([*map(str, flags)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        return err.strip()

    def test_csv_the_fit_refuses(self, tmp_path, capsys):
        # one slot is no return at all
        generate(tmp_path, "--slots", 1)
        err = self.refused(capsys, "--prices", tmp_path / "prices.csv",
                           "--out-prefix", tmp_path / "rt")
        assert "fewer than two common observations" in err

    def test_infeasible_cap_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def no_sweep(*_, **__):
            raise AssertionError("swept with an infeasible --cap")

        monkeypatch.setattr(risk_tables, "table_sweep", no_sweep)
        generate(tmp_path, "--slots", 200)
        err = self.refused(capsys, "--prices", tmp_path / "prices.csv", "--cap", 0.01,
                           "--out-prefix", tmp_path / "rt")
        assert err == "error: sum of caps 0.08 < 1: no feasible portfolio"

    @pytest.mark.parametrize("flags,message", [
        (("--runs", 0), "horizon and runs must be >= 1, got 288, 0"),
        (("--horizon", 0), "horizon and runs must be >= 1, got 0, 100000"),
        (("--theta", 1.3), "need gamma' > theta > 1, got 1.2, 1.3"),
        (("--seed", -1), "seed must be >= 0, got -1"),
    ])
    def test_sweep_arguments(self, tmp_path, capsys, flags, message):
        generate(tmp_path, "--slots", 200)
        err = self.refused(capsys, "--prices", tmp_path / "prices.csv", *flags,
                           "--out-prefix", tmp_path / "rt")
        assert err == f"error: {message}"
        assert not (tmp_path / "rt_table.csv").exists()

    def test_prices_is_a_directory(self, tmp_path, capsys):
        err = self.refused(capsys, "--prices", tmp_path)
        assert err == f"error: --prices {tmp_path}: Is a directory"

    def test_prices_not_found(self, tmp_path, capsys):
        err = self.refused(capsys, "--prices", tmp_path / "none.csv")
        assert err == f"error: --prices {tmp_path / 'none.csv'}: not found"

    def test_out_prefix_in_missing_directory(self, tmp_path, capsys):
        generate(tmp_path, "--slots", 50)
        prefix = tmp_path / "missing" / "rt"
        err = self.refused(capsys, "--prices", tmp_path / "prices.csv", "--out-prefix", prefix)
        assert err == f"error: --out-prefix {prefix}: directory {prefix.parent} not found"
