import copy
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_backed_instance, units
from crocodai import relay as relay_mod
from crocodai.cli import main
from crocodai import scenarios
from crocodai import stablecoin as core
from crocodai.errors import (
    CeilingViolationError,
    PreconditionError,
    ProtocolError,
    RatioViolationError,
    ScenarioFormatError,
)
from crocodai.ledger import SCALE, System
from crocodai.montecarlo import BUILTIN_PORTFOLIOS, builtin_portfolio
from crocodai.scenarios import (
    ceiling_headroom,
    compromised_chain_scenario,
    parse_scenario,
    run_scenario,
    run_scenario_file,
    token_crash_scenario,
)
from crocodai.stablecoin import SystemParams


class TestBuiltinPortfolios:
    def test_dss_approximation_weights(self):
        p = builtin_portfolio("D-All")
        w = dict(zip(p.assets, p.weights))
        assert w["USDC"] == pytest.approx(0.47)
        assert w["ETH"] == pytest.approx(0.19)
        assert w["PAXG"] == pytest.approx(0.14)
        assert w["USDP"] == pytest.approx(0.10)
        assert w["USDT"] == pytest.approx(0.08)
        assert w["WBTC"] == pytest.approx(0.02)

    def test_cross_chain_mix2_weights(self):
        p = builtin_portfolio("C-Mix2")
        w = dict(zip(p.assets, p.weights))
        assert w["ETH"] == pytest.approx(0.20)
        assert w["WBTC"] == pytest.approx(0.20)
        for sym in ("ADA", "DOT", "TRX", "AVAX"):
            assert w[sym] == pytest.approx(0.15)

    def test_every_builtin_sums_to_one(self):
        for name in BUILTIN_PORTFOLIOS:
            p = builtin_portfolio(name)
            assert float(p.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ProtocolError):
            builtin_portfolio("Z-Opt")


def crash_instance(theta="1.1"):
    """gamma=1.5, zeta'(AAA)=0.2, every CDP at ratio exactly 1.501."""
    params = SystemParams(
        gamma=Fraction("1.5"),
        theta=Fraction(theta),
        debt_ceilings={0: Fraction("0.2"), 1: Fraction("0.85")},
    )
    sys_ = System(params)
    cid = sys_.create_chain({"name": "main"})
    aaa = sys_.register_token("AAA", cid)
    bbb = sys_.register_token("BBB", cid)
    sys_.set_price(aaa, 1)
    sys_.set_price(bbb, 1)
    for token, debt_units in ((aaa, 19), (bbb, 81)):
        cdp = core.open_cdp(sys_, cid, 1, token)
        sys_.apply(cid, "cdp_deposit", {"cdp": cdp, "amount": round(debt_units * 1.501 * SCALE)})
        sys_.apply(cid, "cdp_mint", {"cdp": cdp, "amount": units(debt_units)})
    return sys_, aaa, bbb


class TestTokenCrash:
    def test_bound_holds_on_constructed_instance(self):
        sys_, aaa, _ = crash_instance()
        report = token_crash_scenario(sys_, [aaa])
        assert report.zeta_prime == Fraction(1, 5)
        assert report.bound == Fraction("1.2")
        assert report.ratio == Fraction("1.21581")  # 81 * 1.501 / 100
        assert report.passed

    def test_empty_attack_is_vacuous(self):
        sys_, _, _ = crash_instance()
        before = core.full_backing(sys_)
        report = token_crash_scenario(sys_, [])
        assert report.zeta_prime == 0
        assert report.ratio == before.ratio
        assert report.passed  # ratio 1.501 > gamma * 1

    def test_theta_below_bound_keeps_backing(self):
        # theta = gamma(1 - zeta') - 0.01: the crash cannot break full backing
        sys_, aaa, _ = crash_instance(theta="1.19")
        report = token_crash_scenario(sys_, [aaa])
        assert report.passed and report.backing_ok

    def test_underwater_start_rejected(self):
        sys_, aaa, _ = crash_instance()
        chain = sys_.chains[0]
        chain.cdps[0].collateral = units(1)  # force a ratio below gamma
        with pytest.raises(PreconditionError):
            token_crash_scenario(sys_, [aaa])

    def test_unknown_token_rejected(self):
        sys_, _, _ = crash_instance()
        with pytest.raises(ProtocolError):
            token_crash_scenario(sys_, [99])


def compromised_instance(extra_chain=False):
    """Chain 'hot' hosts HOT (zeta 0.3); chain 'cold' hosts COLD; optional
    third chain. Debts: HOT 25, COLD 75 (both strictly under their ceilings)."""
    ceilings = {0: Fraction("0.3"), 1: Fraction("0.8")}
    if extra_chain:
        ceilings = {0: Fraction("0.3"), 1: Fraction("0.25"), 2: Fraction("0.6")}
    params = SystemParams(gamma=Fraction("1.5"), theta=Fraction("1.1"), debt_ceilings=ceilings)
    sys_ = System(params)
    hot = sys_.create_chain({"name": "hot"})
    cold = sys_.create_chain({"name": "cold"})
    tokens = [("HOT", hot, 25), ("COLD", cold, 75)]
    if extra_chain:
        warm = sys_.create_chain({"name": "warm"})
        tokens = [("HOT", hot, 25), ("WARM", warm, 20), ("COLD", cold, 55)]
    for sym, cid, debt_units in tokens:
        tid = sys_.register_token(sym, cid)
        sys_.set_price(tid, 1)
        cdp = core.open_cdp(sys_, cid, 1, tid)
        sys_.apply(cid, "cdp_deposit", {"cdp": cdp, "amount": units(debt_units * 2)})
        sys_.apply(cid, "cdp_mint", {"cdp": cdp, "amount": units(debt_units)})
    relay_mod.register_relays(sys_)
    return sys_


class TestCompromisedChain:
    def test_zero_mint_reduces_to_no_attack(self):
        sys_ = compromised_instance()
        report = compromised_chain_scenario(sys_, 0, 0)
        assert report.passed
        assert report.ratio > sys_.params.gamma  # no attack: aggregate ratio above gamma

    def test_maximal_ceiling_consistent_mint(self):
        sys_ = compromised_instance()
        room = ceiling_headroom(sys_, 0)
        h = int(room * SCALE) - 1
        report = compromised_chain_scenario(sys_, 0, h)
        assert not report.precondition_failed
        assert report.details["unbacked_minted"] == h
        assert report.bound == Fraction("1.5") * Fraction("0.7")
        assert report.passed

    def test_oversized_mint_reports_precondition_failure(self):
        sys_ = compromised_instance()
        room = ceiling_headroom(sys_, 0)
        report = compromised_chain_scenario(sys_, 0, int(room * SCALE) + units(1))
        assert report.precondition_failed and not report.passed

    def test_two_disjoint_compromised_chains_combined_bound(self):
        sys_ = compromised_instance(extra_chain=True)
        baseline = core.full_backing(sys_)
        h: dict[int, int] = {}
        for chain_id in (0, 2):  # hot and warm
            token = next(t.id for t in sys_.tokens.values() if t.chain == chain_id)
            room = ceiling_headroom(sys_, token)
            h[chain_id] = max(int(room * SCALE) // 2, 1)
            report = compromised_chain_scenario(sys_, chain_id, h[chain_id])
            assert report.passed and not report.precondition_failed
        zeta_union = Fraction("0.3") + Fraction("0.25")
        combined_debt = baseline.total_debt + Fraction(sum(h.values()), SCALE)
        combined_ratio = baseline.collateral_value / combined_debt
        assert combined_ratio > sys_.params.gamma * (1 - zeta_union)
        assert relay_mod.audit(sys_).unbacked_minted == sum(h.values())

    def test_needs_a_second_chain(self):
        params = SystemParams()
        solo = System(params)
        solo.create_chain({"name": "only"})
        solo.register_token("X", 0)
        with pytest.raises(ProtocolError):
            compromised_chain_scenario(solo, 0, 1)


def empty_book(ceiling=None):
    """Chains "hot" and "cold" with one token each at price 1 and no CDP;
    `ceiling` caps HOT's share of the debt."""
    sys_ = System(SystemParams(debt_ceilings={} if ceiling is None else {0: Fraction(ceiling)}))
    for name in ("hot", "cold"):
        cid = sys_.create_chain({"name": name})
        sys_.set_price(sys_.register_token(name.upper(), cid), 1)
    return sys_


def protocol_refuses(system, token_id, h):
    """Whether withdraw_stablecoins refuses the attack's mint of h minor units
    against a fresh CDP of token_id, collateralised as the attack does."""
    cdp = core.open_cdp(system, system.tokens[token_id].chain, 10**6, token_id)
    core.deposit_collateral(system, cdp, int(system.params.gamma * h / system.prices[token_id]) + 1)
    try:
        core.withdraw_stablecoins(system, cdp, h)
    except (RatioViolationError, CeilingViolationError):
        return True
    return False


class TestCheckersAgreeWithTheProtocol:
    def test_bootstrap_mint_on_an_empty_book(self):
        # the checker applied the fractional rule to an empty book, where the
        # protocol applies the bootstrap cap and accepts the mint
        h = units(10)
        assert not protocol_refuses(empty_book("0.5"), 0, h)
        report = compromised_chain_scenario(empty_book("0.5"), 0, h)
        assert not report.precondition_failed
        assert report.details["unbacked_minted"] == h

    def test_mint_over_the_bootstrap_cap_fails_the_precondition(self):
        # with no ceiling the checker picked the token, and the protocol's
        # CeilingViolationError escaped
        h = units(2 * 10**6)
        assert protocol_refuses(empty_book(), 0, h)
        report = compromised_chain_scenario(empty_book(), 0, h)
        assert report.precondition_failed and not report.passed

    @given(
        st.sampled_from(["random", "empty", "unconstrained"]),
        st.integers(0, 10**6),
        st.fractions(0, 2, max_denominator=1000),
        st.integers(-1, 1),
    )
    @settings(derandomize=True, max_examples=80, deadline=None)
    def test_one_ceiling_rule(self, book, seed, scale, nudge):
        rng = random.Random(seed)

        def build():
            if book == "empty":
                return empty_book(rng.choice([None, "0.5", Fraction(rng.randint(1, 99), 100)]))
            system = random_backed_instance(rng)
            if book == "unconstrained":
                system.params = system.params.with_param("debt_ceilings", {})
            return system

        state = rng.getstate()
        system = build()
        token = rng.choice(sorted(system.tokens))
        rng.setstate(state)
        twin = build()
        assert twin.state_digest() == system.state_digest()
        chain = system.tokens[token].chain
        _, total = core.debt_totals(system)
        room = ceiling_headroom(system, token)
        base = system.params.bootstrap_ceiling if total == 0 else min(room, 10**6) * SCALE
        h = max(0, int(base * scale) + nudge)

        if total > 0 and h > 0:
            refused = protocol_refuses(twin, token, h)
            assert refused == (not Fraction(h, SCALE) < room)
        # the checker fails its precondition exactly when the protocol would
        # refuse the mint against every token of the chain
        refusals = []
        for m in sorted(t.id for t in system.tokens.values() if t.chain == chain):
            rng.setstate(state)
            refusals.append(protocol_refuses(build(), m, h))
        report = compromised_chain_scenario(system, chain, h)
        assert report.precondition_failed == (h > 0 and all(refusals))


class TestEmptyBookIsOutsideTheGuarantee:
    def test_documented_report(self):
        # the bootstrap cap admits the mint whatever the ceilings, and after
        # the fork nothing backs it: README and docstring name this case
        report = compromised_chain_scenario(empty_book("0.5"), 0, units(10))
        assert not report.passed and not report.precondition_failed
        assert report.ratio == 0 and report.bound == Fraction(3, 4)
        assert report.details["unbacked_minted"] == units(10)


class TestRandomInstances:
    def test_instances_satisfy_start_conditions(self):
        rng = random.Random(7)
        for _ in range(25):
            sys_ = random_backed_instance(rng)
            scenarios._check_start_conditions(sys_)  # raises on violation

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_ratio_exceeds_gamma(self, seed):
        # population of CDPs each strictly above gamma stays above gamma
        # in aggregate (convex-combination argument), exactly
        sys_ = random_backed_instance(random.Random(seed))
        report = core.full_backing(sys_)
        assert report.ratio is None or report.ratio > sys_.params.gamma

    @given(
        st.lists(
            st.tuples(st.integers(1, 10**12), st.integers(1, 3000)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_convex_combination_of_ratios(self, rows):
        # direct form of the aggregation argument: value_i/debt_i > gamma for
        # every position implies sum(value)/sum(debt) > gamma, in exact
        # rational arithmetic
        gamma = Fraction(3, 2)
        values, debts = Fraction(0), Fraction(0)
        for debt, excess in rows:
            d = Fraction(debt, 10**9)
            values += d * gamma * (1 + Fraction(excess, 10**4))
            debts += d
        assert values / debts > gamma


class TestScenarioFiles:
    def test_empty_scenario_passes(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text("{}")
        report = run_scenario_file(f)
        assert report["passed"] and report["checks"] == []

    def test_crash_scenario_file(self, tmp_path):
        doc = {
            "name": "crash",
            "params": {"gamma": 1.5, "theta": 1.1},
            "chains": [{"name": "main"}],
            "tokens": [
                {"symbol": "AAA", "chain": "main", "price": 1, "ceiling": 0.2},
                {"symbol": "BBB", "chain": "main", "price": 1, "ceiling": 0.85},
            ],
            "cdps": [
                {"chain": "main", "owner": 1, "token": "AAA",
                 "collateral": round(19 * 1.501 * SCALE), "debt": 19 * SCALE},
                {"chain": "main", "owner": 1, "token": "BBB",
                 "collateral": round(81 * 1.501 * SCALE), "debt": 81 * SCALE},
            ],
            "attacks": [{"kind": "token_crash", "tokens": ["AAA"]}],
            "assertions": [{"check": "conservation"}],
        }
        f = tmp_path / "crash.json"
        f.write_text(json.dumps(doc))
        report = run_scenario_file(f)
        assert report["passed"]
        assert report["attacks"][0]["ratio"] == "121581/100000"

    def test_workload_and_conservation(self, tmp_path):
        doc = {
            "chains": [
                {"name": "a", "accounts": {"1": 100 * SCALE}},
                {"name": "b"},
            ],
            "workload": [
                {"op": "transfer_local", "chain": "a", "from": 1, "to": 2, "amount": 5 * SCALE},
                {"op": "request_transfer", "chain": "a", "sender": 1, "amount": 10 * SCALE,
                 "target_chain": "b", "target": 9},
                {"op": "step", "count": 2},
            ],
            "assertions": [{"check": "no_unbacked"}],
        }
        f = tmp_path / "flow.json"
        f.write_text(json.dumps(doc))
        report = run_scenario_file(f)
        assert report["passed"] and report["workload_ops"] == 3

    def test_fault_schedule_in_scenario(self, tmp_path):
        # two crashed relays: the transfer must expire and refund
        doc = {
            "params": {"transfer_timeout": 5},
            "chains": [{"name": "a", "accounts": {"1": 20 * SCALE}}, {"name": "b"}],
            "relays": {"faults": {"2": "crashed", "3": "crashed"}},
            "workload": [
                {"op": "request_transfer", "chain": "a", "sender": 1, "amount": 5 * SCALE,
                 "target_chain": "b", "target": 3},
                {"op": "step", "count": 8},
            ],
            "assertions": [{"check": "no_unbacked"}],
        }
        f = tmp_path / "faults.json"
        f.write_text(json.dumps(doc))
        report = run_scenario_file(f)
        assert report["passed"] and report["final_slot"] == 8

    def test_malformed_json_reports_location(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"name": ')
        with pytest.raises(ScenarioFormatError, match="line 1"):
            run_scenario_file(f)

    def test_unknown_top_level_key(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"wat": 1}')
        with pytest.raises(ScenarioFormatError, match="wat"):
            run_scenario_file(f)

    WORLD = {"chains": [{"name": "eth"}, {"name": "sol"}],
             "tokens": [{"symbol": "ETH", "chain": "eth", "price": 2000}]}

    @pytest.mark.parametrize("cdp, message", [
        # a misspelt debt used to open a debt-free CDP and pass
        ({"owner": 1, "token": "ETH", "collateral": 5, "debtt": 7},
         r"^\$\.cdps\[0\]: unknown keys \['debtt'\]$"),
        ({"chain": "nope", "owner": 1, "token": "ETH", "collateral": 5},
         r"^\$\.cdps\[0\]\.chain: token ETH is not on chain 'nope'$"),
        ({"chain": "sol", "owner": 1, "token": "ETH", "collateral": 5},
         r"^\$\.cdps\[0\]\.chain: token ETH is not on chain 'sol'$"),
    ])
    def test_bad_cdp_keys_rejected(self, tmp_path, cdp, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({**self.WORLD, "cdps": [cdp]}))
        with pytest.raises(ScenarioFormatError, match=message):
            run_scenario_file(f)

    @pytest.mark.parametrize("cdp, message", [
        # genesis CDPs were written as raw events, past both rules
        ({"owner": 1, "token": "ETH", "collateral": 5, "debt": 10**5},
         r"^\$\.cdps\[1\]: collateral value .* would not strictly exceed gamma"),
        ({"owner": 1, "token": "ETH", "collateral": 2000 * SCALE, "debt": 2 * 10**6 * SCALE},
         r"^\$\.cdps\[1\]: .*debt ceiling"),
        ({"owner": 1, "token": "ETH", "collateral": -5}, r"^\$\.cdps\[1\]: deposit amount"),
        ({"owner": 1, "token": "ETH", "collateral": 5, "debt": -1}, r"^\$\.cdps\[1\]: mint amount"),
    ])
    def test_refused_genesis_cdp_names_its_path(self, tmp_path, cdp, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({**self.WORLD, "cdps": [
            {"owner": 1, "token": "ETH", "collateral": SCALE}, cdp]}))
        with pytest.raises(ScenarioFormatError, match=message):
            run_scenario_file(f)

    def test_ceilings_install_after_the_genesis_book(self, tmp_path):
        # BBB's 55 would breach its 0.6 ceiling against a total of 85, but
        # the finished book (AAA 45, BBB 55) is under both ceilings
        book = [("AAA", 30), ("BBB", 55), ("AAA", 15)]
        f = tmp_path / "book.json"
        f.write_text(json.dumps({
            "chains": [{"name": "a"}, {"name": "b"}],
            "tokens": [{"symbol": "AAA", "chain": "a", "price": 1, "ceiling": 0.5},
                       {"symbol": "BBB", "chain": "b", "price": 1, "ceiling": 0.6}],
            "cdps": [{"owner": 1, "token": sym, "collateral": 2 * debt * SCALE,
                      "debt": debt * SCALE} for sym, debt in book],
            "attacks": [{"kind": "token_crash", "tokens": ["BBB"]}],
        }))
        report = run_scenario_file(f)
        assert report["passed"] and not report["attacks"][0]["precondition_failed"]

    def test_cdp_on_its_token_chain_accepted(self, tmp_path):
        f = tmp_path / "ok.json"
        f.write_text(json.dumps({**self.WORLD, "cdps": [
            {"chain": "eth", "owner": 1, "token": "ETH", "collateral": 5}]}))
        assert run_scenario_file(f)["passed"]

    @pytest.mark.parametrize("params, message", [
        ({"gamma": "x"}, r"^\$\.params\.gamma: parameter gamma: not a number: 'x'$"),
        ({"gama": 1.5}, r"^\$\.params\.gama: unknown parameter 'gama'$"),
        ({"gamma": 1.05, "theta": 1.1}, r"^\$\.params: need gamma > theta > 1"),
        # the ceiling margin is optimize's --beta, not a protocol parameter
        ({"beta": 0.1}, r"^\$\.params\.beta: unknown parameter 'beta'$"),
    ])
    def test_bad_params_name_their_path(self, tmp_path, params, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"params": params}))
        with pytest.raises(ScenarioFormatError, match=message):
            run_scenario_file(f)

    def test_unknown_chain_reference(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"tokens": [{"symbol": "X", "chain": "ghost"}]}))
        with pytest.raises(ScenarioFormatError, match=r"tokens\[0\]"):
            run_scenario_file(f)

    def test_reports_deterministic(self, tmp_path):
        doc = {
            "chains": [{"name": "a", "accounts": {"1": 50 * SCALE}}, {"name": "b"}],
            "workload": [
                {"op": "request_transfer", "chain": "a", "sender": 1, "amount": 5 * SCALE,
                 "target_chain": "b", "target": 3},
                {"op": "step", "count": 2},
            ],
            "attacks": [
                {"kind": "corrupt_oracles", "feeds": 5, "corrupt": 2, "sigma": 1.0,
                 "c": 2.0, "trials": 20000, "seed": 9}
            ],
            "assertions": [{"check": "no_unbacked"}],
        }
        f = tmp_path / "det.json"
        f.write_text(json.dumps(doc))
        assert run_scenario_file(f) == run_scenario_file(f)

    def test_oracle_update_workload(self, tmp_path):
        doc = {
            "chains": [{"name": "main"}],
            "tokens": [{"symbol": "ETH", "chain": "main", "price": 1}],
            "workload": [
                {"op": "oracle_update", "token": "ETH", "base_price": 100.0, "seed": 4,
                 "feeds": [
                     {"mu": 0.0, "sigma2": 1e-18},
                     {"mu": 0.0, "sigma2": 1e-18},
                     {"mu": 0.0, "sigma2": 1e-18},
                     {"strategy": "fixed-target", "value": 0.0},
                     {"strategy": "silent"},
                 ]},
            ],
        }
        f = tmp_path / "oracle_feeds.json"
        f.write_text(json.dumps(doc))
        report = run_scenario_file(f)
        assert report["passed"]  # the corrupt minority cannot move the median

    def test_corrupt_oracle_attack(self, tmp_path):
        doc = {
            "attacks": [
                {"kind": "corrupt_oracles", "feeds": 5, "corrupt": 2, "sigma": 1.0,
                 "c": 2.5, "trials": 50000, "seed": 3}
            ]
        }
        f = tmp_path / "oracle.json"
        f.write_text(json.dumps(doc))
        report = run_scenario_file(f)
        assert report["passed"]


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_EXAMPLE = json.loads(
    re.search(r"\*\*Scenario JSON\*\*.*?```json\n(.*?)```", README, re.S)[1])


class TestParseThenRun:
    def test_parse_builds_no_system(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a System was built")
        monkeypatch.setattr(System, "__init__", refuse)
        scenario = parse_scenario(README_EXAMPLE)
        assert scenario.workload[-1][0] == "$.workload[9]"
        with pytest.raises(AssertionError, match="a System was built"):
            run_scenario(scenario)
        # op 2 would be refused at run time, but the parse reports op 3 and runs nothing
        doc = {"chains": [{"name": "eth"}],
               "tokens": [{"symbol": "ETH", "chain": "eth", "price": 1}],
               "workload": [{"op": "open_cdp", "owner": 1, "token": "ETH"},
                            {"op": "deposit_collateral", "cdp": 0, "amount": SCALE},
                            {"op": "withdraw_stablecoins", "cdp": 0, "amount": SCALE},
                            {"op": "bogus"}]}
        with pytest.raises(ScenarioFormatError, match=r"^\$\.workload\[3\]: unknown workload"):
            parse_scenario(doc)

    def test_negative_accrual_is_refused_by_the_parse(self, monkeypatch):
        # slots -1 used to pass the parse and be refused only at run time
        def refuse(*args, **kwargs):
            raise AssertionError("a System was built")
        monkeypatch.setattr(System, "__init__", refuse)
        doc = {"workload": [{"op": "accrue_fees", "slots": -1}]}
        with pytest.raises(ScenarioFormatError, match=r"^\$\.workload\[0\]\.slots: must be >= 0"):
            parse_scenario(doc)

    def test_parse_then_run_matches_the_file_runner(self, tmp_path):
        f = tmp_path / "demo.json"
        f.write_text(json.dumps(README_EXAMPLE))
        assert run_scenario(parse_scenario(README_EXAMPLE)) == run_scenario_file(f)

    @pytest.mark.parametrize("data", [
        b"[" * 100_000 + b"]" * 100_000,  # RecursionError
        b"1" * 5000,  # ValueError: past the 4300-digit limit of int()
        b"\xff\xfe{}",  # UnicodeDecodeError
    ], ids=["deep", "long-int", "not-utf8"])
    def test_unreadable_json_names_the_root(self, tmp_path, data):
        # each used to end in a traceback
        f = tmp_path / "bad.json"
        f.write_bytes(data)
        with pytest.raises(ScenarioFormatError, match=r"^\$: unreadable JSON"):
            run_scenario_file(f)


# JSON values: scalars, NaN and infinity included, and nested lists and
# objects. Integers stay small: a huge `count`, `slots` or `trials` makes a
# long run, not an error.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.7, -0.5, 1e300, 5e-324]),
    st.sampled_from(["eth", "sol", "ETH", "SOL", "0", "1", "1/3", "nan", "inf", "1e400",
                     "crashed"]),
)
_JSON = _SCALARS | st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                                | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                                max_leaves=6)


@st.composite
def _mutated_readme(draw):
    """The README example with one to three values replaced, keys deleted or
    entries added, each at a random depth."""
    doc = copy.deepcopy(README_EXAMPLE)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.integers(0, 3)):
                node = node[key]
                continue
            edit = draw(st.sampled_from(["replace", "delete", "add"]))
            if edit == "replace":
                node[key] = draw(_JSON)
            elif edit == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(st.text(max_size=8))] = draw(_JSON)
            else:
                node.append(draw(_JSON))
            break
    return doc


class TestScenarioFuzz:
    """Every document exits 0, 1 or 2, never with an uncaught exception."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("fuzz")

        def run(doc) -> int:
            f = folder / "doc.json"
            f.write_text(json.dumps(doc))
            return main(["scenario", str(f), "--out", str(folder / "report.json")])
        return run

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(doc=_mutated_readme())
    def test_mutated_readme_example(self, run, doc):
        assert run(doc) in (0, 1, 2)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(doc=_JSON | st.fixed_dictionaries({}, optional=dict.fromkeys(README_EXAMPLE, _JSON)))
    def test_random_documents(self, run, doc):
        assert run(doc) in (0, 1, 2)
