"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 7 (reproduction of the published failure-probability tables)
needs the original price dataset; point CROCODAI_DATA at a directory
holding prices.csv to enable it. Without the dataset that criterion is
covered by the property suites of criteria 4-6 instead.
"""

import itertools
import os
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import project_capped_simplex, random_backed_instance, sweep_cell, units
from crocodai import relay as relay_mod
from crocodai import stablecoin as core
from crocodai.errors import ProtocolError
from crocodai.ledger import SCALE, System
from crocodai.montecarlo import Portfolio, historical_replay, table_sweep
from crocodai.optimizer import QpProblem, min_variance
from crocodai.oracle import tail_probability_experiment
from crocodai.relay import (
    BYZ_EQUIVOCATE,
    BYZ_FORGE,
    BYZ_REFUSE,
    COMMITTED,
    CRASHED,
    N_OF_1,
    N_OF_N,
    ONE_OF_1,
    cost_of_commit,
)
from crocodai.riskmodel import (
    NORMAL,
    STUDENT_T,
    ReturnModel,
    cholesky,
    fit_model_from_series,
    ingest_prices,
    sample_returns,
)
from crocodai.scenarios import (
    builtin_portfolio,
    ceiling_headroom,
    compromised_chain_scenario,
    token_crash_scenario,
)
from crocodai.stablecoin import SystemParams


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# ----------------------------------------------------------------------
# 1. black-swan bounds on randomized instances, exact arithmetic


def test_criterion_1_attack_bounds_hold_exactly():
    started = time.perf_counter()
    rng = random.Random(2024)
    crash_violations = 0
    for _ in range(1000):
        sys_ = random_backed_instance(rng)
        tokens = sorted(sys_.tokens)
        affected = rng.sample(tokens, rng.randint(1, max(1, len(tokens) - 1)))
        if not token_crash_scenario(sys_, affected).passed:
            crash_violations += 1

    fork_violations = 0
    for _ in range(1000):
        sys_ = random_backed_instance(rng)
        chain_id = rng.choice(sorted(sys_.chains))
        token = sorted(t.id for t in sys_.tokens.values() if t.chain == chain_id)[0]
        room = ceiling_headroom(sys_, token)
        h_prime = max(int(room * SCALE * Fraction(rng.randint(10, 90), 100)), 0)
        rep = compromised_chain_scenario(sys_, chain_id, h_prime)
        if rep.precondition_failed or not rep.passed:
            fork_violations += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        crash_violations == 0 and fork_violations == 0 and elapsed < 10.0,
        f"0 violations required: crash={crash_violations}, fork={fork_violations}; "
        f"runtime {elapsed:.2f}s < 10s",
    )


# ----------------------------------------------------------------------
# 2. exhaustive single-fault schedules, n=4 / f=1, 3-transfer workload


def _fault_schedules():
    yield "all-honest", {}
    for node in range(4):
        yield f"node{node}-crashed", {node: CRASHED}
    for node, strategy in itertools.product(range(4), (BYZ_EQUIVOCATE, BYZ_REFUSE, BYZ_FORGE)):
        yield f"node{node}-{strategy.split(':')[1]}", {node: strategy}


def test_criterion_2_safety_and_liveness_under_single_faults():
    started = time.perf_counter()
    workload = [(1, units(10), 11), (2, units(25), 12), (3, units(7), 13)]
    failures = []
    for label, faults in _fault_schedules():
        sys_ = System(SystemParams())
        alpha = sys_.create_chain(
            {"name": "alpha", "accounts": {"1": units(50), "2": units(50), "3": units(50)}}
        )
        beta = sys_.create_chain({"name": "beta"})
        relay_mod.register_relays(sys_, faults)
        tids = [
            relay_mod.request_transfer(sys_, alpha, sender, amount, beta, recipient)
            for sender, amount, recipient in workload
        ]
        for _ in range(25):
            relay_mod.step(sys_)
            if all(sys_.transfers[t].state != "escrowed" for t in tids):
                break

        crash_only = all(b == CRASHED for b in faults.values())
        for tid, (sender, amount, recipient) in zip(tids, workload):
            t = sys_.transfers[tid]
            sender_bal = sys_.chains[alpha].balance(sender)
            recipient_bal = sys_.chains[beta].balance(recipient)
            if t.state == COMMITTED:
                ok = sender_bal == units(50) - amount and recipient_bal == amount
            else:
                ok = t.state == "aborted" and sender_bal == units(50) and recipient_bal == 0
            if not ok:
                failures.append(f"{label}: transfer {tid} lost funds")
            if crash_only and not (t.state == COMMITTED and sys_.slot <= 20):
                failures.append(f"{label}: transfer {tid} missed the 20-slot liveness window")
        if not relay_mod.audit(sys_).ok:
            failures.append(f"{label}: monitor flagged the run")
        if sys_.total_circulating() != units(150):
            failures.append(f"{label}: supply not conserved")
    elapsed = time.perf_counter() - started
    report(
        2,
        not failures and elapsed < 30.0,
        failures[:3] if failures else f"17 schedules clean; runtime {elapsed:.2f}s < 30s",
    )


# ----------------------------------------------------------------------
# 3. conservation over random 500-event workloads, exact integers


def _conservation_workload(seed):
    rng = random.Random(seed)
    params = SystemParams(
        gamma=Fraction("1.5"),
        theta=Fraction("1.1"),
        stability_fee=Decimal("0.0005"),
        savings_rate=Decimal("0.0004"),
        liquidation_penalty=Fraction("0.13"),
    )
    sys_ = System(params)
    a = sys_.create_chain({"name": "a"})
    b = sys_.create_chain({"name": "b"})
    eth = sys_.register_token("ETH", a)
    sol = sys_.register_token("SOL", b)
    sys_.set_price(eth, Fraction(2))
    sys_.set_price(sol, Fraction(3, 2))
    relay_mod.register_relays(sys_)
    users = list(range(1, 7))
    cdps: list[int] = []
    committed = 0
    minted_any = False

    def check():
        monitor = relay_mod.audit(sys_)
        assert monitor.unbacked_minted == 0 and not monitor.unmatched_burns
        _, debt = core.debt_totals(sys_)
        interest = sum(
            (Fraction(c.pot.interest_paid) for c in sys_.chains.values()), Fraction(0)
        )
        circulating = Fraction(sys_.total_circulating(), SCALE)
        assert circulating <= debt + interest, (circulating, debt, interest)

    for step_no in range(500):
        action = rng.choice(
            ["open", "deposit", "mint", "repay", "local", "cross", "step", "fees",
             "save", "accrue", "unsave", "price", "auction", "settle"]
        )
        chain_id = rng.choice([a, b])
        chain = sys_.chains[chain_id]
        user = rng.choice(users)
        try:
            if action == "open":
                token = eth if chain_id == a else sol
                cdps.append(core.open_cdp(sys_, chain_id, user, token))
            elif action == "deposit" and cdps:
                core.deposit_collateral(sys_, rng.choice(cdps), units(rng.randint(1, 40)))
            elif action == "mint" and cdps:
                core.withdraw_stablecoins(sys_, rng.choice(cdps), units(rng.randint(1, 25)))
                minted_any = True
            elif action == "repay" and cdps:
                core.repay_debt(sys_, rng.choice(cdps), units(rng.randint(1, 10)))
            elif action == "local":
                sys_.transfer_local(chain_id, user, rng.choice(users), units(rng.randint(1, 8)))
            elif action == "cross":
                relay_mod.request_transfer(
                    sys_, chain_id, user, units(rng.randint(1, 8)),
                    b if chain_id == a else a, rng.choice(users),
                )
            elif action == "step":
                relay_mod.step(sys_)
            elif action == "fees":
                core.accrue_stability_fee(sys_, rng.randint(1, 3))
            elif action == "save":
                core.savings_deposit(sys_, chain_id, user, units(rng.randint(1, 5)))
            elif action == "accrue":
                core.savings_accrue(sys_, chain_id, rng.randint(1, 4))
            elif action == "unsave":
                core.savings_withdraw(sys_, chain_id, user)
            elif action == "price":
                token = eth if chain_id == a else sol
                factor = Fraction(rng.randint(85, 115), 100)
                sys_.set_price(token, sys_.prices[token] * factor)
            elif action == "auction":
                for cdp_id in cdps:
                    cdp = chain.cdps.get(cdp_id)
                    if cdp and core.check_liquidatable(
                        cdp, sys_.prices[cdp.token], params.gamma
                    ) and cdp.state == "open":
                        core.start_auction(sys_, cdp_id)
                        bid = min(
                            chain.balance(user),
                            int(Fraction(cdp.debt) * SCALE) + units(rng.randint(0, 5)),
                        )
                        if bid > 0:
                            core.place_bid(sys_, cdp_id, user, bid)
                        break
            elif action == "settle":
                for cdp_id, auction in list(chain.auctions.items()):
                    if auction.open:
                        core.settle_auction(sys_, cdp_id)
        except ProtocolError:
            pass  # rejected operations leave state untouched
        if step_no % 25 == 0:
            check()
    check()
    committed = sum(1 for t in sys_.transfers.values() if t.state == COMMITTED)
    return sys_, committed, minted_any


def test_criterion_3_conservation_over_random_workloads():
    total_committed = 0
    for seed in range(5):
        sys_, committed, minted_any = _conservation_workload(seed)
        assert minted_any
        total_committed += committed
        # burn = mint for every committed transfer, checked on the raw logs
        burns, mints = {}, {}
        for chain in sys_.chains.values():
            for ev in chain.events:
                if ev.kind == "escrow_burn":
                    tid = ev.payload["transfer"]
                    burns[tid] = burns.get(tid, 0) + sys_.transfers[tid].amount
                elif ev.kind == "mint" and ev.payload.get("by") == "relay":
                    tid = ev.payload["transfer"]
                    mints[tid] = mints.get(tid, 0) + ev.payload["amount"]
        for tid, transfer in sys_.transfers.items():
            if transfer.state == COMMITTED:
                assert burns.get(tid) == mints.get(tid) == transfer.amount
    report(3, total_committed > 0, f"5 workloads x 500 events, {total_committed} commits checked")


# ----------------------------------------------------------------------
# 4. numerical kernels


def _five_asset_model(nu):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    cov = (a @ a.T + 0.5 * np.eye(5)) * 1e-4
    return ReturnModel(
        assets=list("ABCDE"),
        mu=np.zeros(5),
        cov=cov,
        nu=np.asarray(nu, dtype=float),
        n_obs=1000,
    )


def test_criterion_4_numerical_kernels():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in (3, 10, 25, 50, 100):
        a = rng.normal(size=(m, m))
        cov = a @ a.T
        L = cholesky(cov)
        worst = max(worst, np.linalg.norm(L @ L.T - cov) / np.linalg.norm(cov))
    cov_errors = {}
    for dist, nu in ((NORMAL, [50] * 5), (STUDENT_T, [5, 6, 8, 12, 50])):
        model = _five_asset_model(nu)
        draws = sample_returns(model, 1_000_000, dist, np.random.default_rng(42))
        emp = np.cov(draws, ddof=1)
        cov_errors[dist] = np.linalg.norm(emp - model.cov) / np.linalg.norm(model.cov)
    elapsed = time.perf_counter() - started
    report(
        4,
        worst < 1e-10 and all(e < 0.01 for e in cov_errors.values()) and elapsed < 60.0,
        f"cholesky reconstruction {worst:.2e} < 1e-10; sampler cov errors "
        f"normal={cov_errors[NORMAL]:.4f}, t={cov_errors[STUDENT_T]:.4f} < 1%; "
        f"runtime {elapsed:.1f}s < 60s",
    )


# ----------------------------------------------------------------------
# 5. optimizer: closed form, KKT, dominance


def test_criterion_5_optimizer():
    s1, s2 = 0.4, 0.9
    sol = min_variance(QpProblem(cov=np.diag([s1**2, s2**2]), caps=np.ones(2)))
    closed_form_err = abs(sol.weights[0] - s2**2 / (s1**2 + s2**2))

    rng = np.random.default_rng(123)
    max_resid = 0.0
    dominance_exceptions = 0
    for _ in range(100):
        m = int(rng.integers(2, 11))
        a = rng.normal(size=(m, m))
        cov = a @ a.T + 0.1 * np.eye(m)
        caps = np.clip(rng.uniform(0.3, 1.0, m), 2.5 / m, 1.0)
        solution = min_variance(QpProblem(cov=cov, caps=caps))
        max_resid = max(max_resid, solution.kkt_residual)
        feasible = []
        while len(feasible) < 1000:  # rejection-sample the capped simplex
            candidates = rng.dirichlet(np.ones(m), size=400)
            keep = candidates[np.all(candidates <= caps + 1e-12, axis=1)]
            feasible.extend(keep[: 1000 - len(feasible)])
            if len(keep) == 0:  # caps too tight for plain rejection: project
                feasible.extend(
                    project_capped_simplex(rng.normal(size=m), caps)
                    for _ in range(1000 - len(feasible))
                )
        for z in feasible:
            z = np.asarray(z)
            if solution.objective > z @ cov @ z + 1e-12:
                dominance_exceptions += 1
    report(
        5,
        closed_form_err < 1e-6 and max_resid < 1e-6 and dominance_exceptions == 0,
        f"closed-form err {closed_form_err:.1e} < 1e-6; max KKT {max_resid:.1e} < 1e-6; "
        f"{dominance_exceptions} dominance exceptions over 100x1000 portfolios",
    )


# ----------------------------------------------------------------------
# 6. Monte Carlo correctness


def test_criterion_6_monte_carlo():
    zero = ReturnModel(
        assets=["X"], mu=np.zeros(1), cov=np.zeros((1, 1)),
        nu=np.array([5.0]), n_obs=100,
    )
    solo = Portfolio("solo", ("X",), np.array([1.0]))
    est0 = sweep_cell(solo, zero, 1.2, 1.1, horizon=288, runs=10_000, seed=0)
    exact_zero = est0.probability == 0.0

    sigma, nu = 0.08, 5.0
    toy = ReturnModel(
        assets=["X"], mu=np.zeros(1), cov=np.array([[sigma**2]]),
        nu=np.array([nu]), n_obs=100,
    )
    q = np.log(1.1 / 1.2)
    within = {}
    for dist, expected in (
        (NORMAL, stats.norm.cdf(q / sigma)),
        (STUDENT_T, stats.t.cdf(q * np.sqrt(nu / (nu - 2.0)) / sigma, nu)),
    ):
        est = sweep_cell(solo, toy, 1.2, 1.1, 1, 10**5, distribution=dist, seed=17)
        within[dist] = abs(est.probability - expected) <= 3 * est.ci_half_width

    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) * 0.02
    model = ReturnModel(
        assets=["A", "B", "C"], mu=np.zeros(3), cov=a @ a.T,
        nu=np.array([4.0, 5.0, 6.0]), n_obs=100,
    )
    eq = Portfolio("eq", ("A", "B", "C"), np.ones(3) / 3)
    monotone = True
    for seed in range(3):
        sweep = table_sweep([eq], [1.2, 1.3, 1.4, 1.5], model, 1.1, 48, 20_000, seed=seed)
        probs = [sweep.estimates[(g, "eq")].probability for g in (1.2, 1.3, 1.4, 1.5)]
        monotone = monotone and all(x >= y for x, y in zip(probs, probs[1:]))
    report(
        6,
        exact_zero and all(within.values()) and monotone,
        f"zero-vol exact 0: {exact_zero}; CDF oracle within 3 CI: {within}; "
        f"gamma'-monotone under CRN: {monotone}",
    )


# ----------------------------------------------------------------------
# 7. published-table reproduction (needs the original dataset)

_TABLE_T = {  # portfolio -> {gamma': failure probability}
    "BTC": {1.2: 0.021, 1.3: 0.003},
    "SOL": {1.2: 0.228, 1.3: 0.093},
    "D-All": {1.2: 0.001, 1.3: 0.000},
    "C-Mix2": {1.2: 0.029, 1.3: 0.003},
}


def _dataset_path():
    root = os.environ.get("CROCODAI_DATA")
    if not root:
        return None
    path = Path(root) / "prices.csv"
    return path if path.exists() else None


@pytest.mark.skipif(
    _dataset_path() is None,
    reason="original dataset not present under CROCODAI_DATA; criterion 7 is "
    "covered by the property suites of criteria 4-6",
)
def test_criterion_7_published_tables():
    series = ingest_prices(_dataset_path())
    failures = []
    for name, rows in _TABLE_T.items():
        portfolio = (
            builtin_portfolio(name)
            if name in ("D-All", "C-Mix2")
            else Portfolio(name, (name,), np.array([1.0]))
        )
        model = fit_model_from_series(series, portfolio.assets)
        for gamma_prime, expected in rows.items():
            est = sweep_cell(
                portfolio, model, gamma_prime, 1.1, horizon=288, runs=10**5,
                distribution=STUDENT_T, seed=1,
            )
            if abs(est.probability - expected) > 0.01:
                failures.append(f"{name}@{gamma_prime}: {est.probability} vs {expected}")
    hist = historical_replay(
        Portfolio("BTC", ("BTC",), np.array([1.0])), series, [1.3], 1.1, horizon=288
    ).estimates[(1.3, "BTC")]
    if abs(hist.probability - 0.002) > 0.005:
        failures.append(f"historical BTC@1.3: {hist.probability}")
    report(7, not failures, failures or "t-model and historical tables reproduced")


# ----------------------------------------------------------------------
# 8. relay cost-model orderings


def test_criterion_8_cost_model_orderings():
    quorums = [(n, (n - 1) // 3) for n in (4, 10, 16)]
    threshold = [cost_of_commit(ONE_OF_1, n, f).on_chain_units for n, f in quorums]
    per_node = [cost_of_commit(N_OF_N, n, f).on_chain_units for n, f in quorums]
    batch = [cost_of_commit(N_OF_1, n, f).on_chain_units for n, f in quorums]
    constant = len(set(threshold)) == 1
    increasing = per_node[0] < per_node[1] < per_node[2] and batch[0] < batch[1] < batch[2]
    offchain_gap = (
        cost_of_commit(N_OF_1, 16, 5).offchain_seconds * 50
        < cost_of_commit(ONE_OF_1, 16, 5).offchain_seconds
    )
    report(
        8,
        constant and increasing and offchain_gap,
        f"1of1 constant: {constant}; NofN/Nof1 increasing: {increasing}; "
        f"Nof1 off-chain << 1of1 at n=16: {offchain_gap}",
    )


# ----------------------------------------------------------------------
# 9. corrupted-oracle tail experiment


def test_criterion_9_oracle_tail():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    estimates = [
        tail_probability_experiment(5, 2, 1.0, c, 10**6, rng) for c in (2.0, 3.0, 4.0, 5.0)
    ]
    probs = [e.empirical for e in estimates]
    monotone = all(x >= y for x, y in zip(probs, probs[1:]))
    below = all(e.empirical <= e.bound for e in estimates)
    elapsed = time.perf_counter() - started
    report(
        9,
        monotone and below and elapsed < 30.0,
        f"exceedance {probs} monotone={monotone}, below bound={below}; "
        f"runtime {elapsed:.1f}s < 30s",
    )
