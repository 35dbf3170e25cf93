import random
from fractions import Fraction

import numpy as np
import pytest

from crocodai import stablecoin as core
from crocodai.errors import InfeasibleProblemError
from crocodai.ledger import SCALE, System
from crocodai.montecarlo import table_sweep
from crocodai.riskmodel import ReturnModel
from crocodai.stablecoin import SystemParams


def units(x) -> int:
    """Whole stablecoin units -> integer minor units."""
    return round(x * SCALE)


@pytest.fixture
def system():
    """One chain ("main") with token ETH at price 1 and a funded account 1."""
    sys_ = System(SystemParams())
    cid = sys_.create_chain({"name": "main", "accounts": {"1": units(1000)}})
    eth = sys_.register_token("ETH", cid)
    sys_.set_price(eth, 1)
    sys_.main = cid
    sys_.eth = eth
    return sys_


@pytest.fixture
def two_chains():
    """Two chains with relays registered (n=4, f=1) and a funded sender."""
    from crocodai.relay import register_relays

    sys_ = System(SystemParams())
    a = sys_.create_chain({"name": "alpha", "accounts": {"1": units(100)}})
    b = sys_.create_chain({"name": "beta"})
    register_relays(sys_)
    sys_.alpha = a
    sys_.beta = b
    return sys_


def write_price_csv(path, symbols, slots=400, seed=0, gap_at=None, start="2022-08-26T02:00:00Z"):
    """Synthetic 5-minute price CSV; optional multi-hour gap after `gap_at` rows."""
    from datetime import datetime, timedelta, timezone

    rng = np.random.default_rng(seed)
    t0 = datetime.fromisoformat(start.replace("Z", "+00:00")).astimezone(timezone.utc)
    lines = ["timestamp," + ",".join(symbols)]
    prices = {s: 100.0 * (i + 1) for i, s in enumerate(symbols)}
    t = t0
    for row in range(slots):
        cells = [t.strftime("%Y-%m-%dT%H:%M:%SZ")]
        for s in symbols:
            prices[s] *= float(np.exp(rng.normal(0.0, 0.01)))
            cells.append(f"{prices[s]:.6f}")
        lines.append(",".join(cells))
        t += timedelta(minutes=5)
        if gap_at is not None and row == gap_at:
            t += timedelta(hours=4)
    path.write_text("\n".join(lines) + "\n")
    return path


def toy_model(cov, nu=5.0, mu=None, names=None):
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    m = len(cov)
    return ReturnModel(
        assets=names or [f"A{i}" for i in range(m)],
        mu=np.zeros(m) if mu is None else np.asarray(mu, dtype=float),
        cov=cov,
        nu=np.full(m, float(nu)),
        n_obs=1000,
    )


def sweep_cell(portfolio, model, gamma_prime, *args, **kwargs):
    """The one cell of a one-portfolio, one-gamma' `table_sweep`."""
    sweep = table_sweep([portfolio], [gamma_prime], model, *args, **kwargs)
    return sweep.estimates[(gamma_prime, portfolio.name)]


def random_backed_instance(
    rng: random.Random,
    n_chains: int = 2,
    max_tokens_per_chain: int = 3,
    max_cdps_per_token: int = 3,
) -> System:
    """A small system whose CDPs all start strictly above the liquidation
    ratio and whose per-token debts leave strict headroom under their
    ceilings. All quantities are exact rationals / integers by construction:
    per-CDP ratios are drawn from (gamma, ~3*gamma], debts are integer minor
    units, and ceilings are set to the realized debt fraction plus a random
    strict margin.
    """
    gamma = Fraction(rng.randint(12, 25), 10)
    params = SystemParams(gamma=gamma, theta=Fraction(11, 10), relay_n=4, relay_f=1)
    system = System(params)

    token_ids: list[int] = []
    for c in range(n_chains):
        cid = system.create_chain({"name": f"chain-{c}"})
        for t in range(rng.randint(1, max_tokens_per_chain)):
            token_ids.append(system.register_token(f"TOK{cid}_{t}", cid))
    for m in token_ids:
        system.set_price(m, Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)))

    debts: dict[int, int] = {m: rng.randint(1, 10**12) for m in token_ids}
    owner = 1
    for m in token_ids:
        token = system.tokens[m]
        parts = _split_int(rng, debts[m], rng.randint(1, max_cdps_per_token))
        for part in parts:
            cdp_id = core.open_cdp(system, token.chain, owner, m)
            ratio = gamma * (1 + Fraction(rng.randint(1, 2000), 1000))
            price = system.prices[m]
            collateral = int(ratio * part / price) + 1
            core.deposit_collateral(system, cdp_id, collateral)
            core.withdraw_stablecoins(system, cdp_id, part)
            owner += 1

    total = Fraction(sum(debts.values()), SCALE)
    ceilings: dict[int, Fraction] = {}
    for m in token_ids:
        share = Fraction(debts[m], SCALE) / total
        margin = Fraction(rng.randint(1, 200), 1000)
        ceilings[m] = min(Fraction(1), share + margin)
        if ceilings[m] <= share:  # share + margin capped at 1 while share == 1
            ceilings[m] = Fraction(1)
    system.params = SystemParams(
        gamma=gamma, theta=Fraction(11, 10), relay_n=4, relay_f=1, debt_ceilings=ceilings
    )
    return system


def _split_int(rng: random.Random, total: int, parts: int) -> list[int]:
    parts = min(parts, total)
    if parts <= 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges[:-1], edges[1:])]


def project_capped_simplex(y: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {v : sum(v) = 1, 0 <= v <= caps}.

    The projection is clip(y - tau, 0, caps) for the unique tau where the
    coordinate sum hits 1; tau is found by exact search over the sorted
    breakpoints (ties resolved by the stable sort, i.e. by asset index).
    """
    y = np.asarray(y, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if caps.sum() < 1.0 - 1e-12:
        raise InfeasibleProblemError("sum of caps < 1: projection target is empty")

    bps = np.sort(np.concatenate([y, y - caps]), kind="stable")

    def total(tau: float) -> float:
        return float(np.clip(y - tau, 0.0, caps).sum())

    # total(tau) is continuous, non-increasing, piecewise linear with knees
    # exactly at the breakpoints; total(bps[0]) = sum(caps) >= 1 and
    # total(bps[-1]) = 0, so the crossing segment is bracketed
    left, right = 0, len(bps) - 1
    while right - left > 1:
        mid = (left + right) // 2
        if total(bps[mid]) >= 1.0:
            left = mid
        else:
            right = mid
    a, b = float(bps[left]), float(bps[right])
    ta, tb = total(a), total(b)
    tau = a if ta == tb else a + (ta - 1.0) * (b - a) / (ta - tb)
    v = np.clip(y - tau, 0.0, caps)
    # one exact correction step on the free set kills the last float error
    free = (v > 0.0) & (v < caps)
    gap = 1.0 - v.sum()
    if np.any(free) and gap != 0.0:
        v[free] += gap / free.sum()
        v = np.clip(v, 0.0, caps)
    return v
