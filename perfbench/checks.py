"""Output checks computed apart from varbid.

The dispatch here is an exact solver of its own: it sorts the breakpoints
of the piecewise-linear supply curve and solves the one segment on which
supply meets the requirement, where varbid bisects on the shadow price.
Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv

import numpy as np

# varbid balances dispatch to 1e-12 and this solver is exact up to rounding,
# so 1e-9 leaves three orders of headroom while still catching a reward
# moved by 1e-6 of the hour's payment (payments are at least 0.02 $ here).
QG_TOL = 1e-9        # units of 100 MVAr
PRICE_TOL = 1e-9     # $ per unit
REWARD_TOL = 1e-9    # $, relative to max(1, the hour's truthful payment)
REL_TOL = 1e-12      # floats the program and this file derive in another order
MAX_MESSAGES = 5


def exact_dispatch(b1, b2, qmax, demand: float) -> tuple[np.ndarray, float]:
    """Minimise sum b1 x + b2 x^2 subject to sum x = demand, 0 <= x <= qmax.

    Supply S(lam) = sum clip((lam - b1) / (2 b2), 0, qmax) is nondecreasing
    and linear between the breakpoints b1 and b1 + 2 b2 qmax. The first
    breakpoint where S reaches the requirement closes the active segment;
    on it the interior units share lam exactly. Needs b2 > 0.
    Returns (incremental quantities, shadow price).
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    qmax = np.asarray(qmax, dtype=float)
    if np.any(b2 <= 0.0):
        raise ValueError("exact_dispatch needs every b2 > 0")
    if not 0.0 <= demand <= qmax.sum() + 1e-12:
        raise ValueError(f"requirement {demand} outside [0, {qmax.sum()}]")
    if demand == 0.0:
        return np.zeros_like(b1), float(b1.min())
    top = b1 + 2.0 * b2 * qmax

    def supply(lam: float) -> float:
        return float(np.clip((lam - b1) / (2.0 * b2), 0.0, qmax).sum())

    points = np.sort(np.concatenate([b1, top]))
    k = next(i for i, p in enumerate(points) if supply(p) >= demand)
    lo, hi = points[k - 1], points[k]
    interior = (b1 <= lo) & (top >= hi)
    lam = lo + (demand - supply(lo)) / float(np.sum(0.5 / b2[interior]))
    return np.clip((lam - b1) / (2.0 * b2), 0.0, qmax), float(lam)


def profit(price: float, qg: float, genco) -> float:
    """Revenue at the nodal price minus the true cost of the incremental quantity."""
    inc = qg - genco.bg
    return price * qg - genco.c1 * inc - genco.c2 * inc * inc


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _columns(row: dict, prefix: str, n: int) -> np.ndarray:
    return np.array([float(row[f"{prefix}_{k + 1}"]) for k in range(n)])


def check_trace(rows: list[dict], gencos, learner: int, episode_steps: int) -> list[str]:
    """Re-clear every traced hour and recompute its reward.

    ``rows`` are the dict rows of a ``trace_seed*.csv``; ``gencos`` carry
    c1, c2, bg and q_max; ``learner`` is the learner's index in ``gencos``.
    """
    errors = []
    if len(rows) != episode_steps:
        errors.append(f"trace has {len(rows)} hours, expected {episode_steps}")
    n = len(gencos)
    qmax = np.array([g.q_max for g in gencos])
    bg = np.array([g.bg for g in gencos])
    me = gencos[learner]
    for row in rows:
        t = row["t"]
        demand = float(row["demand"])
        b1, b2 = _columns(row, "b1", n), _columns(row, "b2", n)
        qg, prices = _columns(row, "qg", n), _columns(row, "price", n)
        action = int(row["action"])
        a1, a2 = 1.0 + 0.5 * (action // 9), 1.0 + 0.5 * (action % 9)
        if (b1[learner], b2[learner]) != (a1 * me.c1, a2 * me.c2):
            errors.append(f"hour {t}: learner bid {b1[learner]}, {b2[learner]} "
                          f"is not action {action} = ({a1}, {a2}) x true cost")
        balance = float(np.sum(qg - bg)) - demand
        if abs(balance) > QG_TOL:
            errors.append(f"hour {t}: dispatch misses the requirement by {balance:.3g}")
        x, _ = exact_dispatch(b1, b2, qmax, demand)
        exact_qg, exact_prices = bg + x, b1 + 2.0 * b2 * x
        gap_q = float(np.max(np.abs(qg - exact_qg)))
        gap_p = float(np.max(np.abs(prices - exact_prices)))
        if gap_q > QG_TOL or gap_p > PRICE_TOL:
            errors.append(f"hour {t}: re-clearing differs by {gap_q:.3g} in qg, "
                          f"{gap_p:.3g} in price")
        b1_true, b2_true = b1.copy(), b2.copy()
        b1_true[learner], b2_true[learner] = me.c1, me.c2
        xt, _ = exact_dispatch(b1_true, b2_true, qmax, demand)
        price_t, qg_t = float(me.c1 + 2.0 * me.c2 * xt[learner]), float(me.bg + xt[learner])
        reward = (profit(float(exact_prices[learner]), float(exact_qg[learner]), me)
                  - profit(price_t, qg_t, me))
        gap_r = abs(reward - float(row["reward"]))
        if gap_r > REWARD_TOL * max(1.0, price_t * qg_t):
            errors.append(f"hour {t}: reward {row['reward']} but the profit difference "
                          f"is {reward!r} (gap {gap_r:.3g})")
    return errors[:MAX_MESSAGES]


def check_curve(rows: list[dict], episodes: int, epsilon0: float, decay: float,
                epsilon_min: float) -> list[str]:
    """Episode count and index, and epsilon = max(min, eps0 (1 - decay)^k)."""
    errors = []
    if len(rows) != episodes:
        errors.append(f"curve has {len(rows)} episodes, configured {episodes}")
    for k, row in enumerate(rows):
        if int(row["episode"]) != k:
            errors.append(f"curve row {k} is episode {row['episode']}")
        expected = max(epsilon_min, epsilon0 * (1.0 - decay) ** k)
        if abs(float(row["epsilon"]) - expected) > REL_TOL * expected:
            errors.append(f"episode {k}: epsilon {row['epsilon']}, expected {expected!r}")
    return errors[:MAX_MESSAGES]


def check_summary(summary: list[dict], curve: list[dict], window: int,
                  require_gain: bool) -> list[str]:
    """Summary mu matches the curve's last ``window`` episodes, and learning
    stays above the floor mu >= -0.01 x mean truthful payment (mu > 0 too
    when ``require_gain``)."""
    tail = curve[-window:]
    mu = float(np.mean([float(r["reward"]) for r in tail]))
    payment = float(np.mean([float(r["baseline_payment"]) for r in tail]))
    row = next((r for r in summary if r["seed"] == "mu"), None)
    if row is None:
        return ["summary has no mu row"]
    errors = []
    got_mu, got_payment = float(row["converged_reward"]), float(row["converged_baseline_payment"])
    if abs(got_mu - mu) > REL_TOL * max(1.0, abs(mu)):
        errors.append(f"summary mu {got_mu!r}, curve tail mean {mu!r}")
    if abs(got_payment - payment) > REL_TOL * max(1.0, payment):
        errors.append(f"summary payment {got_payment!r}, curve tail mean {payment!r}")
    if mu < -0.01 * payment:
        errors.append(f"mu {mu:.4g} below the floor {-0.01 * payment:.4g}")
    if require_gain and not mu > 0.0:
        errors.append(f"mu {mu:.4g} is not positive")
    return errors


def check_series(series, demand_values, base_total: float) -> list[str]:
    """Dispatch balance: the hourly total is the requirement plus base generation."""
    series = np.asarray(series, dtype=float)
    expected = np.asarray(demand_values, dtype=float) + base_total
    if series.shape != expected.shape:
        return [f"series has shape {series.shape}, expected {expected.shape}"]
    gap = float(np.max(np.abs(series - expected)))
    return [f"series misses requirement + base generation by {gap:.3g}"] if gap > QG_TOL else []


def check_holdout(series, predict, window: int = 24) -> tuple[list[str], float, float]:
    """Held-out MSE of ``predict`` (raw windows -> raw predictions) against
    the two-lag reference 0.5 (v[t-1] + v[t-24]). Returns (errors, model
    MSE, reference MSE)."""
    values = np.asarray(series, dtype=float)
    n = len(values) - window
    start = n - max(1, int(round(0.2 * n)))  # the fit keeps the last 20 % unseen
    hours = np.arange(window + start, len(values))
    windows = np.stack([values[t - window:t] for t in hours])
    targets = values[hours]
    model = float(np.mean((np.asarray(predict(windows)) - targets) ** 2))
    reference = float(np.mean((0.5 * (values[hours - 1] + values[hours - window]) - targets) ** 2))
    errors = [] if model <= reference else [
        f"held-out MSE {model:.4g} above the two-lag reference {reference:.4g}"]
    return errors, model, reference
