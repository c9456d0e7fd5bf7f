"""Hourly reactive power market with quadratic dispatch and nodal pricing.

Producers submit two-part bids (b1 $/unit operation cost, b2 $/unit^2 lost
opportunity cost; one unit = 100 MVAr). The operator allocates incremental
quantities x_i in [0, q_max_i] that meet the hourly requirement D at
minimum claimed cost sum_i b1_i x_i + b2_i x_i^2. The allocation solves the
shared-marginal-cost condition exactly: the supply
x_i(lambda) = clip((lambda - b1_i) / (2 b2_i), 0, q_max_i) is piecewise
linear in the shadow price lambda, so a walk over its breakpoints finds
lambda in closed form. Each producer is paid its own marginal bid cost at
the dispatched quantity (nodal price), which equals lambda for strictly
interior units.

The environment pits one learning producer against rivals following either
a demand-scaled markup rule (strategy "b1": (2 d c1, 5 d c2) with
d = clip(d_norm + U(-0.05, 0.05), 0, 1)) or truthful cost bidding ("b2").
Rewards are profits relative to a truthful-bid counterfactual cleared
against identical rival bids and demand, so the neutral action (1, 1)
earns exactly zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .forecast import WINDOW

RIVAL_STRATEGIES = ("b1", "b2")
MIN_PROFILE_STEPS = 49  # two days of history for the 48-hour state lag, plus one hour
MIN_EPISODE_STEPS = MIN_PROFILE_STEPS - WINDOW  # the env's profile adds a WINDOW lead-in
B1_NOISE = 0.05  # uniform demand-observation noise for strategy b1 rivals
# The learner's bid magnification grid, one axis: 1.0, 1.5, ..., 5.0. A grid action
# is an index into the N_ACTIONS pairs (a1, a2) of these; action_decode gives its pair.
MAGNIFICATIONS = tuple(1.0 + 0.5 * i for i in range(9))
N_ACTIONS = len(MAGNIFICATIONS) ** 2


class InfeasibleDemand(RuntimeError):
    """Requirement exceeds total incremental capacity."""

    def __init__(self, demand: float, max_deliverable: float):
        super().__init__(f"requirement {demand} exceeds deliverable capacity {max_deliverable}")
        self.demand = demand
        self.max_deliverable = max_deliverable


@dataclass(frozen=True)
class GencoParams:
    """True cost data for one producer.

    c1: $ per unit operation cost; c2: $ per unit^2 lost opportunity cost;
    bg: base generation supplied regardless of dispatch; q_max: maximum
    incremental quantity. Quantities are in units of 100 MVAr.
    """

    id: int
    c1: float
    c2: float
    bg: float
    q_max: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.c1, self.c2, self.bg, self.q_max])):
            raise ValueError(f"genco {self.id}: c1, c2, bg and q_max must be finite")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError(f"genco {self.id}: cost coefficients must be positive")
        if self.bg < 0 or self.q_max <= 0:
            raise ValueError(f"genco {self.id}: bg must be >= 0 and q_max > 0")


# Six-producer system: true costs in $/unit and $/unit^2, base generation
# converted from MVAr to units of 100 MVAr, default 0.5 unit incremental cap.
DEFAULT_GENCOS = (
    GencoParams(1, 0.73, 0.30, 0.07500, 0.5),
    GencoParams(2, 0.68, 0.39, 0.03000, 0.5),
    GencoParams(3, 0.75, 0.43, 0.03125, 0.5),
    GencoParams(4, 0.60, 0.50, 0.02435, 0.5),
    GencoParams(5, 0.75, 0.90, 0.02000, 0.5),
    GencoParams(6, 0.73, 0.38, 0.02235, 0.5),
)


def load_gencos(path: str) -> list[GencoParams]:
    """Read a producer table CSV with columns id, c1, c2, bg, q_max."""
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh, restval="")  # a short row reads as empty fields
        columns = ("id", "c1", "c2", "bg", "q_max")
        missing = [c for c in columns if c not in (rows.fieldnames or ())]
        if missing:
            raise ValueError(f"missing columns {', '.join(missing)} in {path}")
        gencos = []
        for r in rows:
            values = []
            for col in columns:
                try:
                    values.append(int(r[col]) if col == "id" else float(r[col]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{rows.line_num}: column {col!r}: {exc}") from None
            gencos.append(GencoParams(*values))
    if not gencos:
        raise ValueError(f"no producer rows in {path}")
    ids = [g.id for g in gencos]
    for i in ids:
        if ids.count(i) > 1:
            raise ValueError(f"producer id {i} repeated in {path}")
    return gencos


@dataclass(frozen=True)
class Bid:
    """Claimed operation cost b1 and lost opportunity cost b2."""

    b1: float
    b2: float

    def __post_init__(self):
        if not (0.0 <= self.b1 < np.inf and 0.0 <= self.b2 < np.inf):  # NaN fails too
            raise ValueError(f"bid coefficients must be finite and nonnegative, got {self}")


@dataclass
class MarketOutcome:
    """One clearing: per-producer dispatched totals and nodal prices."""

    qg: np.ndarray          # total quantity per producer (bg + incremental)
    prices: np.ndarray      # nodal price per producer
    shadow_price: float     # clearing marginal price lambda
    demand: float           # requirement served


# ---------------------------------------------------------------------------
# Dispatch solver
# ---------------------------------------------------------------------------

def _solve_dispatch(b1, b2, qmax, demand):
    """Exact dispatch by a walk over the supply curve's breakpoints.

    Supply is piecewise linear in the shadow price lambda, with breakpoints
    b1_i and b1_i + 2 b2_i q_max_i; a zero-curvature bid is a vertical step
    of q_max_i at its b1_i. The walk visits the breakpoints in ascending
    order and keeps the capacity of the full units and the slope of the
    interior ones, so the first segment on which supply reaches the
    requirement gives lambda in closed form (Helgason, Kennington & Lall
    1980). The running sums are only added to: when a unit fills up, slope
    and offset are summed afresh over the units still interior, so a steep
    unit leaving does not cancel into the rest. Units priced at lambda take
    what is left, smallest b2 first and clipped to [0, q_max]: the steps at
    lambda fill in index order, and the curved units absorb the rounding
    residual, which one ulp of lambda makes large for a tiny b2. Plain
    floats: this runs once per environment step. Returns (x list, lambda).
    """
    n = len(b1)
    top = [bb + 2.0 * cc * qq for bb, cc, qq in zip(b1, b2, qmax)]
    points = b1 + top
    order = sorted(range(2 * n), key=points.__getitem__)
    full = slope = offset = 0.0  # supply on a segment: full + lam * slope - offset
    interior = []
    lower = upper = points[order[0]]
    for j in order:
        upper = points[j]
        if demand - full + offset <= upper * slope:
            break  # supply reaches the requirement at or below this breakpoint
        lower = upper
        if j < n:
            if b2[j] > 0.0:
                interior.append(j)
                w = 0.5 / b2[j]
                slope += w
                offset += b1[j] * w
            else:
                full += qmax[j]
        elif b2[j - n] > 0.0:
            interior.remove(j - n)
            full += qmax[j - n]
            slope = sum(0.5 / b2[i] for i in interior)
            offset = sum(b1[i] * (0.5 / b2[i]) for i in interior)
    lam = lower
    if slope > 0.0:
        lam = min(max((demand - full + offset) / slope, lower), upper)

    x = [0.0] * n
    for i, (bb, cc, qq, tt) in enumerate(zip(b1, b2, qmax, top)):
        if lam > bb:
            x[i] = qq if lam >= tt else min((lam - bb) / (cc + cc), qq)
    residual = demand - sum(x)
    if residual:
        for i in sorted((i for i in range(n) if b1[i] <= lam <= top[i]), key=b2.__getitem__):
            xi = x[i] + residual
            if 0.0 <= xi <= qmax[i]:
                x[i] = xi
                break
            x[i] = 0.0 if xi < 0.0 else qmax[i]
            residual = xi - x[i]
    return x, lam


def clear_market(bids, demand: float, gencos) -> MarketOutcome:
    """Clear one hour: minimize claimed cost of meeting the requirement.

    Raises InfeasibleDemand (carrying the deliverable maximum) when the
    requirement exceeds total incremental capacity.
    """
    if not demand >= 0:  # also catches NaN
        raise ValueError(f"requirement must be nonnegative, got {demand}")
    if len(bids) != len(gencos):
        raise ValueError(f"{len(bids)} bids for {len(gencos)} producers")
    qmax = [g.q_max for g in gencos]
    total_cap = sum(qmax)
    if demand > total_cap + 1e-12:
        raise InfeasibleDemand(demand, total_cap)
    b1, b2 = [float(b.b1) for b in bids], [float(b.b2) for b in bids]
    x, lam = _solve_dispatch(b1, b2, qmax, demand)
    qg = np.array([g.bg + xi for g, xi in zip(gencos, x)])
    prices = np.array([b1i + 2.0 * b2i * xi for b1i, b2i, xi in zip(b1, b2, x)])
    return MarketOutcome(qg=qg, prices=prices, shadow_price=lam, demand=demand)


def clear_market_batch(b1: np.ndarray, b2: np.ndarray, qmax: np.ndarray,
                       demand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch for (T, n) bid arrays; returns (x (T, n), lambda (T,)).

    Each row goes through the scalar solver on plain floats, so it equals
    ``clear_market`` bit for bit.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if not np.all(demand >= 0):  # also catches NaN
        raise ValueError("requirement must be nonnegative")
    T, n = b1.shape
    if b2.shape != (T, n) or demand.shape != (T,):
        raise ValueError(f"b1 is {b1.shape}, so b2 must be {(T, n)} and demand {(T,)}; "
                         f"got {b2.shape} and {demand.shape}")
    qmax = np.asarray(qmax, dtype=float)
    try:
        cap = np.broadcast_to(qmax, (T, n))
    except ValueError:
        raise ValueError(f"qmax of shape {qmax.shape} does not broadcast to {(T, n)}") from None
    for name, coef in (("b1", b1), ("b2", b2), ("qmax", cap)):
        if not np.all((coef >= 0) & (coef < np.inf)):  # NaN fails too
            raise ValueError(f"{name} must be finite and nonnegative")
    total_cap = cap.sum(axis=1)
    bad = demand > total_cap + 1e-12
    if np.any(bad):
        t = int(np.argmax(bad))
        raise InfeasibleDemand(float(demand[t]), float(total_cap[t]))
    x = np.empty((T, n))
    lam = np.empty(T)
    for t in range(T):  # one row of floats at a time keeps the peak small
        x[t], lam[t] = _solve_dispatch(b1[t].tolist(), b2[t].tolist(), cap[t].tolist(),
                                       float(demand[t]))
    return x, lam


def profit(price: float, qg: float, genco: GencoParams) -> float:
    """Producer profit: revenue at the nodal price minus true incremental cost."""
    inc = qg - genco.bg
    return price * qg - genco.c1 * inc - genco.c2 * inc * inc


# ---------------------------------------------------------------------------
# Requirement series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemandConfig:
    """Synthetic hourly requirement profile constants.

    The base level is calibrated so the peak requirement reaches
    peak_units * participation: peak_units is the system reactive peak in
    100 MVAr units and participation the share procured on the market.
    """

    peak_units: float = 1.072
    participation: float = 0.6
    daily_amplitude: float = 0.45
    weekly_amplitude: float = 0.15
    noise_amplitude: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name}: must be finite and >= 0, got {value}")
        if self.peak_units == 0:
            raise ValueError("peak_units: must be positive")
        if not 0 < self.participation <= 1:
            raise ValueError(f"participation: must be in (0, 1], got {self.participation}")


@dataclass
class DemandSeries:
    """Hourly requirement values plus the [0, 1] normalization d_t."""

    values: np.ndarray
    normalized: np.ndarray


def demand_profile(episode_steps: int, seed: int,
                   config: DemandConfig = DemandConfig()) -> DemandSeries:
    """Seeded requirement series: base * (1 + daily + weekly sinusoids + noise).

    Values are clipped at zero; normalization divides by the series maximum.
    Needs at least MIN_PROFILE_STEPS steps so two full days of history exist.
    """
    if episode_steps < MIN_PROFILE_STEPS:
        raise ValueError(f"need >= {MIN_PROFILE_STEPS} steps, got {episode_steps}")
    rng = np.random.default_rng(seed)
    t = np.arange(episode_steps)
    amp_sum = 1.0 + config.daily_amplitude + config.weekly_amplitude + config.noise_amplitude
    base = config.peak_units * config.participation / amp_sum
    shape = (1.0
             + config.daily_amplitude * np.sin(2.0 * np.pi * (t - 9.0) / 24.0)
             + config.weekly_amplitude * np.sin(2.0 * np.pi * t / 168.0)
             + rng.uniform(-config.noise_amplitude, config.noise_amplitude, episode_steps))
    values = np.maximum(base * shape, 0.0)
    peak = values.max()
    normalized = values / peak if peak > 0 else np.zeros_like(values)
    return DemandSeries(values=values, normalized=normalized)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

class EnvStep(NamedTuple):
    reward: float
    done: bool
    info: dict


def action_decode(index: int) -> tuple[float, float]:
    """Grid index -> magnification pair; the first coordinate is the major axis. Anything
    but a Python or numpy int (not a bool) in [0, N_ACTIONS) raises ValueError."""
    is_int = isinstance(index, (int, np.integer)) and not isinstance(index, bool)
    if not (is_int and 0 <= index < N_ACTIONS):
        raise ValueError(f"action index must be an integer in [0, {N_ACTIONS - 1}], got {index!r}")
    i1, i2 = divmod(index, len(MAGNIFICATIONS))
    return MAGNIFICATIONS[i1], MAGNIFICATIONS[i2]


@dataclass
class ReactiveMarketEnv:
    """Episode of hourly clearings with one learning producer.

    ``reset(seed)`` regenerates the requirement series with a lead-in of
    one forecaster window (``forecast.WINDOW`` hours) so the forecaster has
    a full window before the first market hour. It returns the hourly
    totals, lead-in first, as ``simulate_total_quantity`` gives them. Rival
    bids and the truthful counterfactual depend only on the seed, so reset
    also draws every hour's rival bids and clears the learner's truthful
    bid (c1, c2) against them in one ``clear_market_batch`` call; an
    infeasible requirement raises InfeasibleDemand there. The arrays of
    the last seed that cleared are kept, so a reset with that seed again
    only rewinds the clock.

    Each step takes the learner's grid action index, bids (a1 c1, a2 c2)
    with the pair (a1, a2) that ``action_decode`` gives, clears the market
    once and returns the profit difference to the truthful counterfactual as
    the reward. The batch clearing is a loop of the scalar solver, so action
    0, the neutral pair (1, 1), earns exactly zero. The step's ``info`` holds
    the hour's bids, per-producer totals ``qg`` and nodal ``prices`` as lists
    of floats, in producer order.

    With the kept seed, an hour's clearing depends only on the action. So
    the first reset that rewinds the kept seed switches on a dispatch
    table of ``episode_steps`` x N_ACTIONS rows, one per hour and action.
    From then on an action's first clearing at an hour stores its
    dispatch, and a repeat reads it back instead of clearing again;
    ``info`` and the reward are built from the row the same way either
    way, so they are the same bits. A seed's first episode and fresh seeds
    never use the table, and a reset to another seed drops it.
    """

    gencos: tuple = DEFAULT_GENCOS
    learner: int = 0                       # index into gencos
    rival_strategy: str = "b1"
    demand_config: DemandConfig = field(default_factory=DemandConfig)
    episode_steps: int = 720

    def __post_init__(self):
        if not 0 <= self.learner < len(self.gencos):
            raise ValueError(f"learner index {self.learner} outside producer list")
        if self.rival_strategy not in RIVAL_STRATEGIES:
            raise ValueError(f"unknown rival strategy {self.rival_strategy!r}")
        if self.episode_steps < MIN_EPISODE_STEPS:
            raise ValueError(f"episode needs at least {MIN_EPISODE_STEPS} steps")
        self._t = self.episode_steps  # unusable until reset
        self._bids_b1: list | None = None
        self._seed = None  # seed whose arrays are held
        self._known = None  # (T, N_ACTIONS) flags of the dispatch table's filled rows, see above

    @property
    def demand_values(self) -> np.ndarray:
        """The episode's hourly requirement, read-only."""
        return self._values

    def reset(self, seed: int) -> np.ndarray:
        """Start an episode: series, rival bids and truthful counterfactual.

        They are rebuilt only when the seed differs from the last one that
        cleared; the first rewind of the kept seed switches the dispatch
        table on. Returns the total quantities of the lead-in and the episode.
        """
        if seed != self._seed:
            self._build(seed)
        elif self._known is None:
            shape = (self.episode_steps, N_ACTIONS)
            self._known = np.zeros(shape, dtype=bool)
            self._dispatch = np.empty(shape + (len(self.gencos),))
        self._t = 0
        return self._totals

    def _build(self, seed: int) -> None:
        self._seed = None
        self._known = self._dispatch = None
        self._t = self.episode_steps  # stays unusable if the clearing below raises
        full = demand_profile(self.episode_steps + WINDOW, seed, self.demand_config)
        self._totals = sum(g.bg for g in self.gencos) + full.values
        self._totals.setflags(write=False)  # reset hands out this array itself
        self._values = full.values[WINDOW:]
        self._d_norm = full.normalized[WINDOW:]
        # The truthful counterfactual below is cleared against these values once.
        self._values.setflags(write=False)
        self._d_norm.setflags(write=False)

        # Rival noise is drawn hour-major with rivals in index order, as a
        # per-hour scalar draw for each rival would be.
        k, me = self.learner, self.gencos[self.learner]
        c1 = np.array([g.c1 for g in self.gencos])
        c2 = np.array([g.c2 for g in self.gencos])
        if self.rival_strategy == "b1":
            noise = np.random.default_rng([seed, 1]).uniform(
                -B1_NOISE, B1_NOISE, size=(self.episode_steps, len(c1) - 1))
            d = self._d_norm[:, None] + np.insert(noise, k, 0.0, axis=1)
            d = np.minimum(np.maximum(d, 0.0), 1.0)
            b1, b2 = 2.0 * d * c1, 5.0 * d * c2
        else:
            b1 = np.tile(c1, (self.episode_steps, 1))
            b2 = np.tile(c2, (self.episode_steps, 1))
        b1[:, k], b2[:, k] = me.c1, me.c2
        # Floats, so a dispatch read back from the table has the types of a fresh one.
        self._qmax = [float(g.q_max) for g in self.gencos]
        x, _ = clear_market_batch(b1, b2, np.array(self._qmax), self._values)
        base_price = me.c1 + 2.0 * me.c2 * x[:, k]
        base_qg = me.bg + x[:, k]
        self._base_profit = profit(base_price, base_qg, me).tolist()
        self._base_payment = (base_price * base_qg).tolist()
        self._bids_b1, self._bids_b2 = b1.tolist(), b2.tolist()
        self._seed = seed

    def step(self, action: int) -> EnvStep:
        a1, a2 = action_decode(action)
        if self._bids_b1 is None:
            raise RuntimeError("call reset() before step()")
        if self._t >= self.episode_steps:
            return EnvStep(0.0, True, {"exhausted": True})

        t, k = self._t, self.learner
        me = self.gencos[k]
        demand = float(self._values[t])
        b1 = list(self._bids_b1[t])
        b2 = list(self._bids_b2[t])
        b1[k], b2[k] = a1 * me.c1, a2 * me.c2
        if self._known is not None and self._known[t, action]:
            x = self._dispatch[t, action].tolist()
        else:
            x, _ = _solve_dispatch(b1, b2, self._qmax, demand)
            if self._known is not None:
                self._dispatch[t, action] = x
                self._known[t, action] = True
        qg = [g.bg + xi for g, xi in zip(self.gencos, x)]
        prices = [b1i + 2.0 * b2i * xi for b1i, b2i, xi in zip(b1, b2, x)]
        p_base = self._base_profit[t]

        self._t += 1
        info = {
            "t": t,
            "demand": demand,
            "d_norm": float(self._d_norm[t]),
            "baseline_profit": p_base,
            "baseline_payment": self._base_payment[t],
            "bids_b1": b1,
            "bids_b2": b2,
            "qg": qg,
            "prices": prices,
        }
        return EnvStep(profit(prices[k], qg[k], me) - p_base, self._t >= self.episode_steps, info)


def simulate_total_quantity(gencos=DEFAULT_GENCOS, demand_config: DemandConfig = DemandConfig(),
                            seed: int = 0, steps: int = 720) -> np.ndarray:
    """Hourly total quantity, base generation plus requirement, with no clearing.

    Dispatch meets the requirement whatever the bids, so this is every hour's
    sum of dispatched totals: the forecaster's training series.
    """
    return sum(g.bg for g in gencos) + demand_profile(steps, seed, demand_config).values
