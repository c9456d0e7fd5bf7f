"""Independent references used by the test suite only.

Brute-force searches, exact value iteration, the bisection dispatch the
library used before its breakpoint walk, the per-hour rival bids the
environment draws as arrays, the per-array Adam, soft update and
dense backward pass the library used before its flat parameter vector,
the nfq1 input rows the library built before it wrote them in place, and
the per-step LSTM loop, BPTT and sigmoid it used before its step buffers.
"""

import numpy as np

from varbid.market import B1_NOISE, Bid, GencoParams


def grid_dispatch(b1, b2, qmax, demand, step=1e-3):
    """Exhaustive minimum of sum_i b1_i x_i + b2_i x_i^2 on a quantity grid.

    Every producer's allocation is restricted to multiples of ``step`` and
    the combinations summing to ``demand`` (itself grid-aligned) are searched
    exhaustively via stage-wise tabulation. Returns (x array, objective).
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    qmax = np.asarray(qmax, dtype=float)
    levels = int(round(demand / step))
    assert abs(levels * step - demand) < step * 1e-6, "demand must sit on the grid"
    size = levels + 1
    best = np.full(size, np.inf)
    best[0] = 0.0
    choices = []
    for i in range(len(b1)):
        k_max = min(int(np.floor(qmax[i] / step + 1e-9)), levels)
        xs = np.arange(k_max + 1) * step
        costs = b1[i] * xs + b2[i] * xs * xs
        new = np.full(size, np.inf)
        arg = np.zeros(size, dtype=int)
        for k in range(k_max + 1):
            cand = best[: size - k] + costs[k]
            better = cand < new[k:]
            new[k:][better] = cand[better]
            arg[k:][better] = k
        best = new
        choices.append(arg)
    assert np.isfinite(best[levels]), "demand not reachable on the grid"
    x = np.zeros(len(b1))
    level = levels
    for i in range(len(b1) - 1, -1, -1):
        k = choices[i][level]
        x[i] = k * step
        level -= k
    return x, float(best[levels])


def dispatch_objective(b1, b2, x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.asarray(b1) * x + np.asarray(b2) * x * x))


def random_dispatch_instance(rng, n=None, step=1e-3):
    """Feasible instance with cost coefficients in the producer-table range.

    Capacities and demand are snapped to the oracle's grid so the exhaustive
    grid search can represent the boundary allocations exactly.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    b1 = rng.uniform(0.5, 0.9, size=n) * rng.uniform(1.0, 2.0, size=n)
    b2 = rng.uniform(0.25, 1.0, size=n) * rng.uniform(1.0, 2.0, size=n)
    qmax = np.round(rng.uniform(0.3, 0.7, size=n) / step) * step
    raw = rng.uniform(0.05, 0.95) * qmax.sum()
    demand = round(raw / step) * step
    return b1, b2, qmax, demand


def bisect_dispatch(b1, b2, qmax, demand):
    """Allocate incremental quantities by bisection on the shadow price.

    The library's former solver, kept as a reference on another algorithm
    than its breakpoint walk: 60 bisection steps, zero-curvature units
    classified within the bisection gap, a Newton repair of the balance
    along the interior units and a hand-over of what the repair leaves.
    Needs demand > 0. Returns (x list, lambda).
    """
    n = len(b1)
    data = tuple(zip(b1, b2, qmax))
    lo = min(b1)
    hi = lo
    for bb, cc, qq in data:
        m = bb + 2.0 * cc * qq
        if m > hi:
            hi = m
    hi += 1.0  # strictly above every marginal cost: full capacity at hi
    for _ in range(60):
        lam = 0.5 * (lo + hi)
        total = 0.0
        for bb, cc, qq in data:
            if cc > 0.0:
                xi = (lam - bb) / (cc + cc)
                if xi > 0.0:
                    total += qq if xi > qq else xi
            elif lam >= bb:
                total += qq
        if total < demand:
            lo = lam
        else:
            hi = lam
    lam = 0.5 * (lo + hi)
    gap = max(1e-9, hi - lo)

    # Zero-curvature units are step functions of the price: classify them at
    # the converged price (full below it, idle above it, marginal inside the
    # bisection gap). Marginal ones are filled with whatever the priced-in
    # units leave over, which is the allocation the shared-marginal-cost
    # condition prescribes at the jump.
    x = [0.0] * n
    marginal = []
    fixed_total = 0.0
    for k, (bb, cc, qq) in enumerate(data):
        if cc == 0.0:
            if bb < lam - gap:
                x[k] = qq
                fixed_total += qq
            elif bb <= lam + gap:
                marginal.append(k)

    def fill_curved(price):
        total = 0.0
        slope = 0.0
        for k, (bb, cc, qq) in enumerate(data):
            if cc > 0.0:
                xi = (price - bb) / (cc + cc)
                if xi <= 0.0:
                    xi = 0.0
                elif xi >= qq:
                    xi = qq
                else:
                    slope += 0.5 / cc
                x[k] = xi
                total += xi
        return total, slope

    curved_total, slope = fill_curved(lam)
    residual = demand - fixed_total - curved_total
    for k in marginal:
        if residual <= 1e-15:
            break
        take = qmax[k] if qmax[k] < residual else residual
        x[k] = take
        residual -= take
    # Exact balance repair along strictly interior curved units.
    for _ in range(3):
        if -1e-12 <= residual <= 1e-12 or slope <= 0.0:
            break
        lam += residual / slope
        curved_total, slope = fill_curved(lam)
        residual = demand - fixed_total - curved_total - sum(x[k] for k in marginal)
    if residual < -1e-12 or residual > 1e-12:
        # One ulp of lambda moves a unit of tiny curvature by more than the
        # residual. Hand the residual to the curved units priced at lambda
        # that can move its way, in proportion to their slopes, as the price
        # move lambda cannot resolve would.
        movers = [k for k, (bb, cc, qq) in enumerate(data)
                  if cc > 0.0 and bb <= lam + gap and bb + 2.0 * cc * qq >= lam - gap
                  and (x[k] < qq if residual > 0.0 else x[k] > 0.0)]
        share = sum(0.5 / b2[k] for k in movers)
        for k in movers:
            xi = x[k] + residual * (0.5 / b2[k] / share)
            x[k] = min(max(xi, 0.0), qmax[k])
    return x, lam


def rival_bids(strategy: str, genco: GencoParams, d_norm: float,
               rng: np.random.Generator) -> Bid:
    """Bid for a non-learning producer, one hour at a time: the env's reference.

    "b1": markup scaled by a noisy view of normalized demand,
          (2 d c1, 5 d c2) with d = clip(d_norm + U(-0.05, 0.05), 0, 1).
    "b2": truthful (c1, c2).
    """
    if not 0.0 <= d_norm <= 1.0:
        raise ValueError(f"d_norm must be in [0, 1], got {d_norm}")
    if strategy == "b2":
        return Bid(genco.c1, genco.c2)
    if strategy == "b1":
        d = d_norm + rng.uniform(-B1_NOISE, B1_NOISE)
        d = min(max(d, 0.0), 1.0)
        return Bid(2.0 * d * genco.c1, 5.0 * d * genco.c2)
    raise ValueError(f"unknown rival strategy {strategy!r}")


def value_iteration(rewards, transitions, gamma, sweeps=5000):
    """Exact greedy policy of a small deterministic MDP.

    rewards[(s, a)] and transitions[(s, a)] are dicts over state-action pairs.
    """
    states = sorted({s for s, _ in rewards})
    actions = sorted({a for _, a in rewards})
    values = {s: 0.0 for s in states}
    for _ in range(sweeps):
        values = {s: max(rewards[(s, a)] + gamma * values[transitions[(s, a)]]
                         for a in actions) for s in states}
    return [int(np.argmax([rewards[(s, a)] + gamma * values[transitions[(s, a)]]
                           for a in actions])) for s in states]


class AdamReference:
    """Adam applied array by array to a list of parameter arrays, in place."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.t = 0
        self.m = self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)


def soft_update_reference(target, local, tau):
    """New arrays (1 - tau) * target + tau * local, blended array by array."""
    blended = [p.copy() for p in target]
    for pt, pl in zip(blended, local):
        pt *= 1.0 - tau
        pt += tau * pl
    return blended


def mlp_backward_reference(weights, biases, x, g):
    """Per-array gradients (W1, b1, W2, b2, ...) of the row-summed <mlp(x), g>."""
    layer_inputs = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        layer_inputs.append(np.maximum(layer_inputs[-1] @ w.T + b, 0.0))
    grads = [None] * (2 * len(weights))
    d = g
    for k in range(len(weights) - 1, -1, -1):
        grads[2 * k] = d.T @ layer_inputs[k]
        grads[2 * k + 1] = d.sum(axis=0)
        if k > 0:
            d = (d @ weights[k]) * (layer_inputs[k] > 0.0)
    return grads


def nfq1_rows_reference(states, n_actions):
    """nfq1 inputs for every (state, action) pair, state-major: repeat, tile, append
    the action index over n_actions - 1."""
    states = np.asarray(states, dtype=float)
    actions = np.tile(np.arange(n_actions), len(states))
    return np.concatenate([np.repeat(states, n_actions, axis=0),
                           (actions / (n_actions - 1))[:, None]], axis=1)


def sigmoid_reference(x):
    """The stable sigmoid the library used before its in-place form."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def lstm_hidden_reference(lstm, x, per_step=None):
    """Final hidden state of the library's former per-step loop for a (n, steps, in) batch;
    appends (h_prev, c_prev, [f i o], g, tanh c) to per_step."""
    n, steps, d = x.shape
    u = lstm.units
    w_in, w_rec = lstm.w[:, :d].T, lstm.w[:, d:].T
    h = np.zeros((n, u))
    c = np.zeros((n, u))
    for t in range(steps):
        z = x[:, t] @ w_in + h @ w_rec + lstm.b
        s = sigmoid_reference(z[:, :3 * u])
        g = np.tanh(z[:, 3 * u:])
        h_prev, c_prev = h, c
        c = s[:, :u] * c + s[:, u:2 * u] * g
        tc = np.tanh(c)
        h = s[:, 2 * u:] * tc
        if per_step is not None:
            per_step.append((h_prev, c_prev, s, g, tc))
    return h


def lstm_forward_cache_reference(lstm, x):
    """(predictions, cache) of the former training forward; x is (n, steps, in)."""
    per_step = []
    h = lstm_hidden_reference(lstm, x, per_step)
    return h @ lstm.w_out + lstm.b_out[0], (x, h, per_step)


def lstm_backward_reference(lstm, cache, dy):
    """Flat gradient of the row-summed prediction * dy by the former per-step BPTT."""
    x, h_last, per_step = cache
    n, steps, d = x.shape
    u = lstm.units
    w_rec = lstm.w[:, d:]
    dz = np.empty((steps, n, 4 * u))
    dh = dy[:, None] * lstm.w_out[None, :]
    dc = np.zeros_like(dh)
    for t in range(steps - 1, -1, -1):
        _, c_prev, s, g, tc = per_step[t]
        dc = dc + dh * s[:, 2 * u:] * (1.0 - tc * tc)
        dzt = dz[t]
        dzt[:, :u] = dc * c_prev
        dzt[:, u:2 * u] = dc * g
        dzt[:, 2 * u:3 * u] = dh * tc
        dzt[:, :3 * u] *= s
        dzt[:, :3 * u] *= 1.0 - s
        dzt[:, 3 * u:] = dc * s[:, u:2 * u] * (1.0 - g * g)
        dh = dzt @ w_rec
        dc = dc * s[:, :u]
    xh = np.concatenate([x.transpose(1, 0, 2), np.stack([p[0] for p in per_step])], axis=2)
    dz = dz.reshape(steps * n, 4 * u)
    dw = dz.T @ xh.reshape(steps * n, d + u)
    return np.concatenate([dw.ravel(), dz.sum(axis=0), dy @ h_last, [dy.sum()]])
