"""Small neural-network engine shared by the forecaster and the Q-learner.

Provides dense multilayer perceptrons (ReLU hidden layers, a linear output
layer) and a single-layer LSTM with hand-derived backpropagation, Adam and
Rprop optimizers, soft parameter blending for target networks, a
central-finite-difference gradient checker, and a JSON checkpoint format.

All arithmetic is float64; the gradient checks need the headroom.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Parameter or input dimensions disagree."""


class NumericError(RuntimeError):
    """A non-finite value entered a parameter update."""


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    # Uniform in +/- sqrt(6 / (fan_in + fan_out)): keeps initial outputs small.
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def _check_grads(params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """Raise unless there is one finite gradient of matching shape per parameter."""
    if len(params) != len(grads):
        raise ShapeError(f"{len(grads)} gradient arrays for {len(params)} parameter arrays")
    for k, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            bad = np.argwhere(~np.isfinite(g))[0]
            raise NumericError(
                f"non-finite gradient in array {k} at index {tuple(int(i) for i in bad)}"
            )
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")


# ---------------------------------------------------------------------------
# Dense network
# ---------------------------------------------------------------------------

@dataclass
class Mlp:
    """Fully connected network: ReLU hidden layers and a linear output layer.

    ``weights[k]`` has shape (out_k, in_k); adjacent layers must chain. The
    output layer is linear, so predictions are unbounded.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ShapeError("need one (weight, bias) pair per layer")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ShapeError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ShapeError(
                    f"layer {k} expects {w.shape[1]} inputs, got {self.weights[k - 1].shape[0]}"
                )

    # -- construction -------------------------------------------------------

    @classmethod
    def random(cls, layer_sizes: list[int], seed: int) -> "Mlp":
        """Seeded init: Glorot-uniform weights, zero biases. Deterministic."""
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ShapeError(f"need >= 2 positive layer sizes, got {layer_sizes}")
        rng = np.random.default_rng(seed)
        return cls([_glorot(rng, o, i) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])],
                   [np.zeros(o) for o in layer_sizes[1:]])

    @classmethod
    def zeros(cls, layer_sizes: list[int]) -> "Mlp":
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ShapeError(f"need >= 2 positive layer sizes, got {layer_sizes}")
        return cls([np.zeros((o, i)) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])],
                   [np.zeros(o) for o in layer_sizes[1:]])

    # -- introspection ------------------------------------------------------

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def params(self) -> list[np.ndarray]:
        """Live parameter arrays in a fixed order (W1, b1, W2, b2, ...)."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network; accepts a single vector or a (batch, in) array."""
        out, _ = self._forward_cache(np.asarray(x, dtype=float))
        return out

    def _forward_cache(self, x: np.ndarray):
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.shape[-1] != self.in_dim:
            raise ShapeError(f"input has {a.shape[-1]} features, network expects {self.in_dim}")
        layer_inputs = [a]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w.T + b, 0.0)
            layer_inputs.append(a)
        out = a @ self.weights[-1].T + self.biases[-1]
        return (out[0] if single else out), (layer_inputs, single)

    def backward(self, x: np.ndarray, output_gradient: np.ndarray) -> list[np.ndarray]:
        """Gradients of <output, output_gradient> w.r.t. every parameter.

        For batched inputs the per-sample inner products are summed.
        Returns arrays in ``params()`` order.
        """
        _, cache = self._forward_cache(np.asarray(x, dtype=float))
        g = np.asarray(output_gradient, dtype=float)
        if cache[1]:  # single vector
            g = g[None, :]
        if g.shape[-1] != self.out_dim:
            raise ShapeError(f"output gradient has {g.shape[-1]} entries, expected {self.out_dim}")
        return self._backward_from_cache(cache, g)

    def _backward_from_cache(self, cache, g: np.ndarray) -> list[np.ndarray]:
        layer_inputs, _ = cache
        grads: list[np.ndarray] = [np.empty(0)] * (2 * len(self.weights))
        d = g
        for k in range(len(self.weights) - 1, -1, -1):
            grads[2 * k] = d.T @ layer_inputs[k]
            grads[2 * k + 1] = d.sum(axis=0)
            if k > 0:
                # relu(z) > 0 exactly where z > 0; the subgradient at 0 is 0.
                d = (d @ self.weights[k]) * (layer_inputs[k] > 0.0)
        return grads


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each branch is the stable form for its sign.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


@dataclass
class Lstm:
    """Single-layer LSTM with a dense scalar head.

    Gate recursion per step (zero initial hidden and cell state):
        forget  f = sigmoid(W_f x + U_f h + b_f)
        input   i = sigmoid(W_i x + U_i h + b_i)
        cand    g = tanh   (W_g x + U_g h + b_g)
        output  o = sigmoid(W_o x + U_o h + b_o)
        cell    c = f * c_prev + i * g
        hidden  h = o * tanh(c)
    The prediction is w_out . h_last + b_out.

    The gates are stacked: ``w`` is (4u, in + u) and ``b`` is (4u,), with
    row blocks of u in the order f, i, o, g, so one sigmoid covers the
    pre-activation values of the first 3u rows and one tanh the last u.
    Each block's first ``in`` columns hold W and its last u columns hold U:
    W_f is ``w[:u, :in]``, U_i is ``w[u:2u, in:]``, b_g is ``b[3u:]``.
    """

    w: np.ndarray
    b: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        u = self.w_out.shape[0] if self.w_out.ndim == 1 else 0
        if (u < 1 or self.w.ndim != 2 or self.w.shape[0] != 4 * u or self.w.shape[1] <= u
                or self.b.shape != (4 * u,) or self.b_out.shape != (1,)):
            raise ShapeError(
                f"w {self.w.shape}, b {self.b.shape}, w_out {self.w_out.shape}, b_out "
                f"{self.b_out.shape} do not fit [w (4u, in + u), b (4u), w_out (u), b_out (1)]")

    @classmethod
    def random(cls, input_dim: int, units: int, seed: int) -> "Lstm":
        if input_dim < 1 or units < 1:
            raise ShapeError(f"input_dim and units must be >= 1, got {input_dim}, {units}")
        rng = np.random.default_rng(seed)
        # Glorot blocks drawn gate by gate in the order f, i, g, o, W before U.
        f, i, g, o = [np.hstack([_glorot(rng, units, input_dim), _glorot(rng, units, units)])
                      for _ in range(4)]
        w_out = _glorot(rng, 1, units)[0]
        return cls(np.vstack([f, i, o, g]), np.zeros(4 * units), w_out, np.zeros(1))

    @classmethod
    def zeros(cls, input_dim: int, units: int) -> "Lstm":
        return cls(np.zeros((4 * units, input_dim + units)), np.zeros(4 * units),
                   np.zeros(units), np.zeros(1))

    @property
    def units(self) -> int:
        return self.w_out.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w.shape[1] - self.units

    def params(self) -> list[np.ndarray]:
        return [self.w, self.b, self.w_out, self.b_out]

    def copy(self) -> "Lstm":
        return Lstm(*[p.copy() for p in self.params()])

    # -- forward ------------------------------------------------------------

    def _coerce_batch(self, sequences: np.ndarray) -> np.ndarray:
        x = np.asarray(sequences, dtype=float)
        if x.ndim == 2 and self.input_dim == 1:
            x = x[:, :, None]
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ShapeError(f"expected sequences of {self.input_dim}-dim inputs, got {x.shape}")
        if x.shape[1] == 0:
            raise ShapeError("empty sequence")
        return x

    def forward(self, sequence: np.ndarray) -> tuple[np.ndarray, float]:
        """Run one sequence; returns (final hidden state, scalar prediction)."""
        seq = np.asarray(sequence, dtype=float)
        if seq.ndim == 1:
            seq = seq[:, None]
        h = self._hidden(self._coerce_batch(seq[None, :, :]))
        return h[0], float(self._head(h)[0])

    def forward_batch(self, sequences: np.ndarray) -> np.ndarray:
        """Predictions for a (batch, steps[, input_dim]) array of sequences."""
        return self._head(self._hidden(self._coerce_batch(sequences)))

    def _forward_batch_cache(self, x: np.ndarray):
        """Predictions plus the per-step values that BPTT reads."""
        x = self._coerce_batch(x)
        per_step: list = []
        h = self._hidden(x, per_step)
        return self._head(h), (x, h, per_step)

    def _head(self, h: np.ndarray) -> np.ndarray:
        return h @ self.w_out + self.b_out[0]

    def _hidden(self, x: np.ndarray, per_step: list | None = None) -> np.ndarray:
        """Final hidden state; appends (h_prev, c_prev, [f i o], g, tanh c) to per_step."""
        n, steps, d = x.shape
        u = self.units
        w_in, w_rec = self.w[:, :d].T, self.w[:, d:].T
        h = np.zeros((n, u))
        c = np.zeros((n, u))
        for t in range(steps):
            z = x[:, t] @ w_in + h @ w_rec + self.b
            s = _sigmoid(z[:, :3 * u])
            g = np.tanh(z[:, 3 * u:])
            h_prev, c_prev = h, c
            c = s[:, :u] * c + s[:, u:2 * u] * g
            tc = np.tanh(c)
            h = s[:, 2 * u:] * tc
            if per_step is not None:
                per_step.append((h_prev, c_prev, s, g, tc))
        return h

    # -- backward -----------------------------------------------------------

    def backward(self, sequence: np.ndarray, loss_gradient: float) -> list[np.ndarray]:
        """Backpropagation through time of prediction * loss_gradient."""
        seq = np.asarray(sequence, dtype=float)
        if seq.ndim == 1:
            seq = seq[:, None]
        _, cache = self._forward_batch_cache(seq[None, :, :])
        return self._backward_from_cache(cache, np.array([float(loss_gradient)]))

    def _backward_from_cache(self, cache, dy: np.ndarray) -> list[np.ndarray]:
        x, h_last, per_step = cache
        n, steps, d = x.shape
        u = self.units
        w_rec = self.w[:, d:]
        dz = np.empty((steps, n, 4 * u))  # pre-activation gradients, gates f, i, o, g
        dh = dy[:, None] * self.w_out[None, :]
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
        # Each weight row sees [x_t, h_prev] over every (step, row) pair.
        xh = np.concatenate([x.transpose(1, 0, 2), np.stack([p[0] for p in per_step])], axis=2)
        dz = dz.reshape(steps * n, 4 * u)
        return [dz.T @ xh.reshape(steps * n, d + u), dz.sum(axis=0),
                dy @ h_last, dy.sum(keepdims=True)]


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class Adam:
    """Standard Adam with bias-corrected moments. Updates parameters in place."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, net, grads: list[np.ndarray]) -> None:
        params = net.params()
        _check_grads(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)


class Rprop:
    """Resilient backpropagation: sign-based per-parameter step adaptation.

    Classic constants: grow 1.2 on a stable gradient sign, shrink 0.5 on a
    sign flip (skipping that update), steps clamped to [step_min, step_max].
    """

    def __init__(self, step_init: float = 0.1, grow: float = 1.2, shrink: float = 0.5,
                 step_min: float = 1e-6, step_max: float = 50.0):
        self.step_init = step_init
        self.grow = grow
        self.shrink = shrink
        self.step_min = step_min
        self.step_max = step_max
        self._steps: list[np.ndarray] | None = None
        self._prev: list[np.ndarray] | None = None

    def step(self, net, grads: list[np.ndarray]) -> None:
        params = net.params()
        _check_grads(params, grads)
        if self._steps is None:
            self._steps = [np.full_like(p, self.step_init) for p in params]
            self._prev = [np.zeros_like(p) for p in params]
        for k, (p, g) in enumerate(zip(params, grads)):
            prod = self._prev[k] * g
            steps = self._steps[k]
            steps[prod > 0] = np.minimum(steps[prod > 0] * self.grow, self.step_max)
            steps[prod < 0] = np.maximum(steps[prod < 0] * self.shrink, self.step_min)
            g_eff = np.where(prod < 0, 0.0, g)
            p -= np.sign(g_eff) * steps
            self._prev[k] = g_eff


def soft_update(target, local, tau: float):
    """Blend target parameters toward local: new = (1 - tau) * target + tau * local."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if type(target) is not type(local):
        raise ShapeError("target and local networks have different kinds")
    blended = target.copy()
    for pt, pl in zip(blended.params(), local.params()):
        if pt.shape != pl.shape:
            raise ShapeError(f"parameter shapes differ: {pt.shape} vs {pl.shape}")
        pt *= 1.0 - tau
        pt += tau * pl
    return blended


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(net, inputs: np.ndarray, epsilon: float = 1e-5,
               probe: np.ndarray | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    For an ``Mlp`` the checked scalar is <probe, forward(inputs)> (probe
    defaults to all ones); for an ``Lstm`` it is the scalar prediction.
    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if isinstance(net, Mlp):
        if probe is None:
            probe = np.ones(net.out_dim)
        evaluate = lambda: float(np.dot(probe, net.forward(inputs)))
        analytic = net.backward(inputs, probe)
    elif isinstance(net, Lstm):
        evaluate = lambda: net.forward(inputs)[1]
        analytic = net.backward(inputs, 1.0)
    else:
        raise TypeError(f"cannot gradient-check {type(net).__name__}")

    worst = 0.0
    for p, g in zip(net.params(), analytic):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            f_plus = evaluate()
            flat[idx] = orig - epsilon
            f_minus = evaluate()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            denom = max(abs(gflat[idx]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[idx] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_network(net, path: str) -> None:
    """Write a network as JSON: shape header plus row-major parameter arrays."""
    if isinstance(net, Mlp):
        blob = {"kind": "mlp", "layer_sizes": net.layer_sizes}
    elif isinstance(net, Lstm):
        blob = {"kind": "lstm", "input_dim": net.input_dim, "units": net.units}
    else:
        raise TypeError(f"cannot serialize {type(net).__name__}")
    blob["arrays"] = [p.reshape(-1).tolist() for p in net.params()]
    with open(path, "w") as fh:
        json.dump(blob, fh)


def load_network(path: str):
    with open(path) as fh:
        blob = json.load(fh)
    kind = blob.get("kind")
    if kind == "mlp":
        net = Mlp.zeros(blob["layer_sizes"])  # older files' ReLU/linear tags are ignored
    elif kind == "lstm":
        net = Lstm.zeros(blob["input_dim"], blob["units"])
    else:
        raise ValueError(f"unknown network kind {kind!r} in {path}")
    arrays = blob["arrays"]
    params = net.params()
    if len(arrays) != len(params):
        raise ShapeError(f"checkpoint has {len(arrays)} arrays, expected {len(params)}")
    for p, flat in zip(params, arrays):
        vals = np.asarray(flat, dtype=float)
        if vals.size != p.size:
            raise ShapeError(f"array size {vals.size} != expected {p.size}")
        p[...] = vals.reshape(p.shape)
    return net
