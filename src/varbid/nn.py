"""Small neural-network engine shared by the forecaster and the Q-learner.

Provides dense multilayer perceptrons (ReLU hidden layers, a linear output
layer) and a single-layer LSTM with hand-derived backpropagation, the Adam
optimizer, soft parameter blending for target networks, a
central-finite-difference gradient checker, and a JSON checkpoint format.

Each network copies its arrays into one float64 vector ``theta`` and keeps
them as views into it, listed in ``theta`` order by ``params()``. Backward
passes return one gradient vector in that order, so the optimizer, the
soft update and the gradient checker each work on one vector. All
arithmetic is float64; the gradient checks need the headroom.
``Mlp`` writes hidden layers into per-network buffers of ``_STREAM_ROWS``
rows, mapped with the network and never regrown. ``forward`` streams a
larger batch through them block by block into one output array, so it
allocates only its output. The next call overwrites the layer inputs kept
for backward; a training batch of more than ``_STREAM_ROWS`` rows gets
layer arrays of its own, dropped after its backward pass. Bias and ReLU
passes over ``_BLOCK_ROWS`` rows or more run on blocks viewed as long rows,
at vector speed and bit-identical.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


class ShapeError(ValueError):
    """Parameter or input dimensions disagree."""


class NumericError(RuntimeError):
    """A non-finite value entered a parameter update."""


# Hidden-layer bias and ReLU passes view each whole block of _BLOCK_ROWS rows as
# one long row. numpy broadcasts a bias one row at a time and has no vector loop
# for maximum against a scalar; on long rows both run at vector speed with the
# same values. On a 2-vCPU AMD EPYC VM (numpy 2.4.6) a 64-state nfq1 target pass
# (5,184 rows) took 494-512 us with blocks of 96 to 512 rows, 560 us with 32 or
# 64, and 744 us on the plain path. Batches under 128 rows, such as one state's
# 81 rows or a 64-row training batch, keep the plain path, which suits them better.
# There the ReLU is a maximum against the scalar 0.0, which numpy runs as one loop over
# the whole array: on a 2-vCPU Intel Xeon (Sapphire Rapids) VM (numpy 2.4.6, timeit,
# 64-wide rows) it took 0.69-3.8 us from 1 to 127 rows, against 0.85-6.1 us with a zero
# row broadcast row by row. From 128 rows on, long zero rows beat the scalar by about 10 %.
_BLOCK_ROWS = 128

# Each Mlp hidden-layer buffer holds _STREAM_ROWS rows, so a net's buffers stay the
# same size whatever batch it sees; forward runs a larger batch through them block by
# block. On a 2-vCPU Intel Xeon (Sapphire Rapids) VM (numpy 2.4.6, OpenBLAS, 2 threads)
# the nfq1 target pass over 64 states (5,184 rows; timeit, best to median of 15, three
# sweeps) took 1.58-2.05 ms in one pass, 1.53-1.96 ms in blocks of 768 to 2,048 rows,
# 1.96-2.23 ms at 512, 2.70-3.03 ms at 256 and 3.15-3.70 ms at 128, all with the one
# pass's bits. At 1,024 rows two 64-wide layers take 1 MB of a core's 2 MB L2.
_STREAM_ROWS = 1024


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    # Uniform in +/- sqrt(6 / (fan_in + fan_out)): keeps initial outputs small.
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of ``flat`` reshaped to ``shapes``: views, not copies."""
    ends = itertools.accumulate(math.prod(shape) for shape in shapes)
    return [flat[end - math.prod(shape):end].reshape(shape) for end, shape in zip(ends, shapes)]


def _pack(net, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Copy ``arrays`` into a new ``net.theta``; returns the views that replace them."""
    net.shapes = tuple(a.shape for a in arrays)
    net.theta = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
    return _views(net.theta, net.shapes)


def _check_grad(theta: np.ndarray, grad: np.ndarray) -> None:
    """Raise unless ``grad`` is a finite vector shaped like ``theta``."""
    if np.shape(grad) != theta.shape:
        raise ShapeError(f"gradient shape {np.shape(grad)} != parameter shape {theta.shape}")
    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient at index {int(np.argmin(np.isfinite(grad)))}")


# ---------------------------------------------------------------------------
# Dense network
# ---------------------------------------------------------------------------

class Mlp:
    """Fully connected network: ReLU hidden layers and a linear output layer.

    ``weights[k]`` has shape (out_k, in_k); adjacent layers must chain. The
    output layer is linear, so predictions are unbounded. ``theta`` holds
    W1, b1, W2, b2, ... back to back; the arrays given are copied into it.
    """

    LAYOUT = "[W1 (n1, n0), b1 (n1), W2 (n2, n1), b2 (n2), ...] for layer_sizes [n0, n1, n2, ...]"

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if not weights or len(weights) != len(biases):
            raise ShapeError("need one (weight, bias) pair per layer")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ShapeError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if k > 0 and w.shape[1] != weights[k - 1].shape[0]:
                raise ShapeError(
                    f"layer {k} expects {w.shape[1]} inputs, got {weights[k - 1].shape[0]}"
                )
        views = _pack(self, [p for pair in zip(weights, biases) for p in pair])
        self.weights, self.biases = views[0::2], views[1::2]
        # The hidden-layer buffers: one (_STREAM_ROWS, width) array per hidden layer,
        # never regrown. Each maps fresh anonymous memory, whose pages take memory only
        # once written, so a net that sees small batches holds only the rows it uses.
        # From malloc a buffer can take freed heap memory that is already resident:
        # desk_nfq2 (batches of at most 81 rows) read 0.9 MB more peak_rss_mb that way.
        # mmap is imported here so that a process that builds no Mlp never loads it.
        import mmap
        self._work = [np.frombuffer(mmap.mmap(-1, 8 * _STREAM_ROWS * w.shape[0]))
                      .reshape(_STREAM_ROWS, w.shape[0]) for w in self.weights[:-1]]
        # Per hidden layer: the bias tiled _BLOCK_ROWS times (rewritten from the bias at
        # every use, since theta changes in place) and zeros of that length.
        self._relu = [(np.empty(_BLOCK_ROWS * w.shape[0]), np.zeros(_BLOCK_ROWS * w.shape[0]))
                      for w in self.weights[:-1]]

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
        """Views into ``theta`` in its order (W1, b1, W2, b2, ...)."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def copy(self) -> "Mlp":
        return Mlp(self.weights, self.biases)

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network on a single vector or a (batch, in) array; returns a new array.

        A batch of more than ``_STREAM_ROWS`` rows runs through the hidden-layer buffers
        in the fewest blocks that fit, of near-equal size rounded up to 8 rows: a short
        tail block would run through other BLAS kernels (one row is a gemv) and so change
        the last bits of its rows."""
        x, a = self._batch(x)
        rows = len(a)
        if rows <= _STREAM_ROWS:
            out = self._forward_into(a, self._work)[0]
        else:
            out = np.empty((rows, self.out_dim))
            step = 8 * -(-rows // (8 * -(-rows // _STREAM_ROWS)))
            for start in range(0, rows, step):
                self._forward_into(a[start:start + step], self._work, out[start:start + step])
        return out[0] if x.ndim == 1 else out

    def _forward_cache(self, x: np.ndarray):
        """Output and every layer's input, for the backward pass, which needs the whole
        batch. Up to ``_STREAM_ROWS`` rows the hidden layers go into this network's
        buffers, so the next call on this network overwrites the layer inputs: run the
        backward pass before it. A larger batch gets arrays of its own, not kept."""
        x, a = self._batch(x)
        work = (self._work if len(a) <= _STREAM_ROWS
                else [np.empty((len(a), w.shape[0])) for w in self.weights[:-1]])
        out, layer_inputs = self._forward_into(a, work)
        return (out[0] if x.ndim == 1 else out), layer_inputs

    def _batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``x`` as a float array, and its rows as a (batch, in) array."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.in_dim:
            raise ShapeError(f"input of shape {x.shape} is not a vector or a batch of "
                             f"{self.in_dim}-feature rows")
        return x, (x[None, :] if x.ndim == 1 else x)

    def _forward_into(self, a: np.ndarray, work: list[np.ndarray], out=None):
        """Output for the rows ``a``, written into ``out`` if given, and every layer's
        input, the hidden layers in prefixes of the ``work`` arrays. Bias and ReLU passes
        take each whole block of ``_BLOCK_ROWS`` rows as one long row."""
        rows = len(a)
        layer_inputs = [a]
        for k, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            a = np.matmul(a, w.T, out=work[k][:rows])
            tiled, zeros = self._relu[k]
            rest = a
            if rows >= _BLOCK_ROWS:
                split = rows - rows % _BLOCK_ROWS
                # A buffer prefix is C-contiguous, so this is a view.
                blocks = a[:split].reshape(-1, len(tiled))
                np.copyto(tiled.reshape(_BLOCK_ROWS, -1), b)
                blocks += tiled
                np.maximum(blocks, zeros, out=blocks)
                rest = a[split:]
            rest += b
            np.maximum(rest, 0.0, out=rest)
            layer_inputs.append(a)
        out = np.matmul(a, self.weights[-1].T, out=out)
        out += self.biases[-1]  # in place: one output-sized array, not two
        return out, layer_inputs

    def _backward_from_cache(self, layer_inputs, g: np.ndarray) -> np.ndarray:
        """Gradient of the row-summed <output, g> for a (batch, out) g, laid out like theta."""
        grad = np.empty_like(self.theta)
        grads = _views(grad, self.shapes)
        d = g
        for k in range(len(self.weights) - 1, -1, -1):
            np.matmul(d.T, layer_inputs[k], out=grads[2 * k])
            np.sum(d, axis=0, out=grads[2 * k + 1])
            if k > 0:
                # relu(z) > 0 exactly where z > 0; the subgradient at 0 is 0.
                d = (d @ self.weights[k]) * (layer_inputs[k] > 0.0)
        return grad


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray, e: np.ndarray, num: np.ndarray) -> None:
    """Overwrite ``z`` with sigmoid(z); ``e`` and ``num`` are scratch arrays shaped like it.

    With e = exp(-|z|), which never overflows, sigmoid(z) is 1 / (1 + e) for z >= 0
    and e / (1 + e) below. Since e <= 1, the numerator is max(e, [z >= 0]).
    """
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(z, 0.0, out=num)
    np.maximum(e, num, out=num)
    e += 1.0
    np.divide(num, e, out=z)


def _one_slot(shape: tuple) -> np.ndarray:
    """A writable ``shape`` array whose first axis repeats one slot: every index is one memory."""
    slot = np.empty(shape[1:])
    return np.lib.stride_tricks.as_strided(slot, shape, (0, *slot.strides))


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
    ``theta`` holds w, b, w_out, b_out back to back; the arrays given are
    copied into it.

    A training forward on n sequences of T steps keeps what BPTT reads in
    one flat buffer per network, grown to the largest batch it has seen; a
    smaller batch views a prefix. In order, as C-contiguous arrays:
        dz    (T, n, 4u)      BPTT's pre-activation gradients, columns as in ``w``
        xh    (T, n, in + u)  [x_t, h_{t-1}], the weight gradient's other operand
        acts  (T, 4, n, u)    gates f, i, o, g, gate by gate
        cs    (T + 1, n, u)   c_{t-1} at index t, zero at index 0
        tcs   (T, n, u)       tanh(c_t)
        d_s   (T, 3, n, u)    1 - s for f, i, o
        d_g   (T, n, u)       1 - g^2
        d_tc  (T, n, u)       1 - tanh(c_t)^2
    The next training forward on the network overwrites the cache the
    previous one returned, so run the backward pass first. ``copy()`` and
    the checkpoint loaders start without the buffer, and ``train_forecaster``
    drops it before it returns. An inference forward keeps no steps: each
    step writes over the last in one slot per array.
    """

    LAYOUT = "[w (4u, in + u), b (4u), w_out (u), b_out (1)]"

    def __init__(self, w: np.ndarray, b: np.ndarray, w_out: np.ndarray, b_out: np.ndarray):
        u = w_out.shape[0] if w_out.ndim == 1 else 0
        if (u < 1 or w.ndim != 2 or w.shape[0] != 4 * u or w.shape[1] <= u
                or b.shape != (4 * u,) or b_out.shape != (1,)):
            raise ShapeError(
                f"w {w.shape}, b {b.shape}, w_out {w_out.shape}, b_out "
                f"{b_out.shape} do not fit {self.LAYOUT}")
        self.w, self.b, self.w_out, self.b_out = _pack(self, [w, b, w_out, b_out])
        self._train_buf: np.ndarray | None = None  # training step buffers, see above

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
        """Views into ``theta`` in its order (w, b, w_out, b_out)."""
        return [self.w, self.b, self.w_out, self.b_out]

    def copy(self) -> "Lstm":
        return Lstm(*self.params())

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

    def forward_batch(self, sequences: np.ndarray) -> np.ndarray:
        """Predictions for a (batch, steps[, input_dim]) array of sequences."""
        return self._head(self._hidden(self._coerce_batch(sequences)))

    def _forward_batch_cache(self, x: np.ndarray):
        """Predictions plus the training buffers that BPTT reads (see the class notes)."""
        x = self._coerce_batch(x)
        n, steps, d = x.shape
        u = self.units
        shapes = [(steps, n, 4 * u), (steps, n, d + u), (steps, 4, n, u), (steps + 1, n, u),
                  (steps, n, u), (steps, 3, n, u), (steps, n, u), (steps, n, u)]
        size = sum(math.prod(shape) for shape in shapes)
        if self._train_buf is None or self._train_buf.size < size:
            self._train_buf = np.empty(size)
        bufs = _views(self._train_buf[:size], shapes)
        h = self._hidden(x, *bufs[1:5])
        return self._head(h), (h, bufs)

    def _head(self, h: np.ndarray) -> np.ndarray:
        return h @ self.w_out + self.b_out[0]

    def _hidden(self, x: np.ndarray, xh=None, acts=None, cs=None, tcs=None) -> np.ndarray:
        """Final hidden state. Given the training buffers, every step keeps its values
        there; without them, each step writes over the last in one slot per array."""
        n, steps, d = x.shape
        u = self.units
        w_in, w_rec = self.w[:, :d].T, self.w[:, d:].T
        if xh is None:
            acts, cs, tcs = (_one_slot(shape) for shape in
                             ((steps, 4, n, u), (steps + 1, n, u), (steps, n, u)))
        else:
            xh[:, :, :d] = x.transpose(1, 0, 2)
            xh[0, :, d:] = 0.0
        cs[0] = 0.0
        h = np.zeros((n, u))
        z = np.empty((n, 4 * u))
        z_gates = z.reshape(n, 4, u).transpose(1, 0, 2)
        xw = np.empty((n, 4 * u))
        # With one input, x_t W is one product per entry: a broadcast multiply gives
        # the k = 1 matmul's values without its BLAS call.
        w_col = self.w[:, 0].copy() if d == 1 else None
        b = self.b.reshape(4, 1, u)
        e, num, ig = np.empty((3, n, u)), np.empty((3, n, u)), np.empty((n, u))
        for t in range(steps):
            # (x_t W + h U) + b in that order; the bias add also lays the gates out one by one.
            np.matmul(h, w_rec, out=z)
            z += (np.multiply(x[:, t], w_col, out=xw) if d == 1
                  else np.matmul(x[:, t], w_in, out=xw))
            a = acts[t]
            np.add(z_gates, b, out=a)
            _sigmoid(a[:3], e, num)
            np.tanh(a[3], out=a[3])
            c = cs[t + 1]
            np.multiply(a[0], cs[t], out=c)
            c += np.multiply(a[1], a[3], out=ig)
            np.tanh(c, out=tcs[t])
            np.multiply(a[2], tcs[t], out=h)
            if xh is not None and t + 1 < steps:
                xh[t + 1, :, d:] = h
        return h

    # -- backward -----------------------------------------------------------

    def _backward_from_cache(self, cache, dy: np.ndarray) -> np.ndarray:
        """BPTT of the row-summed prediction * dy as one vector laid out like ``theta``."""
        h_last, (dz, xh, acts, cs, tcs, d_s, d_g, d_tc) = cache
        steps, _, n, u = acts.shape
        d = self.input_dim
        w_rec = self.w[:, d:]
        # Derivative factors for every step at once: 1 - s, 1 - g^2, 1 - tanh(c)^2.
        np.subtract(1.0, acts[:, :3], out=d_s)
        np.multiply(acts[:, 3], acts[:, 3], out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        np.multiply(tcs, tcs, out=d_tc)
        np.subtract(1.0, d_tc, out=d_tc)
        dh = dy[:, None] * self.w_out[None, :]
        dc = np.zeros_like(dh)
        tmp = np.empty_like(dh)
        dzt = np.empty((4, n, u))  # step t's pre-activation gradients, gate by gate
        # Products keep the order of the per-step formulas, such as ((dc * c_prev) * f) * (1 - f),
        # so the factors computed above give the same bits as computing them step by step.
        for t in range(steps - 1, -1, -1):
            a = acts[t]
            np.multiply(dh, a[2], out=tmp)
            tmp *= d_tc[t]
            dc += tmp
            np.multiply(dc, cs[t], out=dzt[0])
            np.multiply(dc, a[3], out=dzt[1])
            np.multiply(dh, tcs[t], out=dzt[2])
            dzt[:3] *= a[:3]
            dzt[:3] *= d_s[t]
            np.multiply(dc, a[1], out=dzt[3])
            dzt[3] *= d_g[t]
            np.copyto(dz[t].reshape(n, 4, u).transpose(1, 0, 2), dzt)
            np.matmul(dz[t], w_rec, out=dh)
            dc *= a[0]
        # Each weight row sees [x_t, h_prev] over every (step, row) pair.
        dz = dz.reshape(steps * n, 4 * u)
        grad = np.empty_like(self.theta)
        dw, db, dw_out, db_out = _views(grad, self.shapes)
        dw[...] = dz.T @ xh.reshape(steps * n, d + u)
        db[...] = dz.sum(axis=0)
        dw_out[...] = dy @ h_last
        db_out[...] = dy.sum()
        return grad


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Standard Adam with bias-corrected moments. Updates parameters in place."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not (math.isfinite(learning_rate) and learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")
        if not eps > 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def step(self, net, grad: np.ndarray) -> None:
        """One update of ``net.theta`` from a gradient laid out like it."""
        theta = net.theta
        _check_grad(theta, grad)
        if self._m is None:
            self._m = np.zeros_like(theta)
            self._v = np.zeros_like(theta)
            self._scratch = np.empty((2, theta.size))
        elif self._m.shape != theta.shape:
            raise ShapeError(f"optimizer state has {self._m.size} entries, "
                             f"network has {theta.size}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        s, r = self._scratch
        # m and v as (1 - beta) * g and ((1 - beta2) * g) * g; the step as
        # (lr * (m / c1)) / (sqrt(v / c2) + eps): the order of the formulas, in place.
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s)
        v += np.multiply(s, grad, out=s)
        np.divide(m, c1, out=s)
        s *= self.learning_rate
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        r += self.eps
        theta -= np.divide(s, r, out=s)


def soft_update(target, local, tau: float):
    """Blend target toward local in place, (1 - tau) * target + tau * local; returns target."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if type(target) is not type(local):
        raise ShapeError("target and local networks have different kinds")
    if target.shapes != local.shapes:
        raise ShapeError(f"parameter shapes differ: {target.shapes} vs {local.shapes}")
    target.theta *= 1.0 - tau
    target.theta += tau * local.theta
    return target


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(net, inputs: np.ndarray, epsilon: float = 1e-5,
               probe: np.ndarray | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``inputs`` is one input vector (``Mlp``) or one sequence (``Lstm``). The
    checked scalar is <probe, output> with probe defaulting to all ones; for
    an ``Lstm`` the output is the scalar prediction. Relative error uses
    max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = np.asarray(inputs, dtype=float)[None]
    if isinstance(net, Mlp):
        out, cache = net._forward_cache(x)
        run = net.forward
    elif isinstance(net, Lstm):
        out, cache = net._forward_batch_cache(x)
        run = net.forward_batch
    else:
        raise TypeError(f"cannot gradient-check {type(net).__name__}")
    g = np.ones(out.shape[1:]) if probe is None else np.asarray(probe, dtype=float)
    if g.shape != out.shape[1:]:
        raise ShapeError(f"probe shape {g.shape} != output shape {out.shape[1:]}")
    analytic = net._backward_from_cache(cache, g[None])

    theta = net.theta
    worst = 0.0
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + epsilon
        f_plus = float(np.sum(g * run(x)))
        theta[idx] = orig - epsilon
        f_minus = float(np.sum(g * run(x)))
        theta[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * epsilon)
        denom = max(abs(analytic[idx]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[idx] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

# Each kind's header keys and JSON types, in file order (others, such as older mlp files'
# activation tags, are ignored); "arrays" lists the params() arrays, flattened row-major.
CHECKPOINT_LAYOUTS = {"mlp": {"layer_sizes": list, "arrays": list},
                      "lstm": {"input_dim": int, "units": int, "arrays": list}}


def write_checkpoint(path: str, header: dict, net) -> None:
    """Write ``header`` and then ``net``'s parameter arrays as one JSON object."""
    with open(path, "w") as fh:
        json.dump({**header, "arrays": [p.reshape(-1).tolist() for p in net.params()]}, fh)


def save_network(net, path: str) -> None:
    """Write a network as JSON: shape header plus row-major parameter arrays."""
    if isinstance(net, Mlp):
        header = {"kind": "mlp", "layer_sizes": net.layer_sizes}
    elif isinstance(net, Lstm):
        header = {"kind": "lstm", "input_dim": net.input_dim, "units": net.units}
    else:
        raise TypeError(f"cannot serialize {type(net).__name__}")
    write_checkpoint(path, header, net)


def read_checkpoint(path: str, layouts: dict[str, dict[str, type | tuple]]) -> dict:
    """A checkpoint's JSON object, checked against ``layouts``: its ``kind`` must be one
    of the keys, and it must hold that kind's keys with values of the given types (a
    bool is no int). Anything else raises ValueError naming the path and the key."""
    with open(path) as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: a checkpoint is a JSON object, got a {type(blob).__name__}")
    kind = blob.get("kind")
    if not isinstance(kind, str) or kind not in layouts:
        raise ValueError(f"{path}: checkpoint kind {kind!r} is not one of {sorted(layouts)}")
    for key, expected in layouts[kind].items():
        if key not in blob:
            raise ValueError(f"{path}: {kind} checkpoint has no {key!r}")
        if not isinstance(blob[key], expected) or isinstance(blob[key], bool):
            types = expected if isinstance(expected, tuple) else (expected,)
            names = " or ".join(t.__name__ for t in types)
            raise ValueError(f"{path}: {kind} checkpoint's {key!r} must be of type {names}, "
                             f"got {type(blob[key]).__name__}")
    return blob


def network_from(blob: dict, path: str, kind: str):
    """The ``kind`` network ("mlp" or "lstm") of a ``read_checkpoint`` blob, arrays missing
    at the end left zero. Bad sizes or arrays raise ValueError naming the path."""
    sizes = blob["layer_sizes"] if kind == "mlp" else [blob["input_dim"], blob["units"]]
    if len(sizes) < 2 or not all(type(s) is int and s >= 1 for s in sizes):
        keys = ("'layer_sizes' must be two or more" if kind == "mlp"
                else "'input_dim' and 'units' must be")
        raise ShapeError(f"{path}: {blob['kind']} checkpoint's {keys} ints >= 1, got {sizes}")
    net = Mlp.zeros(sizes) if kind == "mlp" else Lstm.zeros(*sizes)
    params, arrays = net.params(), blob["arrays"]
    for k, (p, flat) in enumerate(zip(params, arrays)):
        if not (isinstance(flat, list) and all(type(v) in (int, float) for v in flat)):
            raise ValueError(f"{path}: array {k} must be a flat list of numbers")
        if len(flat) != p.size:
            raise ShapeError(f"{path}: array {k} has {len(flat)} values, expected {p.size} for "
                             f"shape {p.shape}; the {kind} layout is {net.LAYOUT}")
        p[...] = np.reshape(flat, p.shape)
    if len(arrays) > len(params):
        raise ShapeError(f"{path}: {len(arrays)} arrays, the {kind} layout has {len(params)}: "
                         f"{net.LAYOUT}")
    if not np.all(np.isfinite(net.theta)):
        raise ValueError(f"{path}: non-finite parameter value")
    return net


def load_network(path: str):
    """The network a ``save_network`` file holds; a malformed one raises ValueError naming it."""
    blob = read_checkpoint(path, CHECKPOINT_LAYOUTS)
    net = network_from(blob, path, blob["kind"])
    if len(blob["arrays"]) < len(net.params()):
        raise ShapeError(f"{path}: {len(blob['arrays'])} arrays, the {blob['kind']} layout has "
                         f"{len(net.params())}: {net.LAYOUT}")
    return net
