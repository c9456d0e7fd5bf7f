import json
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (AdamReference, lstm_backward_reference, lstm_forward_cache_reference,
                     lstm_hidden_reference, mlp_backward_reference, sigmoid_reference,
                     soft_update_reference)
from varbid.forecast import Forecaster, load_forecaster, save_forecaster
from varbid.nn import (_BLOCK_ROWS, _STREAM_ROWS, CHECKPOINT_LAYOUTS, Adam, Lstm, Mlp,
                       NumericError, ShapeError, _sigmoid, _views, grad_check, load_network,
                       network_from, read_checkpoint, save_network, soft_update)


def mlp_grads(net, x, g):
    """Per-array views of the batch-path gradient of <forward(x), g>."""
    _, cache = net._forward_cache(x)
    return _views(net._backward_from_cache(cache, g), net.shapes)


def lstm_grads(lstm, seq, dy):
    """Per-array views of the BPTT gradient of prediction * dy for one sequence."""
    _, cache = lstm._forward_cache(np.asarray(seq, dtype=float)[None])
    return _views(lstm._backward_from_cache(cache, np.array([dy])), lstm.shapes)


def lstm_run(lstm, seq):
    """(final hidden state, prediction) for one sequence through the batch path."""
    h = lstm._hidden(lstm._coerce_batch(np.asarray(seq, dtype=float)[None]))
    return h[0], float(lstm._head(h)[0])


def random_input_away_from_kinks(net, rng, margin=1e-3):
    """Draw one-row batches until no hidden pre-activation sits near a ReLU kink."""
    for _ in range(100):
        x = rng.normal(size=(1, net.in_dim))
        a = x
        ok = True
        for w, b in zip(net.weights[:-1], net.biases[:-1]):  # the ReLU layers
            z = a @ w.T + b
            if np.abs(z).min() < margin:
                ok = False
                break
            a = np.maximum(z, 0.0)
        if ok:
            return x
    raise AssertionError("could not find a kink-free input")


class TestMlpInit:
    def test_shapes_single_layer(self):
        net = Mlp.random([13, 81], seed=0)
        assert net.weights[0].shape == (81, 13)
        assert net.biases[0].shape == (81,)

    def test_same_seed_bit_identical(self):
        a = Mlp.random([13, 81], seed=0)
        b = Mlp.random([13, 81], seed=0)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_two_layer_scalar_output(self):
        net = Mlp.random([14, 64, 1], seed=3)
        assert len(net.weights) == 2
        assert net.out_dim == 1
        assert net.layer_sizes == [14, 64, 1]

    def test_biases_zero_and_weights_bounded(self):
        net = Mlp.random([10, 20, 5], seed=7)
        for b in net.biases:
            assert np.all(b == 0.0)
        for w in net.weights:
            limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.abs(w).max() <= limit

    @pytest.mark.parametrize("sizes", [[], [5], [5, 0], [0, 3]])
    def test_bad_sizes_rejected(self, sizes):
        with pytest.raises(ShapeError):
            Mlp.random(sizes, seed=0)

    def test_mismatched_layers_rejected(self):
        with pytest.raises(ShapeError):
            Mlp([np.zeros((4, 3)), np.zeros((5, 9))], [np.zeros(4), np.zeros(5)])


class TestMlpForward:
    def test_zero_net_outputs_zero(self):
        net = Mlp.zeros([5, 4, 3])
        assert np.array_equal(net.forward(np.ones((1, 5))), np.zeros((1, 3)))

    def test_identity_linear_layer(self):
        net = Mlp([np.eye(4)], [np.zeros(4)])
        x = np.array([[1.0, -2.0, 3.5, 0.0]])
        assert np.array_equal(net.forward(x), x)

    def test_matches_manual_affine_relu_chain(self):
        rng = np.random.default_rng(11)
        net = Mlp.random([6, 8, 3], seed=5)
        x = rng.normal(size=6)
        h = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
        expected = net.weights[1] @ h + net.biases[1]
        assert np.allclose(net.forward(x[None])[0], expected, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        net = Mlp.random([6, 3], seed=0)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 5)))
        with pytest.raises(ShapeError, match=r"\(2, 4, 6\)"):
            net.forward(np.zeros((2, 4, 6)))

    @pytest.mark.parametrize("run", ["forward", "_forward_cache"])
    def test_single_vector_rejected(self, run):
        # Every input is a batch: one row is a (1, in) array.
        net = Mlp.random([6, 3], seed=0)
        with pytest.raises(ShapeError, match=r"input of shape \(6,\) is not a batch"):
            getattr(net, run)(np.zeros(6))

    def test_batch_matches_rowwise(self):
        net = Mlp.random([4, 7, 2], seed=9)
        xs = np.random.default_rng(1).normal(size=(5, 4))
        batch = net.forward(xs)
        for k in range(5):
            assert np.allclose(batch[k], net.forward(xs[k:k + 1])[0], rtol=0, atol=1e-12)


class TestMlpWorkspace:
    """``forward`` reuses per-network hidden-layer buffers; results must not notice."""

    @staticmethod
    def expression_forward(net, x):
        # The layer loop as written before the buffers: a fresh array per operation.
        a = x
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            a = np.maximum(a @ w.T + b, 0.0)
        return a @ net.weights[-1].T + net.biases[-1]

    @pytest.mark.parametrize("sizes", [[13, 64, 81], [14, 64, 64, 1]])
    def test_plain_path_scalar_relu_equals_zero_row_relu(self, sizes):
        # Below _BLOCK_ROWS the ReLU is a maximum against the scalar 0.0; against a
        # broadcast zero row, as the plain path once ran it, every bit must agree.
        net = Mlp.random(sizes, seed=6)
        rng = np.random.default_rng(3)
        for rows in (1, 15, 16, 17, 64, 81, 127):
            x = rng.normal(size=(rows, sizes[0]))
            a = x
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                a = np.maximum(a @ w.T + b, np.zeros(w.shape[0]))
            zero_row = a @ net.weights[-1].T + net.biases[-1]
            out = net.forward(x)
            assert out.tobytes() == zero_row.tobytes() == self.expression_forward(net, x).tobytes()
            assert out.tobytes() == net._forward_cache(x)[0].tobytes()

    def test_buffered_forward_equals_fresh_path_bit_for_bit(self):
        net = Mlp.random([14, 64, 64, 1], seed=4)
        rng = np.random.default_rng(2)
        calls = []
        for rows in (5184, 81, 64, 1, 5184):
            x = rng.normal(size=(rows, 14))
            out = net.forward(x)
            assert np.array_equal(out, net._forward_cache(x)[0])
            assert np.array_equal(out, self.expression_forward(net, x))
            calls.append((out, out.copy()))
        # Each result is its own array, untouched by the calls after it.
        assert all(np.array_equal(out, kept) for out, kept in calls)
        assert not any(np.shares_memory(out, w) for out, _ in calls for w in net._work)
        # One (_STREAM_ROWS, width) buffer per hidden layer, whatever the batch.
        assert [w.shape for w in net._work] == [(_STREAM_ROWS, 64), (_STREAM_ROWS, 64)]

    def test_one_row_uses_buffers_too(self):
        net = Mlp.random([6, 8, 3], seed=5)
        x = np.random.default_rng(11).normal(size=(1, 6))
        out = net.forward(x)
        assert out.shape == (1, 3)
        assert np.array_equal(out, net._forward_cache(x)[0])
        assert [w.shape for w in net._work] == [(_STREAM_ROWS, 8)]

    def test_net_without_hidden_layer(self):
        net = Mlp.random([14, 1], seed=6)
        x = np.random.default_rng(3).normal(size=(81, 14))
        assert net._work == []
        assert np.array_equal(net.forward(x), net._forward_cache(x)[0])
        assert np.array_equal(net.forward(x), self.expression_forward(net, x))
        assert net._work == []

    def test_buffers_stay_out_of_copies_and_checkpoints(self, tmp_path):
        net = Mlp.random([14, 16, 16, 1], seed=7)
        before = tmp_path / "before.json"
        save_network(net, str(before))
        x = np.random.default_rng(4).normal(size=(100, 14))
        expected = net.forward(x)
        twin = net.copy()
        assert [w.shape[0] for w in twin._work] == [_STREAM_ROWS, _STREAM_ROWS]
        assert np.array_equal(twin.forward(x), expected)
        assert not any(np.shares_memory(a, b) for a in net._work for b in twin._work)
        after = tmp_path / "after.json"
        save_network(net, str(after))
        assert before.read_bytes() == after.read_bytes()

    @staticmethod
    def with_random_biases(sizes, seed):
        # Mlp.random zeroes the biases; the long-row bias pass needs real ones.
        net = Mlp.random(sizes, seed=seed)
        rng = np.random.default_rng(seed)
        for b in net.biases:
            b[:] = rng.normal(size=b.shape)
        return net

    def assert_paths_match_expression(self, net, rows_list, seed=0):
        rng = np.random.default_rng(seed)
        for rows in rows_list:
            x = rng.normal(size=(rows, net.in_dim))
            expected = self.expression_forward(net, x)
            assert np.array_equal(net.forward(x), expected), rows
            assert np.array_equal(net._forward_cache(x)[0], expected), rows

    # Rows at each edge of the streamed blocks, and the nfq1 target pass.
    STREAM_EDGES = [1, 81, _STREAM_ROWS - 1, _STREAM_ROWS, _STREAM_ROWS + 1,
                    2 * _STREAM_ROWS + 1, 5184]

    @pytest.mark.parametrize("sizes", [[14, 64, 64, 1], [13, 64, 81]])
    def test_long_row_passes_equal_expression_at_every_block_edge(self, sizes):
        r = _BLOCK_ROWS
        rows_list = [1, r - 1, r, r + 1, 81, 2 * r - 1, 2 * r, 2 * r + 1, 5184, 64]
        net = self.with_random_biases(sizes, seed=3)
        self.assert_paths_match_expression(net, rows_list + self.STREAM_EDGES)
        assert [w.shape[0] for w in net._work] == [_STREAM_ROWS] * (len(sizes) - 2)

    @pytest.mark.parametrize("sizes", [[14, 64, 64, 1], [13, 64, 81]])
    def test_in_place_parameter_writes_reach_the_tiled_bias(self, sizes, tmp_path):
        net = self.with_random_biases(sizes, seed=5)
        rows_list = [2 * _BLOCK_ROWS + 1] + self.STREAM_EDGES
        self.assert_paths_match_expression(net, rows_list)  # tiles the old biases
        opt = Adam(learning_rate=0.1)
        opt.step(net, np.random.default_rng(1).normal(size=net.theta.shape))
        self.assert_paths_match_expression(net, rows_list, seed=1)
        soft_update(net, self.with_random_biases(sizes, seed=6), tau=0.5)
        self.assert_paths_match_expression(net, rows_list, seed=2)
        path = tmp_path / "net.json"
        save_network(self.with_random_biases(sizes, seed=7), str(path))
        loaded = load_network(str(path))
        self.assert_paths_match_expression(loaded, rows_list, seed=3)
        net.theta[...] = loaded.theta
        self.assert_paths_match_expression(net, rows_list, seed=4)

    def test_warm_long_row_forward_allocates_no_layer_temporaries(self):
        # One hidden layer of 5184 rows is 2.65 MB; a warm call allocates only
        # its (5184, 1) output and the output layer's bias sum, 41 kB each.
        net = self.with_random_biases([14, 64, 64, 1], seed=8)
        x = np.random.default_rng(8).normal(size=(5184, 14))
        net.forward(x)
        tracemalloc.start()
        try:
            net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000, f"traced peak {peak / 1e3:.0f} kB"

    @pytest.mark.parametrize("sizes", [[14, 64, 64, 1], [13, 64, 81]])
    def test_buffers_keep_stream_rows_for_any_batch(self, sizes):
        net = self.with_random_biases(sizes, seed=10)
        buffers = list(net._work)
        x = np.random.default_rng(10).normal(size=(20_000, net.in_dim))
        # Past about 7,200 rows (measured with OpenBLAS 0.3.31 on 2 threads) one
        # pass gives some rows other last bits than blocks do: compare values only.
        assert np.allclose(net.forward(x), self.expression_forward(net, x), rtol=1e-12, atol=1e-12)
        # A training batch over _STREAM_ROWS rows keeps its layers in arrays of its own.
        out, cache = net._forward_cache(x[:_STREAM_ROWS + 1])
        assert np.array_equal(out, self.expression_forward(net, x[:_STREAM_ROWS + 1]))
        assert not any(np.shares_memory(a, w) for a in cache for w in buffers)
        assert all(w is kept for w, kept in zip(net._work, buffers))
        assert [w.shape for w in net._work] == [(_STREAM_ROWS, n) for n in sizes[1:-1]]

    def test_warm_wide_output_allocates_one_output_array(self):
        # The (5184, 81) output is 3.36 MB; adding the bias in place keeps a
        # second output-sized temporary from being allocated.
        net = self.with_random_biases([13, 64, 81], seed=9)
        x = np.random.default_rng(9).normal(size=(5184, 13))
        net.forward(x)
        tracemalloc.start()
        try:
            out = net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * out.nbytes, f"traced peak {peak / 1e6:.2f} MB"


class TestMlpBackward:
    def test_linear_layer_outer_product(self):
        net = Mlp.zeros([3, 2])
        x = np.array([1.0, 2.0, -1.0])
        g = np.array([0.5, -1.5])
        grads = mlp_grads(net, x[None], g[None])
        assert np.allclose(grads[0], np.outer(g, x))
        assert np.allclose(grads[1], g)

    def test_dead_relu_blocks_gradient(self):
        # One hidden unit forced negative: its incoming weights get no gradient.
        net = Mlp([np.array([[1.0], [-1.0]]), np.ones((1, 2))], [np.zeros(2), np.zeros(1)])
        grads = mlp_grads(net, np.array([[2.0]]), np.array([[1.0]]))
        assert grads[0][0, 0] != 0.0
        assert grads[0][1, 0] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        net = Mlp.random([7, 10, 4], seed=21)
        x = random_input_away_from_kinks(net, rng)
        assert grad_check(net, x) < 1e-4

    def test_batch_matches_finite_differences(self):
        # Training sums the per-row products over a batch; check that sum.
        rng = np.random.default_rng(5)
        net = Mlp.random([5, 7, 6, 3], seed=8)
        x = np.concatenate([random_input_away_from_kinks(net, rng) for _ in range(6)])
        probe = rng.normal(size=(6, 3))
        analytic = mlp_grads(net, x, probe)
        eps = 1e-5
        for p, g in zip(net.params(), analytic):
            numeric = np.empty_like(p)
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + eps
                f_plus = np.sum(probe * net.forward(x))
                p[idx] = orig - eps
                f_minus = np.sum(probe * net.forward(x))
                p[idx] = orig
                numeric[idx] = (f_plus - f_minus) / (2.0 * eps)
            assert np.allclose(g, numeric, rtol=1e-6, atol=1e-8)

    def test_output_gradient_dimension_checked(self):
        net = Mlp.random([4, 3], seed=0)
        with pytest.raises(ShapeError):
            grad_check(net, np.zeros((1, 4)), probe=np.zeros((1, 2)))


class TestSigmoid:
    def test_equals_masked_formula_bit_for_bit(self):
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        tiny = np.finfo(float).tiny
        special = [0.0, -0.0, 710.0, -710.0, 745.0, -745.0, np.inf, -np.inf,
                   5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3]
        rng = np.random.default_rng(0)
        x = np.concatenate([special, rng.normal(scale=10.0, size=20000),
                            rng.uniform(-800.0, 800.0, size=20000)])
        got = x.copy()
        _sigmoid(got, np.empty_like(x), np.empty_like(x))
        for want in (masked(x), sigmoid_reference(x)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


# Row blocks of the stacked gate weight, in layout order.
F, I, O, G = range(4)


def gate(k: int, units: int) -> slice:
    return slice(k * units, (k + 1) * units)


def per_gate_reference(lstm: Lstm, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(final hidden states, predictions) from the docstring equations, gate by gate,
    for a (batch, steps) array of sequences."""
    u = lstm.units
    W = {k: lstm.w[gate(k, u), 0] for k in (F, I, O, G)}
    U = {k: lstm.w[gate(k, u), 1:] for k in (F, I, O, G)}
    b = {k: lstm.b[gate(k, u)] for k in (F, I, O, G)}

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros((x.shape[0], u))
    c = np.zeros_like(h)
    for t in range(x.shape[1]):
        xt = x[:, t, None]
        f = sig(xt * W[F] + h @ U[F].T + b[F])
        i = sig(xt * W[I] + h @ U[I].T + b[I])
        g = np.tanh(xt * W[G] + h @ U[G].T + b[G])
        o = sig(xt * W[O] + h @ U[O].T + b[O])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h, h @ lstm.w_out + lstm.b_out[0]


class TestLstm:
    def test_stacked_layout_holds_four_arrays(self):
        lstm = Lstm.random(5, seed=0)
        assert [p.shape for p in lstm.params()] == [(20, 6), (20,), (5,), (1,)]
        assert lstm.units == 5

    @pytest.mark.parametrize("shapes", [
        [(12, 3), (12,), (3,), (1,)],  # w has no input column for 3 units
        [(12, 4), (12,), (2,), (1,)],  # w rows are not 4 * units
        [(8, 3), (4,), (2,), (1,)],    # short gate bias
        [(8, 3), (8,), (2,), (2,)],    # two head biases
        [(8, 4), (8,), (2,), (1,)],    # two input columns: the LSTM reads one series
    ])
    def test_inconsistent_arrays_rejected(self, shapes):
        with pytest.raises(ShapeError):
            Lstm(*[np.zeros(s) for s in shapes])

    def test_random_stacks_per_gate_draws(self):
        # Glorot blocks drawn gate by gate (f, i, g, o; W before U), then stacked f, i, o, g.
        u = 3
        rng = np.random.default_rng(4)

        def glorot(fan_out, fan_in):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_out, fan_in))

        blocks = {k: np.hstack([glorot(u, 1), glorot(u, u)]) for k in (F, I, G, O)}
        w_out = glorot(1, u)[0]
        lstm = Lstm.random(u, seed=4)
        assert np.array_equal(lstm.w, np.vstack([blocks[k] for k in (F, I, O, G)]))
        assert np.array_equal(lstm.w_out, w_out)
        assert not lstm.b.any() and not lstm.b_out.any()

    @pytest.mark.parametrize("units", [16, 32])
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_stacked_matches_per_gate_reference(self, batch, units):
        rng = np.random.default_rng(batch * 100 + units)
        lstm = Lstm.random(units, seed=units)
        lstm.b[:] = rng.normal(scale=0.5, size=4 * units)
        lstm.b_out[0] = 0.3
        x = rng.normal(size=(batch, 24))
        h_ref, pred_ref = per_gate_reference(lstm, x)
        assert np.abs(lstm.forward(x) - pred_ref).max() <= 1e-14
        hidden, pred = lstm_run(lstm, x[0])
        assert np.abs(hidden - h_ref[0]).max() <= 1e-14
        assert abs(pred - pred_ref[0]) <= 1e-14

    def test_forward_equals_training_path_bit_for_bit(self):
        rng = np.random.default_rng(6)
        lstm = Lstm.random(16, seed=6)
        lstm.b[:] = rng.normal(size=64)
        x = rng.normal(size=(9, 24))
        assert np.array_equal(lstm.forward(x), lstm._forward_cache(x)[0])

    def test_zero_params_predict_head_bias(self):
        lstm = Lstm.zeros(6)
        lstm.b_out[0] = 0.37
        pred = lstm.forward(np.array([[1.0, -2.0, 3.0]]))[0]
        assert pred == pytest.approx(0.37, abs=1e-12)

    def test_hand_computed_single_unit_two_steps(self):
        lstm = Lstm.zeros(1)
        lstm.w[F, 0] = 0.5
        lstm.w[I, 0] = -0.3
        lstm.w[G, 0] = 0.8
        lstm.w[O, 0] = 0.2
        lstm.w[G, 1] = 0.6
        lstm.b[F] = 0.1
        lstm.w_out[0] = 2.0
        lstm.b_out[0] = -0.5

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = c = 0.0
        for x in (1.2, -0.7):
            f = sig(0.5 * x + 0.1)
            i = sig(-0.3 * x)
            g = np.tanh(0.8 * x + 0.6 * h)
            o = sig(0.2 * x)
            c = f * c + i * g
            h = o * np.tanh(c)
        hidden, pred = lstm_run(lstm, np.array([1.2, -0.7]))
        assert hidden[0] == pytest.approx(h, abs=1e-12)
        assert pred == pytest.approx(2.0 * h - 0.5, abs=1e-12)

    def test_hidden_state_length_tracks_units(self):
        lstm = Lstm.random(100, seed=0)
        hidden = lstm._hidden(np.linspace(0, 1, 24).reshape(1, 24))
        assert hidden.shape == (1, 100)

    def test_recurrent_bias_dynamics_match_manual_recursion(self):
        # Zero input weights: the cell runs on biases alone from zero state.
        rng = np.random.default_rng(5)
        lstm = Lstm.random(3, seed=8)
        lstm.w[:, 0] = 0.0
        for k in (F, I, G, O):
            lstm.b[gate(k, 3)] = rng.normal(size=3)
        rec = {k: lstm.w[gate(k, 3), 1:] for k in (F, I, G, O)}
        bias = {k: lstm.b[gate(k, 3)] for k in (F, I, G, O)}

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = np.zeros(3)
        c = np.zeros(3)
        for _ in range(4):
            f = sig(rec[F] @ h + bias[F])
            i = sig(rec[I] @ h + bias[I])
            g = np.tanh(rec[G] @ h + bias[G])
            o = sig(rec[O] @ h + bias[O])
            c = f * c + i * g
            h = o * np.tanh(c)
        expected = float(lstm.w_out @ h + lstm.b_out[0])
        pred = lstm.forward(np.zeros((1, 4)))[0]
        assert pred == pytest.approx(expected, abs=1e-12)

    def test_zero_loss_gradient_zero_grads(self):
        lstm = Lstm.random(4, seed=1)
        _, cache = lstm._forward_cache(np.array([[0.3, -0.2]]))
        assert np.all(lstm._backward_from_cache(cache, np.zeros(1)) == 0.0)

    def test_single_step_gradient_matches_hand_computation(self):
        # One unit, one step: prediction = w_out * o * tanh(i * g) + b_out.
        lstm = Lstm.zeros(1)
        lstm.w[I, 0] = 0.4
        lstm.w[G, 0] = 0.7
        lstm.w[O, 0] = -0.2
        lstm.w_out[0] = 1.5
        x = 0.9

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        i = sig(0.4 * x)
        g = np.tanh(0.7 * x)
        o = sig(-0.2 * x)
        c = i * g
        tc = np.tanh(c)
        dw, _, dw_out, db_out = lstm_grads(lstm, np.array([x]), 1.0)
        assert dw_out[0] == pytest.approx(o * tc, abs=1e-12)
        assert db_out[0] == pytest.approx(1.0, abs=1e-12)
        # d pred / d W_o = 1.5 * tc * o(1-o) * x
        assert dw[O, 0] == pytest.approx(1.5 * tc * o * (1 - o) * x, abs=1e-12)
        # d pred / d W_i = 1.5 * o (1-tc^2) * g * i(1-i) * x
        assert dw[I, 0] == pytest.approx(
            1.5 * o * (1 - tc**2) * g * i * (1 - i) * x, abs=1e-12)

    def test_bptt_matches_finite_differences(self):
        lstm = Lstm.random(5, seed=13)
        seq = np.random.default_rng(4).normal(size=(1, 5))
        assert grad_check(lstm, seq) < 1e-4

    def test_empty_sequence_rejected(self):
        lstm = Lstm.random(3, seed=0)
        with pytest.raises(ShapeError):
            lstm.forward(np.zeros((1, 0)))

    @pytest.mark.parametrize("run", ["forward", "_forward_cache"])
    def test_three_dimensional_input_rejected(self, run):
        # Each step is one scalar: a (batch, steps, 1) array is not a batch of sequences.
        lstm = Lstm.random(3, seed=0)
        with pytest.raises(ShapeError, match=r"\(batch, steps\) array of sequences of one step "
                                             r"or more, got shape \(2, 4, 1\)"):
            getattr(lstm, run)(np.zeros((2, 4, 1)))


def assert_matches_reference(lstm, x, dy):
    """Training and inference paths on the (batch, steps) array ``x`` equal the per-step
    reference loop, which reads (batch, steps, 1), bit for bit."""
    want_pred, want_cache = lstm_forward_cache_reference(lstm, x[..., None])
    want_h = want_cache[1]
    want_grad = lstm_backward_reference(lstm, want_cache, dy)
    for _ in range(2):  # the second pass reuses the buffer the first one made
        pred, cache = lstm._forward_cache(x)
        assert np.array_equal(pred, want_pred)
        assert np.array_equal(cache[0], want_h)  # the final hidden state
        assert np.array_equal(lstm._backward_from_cache(cache, dy), want_grad)
    assert np.array_equal(lstm.forward(x), want_pred)
    assert np.array_equal(lstm._hidden(x), want_h)


class TestLstmMatchesReference:
    # Inputs of scale 3 push more gates toward saturation than those of scale 1.
    @pytest.mark.parametrize("scale", [1, 3])
    @pytest.mark.parametrize("steps", [1, 2, 24])
    @pytest.mark.parametrize("units", [1, 16, 32])
    # 257, 264 and 557 rows stream through forward in 2 or 3 blocks.
    @pytest.mark.parametrize("rows", [1, 13, 32, 169, 257, 264, 557])
    def test_predictions_state_and_gradient(self, rows, units, steps, scale):
        rng = np.random.default_rng([rows, units, steps, scale])
        lstm = Lstm.random(units, seed=units)
        lstm.b[:] = rng.normal(size=4 * units)
        assert_matches_reference(lstm, scale * rng.normal(size=(rows, steps)),
                                 rng.normal(size=rows))

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_saturated_gates(self, scale):
        # Biases of +-60 keep every pre-activation at |z| >= 40; scaled weights push
        # some past the point where exp underflows and the gates are exactly 0 or 1.
        rng = np.random.default_rng(7)
        lstm = Lstm.random(16, seed=2)
        lstm.w *= scale
        lstm.b[:] = 60.0 * rng.choice([-1.0, 1.0], size=64)
        x = rng.uniform(-1.0, 1.0, size=(32, 24))
        z = x[:, :1] * lstm.w[:, 0] + lstm.b
        assert np.abs(z).min() >= 40.0
        assert_matches_reference(lstm, x, rng.normal(size=32))

    def test_zero_output_gradient(self):
        rng = np.random.default_rng(8)
        lstm = Lstm.random(16, seed=3)
        assert_matches_reference(lstm, rng.normal(size=(13, 24)), np.zeros(13))

    def test_short_batch_views_a_prefix_of_the_buffer(self):
        rng = np.random.default_rng(9)
        lstm = Lstm.random(16, seed=4)
        lstm._backward_from_cache(lstm._forward_cache(rng.normal(size=(32, 24)))[1],
                                  np.ones(32))
        buf = lstm._train_buf
        x = rng.normal(size=(13, 24))
        assert_matches_reference(lstm, x, rng.normal(size=13))
        assert lstm._train_buf is buf
        _, (_, bufs) = lstm._forward_cache(x)
        assert all(b.base is buf for b in bufs)


class TestLstmMemory:
    def test_warm_training_pass_allocates_only_scratch(self):
        # The step buffers of a 32-row, 24-step, 32-unit batch take 2.4 MB; a warm
        # forward and backward allocates only per-call scratch, about 0.2 MB.
        rng = np.random.default_rng(10)
        lstm = Lstm.random(32, seed=5)
        x, dy = rng.normal(size=(32, 24)), rng.normal(size=32)
        lstm._backward_from_cache(lstm._forward_cache(x)[1], dy)
        tracemalloc.start()
        try:
            lstm._backward_from_cache(lstm._forward_cache(x)[1], dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000, f"traced peak {peak / 1e3:.0f} kB"

    def test_inference_keeps_no_steps(self):
        # The final-MSE pass of a fit: 557 windows of 24 steps.
        rng = np.random.default_rng(11)
        lstm = Lstm.random(32, seed=6)
        x = rng.normal(size=(557, 24))
        peaks = []
        for run in (lstm.forward, lambda x: lstm_hidden_reference(lstm, x[..., None])):
            run(x)
            tracemalloc.start()
            try:
                run(x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], f"traced peaks {peaks[0] / 1e6:.2f} vs {peaks[1] / 1e6:.2f} MB"
        assert lstm._train_buf is None

    def test_long_inference_stays_below_the_training_buffer(self):
        # The fit's final pass, 557 windows, streams in blocks: about 1.2 MB traced, against
        # 3.3 MB in one block, more than the 2.4 MB step buffer of the fit's batches.
        rng = np.random.default_rng(12)
        lstm = Lstm.random(32, seed=7)
        lstm._backward_from_cache(lstm._forward_cache(rng.normal(size=(32, 24)))[1],
                                  np.ones(32))
        train_bytes = lstm._train_buf.nbytes
        lstm._train_buf = None
        x = rng.normal(size=(557, 24))
        lstm.forward(x)
        tracemalloc.start()
        try:
            lstm.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_600_000 < train_bytes, f"traced peak {peak / 1e6:.2f} MB"


class TestOptimizers:
    def test_adam_zero_gradient_no_change(self):
        net = Mlp.random([3, 2], seed=0)
        before = net.theta.copy()
        Adam().step(net, np.zeros_like(net.theta))
        assert np.array_equal(before, net.theta)

    def test_adam_converges_on_quadratic(self):
        # Minimize (w - 1.7)^2 for a single weight; analytic minimum is 1.7.
        net = Mlp([np.array([[0.2]])], [np.zeros(1)])
        opt = Adam(learning_rate=0.01)
        for _ in range(1000):
            w = net.weights[0][0, 0]
            opt.step(net, np.array([2.0 * (w - 1.7), 0.0]))
        assert abs(net.weights[0][0, 0] - 1.7) < 1e-3

    def test_non_finite_gradient_raises_with_location(self):
        net = Mlp.random([2, 2], seed=0)
        bad = np.zeros(6)
        bad[1] = np.nan
        with pytest.raises(NumericError, match="index 1"):
            Adam().step(net, bad)

    def test_finite_inputs_keep_parameters_finite(self):
        net = Mlp.random([4, 4], seed=2)
        rng = np.random.default_rng(0)
        adam = Adam(learning_rate=0.5)
        for _ in range(50):
            adam.step(net, rng.normal(size=net.theta.shape) * 100)
            assert np.all(np.isfinite(net.theta))

    @pytest.mark.parametrize("kwargs, name", [
        (dict(learning_rate=-1.0), "learning_rate"), (dict(learning_rate=0.0), "learning_rate"),
        (dict(learning_rate=float("nan")), "learning_rate"),
        (dict(learning_rate=float("inf")), "learning_rate"),
        (dict(beta1=1.0), "beta1"), (dict(beta1=-0.1), "beta1"), (dict(beta1=float("nan")), "beta1"),
        (dict(beta2=1.0), "beta2"), (dict(beta2=-1e-3), "beta2"),
        (dict(eps=0.0), "eps"), (dict(eps=-1e-8), "eps"), (dict(eps=float("nan")), "eps"),
        (dict(eps=float("inf")), "eps"),
    ])
    def test_adam_rejects_bad_hyperparameters(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            Adam(**kwargs)

    def test_adam_accepts_boundary_betas(self):
        opt = Adam(learning_rate=1e-3, beta1=0.0, beta2=0.0, eps=1e-12)
        net = Mlp.random([2, 2], seed=0)
        opt.step(net, np.ones_like(net.theta))
        assert np.all(np.isfinite(net.theta))

    @pytest.mark.parametrize("make_opt", [Adam])
    @pytest.mark.parametrize("bad", ["shape", "nan", "count", "other_net"])
    def test_rejected_step_changes_nothing(self, make_opt, bad):
        net = Mlp.random([3, 4, 2], seed=0)
        opt = make_opt()
        opt.step(net, np.ones_like(net.theta))
        target = Mlp.random([4, 2], seed=1) if bad == "other_net" else net
        before, target_before = net.theta.copy(), target.theta.copy()
        t_before, m_before = opt.t, opt._m.copy()
        grad = np.ones_like(target.theta)
        if bad == "shape":
            grad = grad[:, None]
        elif bad == "nan":
            grad[-2] = np.nan
        elif bad == "count":
            grad = grad[:-1]
        with pytest.raises(NumericError if bad == "nan" else ShapeError,
                           match="26 entries, network has 10" if bad == "other_net" else None):
            opt.step(target, grad)
        assert opt.t == t_before
        assert np.array_equal(m_before, opt._m)
        assert np.array_equal(before, net.theta)
        assert np.array_equal(target_before, target.theta)


class TestSoftUpdate:
    def test_tau_zero_keeps_target(self):
        t = Mlp.random([3, 2], seed=0)
        l = Mlp.random([3, 2], seed=1)
        before = t.theta.copy()
        out = soft_update(t, l, 0.0)
        assert out is t
        assert np.array_equal(t.theta, before)

    def test_tau_one_copies_local(self):
        t = Mlp.random([3, 2], seed=0)
        l = Mlp.random([3, 2], seed=1)
        out = soft_update(t, l, 1.0)
        assert out is t
        assert np.array_equal(t.theta, l.theta)

    def test_halfway_blend(self):
        t = Mlp.zeros([1, 1])
        l = Mlp.zeros([1, 1])
        l.weights[0][0, 0] = 2.0
        soft_update(t, l, 0.5)
        assert t.weights[0][0, 0] == pytest.approx(1.0)
        assert l.weights[0][0, 0] == 2.0

    def test_contraction_rate_exact(self):
        t = Mlp.random([4, 3], seed=0)
        l = Mlp.random([4, 3], seed=1)
        tau = 0.25
        gap0 = max(np.abs(a - b).max() for a, b in zip(t.params(), l.params()))
        for k in range(1, 6):
            t = soft_update(t, l, tau)
            gap = max(np.abs(a - b).max() for a, b in zip(t.params(), l.params()))
            assert gap == pytest.approx(gap0 * (1 - tau) ** k, rel=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            soft_update(Mlp.random([3, 2], seed=0), Mlp.random([3, 3], seed=0), 0.5)
        with pytest.raises(ShapeError):  # same parameter count, other layout
            soft_update(Mlp.zeros([4, 1, 4]), Mlp.zeros([1, 4, 1]), 0.5)


# The nfq2 and nfq1 Q-networks and the criterion-5 forecaster LSTM.
FLAT_NETS = {
    "nfq2": lambda: Mlp.random([13, 64, 81], seed=0),
    "nfq1": lambda: Mlp.random([14, 64, 64, 1], seed=1),
    "lstm32": lambda: Lstm.random(32, seed=2),
}


class TestFlatParameters:
    @pytest.mark.parametrize("name", FLAT_NETS)
    def test_params_are_views_of_theta(self, name):
        net = FLAT_NETS[name]()
        assert net.theta.dtype == np.float64 and net.theta.flags.owndata
        assert all(p.base is net.theta for p in net.params())
        assert [p.shape for p in net.params()] == list(net.shapes)
        assert np.array_equal(np.concatenate([p.ravel() for p in net.params()]), net.theta)
        net.theta[:] = np.arange(net.theta.size)
        assert net.params()[-1].ravel()[-1] == net.theta.size - 1

    def test_constructors_copy_their_inputs(self):
        w, b = np.ones((3, 2)), np.zeros(3)
        lstm_arrays = [np.ones((8, 3)), np.zeros(8), np.ones(2), np.zeros(1)]
        net, lstm = Mlp([w], [b]), Lstm(*lstm_arrays)
        given = [(w, net), (b, net)] + [(a, lstm) for a in lstm_arrays]
        assert not any(np.shares_memory(a, n.theta) for a, n in given)
        net.theta[:] = 7.0
        lstm.theta[:] = 7.0
        assert (w == 1.0).all() and not b.any()
        assert [a.sum() for a in lstm_arrays] == [24.0, 0.0, 2.0, 0.0]
        w[0, 0] = -1.0
        assert net.weights[0][0, 0] == 7.0

    @pytest.mark.parametrize("name", FLAT_NETS)
    def test_copy_owns_its_vector(self, name):
        net = FLAT_NETS[name]()
        twin = net.copy()
        assert np.array_equal(twin.theta, net.theta)
        twin.theta += 1.0
        assert not np.shares_memory(twin.theta, net.theta)
        assert all(p.base is twin.theta for p in twin.params())

    @pytest.mark.parametrize("name", FLAT_NETS)
    @pytest.mark.parametrize("flat_opt, reference_opt", [(Adam, AdamReference)], ids=["adam"])
    def test_optimizer_matches_per_array_reference(self, name, flat_opt, reference_opt):
        net = FLAT_NETS[name]()
        reference = [p.copy() for p in net.params()]
        opt, ref_opt = flat_opt(), reference_opt()
        rng = np.random.default_rng(3)
        for _ in range(50):
            grad = rng.normal(size=net.theta.shape)
            grad[rng.random(grad.shape) < 0.1] = 0.0
            opt.step(net, grad)
            ref_opt.step(reference, [v.copy() for v in _views(grad, net.shapes)])
        assert all(np.array_equal(p, r) for p, r in zip(net.params(), reference))

    @pytest.mark.parametrize("name", FLAT_NETS)
    def test_soft_update_matches_per_array_reference(self, name):
        target, local = FLAT_NETS[name](), FLAT_NETS[name]()
        local.theta[:] = np.random.default_rng(4).normal(size=local.theta.shape)
        reference = [p.copy() for p in target.params()]
        rng = np.random.default_rng(5)
        for _ in range(50):
            local.theta += 0.01 * rng.normal(size=local.theta.shape)
            reference = soft_update_reference(reference, local.params(), 1e-3)
            assert soft_update(target, local, 1e-3) is target
        assert all(np.array_equal(p, r) for p, r in zip(target.params(), reference))

    @pytest.mark.parametrize("name", ["nfq2", "nfq1"])
    def test_backward_fills_params_order(self, name):
        net = FLAT_NETS[name]()
        rng = np.random.default_rng(6)
        x = rng.normal(size=(64, net.in_dim))
        g = rng.normal(size=(64, net.out_dim))
        _, cache = net._forward_cache(x)
        flat = net._backward_from_cache(cache, g)
        expected = mlp_backward_reference(net.weights, net.biases, x, g)
        assert all(np.array_equal(v, e) for v, e in zip(_views(flat, net.shapes), expected))


class TestGradCheck:
    def test_linear_network_near_exact(self):
        net = Mlp.random([5, 4], seed=1)
        x = np.random.default_rng(0).normal(size=(1, 5))
        assert grad_check(net, x) < 1e-8

    def test_random_mlp_below_tolerance(self):
        rng = np.random.default_rng(3)
        net = Mlp.random([13, 32, 81], seed=17)
        x = random_input_away_from_kinks(net, rng)
        assert grad_check(net, x) < 1e-4

    def test_epsilon_must_be_positive(self):
        net = Mlp.random([2, 2], seed=0)
        with pytest.raises(ValueError):
            grad_check(net, np.zeros((1, 2)), epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_epsilon_must_be_finite(self, epsilon):
        net = Mlp.random([3, 4, 2], seed=0)
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            grad_check(net, np.ones((1, 3)), epsilon=epsilon)

    def test_nan_probe_raises(self):
        net = Mlp.random([3, 4, 2], seed=0)
        with pytest.raises(NumericError, match="non-finite analytic gradient"):
            grad_check(net, np.ones((1, 3)), probe=np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("index", [0, -1], ids=["first-weight", "output-bias"])
    def test_nan_weight_raises(self, index):
        # A NaN in the first weight reaches the analytic gradient through the hidden layer;
        # one in the output bias leaves it finite and shows only in the numeric one.
        net = Mlp.random([3, 4, 2], seed=0)
        net.theta[index] = np.nan
        with pytest.raises(NumericError, match="non-finite (analytic|numeric) gradient"):
            grad_check(net, np.ones((1, 3)))


# One checkpoint per file kind in the current format, byte for byte as the savers write it.
LSTM_ARRAYS = ('[[0.5, -0.25, 0.25, 0.125, -0.5, 0.75, 1.0, -1.0], [0.1, -0.2, 0.3, 0.0], '
               '[2.0], [-0.5]]')
FORMAT_LITERALS = {
    "mlp": '{"kind": "mlp", "layer_sizes": [2, 1], "arrays": [[0.5, -0.25], [0.1]]}',
    "forecaster": ('{"kind": "forecaster", "lo": 0.25, "hi": 1.5, "units": 1, "input_dim": 1, '
                   '"arrays": ' + LSTM_ARRAYS + '}'),
}
CODECS = {"mlp": (save_network, load_network), "forecaster": (save_forecaster, load_forecaster)}

# A forecaster file's header with its network sizes left open, and no arrays.
FORECASTER_HEADER = ('{{"kind": "forecaster", "lo": 0.0, "hi": 1.0, "units": {units}, '
                     '"input_dim": {input_dim}, "arrays": []}}')


def save_in_its_file(net, path: str) -> None:
    """Save ``net`` in the file kind that holds it: a Q-network file for an ``Mlp``, a
    forecaster file for an ``Lstm``."""
    if isinstance(net, Lstm):
        save_forecaster(Forecaster(lstm=net, lo=0.0, hi=1.0), path)
    else:
        save_network(net, path)


def read_lstm_part(path: str) -> Lstm:
    """A forecaster file's network, read by nn's own reader, which load_forecaster calls."""
    return network_from(read_checkpoint(path, {"forecaster": CHECKPOINT_LAYOUTS["lstm"]}),
                        path, "lstm")


# The reader of each file kind; "lstm" reads the network part of a forecaster file.
LOADERS = {"mlp": load_network, "lstm": read_lstm_part, "forecaster": load_forecaster}


class TestSerialization:
    def test_mlp_round_trip_bit_exact(self, tmp_path):
        net = Mlp.random([5, 7, 3], seed=42)
        path = tmp_path / "net.json"
        save_network(net, str(path))
        loaded = load_network(str(path))
        assert loaded.layer_sizes == net.layer_sizes
        for a, b in zip(loaded.params(), net.params()):
            assert np.array_equal(a, b)

    def test_bare_lstm_file_kind_retired(self, tmp_path):
        # An LSTM is saved only with its scale, in a forecaster file.
        with pytest.raises(TypeError, match="cannot serialize Lstm"):
            save_network(Lstm.random(3, seed=0), str(tmp_path / "unused.json"))
        path = tmp_path / "lstm.json"
        path.write_text('{"kind": "lstm", "input_dim": 1, "units": 1, "arrays": '
                        + LSTM_ARRAYS + '}')
        message = f"{path}: checkpoint kind 'lstm' is not one of ['mlp']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_network(str(path))

    def test_per_gate_lstm_blob_rejected(self, tmp_path):
        # The layout before stacked gates: (W, U, b) for f, i, g, o, then the head.
        u = 3
        arrays = [[0.0] * n for n in (u, u * u, u) * 4] + [[0.0] * u, [0.0]]
        path = tmp_path / "fc.json"
        path.write_text(json.dumps({"kind": "forecaster", "lo": 0.0, "hi": 1.0, "units": u,
                                    "input_dim": 1, "arrays": arrays}))
        with pytest.raises(ShapeError):
            load_forecaster(str(path))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("net", [Mlp.random([3, 4, 2], seed=0), Lstm.random(3, seed=0)],
                             ids=["mlp", "lstm"])
    def test_non_finite_checkpoint_rejected(self, tmp_path, net, bad):
        path = tmp_path / "net.json"
        save_in_its_file(net, str(path))
        blob = json.loads(path.read_text())
        blob["arrays"][1][0] = float(bad)
        path.write_text(json.dumps(blob))
        assert bad in path.read_text()
        with pytest.raises(ValueError, match=f"{path}: non-finite"):
            LOADERS["mlp" if isinstance(net, Mlp) else "lstm"](str(path))

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "a checkpoint is a JSON object, got a list"),
        ("{not json", "not a JSON checkpoint"),
        ('{"kind": "rnn", "arrays": []}', "checkpoint kind 'rnn' is not one of"),
        ('{"kind": "mlp", "arrays": []}', "mlp checkpoint has no 'layer_sizes'"),
        ('{"kind": "mlp", "layer_sizes": 5, "arrays": []}',
         "mlp checkpoint's 'layer_sizes' must be of type list, got int"),
        (FORECASTER_HEADER.format(units="true", input_dim=1),
         "forecaster checkpoint's 'units' must be of type int, got bool"),
        ('{"kind": "mlp", "layer_sizes": ["a", 4, 2], "arrays": []}',
         "mlp checkpoint's 'layer_sizes' must be two or more ints >= 1, got ['a', 4, 2]"),
        ('{"kind": "mlp", "layer_sizes": [3.0, 4, 2], "arrays": []}',
         "mlp checkpoint's 'layer_sizes' must be two or more ints >= 1, got [3.0, 4, 2]"),
        ('{"kind": "mlp", "layer_sizes": [3, true, 2], "arrays": []}',
         "mlp checkpoint's 'layer_sizes' must be two or more ints >= 1, got [3, True, 2]"),
        ('{"kind": "mlp", "layer_sizes": [3], "arrays": []}',
         "mlp checkpoint's 'layer_sizes' must be two or more ints >= 1, got [3]"),
        (FORECASTER_HEADER.format(units=-2, input_dim=1),
         "forecaster checkpoint's 'units' must be >= 1, got -2"),
        (FORECASTER_HEADER.format(units=0, input_dim=1),
         "forecaster checkpoint's 'units' must be >= 1, got 0"),
        (FORECASTER_HEADER.format(units=3, input_dim=0),
         "forecaster checkpoint's 'input_dim' must be 1, got 0"),
    ], ids=["list", "not-json", "unknown-kind", "no-layer-sizes", "int-layer-sizes",
            "bool-units", "text-layer-size", "float-layer-size", "bool-layer-size",
            "one-layer-size", "negative-units", "zero-units", "zero-input-dim"])
    def test_malformed_checkpoint_names_the_file_and_key(self, tmp_path, text, message):
        load = load_forecaster if text.startswith('{"kind": "forecaster"') else load_network
        path = tmp_path / "net.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load(str(path))

    def test_header_is_inspectable_json(self, tmp_path):
        net = Mlp.random([3, 2], seed=0)
        path = tmp_path / "net.json"
        save_network(net, str(path))
        blob = json.loads(path.read_text())
        assert blob["kind"] == "mlp"
        assert blob["layer_sizes"] == [3, 2]
        assert "activations" not in blob

    def test_older_mlp_header_with_activations_loads(self, tmp_path):
        # Older files also named the (only) layer stack: ReLU hidden, linear output.
        net = Mlp.random([4, 5, 3], seed=6)
        path = tmp_path / "net.json"
        save_network(net, str(path))
        blob = json.loads(path.read_text())
        blob["activations"] = ["relu", "linear"]
        path.write_text(json.dumps(blob))
        x = np.random.default_rng(0).normal(size=(7, 4))
        assert np.array_equal(load_network(str(path)).forward(x), net.forward(x))


def hand_lstm_prediction(seq) -> float:
    """LSTM_ARRAYS' prediction, step by step: gate rows f, i, o, g; columns [x, h]."""
    w = [[0.5, -0.25], [0.25, 0.125], [-0.5, 0.75], [1.0, -1.0]]
    b = [0.1, -0.2, 0.3, 0.0]
    h = c = 0.0
    for x in seq:
        z = [w[k][0] * x + w[k][1] * h + b[k] for k in range(4)]
        f, i, o = (1.0 / (1.0 + np.exp(-v)) for v in z[:3])
        c = f * c + i * np.tanh(z[3])
        h = o * np.tanh(c)
    return 2.0 * h - 0.5


class TestCheckpointFormat:
    @pytest.mark.parametrize("kind", sorted(FORMAT_LITERALS))
    def test_literal_loads_and_saves_back_byte_identical(self, tmp_path, kind):
        save, load = CODECS[kind]
        path, again = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(FORMAT_LITERALS[kind])
        loaded = load(str(path))
        save(loaded, str(again))
        assert again.read_text() == FORMAT_LITERALS[kind]
        if kind == "mlp":
            assert loaded.forward(np.array([[1.0, 2.0]]))[0, 0] == 0.5 - 0.5 + 0.1
        else:
            seq = [0.3, -0.7, 1.1]
            assert loaded.lstm.forward(np.array([seq]))[0] == pytest.approx(
                hand_lstm_prediction(seq), rel=1e-12)
            assert (loaded.lo, loaded.hi) == (0.25, 1.5)


class TestCheckpointContents:
    """Every reader rejects a malformed array list with a message that starts with the file.

    The "lstm" cases read a forecaster file's network with ``nn``'s own reader; the
    "forecaster" cases read the same file through ``load_forecaster``."""

    # Each edit of array list ``a`` and the start of the message it must raise; ``n`` is the
    # size of the net's second array (``m`` one less, ``p`` one more), and every net here
    # has four arrays.
    BAD_ARRAYS = {
        "text-value": (lambda a: a[1].__setitem__(0, "x"),
                       "array 1 must be a flat list of numbers"),
        "ragged": (lambda a: a[1].__setitem__(0, [0.0, 1.0]),
                   "array 1 must be a flat list of numbers"),
        "nested": (lambda a: a.__setitem__(1, [a[1]]), "array 1 must be a flat list of numbers"),
        "bare-number": (lambda a: a.__setitem__(1, 0.5), "array 1 must be a flat list of numbers"),
        "bool-value": (lambda a: a[1].__setitem__(0, True),
                       "array 1 must be a flat list of numbers"),
        "short-array": (lambda a: a[1].pop(), "array 1 has {m} values, expected {n} for shape"),
        "long-array": (lambda a: a[1].append(0.0),
                       "array 1 has {p} values, expected {n} for shape"),
        "fifth-array": (lambda a: a.append([0.0]), "5 arrays, the {kind} layout has 4"),
    }

    @pytest.mark.parametrize("edit", sorted(BAD_ARRAYS))
    @pytest.mark.parametrize("kind", ["mlp", "lstm", "forecaster"])
    def test_bad_arrays(self, tmp_path, kind, edit):
        net = Mlp.random([3, 4, 2], seed=0) if kind == "mlp" else Lstm.random(3, seed=0)
        path = tmp_path / "net.json"
        save_in_its_file(net, str(path))
        blob = json.loads(path.read_text())
        change, message = self.BAD_ARRAYS[edit]
        change(blob["arrays"])
        path.write_text(json.dumps(blob))
        n = net.params()[1].size
        message = message.format(m=n - 1, n=n, p=n + 1, kind="mlp" if kind == "mlp" else "lstm")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            LOADERS[kind](str(path))

    @pytest.mark.parametrize("net", [Mlp.random([3, 4, 2], seed=0)], ids=["mlp"])
    def test_load_network_rejects_a_short_array_list(self, tmp_path, net):
        path = tmp_path / "net.json"
        save_network(net, str(path))
        blob = json.loads(path.read_text())
        del blob["arrays"][-1]
        path.write_text(json.dumps(blob))
        message = f"{path}: 3 arrays, the {blob['kind']} layout has 4"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}"):
            load_network(str(path))

    @pytest.mark.parametrize("kind", ["lstm", "forecaster"])
    def test_two_input_file_rejected(self, tmp_path, kind):
        # A forecaster file of an LSTM with two inputs per step, its arrays sized to match:
        # w is (4u, 2 + u). The LSTM reads one series, so the header alone rejects it.
        u = 3
        arrays = [[0.1] * (4 * u * (2 + u)), [0.0] * (4 * u), [0.5] * u, [0.0]]
        path = tmp_path / "fc.json"
        path.write_text(json.dumps({"kind": "forecaster", "lo": 0.0, "hi": 1.0, "units": u,
                                    "input_dim": 2, "arrays": arrays}))
        message = f"{path}: forecaster checkpoint's 'input_dim' must be 1, got 2"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            LOADERS[kind](str(path))

    def test_forecaster_short_array_list_loads_zero_filled(self, tmp_path):
        # The one gap left open: the benchmark's self-test loads such a file and then
        # expects its predictions to differ.
        fc = Forecaster(lstm=Lstm.random(3, seed=0), lo=0.0, hi=1.0)
        path = tmp_path / "fc.json"
        save_forecaster(fc, str(path))
        blob = json.loads(path.read_text())
        del blob["arrays"][-2:]
        path.write_text(json.dumps(blob))
        loaded = load_forecaster(str(path))
        assert np.array_equal(loaded.lstm.theta[:fc.lstm.w.size + fc.lstm.b.size],
                              fc.lstm.theta[:fc.lstm.w.size + fc.lstm.b.size])
        assert not loaded.lstm.w_out.any() and not loaded.lstm.b_out.any()
