import tracemalloc

import numpy as np
import pytest

from oracles import mlp_backward_reference, nfq1_rows_reference, value_iteration
from toy_env import REWARDS, TRANSITIONS, TwoStateMdp, ZeroRewardTask
from varbid import agent, market
from varbid.agent import (BiddingTask, N_ACTIONS, STATE_DIM, STREAM_EPSILON, StepRecord,
                          TrainConfig, _nfq1_rows, _q_matrix, action_decode, compute_targets,
                          encode_state, q_values, select_action, td_error, train, warmup)
from varbid.forecast import WINDOW, train_forecaster
from varbid.harness import derive_env_seed
from varbid.market import (MAGNIFICATIONS, DemandConfig, ReactiveMarketEnv, demand_profile,
                           simulate_total_quantity)
from varbid.nn import _STREAM_ROWS, Adam, Mlp, ShapeError, _views
from varbid.replay import ReplayBuffer


class TestActionGrid:
    def test_first_action_is_neutral(self):
        assert action_decode(0) == (1.0, 1.0)

    def test_second_action_steps_minor_axis(self):
        assert action_decode(1) == (1.0, 1.5)

    def test_last_action_is_max(self):
        assert action_decode(80) == (5.0, 5.0)

    def test_grid_is_the_market_magnification_grid(self):
        assert MAGNIFICATIONS == tuple(1.0 + 0.5 * i for i in range(9))
        assert [action_decode(k) for k in range(N_ACTIONS)] == [
            (a1, a2) for a1 in MAGNIFICATIONS for a2 in MAGNIFICATIONS]

    def test_grid_covers_81_distinct_pairs(self):
        pairs = {action_decode(k) for k in range(N_ACTIONS)}
        assert len(pairs) == 81
        assert all(1.0 <= a <= 5.0 and 1.0 <= b <= 5.0 for a, b in pairs)

    def test_one_decode_shared_with_the_market(self):
        assert agent.action_decode is market.action_decode

    @pytest.mark.parametrize("index", [-1, 81, 100])
    def test_out_of_range_rejected(self, index):
        with pytest.raises(ValueError):
            action_decode(index)


class TestEncodeState:
    def test_empty_history_pads_neutral(self):
        state = encode_state([], 0, 0.3)
        assert state.shape == (STATE_DIM,)
        assert np.array_equal(state[:8], np.ones(8))
        assert np.array_equal(state[8:12], np.zeros(4))
        assert state[12] == pytest.approx(0.3)

    def test_full_history_reads_exact_lags(self):
        records = [StepRecord(1.0 + 0.01 * k, 2.0 + 0.01 * k, float(k)) for k in range(60)]
        t = 60
        state = encode_state(records, t, 0.5)
        for li, lag in enumerate((48, 24, 2, 1)):
            assert state[2 * li] == records[t - lag].a1
            assert state[2 * li + 1] == records[t - lag].a2
            assert state[8 + li] == records[t - lag].reward

    def test_length_always_13(self):
        for t in (0, 1, 30, 100):
            records = [StepRecord(1.0, 1.0, 0.0)] * t
            assert encode_state(records, t, 0.0).shape == (STATE_DIM,)

    def test_estimate_clipped(self):
        assert encode_state([], 0, 7.0)[12] == 1.0
        assert encode_state([], 0, -3.0)[12] == 0.0


class TestQValues:
    def test_zero_weight_nets_return_bias(self):
        state = np.zeros(STATE_DIM)
        net2 = Mlp.zeros([13, 8, 81])
        net2.biases[-1][:] = 0.7
        assert np.allclose(q_values(net2, state), 0.7)
        net1 = Mlp.zeros([14, 8, 1])
        net1.biases[-1][:] = -0.2
        assert np.allclose(q_values(net1, state), -0.2)

    def test_both_variants_return_81_values(self):
        state = np.random.default_rng(0).normal(size=STATE_DIM)
        q2 = q_values(Mlp.random([13, 16, 81], seed=1), state)
        q1 = q_values(Mlp.random([14, 16, 1], seed=1), state)
        assert q2.shape == (81,)
        assert q1.shape == (81,)

    def test_nfq1_matches_direct_forward_on_augmented_vector(self):
        net = Mlp.random([14, 32, 1], seed=5)
        state = np.random.default_rng(3).normal(size=STATE_DIM)
        qs = q_values(net, state)
        for k in (0, 7, 80):
            direct = net.forward(np.concatenate([state, [k / 80.0]]))[0]
            assert qs[k] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 64])
    def test_nfq1_rows_match_repeat_tile_reference_bit_for_bit(self, m):
        net = Mlp.random([14, 64, 64, 1], seed=8)
        states = np.random.default_rng(m).normal(size=(m, STATE_DIM))
        reference = nfq1_rows_reference(states, N_ACTIONS)
        expected = net.forward(reference).reshape(m, N_ACTIONS)
        assert np.array_equal(_q_matrix(net, states, N_ACTIONS), expected)
        assert np.array_equal(expected, net._forward_cache(reference)[0].reshape(m, N_ACTIONS))
        # The training batch's rows: each state with its taken action only.
        actions = np.random.default_rng(m + 1).integers(N_ACTIONS, size=m)
        taken = reference[np.arange(m) * N_ACTIONS + actions]
        assert np.array_equal(_nfq1_rows(states, actions[:, None], N_ACTIONS), taken)

    def test_warm_nfq1_target_pass_allocates_under_1mb(self):
        # The net's buffers are built with it and never grow; a warm pass allocates
        # only its (64 * 81, 14) input rows (0.58 MB) and its output (41 kB). A
        # hidden layer of all 5,184 rows would be 2.65 MB, one streamed block 0.44 MB.
        net = Mlp.random([14, 64, 64, 1], seed=9)
        states = np.random.default_rng(5).normal(size=(64, STATE_DIM))
        buffers = list(net._work)
        _q_matrix(net, states, N_ACTIONS)
        tracemalloc.start()
        try:
            _q_matrix(net, states, N_ACTIONS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"traced peak {peak / 1e6:.2f} MB"
        assert peak < 64 * N_ACTIONS * (STATE_DIM + 2) * 8 + 100_000, f"traced peak {peak} B"
        assert all(w is kept for w, kept in zip(net._work, buffers))

    def test_variant_shape_mismatch_rejected(self):
        state = np.zeros(STATE_DIM)
        with pytest.raises(ShapeError, match=r"nfq2 \(13 -> 81\) or nfq1 \(14 -> 1\)"):
            q_values(Mlp.random([13, 16, 80], seed=0), state)
        with pytest.raises(ShapeError, match=r"nfq2 \(13 -> 81\) or nfq1 \(14 -> 1\)"):
            q_values(Mlp.random([13, 16, 1], seed=0), state)


class ActionLog(ZeroRewardTask):
    """ZeroRewardTask over the full action grid that records every action it is given."""

    n_actions = N_ACTIONS

    def __init__(self):
        super().__init__()
        self.actions = []

    def step(self, action):
        self.actions.append(action)
        return super().step(action)


class TestSelectAction:
    @staticmethod
    def train_actions(epsilon, steps=20, seed=0):
        """The actions of a train run at a constant epsilon with no training pass."""
        task = ActionLog()
        train(task, TrainConfig(epsilon0=epsilon, epsilon_decay=0.0, epsilon_min=epsilon,
                                warmup_size=0, buffer_capacity=steps, batch_size=steps,
                                steps_per_iteration=steps, max_iterations=1), seed)
        return task.actions

    @classmethod
    def greedy_actions(cls, monkeypatch, q):
        """train's actions at epsilon 0 when every Q evaluation returns ``q``."""
        monkeypatch.setattr(agent, "q_values", lambda net, state, n_actions: q)
        return cls.train_actions(0.0)

    def test_greedy_at_zero_epsilon(self, monkeypatch):
        rng = np.random.default_rng(0)
        assert all(select_action(0.0, rng, N_ACTIONS) is None for _ in range(20))
        q = np.zeros(81)
        q[17] = 2.0
        assert self.greedy_actions(monkeypatch, q) == [17] * 20

    def test_tie_break_lowest_index(self, monkeypatch):
        q = np.zeros(81)
        q[3] = q[7] = 5.0
        assert self.greedy_actions(monkeypatch, q) == [3] * 20

    def test_uniform_at_epsilon_one(self):
        rng = np.random.default_rng(1)
        counts = np.bincount([select_action(1.0, rng, N_ACTIONS) for _ in range(100_000)],
                             minlength=81)
        # three sigma band around 100000/81
        expected = 100_000 / 81
        sigma = np.sqrt(expected * (1 - 1 / 81))
        assert np.abs(counts - expected).max() < 3.5 * sigma

    def test_constant_shift_does_not_change_argmax(self, monkeypatch):
        q = np.random.default_rng(4).normal(size=81)
        assert self.greedy_actions(monkeypatch, q) == self.greedy_actions(monkeypatch, q + 123.4)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            select_action(1.2, np.random.default_rng(0), 3)

    def test_draws_random_then_index_and_train_evaluates_q_only_when_greedy(self, monkeypatch):
        epsilon, seed = 0.5, 3
        twin = np.random.default_rng(7)
        draws = [int(twin.integers(N_ACTIONS)) if twin.random() < epsilon else None
                 for _ in range(200)]
        rng = np.random.default_rng(7)
        assert [select_action(epsilon, rng, N_ACTIONS) for _ in range(200)] == draws
        evaluated = []
        real = agent.q_values
        monkeypatch.setattr(agent, "q_values", lambda *args: evaluated.append(1) or real(*args))
        actions = self.train_actions(epsilon, steps=40, seed=seed)
        rng_eps = np.random.default_rng([seed, STREAM_EPSILON])
        draws = [select_action(epsilon, rng_eps, N_ACTIONS) for _ in actions]
        assert 0 < len(evaluated) == draws.count(None) < len(actions)
        assert all(a == d for a, d in zip(actions, draws) if d is not None)


def _exp(state, action, reward, next_state, terminal=False):
    """The (state, action, reward, next state, terminal) fields of one transition."""
    return (np.asarray(state, dtype=float), action, reward,
            np.asarray(next_state, dtype=float), terminal)


def _fields(batch):
    """The (rewards, next_states, terminal) arrays of a list of transitions."""
    _, _, rewards, next_states, terminal = zip(*batch)
    return np.array(rewards), np.array(next_states), np.array(terminal)


class TestTargetsAndTdError:
    def test_gamma_zero_targets_are_rewards(self):
        net = Mlp.random([13, 8, 81], seed=0)
        batch = [_exp(np.zeros(13), 4, 1.5, np.ones(13)),
                 _exp(np.ones(13), 2, -0.5, np.zeros(13))]
        y = compute_targets(*_fields(batch), net, 0.0)
        assert np.allclose(y, [1.5, -0.5])

    def test_terminal_ignores_bootstrap(self):
        net = Mlp.random([13, 8, 81], seed=0)
        batch = [_exp(np.zeros(13), 0, 2.0, np.ones(13), terminal=True)]
        assert compute_targets(*_fields(batch), net, 0.9)[0] == pytest.approx(2.0)

    def test_hand_built_q_table_backup(self):
        # Linear identity net embeds a 2-state Q-table: Q(s, a) = W one_hot(s).
        table = np.array([[0.3, 1.2], [0.7, 0.1]])  # rows: actions, cols: states
        net = Mlp([table], [np.zeros(2)])
        batch = [_exp([1.0, 0.0], 0, 0.5, [0.0, 1.0]),
                 _exp([0.0, 1.0], 1, -1.0, [1.0, 0.0])]
        y = compute_targets(*_fields(batch), net, 0.5, n_actions=2)
        assert y[0] == pytest.approx(0.5 + 0.5 * max(1.2, 0.1))
        assert y[1] == pytest.approx(-1.0 + 0.5 * max(0.3, 0.7))

    def test_td_error_simple_arithmetic(self):
        net = Mlp.zeros([13, 4, 81])
        exp = _exp(np.zeros(13), 3, 1.0, np.zeros(13))
        assert td_error(*exp, net, net, 0.0) == pytest.approx(1.0)

    def test_td_error_zero_at_fixed_point(self):
        # Q-table equal to the exact fixed point of the toy MDP at gamma 0.5.
        gamma = 0.5
        # Solve Q* analytically: V(s1)=2, V(s0)=1 under the optimal policy.
        qstar = np.array([[0.1 + gamma * 1.0, 0.0 + gamma * 2.0],
                          [1.0 + gamma * 2.0, 0.0 + gamma * 1.0]]).T  # (a, s)
        net = Mlp([qstar], [np.zeros(2)])
        for (s, a), r in REWARDS.items():
            exp = _exp(np.eye(2)[s], a, r, np.eye(2)[TRANSITIONS[(s, a)]])
            assert abs(td_error(*exp, net, net, gamma, n_actions=2)) < 1e-9

    def test_td_error_matches_component_composition(self):
        local = Mlp.random([13, 8, 81], seed=1)
        target = Mlp.random([13, 8, 81], seed=2)
        exp = _exp(np.random.default_rng(0).normal(size=13), 11, 0.3,
                   np.random.default_rng(1).normal(size=13))
        expected = (compute_targets(*_fields([exp]), target, 0.4)[0]
                    - q_values(local, exp[0])[11])
        assert td_error(*exp, local, target, 0.4) == pytest.approx(expected, abs=1e-12)


class TestWarmup:
    def test_fills_requested_count(self):
        buf = ReplayBuffer(500, state_dim=2, n_actions=2)
        warmup(TwoStateMdp(), buf, 200, np.random.default_rng(0))
        assert len(buf) == 200

    def test_zero_leaves_buffer_untouched(self):
        buf = ReplayBuffer(10, state_dim=2, n_actions=2)
        warmup(TwoStateMdp(), buf, 0, np.random.default_rng(0))
        assert len(buf) == 0

    def test_exceeding_capacity_rejected(self):
        buf = ReplayBuffer(10, state_dim=2, n_actions=2)
        with pytest.raises(ValueError):
            warmup(TwoStateMdp(), buf, 11, np.random.default_rng(0))

    def test_actions_roughly_uniform(self):
        buf = ReplayBuffer(3000, state_dim=2, n_actions=2)
        warmup(TwoStateMdp(), buf, 3000, np.random.default_rng(3))
        actions = buf.sample(3000, np.random.default_rng(0)).actions
        share = np.mean(actions == 0)
        assert 0.45 < share < 0.55


def toy_config(**overrides):
    base = dict(gamma=0.5, epsilon0=1.0, epsilon_decay=0.2, epsilon_min=0.05,
                tau=0.1, batch_size=32, steps_per_iteration=8, buffer_capacity=2000,
                warmup_size=64, variant="nfq2", hidden_sizes=(16,), learning_rate=0.01,
                episodes=10**6, max_iterations=200)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_forced_neutral_action_gives_flat_zero_curve(self):
        cfg = toy_config(gamma=0.0, forced_action_index=0, max_iterations=60,
                         episodes=20, warmup_size=32)
        result = train(ZeroRewardTask(), cfg, seed=0)
        assert len(result.episodes) == 20
        assert all(e.reward == 0.0 for e in result.episodes)
        # TD loss collapses once the network fits the all-zero targets
        assert result.episodes[-1].mean_abs_td < 1e-2

    def test_toy_mdp_recovers_value_iteration_policy(self):
        optimal = value_iteration(REWARDS, TRANSITIONS, gamma=0.5)
        result = train(TwoStateMdp(), toy_config(), seed=1)
        learned = [int(np.argmax(q_values(result.local, np.eye(2)[s], 2)))
                   for s in (0, 1)]
        assert learned == optimal

    def test_identical_seeds_identical_curves(self):
        cfg = toy_config(max_iterations=80)
        a = train(TwoStateMdp(), cfg, seed=7)
        b = train(TwoStateMdp(), cfg, seed=7)
        assert [e.reward for e in a.episodes] == [e.reward for e in b.episodes]
        assert [e.mean_abs_td for e in a.episodes] == [e.mean_abs_td for e in b.episodes]
        for pa, pb in zip(a.local.params(), b.local.params()):
            assert np.array_equal(pa, pb)

    def test_epsilon_schedule_nonincreasing_with_floor(self):
        cfg = toy_config(epsilon0=1.0, epsilon_decay=0.5, epsilon_min=0.1,
                         max_iterations=150)
        result = train(TwoStateMdp(episode_steps=10), cfg, seed=0)
        eps = [e.epsilon for e in result.episodes]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
        assert eps[0] == 1.0
        assert min(eps) >= 0.1
        k = len(eps) - 1
        assert eps[-1] == pytest.approx(max(0.1, 0.5 ** k))

    @pytest.mark.parametrize("warmup_size", [0, 32])
    def test_first_episode_seed_is_derive_env_seed(self, warmup_size):
        # harness.derive_env_seed recomputes this draw for the forecaster series
        # and the greedy trace, so both must see the series train starts on.
        seeds = []

        class RecordingTask(ZeroRewardTask):
            def reset(self, seed):
                seeds.append(seed)
                return super().reset(seed)

        cfg = toy_config(warmup_size=warmup_size, max_iterations=10)
        train(RecordingTask(), cfg, seed=5)
        assert seeds[0] == derive_env_seed(5)
        assert set(seeds) == {seeds[0]}  # without resample_demand every reset repeats it

    def test_non_finite_loss_aborts_with_diagnostics(self):
        from varbid.agent import _one_training_pass
        from varbid.nn import NumericError
        cfg = toy_config(batch_size=4, hidden_sizes=(8,))
        buf = ReplayBuffer(10, state_dim=13, n_actions=81)
        for _ in range(4):  # reward near the float ceiling overflows the squared loss
            buf.add(np.zeros(13), 0, 1e200, np.zeros(13), False)
        local = Mlp.random([13, 8, 81], seed=0)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="epsilon 0.5"):
            _one_training_pass(local, local.copy(), buf, Adam(learning_rate=cfg.learning_rate),
                               cfg, 81, np.random.default_rng(0),
                               context="iteration 7, epsilon 0.5, gamma 0.3")

    def test_training_pass_over_stream_rows_matches_reference_gradient(self):
        from varbid.agent import _one_training_pass

        class GradientLog:  # stands in for the optimizer; keeps the gradient it is given
            def step(self, net, grad):
                self.grad = grad.copy()

        m = _STREAM_ROWS + 1
        cfg = toy_config(batch_size=m, variant="nfq1")
        buf = ReplayBuffer(m + 100, state_dim=STATE_DIM, n_actions=N_ACTIONS)
        rng = np.random.default_rng(11)
        for _ in range(m + 100):
            buf.add(rng.normal(size=STATE_DIM), int(rng.integers(N_ACTIONS)), rng.normal(),
                    rng.normal(size=STATE_DIM), bool(rng.random() < 0.1))
        local, target = (Mlp.random([STATE_DIM + 1, 64, 64, 1], seed=k) for k in (1, 2))
        batch = buf.sample(m, np.random.default_rng(12))
        y = compute_targets(batch.rewards, batch.next_states, batch.terminal, target, cfg.gamma)
        x = np.column_stack([batch.states, batch.actions / (N_ACTIONS - 1)])
        h = x
        for w, b in zip(local.weights[:-1], local.biases[:-1]):
            h = np.maximum(h @ w.T + b, 0.0)
        out = h @ local.weights[-1].T + local.biases[-1]
        g = (2.0 * (out[:, 0] - y) / m)[:, None]
        expected = mlp_backward_reference(local.weights, local.biases, x, g)

        log = GradientLog()
        _one_training_pass(local, target, buf, log, cfg, N_ACTIONS, np.random.default_rng(12),
                           context="test")
        assert all(np.array_equal(v, e) for v, e in zip(_views(log.grad, local.shapes), expected))
        for net in (local, target):
            assert [w.shape[0] for w in net._work] == [_STREAM_ROWS, _STREAM_ROWS]

    def test_priority_consistency_after_iteration(self):
        # After training, re-deriving |delta| + eps from the final networks
        # must reproduce the stored priority for the last updated indices.
        cfg = toy_config(max_iterations=5, tau=0.0 + 1e-9, warmup_size=64)
        task = TwoStateMdp()
        buf = ReplayBuffer(2000, beta=0.7, eps_priority=0.01, state_dim=2, n_actions=2)
        rng = np.random.default_rng([3, 5])
        warmup(task, buf, 64, rng, reset_seed=11)
        from varbid.agent import _one_training_pass
        local = Mlp.random([2, 16, 2], seed=0)
        target = local.copy()
        opt = Adam(learning_rate=cfg.learning_rate)
        rng_per = np.random.default_rng(9)
        state_rng = np.random.default_rng(10)
        _ = state_rng  # unused: priorities only depend on the sampled batch
        # replay the sampling stream to learn which indices were touched
        probe = np.random.default_rng(9)
        expected_indices = buf.sample_indices(cfg.batch_size, probe)
        _one_training_pass(local, target, buf, opt, cfg, 2, rng_per, context="test")
        for idx in np.unique(expected_indices):
            delta = td_error(buf.states[idx], int(buf.actions[idx]), buf.rewards[idx],
                             buf.next_states[idx], bool(buf.terminal[idx]),
                             local, target, cfg.gamma, 2)
            stored = buf.priority(int(idx))
            # last write wins for duplicate indices; every stored value must
            # equal |delta| + eps for its entry
            assert stored == pytest.approx(abs(delta) + 0.01, abs=1e-12)


@pytest.fixture(scope="module")
def forecaster():
    series = simulate_total_quantity(seed=0, steps=240)
    fc, _ = train_forecaster(series, units=8, epochs=5, seed=0)
    return fc


class TestBiddingTask:
    def test_state_dimensions_and_reset(self, forecaster):
        env = ReactiveMarketEnv(episode_steps=30)
        task = BiddingTask(env, forecaster)
        state = task.reset(0)
        assert state.shape == (13,)
        assert np.array_equal(state[:8], np.ones(8))

    def test_step_records_action_pair(self, forecaster):
        env = ReactiveMarketEnv(episode_steps=30)
        task = BiddingTask(env, forecaster)
        task.reset(0)
        state, reward, done, info = task.step(10)  # (1.5, 1.5)
        assert not done
        assert state[6] == 1.5 and state[7] == 1.5  # lag-1 slots
        assert state[11] == pytest.approx(reward)

    def test_market_training_smoke(self, forecaster):
        env = ReactiveMarketEnv(episode_steps=30, rival_strategy="b2")
        cfg = TrainConfig(episodes=3, steps_per_iteration=5, batch_size=16,
                          buffer_capacity=500, warmup_size=32, hidden_sizes=(16,))
        result = train(BiddingTask(env, forecaster), cfg, seed=0)
        assert len(result.episodes) == 3
        assert all(np.isfinite(e.reward) for e in result.episodes)
        assert all(e.baseline_payment > 0 for e in result.episodes)

    def test_reference_hyperparameters_run_without_divergence(self, forecaster):
        # gamma 0.3, batch 64, tau 1e-3, beta 0.7 over 100 short episodes
        env = ReactiveMarketEnv(episode_steps=36, rival_strategy="b1")
        cfg = TrainConfig(gamma=0.3, batch_size=64, tau=1e-3, per_beta=0.7,
                          episodes=100, steps_per_iteration=24,
                          buffer_capacity=5000, warmup_size=200, hidden_sizes=(32,))
        result = train(BiddingTask(env, forecaster), cfg, seed=0)
        assert len(result.episodes) == 100
        assert all(np.isfinite(e.reward) for e in result.episodes)
        for p in result.local.params():
            assert np.all(np.isfinite(p))

    def test_estimates_kept_for_last_seed_only(self, forecaster):
        calls = []

        class CountingForecaster:
            def predict_batch_normalized(self, windows):
                calls.append(len(windows))
                return forecaster.predict_batch_normalized(windows)

        task = BiddingTask(ReactiveMarketEnv(episode_steps=30), CountingForecaster())
        task.reset(0)
        first = task._estimates.copy()
        task.reset(0)
        assert len(calls) == 1  # same seed: estimates reused
        for seed in range(1, 40):
            task.reset(seed)
        # one entry held: the last seed's estimates, one per hour plus the lookahead
        assert task._estimate_seed == 39
        assert task._estimates.shape == first.shape == (31,)
        task.reset(0)
        assert len(calls) == 41
        assert np.array_equal(task._estimates, first)

    def test_step_after_the_last_hour_follows_the_env(self, forecaster):
        T = 25
        actions = [(7 * t) % N_ACTIONS for t in range(T)]
        task = BiddingTask(ReactiveMarketEnv(episode_steps=T), forecaster)
        task.reset(4)
        for a in actions[:-1]:
            task.step(a)
        last_state, _, done, _ = task.step(actions[-1])
        assert done
        records = list(task._records)
        for a in (0, 80):
            state, reward, done, info = task.step(a)
            assert np.array_equal(state, last_state)
            assert (reward, done, info) == (0.0, True, {"exhausted": True})
            assert task._records == records
        fresh = BiddingTask(ReactiveMarketEnv(episode_steps=T), forecaster)
        for t in (task, fresh):
            t.reset(4)
        for a in actions:
            got, want = task.step(a), fresh.step(a)
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("strategy", ["b1", "b2"])
    def test_estimates_equal_lead_in_and_episode_windows(self, forecaster, strategy):
        # Reference: base generation plus the lead-in requirement, then base
        # generation plus the episode's, each window of WINDOW hours predicted.
        config = DemandConfig(peak_units=1.2)
        env = ReactiveMarketEnv(learner=3, rival_strategy=strategy, demand_config=config,
                                episode_steps=40)
        task = BiddingTask(env, forecaster)
        base = sum(g.bg for g in env.gencos)
        for seed in (5, 6):
            values = demand_profile(40 + WINDOW, seed, config).values
            totals = np.concatenate([base + values[:WINDOW], base + values[WINDOW:]])
            windows = np.lib.stride_tricks.sliding_window_view(totals, WINDOW)
            expected = forecaster.predict_batch_normalized(windows)
            state = task.reset(seed)
            assert task._estimates.tobytes() == expected.tobytes()
            assert state[12] == min(max(expected[0], 0.0), 1.0)

    def test_resampled_demand_differs_across_episodes(self, forecaster):
        env = ReactiveMarketEnv(episode_steps=30, rival_strategy="b2")
        task = BiddingTask(env, forecaster)
        cfg = TrainConfig(episodes=2, steps_per_iteration=30, batch_size=8,
                          buffer_capacity=200, warmup_size=8, hidden_sizes=(8,),
                          resample_demand=True, forced_action_index=0)
        from varbid.agent import train
        train(task, cfg, seed=3)
        first_series = env.demand_values.copy()
        cfg_fixed = TrainConfig(episodes=2, steps_per_iteration=30, batch_size=8,
                                buffer_capacity=200, warmup_size=8, hidden_sizes=(8,),
                                resample_demand=False, forced_action_index=0)
        train(task, cfg_fixed, seed=3)
        fixed_series = env.demand_values.copy()
        # resampling leaves the env on a later-episode series; fixed mode does not
        assert not np.array_equal(first_series, fixed_series)
