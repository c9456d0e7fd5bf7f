"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale learning
criterion (7) trains 6 learners x 5 seeds and dominates the runtime.
"""

import numpy as np
import pytest

from oracles import (dispatch_objective, grid_dispatch, random_dispatch_instance,
                     value_iteration)
from toy_env import REWARDS, TRANSITIONS, TwoStateMdp
from varbid import cli
from varbid.agent import TrainConfig, q_values, train
from varbid.forecast import holdout_mse, train_forecaster
from varbid.harness import ExperimentConfig, run_matrix
from varbid.market import (DEFAULT_GENCOS, Bid, GencoParams, ReactiveMarketEnv,
                           clear_market, simulate_total_quantity)
from varbid.nn import Lstm, Mlp, grad_check
from varbid.replay import ReplayBuffer


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE {number}] {'PASS' if passed else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def input_away_from_kinks(net: Mlp, rng, margin=1e-3):
    for _ in range(200):
        x = rng.normal(size=net.in_dim)
        a = x[None, :]
        ok = True
        for w, b in zip(net.weights[:-1], net.biases[:-1]):  # the ReLU layers
            z = a @ w.T + b
            if np.abs(z).min() < margin:
                ok = False
                break
            a = np.maximum(z, 0.0)
        if ok:
            return x
    raise AssertionError("no kink-free input found")


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng(2024)
    shapes = [[14, 64, 64, 1], [13, 64, 81]]
    while len(shapes) < 20:
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 20)) for _ in range(depth + 1)]
        shapes.append(sizes)
    worst = 0.0
    for k, sizes in enumerate(shapes):
        net = Mlp.random(sizes, seed=1000 + k)
        x = input_away_from_kinks(net, rng)
        worst = max(worst, grad_check(net, x))
    for k in range(10):
        units = int(rng.integers(2, 9))
        lstm = Lstm.random(1, units, seed=2000 + k)
        seq = rng.normal(size=5)
        worst = max(worst, grad_check(lstm, seq))
    report(1, "gradient fidelity: 20 MLPs + 10 LSTMs, max relative error < 1e-4",
           worst < 1e-4, f"max error {worst:.3g}")


def test_criterion_2_per_distribution():
    priorities = np.array([1.0, 2.0, 4.0, 8.0])
    beta = 0.7
    buf = ReplayBuffer(4, beta=beta, eps_priority=0.01, state_dim=1, n_actions=2)
    for k in range(4):
        buf.add(np.zeros(1), 0, 0.0, np.zeros(1), False)
    buf.update_priorities(np.arange(4), priorities - 0.01)
    draws = 1_000_000
    idx = buf.sample_indices(draws, np.random.default_rng(7))
    freq = np.bincount(idx, minlength=4) / draws
    expected = priorities ** beta / (priorities ** beta).sum()
    gap = float(np.abs(freq - expected).max())
    report(2, "prioritized sampling frequencies within 1% of p^beta law over 1e6 draws",
           gap < 0.01, f"max abs gap {gap:.5f}")


def test_criterion_3_dispatch_optimality():
    rng = np.random.default_rng(31415)
    worst_obj_gap = -np.inf
    worst_coord_gap = 0.0
    for _ in range(200):
        b1, b2, qmax, demand = random_dispatch_instance(rng)
        gencos = [GencoParams(i + 1, 0.1, 0.1, 0.0, float(q)) for i, q in enumerate(qmax)]
        out = clear_market([Bid(float(a), float(b)) for a, b in zip(b1, b2)],
                           demand, gencos)
        x = out.qg
        gx, gobj = grid_dispatch(b1, b2, qmax, demand)
        worst_obj_gap = max(worst_obj_gap, dispatch_objective(b1, b2, x) - gobj)
        worst_coord_gap = max(worst_coord_gap, float(np.abs(x - gx).max()))
    passed = worst_obj_gap <= 1e-6 and worst_coord_gap < 2e-3
    report(3, "dispatch beats the exhaustive grid oracle on 200 random instances",
           passed, f"max objective gap {worst_obj_gap:.2g}, max coord gap {worst_coord_gap:.2g}")


def test_criterion_4_reward_identity():
    exact = True
    for strategy in ("b1", "b2"):
        env = ReactiveMarketEnv(rival_strategy=strategy, episode_steps=720)
        env.reset(11)
        for _ in range(720):
            step = env.step(0)  # the pair (1, 1)
            if step.reward != 0.0:
                exact = False
                break
    report(4, "truthful magnification (1, 1) earns exactly zero each step, both rival modes",
           exact)


def test_criterion_5_forecaster_beats_baseline():
    series = simulate_total_quantity(seed=0, steps=720)
    forecaster, _ = train_forecaster(series, units=32, epochs=50, seed=0)
    lstm_mse, ref_mse = holdout_mse(series, forecaster)
    report(5, "LSTM held-out MSE at or below the two-lag reference",
           lstm_mse <= ref_mse, f"lstm {lstm_mse:.3g} vs reference {ref_mse:.3g}")


def test_criterion_6_toy_mdp_policy_recovery():
    optimal = value_iteration(REWARDS, TRANSITIONS, gamma=0.5)
    config = TrainConfig(gamma=0.5, epsilon0=1.0, epsilon_decay=0.2, epsilon_min=0.05,
                         tau=0.1, batch_size=32, steps_per_iteration=8,
                         buffer_capacity=2000, warmup_size=64, variant="nfq2",
                         hidden_sizes=(16,), learning_rate=0.01, episodes=10**6,
                         max_iterations=200)
    hits = 0
    for seed in range(10):
        result = train(TwoStateMdp(), config, seed)
        learned = [int(np.argmax(q_values(result.local, np.eye(2)[s], 2)))
                   for s in (0, 1)]
        hits += learned == optimal
    report(6, "toy MDP: greedy policy matches value iteration in >= 9 of 10 seeds",
           hits >= 9, f"{hits}/10 seeds within 200 iterations")


DESK_SCALE = dict(
    strategy="b1", variant="nfq2", seeds=(0, 1, 2, 3, 4), episodes=300,
    episode_steps=168, trace=False, convergence_window=0.1,
    forecaster_units=16, forecaster_epochs=15,
    gamma=0.3, epsilon_decay=0.1, tau=1e-3, batch_size=64, steps_per_iteration=4,
    buffer_capacity=20_000, warmup_size=2_000, learning_rate=1e-3,
)


def test_criterion_7_desk_scale_learning(tmp_path):
    mus: dict[int, float] = {}
    tols: dict[int, float] = {}
    result = run_matrix(ExperimentConfig(out_dir=str(tmp_path), **DESK_SCALE),
                        learners=(1, 2, 3, 4, 5, 6), strategies=("b1",), variants=("nfq2",))
    assert not result["errors"], result["errors"]
    for learner in (1, 2, 3, 4, 5, 6):
        summary = result["summaries"][(learner, "b1", "nfq2")]
        mus[learner] = summary.mu
        tols[learner] = 0.01 * summary.mean_payment
        print(f"  learner {learner}: converged mu {summary.mu:+.4f} "
              f"(sigma {summary.sigma:.4f}, 1% payment {tols[learner]:.4f})", flush=True)
    at_least_baseline = all(mus[k] >= -tols[k] for k in mus)
    low_cost_positive = mus[2] > 0.0 and mus[4] > 0.0
    high_cost_smallest = mus[5] <= min(mus[k] for k in mus if k != 5) + 1e-12
    report(7, "desk-scale learning: baseline floor, low-cost winners, high-cost smallest",
           at_least_baseline and low_cost_positive and high_cost_smallest,
           f"mus={{1: {mus[1]:.3f}, 2: {mus[2]:.3f}, 3: {mus[3]:.3f}, "
           f"4: {mus[4]:.3f}, 5: {mus[5]:.3f}, 6: {mus[6]:.3f}}}")


def test_criterion_8_run_determinism(tmp_path):
    args = ["run", "--learner-id", "2", "--seeds", "0",
            "--episodes", "8", "--episode-steps", "72",
            "--set", "warmup_size=300", "--set", "buffer_capacity=3000",
            "--set", "steps_per_iteration=4", "--set", "batch_size=32",
            "--set", "forecaster_units=8", "--set", "forecaster_epochs=4",
            "--set", "forecaster_series_steps=240", "--set", "convergence_window=0.25"]
    assert cli.main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("curve_seed0.csv", "summary.csv", "trace_seed0.csv"))
    report(8, "re-running an identical configuration reproduces output CSVs byte for byte",
           identical)
