"""Batch Q-learning bidder: state encoding, action grid, training loop.

The learner's state is a 13-vector: its bid magnification pairs and
rewards at lags 48, 24, 2 and 1 hours (padded with the truthful-neutral
values 1.0 / 0.0 before history exists) plus a normalized next-hour
requirement estimate from the forecaster. Actions index the 81-point grid
of magnification pairs, each coordinate in ``market.MAGNIFICATIONS``
(1.0, 1.5, ..., 5.0); the environment steps on the index itself, and
``market.action_decode`` gives its pair.

The Q-network's shape fixes its layout: nfq2 maps a state to one value per
action; nfq1 maps a state with the normalized action index a / (n - 1)
appended to a single value.

Training follows fitted Q iteration with a slowly blended target network
and prioritized replay: act epsilon-greedily with the *target* network for
a block of steps, store transitions at the running max priority, sample a
mini-batch, regress the local network once toward bootstrap targets
r + gamma * max_a' Q(s', a'; target), refresh the sampled priorities from
the updated local network, then soft-update the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from .forecast import WINDOW
from .market import N_ACTIONS, ReactiveMarketEnv, action_decode
from .nn import Adam, Mlp, NumericError, ShapeError, soft_update
from .replay import ReplayBuffer

STATE_DIM = 13
STATE_LAGS = (48, 24, 2, 1)
VARIANTS = ("nfq1", "nfq2")

# Sub-seed stream indices: every random source of a run is default_rng([seed, k]).
STREAM_ENV = 0
STREAM_FORECASTER = 1
STREAM_NET = 2
STREAM_EPSILON = 3
STREAM_REPLAY = 4
STREAM_WARMUP = 5


class StepRecord(NamedTuple):
    a1: float
    a2: float
    reward: float


def encode_state(records, t: int, requirement_estimate: float) -> np.ndarray:
    """13-vector of lagged magnifications, lagged rewards, and the estimate.

    Lags reaching before recorded history pad with magnification 1.0 and
    reward 0.0 (what truthful bidding would have produced). The estimate is
    clipped to [0, 1].
    """
    state = np.empty(STATE_DIM)
    for li, lag in enumerate(STATE_LAGS):
        j = t - lag
        if 0 <= j < len(records):
            rec = records[j]
            state[2 * li] = rec.a1
            state[2 * li + 1] = rec.a2
            state[8 + li] = rec.reward
        else:
            state[2 * li] = 1.0
            state[2 * li + 1] = 1.0
            state[8 + li] = 0.0
    state[12] = min(max(float(requirement_estimate), 0.0), 1.0)
    return state


# ---------------------------------------------------------------------------
# Q evaluation
# ---------------------------------------------------------------------------

def _is_nfq1(net: Mlp, state_dim: int, n_actions: int) -> bool:
    """The network's layout: True for nfq1, False for nfq2, ShapeError for neither."""
    layout = (net.in_dim, net.out_dim)
    if layout == (state_dim, n_actions):
        return False
    if layout == (state_dim + 1, 1):
        return True
    raise ShapeError(f"network maps {net.in_dim} inputs to {net.out_dim} outputs; expected "
                     f"nfq2 ({state_dim} -> {n_actions}) or nfq1 ({state_dim + 1} -> 1)")


def _nfq1_rows(states: np.ndarray, actions: np.ndarray, n_actions: int) -> np.ndarray:
    """nfq1 input rows, state-major: state i followed by a / (n_actions - 1) for each
    action a in row i of ``actions``, an (m, k) array or one (k,) row for every state."""
    m, d = states.shape
    k = actions.shape[-1]
    rows = np.empty((m, k, d + 1))
    rows[:, :, :d] = states[:, None, :]
    rows[:, :, d] = actions / (n_actions - 1)
    return rows.reshape(m * k, d + 1)


def _q_matrix(net: Mlp, states: np.ndarray, n_actions: int) -> np.ndarray:
    """Q-values for every action at each state row; shape (len(states), n_actions)."""
    if not _is_nfq1(net, states.shape[1], n_actions):
        return net.forward(states)
    rows = _nfq1_rows(states, np.arange(n_actions), n_actions)
    return net.forward(rows).reshape(len(states), n_actions)


def q_values(net: Mlp, state: np.ndarray, n_actions: int = N_ACTIONS) -> np.ndarray:
    """All action values for one state, in one batched forward pass."""
    state = np.asarray(state, dtype=float)
    return _q_matrix(net, state[None, :], n_actions)[0]


def select_action(epsilon: float, rng: np.random.Generator, n_actions: int) -> int | None:
    """The epsilon-greedy draw: with probability epsilon a uniform random index,
    otherwise None, and the caller acts greedily (argmax, lowest index on ties).
    Deciding first lets the caller evaluate Q only on greedy steps."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return None


def compute_targets(rewards: np.ndarray, next_states: np.ndarray, terminal: np.ndarray,
                    target_net: Mlp, gamma: float, n_actions: int = N_ACTIONS) -> np.ndarray:
    """Bootstrap targets r + gamma * max_a' Q(s', a'; target); terminal rows use r."""
    if len(rewards) == 0:
        raise ValueError("batch is empty")
    best_next = _q_matrix(target_net, np.asarray(next_states, dtype=float),
                          n_actions).max(axis=1)
    return np.asarray(rewards, dtype=float) + np.where(terminal, 0.0, gamma * best_next)


def td_error(state, action: int, reward: float, next_state, terminal: bool,
             local_net: Mlp, target_net: Mlp, gamma: float, n_actions: int = N_ACTIONS) -> float:
    """Bootstrap target minus the local network's estimate for the taken action."""
    y = compute_targets([reward], [next_state], [terminal], target_net, gamma, n_actions)[0]
    q = q_values(local_net, np.asarray(state, dtype=float), n_actions)[action]
    return float(y - q)


# ---------------------------------------------------------------------------
# Task protocol and the market adapter
# ---------------------------------------------------------------------------

class Task(Protocol):
    """Episodic environment with encoded vector states and indexed actions."""

    n_actions: int
    state_dim: int

    def reset(self, seed: int) -> np.ndarray: ...
    def step(self, action: int) -> tuple[np.ndarray, float, bool, dict]: ...


class BiddingTask:
    """Market environment adapter: owns history and the requirement estimates.

    Requirement estimates for the whole episode are computed at reset, one per
    ``WINDOW``-hour window of the totals ``env.reset`` returns, and kept until
    a reset brings another seed; the totals do not depend on anyone's bids
    because dispatch meets the requirement.
    """

    def __init__(self, env: ReactiveMarketEnv, forecaster):
        self.env = env
        self.forecaster = forecaster
        self.n_actions = N_ACTIONS
        self.state_dim = STATE_DIM
        self._estimate_seed: int | None = None

    def reset(self, seed: int) -> np.ndarray:
        totals = self.env.reset(seed)
        # The totals series is fixed by the seed: keep the last seed's estimates.
        if seed != self._estimate_seed:
            windows = np.lib.stride_tricks.sliding_window_view(totals, WINDOW)
            self._estimates = self.forecaster.predict_batch_normalized(windows)
            self._estimate_seed = seed
        self._records: list[StepRecord] = []
        return encode_state(self._records, 0, self._estimates[0])

    def step(self, action: int):
        """Step the env on the grid index; record its pair and reward. After the last hour it
        follows the env: the current state, reward 0.0, done and ``{"exhausted": True}``."""
        result = self.env.step(action)
        if "exhausted" in result.info:
            t = len(self._records)
            return encode_state(self._records, t, self._estimates[t]), 0.0, True, result.info
        self._records.append(StepRecord(*action_decode(action), result.reward))
        t = len(self._records)
        state = encode_state(self._records, t, self._estimates[t])
        return state, result.reward, result.done, result.info


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """A configuration field is missing, unknown, or invalid."""


@dataclass
class TrainConfig:
    """Learner hyperparameters; defaults follow the reference configuration.

    Checked by ``validate`` on construction; a bad setting raises ConfigError.
    """

    gamma: float = 0.3
    epsilon0: float = 1.0
    epsilon_decay: float = 0.1      # per-episode multiplicative decay
    epsilon_min: float = 0.01
    tau: float = 1e-3
    batch_size: int = 64
    steps_per_iteration: int = 24   # environment steps per training pass
    buffer_capacity: int = 100_000
    warmup_size: int = 10_000
    variant: str = "nfq2"
    hidden_sizes: tuple[int, ...] | None = None
    learning_rate: float = 1e-3
    episodes: int = 1500
    max_iterations: int | None = None
    per_beta: float = 0.7
    per_eps: float = 0.01
    forced_action_index: int | None = None
    resample_demand: bool = False   # fresh requirement noise every episode

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        checks = [
            (0.0 <= self.gamma < 1.0, "gamma must be in [0, 1)"),
            (0.0 < self.tau <= 1.0, "tau must be in (0, 1]"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.buffer_capacity >= 1, "buffer_capacity must be >= 1"),
            (0 <= self.warmup_size <= self.buffer_capacity,
             "warmup_size must be in [0, buffer_capacity]"),
            (not self.hidden_sizes or min(self.hidden_sizes) >= 1, "hidden_sizes must be positive"),
            (self.variant in VARIANTS, f"variant must be one of {VARIANTS}"),
            (0.0 <= self.epsilon_min <= self.epsilon0 <= 1.0, "need 0 <= epsilon_min <= epsilon0 <= 1"),
            (0.0 <= self.epsilon_decay <= 1.0, "epsilon_decay must be in [0, 1]"),
            (self.steps_per_iteration >= 1, "steps_per_iteration must be >= 1"),
            (self.episodes >= 1, "episodes must be >= 1"),
            (self.max_iterations is None or self.max_iterations >= 1,
             "max_iterations must be None or >= 1"),
            (self.learning_rate > 0, "learning_rate must be positive"),
            (0.0 <= self.per_beta <= 1.0, "per_beta must be in [0, 1]"),
            (self.per_eps > 0.0, "per_eps must be > 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def hidden(self) -> tuple[int, ...]:
        if self.hidden_sizes:
            return tuple(self.hidden_sizes)
        return (64,) if self.variant == "nfq2" else (64, 64)

    def network_sizes(self, state_dim: int, n_actions: int) -> list[int]:
        if self.variant == "nfq2":
            return [state_dim, *self.hidden(), n_actions]
        return [state_dim + 1, *self.hidden(), 1]


@dataclass
class EpisodeStats:
    episode: int
    reward: float                # sum of per-step rewards
    epsilon: float               # exploration rate during the episode
    mean_abs_td: float           # mean |TD error| over the episode's updates
    baseline_payment: float      # truthful-counterfactual revenue over the episode


@dataclass
class TrainResult:
    episodes: list[EpisodeStats]
    local: Mlp
    target: Mlp


def warmup(task: Task, buffer: ReplayBuffer, n: int, rng: np.random.Generator,
           reset_seed: int = 0, forced_action: int | None = None) -> None:
    """Fill the buffer with n uniformly random transitions (episodes chained)."""
    if n == 0:
        return
    if n > buffer.capacity:
        raise ValueError(f"warmup size {n} exceeds buffer capacity {buffer.capacity}")
    state = task.reset(reset_seed)
    stored = 0
    while stored < n:
        action = forced_action if forced_action is not None else int(rng.integers(task.n_actions))
        next_state, reward, done, _ = task.step(action)
        buffer.add(state, action, reward, next_state, done)
        stored += 1
        state = task.reset(reset_seed) if done else next_state


def _one_training_pass(local: Mlp, target: Mlp, buffer: ReplayBuffer, opt,
                       config: TrainConfig, n_actions: int,
                       rng: np.random.Generator, context: str) -> float:
    """Sample, regress once toward the bootstrap targets, refresh priorities.

    Returns the mean |TD error| of the batch measured after the update.
    """
    batch = buffer.sample(config.batch_size, rng)
    y = compute_targets(batch.rewards, batch.next_states, batch.terminal, target,
                        config.gamma, n_actions)
    m = len(y)
    # The network input and the output entry that holds Q(s, a) for each row.
    if _is_nfq1(local, batch.states.shape[1], n_actions):
        inputs, taken = _nfq1_rows(batch.states, batch.actions[:, None], n_actions), (slice(None), 0)
    else:
        inputs, taken = batch.states, (np.arange(m), batch.actions)
    out, cache = local._forward_cache(inputs)  # the backward pass runs before the next forward
    err = out[taken] - y
    loss = float((err * err).sum() / m)  # np.mean's bits, without its wrapper's cost
    if not math.isfinite(loss):
        raise NumericError(f"diverged ({context}): non-finite TD loss")
    grad_out = np.zeros_like(out)
    grad_out[taken] = 2.0 * err / m
    opt.step(local, local._backward_from_cache(cache, grad_out))

    # Priorities reflect the freshly updated local network.
    q_new = local.forward(inputs)[taken]
    deltas = y - q_new
    buffer.update_priorities(batch.indices, deltas)
    return float(np.abs(deltas).sum() / m)


def train(task: Task, config: TrainConfig, seed: int) -> TrainResult:
    """Run the full fitted-Q loop on a task; deterministic given the seed."""
    rng_env = np.random.default_rng([seed, STREAM_ENV])
    rng_net = np.random.default_rng([seed, STREAM_NET])
    rng_eps = np.random.default_rng([seed, STREAM_EPSILON])
    rng_per = np.random.default_rng([seed, STREAM_REPLAY])
    rng_warm = np.random.default_rng([seed, STREAM_WARMUP])

    n_actions = task.n_actions
    local = Mlp.random(config.network_sizes(task.state_dim, n_actions),
                       int(rng_net.integers(2**31)))
    target = local.copy()
    opt = Adam(learning_rate=config.learning_rate)
    buffer = ReplayBuffer(config.buffer_capacity, beta=config.per_beta,
                          eps_priority=config.per_eps, state_dim=task.state_dim, n_actions=n_actions)

    env_seed = int(rng_env.integers(2**63))
    warmup(task, buffer, config.warmup_size, rng_warm, reset_seed=env_seed,
           forced_action=config.forced_action_index)

    episodes: list[EpisodeStats] = []
    epsilon = config.epsilon0
    state = task.reset(env_seed)
    episode_reward = 0.0
    episode_payment = 0.0
    episode_tds: list[float] = []
    iteration = 0

    while len(episodes) < config.episodes:
        if config.max_iterations is not None and iteration >= config.max_iterations:
            break
        iteration += 1
        for _ in range(config.steps_per_iteration):
            if config.forced_action_index is not None:
                action = config.forced_action_index
            else:
                action = select_action(epsilon, rng_eps, n_actions)
                if action is None:
                    action = int(np.argmax(q_values(target, state, n_actions)))
            next_state, reward, done, info = task.step(action)
            buffer.add(state, action, reward, next_state, done)
            episode_reward += reward
            episode_payment += info.get("baseline_payment", 0.0)
            if done:
                mean_td = float(np.mean(episode_tds)) if episode_tds else 0.0
                episodes.append(EpisodeStats(len(episodes), episode_reward, epsilon,
                                             mean_td, episode_payment))
                episode_reward = 0.0
                episode_payment = 0.0
                episode_tds = []
                epsilon = max(config.epsilon_min, epsilon * (1.0 - config.epsilon_decay))
                if len(episodes) >= config.episodes:
                    break
                if config.resample_demand:
                    env_seed = int(rng_env.integers(2**63))
                state = task.reset(env_seed)
            else:
                state = next_state
        if len(buffer) >= config.batch_size:
            mean_abs_td = _one_training_pass(
                local, target, buffer, opt, config, n_actions, rng_per,
                context=f"iteration {iteration}, epsilon {epsilon:.4g}, gamma {config.gamma}")
            episode_tds.append(mean_abs_td)
            soft_update(target, local, config.tau)
    return TrainResult(episodes=episodes, local=local, target=target)


def greedy_episode(task: Task, net: Mlp, reset_seed: int) -> tuple[float, list[dict]]:
    """Play one episode with the greedy policy; returns (total reward, step infos)."""
    state = task.reset(reset_seed)
    total = 0.0
    rows = []
    done = False
    while not done:
        action = int(np.argmax(q_values(net, state, task.n_actions)))
        state, reward, done, info = task.step(action)
        total += reward
        info = dict(info)
        info["action"] = action
        info["reward"] = reward
        rows.append(info)
    return total, rows
