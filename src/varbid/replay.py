"""Prioritized experience replay with proportional sampling.

Transitions live in preallocated arrays, one per field, used as a ring buffer
(oldest-first eviction); ``add`` takes the five fields of one transition and
the state dimension is fixed at construction. A new entry gets the running
max priority (1.0 while no priority has exceeded it), so it is likely to be
replayed at least once (Schaul et al. 2016). Updated priorities are
p_i = |td_error| + eps_priority, so every stored entry keeps a nonzero
probability. A draw picks index i with probability p_i^beta / sum_j p_j^beta,
with replacement, by a binary search of the cumulative sum of p^beta: O(size)
per batch of draws, but one vectorized pass, which at this library's sizes (up
to about 1e5 entries) beats a sum tree's per-level loop. beta = 0 is uniform.
No importance-sampling correction is applied to the loss.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Batch(NamedTuple):
    """Sampled buffer indices and the transition fields stored at them."""

    indices: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminal: np.ndarray


class ReplayBuffer:
    """Ring buffer of transitions with proportional prioritized sampling."""

    def __init__(self, capacity: int, state_dim: int, beta: float = 0.7,
                 eps_priority: float = 0.01, n_actions: int = 81):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        if eps_priority <= 0.0:
            raise ValueError(f"eps_priority must be > 0, got {eps_priority}")
        self.capacity = capacity
        self.beta = beta
        self.eps_priority = eps_priority
        self.state_dim = state_dim
        self.n_actions = n_actions
        self._priorities = np.zeros(capacity)
        self._weights = np.zeros(capacity)  # p^beta, the sampling weights
        self.actions = np.zeros(capacity, dtype=int)
        self.rewards = np.zeros(capacity)
        self.terminal = np.zeros(capacity, dtype=bool)
        # Zeroed pages cost no memory until entries are written to them.
        self.states = np.zeros((capacity, state_dim))
        self.next_states = np.zeros((capacity, state_dim))
        self._size = 0
        self._write = 0
        self._max_priority = 1.0

    def __len__(self) -> int:
        return self._size

    def priority(self, index: int) -> float:
        return float(self._priorities[index])

    def add(self, state, action: int, reward: float, next_state, terminal: bool) -> None:
        """Store at the running max priority, evicting the oldest at capacity.

        A transition with a wrong state shape, a non-finite value, an action
        that is not an integer in [0, n_actions) or a terminal flag that is not
        a bool is rejected before any slot is written.
        """
        s = np.asarray(state, dtype=float)
        nxt = np.asarray(next_state, dtype=float)
        if s.shape != (self.state_dim,) or nxt.shape != (self.state_dim,):
            raise ValueError(
                f"state shapes {s.shape}/{nxt.shape} do not match dimension {self.state_dim}"
            )
        if not (np.isfinite(s).all() and np.isfinite(nxt).all() and math.isfinite(reward)):
            raise ValueError("experience contains non-finite values")
        if (isinstance(action, bool) or not isinstance(action, (int, np.integer))
                or not 0 <= action < self.n_actions):
            raise ValueError(f"action must be an integer in [0, {self.n_actions - 1}], got {action!r}")
        if not isinstance(terminal, (bool, np.bool_)):
            raise ValueError(f"terminal flag must be a bool, got {terminal!r}")
        w = self._write
        self.states[w] = s
        self.next_states[w] = nxt
        self.actions[w] = action
        self.rewards[w] = reward
        self.terminal[w] = terminal
        self._priorities[w] = self._max_priority
        self._weights[w] = self._max_priority ** self.beta
        self._size = min(self._size + 1, self.capacity)
        self._write = (w + 1) % self.capacity

    def sample_indices(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Draw m indices with replacement, index i with probability p_i^beta / sum."""
        if m < 1:
            raise ValueError(f"sample size must be >= 1, got {m}")
        if not self._size:
            raise RuntimeError("cannot sample from an empty buffer")
        cumulative = np.cumsum(self._weights[:self._size])
        u = rng.random(m) * cumulative[-1]
        idx = np.searchsorted(cumulative, u, side="right")
        # Guard the float edge u == total, which would land one entry past the end.
        return np.minimum(idx, self._size - 1)

    def sample(self, m: int, rng: np.random.Generator) -> Batch:
        idx = self.sample_indices(m, rng)
        return Batch(idx, self.states[idx], self.actions[idx], self.rewards[idx],
                     self.next_states[idx], self.terminal[idx])

    def update_priorities(self, indices, td_errors) -> None:
        """Set priority |td_error| + eps_priority at each index (last write wins).

        Out-of-range indices and non-finite errors are rejected before any write.
        """
        idx = np.asarray(indices, dtype=int)
        errs = np.asarray(td_errors, dtype=float)
        if idx.shape != errs.shape:
            raise ValueError(f"{idx.size} indices but {errs.size} errors")
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self._size:
            raise ValueError(f"index outside stored range [0, {self._size - 1}]")
        priorities = np.abs(errs) + self.eps_priority
        top = float(priorities.max())  # NaN or inf if any error is
        if not math.isfinite(top):
            raise ValueError(f"td_errors has a non-finite value at position "
                             f"{int(np.argmin(np.isfinite(errs)))}")
        self._priorities[idx] = priorities
        self._weights[idx] = priorities ** self.beta
        self._max_priority = max(self._max_priority, top)
