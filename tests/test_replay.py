import numpy as np
import pytest
from scipy import stats

from varbid.replay import ReplayBuffer


def transition(tag=0.0, action=0, terminal=False, dim=3):
    """The (state, action, reward, next state, terminal) fields tagged by one number."""
    s = np.full(dim, tag)
    return s, action, float(tag), s + 1.0, terminal


class TestConstruction:
    def test_reference_configuration(self):
        buf = ReplayBuffer(capacity=100_000, state_dim=13, beta=0.7, eps_priority=0.01)
        assert buf.capacity == 100_000
        assert buf.beta == 0.7
        assert len(buf) == 0

    def test_capacity_one_always_evicts(self):
        buf = ReplayBuffer(1, state_dim=3)
        buf.add(*transition(1.0))
        buf.add(*transition(2.0))
        assert len(buf) == 1
        assert buf.sample(1, np.random.default_rng(0)).rewards[0] == 2.0

    def test_beta_zero_is_uniform(self):
        buf = ReplayBuffer(4, beta=0.0, state_dim=3)
        for k in range(4):
            buf.add(*transition(k))
        buf.update_priorities([0, 1, 2, 3], [0.0, 10.0, 100.0, 1000.0])
        idx = buf.sample_indices(40_000, np.random.default_rng(7))
        freq = np.bincount(idx, minlength=4) / 40_000
        # 3 sigma around 0.25 at n=40000 is about 0.0065
        assert np.abs(freq - 0.25).max() < 0.0075

    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0}, {"capacity": 4, "beta": -0.1}, {"capacity": 4, "beta": 1.5},
        {"capacity": 4, "eps_priority": 0.0},
    ])
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReplayBuffer(state_dim=3, **kwargs)


class TestAdd:
    def test_size_grows_to_capacity(self):
        buf = ReplayBuffer(3, state_dim=3)
        buf.add(*transition(0.0))
        assert len(buf) == 1
        for k in range(5):
            buf.add(*transition(k))
        assert len(buf) == 3

    def test_sampled_fields_match_last_write(self):
        buf = ReplayBuffer(3, state_dim=3)
        written = {}
        for k in range(7):
            fields = transition(float(k), action=k, terminal=k % 3 == 1)
            buf.add(*fields)
            written[k % 3] = fields
        batch = buf.sample(300, np.random.default_rng(4))
        assert set(batch.indices.tolist()) == {0, 1, 2}
        for j, i in enumerate(batch.indices):
            state, action, reward, next_state, terminal = written[int(i)]
            assert np.array_equal(batch.states[j], state)
            assert np.array_equal(batch.next_states[j], next_state)
            assert batch.actions[j] == action
            assert batch.rewards[j] == reward
            assert batch.terminal[j] == terminal

    def test_oldest_evicted_first(self):
        buf = ReplayBuffer(3, state_dim=3)
        for k in range(4):
            buf.add(*transition(float(k)))
        rewards = set(buf.sample(200, np.random.default_rng(0)).rewards.tolist())
        assert 0.0 not in rewards
        assert rewards <= {1.0, 2.0, 3.0}

    def test_default_p_init_tracks_running_max(self):
        buf = ReplayBuffer(4, eps_priority=0.01, state_dim=3)
        buf.add(*transition(0.0))
        assert buf.priority(0) == 1.0  # empty-buffer fallback
        buf.update_priorities([0], [4.99])
        buf.add(*transition(1.0))
        assert buf.priority(1) == 5.0

    def test_malformed_experience_rejected(self):
        buf = ReplayBuffer(4, state_dim=3, n_actions=81)
        with pytest.raises(ValueError):
            buf.add(np.zeros(2), 0, 0.0, np.zeros(3), False)
        with pytest.raises(ValueError):
            buf.add(np.zeros(3), 81, 0.0, np.zeros(3), False)
        with pytest.raises(ValueError):
            buf.add(np.zeros(3), 0, float("nan"), np.zeros(3), False)

    def test_numpy_integer_action_and_bool_flag_accepted(self):
        buf = ReplayBuffer(2, state_dim=3, n_actions=81)
        buf.add(np.zeros(3), np.int64(80), 0.0, np.zeros(3), np.bool_(True))
        buf.add(np.zeros(3), 3, 0.0, np.zeros(3), False)
        assert buf.actions.tolist() == [80, 3]
        assert buf.terminal.tolist() == [True, False]

    @pytest.mark.parametrize("bad", [
        (np.zeros(3), 0, 9.0, np.zeros(2), False),
        (np.full(3, np.inf), 0, 9.0, np.zeros(3), False),
        (np.zeros(3), -1, 9.0, np.zeros(3), False),
        (np.zeros(3), 1.7, 9.0, np.zeros(3), False),
        (np.zeros(3), True, 9.0, np.zeros(3), False),
        (np.zeros(3), 0, 9.0, np.zeros(3), "no"),
        (np.zeros(3), 0, 9.0, np.zeros(3), 1),
    ])
    def test_rejected_transition_writes_nothing(self, bad):
        buf = ReplayBuffer(2, state_dim=3, n_actions=81)
        buf.add(*transition(1.0))
        buf.add(*transition(2.0))  # full: the next write would evict slot 0
        before = [a.copy() for a in (buf.states, buf.next_states, buf.actions,
                                     buf.rewards, buf.terminal)]
        with pytest.raises(ValueError):
            buf.add(*bad)
        after = (buf.states, buf.next_states, buf.actions, buf.rewards, buf.terminal)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert len(buf) == 2 and buf.priority(0) == buf.priority(1) == 1.0
        buf.add(*transition(3.0))
        assert buf.rewards.tolist() == [3.0, 2.0]


class TestSample:
    def test_empty_buffer_is_a_state_error(self):
        with pytest.raises(RuntimeError):
            ReplayBuffer(4, state_dim=3).sample(1, np.random.default_rng(0))

    def test_oversampling_allowed_with_replacement(self):
        buf = ReplayBuffer(4, state_dim=3)
        buf.add(*transition(0.0))
        assert len(buf.sample(10, np.random.default_rng(0)).indices) == 10

    def test_deterministic_given_seed(self):
        buf = ReplayBuffer(8, state_dim=3)
        for k in range(8):
            buf.add(*transition(k))
        buf.update_priorities(range(8), np.linspace(0, 3, 8))
        a = buf.sample_indices(100, np.random.default_rng(42))
        b = buf.sample_indices(100, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_draws_match_linear_scan_reference(self):
        # index i owns [w_0 + ... + w_(i-1), w_0 + ... + w_i) of the draw range
        buf = ReplayBuffer(8, beta=0.7, state_dim=3)
        for k in range(6):
            buf.add(*transition(k))
        buf.update_priorities(range(6), [0.5, 0.0, 3.0, 1.0, 0.2, 2.0])
        idx = buf.sample_indices(500, np.random.default_rng(1))
        bounds, running = [], 0.0
        for i in range(6):  # left-to-right running sum, the order the buffer sums in
            running += buf.priority(i) ** 0.7
            bounds.append(running)
        for u, i in zip(np.random.default_rng(1).random(500) * running, idx):
            assert i == next(j for j, b in enumerate(bounds) if u < b)

    def test_two_entry_exact_probabilities(self):
        # priorities 3 and 1 at beta=1: probabilities 0.75 / 0.25
        buf = ReplayBuffer(2, beta=1.0, eps_priority=0.01, state_dim=3)
        buf.add(*transition(0.0))
        buf.add(*transition(1.0))
        buf.update_priorities([0, 1], [2.99, 0.99])
        idx = buf.sample_indices(200_000, np.random.default_rng(3))
        freq = np.bincount(idx, minlength=2) / 200_000
        assert freq[0] == pytest.approx(0.75, abs=0.005)
        assert freq[1] == pytest.approx(0.25, abs=0.005)

    def test_powered_priorities_match_within_one_percent(self):
        buf = ReplayBuffer(4, beta=0.7, eps_priority=0.01, state_dim=3)
        for k in range(3):
            buf.add(*transition(k))
        buf.update_priorities([0, 1, 2], [0.99, 1.99, 3.99])
        idx = buf.sample_indices(1_000_000, np.random.default_rng(11))
        freq = np.bincount(idx, minlength=3) / 1_000_000
        p = np.array([1.0, 2.0, 4.0]) ** 0.7
        p /= p.sum()
        assert np.abs(freq - p).max() < 0.01

    def test_chi_square_on_priority_multiset(self):
        # 60 mixed priorities: empirical counts pass a chi-square fit at 1%.
        rng = np.random.default_rng(0)
        n = 60
        buf = ReplayBuffer(64, beta=0.7, eps_priority=0.01, state_dim=3)
        for k in range(n):
            buf.add(*transition(k))
        pri = rng.uniform(0.01, 5.0, size=n)
        buf.update_priorities(np.arange(n), pri - 0.01)
        draws = 200_000
        idx = buf.sample_indices(draws, np.random.default_rng(5))
        counts = np.bincount(idx, minlength=n)
        expected = pri ** 0.7 / (pri ** 0.7).sum() * draws
        _, pvalue = stats.chisquare(counts, expected)
        assert pvalue > 0.01


class TestUpdatePriorities:
    def test_zero_td_error_floors_at_eps(self):
        buf = ReplayBuffer(4, eps_priority=0.01, state_dim=3)
        buf.add(*transition(0.0))
        buf.update_priorities([0], [0.0])
        assert buf.priority(0) == 0.01

    def test_absolute_value_of_negative_error(self):
        buf = ReplayBuffer(4, eps_priority=0.01, state_dim=3)
        buf.add(*transition(0.0))
        buf.update_priorities([0], [-2.0])
        assert buf.priority(0) == pytest.approx(2.01)

    def test_repeated_index_last_write_wins(self):
        buf = ReplayBuffer(4, eps_priority=0.01, state_dim=3)
        buf.add(*transition(0.0))
        buf.update_priorities([0, 0], [5.0, 1.0])
        assert buf.priority(0) == pytest.approx(1.01)

    def test_out_of_range_index_rejected(self):
        buf = ReplayBuffer(4, state_dim=3)
        buf.add(*transition(0.0))
        with pytest.raises(ValueError):
            buf.update_priorities([1], [0.5])

    def test_length_mismatch_rejected(self):
        buf = ReplayBuffer(4, state_dim=3)
        buf.add(*transition(0.0))
        with pytest.raises(ValueError):
            buf.update_priorities([0], [0.5, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_error_rejected_before_any_write(self, bad):
        buf = ReplayBuffer(4, eps_priority=0.01, state_dim=3)
        for r in range(3):
            buf.add(*transition(float(r)))
        buf.update_priorities([0, 1], [2.0, 0.5])
        priorities, weights = buf._priorities.copy(), buf._weights.copy()
        with pytest.raises(ValueError, match="td_errors"):
            buf.update_priorities([1, 2], [0.3, bad])
        assert np.array_equal(buf._priorities, priorities)
        assert np.array_equal(buf._weights, weights)
        assert buf._max_priority == pytest.approx(2.01)
        # Later adds and draws still see finite priorities.
        buf.add(*transition(3.0))
        assert buf.priority(3) == pytest.approx(2.01)
        idx = buf.sample_indices(2000, np.random.default_rng(0))
        assert set(idx.tolist()) == {0, 1, 2, 3}


class TestInvariants:
    def test_priorities_never_below_eps(self):
        rng = np.random.default_rng(9)
        buf = ReplayBuffer(16, eps_priority=0.05, state_dim=3)
        for k in range(50):
            buf.add(*transition(k))
            stored = len(buf)
            picks = rng.integers(0, stored, size=4)
            buf.update_priorities(picks, rng.normal(size=4))
            assert min(buf.priority(i) for i in range(stored)) >= 0.05

    def test_count_is_min_of_adds_and_capacity(self):
        buf = ReplayBuffer(10, state_dim=3)
        for k in range(25):
            buf.add(*transition(k))
            assert len(buf) == min(k + 1, 10)
