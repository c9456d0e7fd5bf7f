"""How the prioritized replay buffer skews sampling toward surprising data.

Stored transitions carry priority |td_error| + eps; sampling probability is
p^beta / sum p^beta. beta = 0 is uniform, beta = 1 fully proportional.
"""

import numpy as np

from varbid import ReplayBuffer

priorities = np.array([1.0, 2.0, 4.0, 8.0])
draws = 200_000

for beta in (0.0, 0.7, 1.0):
    buf = ReplayBuffer(capacity=4, beta=beta, eps_priority=0.01, state_dim=1, n_actions=2)
    for _ in priorities:
        buf.add(np.zeros(1), 0, 0.0, np.zeros(1), False)
    buf.update_priorities(np.arange(4), priorities - 0.01)

    idx = buf.sample_indices(draws, np.random.default_rng(0))
    freq = np.bincount(idx, minlength=4) / draws
    law = priorities ** beta / (priorities ** beta).sum()
    print(f"beta = {beta}")
    for k in range(4):
        print(f"  priority {priorities[k]:>3}: sampled {freq[k]:.4f}  (law {law[k]:.4f})")
    print()

print("Ring-buffer eviction: capacity 3, four adds drop the oldest entry.")
buf = ReplayBuffer(capacity=3, state_dim=1, n_actions=2)
for reward in (10.0, 11.0, 12.0, 13.0):
    buf.add(np.zeros(1), 0, reward, np.zeros(1), False)
kept = sorted(set(buf.sample(500, np.random.default_rng(1)).rewards.tolist()))
print(f"rewards still stored: {kept}")
