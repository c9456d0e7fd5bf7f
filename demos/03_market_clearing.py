"""One day in the reactive power market.

Shows the hourly requirement profile, a single clearing in detail, and the
reward the learning producer sees when it magnifies its bid instead of
bidding its true costs.
"""

import numpy as np

from varbid import (Bid, DEFAULT_GENCOS, ReactiveMarketEnv, action_decode, clear_market,
                    demand_profile, profit)

series = demand_profile(168, seed=0)
print("Hourly requirement (units of 100 MVAr), first day:")
print("  " + " ".join(f"{v:.2f}" for v in series.values[:24]))
print(f"  peak over the week: {series.values.max():.3f} units")
print()

demand = float(series.values[15])  # an afternoon hour
bids = [Bid(g.c1, g.c2) for g in DEFAULT_GENCOS]
out = clear_market(bids, demand, DEFAULT_GENCOS)
print(f"Truthful clearing at requirement {demand:.3f}:")
print(f"  shadow price {out.shadow_price:.4f} $/unit")
for g, qg, price in zip(DEFAULT_GENCOS, out.qg, out.prices):
    inc = qg - g.bg
    print(f"  producer {g.id}: dispatched {inc:.4f} above base {g.bg:.4f}, "
          f"nodal price {price:.4f}, profit {profit(price, qg, g):+.4f}")
print()

print("Learner (producer 2) against demand-scaled rival markups:")
env = ReactiveMarketEnv(learner=1, rival_strategy="b1", episode_steps=48)
env.reset(0)
for action in (0, 20, 80):  # grid indices of the magnification pairs below
    env.reset(0)
    rewards = [env.step(action).reward for _ in range(24)]
    print(f"  action {action}, bids at {action_decode(action)}: "
          f"day-one reward sum {sum(rewards):+.4f} $")
print("  action 0, (1, 1), is exactly zero by construction: the reward is measured "
      "against a truthful-bid counterfactual of the same hour.")
