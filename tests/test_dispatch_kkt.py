"""Optimality (KKT) properties of the dispatch solvers on generated instances.

For min sum_i b1_i x_i + b2_i x_i^2 subject to sum_i x_i = D and
0 <= x_i <= q_i, the shadow price lambda certifies optimality when every
strictly interior unit has marginal cost b1_i + 2 b2_i x_i = lambda, every
idle unit has b1_i >= lambda and every capped unit has marginal cost
<= lambda. The exhaustive grid oracle stays the acceptance gate
(criterion 3); these properties cover the edges it does not reach.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from varbid.market import Bid, GencoParams, clear_market, clear_market_batch

# The breakpoint walk is exact up to rounding, which leaves marginal costs
# within about 1e-13 of lambda; 1e-9 is headroom, not a solver gap.
PRICE_TOL = 1e-9
BALANCE_TOL = 1e-12

KKT_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

_curvature = st.one_of(
    st.floats(0.01, 4.0),
    st.just(0.0),                                     # zero curvature
    st.floats(1e-12, 1e-6),                           # tiny curvature
)


@st.composite
def instances(draw, n=None):
    """(b1, b2, qmax, demand) with demand in [0, capacity], edges included."""
    n = draw(st.integers(1, 9)) if n is None else n
    if draw(st.booleans()):  # identical bids and capacities
        b1 = [draw(st.floats(0.0, 3.0))] * n
        b2 = [draw(_curvature)] * n
        qmax = [draw(st.floats(0.05, 1.0))] * n
    else:
        b1 = draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
        b2 = draw(st.lists(_curvature, min_size=n, max_size=n))
        qmax = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    share = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return b1, b2, qmax, share * sum(qmax)


def assert_kkt(b1, b2, qmax, demand, x, lam):
    b1, b2, qmax, x = (np.asarray(v, dtype=float) for v in (b1, b2, qmax, x))
    assert abs(sum(x.tolist()) - demand) <= BALANCE_TOL
    assert np.all(x >= 0.0) and np.all(x <= qmax)
    marginal = b1 + 2.0 * b2 * x
    interior = (x > 0.0) & (x < qmax)
    assert np.all(np.abs(marginal[interior] - lam) <= PRICE_TOL)
    assert np.all(b1[x == 0.0] >= lam - PRICE_TOL)
    assert np.all(marginal[x == qmax] <= lam + PRICE_TOL)


@KKT_SETTINGS
@given(instances())
def test_clear_market_satisfies_kkt(instance):
    b1, b2, qmax, demand = instance
    gencos = [GencoParams(i + 1, 0.1, 0.1, 0.0, q) for i, q in enumerate(qmax)]
    out = clear_market([Bid(a, b) for a, b in zip(b1, b2)], demand, gencos)
    assert_kkt(b1, b2, qmax, demand, out.qg, out.shadow_price)


@KKT_SETTINGS
@given(st.integers(1, 9).flatmap(lambda n: st.lists(instances(n), min_size=1, max_size=4)))
def test_batch_satisfies_kkt(rows):
    b1, b2, qmax, demand = (np.array([r[k] for r in rows]) for k in range(4))
    x, lam = clear_market_batch(b1, b2, qmax, demand)
    for t in range(len(rows)):
        assert_kkt(b1[t], b2[t], qmax[t], demand[t], x[t], lam[t])
