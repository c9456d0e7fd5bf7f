import re

import numpy as np
import pytest

from oracles import (bisect_dispatch, dispatch_objective, grid_dispatch,
                     random_dispatch_instance, rival_bids)
from varbid import market
from varbid.forecast import WINDOW
from varbid.market import (DEFAULT_GENCOS, Bid, DemandConfig, GencoParams,
                           InfeasibleDemand, N_ACTIONS, ReactiveMarketEnv, action_decode,
                           clear_market, clear_market_batch, demand_profile, load_gencos,
                           profit, simulate_total_quantity)


# Nine producers: numpy's row sums switch to pairwise summation from 8
# columns on, so this table catches a path that sums in another order than
# the scalar solver.
NINE_GENCOS = DEFAULT_GENCOS + (
    GencoParams(7, 0.66, 0.45, 0.02500, 0.5),
    GencoParams(8, 0.81, 0.27, 0.01500, 0.5),
    GencoParams(9, 0.70, 0.60, 0.04000, 0.5),
)


def autocorrelation(series, lag):
    v = np.asarray(series) - np.mean(series)
    return float(np.dot(v[:-lag], v[lag:]) / np.dot(v, v))


class TestDemandProfile:
    def test_requested_length_is_exact(self):
        assert len(demand_profile(720, seed=0).values) == 720

    def test_noise_free_daily_only_is_24_periodic(self):
        cfg = DemandConfig(weekly_amplitude=0.0, noise_amplitude=0.0)
        series = demand_profile(240, seed=5, config=cfg)
        assert np.allclose(series.values[:-24], series.values[24:], rtol=0, atol=1e-12)

    def test_daily_period_dominates(self):
        series = demand_profile(720, seed=3)
        assert autocorrelation(series.values, 24) > autocorrelation(series.values, 12)

    def test_normalization_in_unit_interval(self):
        series = demand_profile(200, seed=1)
        assert series.normalized.min() >= 0.0
        assert series.normalized.max() == pytest.approx(1.0)

    def test_peak_calibration(self):
        series = demand_profile(720, seed=2)
        cfg = DemandConfig()
        assert series.values.max() == pytest.approx(cfg.peak_units * cfg.participation, rel=0.1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            demand_profile(48, seed=0)

    def test_same_seed_identical(self):
        a = demand_profile(100, seed=9)
        b = demand_profile(100, seed=9)
        assert np.array_equal(a.values, b.values)


class TestRivalBids:
    def test_markup_at_full_demand_producer_one(self):
        # producer 1 at d=1: (2 * 0.73, 5 * 0.30) = (1.46, 1.50)
        g = DEFAULT_GENCOS[0]
        cfg = _NoNoise()
        bid = rival_bids("b1", g, 1.0, cfg)
        assert bid.b1 == pytest.approx(1.46)
        assert bid.b2 == pytest.approx(1.50)

    def test_markup_multipliers_at_half_demand(self):
        g = GencoParams(9, 1.0, 1.0, 0.0, 0.5)
        bid = rival_bids("b1", g, 0.5, _NoNoise())
        assert bid.b1 == pytest.approx(1.0)
        assert bid.b2 == pytest.approx(2.5)

    def test_truthful_strategy_returns_exact_costs(self):
        g = DEFAULT_GENCOS[3]
        for d in (0.0, 0.4, 1.0):
            bid = rival_bids("b2", g, d, np.random.default_rng(0))
            assert bid.b1 == g.c1
            assert bid.b2 == g.c2

    def test_noise_stays_clipped(self):
        g = DEFAULT_GENCOS[1]
        rng = np.random.default_rng(0)
        for _ in range(200):
            bid = rival_bids("b1", g, 0.01, rng)
            assert bid.b1 >= 0.0
            assert bid.b2 >= 0.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            rival_bids("b3", DEFAULT_GENCOS[0], 0.5, np.random.default_rng(0))


class _NoNoise:
    @staticmethod
    def uniform(lo, hi):
        return 0.0


class TestClearMarket:
    def test_two_identical_producers_split_evenly(self):
        gencos = [GencoParams(1, 0.5, 0.4, 0.0, 0.5), GencoParams(2, 0.5, 0.4, 0.0, 0.5)]
        bids = [Bid(0.5, 0.4), Bid(0.5, 0.4)]
        out = clear_market(bids, 0.4, gencos)
        assert np.allclose(out.qg, [0.2, 0.2], atol=1e-9)

    def test_single_producer_takes_demand_at_marginal_price(self):
        gencos = [GencoParams(1, 0.7, 0.3, 0.1, 0.5)]
        out = clear_market([Bid(0.7, 0.3)], 0.25, gencos)
        assert out.qg[0] == pytest.approx(0.35, abs=1e-9)  # bg + x
        assert out.prices[0] == pytest.approx(0.7 + 2 * 0.3 * 0.25, abs=1e-9)

    def test_table_costs_match_grid_oracle(self):
        gencos = DEFAULT_GENCOS
        bids = [Bid(g.c1, g.c2) for g in gencos]
        out = clear_market(bids, 0.5, gencos)
        x = out.qg - np.array([g.bg for g in gencos])
        b1 = [g.c1 for g in gencos]
        b2 = [g.c2 for g in gencos]
        gx, gobj = grid_dispatch(b1, b2, [g.q_max for g in gencos], 0.5)
        assert dispatch_objective(b1, b2, x) <= gobj + 1e-6
        assert np.abs(x - gx).max() < 2e-3

    def test_random_instances_beat_grid_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            b1, b2, qmax, demand = random_dispatch_instance(rng)
            gencos = [GencoParams(i + 1, 0.1, 0.1, 0.0, q) for i, q in enumerate(qmax)]
            out = clear_market([Bid(a, b) for a, b in zip(b1, b2)], demand, gencos)
            x = out.qg
            gx, gobj = grid_dispatch(b1, b2, qmax, demand)
            assert dispatch_objective(b1, b2, x) <= gobj + 1e-6
            assert np.abs(x - gx).max() < 2e-3

    def test_balance_tight(self):
        rng = np.random.default_rng(7)
        gencos = DEFAULT_GENCOS
        for _ in range(50):
            d = rng.uniform(0.0, 2.9)
            bids = [Bid(rng.uniform(0, 4), rng.uniform(0, 5)) for _ in gencos]
            out = clear_market(bids, d, gencos)
            x = out.qg - np.array([g.bg for g in gencos])
            assert abs(x.sum() - d) < 1e-9

    def test_zero_curvature_bids_supported(self):
        # Two flat-cost producers; the marginal one is filled partially.
        gencos = [GencoParams(1, 1.0, 1.0, 0.0, 0.5), GencoParams(2, 1.0, 1.0, 0.0, 0.5)]
        bids = [Bid(0.3, 0.0), Bid(0.5, 0.0)]
        out = clear_market(bids, 0.7, gencos)
        assert out.qg[0] == pytest.approx(0.5, abs=1e-9)
        assert out.qg[1] == pytest.approx(0.2, abs=1e-9)

    def test_tied_steps_fill_in_index_order(self):
        gencos = [GencoParams(i + 1, 1.0, 1.0, 0.0, 0.5) for i in range(4)]
        bids = [Bid(0.9, 0.5), Bid(0.4, 0.0), Bid(0.4, 0.0), Bid(0.4, 0.0)]
        out = clear_market(bids, 0.7, gencos)
        assert out.qg.tolist() == [0.0, 0.5, 0.7 - 0.5, 0.0]
        assert out.shadow_price == 0.4

    def test_interior_prices_equal_shadow_price(self):
        rng = np.random.default_rng(17)
        gencos = DEFAULT_GENCOS
        for _ in range(30):
            bids = [Bid(rng.uniform(0.1, 3), rng.uniform(0.1, 4)) for _ in gencos]
            out = clear_market(bids, rng.uniform(0.1, 2.5), gencos)
            x = out.qg - np.array([g.bg for g in gencos])
            interior = (x > 1e-7) & (x < 0.5 - 1e-7)
            if interior.any():
                assert np.abs(out.prices[interior] - out.shadow_price).max() <= 1e-9

    def test_raising_own_b1_never_increases_own_dispatch(self):
        rng = np.random.default_rng(29)
        gencos = DEFAULT_GENCOS
        for _ in range(30):
            bids = [Bid(rng.uniform(0.1, 2), rng.uniform(0.1, 3)) for _ in gencos]
            d = rng.uniform(0.2, 2.5)
            base = clear_market(bids, d, gencos).qg[0]
            raised = list(bids)
            raised[0] = Bid(bids[0].b1 + rng.uniform(0.1, 2.0), bids[0].b2)
            assert clear_market(raised, d, gencos).qg[0] <= base + 1e-9

    def test_infeasible_demand_reports_capacity(self):
        gencos = [GencoParams(1, 0.5, 0.5, 0.0, 0.5)]
        with pytest.raises(InfeasibleDemand) as err:
            clear_market([Bid(0.5, 0.5)], 0.6, gencos)
        assert err.value.max_deliverable == pytest.approx(0.5)

    @pytest.mark.parametrize("demand", [-0.1, float("nan")])
    def test_negative_or_nan_requirement_rejected(self, demand):
        gencos = [GencoParams(1, 0.5, 0.5, 0.0, 0.5)]
        with pytest.raises(ValueError, match="nonnegative"):
            clear_market([Bid(0.5, 0.5)], demand, gencos)
        with pytest.raises(ValueError, match="nonnegative"):
            clear_market_batch([[0.5]], [[0.5]], [0.5], [0.2, demand])

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_bid_coefficient_rejected(self, bad):
        for b1, b2 in ((0.6, bad), (bad, 0.4)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                Bid(b1, b2)
        good = np.full((2, 3), 0.5)
        broken = good.copy()
        broken[1, 2] = bad
        for name, b1, b2 in (("b1", broken, good), ("b2", good, broken)):
            with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
                clear_market_batch(b1, b2, [0.5] * 3, [0.3, 0.3])

    def test_batch_shape_mismatch_rejected(self):
        b1 = np.full((2, 3), 0.5)
        with pytest.raises(ValueError, match=r"b2 must be \(2, 3\).*got \(2, 4\)"):
            clear_market_batch(b1, np.full((2, 4), 0.5), [0.5] * 3, [0.3, 0.3])
        for demand in ([0.3], [0.3] * 3):
            with pytest.raises(ValueError, match=r"demand \(2,\)"):
                clear_market_batch(b1, b1, [0.5] * 3, demand)

    @pytest.mark.parametrize("qmax", [[np.nan, 0.5, 0.5], [-0.5, 0.5, 0.5], [np.inf, 0.5, 0.5],
                                      [0.5, 0.5], np.full((3, 3), 0.5)],
                             ids=["nan", "negative", "inf", "short", "too_many_rows"])
    def test_bad_batch_capacity_rejected_before_solving(self, qmax, monkeypatch):
        solved = []
        monkeypatch.setattr(market, "_solve_dispatch", lambda *args: solved.append(args))
        b = np.full((2, 3), 0.5)
        with pytest.raises(ValueError, match="qmax"):
            clear_market_batch(b, b, qmax, [0.3, 0.3])
        assert solved == []

    def test_zero_batch_capacity_allowed(self):
        b = np.full((2, 3), 0.5)
        x, _ = clear_market_batch(b, b, [0.0, 0.5, 0.5], [0.3, 0.3])
        assert np.array_equal(x[:, 0], [0.0, 0.0])
        assert np.allclose(x.sum(axis=1), 0.3, rtol=0, atol=1e-12)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(31)
        gencos = DEFAULT_GENCOS
        T = 40
        b1 = rng.uniform(0.1, 3, size=(T, 6))
        b2 = rng.uniform(0.0, 4, size=(T, 6)) * (rng.random((T, 6)) > 0.1)
        d = rng.uniform(0.0, 2.5, size=T)
        qmax = np.array([g.q_max for g in gencos])
        xb, _ = clear_market_batch(b1, b2, qmax, d)
        for t in range(T):
            out = clear_market([Bid(a, b) for a, b in zip(b1[t], b2[t])], float(d[t]), gencos)
            xs = out.qg - np.array([g.bg for g in gencos])
            assert np.abs(xb[t] - xs).max() < 1e-8

    @pytest.mark.parametrize("gencos", [DEFAULT_GENCOS, NINE_GENCOS], ids=["six", "nine"])
    def test_desk_hours_match_bisection_reference(self, gencos):
        # Hours as the env builds them: b1 rivals on a demand profile, the
        # learner at a random action, so every b2 lies in the table's range.
        qmax = [g.q_max for g in gencos]
        actions = np.random.default_rng(11).uniform(1.0, 5.0, size=(2, 168, 2))
        for seed, learner in ((0, 1), (1, 4)):
            series = demand_profile(168 + 24, seed)
            rng = np.random.default_rng([seed, 1])
            me = gencos[learner]
            for t in range(168):
                bids = [rival_bids("b1", g, float(series.normalized[24 + t]), rng)
                        for g in gencos]
                a1, a2 = actions[seed, t]
                bids[learner] = Bid(a1 * me.c1, a2 * me.c2)
                demand = float(series.values[24 + t])
                out = clear_market(bids, demand, gencos)
                x = out.qg - np.array([g.bg for g in gencos])
                xr, lam_r = bisect_dispatch([b.b1 for b in bids], [b.b2 for b in bids],
                                            qmax, demand)
                assert np.abs(x - xr).max() <= 1e-12
                if np.any((x > 0.0) & (x < qmax)):
                    assert abs(out.shadow_price - lam_r) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 6, 8, 12])
    def test_batch_equals_scalar_bit_for_bit(self, n):
        rng = np.random.default_rng(1000 + n)
        T = 120
        qmax = rng.uniform(0.05, 0.7, size=n)
        gencos = [GencoParams(i + 1, 0.1, 0.1, 0.0, float(q)) for i, q in enumerate(qmax)]
        b1 = rng.uniform(0.1, 3, size=(T, n))
        b2 = rng.uniform(0.01, 4, size=(T, n))
        b2[rng.random((T, n)) < 0.05] = 0.0
        d = rng.uniform(0.0, 1.0, size=T) * sum(qmax)
        d[:5] = 0.0
        d[5:10] = sum(qmax)  # at capacity, summed in producer order
        x, lam = clear_market_batch(b1, b2, qmax, d)
        for t in range(T):
            out = clear_market([Bid(a, b) for a, b in zip(b1[t], b2[t])], float(d[t]), gencos)
            assert np.array_equal(x[t], out.qg)  # bg = 0: qg is the allocation
            if d[t] > 0.0:
                assert lam[t] == out.shadow_price


class TestProfit:
    def test_base_generation_only(self):
        g = GencoParams(1, 0.5, 1.0, 0.1, 0.5)
        assert profit(price=2.0, qg=0.1, genco=g) == pytest.approx(0.2)

    def test_worked_example(self):
        g = GencoParams(1, 0.5, 1.0, 0.1, 0.5)
        assert profit(price=1.0, qg=0.3, genco=g) == pytest.approx(0.16)

    def test_matches_independent_evaluation_for_producer_four(self):
        g = DEFAULT_GENCOS[3]
        out_price, out_qg = 1.21, 0.18435
        expected = out_price * out_qg - g.c1 * (out_qg - g.bg) - g.c2 * (out_qg - g.bg) ** 2
        assert profit(out_price, out_qg, g) == pytest.approx(expected, abs=1e-15)


class TestEnv:
    def test_neutral_action_reward_exactly_zero(self):
        for strategy in ("b1", "b2"):
            env = ReactiveMarketEnv(rival_strategy=strategy, episode_steps=60)
            env.reset(3)
            for _ in range(60):
                step = env.step(0)  # the neutral pair (1, 1)
                assert step.reward == 0.0

    def test_episode_length_and_end_signal(self):
        env = ReactiveMarketEnv(episode_steps=30)
        env.reset(0)
        for k in range(30):
            step = env.step(10)
            assert step.done == (k == 29)
        extra = env.step(10)
        assert extra.done
        assert extra.info == {"exhausted": True}
        assert extra.reward == 0.0

    def test_reset_restores_step_counter_and_series(self):
        env = ReactiveMarketEnv(episode_steps=40)
        first = env.reset(7)
        env.step(20)
        again = env.reset(7)
        steps = [env.step(20) for _ in range(40)]
        assert [s.info["t"] for s in steps] == list(range(40))
        assert [s.done for s in steps] == [False] * 39 + [True]
        assert np.array_equal(first, again)
        assert np.array_equal(env.demand_values, env.demand_values)

    def test_demand_values_are_read_only(self):
        env = ReactiveMarketEnv(episode_steps=48)
        env.reset(3)
        expected = env.step(20)
        env.reset(3)
        with pytest.raises(ValueError, match="read-only"):
            env.demand_values[:] = 0.0
        step = env.step(20)
        assert step.info["demand"] == expected.info["demand"] > 0.0
        assert step.info["d_norm"] == expected.info["d_norm"]
        assert step.reward == expected.reward

    def test_distinct_seeds_differ_but_stay_daily_periodic(self):
        env = ReactiveMarketEnv(episode_steps=240)
        env.reset(1)
        a = env.demand_values.copy()
        env.reset(2)
        b = env.demand_values.copy()
        assert not np.array_equal(a, b)
        for series in (a, b):
            assert autocorrelation(series, 24) > autocorrelation(series, 12)

    def test_pricing_out_learner_loses_the_baseline_profit(self):
        # Two equal producers, learner with no base generation. Bidding far
        # above the rival's marginal range at tiny demand leaves the learner
        # undispatched, so its reward is exactly -p_base <= 0. Hand clearing
        # of the truthful counterfactual: both bid (0.5, 0.5), split demand
        # d evenly, shadow price 0.5 + d/2, and p_base reduces to c2 (d/2)^2.
        gencos = (GencoParams(1, 0.5, 0.5, 0.0, 0.5), GencoParams(2, 0.5, 0.5, 0.0, 0.5))
        env = ReactiveMarketEnv(gencos=gencos, learner=0, rival_strategy="b2",
                                episode_steps=30,
                                demand_config=DemandConfig(peak_units=0.05, participation=1.0))
        env.reset(0)
        step = env.step(80)  # the pair (5, 5)
        d = step.info["demand"]
        assert step.info["qg"][0] == pytest.approx(0.0, abs=1e-12)  # priced out
        p_base = 0.5 * (d / 2) ** 2
        assert step.info["baseline_profit"] == pytest.approx(p_base, abs=1e-9)
        assert step.reward == pytest.approx(-p_base, abs=1e-9)
        assert step.reward <= 0.0

    def test_action_bounds_enforced(self):
        env = ReactiveMarketEnv(episode_steps=30)
        env.reset(0)
        env.step(3)
        for bad in (-1, 81, 2.0, True, np.float64(3), (1.0, 1.0)):
            with pytest.raises(ValueError, match=re.escape(f"integer in [0, 80], got {bad!r}")):
                env.step(bad)
            assert env._t == 1  # the hour did not advance
        assert env.step(np.int64(3)).info["t"] == 1

    def test_lead_in_window_has_full_day(self):
        env = ReactiveMarketEnv(episode_steps=48)
        totals = env.reset(0)
        assert totals.shape == (WINDOW + 48,)
        assert np.all(totals[:WINDOW] > 0)

    @pytest.mark.parametrize("strategy", ["b1", "b2"])
    @pytest.mark.parametrize("gencos", [DEFAULT_GENCOS, NINE_GENCOS], ids=["six", "nine"])
    def test_reset_returns_the_total_quantity_series(self, gencos, strategy):
        env = ReactiveMarketEnv(gencos=gencos, learner=2, rival_strategy=strategy,
                                demand_config=DemandConfig(peak_units=1.3), episode_steps=50)
        for seed in (0, 1, 0):
            totals = env.reset(seed)
            expected = simulate_total_quantity(env.gencos, env.demand_config, seed,
                                               env.episode_steps + WINDOW)
            assert totals.tobytes() == expected.tobytes()
            assert not totals.flags.writeable
            # every clearing dispatches the whole requirement on top of base generation
            for t in range(env.episode_steps):
                qg = env.step(9 * (t % 9) + 8 - t % 9).info["qg"]
                assert sum(qg) == pytest.approx(totals[WINDOW + t], rel=0, abs=1e-12)


def _reference_episode(gencos, learner, strategy, seed, actions, steps, lead_in=24):
    """Rewards and outcomes of an episode cleared the direct way.

    Rival bids come from rival_bids on a fresh default_rng([seed, 1]), drawn
    hour by hour; each hour clears the submitted bid, from the grid action's
    pair, and the truthful bid with clear_market.
    """
    series = demand_profile(steps + lead_in, seed)
    rng = np.random.default_rng([seed, 1])
    me = gencos[learner]
    rows = []
    for t, action in enumerate(actions):
        a1, a2 = action_decode(action)
        d_norm = float(series.normalized[lead_in + t])
        demand = float(series.values[lead_in + t])
        rivals = {j: rival_bids(strategy, g, d_norm, rng)
                  for j, g in enumerate(gencos) if j != learner}
        bids = [rivals.get(j) for j in range(len(gencos))]
        bids[learner] = Bid(a1 * me.c1, a2 * me.c2)
        out = clear_market(bids, demand, gencos)
        bids[learner] = Bid(me.c1, me.c2)
        base = clear_market(bids, demand, gencos)
        p = profit(float(out.prices[learner]), float(out.qg[learner]), me)
        p_base = profit(float(base.prices[learner]), float(base.qg[learner]), me)
        rows.append((p - p_base, out, p_base, float(base.prices[learner] * base.qg[learner])))
    return rows


class TestEnvMatchesReference:
    @pytest.mark.parametrize("strategy", ["b1", "b2"])
    @pytest.mark.parametrize("gencos", [DEFAULT_GENCOS, NINE_GENCOS], ids=["six", "nine"])
    def test_step_equals_two_direct_clearings(self, gencos, strategy):
        steps, seed = 168, 5
        actions = np.random.default_rng(77).integers(0, N_ACTIONS, size=steps)  # numpy ints
        env = ReactiveMarketEnv(gencos=gencos, learner=1, rival_strategy=strategy,
                                episode_steps=steps)
        env.reset(seed)
        expected = _reference_episode(gencos, 1, strategy, seed, actions, steps)
        me = gencos[1]
        for action, (reward, out, p_base, payment) in zip(actions, expected):
            step = env.step(action)
            qg, prices = step.info["qg"], step.info["prices"]
            assert step.reward == reward
            assert all(type(v) is float for v in qg + prices)
            assert qg == out.qg.tolist() and prices == out.prices.tolist()
            assert step.reward == profit(prices[1], qg[1], me) - step.info["baseline_profit"]
            assert step.info["baseline_profit"] == p_base
            assert step.info["baseline_payment"] == payment

    @pytest.mark.parametrize("strategy", ["b1", "b2"])
    def test_neutral_action_exactly_zero_with_nine_producers(self, strategy):
        env = ReactiveMarketEnv(gencos=NINE_GENCOS, learner=3, rival_strategy=strategy,
                                episode_steps=168)
        for seed in (0, 1):
            env.reset(seed)
            rewards = [env.step(0).reward for _ in range(168)]
            assert rewards == [0.0] * 168

    def test_infeasible_series_raises_from_reset(self):
        short = (GencoParams(1, 0.7, 0.3, 0.0, 0.05), GencoParams(2, 0.6, 0.4, 0.0, 0.05))
        env = ReactiveMarketEnv(gencos=short, learner=0, episode_steps=48)
        with pytest.raises(InfeasibleDemand) as err:
            env.reset(0)
        assert err.value.max_deliverable == pytest.approx(0.1)
        with pytest.raises(RuntimeError):
            env.step(0)
        with pytest.raises(InfeasibleDemand):
            env.reset(0)


def _episode(env, seed, actions):
    lead = env.reset(seed)
    steps = [env.step(a) for a in actions]
    return lead, [(s.reward, s.done, s.info) for s in steps]


def _assert_same_episode(a, b):
    assert np.array_equal(a[0], b[0])
    assert len(a[1]) == len(b[1])
    for (ra, da, ia), (rb, db, ib) in zip(a[1], b[1]):
        assert ra == rb and da == db
        assert ia.keys() == ib.keys()
        for key in ia:
            assert np.array_equal(ia[key], ib[key]), key


class TestResetKeepsLastSeed:
    ACTIONS = [9 * (t % 9) + 8 - t % 5 for t in range(48)]

    @pytest.mark.parametrize("strategy", ["b1", "b2"])
    def test_returning_seed_steps_like_a_fresh_env(self, strategy):
        make = lambda: ReactiveMarketEnv(learner=2, rival_strategy=strategy, episode_steps=48)
        env = make()
        _episode(env, 4, self.ACTIONS)
        _episode(env, 9, self.ACTIONS[:10])
        _assert_same_episode(_episode(env, 4, self.ACTIONS), _episode(make(), 4, self.ACTIONS))

    def test_infeasible_seed_raises_on_every_reset_and_keeps_nothing(self):
        # Total capacity 0.628 lies between seed 1's peak (0.623) and seed 0's (0.634).
        short = (GencoParams(1, 0.7, 0.3, 0.0, 0.314), GencoParams(2, 0.6, 0.4, 0.0, 0.314))
        make = lambda: ReactiveMarketEnv(gencos=short, learner=0, episode_steps=48)
        env = make()
        _episode(env, 1, self.ACTIONS[:5])
        for _ in range(2):
            with pytest.raises(InfeasibleDemand):
                env.reset(0)
            assert env.step(0).info.get("exhausted")
        _assert_same_episode(_episode(env, 1, self.ACTIONS), _episode(make(), 1, self.ACTIONS))


class TestGencoTable:
    def test_round_trip_csv(self, tmp_path):
        path = tmp_path / "gencos.csv"
        path.write_text("id,c1,c2,bg,q_max\n1,0.73,0.30,0.075,0.5\n2,0.68,0.39,0.03,0.5\n")
        gencos = load_gencos(str(path))
        assert len(gencos) == 2
        assert gencos[0] == GencoParams(1, 0.73, 0.30, 0.075, 0.5)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "gencos.csv"
        path.write_text("id,c1,c2,bg,q_max\n")
        with pytest.raises(ValueError):
            load_gencos(str(path))

    @pytest.mark.parametrize("text, message", [
        ("id,c1,bg,q_max\n1,0.73,0.075,0.5\n", "missing columns c2"),
        ("id,c1,c2,bg,q_max\n1,0.73\n", "could not convert"),
    ])
    def test_missing_column_or_field_is_a_value_error(self, tmp_path, text, message):
        path = tmp_path / "gencos.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_gencos(str(path))

    @pytest.mark.parametrize("row, column, message", [
        ("1,0.73,abc,0.075,0.5", "c2", "could not convert string to float: 'abc'"),
        ("1.5,0.73,0.30,0.075,0.5", "id", "invalid literal for int()"),
    ], ids=["text-cost", "fractional-id"])
    def test_bad_cell_names_file_row_and_column(self, tmp_path, row, column, message):
        path = tmp_path / "gencos.csv"
        path.write_text(f"id,c1,c2,bg,q_max\n2,0.68,0.39,0.03,0.5\n{row}\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'{path}:3: column {column!r}: {message}')}"):
            load_gencos(str(path))

    def test_invalid_costs_rejected(self):
        with pytest.raises(ValueError):
            GencoParams(1, 0.0, 0.3, 0.1, 0.5)
        with pytest.raises(ValueError):
            GencoParams(1, 0.5, 0.3, 0.1, 0.0)
        with pytest.raises(ValueError, match="finite"):
            GencoParams(1, float("nan"), 0.3, 0.1, 0.5)
        with pytest.raises(ValueError, match="finite"):
            GencoParams(2, 0.5, 0.3, 0.1, float("inf"))

    def test_repeated_id_rejected_by_name(self, tmp_path):
        path = tmp_path / "gencos.csv"
        path.write_text("id,c1,c2,bg,q_max\n1,0.73,0.30,0.075,0.5\n"
                        "2,0.68,0.39,0.03,0.5\n2,0.75,0.43,0.03,0.5\n")
        with pytest.raises(ValueError, match="producer id 2 repeated"):
            load_gencos(str(path))


def _count_solves(monkeypatch) -> list:
    """Patch the env's dispatch solver to count its calls."""
    calls = []
    real = market._solve_dispatch

    def solve(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(market, "_solve_dispatch", solve)
    return calls


class TestDispatchTable:
    T = 25

    def _grid_pass(self, env, seed):
        """Every grid action at every hour: one episode per action, in index order."""
        rows = []
        for action in range(N_ACTIONS):
            env.reset(seed)
            rows.extend(repr(env.step(action)) for _ in range(self.T))
        return rows

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("strategy", ["b1", "b2"])
    @pytest.mark.parametrize("gencos", [DEFAULT_GENCOS, NINE_GENCOS], ids=["six", "nine"])
    def test_second_pass_reads_the_table_bit_for_bit(self, gencos, strategy, seed, monkeypatch):
        make = lambda: ReactiveMarketEnv(gencos=gencos, learner=2, rival_strategy=strategy,
                                         episode_steps=self.T)
        # Reference: a fresh env for every episode, so no step can read a table.
        fresh = []
        for action in range(N_ACTIONS):
            env = make()
            env.reset(seed)
            fresh.extend(repr(env.step(action)) for _ in range(self.T))
        env = make()
        env.reset(seed)
        solves = _count_solves(monkeypatch)
        first = self._grid_pass(env, seed)
        assert len(solves) == N_ACTIONS * self.T  # the first pass fills the table
        assert env._known.all()
        second = self._grid_pass(env, seed)
        assert len(solves) == N_ACTIONS * self.T  # the second pass only reads it
        # repr shows every float's exact value and type, and tells -0.0 from 0.0
        assert first == fresh and second == fresh

    def test_first_visit_never_touches_the_table(self, monkeypatch):
        env = ReactiveMarketEnv(episode_steps=self.T)
        solves = _count_solves(monkeypatch)
        env.reset(0)
        for _ in range(self.T):
            env.step(23)  # the pair (2.0, 3.5)
        assert env._known is None  # a seed's first episode keeps nothing
        # the build's truthful batch, then one clearing for every step
        assert len(solves) == 2 * self.T

    def test_rebuild_drops_the_table_and_its_shape_stays_fixed(self):
        env = ReactiveMarketEnv(gencos=NINE_GENCOS, episode_steps=self.T)
        for seed in range(10):
            env.reset(seed)
            assert env._known is None and env._dispatch is None
            env.reset(seed)
            for t in range(self.T):
                env.step((seed + t) % N_ACTIONS)
            assert env._known.shape == (self.T, 81)
            assert env._dispatch.shape == (self.T, 81, 9)
            assert env._known.sum() == self.T
