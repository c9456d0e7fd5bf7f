import csv
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from varbid import cli, harness, market
from varbid.harness import (SCHEMA, ConfigError, ExperimentConfig, _write_manifest,
                            build_config, emit_trace, parse_config_file, run_experiment,
                            run_matrix, sweep)
from varbid.agent import BiddingTask, greedy_episode
from varbid.forecast import load_forecaster
from varbid.market import DEFAULT_GENCOS, GencoParams, InfeasibleDemand, ReactiveMarketEnv
from varbid.nn import NumericError, load_network


def tiny_kwargs(out_dir, **overrides):
    base = dict(
        learner_id=2, strategy="b1", variant="nfq2", seeds=(0, 1), episodes=4,
        episode_steps=36, out_dir=str(out_dir), trace=True, convergence_window=0.5,
        forecaster_units=4, forecaster_epochs=2, forecaster_series_steps=120,
        batch_size=16, steps_per_iteration=6, buffer_capacity=400, warmup_size=40,
        hidden_sizes=(16,), epsilon_decay=0.3,
    )
    base.update(overrides)
    return base


def tiny_config(out_dir, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(**tiny_kwargs(out_dir, **overrides))
    cfg.validate()
    return cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, **kwargs) -> str:
    path.write_text("".join(
        f"{k} = {','.join(str(s) for s in v) if isinstance(v, tuple) else v}\n"
        for k, v in kwargs.items()))
    return str(path)


def count_fits(monkeypatch) -> list:
    """Patch the harness's forecaster fit to record each call's seed."""
    calls = []
    real = harness.train_forecaster

    def fit(*args, **kwargs):
        calls.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "train_forecaster", fit)
    return calls


def fail_train(monkeypatch, failure):
    """Patch the harness's training call to raise ``failure(config)`` where it is not None."""
    real = harness.train

    def train(task, config, seed):
        exc = failure(config)
        if exc is not None:
            raise exc
        return real(task, config, seed)

    monkeypatch.setattr(harness, "train", train)


def write_gencos(path, gencos) -> str:
    path.write_text("id,c1,c2,bg,q_max\n" + "".join(
        f"{g.id},{g.c1},{g.c2},{g.bg},{g.q_max}\n" for g in gencos))
    return str(path)


class TestConfigParsing:
    def test_file_flag_default_precedence(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("learner_id = 3\ngamma = 0.25   # comment\nseeds = 5,6\n")
        file_values = parse_config_file(str(cfg_file))
        config = build_config(file_values, {"gamma": 0.4})
        assert config.learner_id == 3      # from file
        assert config.gamma == 0.4         # flag beats file
        assert config.tau == 1e-3          # default
        assert config.seeds == (5, 6)

    def test_unknown_key_named_in_error(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("not_a_field = 3\n")
        with pytest.raises(ConfigError, match="not_a_field"):
            parse_config_file(str(cfg_file))

    def test_bad_value_reports_line(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("gamma = fast\n")
        with pytest.raises(ConfigError, match="gamma"):
            parse_config_file(str(cfg_file))

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seeds"):
            tiny_config(tmp_path, seeds=(1, 1))

    def test_unknown_learner_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="learner_id"):
            tiny_config(tmp_path, learner_id=9)

    @pytest.mark.parametrize("key, value", [
        ("gamma", 1.5), ("per_beta", 2.0), ("per_eps", 0.0),
        ("buffer_capacity", 0), ("forced_action_index", 81), ("hidden_sizes", (0,)),
        ("hidden_sizes", (16, -4)), ("warmup_size", -3), ("episode_steps", 10),
        ("forecaster_units", 0), ("forecaster_epochs", -1), ("forecaster_batch_size", 0),
        ("forecaster_series_steps", 10), ("forecaster_learning_rate", -1.0),
        ("peak_units", float("nan")), ("participation", -0.5), ("participation", 1.5),
        ("daily_amplitude", float("inf")), ("noise_amplitude", -0.3),
        ("max_iterations", 0), ("max_iterations", -3)])
    def test_train_field_validation_surfaces(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=rf"^{key}\b"):
            tiny_config(tmp_path, **{key: value})

    def test_optional_fields_parse_none(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("hidden_sizes = none\nforced_action_index = 2\nmax_iterations = 50\n")
        values = parse_config_file(str(cfg_file))
        assert values["hidden_sizes"] is None
        assert values["forced_action_index"] == 2
        assert values["max_iterations"] == 50

    def test_manifest_round_trips_every_field(self, tmp_path):
        table = write_gencos(tmp_path / "gencos.csv", DEFAULT_GENCOS)
        config = ExperimentConfig(
            learner_id=3, strategy="b2", variant="nfq1", seeds=(4, 7), episodes=5,
            episode_steps=48, out_dir=str(tmp_path / "out"), genco_table=table,
            trace=False, convergence_window=0.25, forecaster_units=8, forecaster_epochs=3,
            forecaster_batch_size=16, forecaster_learning_rate=0.002,
            forecaster_series_steps=240, gamma=0.45, epsilon0=0.9, epsilon_decay=0.2,
            epsilon_min=0.05, tau=0.01, batch_size=8, steps_per_iteration=3,
            buffer_capacity=500, warmup_size=50, hidden_sizes=(8, 4), learning_rate=0.002,
            per_beta=0.6, per_eps=0.02,
            forced_action_index=7, resample_demand=True, max_iterations=9, peak_units=1.1,
            participation=0.5, daily_amplitude=0.4, weekly_amplitude=0.1,
            noise_amplitude=0.02)
        default = ExperimentConfig()
        assert [k for k in SCHEMA if getattr(config, k) == getattr(default, k)] == []
        for original in (config, default):
            _write_manifest(original, tmp_path / "manifest.txt")
            assert build_config(parse_config_file(str(tmp_path / "manifest.txt"))) == original

    def test_genco_table_read_once_when_built(self, tmp_path):
        path = tmp_path / "gencos.csv"
        table = write_gencos(path, DEFAULT_GENCOS)
        config = ExperimentConfig(genco_table=table)
        cheaper = [dataclasses.replace(g, c1=0.5 * g.c1) for g in DEFAULT_GENCOS]
        write_gencos(path, cheaper)  # edited after the config was built
        assert config.gencos() == list(DEFAULT_GENCOS)
        config.validate()
        assert config.gencos() == list(DEFAULT_GENCOS)
        assert dataclasses.replace(config, seeds=(1,)).gencos() == cheaper
        config.gencos().pop()  # callers get a copy
        assert len(config.gencos()) == len(DEFAULT_GENCOS)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return run_experiment(tiny_config(out)), out


class TestRunExperiment:
    def test_outputs_exist(self, run):
        summary, out = run
        for seed in (0, 1):
            assert (out / f"curve_seed{seed}.csv").exists()
            assert (out / f"trace_seed{seed}.csv").exists()
            assert (out / f"qnet_local_seed{seed}.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "manifest.txt").exists()

    def test_curve_rows_match_episode_count(self, run):
        _, out = run
        rows = read_rows(out / "curve_seed0.csv")
        assert len(rows) == 4
        assert list(rows[0]) == ["episode", "reward", "epsilon", "mean_abs_td",
                                 "baseline_payment"]

    def test_summary_recomputable_from_curves(self, run):
        summary, out = run
        per_seed = []
        window = 2  # convergence_window 0.5 of 4 episodes
        for seed in (0, 1):
            rewards = [float(r["reward"]) for r in read_rows(out / f"curve_seed{seed}.csv")]
            per_seed.append(np.mean(rewards[-window:]))
        assert summary.mu == pytest.approx(np.mean(per_seed), abs=1e-9)
        assert summary.sigma == pytest.approx(np.std(per_seed), abs=1e-9)
        stored = {r["seed"]: r for r in read_rows(out / "summary.csv")}
        assert float(stored["mu"]["converged_reward"]) == pytest.approx(summary.mu, abs=1e-12)
        assert float(stored["sigma"]["converged_reward"]) == pytest.approx(summary.sigma, abs=1e-12)

    def test_trace_has_episode_rows_and_market_columns(self, run):
        _, out = run
        rows = read_rows(out / "trace_seed0.csv")
        assert len(rows) == 36
        for column in ("t", "d_norm", "b1_2", "b2_6", "qg_1", "qg_6", "price_3", "reward"):
            assert column in rows[0]

    def test_trace_replays_the_acting_network(self, run):
        _, out = run
        config = tiny_config(out)
        for seed in config.seeds:
            env = ReactiveMarketEnv(gencos=tuple(config.gencos()),
                                    learner=config.learner_index(),
                                    rival_strategy=config.strategy,
                                    demand_config=config.demand_config(),
                                    episode_steps=config.episode_steps)
            task = BiddingTask(env, load_forecaster(str(out / f"forecaster_seed{seed}.json")))
            net = load_network(str(out / f"qnet_target_seed{seed}.json"))
            _, infos = greedy_episode(task, net, harness.derive_env_seed(seed))
            rows = read_rows(out / f"trace_seed{seed}.csv")
            assert [int(r["action"]) for r in rows] == [info["action"] for info in infos]
            assert [float(r["reward"]) for r in rows] == [info["reward"] for info in infos]

    def test_single_seed_sigma_zero(self, tmp_path):
        summary = run_experiment(tiny_config(tmp_path / "one", seeds=(3,), trace=False))
        assert summary.sigma == 0.0

    def test_run_that_finishes_no_episode_fails_naming_the_seed(self, tmp_path):
        # One pass of 6 steps never reaches the end of a 36-hour episode.
        config = tiny_config(tmp_path / "short", seeds=(3,), max_iterations=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no mean of an empty array either
            with pytest.raises(ConfigError, match="^seed 3: training finished no episode"):
                run_experiment(config)
        assert not (tmp_path / "short" / "summary.csv").exists()

    def test_forced_neutral_bid_zero_summary(self, tmp_path):
        summary = run_experiment(tiny_config(tmp_path / "forced", seeds=(0,),
                                             forced_action_index=0, trace=False))
        assert summary.mu == 0.0
        assert summary.sigma == 0.0


class TestDeterminism:
    def test_rerun_byte_identical_csvs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(tiny_config(a, seeds=(0,)))
        run_experiment(tiny_config(b, seeds=(0,)))
        for name in ("curve_seed0.csv", "trace_seed0.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dispatch_table_leaves_every_output_unchanged(self, tmp_path, monkeypatch):
        solves = []
        real = market._solve_dispatch
        monkeypatch.setattr(market, "_solve_dispatch", lambda *a: solves.append(1) or real(*a))
        run_experiment(tiny_config(tmp_path / "table"))
        with_table = len(solves)
        real_reset = ReactiveMarketEnv.reset

        def reset_without_table(self, seed):
            totals = real_reset(self, seed)
            self._known = None  # so every step misses the dispatch table
            return totals

        monkeypatch.setattr(ReactiveMarketEnv, "reset", reset_without_table)
        run_experiment(tiny_config(tmp_path / "miss"))
        assert with_table < len(solves) - with_table  # the table served repeats
        names = sorted(p.name for p in (tmp_path / "table").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "miss").iterdir())
        assert "qnet_target_seed1.json" in names and "trace_seed1.csv" in names
        for name in names:
            a, b = (tmp_path / "table" / name).read_bytes(), (tmp_path / "miss" / name).read_bytes()
            if name == "manifest.txt":  # records its own out_dir
                a, b = a.replace(b"table", b"miss"), b.replace(b"table", b"miss")
            assert a == b, name


class TestMatrix:
    def test_cross_product_tables(self, tmp_path):
        config = tiny_config(tmp_path / "m", seeds=(0,), trace=False, episodes=2)
        result = run_matrix(config, learners=[1, 2], strategies=["b2"], variants=["nfq2"])
        assert len(result["summaries"]) == 2
        assert not result["errors"]
        table = read_rows(tmp_path / "m" / "table_b2_nfq2.csv")
        assert list(table[0]) == ["metric", "1", "2"]
        assert [r["metric"] for r in table] == ["mu", "sigma"]

    def test_empty_variant_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_matrix(tiny_config(tmp_path / "m2"), [1], ["b1"], [])

    def test_cell_failure_recorded_and_others_continue(self, tmp_path, monkeypatch):
        fail_train(monkeypatch, lambda c: RuntimeError("injected") if c.learner_id == 1 else None)
        config = tiny_config(tmp_path / "m3", seeds=(0,), trace=False, episodes=2)
        result = run_matrix(config, learners=[1, 2], strategies=["b2"], variants=["nfq2"])
        assert result["errors"] == {(1, "b2", "nfq2"): "RuntimeError: injected"}
        assert list(result["summaries"]) == [(2, "b2", "nfq2")]
        assert ((tmp_path / "m3" / "errors.txt").read_text()
                == "(1, 'b2', 'nfq2'): RuntimeError: injected\n")
        error = (tmp_path / "m3" / "L1_b2_nfq2" / "error.txt").read_text()
        assert error.startswith("Traceback (most recent call last):\n")
        assert "in train\n" in error  # the frame that raised
        assert error.endswith("RuntimeError: injected\nwhile running seed 0\n")
        assert not (tmp_path / "m3" / "L2_b2_nfq2" / "error.txt").exists()
        table = read_rows(tmp_path / "m3" / "table_b2_nfq2.csv")
        assert table[0]["1"] == "nan"
        assert float(table[0]["2"]) == result["summaries"][(2, "b2", "nfq2")].mu
        assert (tmp_path / "m3" / "L2_b2_nfq2" / "summary.csv").exists()

    @pytest.mark.parametrize("learners, strategies, cell", [
        ([2, 9], ["b2"], r"\(9, 'b2', 'nfq2'\): learner_id: 9 not in producer table"),
        ([2], ["b2", "b3"], r"\(2, 'b3', 'nfq2'\): strategy: must be one of"),
    ], ids=["unknown-learner", "unknown-strategy"])
    def test_bad_cell_rejected_before_any_directory_is_written(self, tmp_path, learners,
                                                               strategies, cell):
        config = tiny_config(tmp_path / "m5", seeds=(0,), trace=False, episodes=2)
        with pytest.raises(ConfigError, match=rf"^matrix cell {cell}"):
            run_matrix(config, learners, strategies, ["nfq2"])
        assert not (tmp_path / "m5").exists()

    def test_repeated_cell_rejected_before_any_directory_is_written(self, tmp_path):
        config = tiny_config(tmp_path / "m6", seeds=(0,), trace=False, episodes=2)
        with pytest.raises(ConfigError, match=r"^matrix cell \(2, 'b2', 'nfq2'\): repeated"):
            run_matrix(config, [2, 1, 2], ["b2"], ["nfq2"])
        with pytest.raises(ConfigError, match=r"^sweep gamma value 0.3: repeated"):
            sweep(config, "gamma", [0.3, 0.05, 0.3])
        assert not (tmp_path / "m6").exists()

    def test_matrix_cell_count(self, tmp_path):
        config = tiny_config(tmp_path / "m4", seeds=(0,), trace=False, episodes=2)
        result = run_matrix(config, learners=[1, 2], strategies=["b1", "b2"],
                            variants=["nfq1", "nfq2"])
        assert len(result["summaries"]) + len(result["errors"]) == 8


class TestSweep:
    def test_unknown_parameter_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="parameter"):
            sweep(tiny_config(tmp_path / "s"), "learning_speed", [0.1])

    def test_invalid_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma value 1.5"):
            sweep(tiny_config(tmp_path / "s2"), "gamma", [0.3, 1.5])
        with pytest.raises(ConfigError, match="integer"):
            sweep(tiny_config(tmp_path / "s2"), "batch_size", [8.5])
        assert not (tmp_path / "s2").exists()  # rejected before the first run

    def test_gamma_sweep_emits_comparison(self, tmp_path):
        config = tiny_config(tmp_path / "s3", seeds=(0,), trace=False, episodes=2)
        records = sweep(config, "gamma", [0.05, 0.3])
        assert len(records) == 2
        rows = read_rows(tmp_path / "s3" / "sweep_gamma.csv")
        assert [r["value"] for r in rows] == ["0.05", "0.3"]
        assert all(r["diverged"] == "False" for r in rows)

    def test_batch_size_sweep_coerces_integers(self, tmp_path):
        config = tiny_config(tmp_path / "s4", seeds=(0,), trace=False, episodes=2)
        records = sweep(config, "batch_size", [8, 16])
        assert all(not r["diverged"] for r in records)

    def test_any_failure_recorded_only_divergence_flagged(self, tmp_path, monkeypatch):
        failures = {0.1: NumericError("loss went non-finite"), 0.2: KeyError("lost")}
        fail_train(monkeypatch, lambda c: failures.get(c.gamma))
        config = tiny_config(tmp_path / "s5", seeds=(0,), trace=False, episodes=2)
        records = sweep(config, "gamma", [0.1, 0.2, 0.3])
        assert [(r["diverged"], r.get("error")) for r in records] == [
            (True, "NumericError: loss went non-finite"), (False, "KeyError: 'lost'"),
            (False, None)]
        assert np.isnan(records[1]["mu"]) and np.isfinite(records[2]["mu"])
        rows = read_rows(tmp_path / "s5" / "sweep_gamma.csv")
        assert [(r["mu"], r["diverged"]) for r in rows[:2]] == [("nan", "True"), ("nan", "False")]


class TestSharedForecasterFits:
    def test_matrix_fits_once_per_seed_and_matches_a_separate_run(self, tmp_path, monkeypatch):
        calls = count_fits(monkeypatch)
        config = tiny_config(tmp_path / "m", trace=False, episodes=2)  # seeds 0 and 1
        result = run_matrix(config, learners=[1, 2], strategies=["b2"], variants=["nfq2"])
        assert not result["errors"]
        assert len(calls) == 2
        alone = tmp_path / "alone"
        run_experiment(dataclasses.replace(config, learner_id=2, strategy="b2",
                                           out_dir=str(alone)))
        assert len(calls) == 4
        for seed in (0, 1):
            name = f"forecaster_seed{seed}.json"
            for cell in ("L1_b2_nfq2", "L2_b2_nfq2"):
                assert (tmp_path / "m" / cell / name).read_bytes() == (alone / name).read_bytes()
            for name in (f"curve_seed{seed}.csv", "summary.csv"):
                assert ((tmp_path / "m" / "L2_b2_nfq2" / name).read_bytes()
                        == (alone / name).read_bytes())

    def test_cell_with_other_forecaster_inputs_gets_its_own_fit(self, tmp_path, monkeypatch):
        calls = count_fits(monkeypatch)
        config = tiny_config(tmp_path / "g", seeds=(0,), trace=False, episodes=2)
        cheaper = [dataclasses.replace(g, c1=0.5 * g.c1, c2=0.5 * g.c2) for g in DEFAULT_GENCOS]
        more_bg = [dataclasses.replace(g, bg=2.0 * g.bg) for g in DEFAULT_GENCOS]
        changes = {
            "base": {},
            "learner": {"learner_id": 3, "gamma": 0.5},  # not read by the fit: shared
            "same_table": {"genco_table": write_gencos(tmp_path / "same.csv", DEFAULT_GENCOS)},
            # the series reads only the total base generation: costs share the fit
            "costs": {"genco_table": write_gencos(tmp_path / "cheap.csv", cheaper)},
            "table": {"genco_table": write_gencos(tmp_path / "bg.csv", more_bg)},
            "demand": {"peak_units": 1.0},
            "series": {"forecaster_series_steps": 144},
            "epochs": {"forecaster_epochs": 3},
            "seed": {"seeds": (1,)},
        }
        summaries, errors = harness._run_grid(config, "cell", [
            (name, dict(fields, out_dir=str(tmp_path / "g" / name)))
            for name, fields in changes.items()])
        assert not errors and list(summaries) == list(changes)
        assert len(calls) == 6

        def saved(name):
            seed = changes[name].get("seeds", (0,))[0]
            return (tmp_path / "g" / name / f"forecaster_seed{seed}.json").read_bytes()

        assert saved("learner") == saved("same_table") == saved("costs") == saved("base")
        assert len({saved(name) for name in changes}) == 6

    def test_fit_clears_no_market(self, tmp_path, monkeypatch):
        def clearing(*args, **kwargs):
            raise AssertionError("the forecaster's series cleared a market")

        monkeypatch.setattr(market, "clear_market_batch", clearing)
        monkeypatch.setattr(market, "_solve_dispatch", clearing)
        config = tiny_config(tmp_path, seeds=(0,))
        series, forecaster, _ = harness.prepare_forecaster(config, 0)
        assert series.tobytes() == market.simulate_total_quantity(
            config.gencos(), config.demand_config(), harness.derive_env_seed(0),
            config.forecaster_series_steps).tobytes()
        assert np.all(np.isfinite(forecaster.lstm.theta))

    def test_infeasible_table_fails_before_the_fit(self, tmp_path, monkeypatch):
        def fit(*args, **kwargs):
            raise AssertionError("fitted a forecaster for an infeasible table")

        monkeypatch.setattr(harness, "train_forecaster", fit)
        short = (GencoParams(1, 0.7, 0.3, 0.0, 0.05), GencoParams(2, 0.6, 0.4, 0.0, 0.05))
        config = tiny_config(tmp_path / "run", learner_id=1, seeds=(0,),
                             genco_table=write_gencos(tmp_path / "short.csv", short))
        with pytest.raises(InfeasibleDemand) as err:
            run_experiment(config)
        assert err.value.max_deliverable == pytest.approx(0.1)
        assert not list((tmp_path / "run").glob("forecaster_seed*.json"))

    def test_consecutive_runs_fit_again(self, tmp_path, monkeypatch):
        calls = count_fits(monkeypatch)
        config = tiny_config(tmp_path / "a", seeds=(0,), trace=False, episodes=2)
        run_experiment(config)
        run_experiment(dataclasses.replace(config, out_dir=str(tmp_path / "b")))
        assert len(calls) == 2


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    run_experiment(tiny_config(out, seeds=(0,)))
    return out / "trace_seed0.csv"


class TestEmitTrace:
    def test_window_slice(self, trace_path, tmp_path):
        out_csv = tmp_path / "window.csv"
        rows = emit_trace(str(trace_path), (6, 12), str(out_csv))
        assert rows == 12
        data = read_rows(out_csv)
        assert len(data) == 12
        assert list(data[0]) == ["t"] + [f"qg_{k}" for k in range(1, 7)]
        assert data[0]["t"] == "6"

    def test_full_episode_window(self, trace_path, tmp_path):
        out_csv = tmp_path / "full.csv"
        assert emit_trace(str(trace_path), (0, 36), str(out_csv)) == 36

    def test_zero_length_header_only(self, trace_path, tmp_path):
        out_csv = tmp_path / "empty.csv"
        assert emit_trace(str(trace_path), (0, 0), str(out_csv)) == 0
        text = out_csv.read_text().strip().splitlines()
        assert len(text) == 1

    def test_out_of_range_window_rejected(self, trace_path, tmp_path):
        with pytest.raises(ValueError):
            emit_trace(str(trace_path), (30, 12), str(tmp_path / "x.csv"))


class TestCli:
    def test_run_and_trace_commands(self, tmp_path, capsys):
        cfg_file = write_config(tmp_path / "exp.cfg", **tiny_kwargs(tmp_path / "cli", seeds=(0,)))
        assert cli.main(["run", "--config", cfg_file]) == 0
        out = capsys.readouterr().out
        assert "converged episodic reward" in out
        assert cli.main(["trace", "--trace-file", str(tmp_path / "cli" / "trace_seed0.csv"),
                         "--start", "0", "--length", "10",
                         "--out", str(tmp_path / "win.csv")]) == 0
        assert (tmp_path / "win.csv").exists()

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = write_config(tmp_path / "exp.cfg",
                                **tiny_kwargs(tmp_path / "cli2", seeds=(0,), trace=False))
        assert cli.main(["run", "--config", cfg_file, "--learner-id", "4",
                         "--out-dir", str(tmp_path / "cli3")]) == 0
        manifest = (tmp_path / "cli3" / "manifest.txt").read_text()
        assert "learner_id = 4" in manifest

    def test_forecast_train_command(self, tmp_path, capsys):
        assert cli.main(["forecast-train", "--out-dir", str(tmp_path / "fc"),
                         "--set", "forecaster_units=4", "--set", "forecaster_epochs=2",
                         "--set", "forecaster_series_steps=120", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "held-out MSE" in out
        assert (tmp_path / "fc" / "forecaster.json").exists()
        assert (tmp_path / "fc" / "training_series.csv").exists()

    def test_forecast_train_writes_the_run_forecaster(self, tmp_path):
        cfg_file = write_config(tmp_path / "exp.cfg",
                                **tiny_kwargs(tmp_path / "run", seeds=(3,), trace=False))
        assert cli.main(["run", "--config", cfg_file]) == 0
        assert cli.main(["forecast-train", "--config", cfg_file,
                         "--out-dir", str(tmp_path / "fc")]) == 0
        assert ((tmp_path / "fc" / "forecaster.json").read_bytes()
                == (tmp_path / "run" / "forecaster_seed3.json").read_bytes())

    @pytest.mark.parametrize("setting", ["gamma=2.0", "gamma=fast"])
    def test_bad_config_reports_error(self, tmp_path, capsys, setting):
        assert cli.main(["run", "--set", setting,
                         "--out-dir", str(tmp_path / "bad")]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("table", [
        "id,c1,bg,q_max\n1,0.73,0.075,0.5\n",
        "id,c1,c2,bg,q_max\n1,0.73,x,0.075,0.5\n",
        "id,c1,c2,bg,q_max\n1,0.73,0.0,0.075,0.5\n",
        "id,c1,c2,bg,q_max\n",
        "id,c1,c2,bg,q_max\n1,nan,0.30,0.075,0.5\n",
        "id,c1,c2,bg,q_max\n1,0.73,0.30,0.075,0.5\n2,0.68,0.39,0.03,inf\n",
        "id,c1,c2,bg,q_max\n1,0.73,0.30,0.075,0.5\n2,0.68,0.39,0.03,0.5\n2,0.75,0.43,0.03,0.5\n",
    ], ids=["no-c2-column", "malformed-number", "zero-cost", "no-rows", "nan-cost",
            "inf-capacity", "repeated-id"])
    def test_bad_genco_table_reports_error(self, tmp_path, capsys, table):
        path = tmp_path / "gencos.csv"
        path.write_text(table)
        assert cli.main(["run", "--set", f"genco_table={path}",
                         "--out-dir", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: genco_table:")
        assert str(path) in err
        assert "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_sweep_failure_exits_1_with_failed_line(self, tmp_path, capsys, monkeypatch):
        fail_train(monkeypatch, lambda c: RuntimeError("injected") if c.gamma == 0.3 else None)
        cfg = write_config(tmp_path / "exp.cfg", **tiny_kwargs(tmp_path / "sw", seeds=(0,),
                                                               trace=False, episodes=2))
        assert cli.main(["sweep", "--config", cfg, "--parameter", "gamma",
                         "--values", "0.3,0.05"]) == 1
        out = capsys.readouterr().out
        assert "  FAILED gamma=0.3: RuntimeError: injected\n" in out
        assert "gamma=0.05: mu=" in out and "FAILED gamma=0.05" not in out
        rows = read_rows(tmp_path / "sw" / "sweep_gamma.csv")
        assert [(r["value"], r["mu"], r["diverged"]) for r in rows][0] == ("0.3", "nan", "False")

    def test_matrix_bad_cell_exits_2_before_any_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.cfg", **tiny_kwargs(tmp_path / "mx", seeds=(0,)))
        assert cli.main(["matrix", "--config", cfg, "--learners", "2,9",
                         "--strategies", "b2", "--variants", "nfq2"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: matrix cell (9, 'b2', 'nfq2'): learner_id: 9 not in producer table")
        assert not (tmp_path / "mx").exists()

    @pytest.mark.parametrize("argv, option", [
        (["sweep", "--parameter", "gamma", "--values", "0.3,x"], "--values"),
        (["matrix", "--learners", "1,y"], "--learners"),
    ])
    def test_bad_list_option_names_it(self, tmp_path, capsys, argv, option):
        assert cli.main(argv + ["--out-dir", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {option}:")
        assert not (tmp_path / "bad").exists()
