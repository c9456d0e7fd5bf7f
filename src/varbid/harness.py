"""Experiment runner: seeded market training runs with CSV outputs.

A run trains the forecaster, warms up the replay buffer, trains the
bidding agent for each seed, and writes per-seed learning curves, network
checkpoints, an optional greedy trace of the acting (target) network, and
a summary with the mean and standard deviation of converged episodic
rewards (the final fraction of episodes given by ``convergence_window``).

Configuration lives in a flat ``key = value`` text file (see SCHEMA for
the accepted keys); command-line flags override file values, which
override defaults. All randomness derives from one root seed per run
through fixed sub-streams, so re-running a configuration reproduces every
output CSV byte for byte.

``run_matrix`` and ``sweep`` share one cell runner: it validates every
cell before the first run, records a failing run while the others go on
(its traceback goes to error.txt in the cell's directory), and fits each
distinct forecaster once per call.
"""

from __future__ import annotations

import csv
import dataclasses
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agent import (N_ACTIONS, STREAM_ENV, STREAM_FORECASTER, BiddingTask, ConfigError,
                    TrainConfig, greedy_episode, train)
from .forecast import Forecaster, save_forecaster, train_forecaster
from .market import (DEFAULT_GENCOS, MIN_EPISODE_STEPS, MIN_PROFILE_STEPS, DemandConfig,
                     ReactiveMarketEnv, RIVAL_STRATEGIES, load_gencos,
                     simulate_total_quantity)
from .nn import NumericError, save_network


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


@dataclass
class ExperimentConfig(TrainConfig):
    """One experiment: a (learner, rival strategy, network variant) cell.

    The learner settings, their defaults and their checks come from
    TrainConfig; construction validates, and a bad field raises ConfigError.
    """

    episodes: int = 300
    learner_id: int = 2
    strategy: str = "b1"
    seeds: tuple[int, ...] = (0,)
    episode_steps: int = 720
    out_dir: str = "runs/experiment"
    genco_table: str | None = None
    trace: bool = True
    convergence_window: float = 0.1

    forecaster_units: int = 32
    forecaster_epochs: int = 50
    forecaster_batch_size: int = 32
    forecaster_learning_rate: float = 5e-3
    forecaster_series_steps: int = 720

    peak_units: float = DemandConfig.peak_units
    participation: float = DemandConfig.participation
    daily_amplitude: float = DemandConfig.daily_amplitude
    weekly_amplitude: float = DemandConfig.weekly_amplitude
    noise_amplitude: float = DemandConfig.noise_amplitude

    def validate(self) -> None:
        checks = [
            (bool(self.seeds), "seeds: need at least one seed"),
            (len(set(self.seeds)) == len(self.seeds), f"seeds: must be distinct, got {self.seeds}"),
            (self.strategy in RIVAL_STRATEGIES,
             f"strategy: must be one of {RIVAL_STRATEGIES}, got {self.strategy!r}"),
            (0.0 < self.convergence_window <= 1.0, "convergence_window: must be in (0, 1]"),
            (self.forced_action_index is None or 0 <= self.forced_action_index < N_ACTIONS,
             f"forced_action_index: must be in [0, {N_ACTIONS}), got {self.forced_action_index}"),
            (self.episode_steps >= MIN_EPISODE_STEPS,
             f"episode_steps: must be >= {MIN_EPISODE_STEPS}"),
            (self.forecaster_series_steps >= MIN_PROFILE_STEPS,
             f"forecaster_series_steps: must be >= {MIN_PROFILE_STEPS}"),
            (self.forecaster_units >= 1, "forecaster_units: must be >= 1"),
            (self.forecaster_epochs >= 0, "forecaster_epochs: must be >= 0"),
            (self.forecaster_batch_size >= 1, "forecaster_batch_size: must be >= 1"),
            (self.forecaster_learning_rate > 0, "forecaster_learning_rate: must be positive"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            self.demand_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.learner_index()  # raises unless learner_id is in the producer table
        super().validate()

    def __post_init__(self):
        self._table = None  # (genco_table, its producers), filled by gencos()
        super().__post_init__()

    def gencos(self):
        """The producer table. Validation reads ``genco_table`` when the config is built,
        and every later call returns that table, unless ``genco_table`` itself changes."""
        if self._table is None or self._table[0] != self.genco_table:
            try:
                table = load_gencos(self.genco_table) if self.genco_table else DEFAULT_GENCOS
            except (OSError, ValueError) as exc:
                raise ConfigError(f"genco_table: cannot load {self.genco_table!r}: {exc}") from exc
            self._table = (self.genco_table, tuple(table))
        return list(self._table[1])

    def learner_index(self) -> int:
        for k, g in enumerate(self.gencos()):
            if g.id == self.learner_id:
                return k
        raise ConfigError(f"learner_id: {self.learner_id} not in producer table")

    def demand_config(self) -> DemandConfig:
        return DemandConfig(**{f.name: getattr(self, f.name)
                               for f in dataclasses.fields(DemandConfig)})


# Each field's text parser follows from its annotation: "X" or "X | None".
_PARSERS = {"int": int, "float": float, "str": str, "bool": _bool,
            "tuple[int, ...]": _int_tuple}
_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_NULLABLE = {key for key, t in _TYPES.items() if t.endswith(" | None")}
SCHEMA = tuple(sorted(_TYPES))


def parse_field(key: str, text: str):
    """Parse one field's text value ('none' or '' gives None where allowed)."""
    if key not in _TYPES:
        raise ConfigError(f"unknown config field {key!r}")
    if key in _NULLABLE and text.strip().lower() in ("none", ""):
        return None
    try:
        return _PARSERS[_TYPES[key].removesuffix(" | None")](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment. Unknown or repeated keys fail."""
    values, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {lines[key]}")
            lines[key] = lineno
            try:
                values[key] = parse_field(key, text)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults < file values < overrides into a validated config."""
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in _TYPES:
                raise ConfigError(f"unknown config field {key!r}")
            if value is not None or key in _NULLABLE:
                merged[key] = value
    return ExperimentConfig(**merged)


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

CURVE_FIELDS = ("episode", "reward", "epsilon", "mean_abs_td", "baseline_payment")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(config: ExperimentConfig, path: Path) -> None:
    lines = []
    for f in sorted(dataclasses.fields(config), key=lambda f: f.name):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    path.write_text("\n".join(lines) + "\n")


@dataclass
class ExperimentSummary:
    mu: float
    sigma: float
    mean_payment: float


def derive_env_seed(seed: int) -> int:
    """First draw of the run's environment stream; fixes the demand series."""
    return int(np.random.default_rng([seed, STREAM_ENV]).integers(2**63))


def prepare_forecaster(config: ExperimentConfig,
                       seed: int) -> tuple[np.ndarray, Forecaster, float]:
    """(series, forecaster, training MSE) fitted on the seed's total-quantity series."""
    series = simulate_total_quantity(config.gencos(), config.demand_config(),
                                     seed=derive_env_seed(seed),
                                     steps=config.forecaster_series_steps)
    fc_seed = int(np.random.default_rng([seed, STREAM_FORECASTER]).integers(2**31))
    forecaster, train_mse = train_forecaster(series, units=config.forecaster_units,
                                             epochs=config.forecaster_epochs, seed=fc_seed,
                                             batch_size=config.forecaster_batch_size,
                                             learning_rate=config.forecaster_learning_rate)
    return series, forecaster, train_mse


def _forecaster_inputs(config: ExperimentConfig, seed: int) -> tuple:
    """Everything prepare_forecaster reads (of the producers, only their total bg)."""
    return (seed, sum(g.bg for g in config.gencos()), config.demand_config(),
            config.forecaster_series_steps, config.forecaster_units, config.forecaster_epochs,
            config.forecaster_batch_size, config.forecaster_learning_rate)


def _trace_rows(infos: list[dict], n_gencos: int) -> tuple[list[str], list[list]]:
    header = ["t", "demand", "d_norm", "action", *(f"{tag}_{k + 1}" for tag in (
        "b1", "b2", "qg", "price") for k in range(n_gencos)), "reward"]
    rows = [[info["t"], info["demand"], info["d_norm"], info["action"], *info["bids_b1"],
             *info["bids_b2"], *info["qg"], *info["prices"], info["reward"]] for info in infos]
    return header, rows


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Train per seed and write curves, checkpoints, traces, and the summary."""
    return _run_cell(config, {})


def _run_cell(config: ExperimentConfig, fits: dict) -> ExperimentSummary:
    """run_experiment, reusing and adding to ``fits``, keyed by _forecaster_inputs."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(config, out / "manifest.txt")

    gencos = config.gencos()
    learner = config.learner_index()
    window = max(1, int(round(config.convergence_window * config.episodes)))
    summary_rows = []  # seed, converged reward, converged truthful payment
    try:
        for seed in config.seeds:
            env = ReactiveMarketEnv(gencos=tuple(gencos), learner=learner,
                                    rival_strategy=config.strategy,
                                    demand_config=config.demand_config(),
                                    episode_steps=config.episode_steps)
            # train resets to this seed first, so the env keeps what this builds; an
            # infeasible requirement raises here, before the fit.
            env.reset(derive_env_seed(seed))
            key = _forecaster_inputs(config, seed)
            forecaster = fits[key] = fits.get(key) or prepare_forecaster(config, seed)[1]
            save_forecaster(forecaster, str(out / f"forecaster_seed{seed}.json"))
            task = BiddingTask(env, forecaster)
            result = train(task, config, seed)
            if not result.episodes:
                raise ConfigError(
                    f"seed {seed}: training finished no episode; max_iterations = "
                    f"{config.max_iterations} passes of {config.steps_per_iteration} steps "
                    f"stop short of one {config.episode_steps}-hour episode")

            _write_csv(out / f"curve_seed{seed}.csv", CURVE_FIELDS,
                       [(e.episode, e.reward, e.epsilon, e.mean_abs_td, e.baseline_payment)
                        for e in result.episodes])
            save_network(result.local, str(out / f"qnet_local_seed{seed}.json"))
            save_network(result.target, str(out / f"qnet_target_seed{seed}.json"))
            if config.trace:
                _, infos = greedy_episode(task, result.target, derive_env_seed(seed))
                header, rows = _trace_rows(infos, len(gencos))
                _write_csv(out / f"trace_seed{seed}.csv", header, rows)

            rewards = np.array([e.reward for e in result.episodes[-window:]])
            payments = np.array([e.baseline_payment for e in result.episodes[-window:]])
            summary_rows.append([seed, float(rewards.mean()), float(payments.mean())])
    except Exception as exc:
        exc.add_note(f"while running seed {seed}")  # for the traceback in error.txt
        raise

    values = np.array([row[1] for row in summary_rows])
    payments = np.array([row[2] for row in summary_rows])
    mu = float(values.mean())
    sigma = float(values.std(ddof=0))  # single seed: sigma is 0 by convention
    summary_rows.append(["mu", mu, float(payments.mean())])
    summary_rows.append(["sigma", sigma, float(payments.std(ddof=0))])
    _write_csv(out / "summary.csv", ("seed", "converged_reward", "converged_baseline_payment"),
               summary_rows)
    return ExperimentSummary(mu=mu, sigma=sigma, mean_payment=float(payments.mean()))


def _run_grid(config: ExperimentConfig, label: str, cells: list) -> tuple[dict, dict]:
    """Run ``(name, field changes)`` cells of ``config`` in order, sharing forecaster fits.

    Every cell is built, and so validated, before the first run; a bad or repeated one
    raises ConfigError naming ``label`` and the cell. A failed run leaves its traceback,
    with the seed it was running, in error.txt in its out_dir. Returns (summaries,
    exceptions) by name.
    """
    built = {}
    for name, changes in cells:
        if name in built:  # it would run again into the same out_dir
            raise ConfigError(f"{label} {name}: repeated")
        try:
            built[name] = dataclasses.replace(config, **changes)
        except ConfigError as exc:
            raise ConfigError(f"{label} {name}: {exc}") from exc
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    summaries, errors, fits = {}, {}, {}
    for name, cell in built.items():
        try:
            summaries[name] = _run_cell(cell, fits)
        except Exception as exc:  # a cell failure must not stop the grid
            errors[name] = exc
            out = Path(cell.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "error.txt").write_text("".join(traceback.format_exception(exc)))
    return summaries, errors


def run_matrix(config: ExperimentConfig, learners, strategies, variants) -> dict:
    """Cross-product of (learner, strategy, variant) cells: one mu/sigma table per
    (strategy, variant), and errors.txt naming each cell whose run failed."""
    if not learners or not strategies or not variants:
        raise ConfigError("matrix: learners, strategies and variants must be nonempty")
    out = Path(config.out_dir)
    summaries, failures = _run_grid(config, "matrix cell", [
        ((l, s, v), dict(learner_id=l, strategy=s, variant=v, out_dir=str(out / f"L{l}_{s}_{v}")))
        for s in strategies for v in variants for l in learners])
    for s in strategies:
        for v in variants:
            cells = [summaries.get((l, s, v)) for l in learners]
            rows = [[m] + [getattr(c, m) if c else "nan" for c in cells] for m in ("mu", "sigma")]
            _write_csv(out / f"table_{s}_{v}.csv", ["metric", *map(str, learners)], rows)
    errors = {key: f"{type(exc).__name__}: {exc}" for key, exc in failures.items()}
    if errors:
        (out / "errors.txt").write_text("".join(f"{k}: {m}\n" for k, m in errors.items()))
    return {"summaries": summaries, "errors": errors}


SWEEP_PARAMETERS = ("gamma", "batch_size", "epsilon_decay")


def sweep(config: ExperimentConfig, parameter: str, values) -> list[dict]:
    """Hyperparameter study on the reference cell (learner 2, b1 rivals, nfq2).

    Runs one experiment per value. A run that diverges numerically is
    flagged; any other failure is recorded with its error, not flagged.
    Emits sweep_<parameter>.csv plus per-value run directories with full curves.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
    if not values:
        raise ConfigError("sweep: need at least one value")
    as_int = _TYPES[parameter] == "int"
    for v in values:
        if as_int and not float(v).is_integer():
            raise ConfigError(f"sweep {parameter} value {v} must be an integer")
    out = Path(config.out_dir)
    summaries, errors = _run_grid(config, f"sweep {parameter} value", [
        (v, {"learner_id": 2, "strategy": "b1", "variant": "nfq2",
             "out_dir": str(out / f"sweep_{parameter}" / str(v)),
             parameter: int(v) if as_int else float(v)}) for v in values])
    nan = float("nan")
    records = [
        {"value": v, "mu": summaries[v].mu, "sigma": summaries[v].sigma, "diverged": False}
        if v in summaries else
        {"value": v, "mu": nan, "sigma": nan, "diverged": isinstance(errors[v], NumericError),
         "error": f"{type(errors[v]).__name__}: {errors[v]}"} for v in values]
    _write_csv(out / f"sweep_{parameter}.csv", ("value", "mu", "sigma", "diverged"),
               [[r["value"], r["mu"], r["sigma"], r["diverged"]] for r in records])
    return records


def emit_trace(trace_csv: str, window: tuple[int, int], out_path: str) -> int:
    """Slice per-producer generation out of a stored trace episode.

    Writes columns t, qg_1..qg_n over [start, start + length). A zero-length
    window produces only the header. Returns the number of rows written.
    """
    start, length = window
    with open(trace_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        columns = [c for c in reader.fieldnames or [] if c.startswith("qg_")]
    if not columns:
        raise ValueError(f"{trace_csv} has no qg_* columns")
    if start < 0 or length < 0 or start + length > len(rows):
        raise ValueError(
            f"window [{start}, {start + length}) outside trace of {len(rows)} steps")
    out = [[rows[i]["t"]] + [rows[i][c] for c in columns]
           for i in range(start, start + length)]
    _write_csv(Path(out_path), ["t"] + columns, out)
    return len(out)
