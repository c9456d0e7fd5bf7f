"""Measuring process of the benchmark; started by run.py with the same flags.

A run repeats one workload's timed call ("round") on inputs made from
--seed until --seconds have passed, checks every round's outputs with
checks.py, and reports medians over rounds. Rounds of one run use one
seed, so each must also write byte-identical outputs.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from run import HERE, SOURCES, parse_args

OUT = HERE.parent / "runs" / "perfbench"  # runs/ is git-ignored

sys.path.insert(0, str(SOURCES.parent))
import numpy as np  # noqa: E402

import varbid  # noqa: E402
from varbid import forecast, harness  # noqa: E402
from varbid.market import demand_profile, simulate_total_quantity  # noqa: E402

import checks  # noqa: E402
from spans import LAYER_UNITS, Tracer  # noqa: E402

# The desk-scale settings of acceptance criterion 7 (DESK_SCALE in
# tests/test_acceptance.py), minus the fields each workload sets itself
# (variant, seeds, episodes, trace); selftest.py checks that the two agree.
DESK_SCALE = dict(
    strategy="b1", episode_steps=168, convergence_window=0.1,
    forecaster_units=16, forecaster_epochs=15,
    gamma=0.3, epsilon_decay=0.1, tau=1e-3, batch_size=64, steps_per_iteration=4,
    buffer_capacity=20_000, warmup_size=2_000, learning_rate=1e-3,
)
CELLS = {
    "desk_nfq2": dict(DESK_SCALE, learner_id=2, variant="nfq2", episodes=60, trace=True),
    "fresh_nfq1": dict(DESK_SCALE, learner_id=2, variant="nfq1", episodes=20, trace=True,
                       resample_demand=True),
}
# Acceptance criterion 5: a 720-hour series, 32 units, 50 epochs.
FIT = dict(forecaster_series_steps=720, forecaster_units=32, forecaster_epochs=50)


class Cell:
    """One experiment cell through ``harness.run_experiment`` (``varbid run``)."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.config = harness.build_config(None, dict(CELLS[name], seeds=(seed,)))
        self.seed = seed

    def run(self, out: Path) -> None:
        self.out = out
        harness.run_experiment(dataclasses.replace(self.config, out_dir=str(out)))

    def outputs(self) -> dict[str, bytes]:
        names = ("summary.csv", f"curve_seed{self.seed}.csv", f"trace_seed{self.seed}.csv")
        return {n: (self.out / n).read_bytes() for n in names}

    def check(self) -> list[str]:
        c = self.config
        curve = checks.read_rows(self.out / f"curve_seed{self.seed}.csv")
        window = max(1, int(round(c.convergence_window * c.episodes)))
        return (checks.check_curve(curve, c.episodes, c.epsilon0, c.epsilon_decay,
                                   c.epsilon_min)
                + checks.check_summary(checks.read_rows(self.out / "summary.csv"), curve, window,
                                       require_gain=self.name == "desk_nfq2")
                + checks.check_trace(checks.read_rows(self.out / f"trace_seed{self.seed}.csv"),
                                     c.gencos(), c.learner_index(), c.episode_steps))


class ForecastFit:
    """The ``varbid forecast-train`` path: simulate the total-quantity series,
    fit the LSTM on its head, save series and checkpoint, score the tail."""

    def __init__(self, seed: int):
        self.config = harness.build_config(None, dict(FIT, seeds=(seed,)))
        self.seed = seed
        self.env_seed = harness.derive_env_seed(seed)

    def run(self, out: Path) -> None:
        self.out = out
        out.mkdir(parents=True)
        c = self.config
        self.series = simulate_total_quantity(c.gencos(), c.demand_config(),
                                              seed=self.env_seed,
                                              steps=c.forecaster_series_steps)
        forecast.save_series_csv(self.series, str(self.out / "training_series.csv"))
        self.forecaster, _ = forecast.train_forecaster(
            self.series, units=c.forecaster_units, epochs=c.forecaster_epochs,
            seed=self.seed, batch_size=c.forecaster_batch_size,
            learning_rate=c.forecaster_learning_rate)
        forecast.save_forecaster(self.forecaster, str(self.out / "forecaster.json"))
        forecast.holdout_mse(self.series, self.forecaster)

    def outputs(self) -> dict[str, bytes]:
        return {n: (self.out / n).read_bytes() for n in ("training_series.csv", "forecaster.json")}

    def check(self) -> list[str]:
        c = self.config
        saved = [float(r["total_quantity"]) for r in checks.read_rows(self.out / "training_series.csv")]
        demand = demand_profile(c.forecaster_series_steps, self.env_seed, c.demand_config())
        errors = checks.check_series(saved, demand.values, sum(g.bg for g in c.gencos()))
        errors += checks.check_holdout(saved, self.forecaster.predict_batch)[0]
        windows = np.lib.stride_tricks.sliding_window_view(np.asarray(saved), 24)
        reloaded = forecast.load_forecaster(str(self.out / "forecaster.json"))
        if not np.array_equal(reloaded.predict_batch(windows),
                              self.forecaster.predict_batch(windows)):
            errors.append("reloaded forecaster predicts differently")
        return errors


def make_workload(name: str, seed: int):
    return ForecastFit(seed) if name == "forecast_fit" else Cell(name, seed)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return get()
    return None


@dataclasses.dataclass
class Rounds:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    plain: list[float] = dataclasses.field(default_factory=list)   # untraced wall times
    traced: list[float] = dataclasses.field(default_factory=list)  # traced wall times
    layers: list[dict] = dataclasses.field(default_factory=list)   # per traced round
    tracer: Tracer | None = None                                     # the last traced round's


def run_rounds(workload, out: Path, seconds: float, trace: bool) -> Rounds:
    """Rounds until ``seconds`` pass, each writing a new directory under
    ``out``; with ``trace`` every second round is traced (at least one of
    each)."""
    r = Rounds()
    first = None
    deadline = time.perf_counter() + seconds
    while r.attempted < 1 + trace or time.perf_counter() < deadline:
        tracer = Tracer() if trace and r.attempted % 2 == 1 else None
        r.attempted += 1
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            workload.run(out / f"round{r.attempted}")
        except Exception:  # a failed round is counted; the run goes on
            r.failed += 1
            traceback.print_exc()
            continue
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            r.tracer = tracer
            r.traced.append(wall)
            r.layers.append(tracer.layer_metrics(start, wall))
        else:
            r.plain.append(wall)
        r.errors += [f"round {r.attempted}: {e}" for e in workload.check()]
        outputs = workload.outputs()
        first = first or outputs
        r.errors += [f"round {r.attempted}: {n} differs from round 1"
                     for n in outputs if outputs[n] != first[n]]
    return r


def main() -> int:
    args = parse_args()
    if args.started is None:
        print("error: start the benchmark through perfbench/run.py", file=sys.stderr)
        return 2
    if not Path(varbid.__file__).resolve().is_relative_to(SOURCES):
        print(f"error: imported varbid from {varbid.__file__}, not {SOURCES}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    setup_s = time.monotonic() - args.started

    print(f"{args.workload} seed {args.seed}: python {sys.version.split()[0]}, "
          f"numpy {np.__version__}, BLAS threads {blas_threads()}", file=sys.stderr)
    # A new directory per run: deleting a previous run's files at start-up
    # would put file-system latency into setup_s.
    out = OUT / f"{args.workload}-{os.getpid()}"
    r = run_rounds(workload, out, args.seconds, bool(args.trace))
    shutil.rmtree(out, ignore_errors=True)
    for message in r.errors:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    for label, walls in (("untraced", r.plain), ("traced", r.traced)):
        if walls:
            print(f"{label} rounds (s): " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    if not r.plain or (args.trace and not r.traced):
        print("error: no round completed", file=sys.stderr)
        return 1

    if args.trace:
        values = {k: statistics.median_low(m[k] for m in r.layers) for k in r.layers[0]}
        values["trace.overhead_s"] = statistics.median(r.traced) - statistics.median(r.plain)
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
        (OUT / f"spans_{args.workload}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "round_s": r.traced[-1],
             **r.tracer.dump()}))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(r.plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not r.errors, "attempted": r.attempted, "failed": r.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
