"""Self-tests of the benchmark's checks; not part of the tier-1 suite.

    python3 perfbench/selftest.py

1. The exact dispatch solver against the exhaustive grid oracle in
   tests/oracles.py on random instances.
2. The workload settings against DESK_SCALE in tests/test_acceptance.py.
3. Each check passes on genuine outputs and rejects a corrupted copy:
   a trace reward nudged by 1e-6 of the hour's payment, one qg moved so
   balance breaks, a curve missing one episode, a window-mean predictor in
   place of the forecaster, and a checkpoint with its last two arrays gone.
Exits 1 when any of them fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

import checks
import measure

sys.path.insert(0, str(measure.HERE.parent / "tests"))
from oracles import dispatch_objective, grid_dispatch, random_dispatch_instance  # noqa: E402

from varbid import harness  # noqa: E402
from varbid.market import Bid, GencoParams, clear_market  # noqa: E402

OUT = measure.OUT / "selftest"
results: list[tuple[str, bool, str]] = []


def expect(name: str, passed: bool, detail: str = "") -> None:
    results.append((name, passed, detail))
    print(f"{'PASS' if passed else 'FAIL'} {name}" + (f" ({detail})" if detail else ""),
          flush=True)


def solver_against_grid_oracle(instances: int = 100) -> None:
    rng = np.random.default_rng(1511)
    worst_obj = worst_coord = worst_balance = worst_program = 0.0
    for _ in range(instances):
        b1, b2, qmax, demand = random_dispatch_instance(rng)
        x, lam = checks.exact_dispatch(b1, b2, qmax, demand)
        gx, gobj = grid_dispatch(b1, b2, qmax, demand)
        worst_obj = max(worst_obj, dispatch_objective(b1, b2, x) - gobj)
        worst_coord = max(worst_coord, float(np.abs(x - gx).max()))
        worst_balance = max(worst_balance, abs(float(x.sum()) - demand))
        gencos = [GencoParams(i + 1, 0.1, 0.1, 0.0, float(q)) for i, q in enumerate(qmax)]
        out = clear_market([Bid(float(a), float(b)) for a, b in zip(b1, b2)], demand, gencos)
        worst_program = max(worst_program, float(np.abs(out.qg - x).max()))
    expect("exact dispatch is no costlier than the grid oracle", worst_obj <= 1e-9,
           f"max objective gap {worst_obj:.3g} over {instances} instances")
    expect("exact dispatch lies within one grid step of the oracle", worst_coord < 2e-3,
           f"max coordinate gap {worst_coord:.3g}")
    expect("exact dispatch balances the requirement", worst_balance <= 1e-12,
           f"max imbalance {worst_balance:.3g}")
    expect("varbid's clearing agrees with the exact dispatch", worst_program <= checks.QG_TOL,
           f"max gap {worst_program:.3g}")


def settings_match_acceptance() -> None:
    from test_acceptance import DESK_SCALE
    shared = {k: v for k, v in DESK_SCALE.items() if k in measure.DESK_SCALE}
    expect("DESK_SCALE settings match tests/test_acceptance.py",
           shared == measure.DESK_SCALE and all(k in DESK_SCALE for k in measure.DESK_SCALE))


def cell_checks() -> None:
    out = OUT / "cell"
    shutil.rmtree(out, ignore_errors=True)
    config = harness.build_config(None, dict(measure.CELLS["desk_nfq2"], episodes=6,
                                             warmup_size=300, seeds=(0,), out_dir=str(out)))
    harness.run_experiment(config)
    trace = checks.read_rows(out / "trace_seed0.csv")
    curve = checks.read_rows(out / "curve_seed0.csv")
    gencos, learner = config.gencos(), config.learner_index()

    def trace_errors(rows):
        return checks.check_trace(rows, gencos, learner, config.episode_steps)

    def curve_errors(rows):
        return checks.check_curve(rows, config.episodes, config.epsilon0,
                                  config.epsilon_decay, config.epsilon_min)

    expect("trace check passes genuine output", not trace_errors(trace), str(trace_errors(trace)))
    expect("curve check passes genuine output", not curve_errors(curve), str(curve_errors(curve)))

    nudged = copy.deepcopy(trace)
    row = nudged[100]
    k = learner + 1
    payment = float(row[f"price_{k}"]) * float(row[f"qg_{k}"])
    row["reward"] = repr(float(row["reward"]) + 1e-6 * payment)
    expect("trace check rejects a reward nudged by 1e-6 of the payment",
           bool(trace_errors(nudged)), str(trace_errors(nudged)[:1]))

    moved = copy.deepcopy(trace)
    moved[57]["qg_3"] = repr(float(moved[57]["qg_3"]) + 1e-6)
    expect("trace check rejects one qg moved off balance",
           bool(trace_errors(moved)), str(trace_errors(moved)[:1]))

    short = curve[:3] + curve[4:]
    expect("curve check rejects a curve missing one episode",
           bool(curve_errors(short)), str(curve_errors(short)[:1]))


def forecaster_checks() -> None:
    out = OUT / "fit"
    shutil.rmtree(out, ignore_errors=True)
    fit = measure.ForecastFit(0)
    fit.run(out)
    errors = fit.check()
    expect("forecaster checks pass genuine output", not errors, str(errors))

    errors, model, reference = checks.check_holdout(fit.series,
                                                    lambda windows: windows.mean(axis=1))
    expect("held-out check rejects a window-mean predictor", bool(errors),
           f"window mean {model:.3g} vs two-lag {reference:.3g}")

    path = out / "forecaster.json"
    blob = json.loads(path.read_text())
    blob["arrays"] = blob["arrays"][:-2]
    path.write_text(json.dumps(blob))
    errors = fit.check()
    expect("checkpoint check rejects a forecaster missing two arrays", bool(errors), str(errors))


def main() -> int:
    solver_against_grid_oracle()
    settings_match_acceptance()
    cell_checks()
    forecaster_checks()
    failed = [name for name, passed, _ in results if not passed]
    print(f"{len(results) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
