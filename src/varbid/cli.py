"""Command line entry points: forecast-train, run, matrix, sweep, trace."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import forecast, harness
from .agent import VARIANTS
from .harness import ConfigError
from .market import RIVAL_STRATEGIES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--seeds", help="comma-separated seed list, e.g. 0,1,2")
    parser.add_argument("--learner-id", dest="learner_id", type=int, help="learning producer id")
    parser.add_argument("--strategy", choices=RIVAL_STRATEGIES, help="rival bidding strategy")
    parser.add_argument("--variant", choices=VARIANTS, help="Q-network variant")
    parser.add_argument("--episodes", type=int, help="training episodes per seed")
    parser.add_argument("--episode-steps", dest="episode_steps", type=int,
                        help="hours per episode")
    parser.add_argument("--set", dest="extra", action="append", default=[],
                        metavar="KEY=VALUE", help="override any config field")


def _build_config(args) -> harness.ExperimentConfig:
    file_values = harness.parse_config_file(args.config) if args.config else {}
    overrides: dict = {}
    for key in ("out_dir", "learner_id", "strategy", "variant", "episodes", "episode_steps"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "seeds", None):
        overrides["seeds"] = harness.parse_field("seeds", args.seeds)
    for item in getattr(args, "extra", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, text = (part.strip() for part in item.split("=", 1))
        overrides[key] = harness.parse_field(key, text)
    return harness.build_config(file_values, overrides)


def _split(args, option: str, convert) -> list:
    try:
        return [convert(v) for v in getattr(args, option).split(",")]
    except ValueError as exc:
        raise ConfigError(f"--{option}: {exc}") from exc


def _cmd_run(args) -> int:
    config = _build_config(args)
    summary = harness.run_experiment(config)
    print(f"learner {config.learner_id} | rivals {config.strategy} "
          f"| {config.variant} | seeds {config.seeds}")
    print(f"converged episodic reward: mu={summary.mu:.6g} sigma={summary.sigma:.6g}")
    print(f"outputs in {config.out_dir}")
    return 0


def _cmd_matrix(args) -> int:
    config = _build_config(args)
    result = harness.run_matrix(config, _split(args, "learners", int),
                                args.strategies.split(","), args.variants.split(","))
    print(f"{len(result['summaries'])} cells completed, {len(result['errors'])} failed")
    for (learner, strategy, variant), summary in result["summaries"].items():
        print(f"  L{learner} {strategy} {variant}: mu={summary.mu:.6g} sigma={summary.sigma:.6g}")
    for key, message in result["errors"].items():
        print(f"  FAILED {key}: {message}")
    return 1 if result["errors"] else 0


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    values = _split(args, "values", float)
    records = harness.sweep(config, args.parameter, values)
    for record in records:
        flag = " DIVERGED" if record["diverged"] else ""
        print(f"  {args.parameter}={record['value']}: mu={record['mu']:.6g}"
              f" sigma={record['sigma']:.6g}{flag}")
    failed = [r for r in records if "error" in r and not r["diverged"]]
    for record in failed:
        print(f"  FAILED {args.parameter}={record['value']}: {record['error']}")
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    rows = harness.emit_trace(args.trace_file, (args.start, args.length), args.out)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def _cmd_forecast_train(args) -> int:
    config = _build_config(args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series, forecaster, train_mse = harness.prepare_forecaster(config, config.seeds[0])
    forecast.save_series_csv(series, str(out / "training_series.csv"))
    forecast.save_forecaster(forecaster, str(out / "forecaster.json"))
    lstm_mse, ref_mse = forecast.holdout_mse(series, forecaster)
    print(f"training MSE (normalized): {train_mse:.6g}")
    print(f"held-out MSE: model {lstm_mse:.6g} vs two-lag reference {ref_mse:.6g}")
    print(f"outputs in {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varbid",
        description="Reactive power market bidding experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train one experiment cell over its seeds")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("matrix", help="cross-product of learners x strategies x variants")
    _add_common(p)
    p.add_argument("--learners", default="1,2,3,4,5,6", help="comma-separated producer ids")
    p.add_argument("--strategies", default="b1,b2")
    p.add_argument("--variants", default="nfq1,nfq2")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("sweep", help="hyperparameter study on the reference cell")
    _add_common(p)
    p.add_argument("--parameter", required=True, choices=harness.SWEEP_PARAMETERS)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trace", help="slice per-producer generation from a stored trace")
    p.add_argument("--trace-file", dest="trace_file", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--length", type=int, default=120)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("forecast-train", help="train and evaluate the requirement forecaster")
    _add_common(p)
    p.set_defaults(func=_cmd_forecast_train)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
