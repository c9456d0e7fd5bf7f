"""Spans and counts recorded around varbid's public calls, kept in memory.

``Tracer.install`` replaces each function or method in ``WRAPPED`` with a
timing wrapper, everywhere varbid holds a reference to it (``harness``
imports ``train`` from ``agent``, ``agent`` imports ``soft_update`` from
``nn``, and so on); ``uninstall`` puts the originals back. A span is
``[name, start, end, parent index]``; calls are single-threaded, so the
direct children of a span never overlap and its self time is its duration
minus theirs.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import Counter


def _rows(tracer, args, kwargs):
    return len(args[1])


def _path_bytes(index):
    return lambda tracer, args, kwargs: os.path.getsize(args[index])


def _new_seed(tracer, args, kwargs):
    """1 when this task has not been reset to this seed before."""
    seen = tracer.seeds_seen.setdefault(args[0], set())
    new = args[1] not in seen
    seen.add(args[1])
    return int(new)


# (module, attribute or Class.method, span name, counter key, count function)
WRAPPED = (
    ("varbid.market", "clear_market", "market.clear", None, None),
    ("varbid.market", "clear_market_batch", "market.clear_batch", None, None),
    ("varbid.market", "ReactiveMarketEnv.step", "market.step", None, None),
    ("varbid.replay", "ReplayBuffer.add", "replay.add", None, None),
    ("varbid.replay", "ReplayBuffer.sample", "replay.sample", None, None),
    ("varbid.replay", "ReplayBuffer.update_priorities", "replay.update", None, None),
    ("varbid.nn", "Mlp.forward", "nn.forward", "nn.forward_rows", _rows),
    ("varbid.nn", "Adam.step", "nn.opt_step", None, None),
    ("varbid.nn", "soft_update", "nn.soft_update", None, None),
    ("varbid.agent", "encode_state", "agent.encode", None, None),
    ("varbid.agent", "q_values", "agent.q_values", None, None),
    ("varbid.agent", "select_action", "agent.select_action", None, None),
    ("varbid.agent", "compute_targets", "agent.targets", None, None),
    ("varbid.agent", "train", "agent.train", None, None),
    ("varbid.agent", "BiddingTask.reset", "agent.reset", "agent.reset_new_seeds", _new_seed),
    ("varbid.agent", "BiddingTask.step", "agent.task_step", None, None),
    ("varbid.agent", "greedy_episode", "harness.greedy", None, None),
    ("varbid.forecast", "train_forecaster", "forecast.fit", "forecast.epochs",
     lambda tracer, args, kwargs: kwargs["epochs"]),
    ("varbid.forecast", "Forecaster.predict_batch", "forecast.predict",
     "forecast.predict_rows", _rows),
    ("varbid.forecast", "Forecaster.predict_batch_normalized", "forecast.predict",
     "forecast.predict_rows", _rows),
    ("varbid.forecast", "save_forecaster", "harness.io", "harness.bytes_written",
     _path_bytes(1)),
    ("varbid.forecast", "save_series_csv", "harness.io", "harness.bytes_written",
     _path_bytes(1)),
    ("varbid.nn", "save_network", "harness.io", "harness.bytes_written", _path_bytes(1)),
    ("varbid.harness", "_write_csv", "harness.io", "harness.bytes_written", _path_bytes(0)),
    ("varbid.harness", "_write_manifest", "harness.io", "harness.bytes_written",
     _path_bytes(1)),
)

# Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "market.clear_calls": "count", "market.clear_s": "s", "market.clear_batch_s": "s",
    "market.step_calls": "count", "market.step_self_s": "s",
    "replay.add_calls": "count", "replay.add_s": "s", "replay.sample_s": "s",
    "replay.update_s": "s",
    "nn.forward_calls": "count", "nn.forward_rows": "count", "nn.forward_s": "s",
    "nn.opt_step_calls": "count", "nn.opt_step_s": "s", "nn.soft_update_s": "s",
    "agent.encode_s": "s", "agent.act_calls": "count", "agent.act_s": "s",
    "agent.targets_s": "s", "agent.train_self_s": "s", "agent.reset_calls": "count",
    "agent.reset_new_seeds": "count", "agent.reset_s": "s", "agent.task_step_self_s": "s",
    "forecast.fit_s": "s", "forecast.epoch_ms": "ms", "forecast.predict_calls": "count",
    "forecast.predict_rows": "count", "forecast.predict_s": "s",
    "harness.io_s": "s", "harness.bytes_written": "bytes", "harness.greedy_s": "s",
    "harness.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counts of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.seeds_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _wrap(self, name, fn, key, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[key] += count(self, args, kwargs)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "varbid" or n.startswith("varbid.")]
        for module_name, attr, name, key, count in WRAPPED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, key, count))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, key, count)
            for module in modules:
                for held, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, held, original))
                        setattr(module, held, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self, start: float, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans of one call that began at ``start``
        (a ``time.perf_counter`` value) and took ``wall_s``."""
        self.started = start
        calls: Counter = Counter()
        busy: Counter = Counter()
        children: Counter = Counter()
        top = 0.0
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent is None:
                top += end - start
            else:
                children[self.spans[parent][0]] += end - start
        epochs = self.counts["forecast.epochs"]
        return {
            "market.clear_calls": calls["market.clear"],
            "market.clear_s": busy["market.clear"],
            "market.clear_batch_s": busy["market.clear_batch"],
            "market.step_calls": calls["market.step"],
            "market.step_self_s": busy["market.step"] - children["market.step"],
            "replay.add_calls": calls["replay.add"],
            "replay.add_s": busy["replay.add"],
            "replay.sample_s": busy["replay.sample"],
            "replay.update_s": busy["replay.update"],
            "nn.forward_calls": calls["nn.forward"],
            "nn.forward_rows": self.counts["nn.forward_rows"],
            "nn.forward_s": busy["nn.forward"],
            "nn.opt_step_calls": calls["nn.opt_step"],
            "nn.opt_step_s": busy["nn.opt_step"],
            "nn.soft_update_s": busy["nn.soft_update"],
            "agent.encode_s": busy["agent.encode"],
            "agent.act_calls": calls["agent.q_values"],
            "agent.act_s": busy["agent.q_values"] + busy["agent.select_action"],
            "agent.targets_s": busy["agent.targets"],
            "agent.train_self_s": busy["agent.train"] - children["agent.train"],
            "agent.reset_calls": calls["agent.reset"],
            "agent.reset_new_seeds": self.counts["agent.reset_new_seeds"],
            "agent.reset_s": busy["agent.reset"],
            "agent.task_step_self_s": busy["agent.task_step"] - children["agent.task_step"],
            "forecast.fit_s": busy["forecast.fit"],
            "forecast.epoch_ms": 1000.0 * busy["forecast.fit"] / epochs if epochs else 0.0,
            "forecast.predict_calls": calls["forecast.predict"],
            "forecast.predict_rows": self.counts["forecast.predict_rows"],
            "forecast.predict_s": busy["forecast.predict"],
            "harness.io_s": busy["harness.io"],
            "harness.bytes_written": self.counts["harness.bytes_written"],
            "harness.greedy_s": busy["harness.greedy"],
            "harness.unattributed_s": wall_s - top,
        }

    def dump(self) -> dict:
        """Spans relative to the call's start, plus the counts, ready for JSON."""
        t0 = self.started
        return {"spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                "counts": dict(self.counts)}
