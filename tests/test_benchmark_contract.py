"""The benchmark still runs against varbid.

perfbench/spans.py replaces functions and methods by name, and
perfbench/selftest.py checks the benchmark's checks on varbid's outputs; a
library change that breaks either would otherwise surface only in benchmark
runs.
"""

import subprocess
import sys
from pathlib import Path

import varbid
from varbid import agent, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls_against_varbid(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = {name: getattr(agent, name) for name in ("q_values", "train", "encode_state")}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert harness.train is not originals["train"]
        agent.encode_state([], 0, 0.5)
        assert [s[0] for s in tracer.spans] == ["agent.encode"]
    finally:
        tracer.uninstall()
    assert {name: getattr(agent, name) for name in originals} == originals
    assert harness.train is originals["train"] and varbid.train is originals["train"]


def test_forecaster_epochs_counted_from_keyword(monkeypatch, tmp_path):
    # spans.py counts epochs from kwargs["epochs"] of train_forecaster.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    config = harness.ExperimentConfig(forecaster_units=4, forecaster_epochs=3,
                                      forecaster_series_steps=120, out_dir=str(tmp_path))
    tracer = spans.Tracer()
    try:
        tracer.install()
        harness.prepare_forecaster(config, seed=0)
    finally:
        tracer.uninstall()
    assert tracer.counts["forecast.epochs"] == 3


def test_benchmark_selftest_passes():
    # Writes only under the git-ignored runs/perfbench/selftest.
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("13 passed, 0 failed")
