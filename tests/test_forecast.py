import csv
import json
import re

import numpy as np
import pytest

from oracles import lstm_backward_reference, lstm_forward_cache_reference, lstm_hidden_reference
from varbid.forecast import (WINDOW, Forecaster, baseline_predict, holdout_mse, holdout_split,
                             load_forecaster, save_forecaster, train_forecaster,
                             save_series_csv)
from varbid.market import DemandConfig, demand_profile, simulate_total_quantity
from varbid.nn import Lstm, ShapeError


def untrained_mse(fc, series):
    """Training MSE rebuilt apart from train_forecaster: norm[k:k+24] -> norm[k+24],
    with the scale of the hours before the held-out targets."""
    values = np.asarray(series, dtype=float)
    split = holdout_split(len(values) - WINDOW)
    head = values[:WINDOW + split]
    norm = (values - head.min()) / (head.max() - head.min())
    x = np.array([norm[k:k + WINDOW] for k in range(split)])
    y = np.array([norm[k + WINDOW] for k in range(split)])
    return float(np.mean((fc.lstm.forward_batch(x) - y) ** 2))


class TestMakeDataset:
    """The training windows train_forecaster builds from a series."""

    def test_sample_count(self):
        for steps in (26, 60, 720):  # 1, 29 and 557 training windows
            series = demand_profile(max(steps, 49), seed=1).values[:steps]
            fc, mse = train_forecaster(series, units=3, epochs=0, seed=0)
            assert mse == untrained_mse(fc, series)

    def test_constant_series_collapses(self):
        series = np.full(30, 3.3)
        fc, mse = train_forecaster(series, units=3, epochs=0, seed=0)
        assert np.array_equal(fc._normalize(series), np.zeros(30))
        zeros = np.zeros((holdout_split(30 - WINDOW), WINDOW))
        assert mse == float(np.mean(fc.lstm.forward_batch(zeros) ** 2))

    def test_window_alignment(self):
        series = demand_profile(120, seed=4).values
        fc, mse = train_forecaster(series, units=5, epochs=0, seed=2)
        assert mse == untrained_mse(fc, series)

    def test_short_series_rejected(self):
        for series in (np.zeros(25), np.zeros((30, 2))):
            with pytest.raises(ValueError, match="1-D and finite with >= 26 values"):
                train_forecaster(series, epochs=0)

    def test_windows_reconstruct_series_losslessly(self):
        series = demand_profile(120, seed=4).values
        fc, _ = train_forecaster(series, units=3, epochs=0, seed=0)
        rebuilt = fc.lo + fc._normalize(series) * (fc.hi - fc.lo)
        assert np.allclose(rebuilt, series, rtol=0, atol=1e-12)

    def test_normalization_round_trip(self):
        series = demand_profile(100, seed=2).values
        fc, _ = train_forecaster(series, units=3, epochs=0, seed=0)
        head = series[:WINDOW + holdout_split(len(series) - WINDOW)]
        assert (fc.lo, fc.hi) == (head.min(), head.max())
        norm = fc._normalize(head)
        assert norm.min() == 0.0 and norm.max() == 1.0


class TestBaselinePredict:
    def test_constant_series(self):
        assert baseline_predict(np.full(40, 2.5), 30) == 2.5

    def test_two_lag_average(self):
        series = np.zeros(40)
        series[29] = 2.0
        series[6] = 4.0
        assert baseline_predict(series, 30) == pytest.approx(3.0)

    def test_early_index_rejected(self):
        with pytest.raises(ValueError):
            baseline_predict(np.zeros(40), 23)


class TestTrainLstm:
    def test_reference_unit_count_shapes_hidden_state(self):
        fc, _ = train_forecaster(demand_profile(60, seed=0).values, units=100, epochs=1, seed=0)
        assert fc.lstm.units == 100

    def test_constant_series_fits_by_bias(self):
        fc, mse = train_forecaster(np.full(80, 5.0), units=4, epochs=30, seed=1)
        assert mse < 1e-4
        assert fc.predict_batch(np.full((1, 24), 5.0))[0] == 5.0

    def test_learns_periodic_series_better_than_two_lag(self):
        series = simulate_total_quantity(seed=3, steps=480)
        fc, _ = train_forecaster(series, units=16, epochs=30, seed=0)
        lstm_mse, ref_mse = holdout_mse(series, fc)
        assert lstm_mse <= ref_mse

    def test_non_finite_series_rejected(self):
        series = demand_profile(60, seed=0).values
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                train_forecaster(np.r_[series, bad], epochs=0)

    def test_holdout_mse_rejects_what_the_fit_rejects(self):
        series = demand_profile(60, seed=0).values
        fc, _ = train_forecaster(series, units=3, epochs=0, seed=0)
        assert np.all(np.isfinite(holdout_mse(series[:26], fc)))
        for bad in (series[:24], series[:25], np.r_[series, np.nan], series.reshape(2, 30)):
            with pytest.raises(ValueError, match="^series must be 1-D and finite with >= 26"):
                holdout_mse(bad, fc)

    @pytest.mark.parametrize("name, value", [("units", 0), ("epochs", -1), ("batch_size", 0),
                                             ("learning_rate", 0.0), ("learning_rate", -1.0),
                                             ("learning_rate", float("nan"))])
    def test_bad_hyperparameter_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            train_forecaster(demand_profile(60, seed=0).values, **{name: value})

    def test_scored_tail_unseen(self):
        series = demand_profile(200, seed=6).values
        lo, hi = series.min(), series.max()
        first_scored = holdout_split(len(series) - WINDOW) + WINDOW
        moved = series.copy()
        n = len(series) - first_scored
        moved[first_scored:] = 0.5 * (lo + hi) + 0.25 * (hi - lo) * np.sin(np.arange(n))
        assert (moved.min(), moved.max()) == (lo, hi)
        assert not np.array_equal(moved, series)
        fc, mse = train_forecaster(series, units=4, epochs=3, seed=0)
        fc_moved, mse_moved = train_forecaster(moved, units=4, epochs=3, seed=0)
        assert mse_moved == mse
        assert all(np.array_equal(a, b) for a, b in zip(fc.lstm.params(), fc_moved.lstm.params()))

    def test_scale_from_training_hours_only(self):
        series = demand_profile(200, seed=6).values
        first_scored = holdout_split(len(series) - WINDOW) + WINDOW
        head = series[:first_scored]
        rising = series.copy()
        rising[first_scored:] = head.max() + np.linspace(0.1, 1.0, len(series) - first_scored)
        assert rising.max() > head.max()
        fc, mse = train_forecaster(series, units=4, epochs=3, seed=0)
        fc_rising, mse_rising = train_forecaster(rising, units=4, epochs=3, seed=0)
        assert (fc_rising.lo, fc_rising.hi) == (fc.lo, fc.hi) == (head.min(), head.max())
        assert fc_rising.lstm.theta.tobytes() == fc.lstm.theta.tobytes()
        assert mse_rising == mse

    def test_fit_with_partial_batch_equals_reference_fit(self, monkeypatch):
        # 96 windows: 77 train in batches of 32, 32 and 13.
        series = 1.0 + 0.3 * np.sin(np.arange(120) / 4.0) + 0.01 * np.arange(120)
        fit = train_forecaster(series, units=16, epochs=2, seed=5)
        assert fit[0].lstm._train_buf is None  # the result holds no training buffer
        monkeypatch.setattr(Lstm, "_forward_batch_cache", lstm_forward_cache_reference)
        monkeypatch.setattr(Lstm, "_backward_from_cache", lstm_backward_reference)
        monkeypatch.setattr(Lstm, "_hidden", lstm_hidden_reference)
        reference = train_forecaster(series, units=16, epochs=2, seed=5)
        assert np.array_equal(fit[0].lstm.theta, reference[0].lstm.theta)
        assert fit[1] == reference[1]


class TestPredict:
    def test_bias_only_model_returns_denormalized_bias(self):
        lstm = Lstm.zeros(1, 4)
        lstm.b_out[0] = 0.5
        fc = Forecaster(lstm=lstm, lo=10.0, hi=20.0)
        assert fc.predict_batch(np.full((1, 24), 12.0))[0] == pytest.approx(15.0)
        assert fc.predict_batch_normalized(np.full((1, 24), 12.0))[0] == 0.5

    def test_wrong_window_length_rejected(self):
        fc = Forecaster(lstm=Lstm.zeros(1, 2), lo=0.0, hi=1.0)
        for shape in ((1, 23), (2, 5), (24,), (1, 24, 1), (3, 25)):
            for predict in (fc.predict_batch, fc.predict_batch_normalized):
                with pytest.raises(ShapeError, match=rf"^windows must have shape \(n, 24\), "
                                                     rf"got {re.escape(str(shape))}$"):
                    predict(np.zeros(shape))

    def test_inference_is_deterministic(self):
        series = demand_profile(120, seed=9).values
        fc, _ = train_forecaster(series, units=8, epochs=3, seed=0)
        windows = np.lib.stride_tricks.sliding_window_view(series, WINDOW)
        assert np.array_equal(fc.predict_batch(windows), fc.predict_batch(windows))
        assert np.array_equal(fc.predict_batch(windows),
                              fc.lo + fc.predict_batch_normalized(windows) * (fc.hi - fc.lo))

    def test_noise_free_periodic_prediction_close(self):
        cfg = DemandConfig(noise_amplitude=0.0)
        series = demand_profile(480, seed=0, config=cfg).values
        fc, _ = train_forecaster(series, units=16, epochs=40, seed=2)
        t = 400
        predicted = fc.predict_batch(series[None, t - 24:t])[0]
        assert predicted == pytest.approx(series[t], rel=0.05)


class TestPersistence:
    def test_forecaster_round_trip(self, tmp_path):
        series = demand_profile(100, seed=5).values
        fc, _ = train_forecaster(series, units=6, epochs=2, seed=0)
        path = tmp_path / "fc.json"
        save_forecaster(fc, str(path))
        loaded = load_forecaster(str(path))
        windows = np.lib.stride_tricks.sliding_window_view(series, WINDOW)
        assert np.array_equal(loaded.predict_batch(windows), fc.predict_batch(windows))

    def test_per_gate_checkpoint_rejected_with_layout(self, tmp_path):
        # A forecaster saved before stacked gates: (W, U, b) for f, i, g, o, then the head.
        u = 4
        arrays = [[0.1] * n for n in (u, u * u, u) * 4] + [[0.1] * u, [0.1]]
        path = tmp_path / "fc.json"
        path.write_text(json.dumps({"kind": "forecaster", "lo": 0.0, "hi": 1.0, "units": u,
                                    "input_dim": 1, "arrays": arrays}))
        with pytest.raises(ShapeError, match=r"array 0 has 4 values, expected 80.*4u"):
            load_forecaster(str(path))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_checkpoint_rejected(self, tmp_path, bad):
        fc = Forecaster(lstm=Lstm.random(1, 3, seed=0), lo=0.0, hi=1.0)
        path = tmp_path / "fc.json"
        save_forecaster(fc, str(path))
        blob = json.loads(path.read_text())
        blob["arrays"][0][2] = float(bad)
        path.write_text(json.dumps(blob))
        assert bad in path.read_text()
        with pytest.raises(ValueError, match=f"{path}: non-finite"):
            load_forecaster(str(path))

    @pytest.mark.parametrize("lo, hi", [(0.0, float("nan")), (float("inf"), 1.0), (2.0, 1.0)],
                             ids=["hi_nan", "lo_inf", "lo_above_hi"])
    def test_bad_scale_rejected(self, tmp_path, lo, hi):
        path = tmp_path / "fc.json"
        save_forecaster(Forecaster(lstm=Lstm.random(1, 3, seed=0), lo=lo, hi=hi), str(path))
        with pytest.raises(ValueError, match=f"{path}: need finite lo <= hi"):
            load_forecaster(str(path))

    @pytest.mark.parametrize("blob, message", [
        ([1, 2], "a checkpoint is a JSON object, got a list"),
        ({"kind": "mlp", "layer_sizes": [2, 1], "arrays": []},
         "checkpoint kind 'mlp' is not one of ['forecaster']"),
        ({"kind": "forecaster", "lo": 0.0, "hi": 1.0, "units": 3, "arrays": []},
         "forecaster checkpoint has no 'input_dim'"),
        ({"kind": "forecaster", "lo": "0", "hi": 1.0, "units": 3, "input_dim": 1, "arrays": []},
         "forecaster checkpoint's 'lo' must be of type int or float, got str"),
    ], ids=["list", "other-kind", "no-input-dim", "str-lo"])
    def test_malformed_checkpoint_names_the_file_and_key(self, tmp_path, blob, message):
        path = tmp_path / "fc.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_forecaster(str(path))

    def test_constant_series_scale_loads(self, tmp_path):
        path = tmp_path / "fc.json"
        save_forecaster(Forecaster(lstm=Lstm.random(1, 3, seed=0), lo=0.4, hi=0.4), str(path))
        assert np.isfinite(load_forecaster(str(path)).predict_batch(np.full((1, 24), 0.4))[0])

    def test_series_csv_round_trip(self, tmp_path):
        series = demand_profile(60, seed=1).values
        path = tmp_path / "series.csv"
        save_series_csv(series, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["t"]) for r in rows] == list(range(len(series)))
        assert np.array_equal([float(r["total_quantity"]) for r in rows], series)
