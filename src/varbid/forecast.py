"""Next-hour requirement prediction from total-quantity history.

An LSTM reads the past 24 hourly totals, min-max scaled over the training
hours, and predicts the next hour. ``train_forecaster`` fits it with
mini-batch Adam on squared error over the sliding windows of a series; the
last ``HOLDOUT_FRAC`` of windows and the hours they predict stay out of the
fit and the scale, for ``holdout_mse`` to score. A two-lag reference
predictor, the mean of the values one hour and one day back, is the bar.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .nn import (CHECKPOINT_LAYOUTS, Adam, Lstm, NumericError, ShapeError, network_from,
                 read_checkpoint, write_checkpoint)

WINDOW = 24  # hours of history per prediction
HOLDOUT_FRAC = 0.2  # trailing share of windows kept out of training and scored


def _series_values(series) -> np.ndarray:
    """The series as floats; it needs a training window and a held-out one."""
    values = np.asarray(series, dtype=float)
    if values.ndim != 1 or len(values) < WINDOW + 2 or not np.all(np.isfinite(values)):
        raise ValueError(f"series must be 1-D and finite with >= {WINDOW + 2} values, "
                         f"got shape {values.shape}")
    return values


def holdout_split(n_windows: int) -> int:
    """Index of the first held-out window: the last HOLDOUT_FRAC, at least one."""
    return n_windows - max(1, int(round(HOLDOUT_FRAC * n_windows)))


def baseline_predict(series, t: int) -> float:
    """Two-lag reference: the mean of the values at t-1 and t-24."""
    if t < WINDOW:
        raise ValueError(f"need t >= {WINDOW}, got {t}")
    values = np.asarray(series, dtype=float)
    return 0.5 * (float(values[t - 1]) + float(values[t - WINDOW]))


@dataclass
class Forecaster:
    """Trained LSTM head plus the normalization it was fitted under."""

    lstm: Lstm
    lo: float
    hi: float

    def _normalize(self, window: np.ndarray) -> np.ndarray:
        span = self.hi - self.lo
        return (window - self.lo) / span if span > 0 else np.zeros_like(window)

    def _forward(self, windows) -> np.ndarray:
        """Normalized predictions; the window check of both predict methods."""
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 2 or windows.shape[1] != WINDOW:
            raise ShapeError(f"windows must have shape (n, {WINDOW}), got {windows.shape}")
        return self.lstm.forward(self._normalize(windows))

    def predict_batch(self, windows) -> np.ndarray:
        """Raw-scale predictions for a (n, 24) array of raw-scale windows."""
        return self.lo + self._forward(windows) * (self.hi - self.lo)

    def predict_batch_normalized(self, windows) -> np.ndarray:
        """Normalized-scale predictions for a (n, 24) array of raw-scale windows."""
        return self._forward(windows)


def holdout_mse(series, forecaster: Forecaster) -> tuple[float, float]:
    """(LSTM MSE, two-lag reference MSE) on the held-out windows.

    Both are evaluated on the raw series scale over identical target hours.
    """
    values = _series_values(series)
    split = holdout_split(len(values) - WINDOW)
    windows = np.lib.stride_tricks.sliding_window_view(values, WINDOW)[split:-1]
    targets = values[WINDOW + split:]
    lstm_preds = forecaster.predict_batch(windows)
    ref_preds = np.array([baseline_predict(values, t) for t in range(WINDOW + split, len(values))])
    return (float(np.mean((lstm_preds - targets) ** 2)),
            float(np.mean((ref_preds - targets) ** 2)))


def train_forecaster(series, units: int = 32, epochs: int = 50, seed: int = 0,
                     batch_size: int = 32, learning_rate: float = 5e-3) -> tuple[Forecaster, float]:
    """Fit an LSTM with mini-batch Adam on the windows before ``holdout_split``.

    Window k (series[k .. k+23]) predicts series[k+24]. ``lo``/``hi`` are the
    min/max of the hours the training windows and targets cover, so the scored
    tail stays unseen. Returns the forecaster and the final training MSE
    (normalized scale). Raises NumericError naming the epoch if the loss goes non-finite.
    """
    for ok, message in ((units >= 1, f"units must be >= 1, got {units}"),
                        (epochs >= 0, f"epochs must be >= 0, got {epochs}"),
                        (batch_size >= 1, f"batch_size must be >= 1, got {batch_size}"),
                        (learning_rate > 0, f"learning_rate must be positive, got {learning_rate}")):
        if not ok:
            raise ValueError(message)
    values = _series_values(series)
    rng = np.random.default_rng(seed)
    lstm = Lstm.random(units, int(rng.integers(2**31)))
    split = holdout_split(len(values) - WINDOW)
    seen = values[:WINDOW + split]
    forecaster = Forecaster(lstm=lstm, lo=float(seen.min()), hi=float(seen.max()))
    norm = forecaster._normalize(values)
    x = np.lib.stride_tricks.sliding_window_view(norm, WINDOW)[:split].copy()
    y = norm[WINDOW:WINDOW + split]
    opt = Adam(learning_rate=learning_rate)
    for epoch in range(epochs):
        order = rng.permutation(split)
        for start in range(0, split, batch_size):
            sel = order[start:start + batch_size]
            _fit_batch(lstm, opt, x[sel], y[sel], epoch)
    # No batch's cache outlives _fit_batch, so this frees the step buffer before the
    # final pass, and the result holds none.
    lstm._train_buf = None
    final_mse = float(np.mean((lstm.forward(x) - y) ** 2))
    if not np.isfinite(final_mse):
        raise NumericError(f"non-finite loss at epoch {epochs - 1}")
    return forecaster, final_mse


def _fit_batch(lstm: Lstm, opt: Adam, x: np.ndarray, y: np.ndarray, epoch: int) -> None:
    """One Adam step on the squared error of the windows ``x`` against ``y``. The
    predictions, the cache (views of the step buffer) and the gradient end with the call."""
    preds, cache = lstm._forward_cache(x)
    err = preds - y
    if not np.all(np.isfinite(err)):
        raise NumericError(f"non-finite loss at epoch {epoch}")
    opt.step(lstm, lstm._backward_from_cache(cache, 2.0 * err / len(y)))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_forecaster(forecaster: Forecaster, path: str) -> None:
    lstm = forecaster.lstm
    write_checkpoint(path, {"kind": "forecaster", "lo": forecaster.lo, "hi": forecaster.hi,
                            "units": lstm.units, "input_dim": 1}, lstm)


def load_forecaster(path: str) -> Forecaster:
    blob = read_checkpoint(path, {"forecaster": {"lo": (int, float), "hi": (int, float),
                                                 **CHECKPOINT_LAYOUTS["lstm"]}})
    # A short array list still loads, zero-filled: perfbench/selftest.py needs it (ROADMAP item 7).
    lstm = network_from(blob, path, "lstm")
    lo, hi = blob["lo"], blob["hi"]
    if not (np.all(np.isfinite([lo, hi])) and lo <= hi):
        raise ValueError(f"{path}: need finite lo <= hi, got lo={lo!r}, hi={hi!r}")
    return Forecaster(lstm=lstm, lo=lo, hi=hi)


def save_series_csv(series, path: str) -> None:
    """Two-column export: hour index, total quantity."""
    values = np.asarray(series, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "total_quantity"])
        for t, v in enumerate(values):
            writer.writerow([t, v])
