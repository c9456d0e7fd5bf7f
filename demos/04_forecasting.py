"""Training the next-hour requirement forecaster.

The LSTM reads 24 hours of total dispatched quantity and predicts the next
hour. The bar to clear is the two-lag reference (mean of the values one
hour and one day back).
"""

from varbid import baseline_predict, holdout_mse, simulate_total_quantity, train_forecaster

series = simulate_total_quantity(seed=0, steps=720)
print(f"training series: 720 hourly totals in [{series.min():.3f}, {series.max():.3f}] units")

forecaster, train_mse = train_forecaster(series, units=32, epochs=50, seed=0)
lstm_mse, ref_mse = holdout_mse(series, forecaster)

print(f"final training MSE (normalized): {train_mse:.5f}")
print(f"held-out MSE, raw scale: LSTM {lstm_mse:.6f} vs two-lag reference {ref_mse:.6f}")
print(f"improvement factor: {ref_mse / lstm_mse:.2f}x")
print()

t = 700
window = series[t - 24:t]
print(f"example hour t={t}:")
print(f"  truth            {series[t]:.4f}")
print(f"  LSTM             {forecaster.predict_batch(window[None, :])[0]:.4f}")
print(f"  two-lag reference {baseline_predict(series, t):.4f}")
