"""Round-trip a daily OHLCV series through CSV and carve it into training windows.

Run with:  python3 demos/01_load_and_shape.py
"""
from pathlib import Path

import numpy as np

from depscope import (
    SyntheticSpec,
    generate_synthetic,
    load_ohlcv,
    make_sliding_windows,
    pair_arrays,
    pair_samples,
    validate_frame,
    window_count,
    write_csv,
)

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

# A year and a half of synthetic daily bars is plenty for a tour.
frame = generate_synthetic(SyntheticSpec(length=400, lag=20, strength=0.0, seed=11))
print(f"generated {len(frame)} rows, columns: {', '.join(frame.columns)}")

report = validate_frame(frame)
print(f"validation clean: {report.ok} (issues: {len(report.issues)})")

# CSV round trip reproduces every float bit for bit.
path = out_dir / "demo_prices.csv"
write_csv(frame, path)
again = load_ohlcv(path)
close_match = np.array_equal(frame.columns["close"], again.columns["close"])
print(f"wrote {path.name}, reread close matches exactly: {close_match}")

# Windows of 30 closes, stepping 10 rows, predicting the next 5 volumes.
ds = make_sliding_windows(again, ("close",), "volume", window_width=30, step=10, horizon=5)
expected = window_count(len(again), window=30, step=10, horizon=5)
print(f"dataset format {ds.format}: {len(ds)} windows (formula says {expected})")

first = ds.samples[0]
print(
    f"first window anchors at row {first.anchor}: "
    f"x block {first.x_block.shape}, horizon {first.y_horizon.shape}"
)

# Pointwise pairing flattens one window into scalar (x, y) observations.
xs, ys = pair_arrays(first)
print(f"pointwise pairing of the first window yields {len(xs)} observations per side")
print(f"the same pairing as plain tuples: {pair_samples(first)[:2]} ...")
