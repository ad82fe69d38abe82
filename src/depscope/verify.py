"""Synthetic series with planted lagged couplings, plus a pass/fail harness.

The generator hides a latent driver inside the volume column and couples
future returns to it at a known lag, either linearly or through an even
(sign-free) transform that linear correlation cannot see.  The harness
scores embedded data against coupling-free control data and awards a pass
only when the embedded median clears the control median by more than the
control's own sampling noise.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .frame import TimeSeriesFrame, _emit
from .indicators import returns
from .search import scan_window

# Unused here; perfbench/layers.py looks both names up in this module to trace a run.
from .search import evaluate_pairs  # noqa: F401
from .shaping import pair_arrays  # noqa: F401

EMBEDDINGS = ("none", "linear_lag", "nonlinear_lag", "regime_pattern")
VERIFY_MEASURES = ("PC", "MI", "DC", "MIC")  # the measures verified unless told otherwise
REGIME_BLOCK = 100  # regime embedding: coupling toggles every this many rows

CRITERION_TEXT = (
    "a dependence measure passes when its median score on series with a "
    "planted coupling exceeds its median score on matched coupling-free "
    "control series by more than the control sampling noise"
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic OHLCV series; the base is always a Gaussian random walk."""

    length: int = 2000
    embedding: str = "linear_lag"
    lag: int = 100
    strength: float = 1.0
    seed: int = 42

    def __post_init__(self):
        if self.length < 300:
            raise ValueError("length must be >= 300 to leave room for lags and windows")
        if self.embedding not in EMBEDDINGS:
            raise ValueError(f"embedding must be one of {EMBEDDINGS}")
        if not (1 <= self.lag <= self.length // 4):
            raise ValueError("lag must be between 1 and length // 4")
        if not (0.0 <= self.strength <= 1.0):
            raise ValueError("strength must be within [0, 1]")


def _coupling_signal(z: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    if spec.embedding == "nonlinear_lag":
        # Even transform: zero-mean, unit-variance, uncorrelated with z, so
        # only nonlinear measures can recover the coupling.
        return (z * z - 1.0) / math.sqrt(2.0)
    return z


def generate_synthetic(spec: SyntheticSpec) -> TimeSeriesFrame:
    """Build an OHLCV frame whose returns are coupled to lagged log-volume.

    The latent driver z is observable as log(volume) up to an affine map.
    Row t of the returns mixes fresh noise with the driver from t - lag,
    with mixing weights sqrt(1 - strength^2) and strength, so the planted
    dependence has a known lag and a known effect size.  Strength 0 yields
    a pure-noise control series from the same recipe.
    """
    rng = np.random.default_rng(spec.seed)
    t = spec.length
    z = rng.standard_normal(t)
    eps = rng.standard_normal(t)
    eta = rng.standard_normal(t)

    r = 0.01 * eps
    if spec.strength > 0.0 and spec.embedding != "none":
        g = _coupling_signal(z, spec)
        coupled = np.zeros(t, dtype=bool)
        coupled[spec.lag :] = True
        if spec.embedding == "regime_pattern":
            coupled &= (np.arange(t) // REGIME_BLOCK) % 2 == 0
        mix = math.sqrt(1.0 - spec.strength * spec.strength)
        driver = np.empty(t)
        driver[spec.lag :] = g[: t - spec.lag]
        r = np.where(coupled, 0.01 * (mix * eps + spec.strength * driver), r)

    close = 100.0 * np.cumprod(1.0 + r)
    opens = np.concatenate(([100.0], close[:-1]))
    wick = np.abs(eta) * 0.002
    high = np.maximum(opens, close) * (1.0 + wick)
    low = np.minimum(opens, close) * (1.0 - wick)
    volume = 1.0e6 * np.exp(0.5 * z)
    timestamps = np.datetime64("2000-01-03") + np.arange(t)
    return TimeSeriesFrame(
        timestamps=timestamps,
        columns={
            "open": opens,
            "high": high,
            "low": low,
            "close": close,
            "volume": volume,
        },
        source=f"synthetic:{spec.embedding}:strength={spec.strength:g}:seed={spec.seed}",
    )


def dependence_frame(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Reduce an OHLCV frame to the signal/target pair the harness scores.

    The signal is log-volume and the target is the one-step close return;
    the first row is dropped because the return there is undefined.
    """
    signal = np.log(frame.column("volume"))
    ret = returns(frame.column("close"))
    return TimeSeriesFrame(
        timestamps=frame.timestamps[1:],
        columns={"signal": signal[1:], "ret": ret[1:]},
        source=frame.source,
    )


@dataclass(frozen=True)
class MeasureVerification:
    measure_id: str
    embedded_median: float
    control_median: float
    margin: float
    embedded_trials: int
    control_trials: int
    embedded_degenerate: int
    control_degenerate: int
    passed: bool
    inconclusive: bool


@dataclass(frozen=True)
class VerificationReport:
    criterion: str
    window: int
    step: int
    measures: tuple[MeasureVerification, ...]
    embedded_source: str = ""
    control_source: str = ""
    created_utc: str = ""

    @property
    def all_passed(self) -> bool:
        return bool(self.measures) and all(m.passed for m in self.measures)

    @property
    def any_inconclusive(self) -> bool:
        return any(m.inconclusive for m in self.measures)


def _median_se(values: list[float]) -> float:
    med = float(np.median(values))
    mad = float(np.median(np.abs(np.asarray(values) - med)))
    return 1.2533 * 1.4826 * mad / math.sqrt(len(values))


def _noise_margin(embedded_values: list[float], control_values: list[float]) -> float:
    # Three standard errors of the median difference: a bare median
    # comparison would pass about half of all no-coupling runs.
    return 3.0 * math.hypot(_median_se(embedded_values), _median_se(control_values))


def run_verification(
    embedded: TimeSeriesFrame,
    control: TimeSeriesFrame,
    measures: tuple[str, ...] = VERIFY_MEASURES,
    window: int = 100,
    step: int = 50,
    bin_width: float = 0.001,
    feature_bins: int = 8,
) -> VerificationReport:
    """Score each measure on both frames and compare anchor-level medians.

    Both frames are reduced to the log-volume/next-return pair and scanned
    with the same window grid.  A measure with no scorable anchor on either
    side is reported inconclusive rather than failed.
    """
    scans = [
        scan_window(
            dependence_frame(f), window, (("signal",),), ("ret",), measures,
            step=step, horizon=window, bin_width=bin_width, feature_bins=feature_bins,
        )[1]
        for f in (embedded, control)
    ]
    rows = []
    for i, measure in enumerate(measures):
        sides = []
        for scores in scans:
            values = [r[i].value for r in scores if not r[i].degenerate]
            sides.append((values, len(scores) - len(values)))
        (e_vals, e_rej), (c_vals, c_rej) = sides
        inconclusive = not e_vals or not c_vals
        if inconclusive:
            e_med = c_med = margin = math.nan
        else:
            e_med = float(np.median(e_vals))
            c_med = float(np.median(c_vals))
            margin = _noise_margin(e_vals, c_vals)
        rows.append(
            MeasureVerification(
                measure_id=measure,
                embedded_median=e_med,
                control_median=c_med,
                margin=margin,
                embedded_trials=len(e_vals),
                control_trials=len(c_vals),
                embedded_degenerate=e_rej,
                control_degenerate=c_rej,
                passed=e_med > c_med + margin,  # False whenever a median is NaN
                inconclusive=inconclusive,
            )
        )
    return VerificationReport(
        criterion=CRITERION_TEXT,
        window=window,
        step=step,
        measures=tuple(rows),
        embedded_source=embedded.source,
        control_source=control.source,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def run_synthetic_verification(
    spec: SyntheticSpec,
    measures: tuple[str, ...] = VERIFY_MEASURES,
    window: int | None = None,
    step: int = 50,
    bin_width: float = 0.001,
    feature_bins: int = 8,
) -> VerificationReport:
    """Generate an embedded series plus a strength-zero control and verify.

    The window defaults to the planted lag, which is the alignment at which
    the pointwise pairing puts the driver and the coupled return in the
    same pair.  The control draws from a shifted seed so the two series
    share no noise.
    """
    control_spec = replace(spec, strength=0.0, seed=spec.seed + 1)
    embedded = generate_synthetic(spec)
    control = generate_synthetic(control_spec)
    return run_verification(
        embedded,
        control,
        measures=measures,
        window=spec.lag if window is None else window,
        step=step,
        bin_width=bin_width,
        feature_bins=feature_bins,
    )


def write_verification_report(report: VerificationReport, destination=None) -> str | None:
    """Serialize a report as JSON; each measure is its fields, with NaN floats written as null."""
    payload = {
        "criterion": report.criterion,
        "window": report.window,
        "step": report.step,
        "embedded_source": report.embedded_source,
        "control_source": report.control_source,
        "created_utc": report.created_utc,
        "all_passed": report.all_passed,
        "any_inconclusive": report.any_inconclusive,
        "measures": [
            {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in vars(m).items()}
            for m in report.measures
        ],
    }
    return _emit(json.dumps(payload, indent=2) + "\n", destination)
