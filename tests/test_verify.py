import json

import numpy as np
import pytest

from depscope.frame import frames_equal
from depscope.indicators import returns
from depscope.measures import pearson
from depscope.verify import (
    CRITERION_TEXT,
    SyntheticSpec,
    dependence_frame,
    generate_synthetic,
    run_synthetic_verification,
    run_verification,
    write_verification_report,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(length=200)
    with pytest.raises(ValueError):
        SyntheticSpec(embedding="fourier")
    with pytest.raises(ValueError):
        SyntheticSpec(length=400, lag=0)
    with pytest.raises(ValueError):
        SyntheticSpec(length=400, lag=101)
    with pytest.raises(ValueError):
        SyntheticSpec(strength=1.5)


def test_none_embedding_ignores_strength():
    quiet = SyntheticSpec(length=400, embedding="none", lag=30, strength=1.0, seed=9)
    control = SyntheticSpec(length=400, embedding="linear_lag", lag=30, strength=0.0, seed=9)
    assert frames_equal(generate_synthetic(quiet), generate_synthetic(control))


def test_generated_frame_is_coherent_ohlcv():
    frame = generate_synthetic(SyntheticSpec(length=500, seed=3))
    assert len(frame) == 500
    assert frame.column_names == ("open", "high", "low", "close", "volume")
    o, h, l, c = (frame.column(k) for k in ("open", "high", "low", "close"))
    assert (h >= np.maximum(o, c)).all()
    assert (l <= np.minimum(o, c)).all()
    assert (c > 0).all() and (frame.column("volume") > 0).all()
    assert o[0] == 100.0
    np.testing.assert_array_equal(o[1:], c[:-1])
    days = np.diff(frame.timestamps).astype(int)
    assert (days == 1).all()


def test_generation_is_seed_deterministic():
    spec = SyntheticSpec(length=400, lag=30, seed=9)
    assert frames_equal(generate_synthetic(spec), generate_synthetic(spec))
    other = SyntheticSpec(length=400, lag=30, seed=10)
    assert not frames_equal(generate_synthetic(spec), generate_synthetic(other))


def test_linear_coupling_sits_at_the_planted_lag():
    spec = SyntheticSpec(length=900, embedding="linear_lag", lag=40, strength=1.0, seed=4)
    d = dependence_frame(generate_synthetic(spec))
    sig = d.column("signal")
    ret = d.column("ret")
    aligned = pearson(sig[: -spec.lag], ret[spec.lag :])
    assert aligned.value > 0.999999
    shifted = pearson(sig[: -(spec.lag + 7)], ret[spec.lag + 7 :])
    assert abs(shifted.value) < 0.2


def test_rows_before_the_lag_are_pure_noise():
    spec = SyntheticSpec(length=400, embedding="linear_lag", lag=50, strength=1.0, seed=5)
    with_coupling = generate_synthetic(spec)
    noise_only = generate_synthetic(
        SyntheticSpec(length=400, embedding="linear_lag", lag=50, strength=0.0, seed=5)
    )
    np.testing.assert_array_equal(
        with_coupling.column("close")[:50], noise_only.column("close")[:50]
    )
    assert not np.array_equal(
        with_coupling.column("close")[50:], noise_only.column("close")[50:]
    )


def test_nonlinear_coupling_is_invisible_to_linear_correlation():
    spec = SyntheticSpec(length=1500, embedding="nonlinear_lag", lag=25, strength=1.0, seed=6)
    d = dependence_frame(generate_synthetic(spec))
    sig = d.column("signal")[: -spec.lag]
    ret = d.column("ret")[spec.lag :]
    assert abs(pearson(sig, ret).value) < 0.15
    centered = (sig - sig.mean()) ** 2
    assert pearson(centered, ret).value > 0.9


def test_regime_coupling_toggles_in_blocks():
    spec = SyntheticSpec(
        length=1200, embedding="regime_pattern", lag=10, strength=1.0, seed=7
    )
    frame = generate_synthetic(spec)
    r = returns(frame.column("close"))
    z = 2.0 * np.log(frame.column("volume") / 1.0e6)
    t = np.arange(1200)
    on = (t >= 10) & ((t // 100) % 2 == 0)
    off = (t >= 10) & ((t // 100) % 2 == 1)
    coupled = pearson(z[t[on] - 10], r[t[on]])
    uncoupled = pearson(z[t[off] - 10], r[t[off]])
    assert coupled.value > 0.999
    assert abs(uncoupled.value) < 0.1


def test_dependence_frame_columns():
    frame = generate_synthetic(SyntheticSpec(length=350, lag=40, seed=8))
    d = dependence_frame(frame)
    assert len(d) == 349
    assert d.column_names == ("signal", "ret")
    np.testing.assert_allclose(d.column("signal"), np.log(frame.column("volume")[1:]))
    np.testing.assert_allclose(d.column("ret"), returns(frame.column("close"))[1:])


def test_verification_report_structure_and_pass():
    spec = SyntheticSpec(length=1200, embedding="linear_lag", lag=60, strength=1.0, seed=9)
    report = run_synthetic_verification(spec, measures=("PC", "MI"), step=30)
    assert report.criterion == CRITERION_TEXT
    assert report.window == 60  # defaults to the planted lag
    assert report.step == 30
    assert [m.measure_id for m in report.measures] == ["PC", "MI"]
    for m in report.measures:
        assert not m.inconclusive
        assert m.passed
        assert m.embedded_median > m.control_median + m.margin
        assert m.embedded_trials > 0 and m.control_trials > 0
    assert report.all_passed
    assert report.embedded_source != report.control_source


def test_no_coupling_run_usually_fails_the_margin():
    spec = SyntheticSpec(length=1200, embedding="linear_lag", lag=60, strength=0.0, seed=10)
    report = run_synthetic_verification(spec, measures=("PC", "MI", "DC"), step=30)
    assert not report.all_passed


def test_control_runs_rarely_pass():
    """Across 50 seeded coupling-free runs, false passes stay at or under 10% per measure."""
    measures = ("PC", "MI", "DC", "MIC")
    false_passes = {m: 0 for m in measures}
    for seed in range(50):
        spec = SyntheticSpec(
            length=1000, embedding="linear_lag", lag=100, strength=0.0, seed=seed
        )
        report = run_synthetic_verification(spec, measures=measures, step=50)
        for m in report.measures:
            false_passes[m.measure_id] += int(m.passed)
    for measure_id, count in false_passes.items():
        assert count <= 5, f"{measure_id} false-passed {count}/50 control runs"


def test_linear_detection_strengthens_with_strength():
    """Median embedded Pearson score over 20 seeds never drops as strength rises."""
    medians = []
    for strength in (0.0, 0.5, 1.0):
        scores = []
        for seed in range(20):
            spec = SyntheticSpec(
                length=1000, embedding="linear_lag", lag=100, strength=strength, seed=seed
            )
            report = run_synthetic_verification(spec, measures=("PC",), step=50)
            scores.append(report.measures[0].embedded_median)
        medians.append(float(np.median(scores)))
    assert medians[0] <= medians[1] <= medians[2]
    assert medians[2] > 0.99


def test_unscorable_window_is_inconclusive_not_failed():
    spec = SyntheticSpec(length=400, embedding="linear_lag", lag=6, strength=1.0, seed=11)
    report = run_synthetic_verification(spec, measures=("MIC",), step=50)
    m = report.measures[0]
    assert m.inconclusive
    assert not m.passed
    assert m.embedded_trials == 0
    assert m.embedded_degenerate > 0
    assert np.isnan(m.embedded_median)
    assert report.any_inconclusive and not report.all_passed


def test_explicit_frames_and_window_override():
    embedded = generate_synthetic(
        SyntheticSpec(length=900, embedding="linear_lag", lag=45, strength=1.0, seed=12)
    )
    control = generate_synthetic(
        SyntheticSpec(length=900, embedding="linear_lag", lag=45, strength=0.0, seed=13)
    )
    report = run_verification(embedded, control, measures=("PC",), window=45, step=45)
    assert report.measures[0].passed
    misaligned = run_verification(embedded, control, measures=("PC",), window=20, step=45)
    assert not misaligned.measures[0].passed


def test_report_serialization(tmp_path):
    spec = SyntheticSpec(length=600, embedding="linear_lag", lag=30, strength=1.0, seed=14)
    report = run_synthetic_verification(spec, measures=("PC", "MIC"), step=30)
    text = write_verification_report(report)
    payload = json.loads(text)
    assert payload["criterion"] == CRITERION_TEXT
    assert payload["all_passed"] == report.all_passed
    assert len(payload["measures"]) == 2
    target = tmp_path / "report.json"
    write_verification_report(report, target)
    assert json.loads(target.read_text()) == payload


def test_nan_medians_serialize_as_null():
    spec = SyntheticSpec(length=400, embedding="linear_lag", lag=6, strength=1.0, seed=15)
    report = run_synthetic_verification(spec, measures=("MIC",), step=50)
    payload = json.loads(write_verification_report(report))
    entry = payload["measures"][0]
    assert entry["embedded_median"] is None
    assert entry["inconclusive"] is True
