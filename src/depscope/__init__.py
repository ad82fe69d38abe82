"""Dependence scanning for financial time series.

The package turns OHLCV histories into windowed feature/target pairs,
scores them with statistical, information-theoretic and model-based
dependence measures, sweeps measure and shaping hyperparameters
exhaustively, and validates the whole chain on synthetic series with
planted couplings.
"""
from .frame import (
    OHLCV_HEADER,
    CsvParseError,
    FrameValidationError,
    TimeSeriesFrame,
    ValidationIssue,
    ValidationReport,
    frames_equal,
    load_ohlcv,
    read_frame,
    validate_frame,
    write_csv,
)
from .indicators import (
    INDICATOR_KINDS,
    IndicatorSpec,
    atr,
    build_feature_matrix,
    ema,
    hma,
    macd,
    obv,
    returns,
    rsi_indicator,
    standard_indicator_specs,
    wma,
)
from .measures import (
    MEASURE_IDS,
    VALUE_RANGES,
    DiscreteDistribution,
    JointHistogram,
    MeasureResult,
    RegressionTree,
    conditional_entropy,
    degenerate_result,
    distance_correlation,
    entropy,
    equal_frequency_symbols,
    fit_regression_tree,
    information_gain,
    mic,
    mutual_information,
    naive_median_mae,
    pearson,
    pps,
    redundancy_synergy_index,
    spearman,
)
from .search import (
    SearchSpace,
    TrialLog,
    TrialRecord,
    RankingReport,
    config_key,
    correlate_measure_with_scores,
    default_search_space,
    evaluate_pairs,
    label_trend,
    rank_hyperparameters,
    read_trial_log_csv,
    run_grid_search,
    write_parallel_coordinates,
    write_trial_log_csv,
    write_trial_log_json,
)
from .shaping import (
    ShapedDataset,
    WindowSample,
    discretize,
    make_sliding_windows,
    pair_arrays,
    pair_samples,
    window_count,
)
from .verify import (
    EMBEDDINGS,
    MeasureVerification,
    SyntheticSpec,
    VerificationReport,
    dependence_frame,
    generate_synthetic,
    run_synthetic_verification,
    run_verification,
    write_verification_report,
)

__version__ = "0.1.0"
