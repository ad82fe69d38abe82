"""All eight measures score an anchor block in their own modules.

search._Block reaches each measure through one block kernel,
kernel(sets, ys), that scores every (feature set, target) pair of a block:
statistical._pearsons, _spearmans and _distance_correlations,
information._mics and the MI, IG and RSI_SYNERGY kernels that
information._information_kernels builds per block, and model_based._ppss.
What a kernel decides (its codes, ranks, sides, buffers and stacks) stays in
its module, so search.py imports none of the pieces the kernels are made of
and holds none of their constants.
"""
import ast
from pathlib import Path

import numpy as np

from depscope.frame import TimeSeriesFrame
from depscope.measures import information
from depscope.search import scan_window

SEARCH = Path(__file__).resolve().parents[1] / "src" / "depscope" / "search.py"
KERNELS = {
    "_pearsons", "_spearmans", "_distance_correlations", "_mics", "_ppss",
    "_information_kernels",
}
PIECES = {
    "_mic", "_mic_side", "_mic_work", "_pps", "_fit_stack", "_centered_distances",
    "_correlations", "_average_ranks", "_feature_codes", "_fixed_width_codes", "_dense",
    "_Codes", "_joint", "_mutual_information", "_information_gain", "_synergy",
    "_check_set_size", "TOO_WIDE", "TOO_MANY_BINS",
}
BLOCK_METHODS = {
    "_values", "_pairs", "_trial", "_features", "_targets", "_ranks", "_codes",
    "_mutual_information",
}


def test_search_reaches_every_measure_only_through_its_block_kernel():
    tree = ast.parse(SEARCH.read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert KERNELS <= imported
    assert sorted(imported & PIECES) == []
    assert sorted(names & (PIECES | {"_STACK_CELLS"})) == []
    block = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Block"
    )
    methods = {node.name for node in block.body if isinstance(node, ast.FunctionDef)}
    assert sorted(methods & BLOCK_METHODS) == []


def test_information_kernels_code_each_column_once_per_block(monkeypatch):
    """MI, IG and RSI_SYNERGY over overlapping feature sets and two targets, in one block: each
    feature column is coded once, each target once, and each (feature set, target)'s MI, which
    RSI_SYNERGY reads again, is counted once."""
    calls = {"feature": [], "target": [], "mi": 0}
    for name, kind in (("_feature_codes", "feature"), ("_fixed_width_codes", "target")):
        original = getattr(information, name)

        def counted(values, *rest, original=original, kind=kind):
            calls[kind].append(id(values))
            return original(values, *rest)

        monkeypatch.setattr(information, name, counted)
    mutual_information = information._mutual_information

    def counted_mi(x, y):
        calls["mi"] += 1
        return mutual_information(x, y)

    monkeypatch.setattr(information, "_mutual_information", counted_mi)
    rng = np.random.default_rng(5)
    n = 120
    columns = {name: rng.standard_normal(n) for name in ("a", "b", "c", "y", "z")}
    frame = TimeSeriesFrame(np.datetime64("2020-01-01") + np.arange(n), columns)
    sets = (("a",), ("b",), ("a", "b"), ("c", "a", "b"))
    anchors, values, reasons = scan_window(
        frame, 40, sets, ("y", "z"), ("MI", "IG", "RSI_SYNERGY"), step=20, horizon=40,
        bin_width=0.001, feature_bins=8,
    )
    assert len(anchors) == 3 and (reasons == "").all()
    assert len(calls["feature"]) == len(set(calls["feature"])) == 3
    assert len(calls["target"]) == len(set(calls["target"])) == 2
    # MI and RSI_SYNERGY of the four sets and the singles a, b and c, for each target.
    assert calls["mi"] == 2 * (len(sets) + 1)
