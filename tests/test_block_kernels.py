"""DC, MIC and PPS each score an anchor block in their own module.

search._Block reaches each of the three through one block kernel,
kernel(sets, ys), that scores every (feature set, target) pair of a block:
statistical._distance_correlations, information._mics and
model_based._ppss.  What a kernel decides (its sides, buffers and stacks)
stays in its module, so search.py imports none of the pieces the kernels
are made of and holds none of their constants.
"""
import ast
from pathlib import Path

SEARCH = Path(__file__).resolve().parents[1] / "src" / "depscope" / "search.py"
KERNELS = {"_distance_correlations", "_mics", "_ppss"}
PIECES = {"_mic", "_mic_side", "_mic_work", "_pps", "_fit_stack", "_centered_distances"}


def test_search_reaches_dc_mic_and_pps_only_through_their_block_kernels():
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
