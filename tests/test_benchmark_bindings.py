"""The benchmark's layer map still finds every name it wraps.

perfbench/layers.py traces a run by replacing module attributes of depscope
by name.  A name that moves or goes away only fails traced benchmark runs,
so this test fails instead.  It reads perfbench/ and changes nothing there.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_boundary_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    targets = layers.layer_targets()
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
