"""The benchmark's wrap points still exist where it looks for them.

``benchmarks/e2e/layers.py`` times the program from outside by replacing
``vars(owner)[attr]`` for every entry of ``targets()``.  Renaming a wrapped
callable, or hoisting it into a base class, would silently zero a
``BENCHMARK.json`` layer; the harness's own tests live outside tier-1, so
this is where such a refactor fails first.
"""

import importlib.util
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def load_harness_module(monkeypatch, name):
    """Import ``benchmarks/e2e/<name>.py`` for the duration of one test."""
    spec = importlib.util.spec_from_file_location(name, E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_callable_resolves_on_its_owner(monkeypatch):
    load_harness_module(monkeypatch, "spans")  # layers imports it by name
    layers = load_harness_module(monkeypatch, "layers")
    targets = layers.targets()
    assert targets
    missing = [
        f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
        for t in targets
        if t.attr not in vars(t.owner)
    ]
    assert missing == []
