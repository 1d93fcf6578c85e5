"""Public-API hygiene: every subpackage imports cleanly and honours __all__."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro.algebra",
    "repro.engine",
    "repro.sql",
    "repro.rewrite",
    "repro.synopses",
    "repro.core",
    "repro.sources",
    "repro.service",
    "repro.quality",
    "repro.viz",
    "repro.experiments",
    "repro.cli",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_imports_cleanly(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize(
    "name",
    [n for n in SUBPACKAGES if n not in ("repro.experiments", "repro.cli")],
)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


def test_every_module_importable():
    """Walk the whole package: no module may fail to import."""
    failures = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            importlib.import_module(info.name)
        except Exception as exc:  # noqa: BLE001 - collected for the report
            failures.append((info.name, exc))
    assert not failures, failures


def test_version_declared():
    assert repro.__version__


def test_public_symbols_have_docstrings():
    """Every exported class/function carries a docstring (deliverable e)."""
    import inspect

    missing = []
    for name in SUBPACKAGES:
        if name in ("repro.experiments", "repro.cli"):
            continue
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if (
                inspect.isclass(obj) or inspect.isfunction(obj)
            ) and not getattr(obj, "__doc__", None):
                missing.append(f"{name}.{symbol}")
    assert not missing, f"undocumented public symbols: {missing}"


def test_engine_exports_one_executor():
    """``repro.engine`` offers the compiled-plan executor and nothing to pick
    another one with: no operator classes (they are the tests' oracle now)
    and no error type that only the removed interpreter raised."""
    import repro.engine

    exported = set(repro.engine.__all__)
    assert {"QueryExecutor", "ContinuousQuery", "AggregateSpec"} <= exported
    removed = {
        "PhysicalOperator", "Scan", "Filter", "Project", "HashJoin",
        "NestedLoopJoin", "HashAggregate", "UnionAll", "ExecutionError",
    }
    assert not removed & exported
    assert not any(hasattr(repro.engine, name) for name in removed)
