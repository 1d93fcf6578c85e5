"""One way into a triage queue, kept that way.

``TriageQueue.offer_bulk`` is the queue's only intake and ``TriageCore`` its
only caller in ``src/``: drivers stage arrivals with ``TriageCore.offer`` and
the core flushes them.  Head tracking is the core's own business, so no
module outside it calls a sync method.  This guard reads the source tree's
syntax, so a second intake path fails here before it can grow back.
"""

import ast
from pathlib import Path

from repro.core.triage_core import TriageCore
from repro.core.triage_queue import TriageQueue

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = Path("repro/core/triage_core.py")
SYNC_METHODS = {"sync", "sync_all", "_sync"}


def attribute_calls(names):
    """``(module path, line, method)`` of every ``<expr>.<name>(...)`` call."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in names
            ):
                found.append((path.relative_to(SRC), node.lineno, node.func.attr))
    return found


def test_only_the_core_calls_offer_bulk():
    calls = attribute_calls({"offer_bulk"})
    assert calls, "the core's flush must call offer_bulk"
    assert [c for c in calls if c[0] != CORE] == []


def test_no_module_outside_the_core_calls_a_sync_method():
    assert [c for c in attribute_calls(SYNC_METHODS) if c[0] != CORE] == []


def test_the_queue_and_the_core_expose_one_intake():
    assert not hasattr(TriageQueue, "offer")
    assert not hasattr(TriageCore, "sync")
    assert not hasattr(TriageCore, "sync_all")
