"""One executor, kept that way.

``src/`` runs every query as a compiled plan and every pattern on compiled
predicates; the interpreted operator tree lives in ``tests/oracle/`` as the
reference the equivalence tests compare against.  This guard reads the
source tree's syntax and the public constructors, so a second execution
path (or a knob to choose one) fails here before it can grow back.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import repro.engine
from repro.cep.engine import PatternEngine
from repro.core.strategies import PipelineConfig
from repro.engine.executor import QueryExecutor

SRC = Path(__file__).resolve().parents[1] / "src"
KNOBS = {"compiled", "compiled_plans"}


def modules():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path.relative_to(SRC), tree


def test_no_src_module_imports_tests():
    found = []
    for rel, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [(rel, node.lineno, n) for n in names if n.split(".")[0] == "tests"]
    assert found == []


def test_no_src_function_takes_a_compiled_knob():
    found = []
    for rel, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                found += [(rel, node.lineno, p.arg) for p in params if p.arg in KNOBS]
    assert found == []


def test_executor_engine_and_config_accept_no_compiled_knob():
    for ctor in (QueryExecutor, PatternEngine, PipelineConfig):
        assert not KNOBS & set(inspect.signature(ctor).parameters), ctor
    assert not KNOBS & {f.name for f in dataclasses.fields(PipelineConfig)}


def test_engine_exports_no_physical_operator():
    exported = [getattr(repro.engine, name) for name in repro.engine.__all__]
    operators = [
        obj.__name__
        for obj in exported
        if inspect.isclass(obj)
        and any(base.__name__ == "PhysicalOperator" for base in obj.__mro__)
    ]
    assert operators == []
    assert not (SRC / "repro" / "engine" / "operators.py").exists()


def test_execute_interpreted_is_defined_nowhere_in_src():
    found = [
        (rel, node.lineno)
        for rel, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "execute_interpreted"
    ]
    assert found == []
