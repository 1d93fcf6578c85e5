"""The mini continuous-query engine (TelegraphCQ stand-in).

Schemas and stream tuples, scalar expressions, time windows, an
object-relational UDF/UDT registry, a catalog, and a window-at-a-time
executor that runs every query as a compiled plan.  The Data Triage layer
sits entirely *outside* this engine, exactly as the paper's implementation
sits outside the TelegraphCQ core.
"""

from repro.engine.catalog import SYNOPSIS_STREAM_SCHEMA, Catalog, CatalogError, StreamDef
from repro.engine.executor import (
    ContinuousQuery,
    QueryExecutor,
    QueryResult,
    WindowResult,
)
from repro.engine.explain import explain
from repro.engine.expressions import (
    AggregateSpec,
    BinaryOp,
    ColumnRef,
    Expression,
    ExpressionError,
    FunctionCall,
    Literal,
    UnaryOp,
    conjoin,
    conjuncts,
)
from repro.engine.types import (
    Column,
    ColumnType,
    Schema,
    SchemaError,
    StreamTuple,
    parse_type_name,
)
from repro.engine.udf import FunctionSignature, UDFError, UDFRegistry
from repro.engine.window import WindowSpec, assign_windows, parse_window_clause

__all__ = [
    "Catalog",
    "CatalogError",
    "StreamDef",
    "SYNOPSIS_STREAM_SCHEMA",
    "ContinuousQuery",
    "QueryExecutor",
    "QueryResult",
    "WindowResult",
    "BinaryOp",
    "ColumnRef",
    "Expression",
    "ExpressionError",
    "FunctionCall",
    "Literal",
    "UnaryOp",
    "conjoin",
    "conjuncts",
    "AggregateSpec",
    "Column",
    "ColumnType",
    "Schema",
    "SchemaError",
    "StreamTuple",
    "parse_type_name",
    "FunctionSignature",
    "UDFError",
    "UDFRegistry",
    "WindowSpec",
    "assign_windows",
    "parse_window_clause",
    "explain",
]
