"""The reference engine the compiled plans are tested against.

``src/`` runs every query one way: a compiled plan (:mod:`repro.perf.compile`).
This package keeps the interpreted operator tree it replaced — textbook
pull operators over ``Expression.bind`` closures — so equivalence tests
can compare the two: :class:`OracleExecutor` for whole queries, and the
operators of :mod:`tests.oracle.operators` for single nodes.  Nothing under
``src/`` imports it (``tests/test_single_executor.py`` checks).
"""

from tests.oracle.executor import OracleExecutor

__all__ = ["OracleExecutor"]
