"""Relational substrate: schemas, rows, restricted algebra and walks.

Implements the formal machinery of paper §2.2: wrappers as relations with
ID / non-ID attributes, the restricted projection ``Π̃`` and equi-join
``⋈̃`` operators, walks as conjunctive queries, and unions of conjunctive
queries (the output of LAV rewriting).
"""

from repro.relational.algebra import (
    DataProvider, Expression, FinalProject, Join, Project, Scan, Union,
    evaluate,
)
from repro.relational.columnar import ColumnBatch, concat_batches
from repro.relational.physical import (
    CachingScanProvider, PhysicalHashJoin, PhysicalOperator,
    PhysicalProject, PhysicalScan, PhysicalUnion, RelationScanProvider,
    ScanCache, ScanKey, ScanProvider, ScanStats, WrapperScanProvider,
    as_scan_provider,
)
from repro.relational.rows import Relation, render_table
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.walk import JoinCondition, Walk

__all__ = [
    "Attribute", "RelationSchema",
    "Relation", "render_table",
    "ColumnBatch", "concat_batches",
    "DataProvider", "Expression", "FinalProject", "Join", "Project",
    "Scan", "Union", "evaluate",
    "CachingScanProvider", "PhysicalHashJoin",
    "PhysicalOperator", "PhysicalProject", "PhysicalScan",
    "PhysicalUnion", "RelationScanProvider", "ScanCache", "ScanKey",
    "ScanProvider", "ScanStats", "WrapperScanProvider",
    "as_scan_provider",
    "JoinCondition", "Walk",
]
