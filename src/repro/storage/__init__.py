"""The storage substrate: relations, catalog and statistics."""

from .catalog import Database
from .loader import dump_facts_text, load_facts_file, load_facts_text, load_tsv, load_tsv_file
from .relation import Relation, Row, relation_from_rows
from .statistics import (
    ColumnStats,
    DeclaredStatistics,
    RelationStats,
    StatisticsProvider,
    collect_statistics,
)

__all__ = [
    "ColumnStats",
    "Database",
    "DeclaredStatistics",
    "Relation",
    "RelationStats",
    "Row",
    "StatisticsProvider",
    "collect_statistics",
    "dump_facts_text",
    "load_facts_file",
    "load_facts_text",
    "load_tsv",
    "load_tsv_file",
    "relation_from_rows",
]
