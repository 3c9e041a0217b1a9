"""The storage substrate: relations, indexes, catalog and statistics."""

from .catalog import Database
from .index import HashIndex
from .loader import dump_facts_text, load_facts_file, load_facts_text, load_tsv, load_tsv_file
from .relation import DerivedRelation, Relation, Row, relation_from_rows
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
    "DerivedRelation",
    "HashIndex",
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
