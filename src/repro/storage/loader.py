"""Loading facts into the database from LDL text or delimited files.

Facts written in rule syntax (``up(a, b).``) are the native interchange
format; :func:`load_facts_text` parses them with the full term grammar, so
complex terms (``assembly(bike, wheel(front)).``) round-trip.  A minimal
TSV path is provided for bulk numeric/string data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..datalog.parser import parse_program
from ..datalog.terms import Constant
from ..errors import KnowledgeBaseError
from .catalog import Database


def parse_facts_text(source: str) -> dict[str, list]:
    """``pred(args).`` fact statements as argument rows per predicate, in
    order of first appearance.  Every statement must be a ground fact (no
    body, no variables); anything else raises :class:`KnowledgeBaseError`."""
    by_predicate: dict[str, list] = {}
    for rule in parse_program(source):
        if not rule.is_fact:
            raise KnowledgeBaseError(f"not a fact: {rule}")
        if rule.head.variables:
            raise KnowledgeBaseError(f"fact contains variables: {rule}")
        by_predicate.setdefault(rule.head.predicate, []).append(rule.head.args)
    return by_predicate


def load_facts_text(db: Database, source: str) -> int:
    """Parse fact statements (:func:`parse_facts_text`) and insert them
    into *db*.  Returns the number of newly inserted tuples."""
    return sum(len(db.add(name, rows)) for name, rows in parse_facts_text(source).items())


def load_facts_file(db: Database, path: str | Path) -> int:
    """Load an LDL fact file from disk."""
    return load_facts_text(db, Path(path).read_text())


def _parse_field(text: str) -> Constant:
    """TSV field -> constant: int, then float, then string."""
    try:
        return Constant(int(text))
    except ValueError:
        pass
    try:
        return Constant(float(text))
    except ValueError:
        pass
    return Constant(text)


def load_tsv(db: Database, name: str, lines: Iterable[str], delimiter: str = "\t") -> int:
    """Load delimited rows (one tuple per line) into relation *name*."""
    rows = []
    for line in lines:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        rows.append(tuple(_parse_field(field) for field in line.split(delimiter)))
    return len(db.add(name, rows)) if rows else 0


def load_tsv_file(db: Database, name: str, path: str | Path, delimiter: str = "\t") -> int:
    """Load a delimited file from disk into relation *name*."""
    with open(path) as handle:
        return load_tsv(db, name, handle, delimiter)


def dump_facts_text(db: Database, names: Iterable[str] | None = None) -> str:
    """Serialize relations back to LDL fact syntax (sorted, stable)."""
    names = sorted(names if names is not None else db.names)
    lines: list[str] = []
    for name in names:
        relation = db.relation(name)
        rendered = sorted(
            f"{name}({', '.join(str(field) for field in row)})." for row in relation
        )
        lines.extend(rendered)
    return "\n".join(lines) + ("\n" if lines else "")
