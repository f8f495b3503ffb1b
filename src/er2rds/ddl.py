"""DDL projection: an annotated relational schema as CREATE TABLE statements."""

from __future__ import annotations

from .model import Diagnostic, RelationalSchema, Severity, leading_underline_count
from .rds_text import render_suffix
from .reverse import RelationKind, classify_relations


# SQLite's keywords (https://www.sqlite.org/lang_keywords.html), in upper case.
_SQL_KEYWORDS = frozenset("""
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH AUTOINCREMENT
    BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE COLUMN COMMIT CONFLICT
    CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE CURRENT_TIME CURRENT_TIMESTAMP
    DATABASE DEFAULT DEFERRABLE DEFERRED DELETE DESC DETACH DISTINCT DO DROP EACH
    ELSE END ESCAPE EXCEPT EXCLUDE EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST
    FOLLOWING FOR FOREIGN FROM FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE
    IMMEDIATE IN INDEX INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS
    ISNULL JOIN KEY LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING
    NOTNULL NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA
    PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX RELEASE
    RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS SAVEPOINT SELECT SET
    TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION TRIGGER UNBOUNDED UNION UNIQUE
    UPDATE USING VACUUM VALUES VIEW VIRTUAL WHEN WHERE WINDOW WITH WITHOUT
""".split())


def _sql_identifier(name: str) -> str:
    quote = not name.isalnum() or name.upper() in _SQL_KEYWORDS
    return f'"{name}"' if quote else name


def render_ddl(schema: RelationalSchema) -> tuple[str, list[Diagnostic]]:
    """Project the schema onto CREATE TABLE statements.

    Every column is a TEXT placeholder; leading underlined attributes form
    the primary key.  A regular relation whose primary key is composite also
    declares its first attribute, the designated key, UNIQUE: every
    reference points at that key alone, and SQL requires a referenced
    column set to be a primary key or unique.  Each suffixed attribute
    becomes a foreign key against the regular relation owning the referenced
    key (prefix stripped), with its suffix preserved as a trailing comment.
    Subtype, multivalued, and weak relations also reference their owner
    through their first attribute.  An unresolvable reference becomes a
    comment line and an FK warning, which follows the findings of the two
    walks of ``classify_relations``, in their order: repeated names and
    shape errors, then keys owned twice, then dependent readings.
    """
    kinds, owners, diagnostics = classify_relations(schema)
    dependent = (RelationKind.SUBTYPE, RelationKind.MULTIVALUED, RelationKind.WEAK)
    statements = []
    for relation in schema.relations:
        attributes, kind = relation.attributes, kinds.get(relation.name)
        # (definition, trailing comment) lines: a column, a key, a foreign
        # key, or an unresolved reference, which has no definition.
        lines = [(f"{_sql_identifier(a.display_name())} TEXT",
                  "" if a.suffix is None else f"-- {render_suffix(a.suffix)}")
                 for a in attributes]
        pk = [_sql_identifier(a.name)
              for a in attributes[:leading_underline_count(relation)]]
        if pk:
            lines.append((f"PRIMARY KEY ({', '.join(pk)})", ""))
        if len(pk) > 1 and kind is RelationKind.REGULAR_ENTITY:
            lines.append((f"UNIQUE ({pk[0]})", ""))
        # (column, referenced key) pairs: a dependent relation's owner
        # reference first, then one per suffixed attribute.
        references = [(a.display_name(), a.name) for a in attributes
                      if a.suffix is not None]
        if kind in dependent:
            references.insert(0, (attributes[0].name, attributes[0].name))
        for column, key in references:
            owner = owners.get(key)
            if owner is None:
                diagnostics.append(Diagnostic("FK", Severity.WARNING,
                                              f"no relation owns primary key {key!r}",
                                              element=relation.name))
                lines.append(("", f"-- unresolved reference: no relation owns "
                                  f"primary key {key}"))
            else:
                lines.append((f"FOREIGN KEY ({_sql_identifier(column)}) REFERENCES "
                              f"{_sql_identifier(owner)} ({_sql_identifier(key)})", ""))
        last = max((i for i, (definition, _) in enumerate(lines) if definition),
                   default=-1)
        statement = [f"CREATE TABLE {_sql_identifier(relation.name)} ("]
        for index, (definition, comment) in enumerate(lines):
            if definition and index < last:
                definition += ","
            statement.append("    " + " ".join(filter(None, (definition, comment))))
        statements.append("\n".join([*statement, ");"]))
    if not statements:
        return "", diagnostics
    return "\n\n".join(statements) + "\n", diagnostics
