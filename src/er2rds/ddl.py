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
    through their first attribute.
    An unresolvable reference becomes a comment plus a warning diagnostic.
    The diagnostics of classification come first.
    """
    kinds, owners, diagnostics = classify_relations(schema)

    statements = []
    for relation in schema.relations:
        items: list[tuple[str, str]] = []
        for attr in relation.attributes:
            comment = "" if attr.suffix is None else f"-- {render_suffix(attr.suffix)}"
            items.append((f"{_sql_identifier(attr.display_name())} TEXT", comment))

        pk = [_sql_identifier(a.name) for a in
              relation.attributes[:leading_underline_count(relation)]]
        if pk:
            items.append((f"PRIMARY KEY ({', '.join(pk)})", ""))
        if len(pk) > 1 and kinds.get(relation.name) is RelationKind.REGULAR_ENTITY:
            items.append((f"UNIQUE ({pk[0]})", ""))

        # (column, referenced key) pairs: a dependent relation's owner
        # reference first, then one per suffixed attribute.
        references = [
            (_sql_identifier(attr.name), attr.name) for attr in relation.attributes[:1]
            if kinds.get(relation.name) in (
                RelationKind.SUBTYPE, RelationKind.MULTIVALUED, RelationKind.WEAK)
        ]
        references += [
            (_sql_identifier(attr.display_name()), attr.name)
            for attr in relation.attributes if attr.suffix is not None
        ]
        for column, key in references:
            owner = owners.get(key)
            if owner is None:
                diagnostics.append(
                    Diagnostic("FK", Severity.WARNING,
                               f"no relation owns primary key {key!r}",
                               element=relation.name)
                )
                items.append((f"-- unresolved reference: no relation owns "
                              f"primary key {key}", ""))
            else:
                items.append((f"FOREIGN KEY ({column}) REFERENCES "
                              f"{_sql_identifier(owner)} ({_sql_identifier(key)})", ""))

        lines = [f"CREATE TABLE {_sql_identifier(relation.name)} ("]
        last_definition = max(
            (i for i, (d, _) in enumerate(items) if not d.startswith("--")),
            default=-1,
        )
        for index, (definition, comment) in enumerate(items):
            needs_comma = index < last_definition and not definition.startswith("--")
            suffix = f" {comment}" if comment else ""
            lines.append(f"    {definition}{',' if needs_comma else ''}{suffix}")
        lines.append(");")
        statements.append("\n".join(lines))
    if not statements:
        return "", diagnostics
    return "\n\n".join(statements) + "\n", diagnostics
