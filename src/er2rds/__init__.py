"""er2rds: compile ER models to annotated relational schemas and back.

The pipeline is parse_er -> validate_notation -> transform_model ->
emit_rds, and in the other direction parse_rds -> reverse_transform ->
emit_er.  run_roundtrip chains both directions and checks that nothing was
lost; render_ddl projects a schema onto CREATE TABLE statements.  All
functions are pure apart from the CLI, which owns the I/O.
"""

from .ddl import render_ddl
from .er_text import emit_er, parse_er
from .errors import (
    BadSideChoice,
    PrerequisiteFailed,
    TransformError,
)
from .forward import TraceEntry, TransformConfig, transform_model
from .model import (
    Attribute,
    AttributeKind,
    CardinalityPair,
    Diagnostic,
    ERModel,
    FkSuffix,
    RatioKind,
    RdsAttribute,
    RegularEntityType,
    Relation,
    RelationalSchema,
    RelationshipEndpoint,
    RelationshipType,
    Severity,
    Subtype,
    WeakEntityType,
    format_diagnostic,
    has_errors,
    ratio_class,
)
from .rds_text import emit_rds, parse_rds
from .reverse import (
    RelationKind,
    RoundtripReport,
    canonical_model,
    classify_relations,
    model_diff,
    normalize_model,
    reconstruct_sog_choices,
    reverse_transform,
    run_roundtrip,
)
from .validator import validate_notation

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "AttributeKind",
    "BadSideChoice",
    "CardinalityPair",
    "Diagnostic",
    "ERModel",
    "FkSuffix",
    "PrerequisiteFailed",
    "RatioKind",
    "RdsAttribute",
    "RegularEntityType",
    "Relation",
    "RelationalSchema",
    "RelationKind",
    "RelationshipEndpoint",
    "RelationshipType",
    "RoundtripReport",
    "Severity",
    "Subtype",
    "TraceEntry",
    "TransformConfig",
    "TransformError",
    "WeakEntityType",
    "canonical_model",
    "classify_relations",
    "emit_er",
    "emit_rds",
    "format_diagnostic",
    "has_errors",
    "model_diff",
    "normalize_model",
    "parse_er",
    "parse_rds",
    "ratio_class",
    "reconstruct_sog_choices",
    "render_ddl",
    "reverse_transform",
    "run_roundtrip",
    "transform_model",
    "validate_notation",
    "__version__",
]
