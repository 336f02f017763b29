"""Lossless data pipelines with conservation accounting.

Rows are never dropped: every operation routes, tags, enriches, or
merges, and a run's audit proves that each source row reached exactly the
sinks it is charged to, for every declared measure.
"""

from importlib import import_module

from .errors import (
    CollisionAfterRename,
    ExprTypeError,
    FnNotTotal,
    ForbiddenFieldWrite,
    InvalidGraph,
    JoinColumnMissing,
    KindMismatch,
    MissingInput,
    SchemaMismatch,
    TallyError,
    UnknownField,
    UnknownPid,
    UntagMissing,
)
from .values import Missing, Quantity, cell_key, dec4, plain
from .monoid import (
    Kind,
    MonoidElement,
    avg_of,
    count,
    fuse,
    fuse_all,
    leq,
    max_of,
    min_of,
    paccioli,
    set_of,
    sum_of,
    tuple_of,
)
from .relation import (
    FieldSpec,
    IrrelevantPart,
    PathTag,
    Record,
    Relation,
    Schema,
    empty,
    error_schema,
    field_names,
    ingest,
    pids,
    schema,
    schema_field,
    triples,
)
from .space import (
    DataSpace,
    count_space,
    decimal_sum_space,
    paccioli_space,
    quantity_sum_space,
)
from .exprs import (
    All,
    Always,
    AnyOf,
    BinOp,
    Col,
    Compare,
    FieldDefined,
    InSet,
    Lit,
    Not,
    NumOf,
    UnitOf,
)
from .ops import (
    AggSpec,
    aggregate,
    aggregate_schema,
    as_errors,
    dedup,
    fmap,
    lossless_project,
    outer_join,
    partition_detailed,
    rename,
    strip_tags,
    tagged_union,
    untag,
)
from .pipeline import (
    AggregateNode,
    DedupNode,
    ErrorizeNode,
    JoinNode,
    MapNode,
    PartitionNode,
    PipelineGraph,
    ProjectNode,
    RenameNode,
    RunResult,
    Sink,
    Source,
    StripTagsNode,
    TaggedUnionNode,
    TeeNode,
    UntagNode,
    trace,
)
from .audit import (
    attribution_classes,
    audit_document,
    conservation_check,
    dashboard_document,
    render_dashboard,
)

# The query compiler and the fuzzer load on first access (PEP 562), so
# `run` and `check` never import them.
_LAZY = {
    "ra": ("Aggregate", "BaseRelation", "CrossProduct", "Intersect", "Map", "Minus",
           "NaturalJoin", "OuterJoin", "Project", "Rename", "Select", "Union",
           "UnionAll", "equivalence_check", "infer_schema", "reference_eval",
           "translate"),
    "fuzz": ("make_case", "run_fuzz"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
