"""Lossless data pipelines with conservation accounting.

Rows are never dropped: every operation routes, tags, enriches, or
merges, and a run's audit proves that each source row reached exactly the
sinks it is charged to, for every declared measure.
"""

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
    UnknownGroup,
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
    paccioli_of_signed,
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
    SumSchema,
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
    quantity_units,
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
    Truth,
    UnitOf,
    eval_expr,
    eval_pred,
    holds,
)
from .ops import (
    AggSpec,
    aggregate,
    aggregate_schema,
    as_errors,
    dedup,
    drill_down,
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
from .ra import (
    Aggregate,
    BaseRelation,
    CrossProduct,
    Intersect,
    Map,
    Minus,
    NaturalJoin,
    OuterJoin,
    Project,
    Rename,
    Select,
    Union,
    UnionAll,
    decode_query,
    encode_query,
    equivalence_check,
    infer_schema,
    reference_eval,
    translate,
)
from .fuzz import make_case, run_fuzz

__version__ = "0.1.0"
