"""Loopless mixed graphs (arrows, arcs, lines): m-separation, independence
models, and the latent projections onto ribbonless, summary, and ancestral
graphs, with constructive converses and maximality via inducing paths."""

from .core import (
    ARC,
    ARROW,
    HEAD,
    LINE,
    TAIL,
    Edge,
    InvalidLabel,
    LoopEdge,
    MixedGraph,
    MixedGraphError,
    RibbonReport,
    UnknownNode,
    arc,
    arrow,
    classify,
    line,
)
from .independence import (
    GroundMismatch,
    IndependenceModel,
    IndependenceStatement,
    NotInGround,
    TooLarge,
    conforms,
    independence_model,
    marginalise_condition,
    model_diff,
    model_equal,
    model_from_json,
    model_to_json,
)
from .msep import (
    ConnectionQuery,
    NotDisjoint,
    OverlapError,
    PathWitness,
    connecting_path_exists,
    endpoint_identical_connection,
    enumerate_connecting_paths,
    m_separated,
    signature_edges,
)
from .project import (
    NotAncestralGraph,
    NotRibbonless,
    NotSummaryGraph,
    ProjectionSpec,
    SpecInvalid,
    TraceStep,
    project_ag,
    project_rg,
    project_sg,
    render_trace,
    rg_to_sg,
    sg_to_ag,
    table1_closure,
)
from .textfmt import (
    DuplicateEdge,
    GraphDocument,
    ParseError,
    UndeclaredNode,
    document_for,
    document_from_json,
    document_to_json,
    parse_graph,
    serialize_graph,
)
from .witness import (
    DagifyResult,
    NotDagRealizable,
    dag_realizable,
    dagify,
    is_maximal,
    is_maximal_literal,
    maximalize,
    unrealizable_pairs,
)

__version__ = "0.1.0"
