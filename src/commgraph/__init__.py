"""Commuting graphs of finite partial transformation semigroups.

Core algebra (partial self-maps with right-action composition), text
notations, implicit commuting-graph queries, BFS distances and diameters,
move-graph connectivity certificates, and machine-checked replays of the
distance lower-bound constructions.
"""

from .ptrans import (
    UNDEF,
    ElementId,
    PTrans,
    SizeMismatchError,
    compose,
    empty,
    identity,
    idempotent_power,
    partial_identity,
    point_map,
    power,
)
from .notation import (
    ParseError,
    format_cycles,
    format_tabular,
    parse_chain_cycle,
    parse_element,
    parse_idempotent,
    parse_tabular,
)
from .commuting import (
    BudgetExceededError,
    CommGraph,
    NotAVertexError,
    Universe,
    center,
    centralizer,
    commutes,
    is_vertex,
    neighbors,
)
from .graphalg import (
    EXCEEDS_CAP,
    INFINITE,
    ComponentSummary,
    DiameterReport,
    PathCertificate,
    bfs_distance,
    connected_components,
    diameter,
    shortest_path,
    verify_path,
)
from .unified import (
    ConnectorCertificate,
    ConnectorVerdict,
    UnifiedGraph,
    UnionFind,
    build_unified,
    certify_no_partial_connector,
    export_dot,
    is_connected,
    partial_connector_bruteforce,
)
from .witness import (
    ReplayReport,
    ReplayStep,
    WitnessCase,
    WitnessFamily,
    chain_cycle_parts,
    forced_idempotent,
    make_chain_cycle,
    replay_lower_bound,
    scan_common_commuters,
    upper_bound_limit,
    upper_bound_path,
    witness_pair,
)

__version__ = "0.1.0"
