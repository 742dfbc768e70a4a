"""Barrier-coverage restoration for wireless sensor networks.

A library plus protocol simulator and experiment CLI: build the sensing
intersection graph for a deployed belt of sensors, designate a barrier,
and restore it after node failures with either a centralized minimum-cost
relocation scheme, a distributed recovery-node protocol, or the bundled
baselines.
"""
from .baselines import restore_rmove
from .central import (
    AssignmentProblem,
    build_assignment,
    hungarian,
    restore_cmove,
    restore_nmove,
)
from .core import (
    EnergyModel,
    Move,
    MoveExceedsCapacity,
    Point,
    Region,
    RestoreOutcome,
    Sensor,
    World,
    seeded_rng,
    world_from_json,
    world_to_json,
)
from .distributed import (
    Election,
    MessageBus,
    NodeState,
    handle_failure_dmove,
    init_recovery_nodes,
    mldfs,
)
from .graph import (
    PL,
    PR,
    IntersectionGraph,
    SpliceEndpointMismatch,
    build_intersection_graph,
    find_alternate_path,
    find_barrier,
    verify_barrier,
    world_graph,
)
from .harness import (
    ExperimentConfig,
    InitialBarrierImpossible,
    MetricsRow,
    generate_deployment,
    run_experiment,
    run_trial,
    start_scheme,
)

__all__ = [
    "AssignmentProblem",
    "Election",
    "EnergyModel",
    "ExperimentConfig",
    "InitialBarrierImpossible",
    "IntersectionGraph",
    "MessageBus",
    "MetricsRow",
    "Move",
    "MoveExceedsCapacity",
    "NodeState",
    "PL",
    "PR",
    "Point",
    "Region",
    "RestoreOutcome",
    "Sensor",
    "SpliceEndpointMismatch",
    "World",
    "build_assignment",
    "build_intersection_graph",
    "find_alternate_path",
    "find_barrier",
    "generate_deployment",
    "handle_failure_dmove",
    "hungarian",
    "init_recovery_nodes",
    "mldfs",
    "restore_cmove",
    "restore_nmove",
    "restore_rmove",
    "run_experiment",
    "run_trial",
    "seeded_rng",
    "start_scheme",
    "verify_barrier",
    "world_from_json",
    "world_graph",
    "world_to_json",
]

__version__ = "0.1.0"
