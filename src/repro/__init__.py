"""repro — Fault-Tolerant Labeling and Compact Routing Schemes.

A complete reproduction of Dory & Parter, "Fault-Tolerant Labeling and
Compact Routing Schemes" (PODC 2021, arXiv:2106.00374): both FT
connectivity labeling schemes, FT approximate distance labels, the
forbidden-set and fault-tolerant compact routing schemes with
load-balanced tables, the Ω(f) stretch lower bound, and every substrate
they rely on (cycle-space sampling, linear graph sketches, tree covers,
Thorup–Zwick tree routing, a port-based network simulator) — plus a
serving layer (:mod:`repro.serving`) that caches fault-set partitions,
batches query streams and shards them across processes, an
array-native routing plane (:mod:`repro.routing`) with batched
``route_many``, and a traffic subsystem (:mod:`repro.traffic`) for
workload generation and churn simulation.

Quickstart::

    from repro import generators, FaultTolerantConnectivity

    g = generators.random_connected_graph(200, extra_edges=300, seed=1)
    labels = FaultTolerantConnectivity(g, f=4)
    labels.connected(0, 100, faults=[5, 17, 33])   # True/False, w.h.p.

See README.md for the full tour and docs/ARCHITECTURE.md for the
end-to-end data flow.
"""

from repro.graph import generators
from repro.graph.graph import Edge, Graph, InducedSubgraph
from repro.core.api import (
    FaultTolerantConnectivity,
    FaultTolerantDistance,
    FaultTolerantRouting,
)
from repro.core.cycle_space_scheme import CycleSpaceConnectivityScheme
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.core.forest_scheme import ForestConnectivityScheme
from repro.core.distance_labels import DistanceLabelScheme
from repro.oracles import ConnectivityOracle, DistanceOracle
from repro.scenarios import FaultScenario
from repro.serving import PartitionCache, ShardedQueryService

__version__ = "1.0.0"

__all__ = [
    "Edge",
    "Graph",
    "InducedSubgraph",
    "generators",
    "FaultTolerantConnectivity",
    "FaultTolerantDistance",
    "FaultTolerantRouting",
    "CycleSpaceConnectivityScheme",
    "SketchConnectivityScheme",
    "ForestConnectivityScheme",
    "DistanceLabelScheme",
    "ConnectivityOracle",
    "DistanceOracle",
    "FaultScenario",
    "PartitionCache",
    "ShardedQueryService",
    "__version__",
]
