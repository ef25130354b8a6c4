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

from importlib import import_module

__version__ = "1.0.0"

#: exported name -> the module defining it.  Names are imported on
#: first use (PEP 562), so ``import repro.server.server`` — a front
#: door that only routes frames — loads neither numpy nor the decoders.
_EXPORTS = {
    "Edge": "repro.graph.graph",
    "Graph": "repro.graph.graph",
    "InducedSubgraph": "repro.graph.graph",
    "generators": "repro.graph.generators",
    "FaultTolerantConnectivity": "repro.core.api",
    "FaultTolerantDistance": "repro.core.api",
    "FaultTolerantRouting": "repro.core.api",
    "CycleSpaceConnectivityScheme": "repro.core.cycle_space_scheme",
    "SketchConnectivityScheme": "repro.core.sketch_scheme",
    "ForestConnectivityScheme": "repro.core.forest_scheme",
    "DistanceLabelScheme": "repro.core.distance_labels",
    "ConnectivityOracle": "repro.oracles",
    "DistanceOracle": "repro.oracles",
    "FaultScenario": "repro.scenarios",
    "PartitionCache": "repro.serving",
    "ShardedQueryService": "repro.serving",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(module)
    if not module.endswith("." + name):  # ``generators`` is the module itself
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
