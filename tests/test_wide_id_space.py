"""Wide identifier spaces: family auto-selection end to end.

The m61 tentpole retired the 46341-id ceiling, but the contract has two
sides: (a) every workload that fit before must keep producing
*bit-identical* labels on the legacy m31 family (snapshots from older
releases decode unchanged), and (b) instances past the cap — which the
seed code rejected with a ValueError — must now build, answer
oracle-validated ``query_many``, and route.  These tests pin both
sides, plus the layout half of the tentpole: the ragged change-point
prefix store answers exactly like the dense tensor it replaces.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.oracles import ConnectivityOracle
from repro.routing.fault_tolerant import FaultTolerantRouter
from repro.sketches.sketch import MAX_SKETCH_ID_SPACE


def _queries(graph, count, max_faults, seed):
    rnd = random.Random(seed)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(count)]
    per = [
        rnd.sample(range(graph.m), rnd.randint(0, min(max_faults, graph.m)))
        for _ in range(count)
    ]
    return pairs, per


def test_default_id_space_stays_bit_identical_m31():
    """``id_space=None`` and explicit ``id_space=n`` are the same scheme.

    Auto-selection must be invisible for small instances: same m31
    family, same packed EID words, same dense prefix tensors, same
    answers — byte for byte, or old snapshots would stop decoding.
    """
    graph = generators.random_connected_graph(60, extra_edges=90, seed=41)
    default = SketchConnectivityScheme(graph, seed=5)
    explicit = SketchConnectivityScheme(graph, seed=5, id_space=graph.n)
    assert default.hash_family == "m31"
    assert explicit.hash_family == "m31"
    assert default.prefix_layout == "dense"
    np.testing.assert_array_equal(default._eid_words, explicit._eid_words)
    for a, b in zip(default._prefix, explicit._prefix):
        np.testing.assert_array_equal(a, b)
    pairs, per = _queries(graph, 40, 4, seed=42)
    assert default.query_many(pairs, per) == explicit.query_many(pairs, per)


def test_forced_wide_id_space_answers_match_oracle():
    """A small graph forced onto m61 still answers exactly."""
    graph = generators.random_connected_graph(80, extra_edges=120, seed=43)
    scheme = SketchConnectivityScheme(graph, seed=7, id_space=50_000)
    assert scheme.hash_family == "m61"
    assert scheme.prefix_layout == "ragged"
    pairs, per = _queries(graph, 60, 5, seed=44)
    oracle = ConnectivityOracle(graph)
    res = scheme.query_many(pairs, per, want_path=False)
    for r, (s, t), faults in zip(res, pairs, per):
        assert r.connected == oracle.connected(s, t, faults)


def test_instance_past_m31_cap_builds_and_matches_oracle():
    """n past 46341 — the seed's hard ValueError — now just works.

    The whole point of the tentpole: this graph has more vertices than
    the m31 modulus admits edge keys for, so the scheme must land on
    m61 + ragged storage and still answer oracle-exact.
    """
    n = MAX_SKETCH_ID_SPACE + 1  # 46342: first size the seed rejected
    graph = generators.random_connected_graph(n, extra_edges=20_000, seed=3)
    scheme = SketchConnectivityScheme(graph, seed=9)
    assert scheme.hash_family == "m61"
    assert scheme.prefix_layout == "ragged"
    pairs, per = _queries(graph, 12, 4, seed=45)
    oracle = ConnectivityOracle(graph)
    res = scheme.query_many(pairs, per, want_path=False)
    for r, (s, t), faults in zip(res, pairs, per):
        assert r.connected == oracle.connected(s, t, faults)


@pytest.mark.parametrize("id_space", [None, 50_000])
def test_ragged_and_dense_prefix_layouts_answer_identically(id_space):
    """Layout is storage, not semantics: both stores give one answer set."""
    graph = generators.with_random_weights(
        generators.random_connected_graph(72, extra_edges=110, seed=46),
        1,
        7,
        seed=47,
    )
    dense = SketchConnectivityScheme(
        graph, seed=11, id_space=id_space, prefix_layout="dense"
    )
    ragged = SketchConnectivityScheme(
        graph, seed=11, id_space=id_space, prefix_layout="ragged"
    )
    assert dense.prefix_layout == "dense"
    assert ragged.prefix_layout == "ragged"
    pairs, per = _queries(graph, 50, 5, seed=48)
    assert dense.query_many(pairs, per) == ragged.query_many(pairs, per)
    # Bridge-heavy input: every tree fault of a path cuts it, so the
    # decoder retires the cut components' empty Boruvka tails on both
    # layouts; phases_used still counts the full unit budget.
    path = generators.grid_graph(1, 96)
    dense = SketchConnectivityScheme(
        path, seed=11, id_space=id_space, prefix_layout="dense"
    )
    ragged = SketchConnectivityScheme(
        path, seed=11, id_space=id_space, prefix_layout="ragged"
    )
    rnd = random.Random(49)
    pairs = [tuple(rnd.sample(range(path.n), 2)) for _ in range(60)]
    per = [rnd.sample(range(path.m), rnd.randint(2, 4)) for _ in pairs]
    answers = dense.query_many(pairs, per)
    assert answers == ragged.query_many(pairs, per)
    units = dense.context.dims.units
    assert any(a.phases_used == units for a in answers)


def test_route_many_with_wide_id_space():
    """Routing rides the same labels: forced m61 routes deliver and the
    packed stepper agrees with the reference engine trace for trace."""
    graph = generators.random_connected_graph(48, extra_edges=70, seed=49)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=13, id_space=50_000)
    rnd = random.Random(50)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(24)]
    per = [rnd.sample(range(graph.m), rnd.randint(0, 2)) for _ in pairs]
    packed = router.route_many(pairs, per, engine="packed")
    reference = router.route_many(pairs, per, engine="reference")
    oracle = ConnectivityOracle(graph)
    for (s, t), faults, a, b in zip(pairs, per, packed, reference):
        assert (a.delivered, a.trace) == (b.delivered, b.trace)
        if oracle.connected(s, t, faults):
            assert a.delivered
