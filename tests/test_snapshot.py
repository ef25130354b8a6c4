"""Snapshot-store correctness: round trips, integrity, compatibility.

The acceptance bar for persistence mirrors the engine-equivalence one:
``load_snapshot(save_snapshot(obj))`` must answer ``query_many`` /
``route_many`` **bit-identically** to the saved object — succinct paths,
phase counts, route traces and telemetry included — across the five
generator families.  On top of that the container itself must reject
corrupted headers, checksum mismatches and format-version skew instead
of serving garbage.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.core.api import (
    FaultTolerantConnectivity,
    FaultTolerantDistance,
    FaultTolerantRouting,
)
from repro.core.cycle_space_scheme import CycleSpaceConnectivityScheme
from repro.core.distance_labels import DistanceLabelScheme
from repro.core.forest_scheme import ForestConnectivityScheme
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.graph.graph import Graph
from repro.routing.fault_tolerant import FaultTolerantRouter
from repro.store import (
    SnapshotError,
    load_snapshot,
    save_snapshot,
    snapshot_info,
    verify_snapshot,
)

FAMILIES = [
    ("random", lambda: generators.random_connected_graph(56, extra_edges=80, seed=21)),
    ("grid", lambda: generators.grid_graph(7, 7)),
    ("ring_of_cliques", lambda: generators.ring_of_cliques(7, 5)),
    (
        "weighted",
        lambda: generators.with_random_weights(
            generators.random_connected_graph(48, extra_edges=70, seed=22), 1, 8, seed=23
        ),
    ),
    # High-diameter adversary: bridge-heavy tree faults.
    ("path", lambda: generators.grid_graph(1, 64)),
]

FAMILY_IDS = [f[0] for f in FAMILIES]


def _queries(graph, count, max_faults, seed):
    rnd = random.Random(seed)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(count)]
    per = [
        rnd.sample(range(graph.m), rnd.randint(0, min(max_faults, graph.m)))
        for _ in range(count)
    ]
    return pairs, per


# ----------------------------------------------------------------------
# Round trips: every scheme, five families, bit-identical answers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,make", FAMILIES, ids=FAMILY_IDS)
def test_sketch_round_trip_bit_identical(name, make, tmp_path):
    graph = make()
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs, per = _queries(graph, 50, 5, seed=31)
    cold = scheme.query_many(pairs, per)  # paths + phase counts included
    path = tmp_path / "sketch.snap"
    save_snapshot(path, scheme)
    restored = load_snapshot(path)
    assert restored.query_many(pairs, per) == cold
    # the packed stores really are mmap views, not copies
    assert not restored._eid_words.flags.writeable
    assert not restored._prefix[0].flags.writeable
    # partitions (the serving layer's unit of work) agree too
    faults = per[0] or [0]
    part_a = scheme.decode_partition(faults)
    part_b = restored.decode_partition(faults)
    assert part_a.answer_many(pairs) == part_b.answer_many(pairs)


def test_sketch_m61_ragged_round_trip_bit_identical(tmp_path):
    """Format-version-2 payload: m61 family + ragged prefix store.

    A forced-wide identifier space selects the 2^61 - 1 family and the
    change-point prefix layout; the snapshot must persist both choices
    in its meta, rebuild a scheme on the same family, and answer every
    query bit-identically to the in-memory original.
    """
    graph = generators.random_connected_graph(64, extra_edges=96, seed=25)
    scheme = SketchConnectivityScheme(graph, seed=6, id_space=50_000)
    assert scheme.hash_family == "m61"
    assert scheme.prefix_layout == "ragged"
    pairs, per = _queries(graph, 50, 5, seed=35)
    cold = scheme.query_many(pairs, per)
    path = tmp_path / "sketch_m61.snap"
    save_snapshot(path, scheme)
    restored = load_snapshot(path)
    assert restored.hash_family == "m61"
    assert restored.prefix_layout == "ragged"
    assert restored._id_space == 50_000
    assert restored.query_many(pairs, per) == cold
    # the ragged change-point arrays are mmap views, not copies
    assert not restored._prefix[0].keys.flags.writeable
    assert not restored._prefix[0].vals.flags.writeable


def test_sketch_forced_ragged_m31_round_trip(tmp_path):
    """Ragged layout is orthogonal to the family: an m31-sized scheme
    forced onto change-point storage round-trips too."""
    graph = generators.ring_of_cliques(6, 5)
    scheme = SketchConnectivityScheme(graph, seed=8, prefix_layout="ragged")
    assert scheme.hash_family == "m31"
    assert scheme.prefix_layout == "ragged"
    pairs, per = _queries(graph, 40, 4, seed=36)
    cold = scheme.query_many(pairs, per)
    path = tmp_path / "sketch_ragged.snap"
    save_snapshot(path, scheme)
    restored = load_snapshot(path)
    assert restored.prefix_layout == "ragged"
    assert restored.query_many(pairs, per) == cold


@pytest.mark.parametrize("name,make", FAMILIES, ids=FAMILY_IDS)
def test_cycle_space_round_trip_bit_identical(name, make, tmp_path):
    graph = make()
    scheme = CycleSpaceConnectivityScheme(graph, f=3, seed=7)
    pairs, per = _queries(graph, 40, 3, seed=33)
    cold = scheme.query_many(pairs, per)
    path = tmp_path / "cs.snap"
    save_snapshot(path, scheme)
    restored = load_snapshot(path)
    assert restored.query_many(pairs, per) == cold
    assert restored.b == scheme.b
    assert [restored._labels[0].phi(ei) for ei in range(graph.m)] == [
        scheme._labels[0].phi(ei) for ei in range(graph.m)
    ]


def test_forest_round_trip_bit_identical(tmp_path):
    rnd = random.Random(5)
    graph = Graph(40)
    for v in range(1, 40):
        graph.add_edge(rnd.randrange(v), v)
    scheme = ForestConnectivityScheme(graph)
    pairs, per = _queries(graph, 40, 4, seed=35)
    cold = scheme.query_many(pairs, per)
    path = tmp_path / "forest.snap"
    save_snapshot(path, scheme)
    restored = load_snapshot(path)
    assert restored.query_many(pairs, per) == cold


@pytest.mark.parametrize("name,make", FAMILIES, ids=FAMILY_IDS)
def test_distance_round_trip_bit_identical(name, make, tmp_path):
    graph = make()
    scheme = DistanceLabelScheme(graph, f=2, k=2, seed=4)
    pairs, per = _queries(graph, 30, 2, seed=37)
    cold = scheme.query_many(pairs, per)
    path = tmp_path / "dist.snap"
    save_snapshot(path, scheme)
    restored = load_snapshot(path)
    assert restored.query_many(pairs, per) == cold
    # per-fault-set partitions (what the serving cache memoizes)
    faults = [ei for F in per[:4] for ei in F][:2]
    assert restored.decode_partition(faults).answer_many(pairs) == (
        scheme.decode_partition(faults).answer_many(pairs)
    )


def test_distance_cycle_base_round_trip(tmp_path):
    graph = generators.with_random_weights(
        generators.random_connected_graph(40, extra_edges=55, seed=15), 1, 6, seed=16
    )
    scheme = DistanceLabelScheme(graph, f=2, k=2, seed=4, base_scheme="cycle_space")
    pairs, per = _queries(graph, 30, 2, seed=39)
    cold = scheme.query_many(pairs, per)
    path = tmp_path / "distc.snap"
    save_snapshot(path, scheme)
    assert load_snapshot(path).query_many(pairs, per) == cold


@pytest.mark.parametrize("name,make", FAMILIES, ids=FAMILY_IDS)
def test_router_round_trip_bit_identical_traces(name, make, tmp_path):
    graph = make()
    router = FaultTolerantRouter(graph, f=2, k=2, seed=3)
    pairs, per = _queries(graph, 24, 2, seed=41)
    ref = router.route_many(pairs, per)
    path = tmp_path / "router.snap"
    save_snapshot(path, router)
    restored = load_snapshot(path)
    got = restored.route_many(pairs, per)
    for a, b in zip(got, ref):
        assert a.delivered == b.delivered
        assert a.trace == b.trace
        assert a.telemetry == b.telemetry
        assert a.length == b.length
        assert a.scale == b.scale


def test_router_round_trip_reference_engine_agrees(tmp_path):
    """The restored router's lazily rebuilt seed tables stay equivalent."""
    graph = generators.random_connected_graph(48, extra_edges=70, seed=21)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=3)
    pairs, per = _queries(graph, 16, 2, seed=43)
    ref = router.route_many(pairs, per)
    path = tmp_path / "router.snap"
    save_snapshot(path, router)
    restored = load_snapshot(path)
    got = restored.route_many(pairs, per, engine="reference")
    for a, b in zip(got, ref):
        assert a.trace == b.trace and a.telemetry == b.telemetry


def test_router_memoized_tree_labels_match_encoding(tmp_path):
    """``TreeRoutingScheme.encoded_label`` is ``encode_label(label(v))``
    for every vertex of every routing instance, on the built router
    and after a restore (whose memo starts empty), and it is the tree
    label the instance's sketch scheme embeds in vertex labels."""
    graph = generators.random_connected_graph(48, extra_edges=70, seed=21)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=3)
    path = tmp_path / "router.snap"
    save_snapshot(path, router)
    restored = load_snapshot(path)
    for r in (router, restored):
        instances = list(r.scheme.instances.values())
        assert instances and all(i.tree_routing is not None for i in instances)
        for inst in instances:
            tr = inst.tree_routing
            for v in range(inst.sub.graph.n):
                want = tr.encode_label(tr.label(v))
                assert tr.encoded_label(v) == want
                assert tr.encoded_label(v) == want  # served from the memo
                assert inst.scheme.vertex_label(v).tlabel == want


# ----------------------------------------------------------------------
# Facades: save() / load()
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", ["sketch", "cycle_space"])
def test_connectivity_facade_save_load(scheme_name, tmp_path):
    graph = generators.random_connected_graph(48, extra_edges=70, seed=11)
    facade = FaultTolerantConnectivity(graph, f=3, scheme=scheme_name, seed=2)
    pairs, per = _queries(graph, 30, 3, seed=45)
    cold = facade.query_many(pairs, per)
    path = tmp_path / "conn.snap"
    facade.save(path)
    restored = FaultTolerantConnectivity.load(path)
    assert restored.scheme_name == scheme_name
    assert restored.f == 3
    assert restored.query_many(pairs, per) == cold
    assert restored.max_vertex_label_bits() == facade.max_vertex_label_bits()


def test_distance_facade_save_load(tmp_path):
    graph = generators.with_random_weights(
        generators.random_connected_graph(40, extra_edges=55, seed=15), 1, 6, seed=16
    )
    facade = FaultTolerantDistance(graph, f=2, k=2, seed=4)
    pairs, per = _queries(graph, 25, 2, seed=47)
    cold = facade.query_many(pairs, per)
    path = tmp_path / "dist.snap"
    facade.save(path)
    restored = FaultTolerantDistance.load(path)
    assert restored.query_many(pairs, per) == cold
    assert restored.stretch_bound(2) == facade.stretch_bound(2)


def test_routing_facade_save_load(tmp_path):
    graph = generators.random_connected_graph(40, extra_edges=55, seed=15)
    facade = FaultTolerantRouting(graph, f=2, k=2, seed=3)
    pairs, per = _queries(graph, 15, 2, seed=49)
    ref = facade.route_many(pairs, per)
    path = tmp_path / "route.snap"
    facade.save(path)
    restored = FaultTolerantRouting.load(path)
    got = restored.route_many(pairs, per)
    for a, b in zip(got, ref):
        assert a.trace == b.trace and a.telemetry == b.telemetry


def test_facade_load_rejects_wrong_kind(tmp_path):
    graph = generators.random_connected_graph(32, extra_edges=40, seed=9)
    facade = FaultTolerantConnectivity(graph, f=2, seed=1)
    path = tmp_path / "conn.snap"
    facade.save(path)
    with pytest.raises(SnapshotError, match="holds a"):
        FaultTolerantDistance.load(path)


# ----------------------------------------------------------------------
# Integrity: header corruption, checksum mismatch, version skew
# ----------------------------------------------------------------------
def _write_small_snapshot(tmp_path):
    graph = generators.random_connected_graph(24, extra_edges=30, seed=3)
    scheme = SketchConnectivityScheme(graph, seed=1)
    path = tmp_path / "victim.snap"
    save_snapshot(path, scheme)
    return path


def test_corrupted_header_rejected(tmp_path):
    path = _write_small_snapshot(tmp_path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF  # clobber the magic
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="bad magic"):
        load_snapshot(path)


def test_truncated_file_rejected(tmp_path):
    path = _write_small_snapshot(tmp_path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_manifest_corruption_rejected(tmp_path):
    path = _write_small_snapshot(tmp_path)
    data = bytearray(path.read_bytes())
    data[70] ^= 0xFF  # inside the JSON manifest
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="manifest checksum"):
        load_snapshot(path)


def test_segment_checksum_mismatch_rejected(tmp_path):
    path = _write_small_snapshot(tmp_path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # last payload byte of the last segment
    path.write_bytes(bytes(data))
    # verify_snapshot (and any eager-verify load) must catch it ...
    with pytest.raises(SnapshotError, match="checksum mismatch"):
        verify_snapshot(path)
    with pytest.raises(SnapshotError, match="checksum mismatch"):
        load_snapshot(path, mmap=False)


def test_version_skew_rejected(tmp_path):
    path = _write_small_snapshot(tmp_path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8, 999)  # future format version
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="version"):
        load_snapshot(path)


def test_unknown_kind_rejected(tmp_path):
    from repro.store import write_snapshot

    path = tmp_path / "alien.snap"
    write_snapshot(path, "alien-artifact", {}, {})
    with pytest.raises(SnapshotError, match="unknown artifact kind"):
        load_snapshot(path)


def test_reference_engine_schemes_refuse_to_snapshot(tmp_path):
    graph = generators.random_connected_graph(24, extra_edges=30, seed=3)
    scheme = SketchConnectivityScheme(graph, seed=1, engine="reference")
    with pytest.raises(SnapshotError, match="csr"):
        save_snapshot(tmp_path / "ref.snap", scheme)


def test_save_onto_own_mmap_source_is_safe(tmp_path):
    """Overwriting the snapshot an mmap-loaded artifact came from must
    not fault the live mappings (writes go to a temp file + rename)."""
    graph = generators.random_connected_graph(24, extra_edges=30, seed=3)
    scheme = SketchConnectivityScheme(graph, seed=1)
    pairs, per = _queries(graph, 20, 3, seed=51)
    cold = scheme.query_many(pairs, per)
    path = tmp_path / "self.snap"
    save_snapshot(path, scheme)
    loaded = load_snapshot(path)  # mmap-backed
    save_snapshot(path, loaded)  # overwrite the backing file in place
    assert loaded.query_many(pairs, per) == cold  # old mapping still live
    assert load_snapshot(path).query_many(pairs, per) == cold
    assert not list(tmp_path.glob("*.tmp.*"))  # no temp litter


def test_snapshot_info_reports_shape(tmp_path):
    path = _write_small_snapshot(tmp_path)
    info = snapshot_info(path)
    assert info["kind"] == "sketch"
    assert info["segments"] >= 4
    assert 0 < info["payload_bytes"] <= info["file_bytes"]
