"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``info``     — build a workload graph and print scheme size reports.
* ``build``    — construct an artifact (sketch scheme / router / facade)
  once and save it as a checksummed ``repro.store`` snapshot file: the
  *build* half of the build/serve split.
* ``query``    — answer one <s, t, F> connectivity + distance query,
  in process or (``--connect HOST:PORT``) against a running ``serve``
  instance over the binary wire protocol.
* ``route``    — route a message under hidden faults and print telemetry.
* ``route-bench`` — route one message batch through the packed
  multi-message engine and through the seed scalar engine, verify the
  traces agree bit for bit, and print routed-messages/sec for both.
* ``traffic`` — run a fail/repair churn traffic simulation through the
  batched router and print the aggregated telemetry report
  (``--snapshot`` loads the router from a ``build`` snapshot instead of
  constructing it).
* ``serve-bench`` — drive a repeated-fault-set query stream through the
  serving layer (partition caches fed fault-set chunks, in process and
  optionally sharded) and print throughput vs the cold batched decoder
  (``--snapshot`` serves off a ``build`` snapshot, cross-checked
  against in-process construction).
* ``serve`` — the network serving tier: bind a TCP port and answer
  connectivity/distance/route queries over the length-prefixed binary
  protocol, fanning work out to shard workers that mmap one ``build``
  snapshot; SIGHUP (or a client ``reload``) swaps in a new snapshot
  with zero downtime.
* ``stats`` — dump a running ``serve`` instance's merged metrics
  registry (per-shard queue depth, cache hit rates, latency histogram
  percentiles, slow-query traces) as a human-readable report, raw
  JSON (``--json``), or Prometheus text exposition (``--prometheus``).
* ``lower-bound`` — print the Theorem 1.6 series.

All commands operate on the built-in synthetic workloads (``--family``,
``--n``, ``--seed``), so the tool is fully self-contained and every run
is reproducible — ``build`` then ``serve-bench --snapshot`` /
``traffic --snapshot`` answers bit-identically to building in process.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time

from repro.core.api import FaultTolerantConnectivity, FaultTolerantDistance
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.graph.graph import Graph
from repro.oracles import DistanceOracle
from repro.routing.fault_tolerant import FaultTolerantRouter


def _build_graph(args: argparse.Namespace) -> Graph:
    family = args.family
    if family == "random":
        return generators.random_connected_graph(
            args.n, extra_edges=int(1.5 * args.n), seed=args.seed
        )
    if family == "grid":
        side = max(2, int(math.isqrt(args.n)))
        return generators.grid_graph(side, side)
    if family == "torus":
        side = max(3, int(math.isqrt(args.n)))
        return generators.torus_graph(side, side)
    if family == "ring_of_cliques":
        return generators.ring_of_cliques(max(3, args.n // 5), 5)
    if family == "weighted":
        base = generators.random_connected_graph(
            args.n, extra_edges=int(1.5 * args.n), seed=args.seed
        )
        return generators.with_random_weights(base, 1, 8, seed=args.seed + 1)
    raise SystemExit(f"unknown family {family!r}")


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    print(f"graph: family={args.family} n={graph.n} m={graph.m} "
          f"W={graph.max_weight():.0f}")
    for scheme_name in ("cycle_space", "sketch"):
        conn = FaultTolerantConnectivity(graph, f=args.f, scheme=scheme_name, seed=args.seed)
        print(f"connectivity[{scheme_name}]: vertex label "
              f"{conn.max_vertex_label_bits()} bits, edge label "
              f"{conn.max_edge_label_bits()} bits")
    dist = FaultTolerantDistance(graph, f=args.f, k=args.k, seed=args.seed)
    print(f"distance[k={args.k}]: vertex label {dist.max_vertex_label_bits()} bits, "
          f"stretch bound {dist.stretch_bound(args.f):.0f}x")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    """Construct one artifact and save it as a snapshot (build/serve).

    ``--artifact sketch`` saves the standalone sketch connectivity
    scheme ``serve-bench --snapshot`` serves; ``router`` saves the full
    fault-tolerant routing stack ``traffic --snapshot`` drives;
    ``connectivity``/``distance`` save the ``core.api`` facades.  The
    written file is integrity-checked (every BLAKE2b segment digest)
    before reporting success.
    """
    from repro.store import save_snapshot, snapshot_info, verify_snapshot

    graph = _build_graph(args)
    id_space = args.id_space or None
    workers = max(1, getattr(args, "workers", 1))
    t0 = time.perf_counter()
    if args.artifact == "sketch":
        obj = SketchConnectivityScheme(
            graph, seed=args.seed, id_space=id_space, build_workers=workers
        )
    elif args.artifact == "router":
        obj = FaultTolerantRouter(
            graph, f=args.f, k=args.k, seed=args.seed, table_mode=args.tables,
            id_space=id_space, build_workers=workers,
        )
    elif args.artifact == "connectivity":
        obj = FaultTolerantConnectivity(graph, f=args.f, seed=args.seed)
    else:  # distance
        obj = FaultTolerantDistance(graph, f=args.f, k=args.k, seed=args.seed)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_snapshot(args.out, obj)
    save_s = time.perf_counter() - t0
    verify_snapshot(args.out)
    info = snapshot_info(args.out)
    print(
        f"build: family={args.family} n={graph.n} m={graph.m} "
        f"artifact={args.artifact} seed={args.seed}"
    )
    if args.artifact == "sketch":
        print(
            f"  hash family         : {obj.hash_family} "
            f"(id_space={obj._id_space}, prefix={obj.prefix_layout})"
        )
    print(f"  constructed in      : {build_s:.2f}s")
    print(
        f"  saved + verified    : {args.out} "
        f"({info['file_bytes'] / 1e6:.1f} MB, {info['segments']} segments, "
        f"{save_s:.2f}s)"
    )
    print(f"  kind                : {info['kind']}")
    return 0


def _load_snapshot_or_exit(path: str, expect, what: str, graph=None):
    """Load a snapshot and insist it holds the artifact a command needs.

    With ``graph``, also insist the snapshot was built from that exact
    workload graph (sizes and the edge lists themselves — a different
    ``--seed``/``--family`` would otherwise surface later as a
    corruption-style answer divergence).
    """
    from repro.store import SnapshotError, load_snapshot

    try:
        obj = load_snapshot(path)
    except SnapshotError as exc:
        raise SystemExit(f"cannot load snapshot {path}: {exc}")
    if not isinstance(obj, expect):
        raise SystemExit(
            f"snapshot {path} holds a {type(obj).__name__}; {what} needs a "
            f"{expect.__name__} (see `build --artifact`)"
        )
    if graph is not None:
        sg = obj.graph
        if sg.n != graph.n or sg.m != graph.m:
            raise SystemExit(
                f"snapshot graph (n={sg.n}, m={sg.m}) does not match "
                f"--family/--n (n={graph.n}, m={graph.m})"
            )
        a, b = sg.as_csr(), graph.as_csr()
        if not (
            (a.edge_u == b.edge_u).all()
            and (a.edge_v == b.edge_v).all()
            and (a.edge_weight == b.edge_weight).all()
        ):
            raise SystemExit(
                f"snapshot graph does not match --family/--n/--seed: same "
                f"sizes but different edges (the snapshot was built from a "
                f"different workload graph)"
            )
    return obj


def _parse_faults(spec: str) -> list[int]:
    if not spec:
        return []
    return [int(x) for x in spec.split(",") if x.strip() != ""]


def _parse_hostport(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"--connect wants HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """The ``query --connect`` path: ask a running ``serve`` instance."""
    from repro.server import QueryClient, ServerError

    host, port = _parse_hostport(args.connect)
    faults = _parse_faults(args.faults)
    try:
        with QueryClient(host, port, timeout=args.timeout) as client:
            stats = client.stats()
            kind = stats.get("kind", "?")
            if kind in ("router", "routing-facade"):
                result = client.route([(args.s, args.t)], faults)[0]
                state = "delivered" if result.delivered else "UNDELIVERED"
                print(f"route({args.s}, {args.t} | {len(faults)} faults) = "
                      f"{state} length={result.length:.1f} "
                      f"hops={result.telemetry.hops}")
                return 0 if result.delivered else 1
            if kind in ("distance", "distance-facade"):
                est = client.distance([(args.s, args.t)], faults)[0]
                print(f"distance({args.s}, {args.t} | {len(faults)} faults) "
                      f"= {est:.1f}")
                return 0
            connected = client.connected(args.s, args.t, faults)
            print(f"connected({args.s}, {args.t} | {len(faults)} faults) "
                  f"= {connected}")
            return 0
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"cannot reach {host}:{port}: {exc}")
    except ServerError as exc:
        raise SystemExit(f"server refused the query: {exc}")


def _cmd_query(args: argparse.Namespace) -> int:
    if args.connect:
        return _cmd_query_remote(args)
    graph = _build_graph(args)
    faults = _parse_faults(args.faults)
    conn = FaultTolerantConnectivity(graph, f=max(args.f, len(faults)), seed=args.seed)
    dist = FaultTolerantDistance(
        graph, f=max(args.f, len(faults)), k=args.k, seed=args.seed
    )
    connected = conn.connected(args.s, args.t, faults)
    print(f"connected({args.s}, {args.t} | {len(faults)} faults) = {connected}")
    if connected:
        est = dist.estimate(args.s, args.t, faults)
        true = DistanceOracle(graph).distance(args.s, args.t, faults)
        print(f"distance estimate = {est:.1f} (exact {true:.1f}, "
              f"bound {dist.stretch_bound(len(faults)):.0f}x)")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    faults = _parse_faults(args.faults)
    router = FaultTolerantRouter(
        graph, f=max(args.f, len(faults)), k=args.k, seed=args.seed,
        table_mode=args.tables,
    )
    result = router.route(args.s, args.t, faults)
    true = DistanceOracle(graph).distance(args.s, args.t, faults)
    if not result.delivered:
        print(f"route {args.s} -> {args.t}: UNDELIVERED "
              f"(exact distance: {true})")
        return 1
    tel = result.telemetry
    print(f"route {args.s} -> {args.t}: delivered")
    print(f"  walked       : {result.length:.1f} (optimal {true:.1f})")
    print(f"  hops         : {tel.hops}")
    print(f"  reversals    : {tel.reversals}")
    print(f"  gamma queries: {tel.gamma_queries}")
    print(f"  decode calls : {tel.decode_calls}")
    print(f"  header bits  : {tel.max_header_bits}")
    return 0


def _cmd_route_bench(args: argparse.Namespace) -> int:
    """Packed vs seed routed-messages/sec on one message batch.

    Builds one router (both planes share the same labels, tables and
    sketch randomness), routes the identical batch through
    ``engine="reference"`` (scalar seed loop) and ``engine="packed"``
    (whole tree segments per step + partition-cache retry decodes),
    verifies the route traces and telemetry agree bit for bit, and
    prints both throughputs.  ``benchmarks/bench_routing.py`` pins the same numbers
    as a committed, CI-gated baseline (BENCH_routing.json).
    """
    from repro.traffic import fault_set_pool, uniform_pairs

    graph = _build_graph(args)
    router = FaultTolerantRouter(
        graph, f=args.f, k=args.k, seed=args.seed, table_mode=args.tables
    )
    rnd = random.Random(args.seed + 1)
    pool = fault_set_pool(
        graph.m, args.fault_sets, min(args.fault_size, args.f), rnd
    )
    msgs = uniform_pairs(graph.n, args.messages, rnd)
    per = [pool[i % len(pool)] for i in range(len(msgs))]
    print(
        f"route-bench: family={args.family} n={graph.n} m={graph.m} "
        f"messages={len(msgs)} fault_sets={len(pool)} f={args.f}"
    )
    router.tables  # build the seed tables outside the timed region
    router.packed_engine()
    t0 = time.perf_counter()
    ref = router.route_many(msgs, per, engine="reference")
    ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    packed = router.route_many(msgs, per, engine="packed")
    packed_s = time.perf_counter() - t0
    for p, r in zip(packed, ref):
        if p.trace != r.trace or p.telemetry != r.telemetry:
            print("  ERROR: packed route traces diverge from the seed engine")
            return 1
    delivered = sum(r.delivered for r in ref)
    print(f"  delivered            : {delivered}/{len(msgs)}")
    print(f"  seed engine          : {len(msgs) / ref_s:10.0f} msg/s")
    print(
        f"  packed route_many    : {len(msgs) / packed_s:10.0f} msg/s  "
        f"({ref_s / packed_s:.1f}x, traces bit-identical)"
    )
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    """Churn traffic smoke scenario: fail/repair timeline -> route_many.

    Generates a fail/repair churn timeline within the fault budget,
    routes every epoch's message batch through the packed engine (the
    partition caches stay warm across epochs), and prints the
    aggregated array-telemetry report; ``--validate`` additionally
    checks every result against the exact connectivity oracle.
    """
    from repro.traffic import (
        TrafficSimulator,
        churn_timeline,
        hotspot_pairs,
        uniform_pairs,
    )

    graph = _build_graph(args)
    if args.snapshot:
        router = _load_snapshot_or_exit(
            args.snapshot, FaultTolerantRouter, "traffic --snapshot", graph=graph
        )
        graph = router.graph
        args.f = router.f  # the fault budget is the artifact's, not the flag's
        print(f"loaded router snapshot {args.snapshot} (f={router.f}, k={router.k})")
    else:
        router = FaultTolerantRouter(graph, f=args.f, k=args.k, seed=args.seed)
    rnd = random.Random(args.seed + 1)
    if args.hotspots > 0:
        def pair_gen(n, count, rng, _h=args.hotspots):
            return hotspot_pairs(n, count, rng, hotspots=_h)
    else:
        pair_gen = uniform_pairs
    epochs = churn_timeline(
        graph.n,
        graph.m,
        epochs=args.epochs,
        budget=args.f,
        rng=rnd,
        messages_per_epoch=args.messages_per_epoch,
        pair_gen=pair_gen,
    )
    fails = sum(1 for e in epochs for op, _ in e.events if op == "fail")
    repairs = sum(1 for e in epochs for op, _ in e.events if op == "repair")
    t0 = time.perf_counter()
    report = TrafficSimulator(router, validate=args.validate).run(epochs)
    elapsed = time.perf_counter() - t0
    summary = report.summary()
    print(
        f"traffic: family={args.family} n={graph.n} m={graph.m} "
        f"epochs={len(epochs)} (+{fails} fails / {repairs} repairs) "
        f"messages={summary['messages']}"
    )
    for key in (
        "delivery_rate", "mean_hops", "p95_hops", "reversals",
        "reversal_hops", "reversal_hop_share", "gamma_queries",
        "decode_calls",
    ):
        print(f"  {key:18s}: {summary[key]}")
    rate = summary["messages"] / elapsed if elapsed > 0 else float("inf")
    print(f"  routed               : {rate:.0f} msg/s"
          + ("  (oracle-validated)" if args.validate else ""))
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Repeated-fault-set serving benchmark (the production workload).

    Builds one sketch-labeled graph, generates ``--fault-sets`` distinct
    fault sets and a ``--queries``-long round-robin (s, t, F) stream,
    then times three ways of answering it:

    * cold ``query_many`` (per-query Boruvka decodes, the PR-2 engine);
    * an in-process service (``num_shards=0``): its ``query_many``
      coalesces the stream into fault-set chunks of at most ``--chunk``
      queries, each answered off one partition cache;
    * optionally (``--shards N``) a sharded service whose workers fork
      from the preloaded worker factory over a snapshot.

    Every path's verdicts are cross-checked before printing.
    """
    from repro.serving import ShardedQueryService

    graph = _build_graph(args)
    if args.snapshot:
        scheme = _load_snapshot_or_exit(
            args.snapshot, SketchConnectivityScheme, "serve-bench --snapshot",
            graph=graph,
        )
    else:
        scheme = SketchConnectivityScheme(graph, seed=args.seed)
    rnd = random.Random(args.seed + 1)
    size = min(args.fault_size, graph.m)
    fault_pool = [
        sorted(set(rnd.sample(range(graph.m), size)))
        for _ in range(max(1, args.fault_sets))
    ]
    stream = [
        (*rnd.sample(range(graph.n), 2), fault_pool[i % len(fault_pool)])
        for i in range(args.queries)
    ]
    pairs = [(s, t) for s, t, _ in stream]
    per = [list(F) for _, _, F in stream]
    print(
        f"serve-bench: family={args.family} n={graph.n} m={graph.m} "
        f"queries={len(stream)} fault_sets={len(fault_pool)} "
        f"|F|={size}"
    )

    t0 = time.perf_counter()
    cold = scheme.query_many(pairs, per, want_path=False)
    cold_s = time.perf_counter() - t0
    verdicts = [r.connected for r in cold]
    print(f"  cold query_many      : {len(stream) / cold_s:10.0f} q/s")

    if args.snapshot:
        # The acceptance bar for the build/serve split: answers off the
        # loaded snapshot equal in-process construction bit for bit
        # (succinct paths included, hence want_path=True here).  The
        # fresh scheme uses the *snapshot's* persisted seed, identifier
        # space and prefix layout — the graph guard above already pinned
        # the workload, and the label randomness (and hash family) belong
        # to the artifact, not the serve-side flags.
        fresh = SketchConnectivityScheme(
            graph,
            seed=scheme.seed,
            id_space=scheme._id_space,
            prefix_layout=scheme.prefix_layout,
        )
        if fresh.query_many(pairs, per) != scheme.query_many(pairs, per):
            print("  ERROR: snapshot answers diverge from in-process build")
            return 1
        print("  snapshot answers match in-process construction (bit-identical)")

    with ShardedQueryService(
        scheme,
        num_shards=0,
        cache_capacity=args.cache_capacity,
        max_chunk=args.chunk,
    ) as local:
        t0 = time.perf_counter()
        served = local.query_many(pairs, per, want_path=False)
        warm_s = time.perf_counter() - t0
        stats = local.stats()
    if [r.connected for r in served] != verdicts:
        print("  ERROR: cached verdicts diverge from cold decode")
        return 1
    print(
        f"  coalesced + cached   : {len(stream) / warm_s:10.0f} q/s  "
        f"({cold_s / warm_s:.1f}x, hit rate {stats.cache_hit_rate:.0%}, "
        f"{stats.chunks} chunks, "
        f"mean {stats.mean_chunk:.0f}/chunk)"
    )

    if args.shards > 0:
        with ShardedQueryService(
            scheme,
            num_shards=args.shards,
            cache_capacity=args.cache_capacity,
            max_chunk=args.chunk,
            snapshot=args.snapshot or None,
        ) as svc:
            svc.stats()  # the clock starts once every worker is serving
            t0 = time.perf_counter()
            sharded = svc.query_many(pairs, per, want_path=False)
            shard_s = time.perf_counter() - t0
            if [r.connected for r in sharded] != verdicts:
                print("  ERROR: sharded verdicts diverge from cold decode")
                return 1
            snap = svc.stats().snapshot()
        print(
            f"  sharded x{args.shards} ({snap['mode']})    : "
            f"{len(stream) / shard_s:10.0f} q/s  "
            f"(per-shard {snap['per_shard']}, "
            f"hit rate {snap['cache']['hit_rate']:.0%})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve an artifact over TCP (the serve half of build/serve).

    ``--snapshot`` serves a ``build`` snapshot; without one the
    artifact is constructed in process from the workload flags and
    served object-backed.  With ``--shards N`` the workers fork from one
    preloaded worker factory and mmap the snapshot themselves (one page
    cache for all of them) — for a built artifact, a private temporary
    snapshot saved at start.
    SIGHUP or a client ``reload`` frame swaps generations with zero
    downtime; SIGTERM stops the server as Ctrl-C does.
    """
    from repro.server import run_server

    backend = None
    if not args.snapshot:
        graph = _build_graph(args)
        if args.artifact == "sketch":
            backend = SketchConnectivityScheme(graph, seed=args.seed)
        elif args.artifact == "router":
            backend = FaultTolerantRouter(
                graph, f=args.f, k=args.k, seed=args.seed,
                table_mode=args.tables,
            )
        elif args.artifact == "connectivity":
            backend = FaultTolerantConnectivity(graph, f=args.f, seed=args.seed)
        else:  # distance
            backend = FaultTolerantDistance(
                graph, f=args.f, k=args.k, seed=args.seed
            )
    run_server(
        backend,
        snapshot=args.snapshot or None,
        host=args.host,
        port=args.port,
        num_shards=args.shards,
        cache_capacity=args.cache_capacity,
        max_chunk=args.chunk,
        deadline_s=args.deadline,
        install_sighup=True,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """The ``stats`` command: the admin/observability plane over the wire.

    Sends one ``STATS`` frame to a running ``serve`` instance and
    renders the reply — the uniform registry dump (counters, gauges,
    log-bucketed histograms merged across the server and every shard
    worker), per-shard queue depth and cache hit rates, and the
    slow-query log.  ``--prometheus`` prints the text exposition a
    scraper would ingest; ``--json`` prints the raw payload.
    """
    from repro.server import QueryClient

    host, port = _parse_hostport(args.connect)
    try:
        with QueryClient(host, port, timeout=args.timeout) as client:
            stats = client.stats()
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"cannot reach {host}:{port}: {exc}")

    if args.prometheus:
        sys.stdout.write(stats.prometheus())
        return 0
    if args.json:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0

    server = stats.get("server") or {}
    service = stats.get("service") or {}
    print(f"stats: {host}:{port} kind={stats.kind} "
          f"generation={stats.version} n={stats.get('n')} "
          f"m={stats.get('m')} "
          f"metrics={'on' if stats.get('metrics_enabled') else 'off'}")
    print(f"  server               : {server.get('queries', 0)} queries, "
          f"{server.get('frames', 0)} frames, "
          f"{server.get('connections_open', 0)} conns open, "
          f"{server.get('protocol_errors', 0)} protocol errors, "
          f"{server.get('reloads', 0)} reloads")
    if server.get("view_entries") or server.get("view_hits"):
        print(f"  front door           : {server['view_entries']} partition "
              f"views, {server['view_hits']} hits answered on the loop")
    if service:
        depths = ", ".join(str(d) for d in stats.queue_depth) or "-"
        print(f"  shards ({service.get('mode', '?')}): "
              f"queue depth [{depths}], "
              f"{service.get('pool_restarts', 0)} worker restarts, "
              f"cache hit rate {stats.cache_hit_rate:.0%}")
        for i, cache in enumerate(service.get("per_shard_cache") or []):
            print(f"    shard {i:<2d}           : "
                  f"{cache['entries']} cached partitions, "
                  f"hit rate {cache['hit_rate']:.0%} "
                  f"({cache['hits']} hits / {cache['misses']} misses)")
    if stats.counters:
        print("  counters:")
        for name, value in sorted(stats.counters.items()):
            print(f"    {name:34s} {value}")
    if stats.gauges:
        print("  gauges:")
        for name, value in sorted(stats.gauges.items()):
            print(f"    {name:34s} {value:g}")
    if stats.histograms:
        print("  histograms (p50/p99/p99.9/max):")
        for name, data in sorted(stats.histograms.items()):
            print(f"    {name:34s} n={data['count']:<8d} "
                  f"{data['p50']:g} / {data['p99']:g} / "
                  f"{data['p99_9']:g} / {data['max']:g}")
    slow = stats.slow_queries
    if slow:
        print(f"  slow queries ({len(slow)} recorded, threshold "
              f"{(stats.get('slow_queries') or {}).get('threshold_s', 0)}s):")
        for entry in slow[-args.slow:]:
            spans = " ".join(
                f"{s['name']}={s['dur_s'] * 1e3:.1f}ms"
                for s in entry.get("spans", [])
            )
            print(f"    {entry['trace_id']} total="
                  f"{entry['total_s'] * 1e3:.1f}ms  {spans}")
    return 0


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    from repro.routing.lower_bound import (
        sequential_strategy_expected_stretch,
        simulate_sequential_strategy,
    )

    print("f  analytic  simulated")
    for f in range(1, args.f + 1):
        analytic = sequential_strategy_expected_stretch(f)
        simulated = simulate_sequential_strategy(f, 10, 1500, seed=args.seed)
        print(f"{f}  {analytic:.2f}      {simulated:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant labeling and compact routing schemes "
        "(Dory & Parter, PODC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", default="random",
                       choices=["random", "grid", "torus", "ring_of_cliques", "weighted"])
        p.add_argument("--n", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--f", type=int, default=2, help="fault bound")
        p.add_argument("--k", type=int, default=2, help="stretch parameter")
        p.add_argument("--id-space", type=int, default=0,
                       help="identifier space for the sketch hash keys "
                            "(0 = the graph's own n; past 46341 ids the "
                            "schemes switch to the 2^61 - 1 hash family)")

    p_info = sub.add_parser("info", help="scheme size report")
    common(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_build = sub.add_parser(
        "build",
        help="construct an artifact once and save it as a snapshot file",
    )
    common(p_build)
    p_build.add_argument("--artifact", default="sketch",
                         choices=["sketch", "router", "connectivity", "distance"],
                         help="what to construct and persist")
    p_build.add_argument("--out", required=True,
                         help="snapshot file to write")
    p_build.add_argument("--tables", default="balanced",
                         choices=["simple", "balanced"],
                         help="router table layout (artifact=router)")
    p_build.add_argument("--workers", type=int, default=1,
                         help="build worker processes (sketch/router "
                              "artifacts); every value produces "
                              "bit-identical snapshots, 1 = serial")
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="one connectivity/distance query")
    common(p_query)
    p_query.add_argument("--s", type=int, required=True)
    p_query.add_argument("--t", type=int, required=True)
    p_query.add_argument("--faults", default="", help="comma-separated edge indices")
    p_query.add_argument("--connect", default="",
                         help="HOST:PORT of a running `serve` instance — "
                              "query over the wire instead of building "
                              "schemes in process")
    p_query.add_argument("--timeout", type=float, default=30.0,
                         help="socket timeout for --connect (seconds)")
    p_query.set_defaults(func=_cmd_query)

    p_route = sub.add_parser("route", help="route a message under faults")
    common(p_route)
    p_route.add_argument("--s", type=int, required=True)
    p_route.add_argument("--t", type=int, required=True)
    p_route.add_argument("--faults", default="")
    p_route.add_argument("--tables", default="balanced", choices=["simple", "balanced"])
    p_route.set_defaults(func=_cmd_route)

    p_rbench = sub.add_parser(
        "route-bench",
        help="packed vs seed routed-messages/sec (traces verified)",
    )
    common(p_rbench)
    p_rbench.add_argument("--messages", type=int, default=256,
                          help="batch size to route")
    p_rbench.add_argument("--fault-sets", type=int, default=8,
                          help="distinct hidden fault sets")
    p_rbench.add_argument("--fault-size", type=int, default=2,
                          help="edges per fault set (capped by --f)")
    p_rbench.add_argument("--tables", default="balanced",
                          choices=["simple", "balanced"])
    p_rbench.set_defaults(func=_cmd_route_bench)

    p_traffic = sub.add_parser(
        "traffic",
        help="fail/repair churn traffic simulation through route_many",
    )
    common(p_traffic)
    p_traffic.add_argument("--epochs", type=int, default=16,
                           help="churn timeline length")
    p_traffic.add_argument("--messages-per-epoch", type=int, default=32)
    p_traffic.add_argument("--hotspots", type=int, default=0,
                           help="skew destinations onto N hot vertices")
    p_traffic.add_argument("--validate", action="store_true",
                           help="check every result against the oracle")
    p_traffic.add_argument("--snapshot", default="",
                           help="load the router from a `build "
                                "--artifact router` snapshot")
    p_traffic.set_defaults(func=_cmd_traffic)

    p_serve = sub.add_parser(
        "serve-bench",
        help="repeated-fault-set serving throughput (cache/chunks/shards)",
    )
    common(p_serve)
    p_serve.add_argument("--queries", type=int, default=2000,
                         help="length of the (s, t, F) stream")
    p_serve.add_argument("--fault-sets", type=int, default=16,
                         help="distinct fault sets in the stream")
    p_serve.add_argument("--fault-size", type=int, default=4,
                         help="edges per fault set")
    p_serve.add_argument("--chunk", type=int, default=64,
                         help="queries per fault-set chunk (max_chunk)")
    p_serve.add_argument("--cache-capacity", type=int, default=128,
                         help="partition-cache LRU capacity")
    p_serve.add_argument("--shards", type=int, default=0,
                         help="also time a sharded service with N workers")
    p_serve.add_argument("--snapshot", default="",
                         help="serve off a `build --artifact sketch` "
                              "snapshot (answers cross-checked against "
                              "in-process construction; shards open it "
                              "instead of a private snapshot)")
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_srv = sub.add_parser(
        "serve",
        help="serve an artifact over TCP (shard workers mmap one snapshot)",
    )
    common(p_srv)
    p_srv.add_argument("--snapshot", default="",
                       help="serve a `build` snapshot file (shard workers "
                            "mmap it; omitting builds in process from the "
                            "workload flags, and shards mmap a private "
                            "snapshot of it)")
    p_srv.add_argument("--artifact", default="sketch",
                       choices=["sketch", "router", "connectivity", "distance"],
                       help="what to construct when no --snapshot is given")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed at startup)")
    p_srv.add_argument("--shards", type=int, default=0,
                       help="shard worker processes (0 = serve in process)")
    p_srv.add_argument("--chunk", type=int, default=512,
                       help="most pairs per batch posted to a shard")
    p_srv.add_argument("--cache-capacity", type=int, default=128,
                       help="partition-cache LRU capacity per shard")
    p_srv.add_argument("--deadline", type=float, default=30.0,
                       help="per-request deadline (seconds)")
    p_srv.add_argument("--tables", default="balanced",
                       choices=["simple", "balanced"],
                       help="router table layout (artifact=router)")
    p_srv.set_defaults(func=_cmd_serve)

    p_stats = sub.add_parser(
        "stats",
        help="dump a running serve instance's metrics registry",
    )
    p_stats.add_argument("--connect", required=True,
                         help="HOST:PORT of the running `serve` instance")
    p_stats.add_argument("--prometheus", action="store_true",
                         help="print Prometheus text exposition instead of "
                              "the human-readable report")
    p_stats.add_argument("--json", action="store_true",
                         help="print the raw STATS_REPLY payload as JSON")
    p_stats.add_argument("--slow", type=int, default=8,
                         help="slow-query log entries to show (newest)")
    p_stats.add_argument("--timeout", type=float, default=10.0,
                         help="socket timeout (seconds)")
    p_stats.set_defaults(func=_cmd_stats)

    p_lb = sub.add_parser("lower-bound", help="Theorem 1.6 series")
    p_lb.add_argument("--f", type=int, default=4)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.set_defaults(func=_cmd_lower_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
