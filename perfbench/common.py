"""Shared pieces of the benchmark: inputs, exact oracle, memory, stats.

Nothing here calls into the program's decoders.  Inputs are generated
from the workload seed; answers are checked against an exact oracle
built from the graph's edge columns; memory is read from ``/proc``.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: scratch space inside the checkout (ignored by git, removed after a run)
WORK = ROOT / ".perfbench_work"

F = 4  # faults per query in the connectivity workloads
#: The network and the labels' hash seeds are fixed per workload, so
#: build cost, label bits and snapshot bytes measure the code, not the
#: draw; pairs, fault sets and messages come from the run's --seed.
GRAPH_SEED, SCHEME_SEED = 1, 2
BUILDS = 3  # construct + save repeats per run; build.total_s is their median

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples, q: float) -> float:
    """Exact percentile (linear interpolation) of raw samples."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def report_latency(out, lat_ms) -> None:
    """Latency percentiles of raw per-request (or per-batch) samples."""
    p = {q: percentile(lat_ms, q) for q in (50, 90, 99)}
    for q, value in p.items():
        out.set(f"latency.p{q}_ms", value)
    out.set("latency.samples", len(lat_ms))
    out.notes.append(
        f"latency p50 {p[50]:.3f} p90 {p[90]:.3f} p99 {p[99]:.3f} ms "
        f"over {len(lat_ms)} samples"
    )


class Yardstick:
    """Machine speed, from a fixed kernel that never calls the program.

    Shared hosts drift by +-20% over tens of seconds, which is more
    than the bounds a regression gate needs.  The kernel mimics the
    program's mix (small-object churn in the interpreter plus many
    small numpy calls) and is timed between the segments of a measured
    window; a run's ``setup_s`` and ``throughput_per_s`` are reported
    scaled to :data:`REF_S`, its median time on the reference machine
    (2 vCPU VM at 2.1 GHz), so host drift largely cancels while a change
    to the program does not.  In four sets of ten seeds, scaling
    narrowed route-onpath's rate spread (IQR over median) from 0.14-0.32
    to 0.07-0.15 in every set, and the socket workloads' in three sets
    of four.
    """

    REF_S = 0.0150

    def __init__(self):
        self._small = np.sort(np.random.default_rng(2).integers(0, 1000, size=64))
        self.samples: list[float] = []

    def tick(self) -> float:
        """Run the kernel once; returns its seconds."""
        small = self._small
        t0 = time.perf_counter()
        rows = [(i * 7919 % 1000, i) for i in range(10_000)]
        rows.sort()
        index = {}
        for key, i in rows:
            index[i] = key
        for i in range(1500):
            np.searchsorted(small, i % 1000)
            small[i % 64 : i % 64 + 4].sum()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def slowdown(self) -> float:
        """Median kernel time over the reference: > 1 on a slow host."""
        return median(self.samples) / self.REF_S


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def rss_mb(pid="self") -> float:
    """Current resident size from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 1e6


def anon_rss_mb() -> float:
    """This process's anonymous resident memory (``RssAnon``) after
    returning freed heap to the kernel: two readings differ by live
    heap, not by allocator slack or by which snapshot pages were read."""
    gc.collect()
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # pragma: no cover - not glibc
        pass
    else:
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        libc.malloc_trim(0)
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1e3
    return rss_mb()


def reset_peak() -> None:
    """Reset VmHWM to the current RSS (``5`` into ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:  # pragma: no cover - kernel without clear_refs
        pass


def peak_mb() -> float:
    """VmHWM since the last :func:`reset_peak`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1e3
    return rss_mb()


def cpu_seconds(pids) -> float:
    """User plus system CPU time of ``pids`` (all their threads)."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


def pss_mb(pids) -> float:
    """Summed PSS of ``pids``: a shared mmap is counted once overall."""
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    total += int(line.split()[1]) / 1e3
                    break
    return total


class PhasePeaks:
    """Per-phase wall time and VmHWM peak, from outside the program."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.peak_mb: dict[str, float] = {}

    def run(self, name: str, fn):
        gc.collect()
        reset_peak()
        t0 = time.perf_counter()
        out = fn()
        self.seconds[name] = time.perf_counter() - t0
        self.peak_mb[name] = peak_mb()
        return out


def build(out, phases: PhasePeaks, snap: str, construct):
    """Construct and save ``BUILDS`` times; returns the last artifact.

    Reports the medians as the build and store layer rows, and the
    highest per-phase VmHWM as the peaks.  Returns the last artifact
    and the median construct seconds.
    """
    from repro.store import save_snapshot

    total, cons, save, peak_c, peak_s, split = [], [], [], [], [], {}
    artifact = None
    for _ in range(BUILDS):
        artifact = None
        artifact = phases.run("construct", construct)
        phases.run("save", lambda: save_snapshot(snap, artifact))
        cons.append(phases.seconds["construct"])
        save.append(phases.seconds["save"])
        total.append(cons[-1] + save[-1])
        peak_c.append(phases.peak_mb["construct"])
        peak_s.append(phases.peak_mb["save"])
        for name, secs in getattr(artifact, "build_phase_s", {}).items():
            split.setdefault(name, []).append(secs)
    size_mb = os.path.getsize(snap) / 1e6
    out.notes.append("builds " + " ".join(f"{c:.3f}+{s:.3f}s" for c, s in zip(cons, save)))
    out.set("build.total_s", median(total))
    out.set("peak_rss_mb", max(peak_c + peak_s))
    out.set("snapshot_mb", size_mb)
    out.set("build.graph_peak_mb", phases.peak_mb["graph"])
    out.set("build.construct_peak_mb", max(peak_c))
    out.set("build.save_peak_mb", max(peak_s))
    out.set("store.write_s", median(save))
    out.set("store.write_mb_per_s", size_mb / median(save))
    for name in ("forest", "eids", "sketches"):
        if name in split:
            out.set(f"build.{name}_s", median(split[name]))
    return artifact, median(cons)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_graph(n: int):
    """The random workload family: a random spanning tree plus 1.5n edges."""
    from repro.graph import generators

    graph = generators.random_connected_graph(
        n, extra_edges=int(1.5 * n), seed=GRAPH_SEED
    )
    graph.as_csr()
    return graph


def edge_columns(graph) -> tuple[np.ndarray, np.ndarray]:
    csr = graph.as_csr()
    return (
        np.asarray(csr.edge_u, dtype=np.int64),
        np.asarray(csr.edge_v, dtype=np.int64),
    )


def pairs_of(rng: np.random.Generator, n: int, count: int) -> list:
    """``count`` random (s, t) pairs with s != t."""
    s = rng.integers(0, n, size=count)
    t = (s + rng.integers(1, n, size=count)) % n
    return list(zip(s.tolist(), t.tolist()))


def random_fault_set(rng: np.random.Generator, m: int, f: int = F) -> list:
    return rng.choice(m, size=f, replace=False).tolist()


# ----------------------------------------------------------------------
# Exact oracle
# ----------------------------------------------------------------------
class ExactConnectivity:
    """Exact ``G \\ F`` connectivity for small fault sets.

    Independent of the program's decoder: a DFS spanning forest of G
    (scipy) cut at the tree edges of F falls into at most |F|+1 pieces
    per component; the surviving non-tree edges leaving the cut
    subtrees say which pieces rejoin.  Cost per fault set is the size
    of the cut subtrees, not m, so every answer of a run can be checked.
    Spot-checked against :class:`repro.oracles.ConnectivityOracle`
    (:meth:`cross_check`).
    """

    def __init__(self, graph):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components, depth_first_order

        self.graph = graph
        n = graph.n
        eu, ev = edge_columns(graph)
        m = eu.size
        eids = np.arange(m, dtype=np.int64)
        heads = np.concatenate([eu, ev])
        tails = np.concatenate([ev, eu])
        order = np.argsort(heads, kind="stable")
        self.nbr = tails[order]
        self.nbr_eid = np.concatenate([eids, eids])[order]
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(heads, minlength=n)))
        )
        adj = csr_matrix(
            (np.ones(2 * m, dtype=np.int8), (heads, tails)), shape=(n, n)
        )
        _, self.comp = connected_components(adj, directed=False)
        pred = np.full(n, -1, dtype=np.int64)
        pre = []
        seen = np.zeros(n, dtype=bool)
        for root in range(n):
            if seen[root]:
                continue
            o, p = depth_first_order(adj, root, directed=False)
            seen[o] = True
            pred[o] = p[o]
            pre.append(o)
        pred[pred < 0] = -1
        self.order = np.concatenate(pre)
        self.tin = np.empty(n, dtype=np.int64)
        self.tin[self.order] = np.arange(n)
        size = np.ones(n, dtype=np.int64)
        pl = pred.tolist()
        sl = size.tolist()
        for v in reversed(self.order.tolist()):
            p = pl[v]
            if p >= 0:
                sl[p] += sl[v]
        self.size = np.asarray(sl, dtype=np.int64)
        self.pred = pred
        self.eu, self.ev = eu, ev
        keys = self._keys(eu, ev)
        self.edge_order = np.argsort(keys, kind="stable")
        self.edge_keys = keys[self.edge_order]

    def _keys(self, a, b) -> np.ndarray:
        """One key per unordered vertex pair."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        return np.minimum(a, b) * self.graph.n + np.maximum(a, b)

    def walk_edges(self, walk) -> np.ndarray:
        """Edge index of every step of ``walk`` (the first of parallel
        copies); raises when a step is not an edge of G."""
        w = np.asarray(walk, dtype=np.int64)
        steps = self._keys(w[:-1], w[1:])
        pos = np.minimum(np.searchsorted(self.edge_keys, steps), self.edge_keys.size - 1)
        if not np.array_equal(self.edge_keys[pos], steps):
            raise AssertionError("walk steps over a non-edge")
        return self.edge_order[pos]

    def walk_ok(self, walk, faults) -> bool:
        """Whether every step of ``walk`` crosses an edge of ``G \\ F``
        (a step between parallel edges needs one surviving copy)."""
        w = np.asarray(walk, dtype=np.int64)
        if w.size < 2:
            return True
        steps = self._keys(w[:-1], w[1:])
        copies = np.searchsorted(self.edge_keys, steps, "right") - np.searchsorted(
            self.edge_keys, steps, "left"
        )
        fl = sorted(set(faults))
        fkeys = np.sort(self._keys(self.eu[fl], self.ev[fl]))
        cut = np.searchsorted(fkeys, steps, "right") - np.searchsorted(fkeys, steps, "left")
        return bool(np.all(copies > cut))

    def _pieces(self, faults):
        """(piece id per preorder slot, union-find root per piece)."""
        eu, ev, pred = self.eu, self.ev, self.pred
        cut = []
        for e in set(faults):
            u, v = int(eu[e]), int(ev[e])
            if pred[v] == u:
                cut.append(v)
            elif pred[u] == v:
                cut.append(u)
        if not cut:
            return None, None
        cut.sort(key=lambda c: self.tin[c])
        piece = np.zeros(self.order.size, dtype=np.int64)
        tops, end = [], -1
        for k, c in enumerate(cut, start=1):
            lo, hi = int(self.tin[c]), int(self.tin[c] + self.size[c])
            piece[lo:hi] = k
            if lo >= end:
                tops.append((lo, hi))
                end = hi
        verts = np.concatenate([self.order[lo:hi] for lo, hi in tops])
        starts, stops = self.indptr[verts], self.indptr[verts + 1]
        lens = stops - starts
        idx = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(
            int(lens.sum())
        )
        src = np.repeat(verts, lens)
        dst, eid = self.nbr[idx], self.nbr_eid[idx]
        pa, pb = piece[self.tin[src]], piece[self.tin[dst]]
        keep = (pa != pb) & ~np.isin(eid, list(faults))
        root = list(range(len(cut) + 1))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for a, b in set(zip(pa[keep].tolist(), pb[keep].tolist())):
            ra, rb = find(a), find(b)
            if ra != rb:
                root[ra] = rb
        return piece, np.asarray([find(x) for x in range(len(root))])

    def connected(self, pairs, faults) -> np.ndarray:
        """Exact verdict for every pair under one fault set."""
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        s, t = arr[:, 0], arr[:, 1]
        same = self.comp[s] == self.comp[t]
        piece, root = self._pieces(faults)
        if piece is None:
            return same
        return same & (root[piece[self.tin[s]]] == root[piece[self.tin[t]]])

    def cross_check(self, pairs, faults) -> None:
        """Assert agreement with the program's own exact oracle."""
        from repro.oracles import ConnectivityOracle

        truth = ConnectivityOracle(self.graph).connected_many(pairs, faults)
        if list(map(bool, self.connected(pairs, faults))) != truth:
            raise AssertionError("exact oracles disagree")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class Outcome:
    """What one run reports: the metrics plus the correctness tallies."""

    def __init__(self, units: dict, required: list):
        #: every declared metric -> unit; ``required`` are the ones this
        #: run reports (end-to-end, or per-layer in a traced run)
        self.units = units
        self.required = required
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.checked = 0
        self.fingerprint: dict = {}
        self.yard = Yardstick()
        self.notes: list[str] = []

    def set(self, name: str, value: float) -> None:
        if name not in self.units:
            raise KeyError(f"undeclared metric {name!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is {value}")
        self.values[name] = value

    def metrics(self) -> dict:
        missing = sorted(set(self.required) - set(self.values))
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            name: {"value": self.values[name], "unit": self.units[name]}
            for name in self.required
        }
