"""Partition views: sketch answers written without numpy or the decoder.

A decoded fault-set partition answers every (s, t) pair with two
interval locates, one union-find compare and, for a path, the recorded
chain of recovery edges (Claim 3.16, Lemma 3.17).  That is bookkeeping
on small ints, so the network server keeps the partitions it has seen
as *views* and answers a repeated fault set on its own event loop,
without waking a shard worker:

* a **view** (:meth:`repro.core.sketch_scheme.FaultSetPartition.view`)
  is a dict of plain tuples, one entry per G-component with tree
  faults: the component forest's locate table, each ``T \\ F``
  component's union-find root, the phase count and the merges.  About
  110 bytes pickled for a 4-fault set of a 2000-vertex graph, and
  unpickling it imports nothing;
* the **columns**
  (:meth:`~repro.core.sketch_scheme.SketchConnectivityScheme.view_columns`)
  are what a view is read against: each vertex's component and DFS
  entry time as ``array("q")`` (16 bytes per vertex), its identifier
  when ids are not the identity, and its tree label with routing
  augmentation;
* :func:`write_items` is the one writer of sketch reply items.  Shard
  workers run it on their misses (:func:`answer_by_view`) and send the
  view back with the items; the front door runs it on its hits
  (:class:`ViewCache`).  Its items are byte-identical to
  ``write_sk_results(partition.answer_many(pairs, want_path))``
  (``tests/test_views.py``).
"""

from __future__ import annotations

import pickle
from bisect import bisect_right
from collections import OrderedDict
from typing import Optional, Sequence

from repro.core._batch import check_vertex_ids
from repro.core.path_chain import chain_segments
from repro.server.protocol import write_sk_item

#: ``write_sk_item`` of the answer for two vertices of different
#: G-components.
_APART = write_sk_item(False, 0, None)


def write_items(
    columns: tuple,
    view: dict,
    pairs: Sequence[tuple[int, int]],
    want_path: bool = True,
) -> list[bytes]:
    """Encoded reply items of ``pairs`` under the partition ``view``.

    ``columns`` is the scheme's ``view_columns()``.  Vertex ids outside
    ``0..n-1``, and vertices no tree spans, raise ``ValueError`` as
    ``answer_many`` does.
    """
    comp, tin, vid, tlabel = columns
    check_vertex_ids(pairs, len(comp))
    items = []
    for s, t in pairs:
        cs = comp[s]
        if cs < 0 or comp[t] < 0:
            raise ValueError("query vertex is not spanned by a tree")
        if cs != comp[t]:
            items.append(_APART)
            continue
        vs, vt = (s, t) if vid is None else (vid[s], vid[t])
        if vs == vt:
            items.append(write_sk_item(True, 0, (vs, vt, ())))
            continue
        ts, tt = (None, None) if tlabel is None else (tlabel[s], tlabel[t])
        entry = view.get(cs)
        if entry is None:  # no tree fault here: the tree still spans
            path = None
            if want_path:
                path = (vs, vt, (("tree", vs, vt, None, None, ts, tt, None),))
            items.append(write_sk_item(True, 0, path))
            continue
        values, loc, group, phases, merges = entry
        a = loc[bisect_right(values, tin[s])]
        b = loc[bisect_right(values, tin[t])]
        if group[a] != group[b]:
            items.append(write_sk_item(False, phases, None))
            continue
        path = None
        if want_path:
            path = (vs, vt, chain_segments(vs, ts, vt, tt, merges, a, b))
        items.append(write_sk_item(True, phases, path))
    return items


def answer_by_view(
    cache, pairs, faults, want_path: bool = True, columns: bool = False
) -> tuple[list[bytes], dict, Optional[tuple]]:
    """One sketch request answered off a
    :class:`~repro.serving.partition_cache.PartitionCache`: ``(items,
    view, columns)``, the columns only when asked for.

    The partition is looked up (and counted) like ``cache.query_many``
    would, then answered through its view, so the caller can keep the
    view for the next request on the same fault set.
    """
    view = cache.partition(faults).view()
    cols = cache.scheme.view_columns()
    return write_items(cols, view, pairs, want_path), view, cols if columns else None


class ViewCache:
    """One serving generation's partition views, least recent first,
    and the columns they are read against.

    A view arrives pickled from a shard worker (or as the object, in
    local mode) and is unpickled on its first hit, so the miss path
    pays only for keeping the bytes.  The columns arrive once; until
    they do, :meth:`get` finds nothing.
    """

    __slots__ = ("capacity", "columns", "_lru")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.columns: Optional[tuple] = None
        self._lru: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key) -> Optional[dict]:
        """The view of canonical fault key ``key``, or ``None``."""
        view = self._lru.get(key)
        if view is None:
            return None
        self._lru.move_to_end(key)
        if type(view) is bytes:
            view = self._lru[key] = pickle.loads(view)
        return view

    def put(self, key, view, columns=None) -> None:
        """Keep ``view`` (bytes or object) under ``key``, evicting the
        least recent view past capacity; ``columns`` (bytes or the
        tuple) is kept if none are yet.  A view that arrives before any
        columns is dropped."""
        if self.columns is None:
            if columns is None:
                return
            self.columns = pickle.loads(columns) if type(columns) is bytes else columns
        self._lru[key] = view
        self._lru.move_to_end(key)
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)


__all__ = ["ViewCache", "answer_by_view", "write_items"]
