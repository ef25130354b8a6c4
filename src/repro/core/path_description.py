"""Succinct s-t path descriptions (Lemma 3.17, Figure 3).

When the sketch-based decoder finds ``s`` and ``t`` connected in
``G \\ F``, it additionally outputs a labeled path
``P = [s, x1, y1, x2, y2, ..., yk, t]`` of O(f) segments that
alternate between

* **0-labeled segments** — real graph edges ``(x_i, y_i)`` (the recovery
  edges found through the sketches), carrying port numbers and the
  endpoints' tree-routing labels in routing mode; and
* **1-labeled segments** — tree paths ``(y_i, x_{i+1})`` inside a single
  surviving component of ``T \\ F``.

The routing schemes of Section 5 forward messages segment by segment;
``expand`` reconstructs the full vertex path for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graph.graph import Graph
from repro.graph.spanning_tree import RootedTree
from repro.sizing.bits import bits_for_id


@dataclass(frozen=True)
class PathSegment:
    """One segment of a succinct path.

    ``kind`` is ``"edge"`` (0-labeled: a graph edge) or ``"tree"``
    (1-labeled: the x-y path in T \\ F).  Ports/tree labels are present
    only when the scheme was built with routing augmentation.
    """

    kind: str
    x: int
    y: int
    port_x: Optional[int] = None
    port_y: Optional[int] = None
    tlabel_x: Optional[int] = None
    tlabel_y: Optional[int] = None
    eid: Optional[int] = None  # raw extended identifier of a 0-segment edge

    def reversed(self) -> "PathSegment":
        return PathSegment(
            kind=self.kind,
            x=self.y,
            y=self.x,
            port_x=self.port_y,
            port_y=self.port_x,
            tlabel_x=self.tlabel_y,
            tlabel_y=self.tlabel_x,
            eid=self.eid,
        )


@dataclass(frozen=True)
class SuccinctPath:
    """An alternating 0/1-labeled s-t path of O(f) segments."""

    s: int
    t: int
    segments: tuple[PathSegment, ...]

    def recovery_edges(self) -> list[tuple[int, int]]:
        """The 0-labeled (graph) edges, in path order."""
        return [(seg.x, seg.y) for seg in self.segments if seg.kind == "edge"]

    def reversed(self) -> "SuccinctPath":
        return SuccinctPath(
            s=self.t,
            t=self.s,
            segments=tuple(seg.reversed() for seg in reversed(self.segments)),
        )

    def expand(self, graph: Graph, tree: RootedTree) -> list[int]:
        """Reconstruct the full vertex path (verification helper).

        Raises ``ValueError`` if a 0-segment is not a real graph edge or
        the segments do not chain from s to t.
        """
        path = [self.s]
        for seg in self.segments:
            if path[-1] != seg.x:
                raise ValueError(
                    f"segment starts at {seg.x} but path is at {path[-1]}"
                )
            if seg.kind == "edge":
                if not graph.has_edge(seg.x, seg.y):
                    raise ValueError(f"({seg.x}, {seg.y}) is not a graph edge")
                path.append(seg.y)
            elif seg.kind == "tree":
                path.extend(tree.tree_path(seg.x, seg.y)[1:])
            else:
                raise ValueError(f"unknown segment kind {seg.kind!r}")
        if path[-1] != self.t:
            raise ValueError(f"path ends at {path[-1]}, expected {self.t}")
        return path

    def weighted_length(self, graph: Graph, tree: RootedTree) -> float:
        """Weighted length of the encoded path."""
        total = 0.0
        for seg in self.segments:
            if seg.kind == "edge":
                ei = graph.edge_index_between(seg.x, seg.y)
                if ei is None:
                    raise ValueError(f"({seg.x}, {seg.y}) is not a graph edge")
                total += graph.weight(ei)
            else:
                total += tree.tree_distance(seg.x, seg.y)
        return total

    def bit_length(self, n: int) -> int:
        """Header size of the description: O(f log n) bits."""
        per_vertex = bits_for_id(n)
        bits = 2 * per_vertex  # s and t
        for seg in self.segments:
            bits += 1 + 2 * per_vertex  # kind bit + endpoints
            if seg.port_x is not None:
                bits += 2 * per_vertex  # ports
            if seg.tlabel_x is not None:
                bits += max(seg.tlabel_x.bit_length(), 1)
                bits += max((seg.tlabel_y or 0).bit_length(), 1)
        return bits
