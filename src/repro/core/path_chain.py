"""The Lemma 3.17 recovery chain over a partition's recorded merges.

Once a fault set's Boruvka run is decoded, an s-t path needs no sketch
work: BFS over the merges from the component of ``s`` to that of ``t``,
then orient each recovery edge from the component the chain leaves to
the one it enters.  This module holds that step alone, on plain ints
and tuples, so the sketch scheme's ``_build_path`` and the serving
tier's numpy-free answer writer (:mod:`repro.serving.views`) share one
implementation.

A merge is the tuple ``(cu, cv, u, v, port_u, port_v, tlabel_u,
tlabel_v, eid)``: the ``T \\ F`` components of the recovery edge's
endpoints ``u`` and ``v`` (``cu`` holds ``u``), its ports and tree
labels (``None`` without routing augmentation) and its raw extended
identifier.  A segment is ``(kind, x, y, port_x, port_y, tlabel_x,
tlabel_y, eid)``, the field order of
:class:`~repro.core.path_description.PathSegment` and of its wire form.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence


def chain_segments(
    s: int,
    s_tlabel: Optional[int],
    t: int,
    t_tlabel: Optional[int],
    merges: Sequence[tuple],
    cs: int,
    ct: int,
) -> list[tuple]:
    """The alternating tree/edge segments of the s-t path, ``s`` in
    component ``cs`` and ``t`` in ``ct`` (connected by ``merges``)."""
    if cs == ct:
        return [("tree", s, t, None, None, s_tlabel, t_tlabel, None)]
    adjacency: dict[int, list[tuple[int, tuple]]] = {}
    for merge in merges:
        cu, cv = merge[0], merge[1]
        adjacency.setdefault(cu, []).append((cv, merge))
        adjacency.setdefault(cv, []).append((cu, merge))
    # BFS over the merge forest from cs to ct.
    prev: dict[int, tuple[int, tuple]] = {}
    queue = deque([cs])
    visited = {cs}
    while queue:
        c = queue.popleft()
        if c == ct:
            break
        for nxt, merge in adjacency.get(c, ()):
            if nxt in visited:
                continue
            visited.add(nxt)
            prev[nxt] = (c, merge)
            queue.append(nxt)
    if ct not in visited:
        raise RuntimeError("merge forest inconsistent with connectivity verdict")
    hops: list[tuple[int, tuple]] = []  # (component left, merge crossed)
    c = ct
    while c != cs:
        pc, merge = prev[c]
        hops.append((pc, merge))
        c = pc
    hops.reverse()
    segments: list[tuple] = []
    vertex, tlabel = s, s_tlabel
    for from_comp, (cu, _cv, u, v, port_u, port_v, tl_u, tl_v, eid) in hops:
        # Orient the recovery edge: x in from_comp, y in the next one.
        if cu == from_comp:
            x, y, port_x, port_y, tl_x, tl_y = u, v, port_u, port_v, tl_u, tl_v
        else:
            x, y, port_x, port_y, tl_x, tl_y = v, u, port_v, port_u, tl_v, tl_u
        if vertex != x:
            segments.append(("tree", vertex, x, None, None, tlabel, tl_x, None))
        segments.append(("edge", x, y, port_x, port_y, tl_x, tl_y, eid))
        vertex, tlabel = y, tl_y
    if vertex != t:
        segments.append(("tree", vertex, t, None, None, tlabel, t_tlabel, None))
    return segments
