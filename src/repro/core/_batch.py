"""Shared plumbing for the batched ``query_many`` APIs.

Every scheme-level ``query_many(pairs, faults)`` accepts the fault
argument in two shapes: one iterable of edge indices shared by all
query pairs, or a sequence of per-pair iterables.  The normalization is
scheme-independent and lives here so the facades, oracles and scenario
runner all agree on the convention.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral
from typing import Optional, Sequence


def check_fault_ids(ids: Sequence[int], m: int) -> None:
    """Raise ``ValueError`` if any edge id lies outside ``0..m-1``.

    Decoders index per-edge lists with these ids, where a negative id
    would silently wrap onto a real edge (``-1`` is edge ``m - 1``) and
    an id ``>= m`` would raise a bare ``IndexError``.
    """
    if ids and (min(ids) < 0 or max(ids) >= m):
        bad = next(ei for ei in ids if not 0 <= ei < m)
        raise ValueError(f"fault edge id {bad} out of range for m={m}")


def check_vertex_ids(pairs: Sequence, n: int) -> None:
    """Raise ``ValueError`` if any vertex of ``pairs`` lies outside
    ``0..n-1``.

    Label stores are per-vertex lists and arrays, where ``-1`` would
    silently answer for vertex ``n - 1`` and ``n`` would raise a bare
    ``IndexError``.
    """
    for s, t in pairs:
        if not (0 <= s < n and 0 <= t < n):
            bad = t if 0 <= s < n else s
            raise ValueError(f"vertex id {bad} out of range for n={n}")


def normalize_faults(
    pairs: Sequence, faults, m: Optional[int] = None
) -> list[list[int]]:
    """Per-pair fault lists for ``query_many(pairs, faults)``.

    ``faults`` is either a flat iterable of edge indices (shared by all
    pairs) or a sequence of per-pair iterables whose length matches
    ``pairs``.  The two cases are told apart by the first element's
    type; an empty argument means no faults anywhere.  With ``m`` given,
    every id goes through :func:`check_fault_ids`.
    """
    flist = list(faults)
    if flist and isinstance(flist[0], Integral):
        shared = [int(ei) for ei in flist]
        if m is not None:
            check_fault_ids(shared, m)
        return [shared] * len(pairs)
    if not flist:
        return [[]] * len(pairs)
    if len(flist) != len(pairs):
        raise ValueError(
            f"got {len(flist)} fault sets for {len(pairs)} query pairs"
        )
    per = [[int(ei) for ei in F] for F in flist]
    if m is not None:
        check_fault_ids(list(chain.from_iterable(per)), m)
    return per
