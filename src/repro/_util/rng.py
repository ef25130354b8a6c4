"""Deterministic randomness utilities.

Every randomized scheme in this package is driven by a single integer
*master seed*.  Independent random streams (sketch units, hash functions,
identifier PRFs) are derived from the master seed with a keyed BLAKE2b
PRF, so results are reproducible bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEED_BYTES = 16


def _to_bytes(value: int | str | bytes) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, int):
        length = max(1, (value.bit_length() + 8) // 8)
        return value.to_bytes(length, "big", signed=True)
    raise TypeError(f"cannot derive seed material from {type(value)!r}")


def _prf_key(seed: int) -> bytes:
    """The 16-byte BLAKE2b key derived from an integer seed."""
    return _to_bytes(seed).rjust(16, b"\0")[-16:]


def _frame(part: int | str | bytes) -> bytes:
    """Length-prefixed salt framing: 4-byte big-endian length + bytes."""
    data = _to_bytes(part)
    return len(data).to_bytes(4, "big") + data


def _extend_digest(digest: bytes, key: bytes, size: int) -> bytes:
    """Stretch a digest to ``size`` bytes by rehashing the accumulation."""
    while len(digest) < size:
        digest += hashlib.blake2b(digest, key=key, digest_size=64).digest()
    return digest[:size]


def prf_bytes(seed: int, *salt: int | str | bytes, size: int = 16) -> bytes:
    """Return ``size`` pseudo-random bytes determined by ``seed`` and ``salt``.

    This is the package-wide PRF: a keyed BLAKE2b hash of the salt values,
    keyed by the seed.  It backs both seed derivation and the unique edge
    identifiers of Lemma 3.8 (see ``repro.sketches.edge_ids``).
    """
    key = _prf_key(seed)
    h = hashlib.blake2b(key=key, digest_size=min(size, 64))
    for part in salt:
        h.update(_frame(part))
    return _extend_digest(h.digest(), key, size)


def prf_int(seed: int, *salt: int | str | bytes, bits: int = 64) -> int:
    """Return a pseudo-random ``bits``-bit integer determined by seed+salt."""
    size = (bits + 7) // 8
    value = int.from_bytes(prf_bytes(seed, *salt, size=size), "big")
    return value & ((1 << bits) - 1)


def prf_int_pairs(
    seed: int, label: str, pairs, bits: int = 64, frame_cache=None
) -> list[int]:
    """``prf_int(seed, label, a, b)`` for many ``(a, b)`` pairs at once.

    Bit-identical to the scalar path — both are built on the same
    :func:`_prf_key` / :func:`_frame` / :func:`_extend_digest` helpers —
    with the key derivation and label framing hoisted out of the loop.
    The per-pair cost is one BLAKE2b evaluation, the hot path of bulk
    edge-identifier construction and of batched candidate validation.

    ``frame_cache`` may be a caller-owned dict reused across calls: the
    length-prefixed framings of the integer operands are pure values, so
    a persistent cache (e.g. one per ``UidScheme``) amortizes them to a
    dict hit — the decoder validates candidate streams whose ids repeat
    heavily across batches.  The keyed, label-framed BLAKE2b state every
    pair starts from is a pure value too, cached under
    ``(seed, label, bits)``.
    """
    size = (bits + 7) // 8
    mask = (1 << bits) - 1
    from_bytes = int.from_bytes
    framed: dict = {} if frame_cache is None else frame_cache
    framed_get = framed.get
    digest_size = min(size, 64)
    base = framed_get((seed, label, bits))
    if base is None:
        base = framed[(seed, label, bits)] = hashlib.blake2b(
            _frame(label), key=_prf_key(seed), digest_size=digest_size
        )
    base_copy = base.copy
    extend = size > digest_size  # one digest already covers the output
    key = _prf_key(seed) if extend else b""
    out: list[int] = []
    for a, b in pairs:
        fa = framed_get(a)
        if fa is None:
            fa = framed[a] = _frame(a)
        fb = framed_get(b)
        if fb is None:
            fb = framed[b] = _frame(b)
        h = base_copy()
        h.update(fa + fb)
        digest = h.digest()
        if extend:
            digest = _extend_digest(digest, key, size)
        out.append(from_bytes(digest, "big") & mask)
    return out


def derive_seed(seed: int, *salt: int | str | bytes) -> int:
    """Derive an independent 128-bit child seed from a master seed."""
    return int.from_bytes(prf_bytes(seed, *salt, size=_SEED_BYTES), "big")


def rng_from(seed: int, *salt: int | str | bytes) -> np.random.Generator:
    """Create a numpy Generator seeded deterministically from seed+salt."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *salt)))
