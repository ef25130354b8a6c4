"""The wire protocol of the label server: versioned, length-prefixed
binary frames.

A decoder that holds nothing but labels only deserves the word
*scheme* when it answers over a wire, so the protocol is deliberately
small and fully self-describing:

``frame = header(16 bytes) | [trace_id(8 bytes)] | payload``::

    !2s B  B    Q          I
    magic ver  type  request_id  payload_len

* ``magic`` is ``b"DP"`` (Dory–Parter); ``ver`` is
  :data:`PROTOCOL_VERSION` — a reader rejects anything else before
  touching the payload;
* ``type`` is a :class:`FrameType` in the low 7 bits; the high bit is
  :data:`FLAG_TRACED` — when set, an 8-byte big-endian trace id
  follows the header (before the payload) for request correlation
  across the serving tier.  Frames without the flag are byte-identical
  to the original version-1 encoding, so old clients and old servers
  are unaffected;
* ``request_id`` is chosen by the client and echoed verbatim on the
  response (responses may complete out of order);
* ``payload_len`` is bounded by :data:`MAX_PAYLOAD`; oversized frames
  are a protocol error *at the header*, so a hostile length field can
  never make a reader buffer gigabytes.

The payload is one *value tree* in a canonical tagged binary encoding
(:func:`encode_value` / :func:`decode_value`): ``None``, bools,
integers (zigzag varints), floats (IEEE-754 big-endian — decoded
bit-identical), strings, bytes, and lists/tuples of values.  Query
answers cross the wire as value trees and are rebuilt into the
schemes' native dataclasses (:func:`wire_to_sk_result`,
:func:`wire_to_route_result`) so a client-side answer compares equal —
``==``, succinct paths and telemetry included — to the in-process
``query_many`` / ``route_many`` answer.  That equality is the server's
acceptance bar (``tests/test_server_e2e.py``).

Replies are written where the answers are made.  The answer writers
(:func:`write_sk_results`, :func:`write_bools`, :func:`write_floats`)
turn a chunk of native answers into a list of encoded items, one
``bytes`` per answer, each equal to :func:`encode_value` of the
answer's wire value; :func:`write_sk_item` writes one connectivity
answer from plain fields, for the sketch view writer
(:mod:`repro.serving.views`) that shard workers and the server's cache
hits both run.  Workers send the items over their pipe; the server
wraps the reply's items in
:class:`EncodedItems`, which :func:`encode_frame` splices verbatim, so
the frame is byte-identical to encoding the value list and the front
door never builds an answer object or a value tree.

:class:`FrameDecoder` is incremental and paranoid: feed it any byte
stream; it yields complete frames and raises :class:`ProtocolError` on
garbage — truncated streams simply never yield (no hang, no crash:
``tests/test_server_protocol.py`` fuzzes exactly this contract).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import cache
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:  # the answer classes load only where answers are rebuilt
    from repro.core.sketch_scheme import SkDecodeResult
    from repro.routing.network import RouteResult

#: Protocol magic + version: the first three bytes of every frame.
MAGIC = b"DP"
PROTOCOL_VERSION = 1

#: Hard bound on a frame payload; a header announcing more is rejected
#: before any payload is read.
MAX_PAYLOAD = 8 * 1024 * 1024

_HEADER = struct.Struct("!2sBBQI")
HEADER_SIZE = _HEADER.size

#: High bit of the ``type`` header byte: an 8-byte trace id follows
#: the header.  Flag-clear frames are byte-identical to pre-tracing
#: version-1 frames.
FLAG_TRACED = 0x80
_TYPE_MASK = 0x7F
_TRACE_ID = struct.Struct("!Q")
TRACE_ID_SIZE = _TRACE_ID.size


class ProtocolError(ValueError):
    """A malformed frame or value tree (the connection must be dropped)."""


class FrameType(IntEnum):
    """Frame type tags (the ``type`` header byte)."""

    PING = 1
    PONG = 2
    CONNECTIVITY = 3  # [[s0, t0, s1, t1, ...], [faults...], want_path]
    CONNECTIVITY_REPLY = 4  # [sk_result, ...]
    DISTANCE = 5  # [[s0, t0, ...], [faults...]]
    DISTANCE_REPLY = 6  # [float, ...]
    ROUTE = 7  # [[s0, t0, ...], [faults...]]
    ROUTE_REPLY = 8  # [route_result, ...]
    STATS = 9  # None
    STATS_REPLY = 10  # JSON string
    RELOAD = 11  # None (re-open current path) or new snapshot path
    RELOAD_REPLY = 12  # [old_version, new_version, kind]
    ERROR = 13  # [code, message]


class ErrorCode(IntEnum):
    """``ERROR`` frame codes."""

    BAD_FRAME = 1  # malformed frame/payload: the connection closes after
    UNSUPPORTED = 2  # valid frame, but this server cannot answer it
    BAD_QUERY = 3  # vertex/edge ids out of range, odd pair list, ...
    DEADLINE = 4  # the request missed the server's deadline
    SHARD_LOST = 5  # a shard worker died with this request in flight
    INTERNAL = 6  # unexpected server-side failure


@dataclass(frozen=True)
class Frame:
    """One decoded frame.

    ``trace_id`` is ``None`` unless the frame carried the
    :data:`FLAG_TRACED` header field; servers echo a request's trace id
    on the reply, so a client can correlate answers with the server's
    slow-query log.
    """

    type: FrameType
    request_id: int
    payload: object
    trace_id: Optional[int] = None


# ----------------------------------------------------------------------
# Canonical value codec
# ----------------------------------------------------------------------
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_FLOAT = b"d"
_T_STR = b"s"
_T_BYTES = b"b"
_T_LIST = b"l"
_T_TUPLE = b"t"

#: Value trees deeper than this are rejected (stack-blowing payloads).
_MAX_DEPTH = 32

_DOUBLE = struct.Struct("!d")


class EncodedItems(list):
    """A list payload whose items are already-encoded value trees.

    Each item is the ``bytes`` that :func:`encode_value` gives for one
    value (the answer writers below make them).  Encoding the list
    splices the items verbatim, so ``EncodedItems(map(encode_value,
    values))`` encodes exactly like ``list(values)``.
    """

    __slots__ = ()


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_value(out: bytearray, value, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise ProtocolError("value tree too deep to encode")
    if value is None:
        out += _T_NONE
    elif value is True:
        out += _T_TRUE
    elif value is False:
        out += _T_FALSE
    elif isinstance(value, int):
        out += _T_INT
        _write_varint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)
    elif isinstance(value, float):
        out += _T_FLOAT
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _T_STR
        _write_varint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out += _T_BYTES
        _write_varint(out, len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out += _T_LIST if isinstance(value, list) else _T_TUPLE
        _write_varint(out, len(value))
        if type(value) is EncodedItems:
            out += b"".join(value)
        else:
            for item in value:
                _write_value(out, item, depth + 1)
    else:
        raise ProtocolError(f"cannot encode {type(value).__name__} values")


def encode_value(value) -> bytes:
    """Canonical binary encoding of a payload value tree."""
    out = bytearray()
    _write_value(out, value, 0)
    return bytes(out)


class _Reader:
    """Bounds-checked cursor over one payload buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise ProtocolError("truncated value payload")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def varint(self) -> int:
        result = shift = 0
        while True:
            if self.pos >= len(self.data):
                raise ProtocolError("truncated varint")
            if shift > 1024:
                # tree-routing labels are big ints, so varints are not
                # capped at 64 bits — but a malicious stream of
                # continuation bytes must still terminate.
                raise ProtocolError("varint too long")
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7


def _read_value(r: _Reader, depth: int):
    if depth > _MAX_DEPTH:
        raise ProtocolError("value tree too deep")
    tag = r.take(1)
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        z = r.varint()
        return (z >> 1) ^ -(z & 1)
    if tag == _T_FLOAT:
        return struct.unpack("!d", r.take(8))[0]
    if tag == _T_STR:
        raw = r.take(r.varint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("invalid utf-8 in string value") from exc
    if tag == _T_BYTES:
        return r.take(r.varint())
    if tag in (_T_LIST, _T_TUPLE):
        count = r.varint()
        if count > len(r.data) - r.pos:
            # every element costs >= 1 byte: reject absurd counts early
            raise ProtocolError("list length exceeds payload")
        items = [_read_value(r, depth + 1) for _ in range(count)]
        return items if tag == _T_LIST else tuple(items)
    raise ProtocolError(f"unknown value tag {tag!r}")


def decode_value(data: bytes):
    """Decode one value tree; rejects trailing bytes."""
    r = _Reader(data)
    value = _read_value(r, 0)
    if r.pos != len(data):
        raise ProtocolError("trailing bytes after value payload")
    return value


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_frame(
    ftype: FrameType,
    request_id: int,
    payload=None,
    trace_id: Optional[int] = None,
) -> bytes:
    """One complete wire frame.

    With ``trace_id`` set, :data:`FLAG_TRACED` is raised on the type
    byte and the 8-byte id is written between header and payload;
    without it the bytes are identical to the pre-tracing encoding.
    An :class:`EncodedItems` payload (a reply's answer-writer items) is
    spliced into the frame as is, never decoded.
    """
    raw = encode_value(payload)
    if len(raw) > MAX_PAYLOAD:
        raise ProtocolError("payload exceeds MAX_PAYLOAD")
    type_byte = int(ftype)
    extra = b""
    if trace_id is not None:
        if not 0 < trace_id < 1 << 64:
            raise ProtocolError("trace id must fit an unsigned 64-bit field")
        type_byte |= FLAG_TRACED
        extra = _TRACE_ID.pack(trace_id)
    return _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, type_byte, request_id, len(raw)
    ) + extra + raw


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte stream.

    ``feed`` buffers bytes; ``frames()`` yields every complete
    :class:`Frame` and raises :class:`ProtocolError` the moment the
    stream is provably garbage (bad magic, wrong version, unknown
    type, oversized payload, malformed value tree).  A truncated
    stream yields nothing and raises nothing — the caller decides when
    EOF makes that an error.
    """

    def __init__(self):
        self._buf = bytearray()
        self._poisoned = False

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        if self._poisoned:
            raise ProtocolError("decoder is poisoned by an earlier error")
        self._buf += data

    def frames(self) -> Iterator[Frame]:
        while len(self._buf) >= HEADER_SIZE:
            magic, version, ftype, request_id, length = _HEADER.unpack_from(
                self._buf
            )
            if magic != MAGIC:
                self._poisoned = True
                raise ProtocolError(f"bad magic {magic!r}")
            if version != PROTOCOL_VERSION:
                self._poisoned = True
                raise ProtocolError(f"unsupported protocol version {version}")
            if length > MAX_PAYLOAD:
                self._poisoned = True
                raise ProtocolError(f"payload of {length} bytes exceeds bound")
            traced = bool(ftype & FLAG_TRACED)
            try:
                ftype = FrameType(ftype & _TYPE_MASK)
            except ValueError:
                self._poisoned = True
                raise ProtocolError(
                    f"unknown frame type {ftype & _TYPE_MASK}"
                ) from None
            extra = TRACE_ID_SIZE if traced else 0
            if len(self._buf) < HEADER_SIZE + extra + length:
                return  # wait for more bytes
            trace_id = None
            if traced:
                (trace_id,) = _TRACE_ID.unpack_from(self._buf, HEADER_SIZE)
                if trace_id == 0:
                    self._poisoned = True
                    raise ProtocolError("traced frame with zero trace id")
            start = HEADER_SIZE + extra
            raw = bytes(self._buf[start : start + length])
            del self._buf[: start + length]
            try:
                payload = decode_value(raw)
            except ProtocolError:
                self._poisoned = True
                raise
            yield Frame(ftype, request_id, payload, trace_id)


# ----------------------------------------------------------------------
# Query payload helpers (requests)
# ----------------------------------------------------------------------
def encode_pairs(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Flatten (s, t) pairs for the wire."""
    flat: list[int] = []
    for s, t in pairs:
        flat.append(int(s))
        flat.append(int(t))
    return flat


def decode_pairs(flat) -> list[tuple[int, int]]:
    """Rebuild (s, t) pairs; rejects odd-length or non-int lists."""
    if not isinstance(flat, (list, tuple)) or len(flat) % 2:
        raise ProtocolError("pair list must hold an even number of ints")
    for x in flat:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ProtocolError("pair list must hold ints")
    return [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def decode_faults(faults) -> list[int]:
    if not isinstance(faults, (list, tuple)):
        raise ProtocolError("fault list must be a list of ints")
    for x in faults:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ProtocolError("fault list must hold ints")
    return list(faults)


# ----------------------------------------------------------------------
# Answer <-> wire conversion (bit-identical round trips)
# ----------------------------------------------------------------------
def _opt(v: Optional[int]):
    return None if v is None else int(v)


def sk_result_to_wire(result: SkDecodeResult):
    """``SkDecodeResult`` (succinct path included) as a value tree."""
    if result.path is None:
        path = None
    else:
        path = (
            result.path.s,
            result.path.t,
            [
                (
                    seg.kind,
                    seg.x,
                    seg.y,
                    _opt(seg.port_x),
                    _opt(seg.port_y),
                    _opt(seg.tlabel_x),
                    _opt(seg.tlabel_y),
                    _opt(seg.eid),
                )
                for seg in result.path.segments
            ],
        )
    return (bool(result.connected), int(result.phases_used), path)


@cache
def _sk_answer_types():
    """``(SkDecodeResult, SuccinctPath, PathSegment)``, imported on first
    use: only clients rebuild answers, and a front door importing this
    module must not load the decoder.  Cached: the two import
    statements cost about 3 µs per call, more than rebuilding a
    verdict."""
    from repro.core.path_description import PathSegment, SuccinctPath
    from repro.core.sketch_scheme import SkDecodeResult

    return SkDecodeResult, SuccinctPath, PathSegment


@cache
def _route_answer_types():
    """``(RouteResult, Telemetry)``, imported on first use (see
    :func:`_sk_answer_types`)."""
    from repro.routing.network import RouteResult, Telemetry

    return RouteResult, Telemetry


def wire_to_sk_result(value) -> SkDecodeResult:
    SkDecodeResult, SuccinctPath, PathSegment = _sk_answer_types()
    try:
        connected, phases, path = value
        if path is not None:
            s, t, segs = path
            path = SuccinctPath(
                s=s,
                t=t,
                segments=tuple(
                    PathSegment(
                        kind=kind,
                        x=x,
                        y=y,
                        port_x=px,
                        port_y=py,
                        tlabel_x=tx,
                        tlabel_y=ty,
                        eid=eid,
                    )
                    for kind, x, y, px, py, tx, ty, eid in segs
                ),
            )
        return SkDecodeResult(connected=connected, path=path, phases_used=phases)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed connectivity answer: {exc}") from exc


#: ``encode_value`` of every zigzagged int below 128: one tag, one byte.
_SMALL_INTS = [_T_INT + bytes([z]) for z in range(0x80)]
_TUPLE3 = _T_TUPLE + b"\x03"
_TUPLE8 = _T_TUPLE + b"\x08"
_KIND_ITEMS = {kind: encode_value(kind) for kind in ("edge", "tree")}


def _put_int(out: bytearray, value: int) -> None:
    """Append ``encode_value(value)`` of an int to ``out``."""
    z = value << 1 if value >= 0 else ((-value) << 1) - 1
    if z < 0x80:
        out += _SMALL_INTS[z]
    else:
        out += _T_INT
        _write_varint(out, z)


def write_sk_item(connected: bool, phases: int, path) -> bytes:
    """``encode_value`` of one connectivity answer's wire value, written
    without building the value tree: ``path`` is ``None`` or ``(s, t,
    segments)``, each segment a tuple in
    :class:`~repro.core.path_description.PathSegment` field order."""
    out = bytearray(_TUPLE3)
    out += _T_TRUE if connected else _T_FALSE
    _put_int(out, phases)
    if path is None:
        out += _T_NONE
        return bytes(out)
    s, t, segments = path
    out += _TUPLE3
    _put_int(out, s)
    _put_int(out, t)
    out += _T_LIST
    _write_varint(out, len(segments))
    for kind, x, y, *rest in segments:
        out += _TUPLE8
        item = _KIND_ITEMS.get(kind)
        out += encode_value(kind) if item is None else item
        _put_int(out, x)
        _put_int(out, y)
        for value in rest:
            if value is None:
                out += _T_NONE
            else:
                _put_int(out, int(value))
    return bytes(out)


def write_sk_results(answers) -> list[bytes]:
    """Encoded reply items of ``SkDecodeResult`` answers.

    Item ``i`` equals ``encode_value(sk_result_to_wire(answers[i]))``.
    The server answers from partition views instead
    (:func:`repro.serving.views.write_items`); this is their reference.
    """
    return [
        write_sk_item(
            a.connected,
            int(a.phases_used),
            None
            if a.path is None
            else (
                a.path.s,
                a.path.t,
                [
                    (seg.kind, seg.x, seg.y, seg.port_x, seg.port_y,
                     seg.tlabel_x, seg.tlabel_y, seg.eid)
                    for seg in a.path.segments
                ],
            ),
        )
        for a in answers
    ]


def write_bools(answers) -> list[bytes]:
    """Encoded reply items of connectivity verdicts (``bool(a)`` each)."""
    return [_T_TRUE if a else _T_FALSE for a in answers]


def write_floats(answers) -> list[bytes]:
    """Encoded reply items of distance estimates (``float(a)`` each)."""
    return [_T_FLOAT + _DOUBLE.pack(float(a)) for a in answers]


def route_result_to_wire(result: RouteResult):
    """``RouteResult`` (trace + full telemetry) as a value tree."""
    tel = result.telemetry
    return (
        bool(result.delivered),
        int(result.s),
        int(result.t),
        float(result.length),
        _opt(result.scale),
        [int(v) for v in result.trace],
        (
            tel.hops,
            float(tel.weighted),
            tel.gamma_queries,
            tel.reversals,
            tel.reversal_hops,
            tel.decode_calls,
            tel.phases,
            tel.iterations,
            tel.max_header_bits,
        ),
    )


def wire_to_route_result(value) -> RouteResult:
    RouteResult, Telemetry = _route_answer_types()
    try:
        delivered, s, t, length, scale, trace, tel = value
        (hops, weighted, gamma, reversals, reversal_hops, decodes,
         phases, iterations, header_bits) = tel
        return RouteResult(
            delivered=delivered,
            s=s,
            t=t,
            telemetry=Telemetry(
                hops=hops,
                weighted=weighted,
                gamma_queries=gamma,
                reversals=reversals,
                reversal_hops=reversal_hops,
                decode_calls=decodes,
                phases=phases,
                iterations=iterations,
                max_header_bits=header_bits,
            ),
            length=length,
            scale=scale,
            trace=list(trace),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed route answer: {exc}") from exc


__all__ = [
    "EncodedItems",
    "ErrorCode",
    "FLAG_TRACED",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "HEADER_SIZE",
    "TRACE_ID_SIZE",
    "MAGIC",
    "MAX_PAYLOAD",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_faults",
    "decode_pairs",
    "decode_value",
    "encode_frame",
    "encode_pairs",
    "encode_value",
    "route_result_to_wire",
    "sk_result_to_wire",
    "wire_to_route_result",
    "wire_to_sk_result",
    "write_bools",
    "write_floats",
    "write_sk_item",
    "write_sk_results",
]
