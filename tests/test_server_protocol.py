"""Fuzz and property tests of the server wire protocol.

The contract under test (see ``repro/server/protocol.py``):

* every encodable value tree and every valid frame round-trips
  bit-identically, however the byte stream is chunked;
* truncated streams never yield, never raise, never hang — the decoder
  just waits for more bytes;
* provably-garbage streams (bad magic, wrong version, oversized
  length, unknown type, malformed value trees) raise
  :class:`ProtocolError` — never any other exception — and poison the
  decoder;
* the answer writers' encoded items equal ``encode_value`` of each
  answer's wire value, and a reply spliced from them is byte-identical
  to the frame of the value list, traced or not — the v1 bytes a
  client sees do not depend on where the reply was encoded;
* a live server answers garbage with one ``ERROR`` frame and a clean
  connection close, never a traceback or a hung reader, and keeps
  serving subsequent connections.
"""

from __future__ import annotations

import math
import os
import pickle
import socket
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path_description import PathSegment, SuccinctPath
from repro.core.sketch_scheme import SketchConnectivityScheme, SkDecodeResult
from repro.graph import generators
from repro.server import QueryClient
from repro.server.protocol import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    EncodedItems,
    ErrorCode,
    FrameDecoder,
    FrameType,
    ProtocolError,
    decode_value,
    encode_frame,
    encode_value,
    sk_result_to_wire,
    write_bools,
    write_floats,
    write_sk_results,
)
from tests.server_util import ServerThread

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
    ),
    max_leaves=25,
)

_frame_types = st.sampled_from(list(FrameType))
_request_ids = st.integers(min_value=0, max_value=2**64 - 1)
_trace_ids = st.one_of(st.none(), st.integers(min_value=1, max_value=2**64 - 1))

_opt_ints = st.one_of(st.none(), st.integers(min_value=-(2**70), max_value=2**70))
_segments = st.builds(
    PathSegment,
    kind=st.one_of(st.sampled_from(["tree", "edge"]), st.text(max_size=12)),
    x=st.integers(min_value=0, max_value=2**40),
    y=st.integers(min_value=0, max_value=2**40),
    port_x=_opt_ints,
    port_y=_opt_ints,
    # routing-mode tree labels are big ints, well past 64 bits
    tlabel_x=st.one_of(st.none(), st.integers(min_value=0, max_value=2**130)),
    tlabel_y=st.one_of(st.none(), st.integers(min_value=0, max_value=2**130)),
    eid=st.one_of(st.none(), st.integers(min_value=0, max_value=2**90)),
)
_paths = st.one_of(
    st.none(),
    st.builds(
        SuccinctPath,
        s=st.integers(min_value=0, max_value=2**40),
        t=st.integers(min_value=0, max_value=2**40),
        segments=st.lists(_segments, max_size=5).map(tuple),
    ),
)
_sk_results = st.builds(
    SkDecodeResult,
    connected=st.booleans(),
    path=_paths,
    phases_used=st.integers(min_value=0, max_value=400),
)


def _nan_with_payload(sign: bool, mantissa: int) -> float:
    bits = (int(sign) << 63) | (0x7FF << 52) | mantissa
    return struct.unpack("!d", struct.pack("!Q", bits))[0]


_distances = st.one_of(
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), -0.0, 0.0]),
    st.builds(
        _nan_with_payload,
        st.booleans(),
        st.integers(min_value=1, max_value=2**52 - 1),
    ),
)


def _drain(decoder: FrameDecoder):
    return list(decoder.frames())


# ----------------------------------------------------------------------
# Value codec round trips
# ----------------------------------------------------------------------
@given(_values)
def test_value_roundtrip(value):
    assert decode_value(encode_value(value)) == value


@given(st.integers(min_value=-(2**512), max_value=2**512))
def test_huge_int_roundtrip(value):
    """Tree-routing labels are arbitrary-precision ints — no 64-bit cap."""
    assert decode_value(encode_value(value)) == value


def test_float_bits_survive():
    for bits in (0.1, -0.0, float("inf"), float("-inf"), 2.0**-1074):
        out = decode_value(encode_value(bits))
        assert struct.pack("!d", out) == struct.pack("!d", bits)
    nan = decode_value(encode_value(float("nan")))
    assert math.isnan(nan)


def test_bool_is_not_int_on_the_wire():
    assert decode_value(encode_value(True)) is True
    assert decode_value(encode_value(1)) == 1
    assert decode_value(encode_value(1)) is not True


@given(_values)
def test_no_trailing_bytes_accepted(value):
    raw = encode_value(value)
    with pytest.raises(ProtocolError):
        decode_value(raw + b"\x00")


# ----------------------------------------------------------------------
# Answer writers: encoded items splice into byte-identical v1 replies
# ----------------------------------------------------------------------
def _assert_spliced(reply_type, items, values, request_id, trace_id):
    assert items == [encode_value(v) for v in values]
    assert encode_frame(
        reply_type, request_id, EncodedItems(items), trace_id=trace_id
    ) == encode_frame(reply_type, request_id, values, trace_id=trace_id)


@given(st.lists(_sk_results, max_size=6), _request_ids, _trace_ids)
@settings(max_examples=150)
def test_sk_writer_splices_byte_identical_replies(answers, request_id, trace_id):
    _assert_spliced(
        FrameType.CONNECTIVITY_REPLY,
        write_sk_results(answers),
        [sk_result_to_wire(a) for a in answers],
        request_id,
        trace_id,
    )


@given(st.lists(st.booleans(), max_size=12), _request_ids, _trace_ids)
def test_bool_writer_splices_byte_identical_replies(answers, request_id, trace_id):
    _assert_spliced(
        FrameType.CONNECTIVITY_REPLY,
        write_bools(answers),
        [bool(a) for a in answers],
        request_id,
        trace_id,
    )


@given(st.lists(_distances, max_size=12), _request_ids, _trace_ids)
def test_float_writer_splices_byte_identical_replies(answers, request_id, trace_id):
    # bytes, not floats, are compared: NaN payloads, infinities and the
    # sign of zero must survive exactly
    _assert_spliced(
        FrameType.DISTANCE_REPLY,
        write_floats(answers),
        [float(a) for a in answers],
        request_id,
        trace_id,
    )


def test_writers_accept_numpy_answers():
    import numpy as np

    assert write_bools(np.array([True, False])) == [b"T", b"F"]
    assert write_floats(np.array([1.5, -0.0])) == [
        encode_value(1.5),
        encode_value(-0.0),
    ]


def test_a_writer_loads_the_protocol_alone():
    """Shard workers unpickle a writer on their first chunk, inside the
    server's cold start: that must not load the server or the clients."""
    code = (
        "import pickle, sys\n"
        "from repro.serving import shards\n"
        "pickle.loads(sys.stdin.buffer.read())\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.server')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps(write_sk_results),
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    loaded = proc.stdout.decode().strip()
    assert loaded == "['repro.server', 'repro.server.protocol']"


# ----------------------------------------------------------------------
# Frame round trips under arbitrary chunking
# ----------------------------------------------------------------------
@given(_frame_types, _request_ids, _values, st.data())
@settings(max_examples=60)
def test_frame_roundtrip_chunked(ftype, request_id, payload, data):
    wire = encode_frame(ftype, request_id, payload)
    cut_count = data.draw(st.integers(0, min(5, len(wire))))
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(0, len(wire)),
                min_size=cut_count,
                max_size=cut_count,
            )
        )
    )
    decoder = FrameDecoder()
    frames = []
    prev = 0
    for cut in cuts + [len(wire)]:
        decoder.feed(wire[prev:cut])
        frames.extend(decoder.frames())
        prev = cut
    assert len(frames) == 1
    frame = frames[0]
    assert frame.type is ftype
    assert frame.request_id == request_id
    assert frame.payload == payload
    assert decoder.buffered == 0


@given(_values, st.integers(min_value=1, max_value=64))
@settings(max_examples=60)
def test_truncated_stream_waits_silently(payload, drop):
    wire = encode_frame(FrameType.CONNECTIVITY, 7, payload)
    drop = min(drop, len(wire) - 1)
    decoder = FrameDecoder()
    decoder.feed(wire[:-drop])
    assert _drain(decoder) == []  # no frame, no exception, no hang
    decoder.feed(wire[-drop:])
    frames = _drain(decoder)
    assert len(frames) == 1 and frames[0].payload == payload


# ----------------------------------------------------------------------
# Garbage: ProtocolError or nothing, never anything else
# ----------------------------------------------------------------------
def _expect_protocol_error(raw: bytes):
    decoder = FrameDecoder()
    decoder.feed(raw)
    with pytest.raises(ProtocolError):
        _drain(decoder)
    # poisoned: the decoder refuses further bytes rather than resyncing
    with pytest.raises(ProtocolError):
        decoder.feed(b"")


def test_bad_magic_rejected():
    good = encode_frame(FrameType.PING, 1)
    _expect_protocol_error(b"XX" + good[2:])


def test_bad_version_rejected():
    good = encode_frame(FrameType.PING, 1)
    _expect_protocol_error(good[:2] + bytes([PROTOCOL_VERSION + 1]) + good[3:])


def test_unknown_frame_type_rejected():
    good = encode_frame(FrameType.PING, 1)
    _expect_protocol_error(good[:3] + b"\xee" + good[4:])


def test_oversized_payload_rejected_at_header():
    header = struct.Struct("!2sBBQI").pack(
        MAGIC, PROTOCOL_VERSION, int(FrameType.PING), 1, MAX_PAYLOAD + 1
    )
    # rejected from the header alone — no payload bytes were ever sent
    _expect_protocol_error(header)


def test_malformed_value_tree_rejected():
    raw = b"\xff\xff\xff"  # unknown value tag
    header = struct.Struct("!2sBBQI").pack(
        MAGIC, PROTOCOL_VERSION, int(FrameType.PING), 1, len(raw)
    )
    _expect_protocol_error(header + raw)


@given(st.binary(max_size=200))
@settings(max_examples=200)
def test_arbitrary_bytes_never_traceback(blob):
    """Any byte blob either parses, waits, or raises ProtocolError."""
    decoder = FrameDecoder()
    decoder.feed(blob)
    try:
        _drain(decoder)
    except ProtocolError:
        pass


@given(st.binary(max_size=300))
@settings(max_examples=200)
def test_decode_value_never_tracebacks(blob):
    try:
        decode_value(blob)
    except ProtocolError:
        pass


def test_deep_value_trees_rejected_not_stack_blown():
    nested = None
    for _ in range(2000):
        nested = [nested]
    with pytest.raises(ProtocolError):
        encode_value(nested)


# ----------------------------------------------------------------------
# A live server under garbage (network-marked: watchdogged)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_server():
    graph = generators.random_connected_graph(16, extra_edges=12, seed=5)
    scheme = SketchConnectivityScheme(graph, seed=6)
    with ServerThread(scheme, deadline_s=30.0) as harness:
        yield harness


def _recv_frames(sock: socket.socket, decoder: FrameDecoder):
    """Read until the server closes; returns every decoded frame."""
    frames = []
    while True:
        data = sock.recv(65536)
        if not data:
            return frames, True
        decoder.feed(data)
        frames.extend(decoder.frames())
        if frames:
            return frames, False


@pytest.mark.network
def test_server_answers_garbage_with_error_frame_then_close(tiny_server):
    with socket.create_connection(("127.0.0.1", tiny_server.port), timeout=30) as sock:
        sock.sendall(b"\x00" * 64)  # not even a valid header
        frames, _closed = _recv_frames(sock, FrameDecoder())
        assert len(frames) == 1
        assert frames[0].type is FrameType.ERROR
        code, _message = frames[0].payload
        assert ErrorCode(code) is ErrorCode.BAD_FRAME
        # and then the connection closes — nothing more arrives
        assert sock.recv(65536) == b""


@pytest.mark.network
def test_server_rejects_oversized_header_before_payload(tiny_server):
    with socket.create_connection(("127.0.0.1", tiny_server.port), timeout=30) as sock:
        sock.sendall(
            struct.Struct("!2sBBQI").pack(
                MAGIC, PROTOCOL_VERSION, int(FrameType.PING), 3, MAX_PAYLOAD + 1
            )
        )
        frames, _closed = _recv_frames(sock, FrameDecoder())
        assert frames and frames[0].type is FrameType.ERROR


@pytest.mark.network
def test_server_survives_truncated_frame_and_disconnect(tiny_server):
    wire = encode_frame(FrameType.PING, 9)
    with socket.create_connection(("127.0.0.1", tiny_server.port), timeout=30) as sock:
        sock.sendall(wire[: HEADER_SIZE + 1])  # abandon mid-frame
    # the server must shrug it off and keep serving
    with QueryClient("127.0.0.1", tiny_server.port, timeout=30) as client:
        assert client.ping() >= 1


@pytest.mark.network
def test_server_keeps_serving_after_garbage_connection(tiny_server):
    with socket.create_connection(("127.0.0.1", tiny_server.port), timeout=30) as sock:
        sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        _frames, _closed = _recv_frames(sock, FrameDecoder())
    with QueryClient("127.0.0.1", tiny_server.port, timeout=30) as client:
        assert client.connected(0, 1, []) in (True, False)
        stats = client.stats()
    assert stats["server"]["protocol_errors"] >= 1
