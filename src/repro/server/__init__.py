"""repro.server — the network serving tier (asyncio shard RPC).

The front door of the build/serve split: a :mod:`repro.store` snapshot
built once is served to any number of network clients by
:class:`~repro.server.server.LabelServer`, which group-commits query
frames to shard workers mmap'ing that one snapshot (one batch per
shard reply, no wait timer) and supports zero-downtime blue/green
snapshot reload.

* :mod:`repro.server.protocol` — versioned length-prefixed binary
  frames (queries, answers, errors, stats, admin reload), the
  bit-exact wire codecs for scheme answers, and the answer writers
  shard workers encode their replies with;
* :mod:`repro.server.server` — the asyncio server: per-connection
  protocol callbacks, shard fan-out, backpressure, deadlines,
  generation swap;
* :mod:`repro.server.client` — blocking and asyncio clients that
  rebuild native answer dataclasses from the wire.

The names below are imported on first use, so a shard worker that
needs only :mod:`repro.server.protocol` (to run an answer writer) never
loads the server or the clients.

See ``src/repro/server/README.md`` for the serving trace.
"""

from importlib import import_module

_EXPORTS = {
    "AsyncQueryClient": "repro.server.client",
    "QueryClient": "repro.server.client",
    "ServerError": "repro.server.client",
    "StatsReport": "repro.server.client",
    "ErrorCode": "repro.server.protocol",
    "Frame": "repro.server.protocol",
    "FrameDecoder": "repro.server.protocol",
    "FrameType": "repro.server.protocol",
    "ProtocolError": "repro.server.protocol",
    "encode_frame": "repro.server.protocol",
    "BadQueryError": "repro.server.server",
    "LabelServer": "repro.server.server",
    "ServerStats": "repro.server.server",
    "ShardLostError": "repro.server.server",
    "run_server": "repro.server.server",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


__all__ = sorted(_EXPORTS)
