"""Real-time collaboration server (asyncio WebSockets + HTTP long-polling).

This package turns the in-process machinery — :class:`~repro.core.document.Document`,
``export_since_seq`` suffix deltas and :class:`~repro.network.causal_broadcast.CausalBuffer`
batch delivery — into a network service:

* :mod:`repro.server.protocol` — the JSON message schema (hello / welcome /
  delta / presence / error / bye) shared by both transports, with structured
  rejection of malformed frames.
* :mod:`repro.server.wire` — a minimal HTTP/1.1 request reader and an RFC 6455
  WebSocket implementation over asyncio streams (no third-party deps).
* :mod:`repro.server.session` — per-document rooms and per-connection
  sessions; one inbound :class:`CausalBuffer` per room orders and dedups
  every upload, each ingested batch becomes one ``delta`` frame shared by
  every session, and a session filters out only its own client's uploads.
* :mod:`repro.server.app` — :class:`CollabServer`, the asyncio server that
  speaks WebSockets on the fast path and degrades to HTTP long-polling
  (cursor presence disabled there, like sysreptor's fallback).
* :mod:`repro.server.loadgen` — a load-generator client that replays
  trace-suite sessions over real sockets and measures delivery latency.
* :mod:`repro.server.wal` — crash-safe durable rooms: a varint-framed,
  CRC-guarded write-ahead log per room with group-commit fsync, snapshot
  compaction and torn-tail-tolerant recovery.

Run a standalone server with ``python -m repro.server``.
"""

from .app import CollabServer
from .loadgen import (
    LoadgenResult,
    ReconnectPolicy,
    run_loadgen,
    run_loadgen_sync,
    run_trace_replay,
)
from .protocol import ProtocolError, decode_frame, encode_frame
from .session import DocumentRoom, Session
from .wal import DurabilityOptions, RecoveryInfo, RoomStorage, recover_document

__all__ = [
    "CollabServer",
    "DocumentRoom",
    "Session",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "LoadgenResult",
    "ReconnectPolicy",
    "DurabilityOptions",
    "RecoveryInfo",
    "RoomStorage",
    "recover_document",
    "run_loadgen",
    "run_loadgen_sync",
    "run_trace_replay",
]
