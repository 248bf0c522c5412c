"""The collaboration wire protocol: JSON frames shared by both transports.

One frame is one JSON object with a ``type`` field.  The same schema travels
as WebSocket text frames on the fast path and as JSON bodies over the HTTP
long-polling fallback, so a session can be resumed on either transport.

Frame types
-----------

``hello``     client → server: open a session on a document.  Carries the
              client's agent name and its current version (``Version``
              frontier ids as ``[agent, seq]`` pairs) so the server can ship
              exactly the missing suffix.
``welcome``   server → client: session id + the server's current version.
``delta``     both directions: a causally ordered batch of portable run
              events (:class:`~repro.core.oplog.RemoteEvent`), the same
              id-span representation ``export_since_seq`` produces.
``presence``  both directions: a cursor as an id-frontier position
              (``Version.as_tuples()``).  Character ids survive re-carving,
              so a cursor stays pinned while runs split and extend.
``error``     server → client: structured rejection (``code`` + ``reason``).
              A malformed frame earns an ``error`` frame, never a dropped
              connection.
``ack``       server → client (long-poll only): receipt for a ``send`` body.
``bye``       either direction: clean session teardown.

Frames fanned out to many sessions (``delta``, ``presence``) are built as
:class:`Frame`: :func:`encode_frame` serialises such a frame once and hands
every later caller the same string, so one batch costs one JSON encode however
many sessions it reaches.

Malformed input raises :class:`ProtocolError`, which carries the machine
readable ``code`` used in ``error`` frames.  Decoding is strict — unknown
frame types, missing fields, malformed id pairs and oversized frames are all
rejected — because the server feeds decoded events straight into the event
graph.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from ..core.ids import EventId, Operation, delete_op, insert_op
from ..core.oplog import RemoteEvent

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Frame",
    "encode_frame",
    "encode_frames_body",
    "decode_frame",
    "encode_event",
    "decode_event",
    "hello_frame",
    "welcome_frame",
    "delta_frame",
    "presence_frame",
    "error_frame",
    "ack_frame",
    "bye_frame",
]

#: Bumped when the frame schema changes incompatibly; ``hello`` carries it and
#: the server rejects mismatches with a structured error.
PROTOCOL_VERSION = 1

#: Hard ceiling on one encoded frame.  Large edits are shipped as multiple
#: delta frames by the sender; a frame above this is rejected, not buffered.
MAX_FRAME_BYTES = 1 << 20

#: The frame types the decoder accepts, with their required fields.
_REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "hello": ("doc", "agent", "version", "protocol"),
    "welcome": ("doc", "session", "version", "protocol"),
    "delta": ("events",),
    "presence": ("agent", "cursor"),
    "error": ("code", "reason"),
    "ack": ("accepted",),
    "bye": (),
}


class ProtocolError(ValueError):
    """A frame violated the wire protocol.

    Attributes:
        code: short machine-readable identifier (``bad-json``,
            ``unknown-type``, ``missing-field``, ``bad-id``, ``bad-op``,
            ``frame-too-large``, ``bad-protocol-version``, ...), echoed in the
            ``error`` frame sent back to the peer.
    """

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


class Frame(dict[str, Any]):
    """A frame dict that remembers its wire encoding.

    :func:`encode_frame` fills ``wire`` on the first call and returns it on
    every later one.  Frames are shared between sessions and never mutated
    after they are built (see :class:`~repro.server.session.Session`), so the
    cached string stays exact.
    """

    __slots__ = ("wire",)


# ----------------------------------------------------------------------
# Event codec (RemoteEvent <-> JSON)
# ----------------------------------------------------------------------
def encode_event(event: RemoteEvent) -> dict[str, Any]:
    """One portable run event as a JSON-safe dict."""
    op = event.op
    if op.is_insert:
        op_obj: dict[str, Any] = {"kind": "ins", "pos": op.pos, "content": op.content}
    else:
        op_obj = {"kind": "del", "pos": op.pos, "len": op.length}
    return {
        "id": [event.id.agent, event.id.seq],
        "parents": [[p.agent, p.seq] for p in event.parents],
        "op": op_obj,
    }


def _decode_id(obj: Any, *, what: str) -> EventId:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not isinstance(obj[0], str)
        or not isinstance(obj[1], int)
        or isinstance(obj[1], bool)
        or obj[1] < 0
    ):
        raise ProtocolError("bad-id", f"{what} must be a [agent, seq>=0] pair, got {obj!r}")
    return EventId(obj[0], obj[1])


def _decode_op(obj: Any) -> Operation:
    if not isinstance(obj, dict):
        raise ProtocolError("bad-op", f"op must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    pos = obj.get("pos")
    if not isinstance(pos, int) or isinstance(pos, bool) or pos < 0:
        raise ProtocolError("bad-op", f"op.pos must be an int >= 0, got {pos!r}")
    try:
        if kind == "ins":
            content = obj.get("content")
            if not isinstance(content, str) or not content:
                raise ProtocolError("bad-op", "insert op needs non-empty string content")
            return insert_op(pos, content)
        if kind == "del":
            length = obj.get("len")
            if not isinstance(length, int) or isinstance(length, bool) or length < 1:
                raise ProtocolError("bad-op", f"delete op needs len >= 1, got {length!r}")
            return delete_op(pos, length)
    except ValueError as exc:  # Operation's own validation
        raise ProtocolError("bad-op", str(exc)) from exc
    raise ProtocolError("bad-op", f"op.kind must be 'ins' or 'del', got {kind!r}")


def decode_event(obj: Any) -> RemoteEvent:
    """Decode one event dict; raises :class:`ProtocolError` on any violation."""
    if not isinstance(obj, dict):
        raise ProtocolError("bad-event", f"event must be an object, got {type(obj).__name__}")
    parents = obj.get("parents")
    if not isinstance(parents, list):
        raise ProtocolError("bad-event", "event.parents must be a list")
    return RemoteEvent(
        id=_decode_id(obj.get("id"), what="event.id"),
        parents=tuple(_decode_id(p, what="event parent") for p in parents),
        op=_decode_op(obj.get("op")),
    )


def _decode_version(obj: Any, *, what: str) -> tuple[EventId, ...]:
    if not isinstance(obj, list):
        raise ProtocolError("bad-id", f"{what} must be a list of [agent, seq] pairs")
    return tuple(_decode_id(pair, what=what) for pair in obj)


# ----------------------------------------------------------------------
# Frame builders
# ----------------------------------------------------------------------
def hello_frame(
    doc: str, agent: str, version_ids: Iterable[EventId | tuple[str, int]] = ()
) -> dict[str, Any]:
    return {
        "type": "hello",
        "doc": doc,
        "agent": agent,
        "version": [[a, s] for a, s in version_ids],
        "protocol": PROTOCOL_VERSION,
    }


def welcome_frame(doc: str, session_id: str, version_ids: Sequence[EventId]) -> dict[str, Any]:
    return {
        "type": "welcome",
        "doc": doc,
        "session": session_id,
        "version": [[eid.agent, eid.seq] for eid in version_ids],
        "protocol": PROTOCOL_VERSION,
    }


def delta_frame(events: Iterable[RemoteEvent]) -> Frame:
    return Frame({"type": "delta", "events": [encode_event(e) for e in events]})


def presence_frame(agent: str, cursor_ids: Iterable[EventId | tuple[str, int]]) -> Frame:
    cursor = [[a, s] for a, s in cursor_ids]
    return Frame({"type": "presence", "agent": agent, "cursor": cursor})


def error_frame(code: str, reason: str) -> dict[str, Any]:
    return {"type": "error", "code": code, "reason": reason}


def ack_frame(accepted: int) -> dict[str, Any]:
    return {"type": "ack", "accepted": accepted}


def bye_frame(reason: str | None = None, resume: bool = False) -> dict[str, Any]:
    """A teardown frame; optional fields make it *structured*.

    ``reason`` says why the server ends the session (e.g.
    ``"slow-consumer"`` for a backpressure shed), and ``resume=True`` tells
    the client a reconnect-and-replay from its current version will fully
    recover — the fields are additive, so a plain ``bye`` stays byte-for-byte
    what it always was.
    """
    frame: dict[str, Any] = {"type": "bye"}
    if reason is not None:
        frame["reason"] = reason
    if resume:
        frame["resume"] = True
    return frame


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def encode_frame(frame: dict[str, Any]) -> str:
    """Serialise one frame for the wire (compact JSON).

    A :class:`Frame` is serialised once; later calls return the cached
    string.
    """
    wire: str | None = getattr(frame, "wire", None)
    if wire is None:
        wire = json.dumps(frame, separators=(",", ":"), ensure_ascii=False)
        if isinstance(frame, Frame):
            frame.wire = wire
    return wire


def encode_frames_body(frames: Iterable[dict[str, Any]]) -> str:
    """The long-poll response body ``{"frames": [...]}``, built from each
    frame's wire encoding (so shared frames are not serialised again)."""
    return '{"frames":[' + ",".join(encode_frame(f) for f in frames) + "]}"


def decode_frame(text: str | bytes) -> dict[str, Any]:
    """Parse and validate one frame.

    Returns the frame dict with ``version`` / ``cursor`` fields normalised to
    :class:`EventId` tuples and ``events`` normalised to
    :class:`RemoteEvent` lists, so consumers never touch raw JSON shapes.

    Raises:
        ProtocolError: on oversized input, invalid JSON, unknown frame types,
            missing fields or malformed ids/operations.
    """
    if len(text) > MAX_FRAME_BYTES:
        raise ProtocolError("frame-too-large", f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        frame = json.loads(text)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad-json", f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("bad-frame", "frame must be a JSON object")
    frame_type = frame.get("type")
    if frame_type not in _REQUIRED_FIELDS:
        raise ProtocolError("unknown-type", f"unknown frame type {frame_type!r}")
    for field in _REQUIRED_FIELDS[frame_type]:
        if field not in frame:
            raise ProtocolError("missing-field", f"{frame_type} frame is missing {field!r}")
    if frame_type == "hello":
        if frame["protocol"] != PROTOCOL_VERSION:
            raise ProtocolError(
                "bad-protocol-version",
                f"peer speaks protocol {frame['protocol']!r}, this end speaks {PROTOCOL_VERSION}",
            )
        if not isinstance(frame["doc"], str) or not isinstance(frame["agent"], str):
            raise ProtocolError("bad-frame", "hello doc/agent must be strings")
        frame["version"] = _decode_version(frame["version"], what="hello version id")
    elif frame_type == "welcome":
        frame["version"] = _decode_version(frame["version"], what="welcome version id")
    elif frame_type == "delta":
        events = frame["events"]
        if not isinstance(events, list):
            raise ProtocolError("bad-frame", "delta events must be a list")
        frame["events"] = [decode_event(e) for e in events]
    elif frame_type == "presence":
        if not isinstance(frame["agent"], str):
            raise ProtocolError("bad-frame", "presence agent must be a string")
        frame["cursor"] = _decode_version(frame["cursor"], what="presence cursor id")
    elif frame_type == "error":
        if not isinstance(frame["code"], str) or not isinstance(frame["reason"], str):
            raise ProtocolError("bad-frame", "error code/reason must be strings")
    return frame
