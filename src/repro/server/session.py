"""Server-side state: documents as rooms, connections as sessions.

A :class:`DocumentRoom` owns one server replica
(:class:`~repro.core.document.Document`) plus the room's one
:class:`~repro.network.causal_broadcast.CausalBuffer`: every delta a client
uploads goes through it, which re-orders out-of-causal-order arrivals, drops
duplicates (reconnect replays, however they are re-carved) and hands the
document one causally ordered batch per upload — the same amortisation the
network simulator's relay hub enjoys.  The room adds each batch to the event
graph only (:meth:`Document.ingest_remote_events
<repro.core.document.Document.ingest_remote_events>`): catch-up, ``welcome``
versions, the WAL and fan-out all read the graph, so the text is merged only
when something reads it — ``/v1/text``, ``/v1/stats`` or a WAL compaction.

Because the event graph is the replicated state, that batch is also exactly
what every connected client is missing, so the room builds **one** ``delta``
frame per batch and offers it to every :class:`Session`.  A session only
filters out its own client's uploads (the echo): it queues the shared frame
untouched when the batch holds none of them, a smaller frame of the rest when
it holds some.  Catch-up on connect is ``Document.events_since`` of the
client's ``hello`` version, which already leaves out everything the client
holds.  The queue is transport-agnostic: the WebSocket handler pumps it over
the socket, the long-poll handler drains it per poll.

Presence (cursors as id-frontier positions) rides the same queues but is only
delivered to WebSocket sessions: the long-polling fallback skips cursor
traffic, exactly like sysreptor's production fallback.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable

from ..core.document import Document
from ..core.ids import EventId
from ..core.oplog import RemoteEvent
from ..core.range_map import SpanSet
from ..faults import InjectedCrash
from ..history import Version
from ..network.causal_broadcast import CausalBuffer
from .protocol import bye_frame, delta_frame, presence_frame, welcome_frame
from .wal import RoomStorage

__all__ = ["Session", "DocumentRoom", "RoomStats"]

#: Idle seconds after which a long-poll session is reaped (a vanished poll
#: client never says ``bye``; WebSocket sessions die with their socket).
POLL_SESSION_TIMEOUT = 60.0

_session_counter = itertools.count(1)


@dataclass(slots=True)
class RoomStats:
    """Counters for one room (exposed via the ``/v1/stats`` endpoint)."""

    events_ingested: int = 0
    chars_ingested: int = 0
    deltas_received: int = 0
    duplicates_dropped: int = 0
    frames_queued: int = 0
    presence_updates: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    #: Frames still queued when a disconnecting socket's final flush gave up
    #: (slow socket); the client recovers them by reconnect + replay.
    frames_abandoned: int = 0
    #: Sessions dropped by backpressure shedding (queue over the cap).
    sessions_shed: int = 0
    #: Frames discarded when those sessions were shed.
    frames_shed: int = 0
    #: Idle long-poll sessions reclaimed by the periodic reaper.
    sessions_reaped: int = 0
    #: WebSocket pumps that died on an unexpected error (their sessions are
    #: closed so the client reconnects).
    pump_errors: int = 0


class Session:
    """One client connection (WebSocket or long-polling) to one room.

    Queued frames may be shared with every other session of the room (one
    ``delta`` frame per ingested batch): consumers encode or read them and
    must never mutate them.

    Args:
        room: the owning :class:`DocumentRoom`.
        agent: the client's replica name (as announced in ``hello``).
        transport: ``"ws"`` or ``"poll"``; poll sessions are excluded from
            presence traffic.
        max_queued_frames: backpressure cap — when the queue outgrows it the
            session is **shed** (queue dropped, one resumable ``bye`` queued,
            session closed) instead of growing without bound behind a slow
            consumer.  0 disables shedding.
    """

    def __init__(
        self,
        room: "DocumentRoom",
        agent: str,
        transport: str,
        *,
        max_queued_frames: int = 0,
    ) -> None:
        self.id = f"s{next(_session_counter)}"
        self.room = room
        self.agent = agent
        self.transport = transport
        self.max_queued_frames = max_queued_frames
        self.closed = False
        #: True once backpressure shed this session (it got a resumable bye).
        self.shed = False
        self.last_seen = time.monotonic()
        #: Frames waiting for this client, in delivery order.
        self._queue: list[dict[str, Any]] = []
        self._wakeup = asyncio.Event()
        #: Per-agent id spans this client uploaded itself: the room's fan-out
        #: offers them back, and they must not be echoed.
        self._uploaded: defaultdict[str, SpanSet] = defaultdict(SpanSet)

    # ------------------------------------------------------------------
    @property
    def wants_presence(self) -> bool:
        return self.transport == "ws"

    @property
    def queued_frames(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def mark_uploaded(self, events: Iterable[RemoteEvent]) -> None:
        """Record that the client itself sent ``events``, so the room's
        fan-out of them is not echoed back (whatever the carving)."""
        for e in events:
            self._uploaded[e.id.agent].add(e.id.seq, e.op.length)

    def _uploaded_here(self, event: RemoteEvent) -> bool:
        spans = self._uploaded.get(event.id.agent)
        return spans is not None and spans.covers(event.id.seq, event.op.length)

    def offer_events(self, events: list[RemoteEvent], frame: dict[str, Any]) -> None:
        """Offer one ingested batch and its shared ``delta`` frame: queue the
        frame as is unless the batch holds this client's own uploads, which
        are filtered out (a partially uploaded run is sent whole; the
        client's graph keeps only the new characters)."""
        rest = [e for e in events if not self._uploaded_here(e)]
        if rest:
            self.queue_frame(frame if len(rest) == len(events) else delta_frame(rest))

    def queue_frame(self, frame: dict[str, Any]) -> None:
        """Queue one frame for this client."""
        self._queue.append(frame)
        self.room.stats.frames_queued += 1
        if (
            self.max_queued_frames
            and not self.shed
            and len(self._queue) > self.max_queued_frames
        ):
            self._shed()
        self._wakeup.set()

    def _shed(self) -> None:
        """Backpressure: this client fell too far behind — drop its queue,
        hand it one structured *resumable* ``bye`` and close the session.

        The client's reconnect path replays from its locally applied version,
        so nothing is lost; the room only sheds the memory.  The transport
        handler observes ``closed``/``shed`` and performs the actual
        ``disconnect`` — shedding fires inside the ingest fan-out, which is
        iterating ``room.sessions``.
        """
        self.room.stats.frames_shed += len(self._queue)
        self.room.stats.sessions_shed += 1
        self._queue.clear()
        self.shed = True
        self._queue.append(bye_frame(reason="slow-consumer", resume=True))
        self.close()

    def requeue(self, frames: list[dict[str, Any]]) -> None:
        """Put undelivered frames back at the queue head (a flush failed
        mid-way); they are retried or counted as abandoned by the caller."""
        if frames:
            self._queue[0:0] = frames
            self._wakeup.set()

    # ------------------------------------------------------------------
    def drain(self) -> list[dict[str, Any]]:
        """Take every queued frame (long-poll response / WS pump step)."""
        self.last_seen = time.monotonic()
        frames = self._queue
        self._queue = []
        self._wakeup.clear()
        return frames

    async def wait_for_frames(self, timeout: float) -> list[dict[str, Any]]:
        """Wait up to ``timeout`` seconds for frames, then drain.

        Returns an empty list on timeout — the long-poll contract: the client
        immediately re-polls.
        """
        if not self._queue:
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout)
            except asyncio.TimeoutError:
                self.last_seen = time.monotonic()
                return []
        return self.drain()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._wakeup.set()


class DocumentRoom:
    """One hosted document plus everything connected to it.

    Args:
        document: a pre-built server replica (the recovery path passes the
            document rebuilt from snapshot + WAL); default is a fresh one.
        storage: a :class:`~repro.server.wal.RoomStorage` — every ingested
            batch is WAL-appended *before* it is fanned out to sessions.
        faults: a :class:`~repro.faults.FaultInjector` consulted for injected
            crash points around the WAL append.
        on_crash: called (synchronously) when an injected crash fires, before
            :class:`~repro.faults.InjectedCrash` is raised — the server binds
            this to its abrupt-teardown path.
        max_queued_frames: per-session backpressure cap (see
            :class:`Session`).
    """

    def __init__(
        self,
        name: str,
        document_options: dict | None = None,
        *,
        document: Document | None = None,
        storage: RoomStorage | None = None,
        faults: Any | None = None,
        on_crash: Callable[[], None] | None = None,
        max_queued_frames: int = 0,
    ) -> None:
        self.name = name
        if document is None:
            document = Document(f"server::{name}", **(document_options or {}))
        self.document = document
        self.storage = storage
        self.faults = faults
        self.on_crash = on_crash
        self.max_queued_frames = max_queued_frames
        self.sessions: dict[str, Session] = {}
        #: Last announced cursor per agent (id-frontier positions).
        self.presence: dict[str, tuple[EventId, ...]] = {}
        self.stats = RoomStats()
        #: Inbound causal buffer: uploads from every session funnel through
        #: here, so the document sees causally ordered, deduplicated batches.
        self.inbound = CausalBuffer(deliver_batch=self._ingest)
        # A room can be created over a pre-loaded document; everything already
        # in the graph counts as known.
        self._seed_inbound()

    def _seed_inbound(self) -> None:
        graph = self.document.oplog.graph
        self.inbound.mark_known_spans(
            (graph[i].id, graph[i].num_chars) for i in range(len(graph))
        )

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def connect(self, agent: str, transport: str, version_ids: Iterable[EventId]) -> Session:
        """Open a session and queue ``welcome``, a catch-up ``delta`` of
        everything the client's version lacks, and current presence frames."""
        self.reap_idle_sessions()
        session = Session(
            self, agent, transport, max_queued_frames=self.max_queued_frames
        )
        self.sessions[session.id] = session
        self.stats.sessions_opened += 1
        session.queue_frame(
            welcome_frame(self.name, session.id, self.document.version().ids)
        )
        catchup = self.document.events_since(tuple(version_ids))
        if catchup:
            session.queue_frame(delta_frame(catchup))
        if session.wants_presence:
            for other_agent, cursor in self.presence.items():
                if other_agent != agent:
                    session.queue_frame(presence_frame(other_agent, cursor))
        return session

    def disconnect(self, session: Session) -> None:
        if self.sessions.pop(session.id, None) is not None:
            self.stats.sessions_closed += 1
        session.close()
        self.presence.pop(session.agent, None)

    def reap_idle_sessions(self, timeout: float = POLL_SESSION_TIMEOUT) -> list[Session]:
        """Drop long-poll sessions that stopped polling (vanished clients).

        Returns the reaped sessions so the server can purge its own routing
        entries for them (the periodic reaper task does exactly that).
        """
        deadline = time.monotonic() - timeout
        reaped = []
        for session in list(self.sessions.values()):
            if session.transport == "poll" and session.last_seen < deadline:
                self.disconnect(session)
                self.stats.sessions_reaped += 1
                reaped.append(session)
        return reaped

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def receive_delta(self, session: Session, events: list[RemoteEvent]) -> int:
        """Ingest one uploaded delta; returns how many events reached the
        document (0 for a pure duplicate replay)."""
        self.stats.deltas_received += 1
        session.last_seen = time.monotonic()
        session.mark_uploaded(events)
        before = self.inbound.stats.duplicates
        delivered = self.inbound.receive_batch(events)
        self.stats.duplicates_dropped += self.inbound.stats.duplicates - before
        return delivered

    def _ingest(self, events: list[RemoteEvent]) -> None:
        """Inbound-buffer delivery: add one causally ordered batch to the
        server replica's event graph (no merge), WAL-append it, then fan one
        shared ``delta`` frame of it out to every open session.

        The write-ahead append happens *before* any session sees the batch:
        a crash after the append loses only unacknowledged fan-out (clients
        re-fetch on reconnect), never durable state a client observed.
        Injected crash points fire around the append — ``before-wal`` loses
        the batch, ``torn-wal`` truncates its record mid-write, ``after-wal``
        crashes with the record intact.
        """
        self.document.ingest_remote_events(events)
        self.stats.events_ingested += len(events)
        self.stats.chars_ingested += sum(e.op.length for e in events)
        crash = self.faults.crash_due() if self.faults is not None else None
        if crash != "before-wal" and self.storage is not None:
            self.storage.append(events, torn=crash == "torn-wal")
            if crash is None:
                self.storage.maybe_compact(self.document)
        if crash is not None:
            if self.on_crash is not None:
                self.on_crash()
            raise InjectedCrash(f"injected server crash at {crash}")
        frame = delta_frame(events)
        for session in self.sessions.values():
            if not session.closed:
                session.offer_events(events, frame)

    def receive_presence(self, session: Session, cursor: tuple[EventId, ...]) -> None:
        """Update an agent's cursor and fan it out to WebSocket sessions."""
        self.stats.presence_updates += 1
        session.last_seen = time.monotonic()
        self.presence[session.agent] = cursor
        frame = presence_frame(session.agent, cursor)
        for other in self.sessions.values():
            if other is not session and other.wants_presence and not other.closed:
                other.queue_frame(frame)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def text(self) -> str:
        """The document text; merges every batch ingested since the last
        read (one merge, however many batches)."""
        return self.document.text

    def version(self) -> Version:
        return self.document.version()

    def buffer_pending(self) -> dict[str, int]:
        """Parked-event counts for the leak check: all zero once the room has
        quiesced (no in-flight uploads)."""
        return {"inbound": self.inbound.pending_count}

    def summary(self) -> dict[str, Any]:
        """Room counters for ``/v1/stats``.  Reading ``text_len``
        materialises the text, so ``pending_events`` (run events ingested but
        not yet merged) is taken first and ``merge`` (the merge engine's
        counters) includes that merge."""
        document = self.document
        summary = {
            "doc": self.name,
            "sessions": len(self.sessions),
            "run_events": len(document.oplog.graph),
            "chars": document.oplog.graph.num_chars,
            "pending_events": document.pending_events,
            "text_len": len(document),
            "merge": document.merge_stats.snapshot(),
            "version": [[a, s] for a, s in document.version().as_tuples()],
            "buffer_pending": self.buffer_pending(),
            "stats": asdict(self.stats),
        }
        if self.storage is not None:
            summary["durability"] = self.storage.stats.as_dict()
        return summary
