"""Room-level tests for the collaboration server, with no sockets.

These drive :class:`~repro.server.session.DocumentRoom` directly — connect,
upload, drain — so the fan-out contract is pinned on its own: one inbound
causal buffer per room, one ``delta`` frame per ingested batch shared by
every session, and each session filtering out only its own uploads.  The
last two classes drive the WebSocket pump of
:class:`~repro.server.app.CollabServer` with a fake socket.
"""

import asyncio

import pytest

from repro.core.document import Document
from repro.core.ids import EventId
from repro.server.app import CollabServer
from repro.server.protocol import bye_frame, decode_frame, delta_frame, encode_frame
from repro.server.session import DocumentRoom


def connect_all(room, agents):
    """Open one WebSocket session per agent at the empty version and drain
    the connect frames, so each queue holds only what comes next."""
    sessions = [room.connect(agent, "ws", ()) for agent in agents]
    for session in sessions:
        session.drain()
    return sessions


def authored(agent, text):
    """The events of a fresh document by ``agent`` that typed ``text``."""
    doc = Document(agent)
    doc.insert(0, text)
    return doc, doc.events_since(())


class TestSharedFanOut:
    def test_one_frame_object_for_every_non_uploader(self):
        room = DocumentRoom("d")
        sessions = connect_all(room, [f"c{i}" for i in range(32)])
        uploader, others = sessions[0], sessions[1:]
        _, events = authored("c0", "hello")

        assert room.receive_delta(uploader, events) == len(events)

        assert uploader.drain() == []
        queued = [session.drain() for session in others]
        assert all(len(frames) == 1 for frames in queued)
        shared = queued[0][0]
        assert all(frames[0] is shared for frames in queued)
        assert shared == delta_frame(events)

    def test_parked_upload_released_by_another_session(self):
        bob_doc, parent = authored("bob", "ab")
        alice_doc = Document("alice")
        alice_doc.apply_remote_events(parent)
        alice_doc.insert(2, "X")
        child = alice_doc.events_since(bob_doc.version())
        assert len(parent) == len(child) == 1

        room = DocumentRoom("d")
        alice, bob, carol, dave = connect_all(room, ["alice", "bob", "carol", "dave"])

        # Alice's edit arrives before the event it depends on: it parks.
        assert room.receive_delta(alice, child) == 0
        assert room.buffer_pending() == {"inbound": 1}
        assert all(s.queued_frames == 0 for s in (alice, bob, carol, dave))

        # Bob's upload releases both as one batch.
        assert room.receive_delta(bob, parent) == 2
        assert room.text == "abX"
        assert alice.drain() == [delta_frame(parent)]
        assert bob.drain() == [delta_frame(child)]
        carol_frames, dave_frames = carol.drain(), dave.drain()
        assert carol_frames == [delta_frame(parent + child)]
        assert carol_frames[0] is dave_frames[0]

    def test_coarser_reupload_is_not_echoed_but_reaches_the_others(self):
        doc, first = authored("a", "abc")
        room = DocumentRoom("d")
        a, b = connect_all(room, ["a", "b"])
        room.receive_delta(a, first)
        assert b.drain() == [delta_frame(first)]

        # The same run, extended in place, re-uploaded whole: the room keeps
        # only the new characters, and the uploader gets no echo of either.
        doc.insert(3, "def")
        (whole,) = doc.events_since(())
        assert room.receive_delta(a, [whole]) == 1
        assert room.text == "abcdef"
        assert a.drain() == []
        assert b.drain() == [delta_frame([whole])]

    def test_buffer_pending_reads_zero_at_quiescence(self):
        room = DocumentRoom("d")
        a, b = connect_all(room, ["a", "b"])
        _, events = authored("a", "xyz")
        room.receive_delta(a, events)
        assert room.buffer_pending() == {"inbound": 0}

    def test_reupload_is_a_duplicate_and_queues_nothing(self):
        room = DocumentRoom("d")
        a, b = connect_all(room, ["a", "b"])
        _, events = authored("a", "xyz")
        room.receive_delta(a, events)
        b.drain()
        assert room.receive_delta(a, events) == 0
        assert room.stats.duplicates_dropped == 1
        assert a.queued_frames == b.queued_frames == 0


class TestCatchUp:
    def test_hello_mid_run_gets_exactly_the_unseen_suffix(self):
        doc, _ = authored("alice", "hello world")
        assert len(doc.oplog) == 1  # one coalesced run
        room = DocumentRoom("d", document=doc)

        # The client saw "hello" (seqs 0..4): a version inside the run.
        session = room.connect("bob", "ws", (EventId("alice", 4),))
        welcome, catchup = session.drain()
        assert welcome["type"] == "welcome"
        (event,) = decode_frame(encode_frame(catchup))["events"]
        assert event.id == EventId("alice", 5)
        assert event.parents == (EventId("alice", 4),)
        assert event.op.content == " world"

    def test_hello_on_one_branch_gets_only_the_other_branch(self):
        alice, _ = authored("alice", "ab")
        bob = Document("bob")
        bob.merge(alice)
        alice.insert(2, "X")
        bob.insert(0, "Y")
        server = Document("server")
        server.merge(alice)
        server.merge(bob)
        room = DocumentRoom("d", document=server)

        session = room.connect("alice", "ws", alice.version().ids)
        _, catchup = session.drain()
        (event,) = decode_frame(encode_frame(catchup))["events"]
        assert event.id == EventId("bob", 0)
        assert event.op.content == "Y"

    def test_hello_at_current_version_gets_no_catch_up(self):
        doc, _ = authored("alice", "hi")
        room = DocumentRoom("d", document=doc)
        session = room.connect("bob", "ws", doc.version().ids)
        assert [f["type"] for f in session.drain()] == ["welcome"]


class TestSheddingWithSharedFrames:
    def test_slow_session_is_shed_with_a_resumable_bye(self):
        room = DocumentRoom("d", max_queued_frames=3)
        writer, fast, slow = connect_all(room, ["w", "fast", "slow"])
        doc = Document("w")

        def type_and_upload(text):
            before = doc.version()
            doc.insert(len(doc.text), text)
            room.receive_delta(writer, doc.events_since(before))
            (frame,) = fast.drain()
            return frame

        frames = [type_and_upload("x") for _ in range(4)]
        assert all(f["type"] == "delta" for f in frames)
        assert slow.shed and slow.closed
        assert room.stats.sessions_shed == 1
        assert slow.drain() == [bye_frame(reason="slow-consumer", resume=True)]
        # Shedding dropped only the slow session's queue: later batches
        # still reach the others, and the shed session gets nothing more.
        type_and_upload("y")
        assert slow.queued_frames == 0
        assert room.text == "xxxxy"


class FakeSocket:
    """A stand-in for :class:`~repro.server.wire.WebSocketConnection` whose
    ``send_text`` raises ``error`` on call number ``fail_on``."""

    def __init__(self, fail_on, error):
        self.fail_on = fail_on
        self.error = error
        self.sent = []
        self.calls = 0
        self.closed = False

    async def send_text(self, text):
        self.calls += 1
        if self.calls == self.fail_on:
            raise self.error
        self.sent.append(text)

    async def close(self):
        self.closed = True


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10.0))


class TestForwardFrames:
    def test_failed_send_requeues_exactly_the_unsent_tail(self):
        server = CollabServer()
        room = server.room("d")
        (session,) = connect_all(room, ["a"])
        frames = [bye_frame(reason=f"f{i}") for i in range(5)]
        ws = FakeSocket(fail_on=3, error=ConnectionError("gone"))

        with pytest.raises(ConnectionError):
            run(server._forward_frames(ws, session, list(frames)))

        assert [decode_frame(t) for t in ws.sent] == frames[:2]
        assert session.drain() == frames[2:]


class TestPumpErrors:
    def test_connection_loss_propagates_and_is_not_a_pump_error(self):
        server = CollabServer()
        room = server.room("d")
        session = room.connect("a", "ws", ())
        ws = FakeSocket(fail_on=1, error=ConnectionResetError("gone"))

        with pytest.raises(ConnectionError):
            run(server._pump_session(ws, session))

        assert room.stats.pump_errors == 0
        assert not session.closed
        assert session.queued_frames == 1

    def test_unexpected_error_is_counted_and_closes_the_session(self):
        server = CollabServer()
        room = server.room("d")
        session = room.connect("a", "ws", ())
        ws = FakeSocket(fail_on=1, error=ValueError("boom"))

        run(server._pump_session(ws, session))

        assert room.stats.pump_errors == 1
        assert session.closed
        assert ws.closed
        # The frame that failed to send is back on the queue, so the
        # handler's teardown counts it as abandoned.
        assert session.queued_frames == 1
