"""Room-level tests for the collaboration server, with no sockets.

These drive :class:`~repro.server.session.DocumentRoom` directly — connect,
upload, drain — so the fan-out contract is pinned on its own: one inbound
causal buffer per room, one ``delta`` frame per ingested batch shared by
every session, and each session filtering out only its own uploads.  The
room is a pure event-graph relay: ingest merges nothing and each shared frame
is serialised once; the text is merged on first read (``TestRelayIngest``).
The last classes drive the WebSocket pump and the long-poll bodies of
:class:`~repro.server.app.CollabServer`.
"""

import asyncio
import json

import pytest

from repro.core.document import Document
from repro.core.event_graph import expand_to_chars
from repro.core.ids import EventId
from repro.core.oplog import recarve_events
from repro.core.walker import EgWalker
from repro.server import protocol
from repro.server.app import CollabServer
from repro.server.protocol import (
    bye_frame,
    decode_frame,
    delta_frame,
    encode_frame,
    encode_frames_body,
    hello_frame,
    presence_frame,
    welcome_frame,
)
from repro.server.session import DocumentRoom
from repro.server.wal import DurabilityOptions, RoomStorage, recover_document
from repro.server.wire import HttpRequest
from repro.storage import decode_file
from repro.storage.container import graph_to_remote_events
from repro.traces.generator import generate_concurrent


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


# ----------------------------------------------------------------------
# The room as an event-graph relay: no merge on ingest, one encode per batch
# ----------------------------------------------------------------------
def c_shape_history(seed=7, target_events=240):
    """A C-shape history (two authors typing at once) as portable run
    events in causal order, plus its per-character oracle text."""
    graph = generate_concurrent("C", target_events=target_events, seed=seed).graph
    oracle = EgWalker(expand_to_chars(graph), backend="list").replay_text()
    return graph_to_remote_events(graph), oracle


class SplitLog:
    """Graph listener recording splits that land below a pending tail."""

    def __init__(self, document):
        self.document = document
        self.below_tail = 0
        document.oplog.graph.add_listener(self)

    def event_split(self, index):
        pending = self.document.pending_events
        if pending and index < len(self.document.oplog.graph) - pending:
            self.below_tail += 1


class TestRelayIngest:
    def relay(self, room, events, sessions):
        """Upload each run event from its author's session, then drain every
        session and encode each frame, as a WebSocket pump would."""
        for event in events:
            room.receive_delta(sessions[event.id.agent], [event])
            for session in sessions.values():
                for frame in session.drain():
                    encode_frame(frame)

    def test_ingest_merges_nothing_and_encodes_once_per_batch(self, monkeypatch):
        events, oracle = c_shape_history()
        room = DocumentRoom("d")
        authors = sorted({e.id.agent for e in events})
        agents = authors + [f"watcher{i}" for i in range(32 - len(authors))]
        sessions = dict(zip(agents, connect_all(room, agents)))
        queued_at_start = room.stats.frames_queued
        dumps_calls = []
        real_dumps = protocol.json.dumps
        monkeypatch.setattr(
            protocol.json,
            "dumps",
            lambda *args, **kwargs: dumps_calls.append(1) or real_dumps(*args, **kwargs),
        )

        self.relay(room, events, sessions)

        batches = room.inbound.stats.batches
        assert batches == len(events)
        assert room.stats.frames_queued - queued_at_start == 31 * batches
        assert len(dumps_calls) == batches
        assert room.document.merge_stats.merges == 0
        assert room.document.pending_events == len(room.document.oplog.graph)

    def test_first_text_read_is_one_merge_matching_the_oracle(self):
        events, oracle = c_shape_history()
        room = DocumentRoom("d")
        sessions = {a: room.connect(a, "ws", ()) for a in {e.id.agent for e in events}}
        self.relay(room, events, sessions)
        stats = room.document.merge_stats

        assert room.text == oracle
        assert stats.merges == 1
        assert stats.events_integrated == len(room.document.oplog.graph)
        assert room.document.pending_events == 0
        assert room.text == oracle
        assert stats.merges == 1

    @pytest.mark.parametrize("splits", [(), (6,)], ids=["one-run", "recut"])
    def test_recarved_upload_splits_a_merged_run_below_the_pending_tail(self, splits):
        # Alice types "hello world" as one coalesced run; Bob saw only "hel"
        # and typed after it, so his upload names a character in the middle
        # of whatever run the room stores.
        alice = Document("alice")
        alice.insert(0, "hel")
        bob = Document("bob")
        bob.merge(alice)
        bob.insert(3, "X")
        alice.insert(3, "lo world")
        carol = Document("carol")
        carol.insert(0, "Z")
        (run,) = alice.events_since(())
        room = DocumentRoom("d")
        a, b, c = connect_all(room, ["alice", "bob", "carol"])
        log = SplitLog(room.document)

        # Alice's run arrives re-carved coarser than Bob's view (whole, or
        # re-cut at another boundary) and is merged by a text read.
        room.receive_delta(a, recarve_events([run], splits=lambda e: splits))
        assert room.text == "hello world"
        # Carol's edit leaves a pending tail; Bob's upload then splits a
        # merged run below it.
        room.receive_delta(c, carol.events_since(()))
        room.receive_delta(b, bob.events_since(alice.version()))
        assert room.document.pending_events == 2
        assert log.below_tail == 1

        graph = room.document.oplog.graph
        oracle = EgWalker(expand_to_chars(graph), backend="list").replay_text()
        assert room.text == oracle
        assert sorted(oracle) == sorted("Zhello worldX")
        assert room.document.merge_stats.merges == 2

    def test_compaction_with_a_pending_tail_snapshots_the_oracle(self, tmp_path):
        events, oracle = c_shape_history()
        directory = str(tmp_path / "room")
        storage = RoomStorage(
            directory,
            options=DurabilityOptions(fsync_policy="none", compact_min_records=16),
        )
        room = DocumentRoom("d", storage=storage)
        sessions = {a: room.connect(a, "ws", ()) for a in {e.id.agent for e in events}}
        pending_at_compaction = []
        compact = storage.compact

        def recording_compact(document):
            pending_at_compaction.append(document.pending_events)
            compact(document)

        storage.compact = recording_compact
        self.relay(room, events, sessions)
        # A clean close compacts once more, over whatever tail is pending.
        storage.close(document=room.document)

        assert len(pending_at_compaction) == storage.stats.compactions > 1
        assert all(pending > 0 for pending in pending_at_compaction)
        with open(storage.snapshot_path, "rb") as fh:
            assert decode_file(fh.read()).snapshot == oracle
        recovered, info = recover_document(directory, "server::d")
        assert info.snapshot_text_verified
        assert recovered.text == oracle

    def test_summary_reports_pending_events_before_merging(self):
        events, oracle = c_shape_history(target_events=60)
        room = DocumentRoom("d")
        sessions = {a: room.connect(a, "ws", ()) for a in {e.id.agent for e in events}}
        self.relay(room, events, sessions)

        summary = room.summary()
        assert summary["pending_events"] == summary["run_events"] > 0
        assert summary["text_len"] == len(oracle)
        assert summary["merge"]["merges"] == 1
        assert room.summary()["pending_events"] == 0


class TestPollBodies:
    """Long-poll responses are built from each frame's wire encoding: the
    same JSON as the old ``json.dumps({"frames": ...}, default=list)`` body,
    in the compact form WebSocket frames use."""

    FRAMES = [
        welcome_frame("d", "s1", (EventId("alice", 4), EventId("bob", 0))),
        delta_frame(authored("alice", "h\u00e9llo \u2603")[1]),
        presence_frame("bob", (EventId("alice", 2),)),
        bye_frame(),
        bye_frame(reason="slow-consumer", resume=True),
    ]

    def test_body_matches_the_old_encoding(self):
        old = json.dumps({"frames": self.FRAMES}, default=list)
        body = encode_frames_body(self.FRAMES)
        assert body == json.dumps(json.loads(old), separators=(",", ":"), ensure_ascii=False)
        assert json.loads(body) == json.loads(old)
        assert encode_frames_body([]) == '{"frames":[]}'

    def test_shared_frames_are_serialised_once(self, monkeypatch):
        frame = delta_frame(authored("alice", "xyz")[1])
        wire = encode_frame(frame)
        monkeypatch.setattr(protocol.json, "dumps", None)
        assert encode_frame(frame) is wire
        assert encode_frames_body([frame, frame]) == '{"frames":[%s,%s]}' % (wire, wire)

    def test_connect_response_carries_the_same_frames(self):
        server = CollabServer()
        room = server.room("d")
        _, events = authored("alice", "hi")
        room.receive_delta(room.connect("alice", "ws", ()), events)

        hello = encode_frame(hello_frame("d", "bob")).encode()
        request = HttpRequest("POST", "/v1/connect", {}, hello)
        response = run(server._http_connect(request))
        body = response.split(b"\r\n\r\n", 1)[1].decode()
        frames = json.loads(body)["frames"]
        assert [f["type"] for f in frames] == ["welcome", "delta"]
        assert frames[1] == json.loads(encode_frame(delta_frame(events)))
