"""The in-process stages of a run: offline merge, document storage, room relay.

A stage works on the run's suite of histories.  One *round* of a stage runs
its operation once on every history of the suite; the caller interleaves
rounds of all stages (see ``lifecycle.interleave``), so that each stage's
samples are spread over the whole run.  Every timing is scaled to the
reference machine by probes bracketing it (see ``calibration``).  Every
output is checked against the oracle, and each failed check counts as one
failed operation.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
import tracemalloc
from typing import Callable

from repro.core.document import Document
from repro.core.oplog import RemoteEvent
from repro.server import protocol
from repro.server.session import DocumentRoom
from repro.server.wal import DurabilityOptions, RoomStorage
from repro.storage import container
from repro.storage.container import ContainerOptions, StorageError

from calibration import Speed
from inputs import History

__all__ = ["Stage", "MergeStage", "StorageStage", "RoomStage", "merge_memory", "percentile"]

#: Called with an operation id (a file id or a delta id) before each
#: operation, so that a traced run can tag its spans.
OpTagger = Callable[[str], None]


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in 0..1)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered) + 0.5)) - 1))
    return ordered[rank]


class Stage:
    """Common bookkeeping: checks, rounds and the operation tagger."""

    def __init__(self, suite: list[History], tag: OpTagger) -> None:
        self.suite = suite
        self.tag = tag
        self.rounds = 0
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def round(self) -> None:
        raise NotImplementedError

    def metrics(self) -> dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# offline merge
# ----------------------------------------------------------------------
class MergeStage(Stage):
    """A fresh replica ingests each whole history in one batch."""

    def __init__(self, suite: list[History], tag: OpTagger) -> None:
        super().__init__(suite, tag)
        self.rates: list[float] = []

    def round(self) -> None:
        chars = 0
        elapsed = 0.0
        speed = Speed()
        for index, history in enumerate(self.suite):
            self.tag(f"merge:{self.rounds}:{index}")
            start = time.perf_counter()
            document = Document("bench-replica")
            document.apply_remote_events(history.events)
            elapsed += time.perf_counter() - start
            chars += history.chars
            self.check(document.text == history.expected)
        self.rates.append(chars / elapsed * speed.factor())
        self.rounds += 1

    def metrics(self) -> dict[str, float]:
        return {"merge_chars_per_s": statistics.median(self.rates)}


def merge_memory(suite: list[History]) -> dict[str, float]:
    """Untimed tracemalloc pass over the suite: the peak while merging and
    what the replica retains afterwards, each relative to the state before
    the replica existed, summed over the histories."""
    steady = peak = 0
    for history in suite:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            document = Document("bench-replica")
            document.apply_remote_events(history.events)
            current, high = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del document
        steady += current - base
        peak += high - base
    return {"merge_steady_kib": steady / 1024.0, "merge_peak_kib": peak / 1024.0}


# ----------------------------------------------------------------------
# document storage
# ----------------------------------------------------------------------
class StorageStage(Stage):
    """Save each history (full, and pruned with a text snapshot) and open it
    three ways: ``Document.from_bytes`` on both files, and
    ``LazyDecodedFile(full).text``.  Times are summed over the suite."""

    KEYS = ("save", "open_full", "open_pruned", "open_text")

    def __init__(self, suite: list[History], tag: OpTagger) -> None:
        super().__init__(suite, tag)
        self.samples: dict[str, list[float]] = {k: [] for k in self.KEYS}
        self.full_files: list[bytes] = []

    def round(self) -> None:
        totals = dict.fromkeys(self.KEYS, 0.0)
        files = []
        for index, history in enumerate(self.suite):
            self.tag(f"file:{self.rounds}:{index}")
            times = dict.fromkeys(self.KEYS, 0.0)
            speed = Speed()
            options = ContainerOptions(
                prune_deleted_content=True, include_snapshot=True, final_text=history.expected
            )
            start = time.perf_counter()
            full = container.encode_event_graph_v3(history.graph)
            pruned = container.encode_event_graph_v3(history.graph, options)
            times["save"] = time.perf_counter() - start
            files.append(full)
            try:
                start = time.perf_counter()
                text = Document.from_bytes(full, "bench-reader").text
                times["open_full"] = time.perf_counter() - start
                self.check(text == history.expected)
                start = time.perf_counter()
                text = Document.from_bytes(pruned, "bench-reader").text
                times["open_pruned"] = time.perf_counter() - start
                self.check(text == history.expected)
                start = time.perf_counter()
                text = container.LazyDecodedFile(full).text
                times["open_text"] = time.perf_counter() - start
                self.check(text == history.expected)
            except StorageError:
                self.check(False)
            factor = speed.factor()
            for key, value in times.items():
                totals[key] += value / factor
        for key, value in totals.items():
            self.samples[key].append(value * 1000.0)
        self.full_files = files
        self.rounds += 1

    def verify_reencode(self) -> None:
        """Re-encoding a decoded file must reproduce it byte for byte."""
        for data in self.full_files:
            graph = container.decode_file(data).graph
            self.check(container.encode_event_graph_v3(graph) == data)

    def metrics(self) -> dict[str, float]:
        chars = sum(h.chars for h in self.suite)
        medians = {k: statistics.median(v) for k, v in self.samples.items()}
        return {
            "save_ms": medians["save"],
            "file_bytes_per_char": sum(len(f) for f in self.full_files) / chars,
            "open_full_ms": medians["open_full"],
            "open_pruned_ms": medians["open_pruned"],
            "open_text_ms": medians["open_text"],
        }


# ----------------------------------------------------------------------
# room relay
# ----------------------------------------------------------------------
ROOM_SESSIONS = 32

Cover = dict[str, list[tuple[int, int]]]


def _cover(spans: Cover) -> Cover:
    """Per agent, the union of ``(seq, length)`` spans as disjoint
    ``(start, end)`` intervals; a ``(-1, -1)`` entry marks a span received
    twice."""
    out: Cover = {}
    for agent, items in spans.items():
        merged: list[list[int]] = []
        for start, length in sorted(items):
            if merged and start < merged[-1][1]:
                merged.append([-1, -1])
            elif merged and start == merged[-1][1]:
                merged[-1][1] = start + length
            else:
                merged.append([start, start + length])
        out[agent] = [(a, b) for a, b in merged]
    return out


def _expected_cover(events: list[RemoteEvent], agent: str) -> Cover:
    spans: Cover = {}
    for event in events:
        if event.id.agent != agent:
            spans.setdefault(event.id.agent, []).append((event.id.seq, event.op.length))
    return _cover(spans)


def _length(item: dict) -> int:
    op = item["op"]
    return len(op["content"]) if op["kind"] == "ins" else int(op["len"])


class RoomStage(Stage):
    """An in-process room with a durable store (fsync policy ``none``,
    default compaction thresholds) and 32 sessions: one per author, the rest
    read-only watchers.  Each run event is one upload from its author's
    session; after it every session is drained and its frames encoded."""

    def __init__(self, suite: list[History], tag: OpTagger, work_dir: str) -> None:
        super().__init__(suite, tag)
        self.work_dir = work_dir
        self.latencies: list[float] = []
        #: Per-delta latencies of each round, for the per-round p99.
        self.round_latencies: list[list[float]] = []
        self.busy = 0.0
        self.deltas = 0

    def round(self) -> None:
        first = len(self.latencies)
        for index, history in enumerate(self.suite):
            self._relay(history, f"room-{self.rounds}-{index}")
        self.round_latencies.append(self.latencies[first:])
        self.rounds += 1

    def _relay(self, history: History, name: str) -> None:
        directory = os.path.join(self.work_dir, name)
        storage = RoomStorage(directory, options=DurabilityOptions(fsync_policy="none"))
        room = DocumentRoom(name, storage=storage)
        authors = history.agents
        watchers = [f"watcher{i}" for i in range(max(0, ROOM_SESSIONS - len(authors)))]
        sessions = {agent: room.connect(agent, "ws", ()) for agent in authors + watchers}
        for session in sessions.values():
            session.drain()
        received: dict[str, Cover] = {agent: {} for agent in sessions}
        latencies = []
        speed = Speed()
        for event in history.events:
            self.tag(f"delta:{event.id.agent}:{event.id.seq}")
            start = time.perf_counter()
            room.receive_delta(sessions[event.id.agent], [event])
            drained = {agent: session.drain() for agent, session in sessions.items()}
            for frames in drained.values():
                for frame in frames:
                    protocol.encode_frame(frame)
            latencies.append(time.perf_counter() - start)
            self.deltas += 1
            self.attempted += 1
            for agent, frames in drained.items():
                for frame in frames:
                    if frame["type"] != "delta":
                        self.check(False)
                        continue
                    for item in frame["events"]:
                        spans = received[agent].setdefault(item["id"][0], [])
                        spans.append((item["id"][1], _length(item)))
        factor = speed.factor()
        self.latencies.extend(t * 1000.0 / factor for t in latencies)
        self.busy += sum(latencies) / factor
        self.check(room.text == history.expected)
        for agent in sessions:
            self.check(_cover(received[agent]) == _expected_cover(history.events, agent))
        self.check(room.stats.sessions_shed == 0)
        storage.close()
        shutil.rmtree(directory, ignore_errors=True)

    def metrics(self) -> dict[str, float]:
        """Throughput and median over every delta; the p99 of each round
        (one relay of the whole suite), median over rounds, so that a few
        seconds of host noise in one round do not set the tail."""
        return {
            "room_deltas_per_s": self.deltas / self.busy,
            "room_delta_p50_ms": percentile(self.latencies, 0.50),
            "room_delta_p99_ms": statistics.median(
                percentile(latencies, 0.99) for latencies in self.round_latencies
            ),
        }
