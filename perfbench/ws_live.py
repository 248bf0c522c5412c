"""The ``ws-live`` stage: an out-of-process server driven open-loop.

``python -m repro.server --port 0 --data-dir <tmp> --fsync none`` runs in its
own process.  This process is the load generator: one WebSocket connection per
agent of a history re-carved into keystrokes (two or three agents).  Each
connection uploads only its own agent's keystrokes, each as one pre-encoded
``delta`` frame sent at its scheduled time (open loop: the schedule does not
wait for the server).  The clients relay only; they never merge, so the
figures measure the server.

Each rung of the rate ladder replays stream prefixes into fresh rooms.  An
edit's latency runs from its *scheduled* send time to its receipt by another
connection, so a stalled server and a late generator both show.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field

from repro.core.event_graph import EventGraph
from repro.core.oplog import RemoteEvent
from repro.server.protocol import delta_frame, encode_frame, hello_frame
from repro.server.wire import connect_websocket

from inputs import oracle_text

__all__ = ["LiveServer", "Rung", "RungResult", "Segment", "prepare_rungs", "run_rung"]

#: Seconds the server may take to start and print its port.
_START_TIMEOUT = 60.0


class LiveServer:
    """The server subprocess; ``trace_path`` set means the span launcher."""

    def __init__(self, root: str, data_dir: str, trace_path: str | None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        server_args = ["--port", "0", "--data-dir", data_dir, "--fsync", "none"]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.server", *server_args]
        else:
            launcher = os.path.join(root, "perfbench", "server_launcher.py")
            command = [sys.executable, launcher, trace_path, *server_args]
        self.data_dir = data_dir
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if "serving on ws://" in line:
                address = line.split("ws://", 1)[1].split("/", 1)[0]
                return int(address.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("the server did not start")

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=30) as reply:
            return json.loads(reply.read().decode("utf-8"))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


@dataclass
class Segment:
    """A stream prefix replayed into one fresh room."""

    agents: tuple[str, ...]
    events: list[RemoteEvent]
    frames: list[str]
    expected: str


@dataclass
class Rung:
    """One ladder rung: a rate and the segments replayed at it, in turn."""

    rate: float
    segments: list[Segment]


@dataclass
class RungResult:
    rate: float
    latencies_ms: list[float] = field(default_factory=list)
    #: Median latency of each segment (room).
    segment_p50_ms: list[float] = field(default_factory=list)
    send_lag_ms: list[float] = field(default_factory=list)
    backlog_peak: int = 0
    attempted: int = 0
    failed: int = 0
    #: Highest mean latency of the last quarter of a segment.
    tail_ms: float = 0.0
    #: Edits that reached every other connection.
    delivered: int = 0
    #: Seconds from each segment's first scheduled send to its last receipt.
    span_s: float = 0.0

    @property
    def achieved_rate(self) -> float:
        """Edits delivered per second while the rung ran."""
        return self.delivered / self.span_s if self.span_s else 0.0


def prepare_rungs(
    streams: list[tuple[tuple[str, ...], list[RemoteEvent]]],
    ladder: list[tuple[float, float]],
) -> list[Rung]:
    """Each ``(rate, seconds)`` rung replays ``rate * seconds`` edits, split
    evenly over the streams (one fresh room each, in turn)."""
    encoded = [[encode_frame(delta_frame([e])) for e in events] for _, events in streams]
    rungs = []
    for rate, seconds in ladder:
        per_stream = max(20, int(rate * seconds) // len(streams))
        segments = []
        for (agents, events), frames in zip(streams, encoded):
            count = min(len(events), per_stream)
            graph = EventGraph()
            for event in events[:count]:
                graph.add_remote_event(event.id, event.parents, event.op)
            segments.append(Segment(agents, events[:count], frames[:count], oracle_text(graph)))
        rungs.append(Rung(rate, segments))
    return rungs


def _span_ids(agent: str, seq: int, length: int) -> list[tuple[str, int]]:
    return [(agent, seq + k) for k in range(length)]


async def _replay(port: int, room: str, rate: float, segment: Segment, result: RungResult) -> None:
    """Open one connection per agent, replay the segment open-loop and wait
    until every connection has received every edit of the other agents."""
    authors = segment.agents
    connections = {}
    for agent in authors:
        ws = await connect_websocket("127.0.0.1", port, "/v1/ws")
        await ws.send_text(encode_frame(hello_frame(room, agent)))
        connections[agent] = ws
    start = time.perf_counter() + 0.02
    due: dict[tuple[str, int], float] = {}
    owner: dict[tuple[str, int], str] = {}
    for index, event in enumerate(segment.events):
        for char_id in _span_ids(event.id.agent, event.id.seq, event.op.length):
            due[char_id] = start + index / rate
            owner[char_id] = event.id.agent
    received: dict[str, dict[tuple[str, int], float]] = {a: {} for a in authors}
    expected_count = {a: sum(1 for o in owner.values() if o != a) for a in authors}
    unexpected = 0
    done = asyncio.Event()
    sent = 0

    async def receive(agent: str) -> None:
        nonlocal unexpected
        ws = connections[agent]
        mine = received[agent]
        while True:
            text = await ws.recv_text()
            if text is None:
                return
            now = time.perf_counter()
            frame = json.loads(text)
            if frame.get("type") == "error":
                unexpected += 1
            if frame.get("type") != "delta":
                continue
            for item in frame["events"]:
                agent_id, seq = item["id"]
                op = item["op"]
                length = len(op["content"]) if op["kind"] == "ins" else op["len"]
                for char_id in _span_ids(agent_id, seq, length):
                    if owner.get(char_id, agent) == agent or char_id in mine:
                        unexpected += 1
                    else:
                        mine[char_id] = now
            if all(len(received[a]) >= expected_count[a] for a in authors):
                done.set()

    async def send(agent: str) -> None:
        nonlocal sent
        ws = connections[agent]
        for index, event in enumerate(segment.events):
            if event.id.agent != agent:
                continue
            when = start + index / rate
            delay = when - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            result.send_lag_ms.append((now - when) * 1000.0)
            behind = int((now - start) * rate) + 1 - sent
            result.backlog_peak = max(result.backlog_peak, behind)
            await ws.send_text(segment.frames[index])
            sent += 1

    receivers = [asyncio.ensure_future(receive(a)) for a in authors]
    senders = [asyncio.ensure_future(send(a)) for a in authors]
    try:
        await asyncio.gather(*senders)
        try:
            await asyncio.wait_for(done.wait(), 30.0 + len(segment.events) / rate)
        except asyncio.TimeoutError:
            pass
    finally:
        for ws in connections.values():
            await ws.close()
        for task in receivers:
            task.cancel()
        await asyncio.gather(*receivers, return_exceptions=True)

    ordered = sorted(
        (due[char_id], (at - due[char_id]) * 1000.0)
        for agent in authors
        for char_id, at in received[agent].items()
    )
    latencies = [latency for _, latency in ordered]
    result.latencies_ms.extend(latencies)
    result.attempted += len(due)
    missing = sum(expected_count[a] - len(received[a]) for a in authors)
    result.failed += missing + unexpected
    if latencies:
        result.segment_p50_ms.append(statistics.median(latencies))
        quarter = latencies[-max(1, len(latencies) // 4):]
        result.tail_ms = max(result.tail_ms, sum(quarter) / len(quarter))
        last = max(at for r in received.values() for at in r.values())
        result.delivered += sum(
            all(char_id in received[a] for a in authors if a != who)
            for char_id, who in owner.items()
        )
        result.span_s += last - start


def run_rung(server: LiveServer, room_prefix: str, rung: Rung) -> RungResult:
    """Replay every segment of one rung; each room's text must then equal
    the oracle text of its segment."""
    result = RungResult(rung.rate)
    for index, segment in enumerate(rung.segments):
        room = f"{room_prefix}-{index}"
        # The generator's own collections would show up as server latency.
        gc.collect()
        gc.disable()
        try:
            asyncio.run(_replay(server.port, room, rung.rate, segment, result))
        finally:
            gc.enable()
        result.attempted += 1
        if server.get_json(f"/v1/text?doc={room}")["text"] != segment.expected:
            result.failed += 1
    return result
