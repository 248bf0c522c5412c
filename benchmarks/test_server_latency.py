"""Collaboration-server latency and throughput under concurrent clients.

Real sockets, real frames: a :class:`~repro.server.CollabServer` on loopback
is driven by the loadgen in two modes —

* **live** — N full-replica WebSocket clients typing concurrently at a fixed
  cadence.  Delivery latency is measured per run event from the sender's
  ``send`` to every *other* replica's apply, so the reported p50/p99 include
  framing, the event loop, the server's causal buffering and the client-side
  merge.  The client count sweeps (2, 4, 8 by default), which is the paper's
  live-session shape at increasing fan-out.
* **trace replay** — the A1 trace-suite session (24 authors at full scale,
  8 at the CI scale) replayed with one WebSocket client per author, each
  feeding its author's events as their causal parents become visible.  The
  final text must match the per-character oracle byte for byte.

Every row lands in ``BENCH_server_latency.json`` (sustained edits/sec, p50
and p99 delivery latency, client count, leak counts).  The regression gates
are machine-independent: byte-identical convergence everywhere, zero events
parked in any causal buffer after quiesce, and ≥ 8 concurrent clients in the
replay row.  Wall-clock numbers are recorded for the trajectory, not gated.

Tunables: ``REPRO_SERVER_BENCH_CLIENTS`` (comma list, default ``2,4,8``),
``REPRO_SERVER_BENCH_EDITS`` (edits per client, default 30) and
``REPRO_SERVER_TRACE_SCALE`` (A1 scale, default 0.1 — the smallest scale
with 8 distinct authors).
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile

import pytest

from repro.server import CollabServer, DurabilityOptions, run_loadgen, run_trace_replay
from repro.traces.datasets import get_trace

RESULT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_server_latency.json"
)
CLIENT_COUNTS = tuple(
    int(n) for n in os.environ.get("REPRO_SERVER_BENCH_CLIENTS", "2,4,8").split(",")
)
EDITS_PER_CLIENT = int(os.environ.get("REPRO_SERVER_BENCH_EDITS", "30"))
TRACE_SCALE = float(os.environ.get("REPRO_SERVER_TRACE_SCALE", "0.1"))
REPLAY_TRACE = "A1"
#: Durability ablation: the same live load with the WAL off, with fsync
#: batched by the group-commit loop, and with an fsync per ingested delta.
DURABILITY_MODES = ("off", "group", "always")
ABLATION_CLIENTS = int(os.environ.get("REPRO_SERVER_BENCH_ABLATION_CLIENTS", "4"))


async def _collect_rows() -> list[dict]:
    rows = []
    for clients in CLIENT_COUNTS:
        async with CollabServer() as server:
            result = await run_loadgen(
                server.host,
                server.port,
                doc=f"live-{clients}",
                clients=clients,
                edits_per_client=EDITS_PER_CLIENT,
                edit_interval=0.002,
                transport="ws",
            )
        rows.append(result.as_row())
    trace = get_trace(REPLAY_TRACE, TRACE_SCALE)
    async with CollabServer() as server:
        result = await run_trace_replay(server.host, server.port, trace)
    row = result.as_row()
    row["trace"] = REPLAY_TRACE
    row["trace_scale"] = TRACE_SCALE
    rows.append(row)
    return rows


async def _collect_durability_rows() -> list[dict]:
    """The same live WS load at each durability setting, WAL stats attached.

    Wall-clock cost of fsync varies wildly across filesystems, so the gates
    below are structural (fsync counts, record counts, convergence); the
    edits/sec and latency columns land in the JSON for the trajectory.
    """
    rows = []
    for mode in DURABILITY_MODES:
        with tempfile.TemporaryDirectory() as tmp:
            kwargs = {}
            if mode != "off":
                kwargs = dict(
                    data_dir=tmp,
                    durability=DurabilityOptions(
                        fsync_policy=mode, group_interval=0.01
                    ),
                )
            async with CollabServer(**kwargs) as server:
                result = await run_loadgen(
                    server.host,
                    server.port,
                    doc="ablation",
                    clients=ABLATION_CLIENTS,
                    edits_per_client=EDITS_PER_CLIENT,
                    edit_interval=0.002,
                    transport="ws",
                )
                row = result.as_row()
                row["durability"] = mode
                if mode != "off":
                    row["wal"] = server.room("ablation").storage.stats.as_dict()
            rows.append(row)
    return rows


@pytest.fixture(scope="module")
def latency_rows():
    rows = asyncio.run(_collect_rows())
    durability_rows = asyncio.run(_collect_durability_rows())
    payload = {
        "benchmark": "server_latency",
        "client_counts": list(CLIENT_COUNTS),
        "edits_per_client": EDITS_PER_CLIENT,
        "replay_trace": REPLAY_TRACE,
        "replay_trace_scale": TRACE_SCALE,
        "rows": rows,
        "durability_rows": durability_rows,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return rows


@pytest.fixture(scope="module")
def durability_rows(latency_rows):
    with open(RESULT_PATH, encoding="utf-8") as fh:
        return json.load(fh)["durability_rows"]


def _live_rows(rows):
    return [r for r in rows if r["mode"] == "live"]


def _replay_row(rows):
    matches = [r for r in rows if r["mode"].startswith("trace:")]
    assert len(matches) == 1
    return matches[0]


def test_live_sessions_converge_at_every_fanout(latency_rows):
    """Byte-identical convergence across all clients and the server replica,
    at every client count in the sweep."""
    live = _live_rows(latency_rows)
    assert [row["clients"] for row in live] == list(CLIENT_COUNTS)
    for row in live:
        assert row["converged"], row
        assert row["edits"] == row["clients"] * EDITS_PER_CLIENT


def test_latency_is_measured_per_delivery(latency_rows):
    """Every live row must carry real latency samples (sender send → peer
    apply) and a sustained edits/sec figure."""
    for row in _live_rows(latency_rows):
        if row["clients"] < 2:
            continue
        assert row["latency_samples"] > 0, row
        assert row["latency_p99_ms"] >= row["latency_p50_ms"] > 0, row
        assert row["edits_per_sec"] > 0, row


def test_no_buffer_leaks_after_quiesce(latency_rows):
    """After convergence no causal buffer — the room's one inbound buffer or
    any client's — may still hold parked events (sessions hold no buffer:
    they filter only their own uploads out of one shared frame per batch)."""
    for row in latency_rows:
        assert row["leaked_events"] == 0, row


def test_trace_replay_with_eight_plus_ws_clients(latency_rows):
    """The acceptance gate: ≥ 8 concurrent WebSocket clients replaying a
    trace-suite session to byte-identical convergence against the
    per-character oracle."""
    row = _replay_row(latency_rows)
    assert row["clients"] >= 8, row
    assert row["converged"], row
    assert row["leaked_events"] == 0, row


def test_durability_ablation_converges_in_every_mode(durability_rows):
    """Durability must never cost correctness: the identical live load
    converges byte-identically with the WAL off, group-committed, and
    fsynced per delta."""
    assert [row["durability"] for row in durability_rows] == list(DURABILITY_MODES)
    for row in durability_rows:
        assert row["converged"], row
        assert row["leaked_events"] == 0, row


def test_durability_ablation_wal_accounting(durability_rows):
    """Structural gates on the WAL stats: both durable modes persisted every
    ingested delta, and fsync-per-delta paid at least as many fsyncs as the
    group-commit loop (that gap is the latency headroom the group policy
    buys)."""
    by_mode = {row["durability"]: row for row in durability_rows}
    assert "wal" not in by_mode["off"]
    group, always = by_mode["group"]["wal"], by_mode["always"]["wal"]
    for wal in (group, always):
        assert wal["records_appended"] > 0, wal
        assert wal["events_appended"] > 0, wal
        assert wal["torn_writes"] == 0, wal
    assert always["fsyncs"] >= always["records_appended"]
    assert always["fsyncs"] >= group["fsyncs"]


def test_result_file_written(latency_rows):
    with open(RESULT_PATH, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["benchmark"] == "server_latency"
    assert len(payload["rows"]) == len(CLIENT_COUNTS) + 1
    assert len(payload["durability_rows"]) == len(DURABILITY_MODES)
