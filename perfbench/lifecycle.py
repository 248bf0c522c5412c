"""What one benchmark run does: seeded histories through four stages.

A workload is the shape of the edit history, one per trace family of the
paper (sequential, concurrent, asynchronous).  Every run builds a suite of
seeded histories of that shape and takes it through every stage, so every
workload reports every end-to-end metric; the shape decides which layers do
the work (the sequential shape takes the merge fast path, the concurrent and
asynchronous shapes go through the walker).

* ``offline-merge``  a fresh replica ingests each whole history (paper
  Fig. 8 merge, Fig. 10 memory);
* ``doc-storage``    save full and pruned+snapshot v3 files and open them
  three ways (Figs. 11-12, Fig. 8 load);
* ``room-relay``     an in-process durable room with 32 sessions relays each
  history, one run event per upload (fan-out width 31);
* ``ws-live``        an out-of-process server is driven open-loop over
  WebSockets, one connection per agent, along a fixed rate ladder (fan-out
  width 1 or 2).

The three in-process stages run interleaved, round by round, so that each
samples the whole run rather than one stretch of it.
"""

from __future__ import annotations

import gc
import math
import os
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import stages
from calibration import Speed, calibration_ms
from inputs import History, keystroke_stream, make_suite
from tracing import LIBRARY_LAYERS, Tracer, install_layer_wrappers
from ws_live import LiveServer, Rung, RungResult, prepare_rungs, run_rung

__all__ = ["WORKLOADS", "Workload", "RunResult", "run", "layer_metric_names", "UNITS"]


@dataclass(frozen=True)
class Workload:
    shape: str
    #: Characters per history, and histories per suite.
    chars: int
    count: int
    #: The shape replayed live over WebSockets (two or three agents, one
    #: connection each): six streams, one room each per rung.
    live_shape: str
    live_chars: int


#: Histories replayed live per rung.
LIVE_STREAMS = 6

WORKLOADS = {
    "sequential": Workload("S", 2000, 6, "S", 2000),
    "concurrent": Workload("C", 800, 6, "C", 800),
    "asynchronous": Workload("A", 900, 10, "A-live", 1000),
}

#: Open-loop ladder: (keystrokes per second, share of the live stage's
#: time).  The first rung is the reference rate for ``ws_edit_p50_ms``.
LADDER = ((200, 0.55), (400, 0.15), (800, 0.15), (1600, 0.15))
#: A rung is met when its p99 latency and the generator's p99 send lag stay
#: under ``P99_LIMIT_MS`` and the backlog does not grow: the mean latency of
#: the last quarter of every segment stays under ``TAIL_LIMIT_MS``.
P99_LIMIT_MS = 100.0
TAIL_LIMIT_MS = 50.0
#: Share of ``--seconds`` spent measuring in-process (interleaved) and live.
IN_PROCESS_SHARE = 0.6
LIVE_SHARE = 0.4
#: Relative weight of each in-process stage within its share.
WEIGHTS = {"offline-merge": 0.2, "doc-storage": 0.4, "room-relay": 0.4}
#: Minimum rounds per in-process stage, whatever ``--seconds`` says.
MINIMUM_ROUNDS = {"offline-merge": 5, "doc-storage": 3, "room-relay": 2}
#: Rounds per in-process stage in a traced run (fixed work).
TRACE_ROUNDS = {"offline-merge": 10, "doc-storage": 4, "room-relay": 2}
SETUP_REPEATS = 3

#: The end-to-end metrics, in print order, with their units.
UNITS = {
    "setup_s": "s",
    "merge_chars_per_s": "1/s",
    "merge_steady_kib": "KiB",
    "merge_peak_kib": "KiB",
    "save_ms": "ms",
    "file_bytes_per_char": "B",
    "open_full_ms": "ms",
    "open_pruned_ms": "ms",
    "open_text_ms": "ms",
    "room_deltas_per_s": "1/s",
    "room_delta_p50_ms": "ms",
    "room_delta_p99_ms": "ms",
    "ws_edit_p50_ms": "ms",
}


@dataclass
class Inputs:
    suite: list[History]
    live: list[History]
    rungs: list[Rung]


@dataclass
class RunResult:
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    report: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.report.append(f"{name:40s} {value:14.6g} {unit}")

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def build_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    suite = make_suite(workload.shape, workload.chars, workload.count, seed)
    if (workload.live_shape, workload.live_chars) == (workload.shape, workload.chars):
        live = suite[:LIVE_STREAMS]
    else:
        live = make_suite(workload.live_shape, workload.live_chars, LIVE_STREAMS, seed)
    streams = [(tuple(h.agents), keystroke_stream(h)) for h in live]
    ladder = [(rate, share * LIVE_SHARE * seconds) for rate, share in LADDER]
    return Inputs(suite, live, prepare_rungs(streams, ladder))


def _noop(op_id: str) -> None:
    return None


def interleave(work: dict[str, stages.Stage], seconds: float, minimum: dict[str, int]) -> None:
    """Run rounds of every stage until ``seconds`` have passed and each
    stage has its minimum; the stage furthest below its time share goes
    next."""
    spent = dict.fromkeys(work, 0.0)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or any(
        stage.rounds < minimum[name] for name, stage in work.items()
    ):
        name = min(work, key=lambda n: (spent[n] / WEIGHTS[n], work[n].rounds))
        start = time.perf_counter()
        work[name].round()
        spent[name] += time.perf_counter() - start


# ----------------------------------------------------------------------
# The live stage
# ----------------------------------------------------------------------
def _margin(result: RungResult) -> float:
    """How far a rung is from its limits: at most 1 when it is met."""
    if result.failed or not result.latencies_ms:
        return math.inf
    return max(
        stages.percentile(result.latencies_ms, 0.99) / P99_LIMIT_MS,
        result.tail_ms / TAIL_LIMIT_MS,
        stages.percentile(result.send_lag_ms, 0.99) / P99_LIMIT_MS,
    )


def max_rate(results: list[RungResult]) -> float:
    """The highest rate that meets the limits.

    Between the last rung met and the first rung missed, the rate is
    interpolated where the margin crosses 1 (both on log scales), so the
    figure moves smoothly instead of jumping a whole rung.  When every rung
    is met it is the top rung's delivered rate.
    """
    margins = [_margin(r) for r in results]
    missed = next((i for i, m in enumerate(margins) if m > 1.0), None)
    if missed is None:
        return results[-1].achieved_rate
    if missed == 0:
        return results[0].rate / margins[0] if math.isfinite(margins[0]) else 0.0
    low, high = results[missed - 1], results[missed]
    m_low, m_high = margins[missed - 1], margins[missed]
    if not math.isfinite(m_high):
        return low.rate
    fraction = math.log(1.0 / m_low) / math.log(m_high / m_low)
    return low.rate * (high.rate / low.rate) ** fraction


def ws_stage(
    inputs: Inputs, root: str, work_dir: str, trace_path: str | None
) -> tuple[list[RungResult], int, int]:
    server = LiveServer(root, os.path.join(work_dir, "server-data"), trace_path)
    try:
        results = [run_rung(server, f"live-{i}", rung) for i, rung in enumerate(inputs.rungs)]
    finally:
        server.stop()
    return results, sum(r.attempted for r in results), sum(r.failed for r in results)


def ws_report(results: list[RungResult], out: RunResult) -> None:
    """The live stage's ungated figures and every rung, as report lines."""
    p99 = stages.percentile(results[0].latencies_ms, 0.99)
    out.report.append(f"{'ws_edit_p99_ms':40s} {p99:14.6g} ms (not gated)")
    out.report.append(f"{'ws_max_rate_eps':40s} {max_rate(results):14.6g} 1/s (not gated)")
    for r in results:
        out.report.append(
            f"  rung {r.rate:5.0f}/s: n={len(r.latencies_ms)} "
            f"p50={stages.percentile(r.latencies_ms, 0.5):.2f}ms "
            f"p99={stages.percentile(r.latencies_ms, 0.99):.2f}ms "
            f"tail={r.tail_ms:.2f}ms "
            f"lag_p99={stages.percentile(r.send_lag_ms, 0.99):.2f}ms "
            f"backlog_peak={r.backlog_peak} delivered={r.achieved_rate:.1f}/s "
            f"margin={_margin(r):.3f}"
        )


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run(
    workload: Workload, *, seed: int, seconds: float, trace: bool, work_dir: str, root: str
) -> RunResult:
    out = RunResult()
    calibration = calibration_ms()
    out.report.append(f"calibration loop: {calibration:.3f} ms (context, not gated)")
    setup_times = []
    inputs: Inputs | None = None
    for _ in range(SETUP_REPEATS):
        speed = Speed()
        start = time.perf_counter()
        built = build_inputs(workload, seed, seconds)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed / speed.factor())
        inputs = inputs or built
    assert inputs is not None
    del built
    out.report.append(
        f"inputs: {len(inputs.suite)} {workload.shape}-shape histories, "
        f"{sum(len(h.events) for h in inputs.suite)} run events, "
        f"{sum(h.chars for h in inputs.suite)} chars; "
        f"live: {len(inputs.live)} {workload.live_shape}-shape streams, "
        f"{sum(len(s.events) for s in inputs.rungs[0].segments)} keystrokes at the reference rate"
    )
    # The inputs live for the whole run; frozen, they are not rescanned by
    # every collection the library's own allocations trigger.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            traced_run(inputs, root, work_dir, out)
            out.add("context.calibration_ms", calibration, "ms")
        else:
            measured_run(inputs, statistics.median(setup_times), seconds, root, work_dir, out)
    finally:
        gc.unfreeze()
    return out


def measured_run(
    inputs: Inputs, setup_s: float, seconds: float, root: str, work_dir: str, out: RunResult
) -> None:
    """The untraced run: every end-to-end metric."""
    suite = inputs.suite
    work: dict[str, stages.Stage] = {
        "offline-merge": stages.MergeStage(suite, _noop),
        "doc-storage": stages.StorageStage(suite, _noop),
        "room-relay": stages.RoomStage(suite, _noop, work_dir),
    }
    interleave(work, seconds * IN_PROCESS_SHARE, MINIMUM_ROUNDS)
    storage = work["doc-storage"]
    assert isinstance(storage, stages.StorageStage)
    storage.verify_reencode()
    values: dict[str, float] = {"setup_s": setup_s}
    for stage in work.values():
        out.tally(stage.attempted, stage.failed)
        values.update(stage.metrics())
    values.update(stages.merge_memory(suite))

    results, attempted, failed = ws_stage(inputs, root, work_dir, None)
    out.tally(attempted, failed)
    # Median over the reference rung's rooms of each room's median, so one
    # room replayed during a noisy stretch of the host does not set it.
    values["ws_edit_p50_ms"] = statistics.median(results[0].segment_p50_ms)
    for name, unit in UNITS.items():
        out.add(name, values[name], unit)
    ws_report(results, out)
    failed_frac = out.failed / max(1, out.attempted)
    out.report.append(
        f"{'failed_frac':40s} {failed_frac:14.6g} ratio "
        f"({out.failed} of {out.attempted} operations; not gated, see 'failed')"
    )


# ----------------------------------------------------------------------
# Traced runs: per-layer metrics
# ----------------------------------------------------------------------
CORE = (
    "core.apply.self_ms",
    "core.graph_ingest.ms",
    "core.integrate.self_ms",
    "core.walker.ms",
    "core.walker.chars",
    "core.walker.peak_records",
    "core.fast_path_share",
    "core.resume_share",
    "core.window_replay_ratio",
    "core.checkpoints_dropped",
)
CRDT = ("crdt.convert.ms", "crdt.convert.calls")
STORAGE = (
    "storage.encode.self_ms",
    "storage.compress.ms",
    "storage.compress.ratio",
    "storage.decompress.ms",
    "storage.hydrate.self_ms",
    "storage.events_materialised",
    "storage.read_fraction",
)
STORAGE_WRITE = ("storage.encode.self_ms", "storage.compress.ms")
NET = ("net.receive_batch.ms", "net.duplicates", "net.parked_peak")
ROOM = (
    "server.receive_delta.self_ms",
    "server.fanout.ms",
    "server.frames_per_batch",
    "server.encode_frame.ms",
    "server.bytes_out_per_batch",
    "server.wal.append.ms",
    "server.wal.bytes_per_event",
    "server.wal.compact.ms",
    "server.wal.compactions",
    "server.sessions_shed",
)
WIRE = ("server.decode_frame.ms", "server.wire.send.ms", "server.wire.recv.ms", "server.error_frames")

#: Per stage, the layer metrics it reports (as ``<stage>.<metric>``).
STAGE_LAYERS = {
    "offline-merge": CORE,
    "doc-storage": CORE + CRDT + STORAGE,
    "room-relay": CORE + NET + ROOM + STORAGE_WRITE,
    "ws-live": CORE + NET + ROOM + WIRE + STORAGE_WRITE,
}

#: Span whose *busy* time a ``.ms`` metric reports.
_SPAN_MS = {
    "core.graph_ingest.ms": "core.graph_ingest",
    "core.walker.ms": "core.walker",
    "crdt.convert.ms": "crdt.convert",
    "storage.compress.ms": "storage.compress",
    "storage.decompress.ms": "storage.decompress",
    "server.fanout.ms": "server.fanout",
    "server.encode_frame.ms": "server.encode_frame",
    "server.wal.append.ms": "server.wal.append",
    "server.wal.compact.ms": "server.wal.compact",
    "server.decode_frame.ms": "server.decode_frame",
    "server.wire.send.ms": "server.wire.send",
    "server.wire.recv.ms": "server.wire.recv",
}
#: Span whose *self* time a metric reports.  ``net.receive_batch`` is one:
#: the room's inbound buffer delivers, and so runs the whole ingest, inside
#: the call.
_SPAN_SELF_MS = {
    "core.apply.self_ms": "core.apply",
    "core.integrate.self_ms": "core.integrate",
    "storage.encode.self_ms": "storage.encode",
    "storage.hydrate.self_ms": "storage.hydrate",
    "net.receive_batch.ms": "net.receive_batch",
    "server.receive_delta.self_ms": "server.receive_delta",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every layer metric this module knows, from one tracer's spans."""
    times = tracer.self_times()
    c = tracer.counters
    values: dict[str, float] = {}
    for name, span in _SPAN_MS.items():
        values[name] = times.get(span, (0.0, 0.0, 0))[0] * 1000.0
    for name, span in _SPAN_SELF_MS.items():
        values[name] = times.get(span, (0.0, 0.0, 0))[1] * 1000.0
    values.update(
        {
            "core.walker.chars": c["walker.chars"],
            "core.walker.peak_records": tracer.maxima["walker.peak_records"],
            "core.fast_path_share": _ratio(c["engine.fast_path_merges"], c["engine.merges"]),
            "core.resume_share": _ratio(
                c["engine.resumed_merges"], c["engine.resumed_merges"] + c["engine.fresh_replays"]
            ),
            "core.window_replay_ratio": _ratio(
                c["engine.replayed_window_events"], c["engine.replayed_new_events"]
            ),
            "core.checkpoints_dropped": c["engine.checkpoints_dropped"],
            "crdt.convert.calls": times.get("crdt.convert", (0.0, 0.0, 0))[2],
            "storage.compress.ratio": _ratio(c["compress.stored_bytes"], c["compress.raw_bytes"]),
            "storage.events_materialised": c["storage.events_materialised"],
            "storage.read_fraction": _ratio(
                c["storage.text_bytes_read"], c["storage.text_file_bytes"]
            ),
            "net.duplicates": c["net.duplicates"],
            "net.parked_peak": tracer.maxima["net.parked_peak"],
            "server.frames_per_batch": _ratio(c["frames.encoded"], c["server.deltas"]),
            "server.bytes_out_per_batch": _ratio(c["frames.bytes_out"], c["server.deltas"]),
            "server.wal.bytes_per_event": _ratio(c["wal.bytes"], c["wal.events"]),
            "server.wal.compactions": times.get("server.wal.compact", (0.0, 0.0, 0))[2],
            "server.sessions_shed": c["server.sessions_shed"],
            "server.error_frames": c["frames.errors"],
        }
    )
    return values


def _unit(metric: str) -> str:
    metric = re.sub(r"\.r\d+$", "", metric)  # ladder rung suffix, e.g. ".r400"
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("eps"):
        return "1/s"
    if metric.endswith(("share", "ratio", "fraction", "_frac")):
        return "ratio"
    if metric.endswith("per_batch"):
        return "1/batch"
    if metric.endswith("per_event"):
        return "B/event"
    return "count"


def _rung_metric_names() -> list[str]:
    names = ["ws-live.edit_p99_ms", "ws-live.max_rate_eps"]
    for rate, _ in LADDER:
        names += [f"ws-live.send_lag_p99_ms.r{rate}", f"ws-live.backlog_peak.r{rate}"]
    return names


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in order."""
    names = [f"{stage}.{m}" for stage, metrics in STAGE_LAYERS.items() for m in metrics]
    return names + _rung_metric_names() + ["trace.overhead_frac", "context.calibration_ms"]


def traced_run(inputs: Inputs, root: str, work_dir: str, out: RunResult) -> None:
    """Each in-process stage's fixed work untraced, then traced; the live
    stage once, with the span launcher in the server process.  Spans are
    written to ``.perfbench/spans-<shape>-<stage>.jsonl``."""
    suite = inputs.suite
    span_dir = os.path.join(root, ".perfbench")
    makers: dict[str, Callable[[stages.OpTagger], stages.Stage]] = {
        "offline-merge": lambda tag: stages.MergeStage(suite, tag),
        "doc-storage": lambda tag: stages.StorageStage(suite, tag),
        "room-relay": lambda tag: stages.RoomStage(suite, tag, work_dir),
    }
    untraced_s = traced_s = 0.0
    for name, make in makers.items():
        stage = make(_noop)
        start = time.perf_counter()
        for _ in range(TRACE_ROUNDS[name]):
            stage.round()
        untraced_s += time.perf_counter() - start
        out.tally(stage.attempted, stage.failed)

        tracer = Tracer()

        def tag(op_id: str, tracer: Tracer = tracer) -> None:
            tracer.op_id = op_id

        stage = make(tag)
        restore = install_layer_wrappers(tracer, LIBRARY_LAYERS)
        start = time.perf_counter()
        try:
            for _ in range(TRACE_ROUNDS[name]):
                stage.round()
        finally:
            restore()
        traced_s += time.perf_counter() - start
        out.tally(stage.attempted, stage.failed)
        tracer.dump(os.path.join(span_dir, f"spans-{suite[0].shape}-{name}.jsonl"))
        values = layer_metrics(tracer)
        for metric in STAGE_LAYERS[name]:
            out.add(f"{name}.{metric}", values[metric], _unit(metric))

    spans_path = os.path.join(span_dir, f"spans-{suite[0].shape}-ws-live.jsonl")
    results, attempted, failed = ws_stage(inputs, root, work_dir, spans_path)
    out.tally(attempted, failed)
    tracer = Tracer()
    tracer.load(spans_path)
    values = layer_metrics(tracer)
    for metric in STAGE_LAYERS["ws-live"]:
        out.add(f"ws-live.{metric}", values[metric], _unit(metric))
    out.add("ws-live.edit_p99_ms", stages.percentile(results[0].latencies_ms, 0.99), "ms")
    out.add("ws-live.max_rate_eps", max_rate(results), "1/s")
    for r in results:
        rate = f"r{r.rate:.0f}"
        lag = f"ws-live.send_lag_p99_ms.{rate}"
        out.add(lag, stages.percentile(r.send_lag_ms, 0.99), _unit(lag))
        peak = f"ws-live.backlog_peak.{rate}"
        out.add(peak, float(r.backlog_peak), _unit(peak))
    out.add("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio")
