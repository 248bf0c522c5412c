"""Span recording around calls into the library's public functions.

The benchmark never edits the library.  A traced run swaps each measured
public function or method for a thin wrapper that records one span per call
(name, start, end, parent span, operation id) in memory, then restores the
originals.  Spans are written out only when the run ends.

Layer counters that the library already keeps (``WalkerStats``,
``MergeEngineStats``, ``ReadStats``, ``DeliveryStats``, ``WalStats``) are read
by the same wrappers, so ratios are measured at the boundary where the work
happens.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "install_layer_wrappers", "SERVER_LAYERS", "LIBRARY_LAYERS"]


class Tracer:
    """In-memory span store.

    A span is ``[name, start, end, parent, op_id, busy]``; ``parent`` is the
    index of the enclosing span (-1 for none).  ``busy`` is the time the call
    actually ran: equal to ``end - start`` for plain functions, and the sum of
    the coroutine's resumed steps for ``async`` methods (their suspensions
    are waits, not work).
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op_id = ""
        self._stack: list[int] = []

    # -- recording --------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        now = time.perf_counter()
        self.spans.append([name, now, now, parent, self.op_id, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = span[2] - span[1]
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def wrap(self, name: str, func: Callable, after: Callable | None = None) -> Callable:
        """A wrapper recording one ``name`` span per call of ``func``.

        ``after(args, result, before)`` runs once the call returns, outside
        the span, to read counters; ``before`` is what ``after(args, None,
        None)`` returned when called ahead of the call.
        """
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = after(args, None, None) if after is not None else None
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result, before)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def wrap_async(self, name: str, func: Callable) -> Callable:
        """Like :meth:`wrap` for a coroutine function; the span's ``busy``
        time counts only the steps in which the coroutine ran."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _TimedAwait(tracer, name, func(*args, **kwargs))

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    # -- summarising ------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total busy seconds, total self seconds, calls).

        Self time is a span's busy time minus the busy time of its direct
        children; children run strictly inside their parent's call.
        """
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_busy[span[3]] += span[5]
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for index, span in enumerate(self.spans):
            entry = totals[span[0]]
            entry[0] += span[5]
            entry[1] += max(0.0, span[5] - child_busy[index])
            entry[2] += 1
        return {name: (v[0], v[1], int(v[2])) for name, v in totals.items()}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, then the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(
                json.dumps({"counters": dict(self.counters), "maxima": dict(self.maxima)})
                + "\n"
            )

    def load(self, path: str) -> None:
        """Append the spans and counters another process dumped."""
        offset = len(self.spans)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                item = json.loads(line)
                if isinstance(item, dict):
                    for key, value in item["counters"].items():
                        self.counters[key] += value
                    for key, value in item["maxima"].items():
                        self.peak(key, value)
                    continue
                if item[3] >= 0:
                    item[3] += offset
                self.spans.append(item)


class _TimedAwait:
    """Drives a coroutine step by step, timing only the steps it runs."""

    def __init__(self, tracer: Tracer, name: str, coro: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self) -> Any:
        tracer = self._tracer
        index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else -1
        span = [self._name, time.perf_counter(), 0.0, parent, tracer.op_id, 0.0]
        tracer.spans.append(span)
        inner = self._coro.__await__()
        send_value: Any = None
        throw: BaseException | None = None
        while True:
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                if throw is not None:
                    yielded = inner.throw(throw)
                else:
                    yielded = inner.send(send_value)
            except StopIteration as stop:
                span[5] += time.perf_counter() - start
                span[2] = time.perf_counter()
                return stop.value
            except BaseException:
                span[5] += time.perf_counter() - start
                span[2] = time.perf_counter()
                raise
            finally:
                tracer._stack.pop()
            span[5] += time.perf_counter() - start
            try:
                send_value = yield yielded
                throw = None
            except BaseException as exc:  # delivered into the coroutine
                throw = exc
                send_value = None


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------
def _replace_everywhere(original: Callable, replacement: Callable) -> list[tuple[Any, str, Any]]:
    """Rebind every ``repro`` module global that names ``original``
    (``from x import f`` copies the reference into the importer)."""
    undo = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)
    return undo


def _patch_method(cls: type, attr: str, replacement: Any) -> tuple[Any, str, Any]:
    original = cls.__dict__[attr]
    setattr(cls, attr, replacement)
    return (cls, attr, original)


def _engine_counters(tracer: Tracer) -> Callable:
    fields = (
        "merges",
        "fast_path_merges",
        "resumed_merges",
        "fresh_replays",
        "replayed_window_events",
        "replayed_new_events",
        "checkpoints_dropped",
    )

    def after(args: tuple, result: Any, before: Any) -> Any:
        stats = args[0].stats
        now = [getattr(stats, f) for f in fields]
        if before is not None:
            for field, a, b in zip(fields, before, now):
                tracer.count(f"engine.{field}", b - a)
        return now

    return after


def _walker_counters(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any, before: Any) -> None:
        if result is not None:
            tracer.count("walker.chars", result.stats.chars_processed)
            tracer.peak("walker.peak_records", result.stats.peak_records)

    return after


def _buffer_counters(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any, before: Any) -> Any:
        buffer = args[0]
        if before is None:
            return buffer.stats.duplicates
        tracer.count("net.duplicates", buffer.stats.duplicates - before)
        tracer.peak("net.parked_peak", buffer.pending_count)
        return None

    return after


def _compress_counters(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any, before: Any) -> None:
        if result is not None:
            raw = len(args[0])
            tracer.count("compress.raw_bytes", raw)
            tracer.count("compress.stored_bytes", min(raw, len(result)))

    return after


def _hydrate_counters(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any, before: Any) -> Any:
        stats = args[0].stats
        if before is None:
            return stats.events_materialised
        tracer.count("storage.events_materialised", stats.events_materialised - before)
        return None

    return after


def _text_read_counters(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any, before: Any) -> Any:
        lazy = args[0]
        if before is None:
            return lazy.stats.bytes_read
        tracer.count("storage.text_bytes_read", lazy.stats.bytes_read - before)
        tracer.count("storage.text_file_bytes", lazy.file_size)
        return None

    return after


def _wal_counters(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any, before: Any) -> Any:
        stats = args[0].stats
        if before is None:
            return (stats.bytes_appended, stats.events_appended)
        tracer.count("wal.bytes", stats.bytes_appended - before[0])
        tracer.count("wal.events", stats.events_appended - before[1])
        return None

    return after


def _frame_counters(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any, before: Any) -> None:
        if result is not None:
            tracer.count("frames.encoded")
            tracer.count("frames.bytes_out", len(result.encode("utf-8")))
            if args[0].get("type") == "error":
                tracer.count("frames.errors")

    return after


def _room_counters(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any, before: Any) -> Any:
        stats = args[0].stats
        if before is None:
            return stats.sessions_shed
        tracer.count("server.deltas")
        tracer.count("server.sessions_shed", stats.sessions_shed - before)
        return None

    return after


#: Library layers traced in the benchmark process (room relay, merge, storage).
LIBRARY_LAYERS = ("core", "crdt", "storage", "net", "room")
#: Layers traced inside the server subprocess.
SERVER_LAYERS = LIBRARY_LAYERS + ("protocol", "wire")


def install_layer_wrappers(tracer: Tracer, layers: tuple[str, ...]) -> Callable[[], None]:
    """Wrap the public entry points of ``layers``; returns the undo function."""
    from repro.core.document import Document
    from repro.core.merge_engine import MergeEngine
    from repro.core.oplog import OpLog
    from repro.core.walker import EgWalker
    from repro.crdt import converter
    from repro.network.causal_broadcast import CausalBuffer
    from repro.server import protocol
    from repro.server.session import DocumentRoom, Session
    from repro.server.wal import RoomStorage
    from repro.server.wire import WebSocketConnection
    from repro.storage import compression, container

    undo: list[tuple[Any, str, Any]] = []
    wrap = tracer.wrap

    def method(cls: type, attr: str, name: str, after: Callable | None = None) -> None:
        undo.append(_patch_method(cls, attr, wrap(name, cls.__dict__[attr], after)))

    def function(func: Callable, name: str, after: Callable | None = None) -> None:
        undo.extend(_replace_everywhere(func, wrap(name, func, after)))

    if "core" in layers:
        method(Document, "apply_remote_events", "core.apply")
        method(OpLog, "ingest_events", "core.graph_ingest")
        method(MergeEngine, "integrate", "core.integrate", _engine_counters(tracer))
        method(EgWalker, "transform", "core.walker", _walker_counters(tracer))
    if "crdt" in layers:
        function(converter.event_graph_to_crdt_ops, "crdt.convert")
    if "storage" in layers:
        function(container.encode_event_graph_v3, "storage.encode")
        function(compression.compress, "storage.compress", _compress_counters(tracer))
        function(compression.decompress, "storage.decompress")
        lazy_graph = container.LazyDecodedFile.__dict__["graph"]
        lazy_text = container.LazyDecodedFile.__dict__["text"]
        hydrate = wrap("storage.hydrate", lazy_graph.fget, _hydrate_counters(tracer))
        text = wrap("storage.text", lazy_text.fget, _text_read_counters(tracer))
        undo.append(_patch_method(container.LazyDecodedFile, "graph", property(hydrate)))
        undo.append(_patch_method(container.LazyDecodedFile, "text", property(text)))
    if "net" in layers:
        method(CausalBuffer, "receive_batch", "net.receive_batch", _buffer_counters(tracer))
    if "room" in layers:
        method(DocumentRoom, "receive_delta", "server.receive_delta", _room_counters(tracer))
        method(Session, "offer_events", "server.fanout")
        method(RoomStorage, "append", "server.wal.append", _wal_counters(tracer))
        method(RoomStorage, "compact", "server.wal.compact")
        function(protocol.encode_frame, "server.encode_frame", _frame_counters(tracer))
    if "protocol" in layers:
        function(protocol.decode_frame, "server.decode_frame")
    if "wire" in layers:
        undo.append(
            _patch_method(
                WebSocketConnection,
                "send_text",
                tracer.wrap_async("server.wire.send", WebSocketConnection.send_text),
            )
        )
        undo.append(
            _patch_method(
                WebSocketConnection,
                "recv_text",
                tracer.wrap_async("server.wire.recv", WebSocketConnection.recv_text),
            )
        )

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
