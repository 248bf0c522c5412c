"""Self-tests of the benchmark at a tiny input size.

Usage: ``python3 perfbench/selftest.py`` from the repository root (about a
minute).  Checks that

* every workload runs and prints every end-to-end metric with its unit;
* a deliberately corrupted expected text trips each stage's oracle check;
* a traced run emits spans for every wrapped layer, with non-negative self
  times, and prints every per-layer metric listed in ``BENCHMARK.json``;
* ``layer_map.json`` covers every per-layer metric and names only metrics
  the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import lifecycle  # noqa: E402
import stages  # noqa: E402
from inputs import keystroke_stream, make_suite  # noqa: E402
from tracing import Tracer  # noqa: E402
from ws_live import LiveServer, prepare_rungs, run_rung  # noqa: E402

TINY_SECONDS = 2.0
#: Every span the wrappers record, by the process that records it.
IN_PROCESS_SPANS = {
    "offline-merge": {"core.apply", "core.graph_ingest", "core.integrate", "core.walker"},
    "doc-storage": {
        "core.apply",
        "crdt.convert",
        "storage.encode",
        "storage.compress",
        "storage.decompress",
        "storage.hydrate",
        "storage.text",
    },
    "room-relay": {
        "server.receive_delta",
        "net.receive_batch",
        "server.fanout",
        "server.encode_frame",
        "server.wal.append",
    },
}
SERVER_SPANS = {
    "server.decode_frame",
    "server.receive_delta",
    "net.receive_batch",
    "core.apply",
    "core.walker",
    "server.fanout",
    "server.encode_frame",
    "server.wal.append",
    "server.wire.send",
    "server.wire.recv",
}


def tiny(workload: lifecycle.Workload) -> lifecycle.Workload:
    return dataclasses.replace(workload, chars=400, count=2, live_chars=400)


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_workload_prints_every_metric(work_dir: str) -> None:
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    for name, workload in lifecycle.WORKLOADS.items():
        result = lifecycle.run(
            tiny(workload), seed=3, seconds=TINY_SECONDS, trace=False, work_dir=work_dir, root=ROOT
        )
        assert result.failed == 0, f"{name}: {result.failed} failed operations"
        got = {k: v["unit"] for k, v in result.metrics.items()}
        assert got == declared, f"{name}: metrics {sorted(got)} != {sorted(declared)}"
        for metric, item in result.metrics.items():
            assert item["value"] > 0, f"{name}: {metric} is {item['value']}"
        print(f"ok   {name}: {len(got)} end-to-end metrics with units")


def test_corrupted_oracle_fails(work_dir: str) -> None:
    suite = make_suite("C", 300, 2, seed=5)
    suite[1].expected += "x"
    for stage in (
        stages.MergeStage(suite, lifecycle._noop),
        stages.StorageStage(suite, lifecycle._noop),
        stages.RoomStage(suite, lifecycle._noop, work_dir),
    ):
        stage.round()
        assert stage.failed > 0, f"{type(stage).__name__} accepted a corrupted oracle"
        print(f"ok   {type(stage).__name__} fails on a corrupted expected text")

    streams = [(tuple(h.agents), keystroke_stream(h)) for h in suite[:1]]
    rung = prepare_rungs(streams, [(200.0, 0.5)])[0]
    rung.segments[0].expected += "x"
    server = LiveServer(ROOT, os.path.join(work_dir, "server-data"), None)
    try:
        result = run_rung(server, "corrupt", rung)
    finally:
        server.stop()
    assert result.failed > 0, "the live stage accepted a corrupted oracle"
    print("ok   live stage fails on a corrupted expected text")


def test_layer_map_covers_every_metric() -> None:
    declared = [m["name"] for m in benchmark_json()["per_layer"]]
    assert declared == lifecycle.layer_metric_names(), "BENCHMARK.json per_layer is stale"
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    patterns = [p for layer in layers for p in layer["per_layer"]]
    for name in declared:
        assert any(fnmatch.fnmatchcase(name, p) for p in patterns), f"{name} not in layer_map"
    for pattern in patterns:
        assert any(fnmatch.fnmatchcase(n, pattern) for n in declared), f"{pattern} matches nothing"
    e2e = {m["name"] for m in benchmark_json()["end_to_end"]} | set(declared)
    for layer in layers:
        for metric in list(layer["moves"]) + list(layer["unchanged"]):
            assert metric in e2e, f"layer_map names unknown metric {metric}"
    print(f"ok   layer_map covers all {len(declared)} per-layer metrics")


def test_traced_run_emits_every_layer(work_dir: str) -> None:
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    workload = tiny(lifecycle.WORKLOADS["concurrent"])
    result = lifecycle.run(
        workload, seed=4, seconds=TINY_SECONDS, trace=True, work_dir=work_dir, root=ROOT
    )
    assert result.failed == 0, f"traced run: {result.failed} failed operations"
    assert list(result.metrics) == list(declared), "traced run metrics differ from BENCHMARK.json"
    for metric, item in result.metrics.items():
        unit = declared[metric]
        assert item["unit"] == unit, f"{metric}: unit {item['unit']} != {unit}"
    span_dir = os.path.join(ROOT, ".perfbench")
    expected = dict(IN_PROCESS_SPANS, **{"ws-live": SERVER_SPANS})
    for stage, names in expected.items():
        tracer = Tracer()
        tracer.load(os.path.join(span_dir, f"spans-{workload.shape}-{stage}.jsonl"))
        times = tracer.self_times()
        missing = names - set(times)
        assert not missing, f"{stage}: no spans for {sorted(missing)}"
        for name, (busy, own, calls) in times.items():
            assert busy >= 0 and own >= 0 and calls > 0, f"{stage}: {name} {busy} {own}"
        parents = {span[3] for span in tracer.spans}
        assert parents != {-1}, f"{stage}: no nested spans"
        print(f"ok   {stage}: spans for {len(times)} layers, self times non-negative")


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        test_layer_map_covers_every_metric()
        test_every_workload_prints_every_metric(work_dir)
        test_corrupted_oracle_fails(work_dir)
        test_traced_run_emits_every_layer(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
