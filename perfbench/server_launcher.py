"""Start ``repro.server`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/server_launcher.py SPANS_FILE [server args...]``

The wrappers are installed before the server's own entry point runs, so the
server code itself is unchanged.  On SIGTERM the recorded spans are written
to ``SPANS_FILE`` and the server is stopped.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.server import __main__ as server_main  # noqa: E402
from repro.server import protocol  # noqa: E402
from tracing import SERVER_LAYERS, Tracer, install_layer_wrappers  # noqa: E402


def main() -> None:
    spans_path = sys.argv[1]
    sys.argv = [sys.argv[0]] + sys.argv[2:]
    tracer = Tracer()
    decode = protocol.decode_frame

    def tagged_decode(text: str | bytes) -> dict:
        # Spans caused by one upload share its first event id as operation id.
        frame = decode(text)
        events = frame.get("events")
        if events:
            tracer.op_id = f"{events[0].id.agent}:{events[0].id.seq}"
        return frame

    for module in (protocol, sys.modules["repro.server.app"]):
        setattr(module, "decode_frame", tagged_decode)
    install_layer_wrappers(tracer, SERVER_LAYERS)

    def stop(signum: int, frame: object) -> None:
        # Spans end with the load: the rooms' compaction at shutdown is not
        # part of what the benchmark measures.
        tracer.dump(spans_path)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    server_main.main()


if __name__ == "__main__":
    main()
