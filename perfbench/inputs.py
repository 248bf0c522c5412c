"""Seeded benchmark inputs and their per-character oracle.

Histories are built by calling the trace generators directly with seeds
derived from the benchmark's ``--seed``, in the S/C/A shapes of
``repro.traces.datasets`` (S3: two authors taking turns; C2: two authors
typing at once, 18-event exchanges; A2: six live branches, many authors).
Generation goes through ``Document.merge``, so it is part of set-up time.

The oracle is the reference path the repository's tests use:
``expand_to_chars`` followed by a fresh ``EgWalker`` replay of the
per-character graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.event_graph import EventGraph, expand_to_chars
from repro.core.oplog import RemoteEvent, recarve_events
from repro.core.walker import EgWalker
from repro.server.wal import graph_to_remote_events
from repro.traces.generator import generate_async, generate_concurrent, generate_sequential

__all__ = ["History", "make_history", "make_suite", "oracle_text", "keystroke_stream"]

#: ``A-live`` is the A shape with two alternating branch authors, so that a
#: live replay needs one connection per agent (maintainer, dev0, dev1).
SHAPES = ("S", "C", "A", "A-live")


@dataclass
class History:
    """One generated history: its graph, portable events and oracle text."""

    shape: str
    graph: EventGraph
    events: list[RemoteEvent]
    expected: str

    @property
    def chars(self) -> int:
        return self.graph.num_chars

    @property
    def agents(self) -> list[str]:
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.id.agent, None)
        return list(seen)


def _graph(shape: str, chars: int, seed: int) -> EventGraph:
    if shape == "S":
        trace = generate_sequential("S", target_events=chars, authors=2, seed=seed)
    elif shape == "C":
        trace = generate_concurrent("C", target_events=chars, seed=seed, events_per_exchange=18)
    elif shape == "A":
        trace = generate_async(
            "A",
            target_events=chars,
            seed=seed,
            concurrent_branches=6,
            events_per_branch=max(120, chars // 16),
            authors=48,
        )
    elif shape == "A-live":
        trace = generate_async(
            "A-live",
            target_events=chars,
            seed=seed,
            concurrent_branches=2,
            events_per_branch=max(120, chars // 12),
            authors=2,
        )
    else:
        raise ValueError(f"unknown history shape {shape!r}")
    return trace.graph


def oracle_text(graph: EventGraph) -> str:
    """The document text by per-character reference replay."""
    return EgWalker(expand_to_chars(graph)).replay_text()


def make_history(shape: str, chars: int, seed: int) -> History:
    """Generate one history of roughly ``chars`` character events."""
    graph = _graph(shape, chars, seed)
    return History(shape, graph, graph_to_remote_events(graph), oracle_text(graph))


def make_suite(shape: str, chars: int, count: int, seed: int) -> list[History]:
    """``count`` independent histories of one shape, seeded from ``seed``.

    Several smaller histories instead of one large one: figures averaged over
    independent histories depend less on the quirks of one seed, and the
    concurrent generator grows superlinearly with history length.
    """
    salt = SHAPES.index(shape) + 1
    return [make_history(shape, chars, (seed * 10 + salt) * 100 + i) for i in range(count)]


def keystroke_stream(history: History) -> list[RemoteEvent]:
    """The history re-carved into one event per character, in causal order:
    what a live editor uploads as each key is pressed."""
    return recarve_events(history.events, splits=lambda e: range(1, e.op.length))
