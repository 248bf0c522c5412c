"""Columnar event-graph file format (paper §3.8): the legacy v2 layout and
the column codecs it shares with the v3 container.

The event graph is stored in column-oriented form, exploiting how people type:
the graph itself is run-length encoded (one event per run of consecutive
insertions or deletions, see :mod:`repro.core.event_graph`), so the file
stores **one row per run** — O(runs), not O(chars) — parents are implicit for
the (overwhelmingly common) case of a linear history, and event ids compress
to runs of ``(agent, first_seq, char_count)`` spanning consecutive events.

Columns (each length-prefixed in the file, after a small header):

``ops``
    One ``(kind, start_position, length)`` row per run event.
``content``
    The UTF-8 concatenation of all inserted characters, in event order
    (optionally restricted to characters that were never deleted — the
    "pruned" mode of Figure 12; see :func:`kept_spans`).
``parents``
    Exceptions to the default "parent = previous event" rule, as
    ``(event_index, parent_count, parent_back_references...)``.
``agents`` / ``ids``
    The agent name table and runs of character ids; one id run can span many
    consecutive events by the same agent (the decoder slices it back into
    per-event start ids using the ops column's lengths).  v2 stores the two
    back to back as one column; v3 stores them as two.
``snapshot`` (optional)
    A cached copy of the final document text so documents can be loaded
    without replaying the graph (§3.8, "Replicas can optionally also store a
    copy of the final document state").

Both formats decode through one :func:`build_graph`, which reconstructs an
:class:`~repro.core.event_graph.EventGraph` (full mode) or the graph
structure with deleted characters blanked out (pruned mode), and rejects
columns that disagree with each other.

Run boundaries are a local encoding detail (split-on-ingest interop), and the
format is carving-neutral by construction: a run split in two costs one extra
``ops`` row but nothing elsewhere — the right half sits directly after the
left half, so it hits the default "parent = previous event" rule and its ids
re-coalesce with the left half's in the ids column.  Decoding reproduces the
writer's carving exactly; merging the decoded graph into a replica that
carved the same history differently is handled by
:meth:`~repro.core.event_graph.EventGraph.merge_from` (pruned files excluded
— their blanked characters no longer content-verify against a full copy).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..core.event_graph import EventGraph
from ..core.ids import EventId, OpKind, delete_op, insert_op
from ..core.records import CrdtRecord
from ..core.walker import EgWalker
from .varint import ByteReader, ByteWriter

__all__ = [
    "EncodeOptions",
    "DecodedFile",
    "build_graph",
    "decode_event_graph",
    "encode_event_graph",
    "kept_spans",
]

_MAGIC = b"EGWK"
#: Version 2: run-length encoded rows (one per run event).  Version 1 stored
#: one row per character and is no longer produced or accepted.
_FORMAT_VERSION = 2

#: Flag 1 (LZ-compressed content) is retired; the reader rejects it.
_FLAG_PRUNED = 2
_FLAG_SNAPSHOT = 4

#: Character substituted for deleted characters when decoding a pruned file.
PRUNED_CHAR = "\x00"


@dataclass(frozen=True, slots=True)
class EncodeOptions:
    """Options controlling the on-disk representation.

    Attributes:
        prune_deleted_content: omit the text of characters that were deleted
            (what Yjs does); the graph structure is kept, so merging still
            works, but old versions can no longer be reconstructed verbatim.
        include_snapshot: store the final document text so loading does not
            require a replay.
        final_text: the final document text (required when
            ``include_snapshot`` is set).
    """

    prune_deleted_content: bool = False
    include_snapshot: bool = False
    final_text: str | None = None


@dataclass(slots=True)
class DecodedFile:
    """Result of :func:`decode_event_graph`."""

    graph: EventGraph
    snapshot: str | None
    pruned: bool


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_event_graph(graph: EventGraph, options: EncodeOptions | None = None) -> bytes:
    """Serialise ``graph`` into the columnar format described above."""
    options = options or EncodeOptions()
    if options.include_snapshot and options.final_text is None:
        raise ValueError("include_snapshot requires final_text")

    agents_col, ids_col = _encode_agent_and_id_columns(graph)
    snapshot_col = b""
    if options.include_snapshot:
        snapshot_col = (options.final_text or "").encode("utf-8")

    flags = 0
    if options.prune_deleted_content:
        flags |= _FLAG_PRUNED
    if options.include_snapshot:
        flags |= _FLAG_SNAPSHOT

    writer = ByteWriter()
    writer.write_bytes(_MAGIC)
    writer.write_uvarint(_FORMAT_VERSION)
    writer.write_uvarint(flags)
    writer.write_uvarint(len(graph))
    for column in (
        _encode_ops_column(graph),
        _encode_content_column(graph, options.prune_deleted_content),
        _encode_parents_column(graph),
        agents_col + ids_col,
        snapshot_col,
    ):
        writer.write_length_prefixed(column)
    return writer.getvalue()


def _encode_ops_column(graph: EventGraph) -> bytes:
    """One (kind, start_pos, length) row per run event — O(runs) rows."""
    writer = ByteWriter()
    for event in graph.events():
        op = event.op
        writer.write_uvarint(int(op.kind))
        writer.write_svarint(op.pos)
        writer.write_uvarint(op.length)
    return writer.getvalue()


def _encode_content_column(graph: EventGraph, pruned: bool) -> bytes:
    """Inserted text in event order; only the kept spans when ``pruned``."""
    parts: list[str] = []
    if not pruned:
        parts.extend(e.op.content for e in graph.events() if e.op.is_insert)
    else:
        for event, spans in zip(graph.events(), kept_spans(graph)):
            content = event.op.content
            parts.extend(content[offset : offset + length] for offset, length in spans)
    return "".join(parts).encode("utf-8")


def kept_spans(graph: EventGraph) -> list[list[tuple[int, int]]]:
    """Per event, the ``(offset, length)`` spans of its inserted characters
    that no event ever deletes (an empty list for deletions).

    One non-clearing walker replay leaves every inserted character in the
    internal state, with ``ever_deleted`` set on the runs some event deleted;
    subtracting those id runs from each insertion's id span costs
    O(runs · log runs), however the history is carved.
    """
    state = EgWalker(graph).transform(clearing=False, emit_only=set()).state
    deleted: dict[str, list[tuple[int, int]]] = {}
    for record in state.iter_records():
        if isinstance(record, CrdtRecord) and record.ever_deleted:
            deleted.setdefault(record.id.agent, []).append(
                (record.id.seq, record.end_seq)
            )
    for runs in deleted.values():
        runs.sort()

    kept: list[list[tuple[int, int]]] = []
    for event in graph.events():
        spans: list[tuple[int, int]] = []
        kept.append(spans)
        if not event.op.is_insert:
            continue
        start = cursor = event.id.seq
        end = start + event.op.length
        runs = deleted.get(event.id.agent, [])
        # Deleted runs are disjoint, so sorted by start they are sorted by end
        # too: begin at the last run starting at or before ``start``.
        i = bisect_right(runs, (start, start))
        if i and runs[i - 1][1] > start:
            i -= 1
        while i < len(runs) and runs[i][0] < end:
            run_start, run_end = runs[i]
            if run_start > cursor:
                spans.append((cursor - start, run_start - cursor))
            cursor = max(cursor, run_end)
            i += 1
        if cursor < end:
            spans.append((cursor - start, end - cursor))
    return kept


def _encode_parents_column(graph: EventGraph) -> bytes:
    writer = ByteWriter()
    exceptions: list[tuple[int, tuple[int, ...]]] = []
    for event in graph.events():
        # Split right-halves (parents = the left half directly before them)
        # land on this default, so ingest-time splits cost no parent bytes.
        default = (event.index - 1,) if event.index > 0 else ()
        if event.parents != default:
            exceptions.append((event.index, event.parents))
    writer.write_uvarint(len(exceptions))
    prev_index = 0
    for index, parents in exceptions:
        writer.write_uvarint(index - prev_index)
        prev_index = index
        writer.write_uvarint(len(parents))
        for parent in parents:
            # Parents are encoded as back-references (always smaller than the
            # event's own index), which keeps the numbers tiny for short-lived
            # branches.
            writer.write_uvarint(index - parent)
    return writer.getvalue()


def _encode_agent_and_id_columns(graph: EventGraph) -> tuple[bytes, bytes]:
    """The agent name table and the ``(agent_index, first_seq, char_count)``
    runs (one run can span many consecutive events by the same agent)."""
    runs: list[tuple[str, int, int]] = []
    for event in graph.events():
        agent, seq = event.id
        length = event.op.length
        if runs and runs[-1][0] == agent and runs[-1][1] + runs[-1][2] == seq:
            runs[-1] = (agent, runs[-1][1], runs[-1][2] + length)
        else:
            runs.append((agent, seq, length))

    agent_index: dict[str, int] = {}
    for agent, _, _ in runs:
        agent_index.setdefault(agent, len(agent_index))

    agents_writer = ByteWriter()
    agents_writer.write_uvarint(len(agent_index))
    for agent in agent_index:
        agents_writer.write_string(agent)

    ids_writer = ByteWriter()
    ids_writer.write_uvarint(len(runs))
    for agent, start_seq, count in runs:
        ids_writer.write_uvarint(agent_index[agent])
        ids_writer.write_uvarint(start_seq)
        ids_writer.write_uvarint(count)
    return agents_writer.getvalue(), ids_writer.getvalue()


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_event_graph(data: bytes) -> DecodedFile:
    """Parse a file produced by :func:`encode_event_graph`."""
    reader = ByteReader(data)
    if reader.read_bytes(4) != _MAGIC:
        raise ValueError("not an Eg-walker event graph file")
    version = reader.read_uvarint()
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    flags = reader.read_uvarint()
    if flags & ~(_FLAG_PRUNED | _FLAG_SNAPSHOT):
        raise ValueError(f"unsupported flags {flags:#x}")
    num_events = reader.read_uvarint()
    ops_col, content_col, parents_col, ids_col, snapshot_col = (
        reader.read_length_prefixed() for _ in range(5)
    )

    pruned = bool(flags & _FLAG_PRUNED)
    ops = _decode_ops_column(ops_col, num_events)
    ids_reader = ByteReader(ids_col)
    ids = _decode_id_runs(ids_reader, _decode_agents(ids_reader), ops)
    graph = build_graph(
        ops,
        _decode_parents_column(parents_col, num_events),
        ids,
        content_col.decode("utf-8"),
        pruned,
    )
    snapshot = snapshot_col.decode("utf-8") if flags & _FLAG_SNAPSHOT else None
    return DecodedFile(graph=graph, snapshot=snapshot, pruned=pruned)


def build_graph(
    ops: list[tuple[OpKind, int, int]],
    parents: list[tuple[int, ...]],
    ids: list[EventId],
    content: str,
    pruned: bool,
) -> EventGraph:
    """Assemble decoded columns into an :class:`EventGraph`.

    A full file's ``content`` is consumed insertion by insertion.  A pruned
    file's holds only the characters no event deletes: the graph is built
    with :data:`PRUNED_CHAR` placeholders, and :func:`kept_spans` then says
    where the surviving characters go.  Either way ``content`` must be used
    up exactly; columns that disagree raise :class:`ValueError`.
    """
    if not pruned:
        needed = sum(length for kind, _, length in ops if kind is OpKind.INSERT)
        if needed != len(content):
            raise ValueError(
                f"content column has {len(content)} chars, insertions need {needed}"
            )
    graph = EventGraph()
    content_pos = 0
    for (kind, pos, length), event_parents, event_id in zip(ops, parents, ids):
        if kind is not OpKind.INSERT:
            op = delete_op(pos, length)
        elif pruned:
            op = insert_op(pos, PRUNED_CHAR * length)
        else:
            op = insert_op(pos, content[content_pos : content_pos + length])
            content_pos += length
        graph.add_event(event_id, event_parents, op, parents_are_indices=True)
    if pruned:
        _fill_pruned_content(graph, content)
    return graph


def _fill_pruned_content(graph: EventGraph, content: str) -> None:
    """Write the surviving characters into the placeholder insertions."""
    per_event = kept_spans(graph)
    needed = sum(length for spans in per_event for _, length in spans)
    if needed != len(content):
        raise ValueError(
            f"pruned content column has {len(content)} chars, "
            f"surviving insertions need {needed}"
        )
    cursor = 0
    for event, spans in zip(graph.events(), per_event):
        if not spans:
            continue
        pieces: list[str] = []
        done = 0
        for offset, length in spans:
            pieces.append(PRUNED_CHAR * (offset - done))
            pieces.append(content[cursor : cursor + length])
            cursor += length
            done = offset + length
        pieces.append(PRUNED_CHAR * (event.op.length - done))
        object.__setattr__(event.op, "content", "".join(pieces))


def _decode_ops_column(data: bytes, num_events: int) -> list[tuple[OpKind, int, int]]:
    reader = ByteReader(data)
    ops: list[tuple[OpKind, int, int]] = []
    for _ in range(num_events):
        kind = OpKind(reader.read_uvarint())
        pos = reader.read_svarint()
        length = reader.read_uvarint()
        ops.append((kind, pos, length))
    return ops


def _decode_parents_column(data: bytes, num_events: int) -> list[tuple[int, ...]]:
    reader = ByteReader(data)
    parents: list[tuple[int, ...]] = [
        (index - 1,) if index > 0 else () for index in range(num_events)
    ]
    exception_count = reader.read_uvarint()
    index = 0
    for _ in range(exception_count):
        index += reader.read_uvarint()
        if index >= num_events:
            raise ValueError("parents column references a missing event")
        count = reader.read_uvarint()
        refs = tuple(sorted(index - reader.read_uvarint() for __ in range(count)))
        parents[index] = refs
    return parents


def _decode_agents(reader: ByteReader) -> list[str]:
    """The agent name table (v3's agents column, the head of v2's ids)."""
    return [reader.read_string() for _ in range(reader.read_uvarint())]


def _decode_id_runs(
    reader: ByteReader, agents: list[str], ops: list[tuple[OpKind, int, int]]
) -> list[EventId]:
    """Slice the id runs back into per-event start ids using event lengths;
    the runs must cover the events exactly and end the column."""
    ids: list[EventId] = []
    for _ in range(reader.read_uvarint()):
        agent_idx = reader.read_uvarint()
        if agent_idx >= len(agents):
            raise ValueError("ids column references an unknown agent")
        agent = agents[agent_idx]
        seq = reader.read_uvarint()
        remaining = reader.read_uvarint()
        while remaining > 0:
            if len(ids) >= len(ops):
                raise ValueError("ids column does not match event count")
            length = ops[len(ids)][2]
            if length > remaining:
                raise ValueError("id run does not align with event boundaries")
            ids.append(EventId(agent, seq))
            seq += length
            remaining -= length
    if len(ids) != len(ops) or not reader.at_end():
        raise ValueError("ids column does not match event count")
    return ids
