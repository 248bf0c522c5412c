"""High-level collaborative document API.

:class:`Document` is the replica object an application embeds: it owns an
:class:`~repro.core.oplog.OpLog` (the durable event graph), the current
document text (a :class:`~repro.rope.Rope`), and uses an
:class:`~repro.core.walker.EgWalker` to merge concurrent changes.

Design points that mirror the paper:

* Local edits and remote events that are *not* concurrent with anything are
  applied directly to the text — the walker and its CRDT state are never
  touched (§3.1), which is why the steady-state memory footprint is just the
  text plus the (on-disk) event graph.
* When concurrent remote events arrive, only the portion of the graph after
  the most recent critical version is replayed (§3.6), and the transformed
  operations are applied to the current text.
* The full event graph is retained, so any historical version can be
  reconstructed (:meth:`Document.text_at`) and traces can be saved to disk
  with :mod:`repro.storage`.
* Because the graph *is* the replicated state, a relay can hold only the
  graph: :meth:`Document.ingest_remote_events` adds events without merging,
  and the first read of the text folds the whole un-merged tail in with one
  merge.

Versions are **id-based** throughout the public API: :meth:`Document.version`
returns a frozen :class:`repro.history.Version` (a frontier of character
ids), which is the stable handle — it survives sender-side run coalescing
extending the frontier run in place, interop splits, storage round trips and
transfer to other replicas.  Local-index tuples still exist internally
(:attr:`Document.local_version`) but silently go stale under in-place run
extension; :meth:`Document.text_at` still accepts one, with a
``DeprecationWarning``.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterable, Sequence

from ..rope import Rope
from .event_graph import Version as LocalVersion
from .ids import EventId, Operation
from .merge_engine import MergeEngine, MergeEngineStats
from .oplog import OpLog, RemoteEvent
from .walker import EgWalker

if TYPE_CHECKING:  # pragma: no cover - resolved lazily to avoid an import cycle
    from ..history import History, Version

__all__ = ["Document"]


class Document:
    """A replica of a collaboratively edited plain-text document.

    Args:
        agent: this replica's globally unique name.
        backend / enable_clearing / enable_span_merging / sort_strategy:
            walker configuration, see :class:`~repro.core.walker.EgWalker`.
        incremental: use the persistent :class:`MergeEngine` (critical cuts
            tracked incrementally, sequential fast path, resident walker
            state between merges).  ``False`` selects the legacy
            rebuild-everything merge — O(history) bookkeeping per merge —
            kept as the ablation baseline.
        coalesce_local_runs: fold local edits that continue the frontier run
            into the existing event (sender-side run coalescing), so a
            keystroke-at-a-time session stores O(runs) events.
    """

    def __init__(
        self,
        agent: str,
        *,
        backend: str = "tree",
        enable_clearing: bool = True,
        enable_span_merging: bool = True,
        sort_strategy: str = "branch_aware",
        incremental: bool = True,
        coalesce_local_runs: bool = True,
    ) -> None:
        self.agent = agent
        self.oplog = OpLog(agent, coalesce_local_runs=coalesce_local_runs)
        self.rope = Rope()
        self._walker_options = {
            "backend": backend,
            "enable_clearing": enable_clearing,
            "enable_span_merging": enable_span_merging,
            "sort_strategy": sort_strategy,
        }
        self.engine = MergeEngine(
            self.oplog, self.rope, self._walker_options, incremental=incremental
        )
        # Imported lazily: repro.history depends on the core modules above.
        from ..history import History

        self.history: History = History(self.oplog, self.engine)
        """Id-based history browsing: version algebra, ``text_at`` / ``diff``
        / ``checkout`` (see :class:`repro.history.History`).  The methods
        below delegate here."""
        #: Local index where the events added by
        #: :meth:`ingest_remote_events` and not yet merged into the rope
        #: start (``None``: the rope is current).  Always a contiguous suffix
        #: of the local order; while it is set the document listens to the
        #: graph, and :meth:`event_split` keeps it exact.
        self._pending_from: int | None = None

    @classmethod
    def from_bytes(cls, data: bytes, agent: str, **options: object) -> "Document":
        """Load a replica from a stored event-graph file (v2 or v3).

        The decoded events are ingested through the normal remote-events
        path, so the resulting replica is immediately editable and mergeable.
        This fully materialises the graph; use
        :class:`repro.storage.LazyDecodedFile` when only the text (or a
        read-only :class:`~repro.history.History`) is needed.
        """
        from ..storage.container import decode_file, graph_to_remote_events

        document = cls(agent, **options)  # type: ignore[arg-type]
        decoded = decode_file(data)
        document.apply_remote_events(graph_to_remote_events(decoded.graph))
        return document

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def text(self) -> str:
        """The current document text (merges any events ingested by
        :meth:`ingest_remote_events` first)."""
        self._catch_up()
        return str(self.rope)

    def __len__(self) -> int:
        self._catch_up()
        return len(self.rope)

    @property
    def pending_events(self) -> int:
        """Run events in the graph that are not merged into the text yet
        (added by :meth:`ingest_remote_events`).  Reading it merges nothing."""
        start = self._pending_from
        return 0 if start is None else len(self.oplog.graph) - start

    def version(self) -> "Version":
        """The current version as a stable, id-based handle.

        The returned :class:`repro.history.Version` can be saved, sent to a
        peer, persisted (``repro.storage.encode_version``) and resolved later
        — it stays exact across further edits, in-place run extension and
        re-carved interop syncs.  O(frontier heads).
        """
        return self.history.version()

    @property
    def local_version(self) -> LocalVersion:
        """The frontier as *local event indices* (internal representation).

        Only meaningful inside this replica and only until the graph mutates:
        in-place run extension makes an index tuple cover more characters,
        interop splits shift indices.  Use :meth:`version` for anything that
        outlives the current call stack.
        """
        return self.oplog.local_version

    # ------------------------------------------------------------------
    # Local editing
    # ------------------------------------------------------------------
    def insert(self, pos: int, content: str) -> None:
        """Insert ``content`` at ``pos`` as a local edit."""
        self._catch_up()
        if pos < 0 or pos > len(self.rope):
            raise IndexError(f"insert position {pos} out of range (length {len(self.rope)})")
        if not content:
            return
        self.oplog.add_insert(pos, content)
        self.rope.insert(pos, content)

    def delete(self, pos: int, length: int = 1) -> str:
        """Delete ``length`` characters starting at ``pos`` as a local edit."""
        if length <= 0:
            return ""
        self._catch_up()
        if pos < 0 or pos + length > len(self.rope):
            raise IndexError(
                f"delete of {length} at {pos} out of range (length {len(self.rope)})"
            )
        self.oplog.add_delete(pos, length)
        return self.rope.delete(pos, length)

    # ------------------------------------------------------------------
    # Merging remote changes
    # ------------------------------------------------------------------
    def merge(self, other: "Document") -> list[Operation]:
        """Merge every event of ``other`` that this replica hasn't seen.

        Returns the transformed operations that were applied to the local
        text (the incremental update of §2.4).
        """
        self._catch_up()
        added = self.oplog.merge_from(other.oplog)
        return self.engine.integrate(added)

    def apply_remote_events(self, events: Iterable[RemoteEvent]) -> list[Operation]:
        """Ingest a batch of events from the network and update the text.

        Eager: the text is current when this returns, and the returned
        operations are exactly the ones this batch applied to it.
        """
        self._catch_up()
        added = self.oplog.ingest_events(events)
        return self.engine.integrate(added)

    def ingest_remote_events(self, events: Iterable[RemoteEvent]) -> None:
        """Add a batch of events from the network to the graph only.

        The relay path: the events become part of the replicated state
        (:meth:`version`, :meth:`events_since`, storage and history see them
        at once) but the text is not touched.  The un-merged events stay a
        contiguous tail of the local order, and the next call that needs the
        text — :attr:`text`, ``len()``, :meth:`insert`, :meth:`delete`,
        :meth:`merge` or :meth:`apply_remote_events` — folds the whole tail
        in with one :meth:`MergeEngine.integrate
        <repro.core.merge_engine.MergeEngine.integrate>` call.  History
        reads (:meth:`text_at`, :meth:`diff`, :meth:`checkout`) replay from
        the graph and never need it.

        Args:
            events: portable events whose parents are already known or
                earlier in the batch (what a causal buffer delivers), in any
                run carving; redelivered spans are ignored.

        Complexity: O(batch) graph ingest and no merge work.  The deferred
        merge costs what one merge of all pending events costs, once, on the
        first text read: k uploads between reads cost one merge, not k.
        """
        if self._pending_from is None:
            # New events are appended, so the tail starts at the current end
            # (splits of merged runs during the ingest shift it up).
            self._pending_from = len(self.oplog.graph)
            self.oplog.graph.add_listener(self)
        self.oplog.ingest_events(events)

    def events_since(
        self, version: "Version | Sequence[EventId]"
    ) -> list[RemoteEvent]:
        """Events a peer at ``version`` is missing (for replication).

        Accepts a :class:`repro.history.Version` handle (the id-based
        currency of the public API) or a raw sequence of :class:`EventId`
        (the wire representation).
        """
        return self.oplog.events_since(version)

    # ------------------------------------------------------------------
    # History (id-based versions; see repro.history)
    # ------------------------------------------------------------------
    def text_at(self, version: "Version | Sequence[int]") -> str:
        """Reconstruct the document text at a historical version.

        ``version`` is a saved :class:`repro.history.Version` handle.  The
        reconstruction resumes the merge engine's walker machinery: browsing
        forward from the last reconstructed version replays only the events
        between the two (from the nearest critical version, §3.6), a cold
        lookup replays ``Events(version)`` once.  The result is exact for
        arbitrary saved handles, no matter how the graph was extended, split
        or re-carved since the handle was taken.

        Passing a tuple of local event indices (the pre-id-based API) still
        works but is deprecated: index snapshots silently go stale when the
        frontier run is extended in place.
        """
        from ..history import Version

        if not isinstance(version, Version):
            warnings.warn(
                "Document.text_at with local-index tuples is deprecated; hold "
                "a Document.version() handle (repro.history.Version) instead "
                "— index snapshots go stale when runs extend in place",
                DeprecationWarning,
                stacklevel=2,
            )
            return self._make_walker().text_at_version(tuple(version))
        return self.history.text_at(version)

    def diff(self, a: "Version", b: "Version") -> list[Operation]:
        """The operations transforming ``text_at(a)`` into ``text_at(b)``.

        Walker-computed in O(window + new events) when ``a`` is an ancestor
        of ``b`` — O(new events) when ``a`` is a critical version — and a
        character-level text diff otherwise.  See
        :meth:`repro.history.History.diff`.
        """
        return self.history.diff(a, b)

    def checkout(self, version: "Version", *, agent: str | None = None) -> "Document":
        """Materialise a historical version as a fresh, editable replica.

        See :meth:`repro.history.History.checkout`.
        """
        return self.history.checkout(version, agent=agent)

    def versions(self) -> list["Version"]:
        """One stable handle per run event, in local order (history browsing).

        The handle for an event covers the document as its author saw it
        right after typing it.  O(events).
        """
        return self.history.versions()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def merge_stats(self) -> MergeEngineStats:
        """Work counters of the merge engine (see :class:`MergeEngineStats`)."""
        return self.engine.stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_walker(self) -> EgWalker:
        return EgWalker(self.oplog.graph, **self._walker_options)

    def _catch_up(self) -> None:
        """Merge the tail left by :meth:`ingest_remote_events` (one
        integrate call; a no-op when the text is current)."""
        start = self._pending_from
        if start is not None:
            self._pending_from = None
            self.oplog.graph.remove_listener(self)
            self.engine.integrate(list(range(start, len(self.oplog.graph))))

    def event_split(self, index: int) -> None:
        """Graph listener hook (registered while a tail is pending): the run
        at ``index`` was split in place.  A split below the pending tail
        shifts the tail up by one; a split inside it keeps it contiguous.
        (Remote ingest never extends a run in place, and local edits catch
        up first, so no other hook is needed.)"""
        if self._pending_from is not None and index < self._pending_from:
            self._pending_from += 1
