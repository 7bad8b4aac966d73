"""The memoization table and its reverse (location → nodes) map.

Paper §3.1: "DITTO stores the graph in memory in the form of a table …
indexed by a pair (f, explicit args)"; "In addition … a reverse map, from
heap locations (implicit arguments) to table entries, is created."

The table also centralizes the reference-count maintenance on tracked
containers (paper §4): a container's count equals the number of live
implicit-argument entries, across all nodes in this table, whose location
names the container.  Write barriers consult the count to skip logging
writes no invariant check depends on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from .argkeys import ArgsKey
from .locations import IndexLocation, Location, RangeLocation
from .node import ComputationNode
from .tracked import (
    TrackedArray,
    TrackedObject,
    TrackingState,
    adopt_container,
)


def _merge_intervals(
    intervals: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Coalesce half-open ``(start, stop)`` intervals into a minimal
    disjoint cover.  Shift-heavy workloads log many overlapping ranges per
    drain (``insert(0)`` at every length produces a new ``(0, n+1)``);
    merging first makes the expansion cost proportional to the covered
    span, not to span × pending ranges."""
    intervals.sort()
    merged: list[tuple[int, int]] = []
    for start, stop in intervals:
        if merged and start <= merged[-1][1]:
            last_start, last_stop = merged[-1]
            if stop > last_stop:
                merged[-1] = (last_start, stop)
        else:
            merged.append((start, stop))
    return merged

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..instrument.registry import CheckFunction


class MemoTable:
    """Computation graph storage for one engine.

    ``tracking`` is the engine's isolation domain: every container this
    table takes an implicit-argument reference into is adopted by that
    domain first (its barriers then log to the domain's write log).  A
    bare ``MemoTable()`` performs no adoption — containers keep logging to
    the process-default state, the pre-isolation behaviour unit tests rely
    on."""

    def __init__(self, tracking: Optional[TrackingState] = None) -> None:
        self._entries: dict[tuple[int, ArgsKey], ComputationNode] = {}
        self._reverse: dict[Location, set[ComputationNode]] = {}
        self.tracking = tracking

    # Entry lookup. ----------------------------------------------------------

    def lookup(
        self, func: "CheckFunction", key: ArgsKey
    ) -> Optional[ComputationNode]:
        return self._entries.get((func.uid, key))

    def get_or_create(
        self, func: "CheckFunction", key: ArgsKey
    ) -> tuple[ComputationNode, bool]:
        """Return ``(node, created)`` for invocation ``func(key.args)``."""
        table_key = (func.uid, key)
        node = self._entries.get(table_key)
        if node is not None:
            return node, False
        node = ComputationNode(func, key)
        self._entries[table_key] = node
        return node, True

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ComputationNode]:
        return iter(self._entries.values())

    # Implicit arguments and the reverse map. --------------------------------

    def record_implicit(self, node: ComputationNode, location: Location) -> None:
        """Add ``location`` to ``node``'s implicit arguments, updating the
        reverse map and the container's reference count."""
        if location in node.implicits:
            return
        container = location.container
        if self.tracking is not None:
            # First reference into the container binds its barriers to this
            # engine's isolation domain (raises TenantIsolationError on a
            # live cross-domain share).  Must happen before ANY bookkeeping:
            # a location recorded in node.implicits without its matching
            # incref would be decref'd by clear_implicits on the aborted
            # run, silently draining the rightful owner's reference counts
            # (and with them its barrier filters) one failed attempt at a
            # time — until a retry found refcount 0 and adopted the
            # structure out from under its owner.
            adopt_container(container, self.tracking)
        tracked = isinstance(container, (TrackedObject, TrackedArray))
        if tracked:
            # Store the container's interned instance, never an equal copy:
            # clear_implicits releases the very object it finds here, and
            # the barrier reads the count of the interned one.
            location = container._ditto_location(location.coordinate)
        node.implicits.add(location)
        dependents = self._reverse.get(location)
        if dependents is None:
            dependents = set()
            self._reverse[location] = dependents
        dependents.add(node)
        # Location-attributed incref.  The shipped tracked types get a
        # direct (monomorphic) call — ``location`` is the interned instance,
        # so canonicalization inside ``_ditto_incref_loc`` is a dict no-op;
        # duck-typed getattr dispatch remains only for custom tracked
        # containers.
        if tracked:
            container._ditto_incref_loc(location)
        else:
            incref_loc = getattr(container, "_ditto_incref_loc", None)
            if incref_loc is not None:
                incref_loc(location)
            else:
                incref = getattr(container, "_ditto_incref", None)
                if incref is not None:
                    incref()

    def clear_implicits(self, node: ComputationNode) -> None:
        """Drop all of ``node``'s implicit arguments (before re-execution or
        when pruning), releasing reverse-map entries and reference counts.

        For the shipped tracked types the release is ``_ditto_decref_loc``
        inlined, mirroring the specialized tier's inlined incref: every
        entry is the container's interned location (``record_implicit``
        and the specialized readers store nothing else), so the counts are
        decremented in place with no canonicalizing lookup."""
        reverse = self._reverse
        for location in node.implicits:
            dependents = reverse.get(location)
            if dependents is not None:
                dependents.discard(node)
                if not dependents:
                    del reverse[location]
            container = location.container
            if isinstance(container, TrackedObject):
                location.refcount -= 1
                fields = container.__dict__
                fields["_ditto_locrefs"] = container._ditto_locrefs - 1
                fields["_ditto_refcount"] = container._ditto_refcount - 1
            elif isinstance(container, TrackedArray):
                location.refcount -= 1
                container._ditto_locrefs -= 1
                container._ditto_refcount -= 1
            else:
                decref_loc = getattr(container, "_ditto_decref_loc", None)
                if decref_loc is not None:
                    decref_loc(location)
                else:
                    decref = getattr(container, "_ditto_decref", None)
                    if decref is not None:
                        decref()
        node.implicits.clear()

    def nodes_reading(self, location: Location) -> set[ComputationNode]:
        """Nodes whose implicit arguments include ``location``."""
        return self._reverse.get(location, set())

    def map_locations_to_nodes(
        self, locations: Iterable[Location]
    ) -> set[ComputationNode]:
        """``map_locs_to_memo_table_entries`` from Figure 7.

        Point locations probe the reverse map directly.  Coalesced
        :class:`RangeLocation` entries are expanded here — implicit
        arguments always name individual slots, so a range can never hit
        the reverse map as-is.  Ranges are first merged per container,
        then each merged interval is expanded by whichever side is
        smaller: probing one interned slot location per covered index, or
        scanning the reverse map once when the span exceeds its size."""
        dirty: set[ComputationNode] = set()
        ranges: dict[int, tuple[Any, list[tuple[int, int]]]] = {}
        for loc in locations:
            if type(loc) is RangeLocation:
                if loc.stop > loc.start:
                    entry = ranges.setdefault(id(loc.container),
                                              (loc.container, []))
                    entry[1].append((loc.start, loc.stop))
                continue
            dependents = self._reverse.get(loc)
            if dependents:
                dirty.update(dependents)
        for container, intervals in ranges.values():
            for start, stop in _merge_intervals(intervals):
                if stop - start <= len(self._reverse):
                    cache = getattr(container, "_ditto_loc_cache", None)
                    for index in range(start, stop):
                        probe = None if cache is None else cache.get(index)
                        if probe is None:
                            probe = IndexLocation(container, index)
                        dependents = self._reverse.get(probe)
                        if dependents:
                            dirty.update(dependents)
                else:
                    for key, dependents in self._reverse.items():
                        if (
                            type(key) is IndexLocation
                            and key.container is container
                            and start <= key.index < stop
                        ):
                            dirty.update(dependents)
        return dirty

    # Call edges. -------------------------------------------------------------

    def add_edge(self, caller: ComputationNode, callee: ComputationNode) -> None:
        """Record one ``caller -> callee`` call occurrence."""
        caller.calls.append(callee)
        callee.callers[caller] = callee.callers.get(caller, 0) + 1
        new_depth = caller.depth + 1
        if callee.depth == 0 or new_depth < callee.depth:
            callee.depth = new_depth

    def remove_edge(self, caller: ComputationNode, callee: ComputationNode) -> None:
        """Remove one ``caller -> callee`` call occurrence (the caller's
        ``calls`` list is managed by the engine).  A caller whose count
        reaches zero is popped, so ``callers`` never holds a zero count and
        ``not callee.callers`` is an O(1) orphan test."""
        count = callee.callers.get(caller, 0)
        if count <= 1:
            callee.callers.pop(caller, None)
        else:
            callee.callers[caller] = count - 1

    def remove_calls(
        self, caller: ComputationNode, calls: list[ComputationNode]
    ) -> list[ComputationNode]:
        """Remove one ``caller -> callee`` edge per entry of ``calls`` (the
        caller's superseded call list) and return, in call order, the
        callees this left without any caller.  One pass, O(len(calls)):
        no callee's fan-in is ever summed."""
        orphans: list[ComputationNode] = []
        for callee in calls:
            callers = callee.callers
            count = callers.get(caller, 0)
            if count > 1:
                callers[caller] = count - 1
            elif count:
                del callers[caller]
                if not callers:
                    orphans.append(callee)
        return orphans

    # Pruning (Figure 7's ``prune``). ------------------------------------------

    def prune(self, node: ComputationNode) -> list[ComputationNode]:
        """Remove ``node`` and, transitively, any callee left without
        callers.  Returns the list of removed nodes (for stats and for the
        engine to release order-maintenance records).

        A node that is currently executing is never removed, even at zero
        callers: after a rotation-style reshape, a pruning cascade can
        reach an *ancestor of the current execution* through stale edges.
        Such nodes finish their execution and the engine prunes them then
        if they are still unreachable."""
        removed: list[ComputationNode] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.in_progress:
                continue  # deferred: the engine re-checks after its exec
            table_key = (current.func.uid, current.key)
            if self._entries.get(table_key) is not current:
                continue  # already pruned
            del self._entries[table_key]
            self.clear_implicits(current)
            removed.append(current)
            stack.extend(self.remove_calls(current, current.calls))
            current.calls.clear()
            current.callers.clear()
        return removed

    def contains(self, node: ComputationNode) -> bool:
        return self._entries.get((node.func.uid, node.key)) is node

    def clear(self) -> list[ComputationNode]:
        """Drop the whole graph (step-limit fallback / engine reset),
        releasing all reference counts.  Returns the removed nodes."""
        removed = list(self._entries.values())
        for node in removed:
            self.clear_implicits(node)
            node.calls.clear()
            node.callers.clear()
        self._entries.clear()
        self._reverse.clear()
        return removed

    # Introspection used by tests and the graph auditor. -----------------------

    def entries(self) -> Iterator[tuple[tuple[int, ArgsKey], ComputationNode]]:
        """Iterate ``((uid, key), node)`` pairs — the raw table rows.  The
        auditor uses this to confirm each row's key matches the identity of
        the node stored under it."""
        return iter(self._entries.items())

    def reverse_items(self) -> Iterator[tuple[Location, set[ComputationNode]]]:
        """Iterate ``(location, dependent nodes)`` pairs of the reverse map.
        The auditor cross-checks these against each node's ``implicits``."""
        return iter(self._reverse.items())


    def snapshot(self) -> dict[tuple[str, tuple], object]:
        """Map ``(function name, explicit args)`` to return values, for
        graph-isomorphism assertions in the test suite."""
        return {
            (node.func.name, node.explicit_args): node.return_val
            for node in self._entries.values()
        }

    def reverse_map_size(self) -> int:
        return len(self._reverse)
