"""MemoTable: entry lookup, reverse map, refcounts, edges, pruning."""

from __future__ import annotations

from repro import ArgsKey, TrackedArray, TrackedObject, check, tracking_state
from repro.core import MemoTable
from repro.core.locations import (
    FieldLocation,
    IndexLocation,
    LengthLocation,
    RangeLocation,
)
from repro.core.memo_table import _merge_intervals


class Node(TrackedObject):
    def __init__(self, value=0):
        self.value = value


@check
def some_check(n):
    return True


@check
def other_check(n):
    return True


def _node(table, func, *args):
    node, _ = table.get_or_create(func, ArgsKey(args))
    return node


class TestLookup:
    def test_get_or_create_roundtrip(self):
        table = MemoTable()
        n = Node()
        node, created = table.get_or_create(some_check, ArgsKey((n,)))
        assert created
        again, created2 = table.get_or_create(some_check, ArgsKey((n,)))
        assert again is node and not created2
        assert table.lookup(some_check, ArgsKey((n,))) is node
        assert len(table) == 1

    def test_functions_disambiguate(self):
        table = MemoTable()
        n = Node()
        a = _node(table, some_check, n)
        b = _node(table, other_check, n)
        assert a is not b
        assert len(table) == 2

    def test_lookup_missing(self):
        table = MemoTable()
        assert table.lookup(some_check, ArgsKey((1,))) is None


class TestImplicits:
    def test_record_updates_reverse_map_and_refcount(self):
        table = MemoTable()
        heap = Node()
        node = _node(table, some_check, 1)
        loc = FieldLocation(heap, "value")
        table.record_implicit(node, loc)
        assert heap._ditto_refcount == 1
        assert table.nodes_reading(loc) == {node}
        # Recording the same location twice is idempotent.
        table.record_implicit(node, loc)
        assert heap._ditto_refcount == 1

    def test_clear_implicits_releases(self):
        table = MemoTable()
        heap = Node()
        node = _node(table, some_check, 1)
        loc = FieldLocation(heap, "value")
        table.record_implicit(node, loc)
        table.clear_implicits(node)
        assert heap._ditto_refcount == 0
        assert table.nodes_reading(loc) == set()
        assert table.reverse_map_size() == 0

    def test_two_nodes_one_location(self):
        table = MemoTable()
        heap = Node()
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        loc = FieldLocation(heap, "value")
        table.record_implicit(a, loc)
        table.record_implicit(b, loc)
        assert heap._ditto_refcount == 2
        assert table.nodes_reading(loc) == {a, b}
        table.clear_implicits(a)
        assert table.nodes_reading(loc) == {b}
        assert heap._ditto_refcount == 1

    def test_non_interned_location_is_released_exactly(self):
        # clear_implicits releases the entry's own count in place, so
        # record_implicit must store the container's interned location
        # even when handed an equal copy.
        state = tracking_state()
        state.monitor_fields(["value"])
        cid = state.write_log.register()
        table = MemoTable()
        heap = Node()
        interned = heap._ditto_location("value")
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        copy = FieldLocation(heap, "value")
        assert copy == interned and copy is not interned
        table.record_implicit(a, copy)
        table.record_implicit(b, FieldLocation(heap, "value"))
        assert [*a.implicits] == [*b.implicits] == [interned]
        assert next(iter(a.implicits)) is interned
        assert next(iter(b.implicits)) is interned
        assert interned.refcount == 2 and copy.refcount == 0
        assert heap._ditto_locrefs == heap._ditto_refcount == 2
        table.clear_implicits(a)
        assert interned.refcount == 1
        assert heap._ditto_locrefs == heap._ditto_refcount == 1
        heap.value = 5  # b still reads it: the barrier must log
        assert state.write_log.consume(cid) == [interned]
        table.clear_implicits(b)
        assert interned.refcount == 0
        assert heap._ditto_locrefs == heap._ditto_refcount == 0
        heap.value = 6  # nothing reads it any more
        assert state.write_log.consume(cid) == []

    def test_non_interned_array_location_is_released_exactly(self):
        table = MemoTable()
        arr = TrackedArray([1, 2, 3])
        node = _node(table, some_check, 1)
        table.record_implicit(node, IndexLocation(arr, 1))
        table.record_implicit(node, LengthLocation(arr))
        assert all(
            loc is arr._ditto_location(loc.coordinate)
            for loc in node.implicits
        )
        table.clear_implicits(node)
        assert arr._ditto_location(1).refcount == 0
        assert arr._ditto_location("<len>").refcount == 0
        assert arr._ditto_locrefs == arr._ditto_refcount == 0

    def test_map_locations_to_nodes(self):
        table = MemoTable()
        h1, h2 = Node(), Node()
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        l1 = FieldLocation(h1, "value")
        l2 = FieldLocation(h2, "value")
        table.record_implicit(a, l1)
        table.record_implicit(b, l2)
        assert table.map_locations_to_nodes([l1]) == {a}
        assert table.map_locations_to_nodes([l1, l2]) == {a, b}
        assert table.map_locations_to_nodes([FieldLocation(h1, "other")]) == set()


class TestRangeExpansion:
    def _slot_readers(self, table, arr, slots):
        nodes = {}
        for slot in slots:
            node = _node(table, some_check, slot)
            table.record_implicit(node, arr._ditto_location(slot))
            nodes[slot] = node
        return nodes

    def test_range_dirties_covered_slot_readers_only(self):
        table = MemoTable()
        arr = TrackedArray(10)
        readers = self._slot_readers(table, arr, [0, 3, 5, 9])
        dirty = table.map_locations_to_nodes([RangeLocation(arr, 2, 6)])
        assert dirty == {readers[3], readers[5]}

    def test_range_is_container_scoped(self):
        table = MemoTable()
        a, b = TrackedArray(5), TrackedArray(5)
        readers = self._slot_readers(table, a, [1])
        self._slot_readers(table, b, [1])
        dirty = table.map_locations_to_nodes([RangeLocation(a, 0, 5)])
        assert dirty == {readers[1]}

    def test_wide_range_scans_reverse_map(self):
        """A span larger than the reverse map takes the scan path and
        finds the same dependents."""
        table = MemoTable()
        arr = TrackedArray(4)
        readers = self._slot_readers(table, arr, [2])
        dirty = table.map_locations_to_nodes([RangeLocation(arr, 0, 1000)])
        assert dirty == {readers[2]}

    def test_overlapping_ranges_merge_before_expansion(self):
        table = MemoTable()
        arr = TrackedArray(20)
        readers = self._slot_readers(table, arr, [0, 7, 12])
        pending = [
            RangeLocation(arr, 0, 5),
            RangeLocation(arr, 3, 8),
            RangeLocation(arr, 11, 13),
        ]
        dirty = table.map_locations_to_nodes(pending)
        assert dirty == {readers[0], readers[7], readers[12]}

    def test_mixed_points_and_ranges(self):
        table = MemoTable()
        arr = TrackedArray(10)
        h = Node()
        readers = self._slot_readers(table, arr, [1, 8])
        field_reader = _node(table, other_check, 99)
        loc = FieldLocation(h, "value")
        table.record_implicit(field_reader, loc)
        dirty = table.map_locations_to_nodes(
            [loc, RangeLocation(arr, 0, 2)]
        )
        assert dirty == {readers[1], field_reader}

    def test_empty_range_dirties_nothing(self):
        table = MemoTable()
        arr = TrackedArray(5)
        self._slot_readers(table, arr, [0])
        assert table.map_locations_to_nodes([RangeLocation(arr, 3, 3)]) == set()


class TestMergeIntervals:
    def test_merges_overlaps_and_adjacency(self):
        assert _merge_intervals([(5, 8), (0, 3), (2, 4), (8, 9)]) == [
            (0, 4),
            (5, 9),
        ]

    def test_disjoint_kept_sorted(self):
        assert _merge_intervals([(4, 6), (0, 2)]) == [(0, 2), (4, 6)]

    def test_containment(self):
        assert _merge_intervals([(0, 10), (2, 3)]) == [(0, 10)]

    def test_empty(self):
        assert _merge_intervals([]) == []


class TestEdges:
    def test_add_remove_edge_counts(self):
        table = MemoTable()
        parent = _node(table, some_check, 1)
        child = _node(table, some_check, 2)
        table.add_edge(parent, child)
        table.add_edge(parent, child)
        assert child.callers == {parent: 2}
        assert parent.calls == [child, child]
        table.remove_edge(parent, child)
        assert child.callers == {parent: 1}
        table.remove_edge(parent, child)
        assert child.callers == {}
        assert parent not in child.callers

    def test_depth_propagates_min(self):
        table = MemoTable()
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        c = _node(table, some_check, 3)
        a.depth = 1
        table.add_edge(a, b)
        assert b.depth == 2
        b.depth = 5
        table.add_edge(a, c)
        table.add_edge(c, b)  # c at depth 2, so b min-updates to 3
        assert b.depth == 3


class TestPrune:
    def _chain(self, table, length):
        nodes = [_node(table, some_check, i) for i in range(length)]
        for parent, child in zip(nodes, nodes[1:]):
            table.add_edge(parent, child)
        return nodes

    def test_prune_chain(self):
        table = MemoTable()
        heap = Node()
        nodes = self._chain(table, 4)
        table.record_implicit(nodes[-1], FieldLocation(heap, "value"))
        removed = table.prune(nodes[0])
        assert set(removed) == set(nodes)
        assert len(table) == 0
        assert heap._ditto_refcount == 0
        assert table.reverse_map_size() == 0

    def test_prune_stops_at_shared_child(self):
        table = MemoTable()
        nodes = self._chain(table, 3)
        keeper = _node(table, other_check, 0)
        table.add_edge(keeper, nodes[2])
        removed = table.prune(nodes[0])
        assert nodes[2] not in removed
        assert table.contains(nodes[2])
        assert len(table) == 2  # keeper + shared child

    def test_prune_idempotent(self):
        table = MemoTable()
        node = _node(table, some_check, 1)
        table.prune(node)
        assert table.prune(node) == []

    def test_clear_releases_everything(self):
        table = MemoTable()
        heap = Node()
        nodes = self._chain(table, 3)
        table.record_implicit(nodes[1], FieldLocation(heap, "value"))
        removed = table.clear()
        assert set(removed) == set(nodes)
        assert heap._ditto_refcount == 0
        assert len(table) == 0


class TestSnapshot:
    def test_snapshot_maps_names_to_values(self):
        table = MemoTable()
        node = _node(table, some_check, 7)
        node.return_val = True
        snap = table.snapshot()
        assert snap == {("some_check", (7,)): True}
