"""GraphAuditor: a clean graph passes; every corruption class is caught.

The auditor is the resilience layer's first line of defence: it re-derives
the computation graph's representation invariants (memo keys, reverse map,
edges, order records, reference counts, propagation post-conditions) and
reports violations instead of asserting.  These tests corrupt each
dimension deliberately and assert the matching rule fires — detection is
proved, not assumed.

Run with ``--engine-mode=naive`` to exercise the same matrix under the
Figure 6 naive incrementalizer (CI does both).
"""

from __future__ import annotations

import pytest

from repro import ArgsKey, GraphAuditError, TrackedObject, check
from repro.core.locations import FieldLocation
from repro.resilience import GraphAuditor

pytestmark = pytest.mark.resilience


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def aud_ordered(e):
    if e is None or e.next is None:
        return True
    if e.value > e.next.value:
        return False
    return aud_ordered(e.next)


def build(*values):
    head = None
    for v in reversed(values):
        head = Elem(v, head)
    return head


@pytest.fixture
def warm_engine(engine_factory, engine_mode):
    """An engine with a five-node graph that has been run incrementally."""
    engine = engine_factory(aud_ordered, mode=engine_mode)
    head = build(1, 2, 3, 4, 5, 6)
    assert engine.run(head) is True
    head.next.value = 2  # benign mutation: exercises the repair machinery
    assert engine.run(head) is True
    return engine, head


class TestCleanGraph:
    def test_clean_graph_audits_ok(self, warm_engine):
        engine, _ = warm_engine
        report = engine.audit()
        assert report.ok
        assert report.nodes_audited == engine.graph_size
        assert set(report.rules_run) == {
            "table-keys",
            "reverse-map",
            "edges",
            "node-state",
            "order",
            "scheduling",
            "refcounts",
        }

    def test_empty_graph_audits_ok(self, engine_factory, engine_mode):
        engine = engine_factory(aud_ordered, mode=engine_mode)
        report = engine.audit()
        assert report.ok
        assert report.nodes_audited == 0

    def test_audit_counted_in_stats(self, warm_engine):
        engine, _ = warm_engine
        engine.audit()
        engine.audit()
        assert engine.stats.audits == 2
        assert engine.stats.audit_failures == 0

    def test_audit_ok_after_every_soak_step(self, engine_factory,
                                            engine_mode):
        """The audit must never false-positive across a realistic mutation
        sequence (inserts, updates, deletions, retargets)."""
        engine = engine_factory(aud_ordered, mode=engine_mode)
        head = build(1, 3, 5, 7, 9)
        assert engine.run(head) is True
        mutations = [
            lambda: setattr(head.next, "value", 4),
            lambda: setattr(head, "next", Elem(2, head.next)),
            lambda: setattr(head.next, "next", head.next.next.next),
            lambda: setattr(head, "value", 0),
            lambda: setattr(head.next.next, "value", 100),
        ]
        for mutate in mutations:
            mutate()
            engine.run(head)
            assert engine.audit().ok


def _a_node_with_implicits(engine):
    for node in engine.table:
        if node.implicits:
            return node
    raise AssertionError("no node with implicit arguments")


class TestCorruptionDetection:
    """Each deliberately corrupted invariant produces a finding under the
    matching rule (and ``engine.audit()`` raises by default)."""

    def test_table_key_mismatch(self, warm_engine):
        engine, _ = warm_engine
        node = next(iter(engine.table))
        engine.table._entries[(node.func.uid, ArgsKey(("bogus",)))] = node
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("table-keys")

    def test_reverse_map_missing_entry(self, warm_engine):
        engine, _ = warm_engine
        node = _a_node_with_implicits(engine)
        location = next(iter(node.implicits))
        engine.table._reverse[location].discard(node)
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("reverse-map")

    def test_reverse_map_phantom_dependent(self, warm_engine):
        engine, _ = warm_engine
        node = _a_node_with_implicits(engine)
        location = next(iter(node.implicits))
        other = next(n for n in engine.table if location not in n.implicits)
        engine.table._reverse[location].add(other)
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("reverse-map")

    def test_edge_multiplicity_mismatch(self, warm_engine):
        engine, _ = warm_engine
        node = next(n for n in engine.table if n.calls)
        node.calls.append(node.calls[0])  # phantom call edge
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("edges")

    def test_zero_count_caller_entry(self, warm_engine):
        # A kept zero count would hide an orphan from the O(1) test.
        engine, _ = warm_engine
        nodes = list(engine.table)
        node = next(n for n in nodes if n is not engine._root)
        stranger = next(
            n for n in nodes if n is not node and n not in node.callers
        )
        node.callers[stranger] = 0
        report = engine.audit(raise_on_failure=False)
        assert any(
            "count 0" in f.message for f in report.by_rule("edges")
        )

    def test_dirty_node_left_behind(self, warm_engine):
        engine, _ = warm_engine
        next(iter(engine.table)).dirty = True
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("node-state")

    def test_dead_order_record(self, warm_engine):
        engine, _ = warm_engine
        node = next(iter(engine.table))
        engine.order.delete(node.order_rec)
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("order")

    def test_stale_caller_ticks(self, warm_engine):
        engine, _ = warm_engine
        node = next(
            n
            for n in engine.table
            if any(c is not engine._anchor for c in n.callers)
        )
        node.value_tick = 10**9  # "value changed after every caller ran"
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("scheduling")

    def test_undercounted_refcount(self, warm_engine):
        engine, _ = warm_engine
        node = _a_node_with_implicits(engine)
        container = next(iter(node.implicits)).container
        container._ditto_refcount = 0
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("refcounts")

    def test_non_interned_implicit(self, warm_engine):
        # An equal but non-interned location in a node's implicits would
        # be released without touching the count the barrier reads.
        engine, _ = warm_engine
        node = _a_node_with_implicits(engine)
        location = next(iter(node.implicits))
        node.implicits.discard(location)
        node.implicits.add(FieldLocation(location.container, location.field))
        report = engine.audit(raise_on_failure=False)
        assert any(
            "interned" in f.message for f in report.by_rule("refcounts")
        )

    def test_audit_raises_by_default(self, warm_engine):
        engine, _ = warm_engine
        next(iter(engine.table)).dirty = True
        with pytest.raises(GraphAuditError) as exc_info:
            engine.audit()
        assert exc_info.value.report.by_rule("node-state")
        assert engine.stats.audit_failures == 1

    def test_findings_capped_per_rule(self, engine_factory, engine_mode):
        engine = engine_factory(aud_ordered, mode=engine_mode)
        head = build(*range(100))
        engine.run(head)
        for node in engine.table:
            node.dirty = True
        report = engine.audit(raise_on_failure=False)
        per_rule = report.by_rule("node-state")
        assert len(per_rule) <= GraphAuditor.MAX_FINDINGS_PER_RULE + 1
        assert "truncated" in str(per_rule[-1])


class TestParanoiaMode:
    def test_paranoia_audits_every_nth_run(self, engine_factory,
                                           engine_mode):
        engine = engine_factory(aud_ordered, mode=engine_mode, paranoia=2)
        head = build(1, 2, 3)
        for i in range(6):
            head.value = -i  # stays ordered
            engine.run(head)
        assert engine.stats.audits == 3
        assert engine.stats.verify_checks == 3
        assert engine.stats.audit_failures == 0
        assert engine.stats.verify_mismatches == 0

    def test_paranoia_disabled_by_default(self, warm_engine):
        engine, _ = warm_engine
        assert engine.stats.audits == 0
        assert engine.stats.verify_checks == 0

    def test_paranoia_rejects_negative(self, engine_factory):
        with pytest.raises(ValueError):
            engine_factory(aud_ordered, paranoia=-1)

    def test_paranoia_raises_without_policy(self, engine_factory,
                                            engine_mode):
        """Paranoia without a DegradationPolicy escalates instead of
        degrading: a corrupted graph raises GraphAuditError."""
        engine = engine_factory(aud_ordered, mode=engine_mode, paranoia=1)
        head = build(1, 2, 3)
        engine.run(head)
        # Corrupt the deepest node's value tick: neither mode re-executes
        # it for a head-value mutation, so the corruption survives the run
        # and the post-run audit must catch it.
        deepest = max(engine.table, key=lambda n: n.depth)
        deepest.value_tick = 10**9
        head.value = 0
        with pytest.raises(GraphAuditError):
            engine.run(head)
