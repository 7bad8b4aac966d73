"""engine.validate() must actually detect broken graphs — corrupt the
bookkeeping deliberately and expect assertions."""

from __future__ import annotations

import pytest

from repro import TrackedObject, check


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def chain_len(e):
    if e is None:
        return 0
    return 1 + chain_len(e.next)


def _engine_with_chain(engine_factory, n=4):
    engine = engine_factory(chain_len)
    head = None
    for _ in range(n):
        head = Elem(0, head)
    assert engine.run(head) == n
    return engine


class TestValidateDetects:
    def test_clean_graph_passes(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        engine.validate()

    def test_dirty_leftover(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        next(iter(engine.table)).dirty = True
        with pytest.raises(AssertionError, match="dirty"):
            engine.validate()

    def test_failed_leftover(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        next(iter(engine.table)).failed = True
        with pytest.raises(AssertionError, match="failed"):
            engine.validate()

    def test_missing_reverse_map_entry(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        node = next(n for n in engine.table if n.implicits)
        location = next(iter(node.implicits))
        engine.table._reverse[location].discard(node)
        with pytest.raises(AssertionError, match="reverse map"):
            engine.validate()

    def test_edge_multiplicity_mismatch(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        node = next(n for n in engine.table if n.calls)
        child = node.calls[0]
        child.callers[node] += 1
        with pytest.raises(AssertionError, match="multiplicity"):
            engine.validate()

    def test_unreachable_node(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        node = next(
            n for n in engine.table
            if n is not engine._root and n.callers
        )
        node.callers.clear()
        with pytest.raises(AssertionError, match="unreachable|multiplicity"):
            engine.validate()

    def test_lost_order_record(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        node = next(iter(engine.table))
        engine.order.delete(node.order_rec)
        with pytest.raises(AssertionError, match="order record"):
            engine.validate()

    def test_unanchored_root(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        engine._root.callers.pop(engine._anchor)
        with pytest.raises(AssertionError, match="anchored"):
            engine.validate()
