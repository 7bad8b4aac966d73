"""Red-black repair cost: no work proportional to a shared node's fan-in.

``NIL`` is a reference, not ``None``, so the §4 leaf-call rule does not
fire and ``is_red_black(NIL)`` / ``check_black_depth(NIL)`` are memo nodes
with one caller edge per tree node that has a ``NIL`` child.  The repair
path must never walk those caller maps: orphan tests are ``not
node.callers``, not a sum over them.  The second test drives a full-size
tree through a long churn and holds the graph to the auditor and to the
scratch verdict along the way.
"""

from __future__ import annotations

import random

from repro import ArgsKey, DittoEngine
from repro.bench.runner import run_with_big_stack
from repro.structures import (
    NIL,
    RedBlackTree,
    check_black_depth,
    is_red_black,
    rbt_invariant,
)

N = 3200


class _CountingCallers(dict):
    """A ``callers`` map that counts every whole-map iteration."""

    iterations = 0

    def values(self):
        type(self).iterations += 1
        return super().values()

    def items(self):
        type(self).iterations += 1
        return super().items()

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def _build(rng: random.Random) -> tuple[RedBlackTree, list[int]]:
    tree = RedBlackTree()
    keys = rng.sample(range(10 * N), N)
    for key in keys:
        tree.insert(key)
    return tree, keys


def _churn(tree: RedBlackTree, keys: list[int], rng: random.Random) -> None:
    """One 50/50 insert-or-delete operation, keeping the size near N."""
    if rng.random() < 0.5 and keys:
        tree.delete(keys.pop(rng.randrange(len(keys))))
    else:
        key = rng.randrange(10 * N)
        while key in tree:
            key = rng.randrange(10 * N)
        tree.insert(key)
        keys.append(key)


def test_shared_nil_callers_are_never_iterated():
    rng = random.Random(12)
    tree, keys = _build(rng)
    engine = DittoEngine(rbt_invariant)
    try:
        assert engine.run(tree) is True
        shared = [
            engine.table.lookup(func, ArgsKey((NIL,)))
            for func in (is_red_black, check_black_depth)
        ]
        for node in shared:
            assert node is not None and len(node.callers) > N // 2
            node.callers = _CountingCallers(node.callers)
        for _ in range(50):
            _churn(tree, keys, rng)
            _CountingCallers.iterations = 0
            verdict = engine.run(tree)
            assert _CountingCallers.iterations == 0
            assert verdict == rbt_invariant.original(tree)
        assert engine.stats.nodes_pruned > 0  # the repair path really ran
    finally:
        engine.close()


def test_large_tree_churn_matches_scratch_and_audits_clean():
    def body() -> None:
        rng = random.Random(7)
        tree, keys = _build(rng)
        engine = DittoEngine(rbt_invariant)
        try:
            assert engine.run(tree) is True
            for op in range(1, 301):
                _churn(tree, keys, rng)
                verdict = engine.run(tree)
                if op % 25 == 0:
                    engine.audit()
                    assert verdict == rbt_invariant.original(tree) is True
                if op == 150:
                    # A recolour breaks the red-black properties; the
                    # incremental verdict must see it, and see it undone.
                    # Not the root: recolouring it shifts every path.
                    victim = tree.root.key
                    while victim == tree.root.key:
                        victim = keys[rng.randrange(len(keys))]
                    assert tree.corrupt_color(victim)
                    assert engine.run(tree) is False
                    assert rbt_invariant.original(tree) is False
                    engine.audit()
                    tree.corrupt_color(victim)
                    assert engine.run(tree) is True
            engine.validate()
        finally:
            engine.close()

    run_with_big_stack(body)
