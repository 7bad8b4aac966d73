"""Computation-graph nodes (the memo-table entries of paper §3.1).

A :class:`ComputationNode` is one row of the paper's table::

    f | explicit args | implicit args | calls | return val | dirty

plus the bookkeeping the full algorithm (Figure 7) needs:

* ``callers`` — reverse edges with multiplicities (``get_callers`` in the
  pseudo-code); a node with no callers is unreachable and gets pruned.
  ``MemoTable.remove_edge`` pops a caller whose count reaches zero, so the
  map never holds a zero count and ``not node.callers`` is the O(1)
  orphan test — independent of how many callers a shared node has.
* ``depth`` — distance from the root, maintained as a minimum over caller
  depths; drives the breadth-first scheduling of dirty re-executions and
  the reverse-BFS ordering of return-value propagation.
* ``order_rec`` — a record in the engine's order-maintenance list
  (Bender et al.), stamping nodes in execution order to break depth ties
  deterministically.
* ``in_progress`` — cycle detection for re-entrant invocations.
* ``failed`` — set when an incremental re-execution raised, presumably from
  a stale optimistically-reused value (§3.5); such nodes are retried after
  return-value propagation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .argkeys import ArgsKey
from .locations import Location
from .order_maintenance import Record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..instrument.registry import CheckFunction


class ComputationNode:
    """One dynamic invocation ``f(explicit_args)`` of a check function."""

    # Slot order is tuned for the hot loops, hottest first: the memo probe
    # and propagate loop test ``dirty``/``has_result`` and read
    # ``return_val``/``depth``/``callers``/``calls`` on every visit, while
    # ``func``/``key``/ticks are touched once per (re)execution.  CPython
    # lays slots out in declaration order, so the early ones share the
    # object head's cache lines.
    __slots__ = (
        "dirty",
        "has_result",
        "return_val",
        "depth",
        "callers",
        "calls",
        "implicits",
        "in_progress",
        "failed",
        "order_rec",
        "func",
        "key",
        "last_exec_tick",
        "value_tick",
    )

    def __init__(self, func: "CheckFunction", key: ArgsKey):
        self.func = func
        self.key = key
        #: Heap locations read by this invocation's own frame.
        self.implicits: set[Location] = set()
        #: Child invocations, in call order (may repeat).
        self.calls: list[ComputationNode] = []
        #: Caller node -> number of call edges from it to this node.
        self.callers: dict[ComputationNode, int] = {}
        self.return_val: Any = None
        self.has_result = False
        self.dirty = False
        self.failed = False
        self.in_progress = False
        self.depth = 0
        self.order_rec: Optional[Record] = None
        #: Engine tick of the most recent (successful) execution, and of the
        #: most recent execution that changed the return value.  Used during
        #: return-value propagation to skip callers that already re-executed
        #: after the change.
        self.last_exec_tick = -1
        self.value_tick = -1

    @property
    def explicit_args(self) -> tuple:
        return self.key.args

    def sort_token(self) -> tuple[int, int]:
        """Key for BFS scheduling: primary = depth, tie-break = execution
        order (order-maintenance label)."""
        label = self.order_rec.label if self.order_rec is not None else 0
        return (self.depth, label)

    def __repr__(self) -> str:
        status = []
        if self.dirty:
            status.append("dirty")
        if self.failed:
            status.append("failed")
        if self.in_progress:
            status.append("running")
        flags = f" [{','.join(status)}]" if status else ""
        val = f" -> {self.return_val!r}" if self.has_result else ""
        return f"<{self.func.name}{self.explicit_args!r}{val}{flags}>"
