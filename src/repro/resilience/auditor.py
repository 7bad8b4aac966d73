"""Computation-graph self-auditing.

DITTO's value proposition is trust: the incremental answer must be the
answer a from-scratch run would produce.  That guarantee rests on a set of
representation invariants connecting the memo table, the reverse
location→node map, the call-edge multiset, the order-maintenance list,
and the §4 reference counts.  :class:`GraphAuditor` re-derives each of
those invariants from first principles and reports every violation as an
:class:`AuditFinding` instead of asserting, so a production engine can
degrade gracefully (see :mod:`repro.resilience.degradation`) rather than
die mid-request.

Rules audited (names appear in findings and in ``AuditReport.rules_run``):

``table-keys``
    Every memo-table row ``(uid, key) -> node`` stores a node whose
    ``(func.uid, key)`` identity matches the row's key — a mismatch means
    lookups can return the wrong invocation's cached value.
``reverse-map``
    The location→nodes map and each node's recorded implicit reads are
    mirror images (both inclusions), and no pruned node lingers in either.
``edges``
    ``calls`` lists and ``callers`` multiplicity maps agree edge-for-edge,
    every endpoint is a live table node, no ``callers`` entry has a count
    below one, and every non-root node is reachable (has at least one
    caller).
``node-state``
    Between runs no node is dirty, failed, in-progress, or missing its
    result — a quiescent graph is fully repaired.
``order``
    The order-maintenance list is structurally sound (see
    :meth:`repro.core.order_maintenance.OrderList.audit`), every node owns
    an alive record in it, and the list holds exactly one record per node.
``scheduling``
    For every call edge, the caller (re-)executed *after* the callee's
    return value last changed — the post-condition return-value
    propagation exists to establish.  A violation means some caller is
    holding a stale view of a callee.
``refcounts``
    Each tracked container's §4 reference count covers this engine's
    implicit-argument entries naming it (counts are global across engines,
    so the audit checks a lower bound; an *under*-count means write
    barriers are being skipped for locations the graph depends on).  Every
    implicit entry on a :class:`~repro.core.tracked.TrackedObject` or
    :class:`~repro.core.tracked.TrackedArray` must also be the container's
    interned location: ``MemoTable.clear_implicits`` releases the entry's
    own count in place, which is exact only for the interned instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..core.errors import GraphAuditError
from ..core.tracked import TrackedArray, TrackedObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine


@dataclass(frozen=True)
class AuditFinding:
    """One violated invariant: the rule that failed and what was seen."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


@dataclass
class AuditReport:
    """Outcome of one :class:`GraphAuditor` pass."""

    findings: list[AuditFinding] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)
    nodes_audited: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self, rule: str) -> list[AuditFinding]:
        return [f for f in self.findings if f.rule == rule]

    def raise_if_failed(self) -> None:
        if self.findings:
            raise GraphAuditError(self)

    def __str__(self) -> str:
        if self.ok:
            return (
                f"audit ok: {self.nodes_audited} nodes, "
                f"rules {', '.join(self.rules_run)}"
            )
        lines = "\n  - ".join(str(f) for f in self.findings)
        return f"audit FAILED ({len(self.findings)} findings):\n  - {lines}"


class GraphAuditor:
    """Validates one engine's computation graph; collects, never raises.

    Prefer :meth:`DittoEngine.audit` (which counts the audit in the
    engine's stats and can raise on failure); instantiate directly only
    when you want the raw report machinery.
    """

    #: Findings per rule are capped so a badly corrupted graph produces a
    #: readable report instead of one line per node.
    MAX_FINDINGS_PER_RULE = 20

    def __init__(self, engine: "DittoEngine"):
        self.engine = engine

    def run(self) -> AuditReport:
        report = AuditReport()
        report.nodes_audited = len(self.engine.table)
        for rule, check in (
            ("table-keys", self._audit_table_keys),
            ("reverse-map", self._audit_reverse_map),
            ("edges", self._audit_edges),
            ("node-state", self._audit_node_state),
            ("order", self._audit_order),
            ("scheduling", self._audit_scheduling),
            ("refcounts", self._audit_refcounts),
        ):
            report.rules_run.append(rule)
            count = 0
            for message in check():
                count += 1
                if count > self.MAX_FINDINGS_PER_RULE:
                    message = "... further findings truncated"
                report.findings.append(AuditFinding(rule, message))
                if count > self.MAX_FINDINGS_PER_RULE:
                    break
        return report

    # Individual rules; each yields human-readable violation messages. -------

    def _audit_table_keys(self) -> Iterator[str]:
        for (uid, key), node in self.engine.table.entries():
            if node.func.uid != uid:
                yield (
                    f"row keyed uid={uid} stores node of "
                    f"{node.func.name!r} (uid={node.func.uid})"
                )
            if node.key != key:
                yield (
                    f"row keyed {key.args!r} stores node with explicit "
                    f"args {node.explicit_args!r}"
                )

    def _audit_reverse_map(self) -> Iterator[str]:
        table = self.engine.table
        for location, dependents in table.reverse_items():
            for node in dependents:
                if not table.contains(node):
                    yield f"reverse map {location} lists pruned node {node}"
                elif location not in node.implicits:
                    yield (
                        f"reverse map lists {location} -> {node} but the "
                        f"node does not record that implicit read"
                    )
        for node in table:
            for location in node.implicits:
                if node not in table.nodes_reading(location):
                    yield f"reverse map missing {location} -> {node}"

    def _audit_edges(self) -> Iterator[str]:
        table = self.engine.table
        anchor = self.engine._anchor
        root = self.engine._root
        if root is not None:
            if not table.contains(root):
                yield f"root {root} is not in the memo table"
            if root.callers.get(anchor, 0) != 1:
                yield "root is not anchored exactly once"
            if anchor.calls.count(root) != 1:
                yield "anchor call edge out of sync with root's callers"
        edge_counts: dict[tuple[int, int], int] = {}
        for node in table:
            for callee in node.calls:
                if not table.contains(callee):
                    yield f"{node} calls pruned node {callee}"
                pair = (id(node), id(callee))
                edge_counts[pair] = edge_counts.get(pair, 0) + 1
        for node in table:
            for caller, count in node.callers.items():
                if count < 1:
                    # remove_edge pops a caller at zero; a kept zero would
                    # make "no callers" miss an unreachable node.
                    yield f"edge {caller} -> {node} kept with count {count}"
                if caller is anchor:
                    continue
                if not table.contains(caller):
                    yield f"{node} has pruned caller {caller}"
                    continue
                recorded = edge_counts.get((id(caller), id(node)), 0)
                if recorded != count:
                    yield (
                        f"edge {caller} -> {node}: callers map says "
                        f"{count}, calls lists say {recorded}"
                    )
            if node is not root and not node.callers:
                yield f"{node} is unreachable (no callers) yet not pruned"

    def _audit_node_state(self) -> Iterator[str]:
        for node in self.engine.table:
            if node.dirty:
                yield f"{node} left dirty after the run"
            if node.failed:
                yield f"{node} left in failed state after the run"
            if node.in_progress:
                yield f"{node} left marked in-progress"
            if not node.has_result:
                yield f"{node} has no cached result"

    def _audit_order(self) -> Iterator[str]:
        order = self.engine.order
        yield from order.audit()
        records = 0
        for node in self.engine.table:
            rec = node.order_rec
            if rec is None:
                yield f"{node} has no order-maintenance record"
                continue
            records += 1
            if rec.owner is not order:
                yield (
                    f"{node}'s order record is dead or belongs to "
                    f"another list"
                )
        if records == len(self.engine.table) and len(order) != records:
            yield (
                f"order list holds {len(order)} records for "
                f"{records} graph nodes"
            )

    def _audit_scheduling(self) -> Iterator[str]:
        anchor = self.engine._anchor
        for node in self.engine.table:
            for caller in node.callers:
                if caller is anchor:
                    continue
                if caller.last_exec_tick <= node.value_tick:
                    yield (
                        f"{caller} last executed at tick "
                        f"{caller.last_exec_tick} but callee {node}'s value "
                        f"changed at tick {node.value_tick}; the caller is "
                        f"reading a stale return value"
                    )

    def _audit_refcounts(self) -> Iterator[str]:
        expected: dict[int, int] = {}
        containers: dict[int, object] = {}
        for node in self.engine.table:
            for location in node.implicits:
                container = location.container
                key = id(container)
                containers[key] = container
                expected[key] = expected.get(key, 0) + 1
                if isinstance(container, (TrackedObject, TrackedArray)):
                    cache = getattr(container, "_ditto_loc_cache", None)
                    interned = (
                        None if cache is None
                        else cache.get(location.coordinate)
                    )
                    if interned is not location:
                        yield (
                            f"{node} records {location}, which is not "
                            f"the container's interned location; releasing "
                            f"it would miss the count the barrier reads"
                        )
        for key, minimum in expected.items():
            container = containers[key]
            actual = getattr(container, "_ditto_refcount", None)
            if actual is None:
                continue  # not a refcounted container
            if actual < minimum:
                yield (
                    f"{type(container).__name__} refcount {actual} is below "
                    f"this engine's {minimum} implicit reference(s); write "
                    f"barriers may be skipped for live locations"
                )
