"""The specialization tier: per-check compiled closures for the hot path.

The interpreter tier (:mod:`repro.instrument.transform`) routes every
instrumented operation through generic :class:`~repro.core.runtime.Runtime`
method dispatch — ``__ditto_rt__.get_attr(e, 'next')`` costs a method frame,
a ``_step`` frame, a ``_ditto_location`` frame, and a ``record_implicit``
frame before the field is actually read.  Those constant factors are what
§5.1.1's crossover size measures: incremental checking only wins once the
structure outgrows them.

This tier compiles each check against a set of *pre-bound closures* built
once per engine:

======================================  =======================================
interpreter tier                        specialization tier
======================================  =======================================
``__ditto_rt__.get_attr(e, 'next')``    ``__dget__(e, 'next')``
``__ditto_rt__.get_item(b, i)``         ``__ditem__(b, i)``
``__ditto_rt__.get_len(b)``             ``__dlen__(b)``
``__ditto_rt__.call(<uid>, ...)``       ``__dcall_<uid>__(...)``
``__ditto_rt__.helper(f, x)``           ``__dhelper__(f, x)``
``__ditto_rt__.method(k, 'hash', ...)`` ``__dmethod__(k, 'hash', ...)``
======================================  =======================================

Each closure pre-binds the engine state its path touches (the node stack,
the memo-table dicts, the stats record, the order list, the tracking
domain) in closure cells and *inlines* the full per-read sequence — step
accounting, interned-:class:`~repro.core.locations.Location` lookup,
implicit-argument recording with reverse-map and reference-count
maintenance, and the adoption fast test — into a single Python frame.  The
per-call closure ``__dcall_<uid>__`` likewise inlines the
:class:`~repro.core.argkeys.ArgsKey` construction, the memo probe, node
creation, and call-edge recording, with the §4 leaf-call fast path emitted
only for callees whose signature makes a leaf call statically possible
(a zero-parameter callee can never receive the required ``None``
reference argument).

What stays generic — deliberately:

* ``engine._exec`` / ``engine._naive_value`` are called through pre-bound
  method references, so misprediction handling, profiler/recorder hooks,
  and pruning behave identically in both tiers.
* ``engine._compiled[uid]`` is looked up *dynamically* on the leaf path so
  the fault injector's compiled-entry wrapping
  (:mod:`repro.resilience.faults`) still intercepts specialized leaves.
* Rebindable engine state — ``tracing``/``_sink``, ``helper_summaries``,
  ``verified_helpers`` (rebound by ``engine.lint()``), the step
  hook/limit — is read through the engine at call time.
* Step accounting shares :meth:`DittoEngine._step_tail` with the
  interpreter tier, so hooks and limits cannot drift between tiers.

The two tiers must be *bit-identical* in observable behavior — return
values, exceptions, stats counters, trace events; the QA oracle's
``ditto-specialized`` mode diffs them directly over the structure corpus.
"""

from __future__ import annotations

import ast
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from ..core.argkeys import ArgsKey, _freeze, is_primitive
from ..core.errors import (
    InstrumentationError,
    OptimisticMispredictionError,
    ResultTypeError,
    StepLimitExceeded,
    TrackingError,
)
from ..core.locations import FieldLocation, IndexLocation, LengthLocation
from ..core.node import ComputationNode
from ..core.order_maintenance import _APPEND_GAP, _UNIVERSE, Record
from ..core.tracked import TrackedArray, TrackedObject, adopt_container
from .analysis import PURE_BUILTINS
from .transform import IMMUTABLE_RECEIVERS, is_pure_helper, is_pure_method

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine
    from .registry import CheckFunction

#: Scalar types never treated as heap references by the leaf-call test
#: (mirrors ``engine._SCALARS``; duplicated to avoid an import cycle).
_SCALARS = (int, float, bool, str, bytes, complex)

#: Names injected into every specialized namespace.
_READER_NAMES = ("__dget__", "__ditem__", "__dlen__", "__dhelper__",
                 "__dmethod__")

_RAW_SETATTR = object.__setattr__


class _SpecializeTransformer(ast.NodeTransformer):
    """Rewrites one check body against the pre-bound closure names."""

    def __init__(self, func: "CheckFunction", uid_of_callee: dict[str, int]):
        self.func = func
        self.uid_of_callee = uid_of_callee

    def _closure_call(self, name: str, args: list[ast.expr]) -> ast.Call:
        return ast.Call(
            func=ast.Name(id=name, ctx=ast.Load()),
            args=args,
            keywords=[],
        )

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        if not isinstance(node.ctx, ast.Load):
            raise InstrumentationError(
                f"{self.func.name}: attribute store survived static checks"
            )
        value = self.visit(node.value)
        return ast.copy_location(
            self._closure_call(
                "__dget__", [value, ast.Constant(node.attr)]
            ),
            node,
        )

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        if not isinstance(node.ctx, ast.Load):
            raise InstrumentationError(
                f"{self.func.name}: subscript store survived static checks"
            )
        value = self.visit(node.value)
        index = self.visit(node.slice)
        return ast.copy_location(
            self._closure_call("__ditem__", [value, index]), node
        )

    def visit_Call(self, node: ast.Call) -> ast.AST:
        args = [self.visit(a) for a in node.args]
        func_node = node.func
        if isinstance(func_node, ast.Name):
            name = func_node.id
            if name in self.uid_of_callee:
                return ast.copy_location(
                    self._closure_call(
                        f"__dcall_{self.uid_of_callee[name]}__", args
                    ),
                    node,
                )
            if name == "len" and len(args) == 1:
                return ast.copy_location(
                    self._closure_call("__dlen__", args), node
                )
            if name in PURE_BUILTINS or name == "range":
                new = ast.Call(func=func_node, args=args, keywords=[])
                return ast.copy_location(new, node)
            return ast.copy_location(
                self._closure_call("__dhelper__", [func_node] + args), node
            )
        if isinstance(func_node, ast.Attribute):
            receiver = self.visit(func_node.value)
            return ast.copy_location(
                self._closure_call(
                    "__dmethod__",
                    [receiver, ast.Constant(func_node.attr)] + args,
                ),
                node,
            )
        raise InstrumentationError(
            f"{self.func.name}: unsupported call target at line "
            f"{node.lineno}"
        )


def _make_reader_closures(engine: "DittoEngine") -> dict[str, Callable]:
    """Build the shared read/helper/method closures for ``engine``.

    Every name bound below is either construction-final engine state (safe
    to close over) or an in-place-mutated container (the stack list, the
    memo-table dicts) whose *object* is stable for the engine's lifetime.
    Rebindable state is read through ``engine`` at call time.
    """
    stack = engine._stack
    stats = engine.stats
    table = engine.table
    entries_reverse = table._reverse
    tracking = engine.tracking
    strict = engine.strict
    runtime = engine.runtime
    attribute_reads = runtime._attribute_helper_reads
    method_summary = runtime._method_summary
    new_field_loc = FieldLocation.__new__
    new_index_loc = IndexLocation.__new__
    new_length_loc = LengthLocation.__new__

    def __dget__(obj: Any, name: str) -> Any:
        # Inlined Runtime.get_attr: step, interned-location lookup, and the
        # record_implicit path (adopt test, reverse map, location incref)
        # collapse into this one frame.
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        if isinstance(obj, TrackedObject):
            stats.implicit_reads += 1
            node = stack[-1]
            instance_dict = obj.__dict__
            try:
                # Steady-state fast path: two plain subscripts, no method
                # binding (KeyError covers both a missing cache and a
                # missing entry).
                location = instance_dict["_ditto_loc_cache"][name]
            except KeyError:
                cache = instance_dict.get("_ditto_loc_cache")
                if cache is None:
                    cache = instance_dict["_ditto_loc_cache"] = {}
                # Inlined FieldLocation(obj, name): direct slot stores plus
                # the precomputed hash (same formula as Location.__init__),
                # skipping the two-level __init__ chain.
                location = new_field_loc(FieldLocation)
                location.container = obj
                location.field = name
                location.refcount = 0
                location._hash = hash(("FieldLocation", id(obj), name))
                cache[name] = location
            if location not in node.implicits:
                # Adoption must precede any bookkeeping (see the soundness
                # note in MemoTable.record_implicit); the identity test is
                # the steady-state fast path.
                if obj._ditto_state is not tracking:
                    adopt_container(obj, tracking)
                node.implicits.add(location)
                dependents = entries_reverse.get(location)
                if dependents is None:
                    entries_reverse[location] = {node}
                else:
                    dependents.add(node)
                # _ditto_incref_loc, inlined: ``location`` is already the
                # interned instance, so canonicalization is a no-op.  The
                # counters are plain instance-dict ints on dict-backed
                # TrackedObjects (reads fall back to the class default 0),
                # so the stores go straight into the dict.
                location.refcount += 1
                instance_dict["_ditto_locrefs"] = obj._ditto_locrefs + 1
                instance_dict["_ditto_refcount"] = obj._ditto_refcount + 1
            return getattr(obj, name)
        if obj is None or isinstance(obj, IMMUTABLE_RECEIVERS):
            return getattr(obj, name)
        if strict:
            raise TrackingError(
                f"check read attribute {name!r} of untracked mutable object "
                f"{type(obj).__name__}; derive it from TrackedObject"
            )
        return getattr(obj, name)

    def _record_array(obj: Any, location: Any) -> None:
        # Shared slow-ish half of the array paths: first-time recording of
        # an interned array location (slot or length).  Steady-state reads
        # never reach here — the ``in node.implicits`` test in the callers
        # filters them — so one extra frame only on graph growth.
        node = stack[-1]
        if location not in node.implicits:
            if obj._ditto_state is not tracking:
                adopt_container(obj, tracking)
            node.implicits.add(location)
            dependents = entries_reverse.get(location)
            if dependents is None:
                entries_reverse[location] = {node}
            else:
                dependents.add(node)
            location.refcount += 1
            obj._ditto_locrefs += 1
            obj._ditto_refcount += 1

    def __ditem__(obj: Any, index: Any) -> Any:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        if isinstance(obj, TrackedArray):
            stats.implicit_reads += 1
            cache = obj._ditto_loc_cache
            if isinstance(index, int) and index < 0:
                # A negative read depends on the length too (growing the
                # list retargets obj[-1] without writing the old tail).
                try:
                    location = cache["<len>"]
                except KeyError:
                    location = new_length_loc(LengthLocation)
                    location.container = obj
                    location.refcount = 0
                    location._hash = hash(
                        ("LengthLocation", id(obj), "<len>")
                    )
                    cache["<len>"] = location
                if location not in stack[-1].implicits:
                    _record_array(obj, location)
                index += len(obj)
                if index < 0:
                    # Out of range after normalization: natural IndexError,
                    # no phantom slot recorded.
                    return obj[index]
            try:
                location = cache[index]
            except KeyError:
                # Inlined IndexLocation(obj, index), like __dget__'s
                # FieldLocation path.
                location = new_index_loc(IndexLocation)
                location.container = obj
                location.index = index
                location.refcount = 0
                location._hash = hash(("IndexLocation", id(obj), index))
                cache[index] = location
            if location not in stack[-1].implicits:
                _record_array(obj, location)
            return obj[index]
        if isinstance(obj, (str, bytes, tuple, frozenset, range)):
            return obj[index]
        if strict:
            raise TrackingError(
                f"check indexed into untracked mutable container "
                f"{type(obj).__name__}; use TrackedArray/TrackedList"
            )
        return obj[index]

    def __dlen__(obj: Any) -> int:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        if isinstance(obj, TrackedArray):
            stats.implicit_reads += 1
            try:
                location = obj._ditto_loc_cache["<len>"]
            except KeyError:
                location = new_length_loc(LengthLocation)
                location.container = obj
                location.refcount = 0
                location._hash = hash(("LengthLocation", id(obj), "<len>"))
                obj._ditto_loc_cache["<len>"] = location
            if location not in stack[-1].implicits:
                _record_array(obj, location)
            return len(obj)
        if isinstance(obj, (str, bytes, tuple, frozenset, range)):
            return len(obj)
        if strict:
            raise TrackingError(
                f"check took len() of untracked mutable container "
                f"{type(obj).__name__}; use TrackedArray/TrackedList"
            )
        return len(obj)

    def __dhelper__(func: Any, *args: Any) -> Any:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        stats.helper_calls += 1
        if (
            strict
            and not is_pure_helper(func)
            and func not in engine.verified_helpers
        ):
            raise TrackingError(
                f"check called unregistered helper "
                f"{getattr(func, '__name__', func)!r}; register it with "
                f"repro.register_pure_helper if it is pure"
            )
        summary = engine.helper_summaries.get(func)
        if summary is not None:
            attribute_reads(summary, args)
        return func(*args)

    def __dmethod__(receiver: Any, name: str, *args: Any) -> Any:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        stats.helper_calls += 1
        if strict and not is_pure_method(receiver, name):
            raise TrackingError(
                f"check called method {name!r} on "
                f"{type(receiver).__name__}; register it with "
                f"repro.register_pure_method if it is pure"
            )
        summary = method_summary(receiver, name)
        if summary is not None:
            attribute_reads(summary, (receiver,) + args)
        return getattr(receiver, name)(*args)

    return {
        "__dget__": __dget__,
        "__ditem__": __ditem__,
        "__dlen__": __dlen__,
        "__dhelper__": __dhelper__,
        "__dmethod__": __dmethod__,
    }


def _abort_fresh_exec(engine: "DittoEngine", node: ComputationNode,
                      exc: BaseException) -> bool:
    """Mirror of ``DittoEngine._exec``'s exception branch for a fresh node
    whose execution the specialized tier inlined: roll back the partially
    recorded call edges and decide whether the failure is an optimistic
    misprediction (True) or should propagate as-is (False).  Exceptional
    path only — frames here cost nothing in the steady state."""
    table = engine.table
    partial_calls = node.calls
    node.calls = []
    for child in table.remove_calls(node, partial_calls):
        if table.contains(child) and not child.in_progress:
            engine._prune(child)
    if (
        engine.mode == "ditto"
        and engine.in_incremental_run
        and not engine._final_retry
    ):
        node.failed = True
        engine._failed.add(node)
        engine.stats.mispredictions += 1
        if engine.tracing:
            engine._sink.instant(
                "misprediction",
                perf_counter(),
                {"node": node.func.name, "error": repr(exc)},
            )
        return True
    return False


def _make_dcall(engine: "DittoEngine", func: "CheckFunction") -> Callable:
    """Per-callee memoized-call closure: ArgsKey construction, memo probe,
    node creation, edge recording, and the entire fresh-node execution in
    one frame, dispatching to the engine's ``_exec``/``_naive_value`` only
    for dirty re-executions (and whenever an observer — profiler, flight
    recorder, trace sink — needs the generic path's hooks)."""
    uid = func.uid
    func_name = func.name
    stack = engine._stack
    stats = engine.stats
    table = engine.table
    entries = table._entries
    contains = table.contains
    prune = engine._prune
    insert_last = engine.order.insert_last
    order_list = engine.order
    order_tail = order_list._tail
    new_record = Record.__new__
    new_node = ComputationNode.__new__
    exec_node = engine._exec
    naive = engine.mode == "naive"
    naive_value = engine._naive_value
    compiled_map = engine._compiled
    new_key = ArgsKey.__new__
    freeze = _freeze
    # §4 leaf-call fast path: statically impossible for zero-parameter
    # callees (a leaf call needs at least one None reference argument), so
    # the test is emitted only when it can ever succeed.
    leaf_possible = engine.leaf_optimization and bool(func.params)

    def __dcall__(*args: Any) -> Any:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        if leaf_possible:
            has_ref = False
            for a in args:
                if a is None:
                    has_ref = True
                elif not isinstance(a, _SCALARS):
                    break
            else:
                if has_ref:
                    # Run outright, attributing implicit reads to the
                    # caller; no memo entry.  The compiled entry is looked
                    # up dynamically so fault-injection wrapping applies.
                    stats.leaf_execs += 1
                    if engine.tracing:
                        engine._sink.instant(
                            "leaf_exec", perf_counter(), {"func": func_name}
                        )
                    return compiled_map[uid](*args)
        caller = stack[-1]
        # Inlined ArgsKey(args): the parts tuple and cached hash are set
        # directly, skipping the __init__ frame.
        key = new_key(ArgsKey)
        key.args = args
        key._parts = parts = tuple(map(freeze, args))
        key._hash = hash(parts)
        node = entries.get((uid, key))
        if node is None:
            # Fresh invocation: create the node and execute it inline
            # (``_exec`` minus everything a fresh node cannot need —
            # implicit clearing, old-edge pruning, value propagation).
            # The node itself is built by direct slot stores (same field
            # values as ComputationNode.__init__, with the caller edge and
            # depth folded into the initial stores).
            node = new_node(ComputationNode)
            node.func = func
            node.key = key
            node.implicits = set()
            node.calls = []
            node.callers = {caller: 1}
            node.return_val = None
            node.has_result = False
            node.dirty = False
            node.failed = False
            node.in_progress = False
            node.depth = caller.depth + 1
            node.last_exec_tick = -1
            node.value_tick = -1
            entries[(uid, key)] = node
            stats.nodes_created += 1
            # Inlined OrderList.insert_last, append-stride fast path only
            # (the near-universe-end slow path falls back to the method).
            prev_rec = order_tail.prev
            label = prev_rec.label + _APPEND_GAP
            if label < _UNIVERSE:
                rec = new_record(Record)
                rec.label = label
                rec.owner = order_list
                rec.prev = prev_rec
                rec.next = order_tail
                prev_rec.next = rec
                order_tail.prev = rec
                order_list._size += 1
            else:
                rec = insert_last()
            node.order_rec = rec
            caller.calls.append(node)
            if (
                engine.profiler is not None
                or engine.recorder is not None
                or engine.tracing
            ):
                return exec_node(node)
            node.in_progress = True
            stack.append(node)
            try:
                result = compiled_map[uid](*args)
            except StepLimitExceeded:
                raise
            except Exception as exc:
                if _abort_fresh_exec(engine, node, exc):
                    raise OptimisticMispredictionError(node, exc) from exc
                raise
            finally:
                node.in_progress = False
                stack.pop()
            if not is_primitive(result):
                raise ResultTypeError(
                    f"check {func_name!r} returned "
                    f"{type(result).__name__}; checks must return "
                    f"immutable primitive values"
                )
            engine._tick = tick = engine._tick + 1
            node.last_exec_tick = tick
            node.return_val = result
            node.has_result = True
            stats.execs += 1
            if not engine.in_incremental_run:
                stats.initial_execs += 1
            # A pruning cascade may have removed the caller edge while the
            # node was executing; complete the deferred prune (see _exec).
            if (
                node is not engine._root
                and not node.callers
                and contains(node)
            ):
                prune(node)
            return result
        # Inlined MemoTable.add_edge.
        caller.calls.append(node)
        callers = node.callers
        callers[caller] = callers.get(caller, 0) + 1
        depth = caller.depth + 1
        if node.depth == 0 or depth < node.depth:
            node.depth = depth
        if node.dirty or not node.has_result:
            return exec_node(node)
        if naive:
            return naive_value(node)
        # Optimistic memoization: reuse without validating callee returns.
        stats.reuses += 1
        if engine.tracing:
            engine._sink.instant(
                "reuse", perf_counter(), {"node": func_name}
            )
        return node.return_val

    __dcall__.__name__ = f"__dcall_{func.name}__"
    return __dcall__


def specialize(
    func: "CheckFunction",
    uid_of_callee: dict[str, int],
    closures: dict[str, Callable],
) -> Callable:
    """Compile the specialized version of one check function against the
    engine's pre-bound closures (the ``closures`` mapping must provide the
    reader names and every ``__dcall_<uid>__`` the body references)."""
    tree = func.tree()
    # Work on a private copy so multiple engines can specialize one check.
    tree = ast.parse(ast.unparse(tree)).body[0]
    assert isinstance(tree, ast.FunctionDef)
    transformer = _SpecializeTransformer(func, uid_of_callee)
    tree.body = [transformer.visit(stmt) for stmt in tree.body]
    tree.name = f"__ditto_{func.name}__"
    module = ast.Module(body=[tree], type_ignores=[])
    ast.fix_missing_locations(module)
    code = compile(
        module, filename=f"<ditto-specialized:{func.qualname}>", mode="exec"
    )
    namespace: dict[str, Any] = dict(func.globals)
    namespace.update(func.closure_vars())
    namespace.update(closures)
    exec(code, namespace)
    compiled = namespace[tree.name]
    compiled.__ditto_source__ = ast.unparse(tree)
    compiled.__ditto_specialized__ = True
    return compiled


def specialize_closure(engine: "DittoEngine") -> dict[int, Callable]:
    """Compile every function in ``engine``'s check closure against the
    specialization tier; returns ``uid -> compiled``."""
    readers = _make_reader_closures(engine)
    dcalls = {
        uid: _make_dcall(engine, fn)
        for uid, fn in engine.functions.items()
    }
    compiled: dict[int, Callable] = {}
    for uid, fn in engine.functions.items():
        uid_map = {
            name: callee.uid
            for name, callee in fn.resolve_callees().items()
        }
        closures: dict[str, Callable] = dict(readers)
        for callee_uid in set(uid_map.values()):
            closures[f"__dcall_{callee_uid}__"] = dcalls[callee_uid]
        compiled[uid] = specialize(fn, uid_map, closures)
    return compiled


def specialized_source(
    func: "CheckFunction", uid_of_callee: dict[str, int]
) -> str:
    """The specialized source text (documentation/debugging view)."""
    tree = ast.parse(ast.unparse(func.tree())).body[0]
    assert isinstance(tree, ast.FunctionDef)
    transformer = _SpecializeTransformer(func, uid_of_callee)
    tree.body = [transformer.visit(stmt) for stmt in tree.body]
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)
