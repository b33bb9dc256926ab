"""The scope-aware rules R7–R13, built on the shared AST model.

Where R1–R6 pattern-match on literal syntax, these rules consult
:class:`~repro.analysis.model.ModuleModel` — import-alias resolution,
lexical scopes, async-function indexes, and cheap local type facts —
so they can answer questions like "is this *resolved* call
``numpy.random.seed`` even though the file spells it ``xp.random.seed``"
or "does this ``time.sleep`` sit inside an ``async def``".

Each rule encodes one way a determinism or liveness contract of this
reproduction has historically broken (or nearly broken):

* **R7** — iterating an unordered collection while mutating shared
  state makes union/cluster order depend on hash randomization;
* **R8** — a blocking call in a coroutine stalls the whole serve loop;
* **R9** — locks/threads/RNGs created at import time in ``parallel/``
  are silently duplicated into forked workers;
* **R10** — an unawaited coroutine never runs; an unstored task can be
  garbage-collected mid-flight;
* **R11** — ``object.__setattr__`` outside a frozen dataclass's own
  ``__post_init__`` defeats the config-immutability contract;
* **R12** — strict-zone packages must raise the ``repro.errors``
  taxonomy (R3's reach, extended beyond ``core``/``lsh``);
* **R13** — the call-graph-aware successor to R1: RNG access that
  resolves to ``numpy.random`` / ``random`` through import aliases R1's
  syntactic check cannot see.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .findings import Finding
from .model import dotted_name
from .rules import FileContext, Rule, register

#: Packages whose loops feeding union/cluster/report state must iterate
#: deterministically (R7).
ORDER_SENSITIVE_PACKAGES = frozenset({"core", "structures", "serve"})

#: Packages whose ``async def`` bodies must never block the loop (R8).
ASYNC_PACKAGES = frozenset({"serve"})

#: Package whose module-import state must be fork-safe (R9).
FORK_SAFE_PACKAGES = frozenset({"parallel"})

#: Strict-zone packages for the exception taxonomy beyond R3's
#: ``core``/``lsh`` (R12).  Mirrors the mypy --strict zone.
TAXONOMY_STRICT_PACKAGES = frozenset(
    {"structures", "distance", "obs", "parallel", "online", "serve"}
)

#: Filesystem enumerators whose order is OS-dependent (R7).
_UNORDERED_FS_CALLS = frozenset(
    {
        "os.listdir",
        "os.scandir",
        "glob.glob",
        "glob.iglob",
    }
)
#: ``Path`` methods with OS-dependent order, matched on the attribute
#: name (the receiver's type is unknowable locally).
_UNORDERED_FS_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Attribute names whose call marks a loop body as state-reaching (R7):
#: union-find merges, cluster/report accumulation, metric emission.
_STATE_SINK_METHODS = frozenset(
    {
        "union",
        "union_many",
        "merge",
        "link",
        "add",
        "append",
        "extend",
        "insert",
        "push",
        "put",
        "write",
        "record",
        "emit",
        "inc",
        "observe",
        "update",
        "setdefault",
    }
)

#: Order-insensitive wrappers that launder an unordered iterable (R7).
_ORDERING_WRAPPERS = frozenset({"sorted", "min", "max", "sum", "len"})

#: Blocking callables never allowed inside ``async def`` (R8), by
#: resolved qualified name.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.popen",
        "os.waitpid",
        "socket.create_connection",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.delete",
        "requests.request",
        "urllib.request.urlopen",
    }
)
#: Bare-name builtins that do blocking file I/O (R8).
_BLOCKING_BUILTINS = frozenset({"open", "input"})
#: Blocking socket/file methods matched on attribute name (R8) — chosen
#: to not collide with asyncio's StreamReader/StreamWriter API.
_BLOCKING_METHODS = frozenset({"recv", "recv_into", "accept", "sendall"})

#: Import-time constructors that are fork-hostile in ``parallel/`` (R9).
_FORK_UNSAFE_CALLS = frozenset(
    {
        "threading.Thread",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.local",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Queue",
        "multiprocessing.Pool",
        "multiprocessing.Manager",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
    }
)

#: Known-coroutine stdlib callables (R10): a bare-statement call to one
#: of these is an unawaited coroutine even without a local ``async def``.
_KNOWN_COROUTINES = frozenset(
    {
        "asyncio.sleep",
        "asyncio.gather",
        "asyncio.wait",
        "asyncio.wait_for",
        "asyncio.open_connection",
        "asyncio.start_server",
        "asyncio.to_thread",
        "asyncio.shield",
    }
)

#: Task factories whose result must be stored (R10).
_TASK_FACTORIES = frozenset({"asyncio.create_task", "asyncio.ensure_future"})


@register
class UnorderedIterationRule(Rule):
    """R7: no iterating unordered collections into shared state.

    Set/``os.listdir``/``glob`` iteration order depends on hash
    randomization and the filesystem; when the loop body unions
    clusters, appends to reports, or bumps metrics, that order leaks
    into results and breaks the bit-identity contracts.  Wrap the
    iterable in ``sorted(...)`` (the fix everywhere in ``core/``) or
    iterate an ordered structure instead.

    The state-reaching test is a lexical approximation: the loop body
    must contain a mutating call (``union``/``append``/``inc``/...), a
    ``yield``, or a write to a name or subscript defined outside the
    loop.  Pure reductions over sets (``any``/``sum``-style
    accumulation into loop-local temporaries) do not fire.
    """

    id = "R7"
    title = "unordered iteration feeding union/cluster/report state"

    _SUGGESTION = (
        "iterate sorted(...) (or an ordered container) before touching "
        "union/cluster/report state"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in ORDER_SENSITIVE_PACKAGES:
            return
        model = ctx.model
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            source = self._unordered_source(ctx, node.iter)
            if source is None:
                continue
            if not self._body_reaches_state(node):
                continue
            yield self.finding(
                ctx,
                node,
                f"iterates {source} while the loop body mutates "
                f"shared state — order depends on hash/OS randomization",
                self._SUGGESTION,
            )

    # -- what counts as unordered ------------------------------------
    def _unordered_source(
        self, ctx: FileContext, iter_expr: ast.AST
    ) -> str | None:
        model = ctx.model
        # enumerate(X) / reversed(X) iterate X's order: look through.
        while (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Name)
            and iter_expr.func.id in ("enumerate", "reversed", "iter", "tuple", "list")
            and iter_expr.args
        ):
            iter_expr = iter_expr.args[0]
        if isinstance(iter_expr, ast.Call):
            name = model.call_name(iter_expr)
            if name in _ORDERING_WRAPPERS:
                return None
            if name in _UNORDERED_FS_CALLS:
                return f"the unsorted result of {name}()"
            if (
                isinstance(iter_expr.func, ast.Attribute)
                and iter_expr.func.attr in _UNORDERED_FS_METHODS
            ):
                return f"the unsorted result of .{iter_expr.func.attr}()"
        scope = model.enclosing_function(iter_expr) or ctx.tree
        known = model.set_typed_names(scope)
        if model.is_set_expression(iter_expr, known):
            label = dotted_name(iter_expr)
            return f"set {label!r}" if label else "a set expression"
        return None

    # -- does the body mutate shared state ---------------------------
    def _body_reaches_state(self, loop: ast.For | ast.AsyncFor) -> bool:
        loop_locals = self._loop_local_names(loop)
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _STATE_SINK_METHODS
                    ):
                        # Calls on loop-local receivers stay local.
                        receiver = func.value
                        if (
                            isinstance(receiver, ast.Name)
                            and receiver.id in loop_locals
                        ):
                            continue
                        return True
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Subscript):
                            base = target.value
                            if not (
                                isinstance(base, ast.Name)
                                and base.id in loop_locals
                            ):
                                return True
                        elif isinstance(target, ast.Attribute):
                            return True
        return False

    @staticmethod
    def _loop_local_names(loop: ast.For | ast.AsyncFor) -> set[str]:
        """Names bound by the loop target and plain assignments inside
        the body — mutations confined to these are order-safe."""
        names: set[str] = set()
        for target_node in ast.walk(loop.target):
            if isinstance(target_node, ast.Name):
                names.add(target_node.id)
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(node, ast.AnnAssign):
                    if isinstance(node.target, ast.Name):
                        names.add(node.target.id)
        return names


@register
class BlockingAsyncCallRule(Rule):
    """R8: no blocking calls inside ``async def`` in the serve layer.

    One ``time.sleep`` or sync ``open()`` in a coroutine stalls every
    in-flight request on the event loop — the serve layer's latency
    contract (and its 429 admission control) assumes the loop always
    turns.  Blocking work belongs in ``asyncio.to_thread`` (how
    ``service.py`` ships store rebuilds off-loop) or behind an
    ``await``-able API.  Resolution is alias-aware: ``import time as t;
    t.sleep(...)`` is still caught.
    """

    id = "R8"
    title = "blocking call inside async def (serve layer)"

    _SUGGESTION = (
        "await the async equivalent (asyncio.sleep) or push the work "
        "off-loop via asyncio.to_thread(...)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in ASYNC_PACKAGES:
            return
        model = ctx.model
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not model.in_async_function(node):
                continue
            name = model.call_name(node)
            if name in _BLOCKING_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"calls blocking {name}() inside an async function",
                    self._SUGGESTION,
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in _BLOCKING_BUILTINS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"calls blocking builtin {node.func.id}() inside an "
                    f"async function",
                    self._SUGGESTION,
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"calls blocking socket method .{node.func.attr}() "
                    f"inside an async function",
                    self._SUGGESTION,
                )


@register
class ForkUnsafeStateRule(Rule):
    """R9: no fork-hostile state at import time in ``parallel/``.

    The shard service forks workers that inherit the parent address
    space; a lock created at module scope forks *held-or-not* by
    accident, a module-level thread never exists in the child, and a
    module-level RNG silently gives every worker the same stream.  All
    such state must be constructed per-process (inside functions or
    methods) so each process owns its copy deliberately.
    """

    id = "R9"
    title = "fork-unsafe state created at import time in parallel/"

    _SUGGESTION = (
        "construct threads/locks/RNGs inside the worker process, "
        "never at module import"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in FORK_SAFE_PACKAGES:
            return
        model = ctx.model
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not model.at_import_time(node):
                continue
            name = model.call_name(node)
            if name in _FORK_UNSAFE_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"creates {name}() at module import — forked workers "
                    f"inherit (or lose) it unpredictably",
                    self._SUGGESTION,
                )


@register
class UnawaitedCoroutineRule(Rule):
    """R10: no dropped coroutines or unstored tasks.

    A coroutine called without ``await`` never executes — the statement
    is a silent no-op (Python only warns at GC time, long after the
    test that should have caught it).  A task created without storing
    the handle can be garbage-collected mid-flight.  Detection is
    module-local: bare-statement calls to ``async def``\\ s defined in
    this module (by name, or ``self.<m>()`` for methods of the same
    class), to known stdlib coroutines, and to task factories.
    """

    id = "R10"
    title = "unawaited coroutine / un-stored asyncio task"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        model = ctx.model
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            name = model.call_name(call)
            if name in _TASK_FACTORIES or (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "create_task"
            ):
                yield self.finding(
                    ctx,
                    call,
                    "creates an asyncio task without storing the handle — "
                    "it can be garbage-collected before it runs",
                    "keep a reference (self._task = ...) and await or "
                    "cancel it on shutdown",
                )
            elif name in _KNOWN_COROUTINES or model.is_local_coroutine_call(
                call
            ):
                label = name or dotted_name(call.func) or "<coroutine>"
                yield self.finding(
                    ctx,
                    call,
                    f"calls coroutine {label}() without awaiting it — the "
                    f"body never runs",
                    "await the call (or create_task and store the handle)",
                )


@register
class FrozenDataclassMutationRule(Rule):
    """R11: ``object.__setattr__`` only inside a frozen dataclass's own
    ``__post_init__``.

    ``AdaptiveConfig`` and ``ServiceConfig`` are frozen on purpose:
    they are the single construction surface for runs and snapshots,
    and every consumer (sessions, shard workers, snapshot capture)
    assumes a config can never change underneath it.  The one blessed
    escape hatch is normalization inside ``__post_init__``; any other
    ``object.__setattr__`` is mutation of state the rest of the system
    believes immutable.
    """

    id = "R11"
    title = "object.__setattr__ outside a frozen dataclass __post_init__"

    _SUGGESTION = (
        "use dataclasses.replace(...) to derive a new config instead of "
        "mutating a frozen instance"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        model = ctx.model
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func) != "object.__setattr__":
                continue
            fn = model.enclosing_function(node)
            if (
                isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name == "__post_init__"
            ):
                owner = model.enclosing_class(fn)
                if owner is not None and self._is_frozen_dataclass(
                    model, owner
                ):
                    continue
            yield self.finding(
                ctx,
                node,
                "mutates a frozen dataclass via object.__setattr__ outside "
                "its own __post_init__",
                self._SUGGESTION,
            )

    @staticmethod
    def _is_frozen_dataclass(model, cls: ast.ClassDef) -> bool:
        for decorator in cls.decorator_list:
            name = (
                model.call_name(decorator)
                if isinstance(decorator, ast.Call)
                else model.qualified(decorator) or dotted_name(decorator)
            )
            if name not in ("dataclass", "dataclasses.dataclass"):
                continue
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
        return False


@register
class TaxonomyEscapeRule(Rule):
    """R12: strict-zone packages raise the ``repro.errors`` taxonomy.

    R3 enforces this for ``core``/``lsh``; R12 extends the contract to
    the rest of the mypy-strict zone (``structures``, ``distance``,
    ``obs``, ``parallel``, ``online``, ``serve``).  Bare ``ValueError``
    / ``RuntimeError`` from deep code is indistinguishable from a
    genuine bug at the call site, so callers either over-catch or crash.
    """

    id = "R12"
    title = "bare ValueError/RuntimeError raised in a strict-zone package"

    _BARE = frozenset({"ValueError", "RuntimeError"})
    _SUGGESTION = (
        "raise a repro.errors.ReproError subclass (ConfigurationError, "
        "StructureError, ServiceError, ...)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in TAXONOMY_STRICT_PACKAGES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc
            name: str | None = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in self._BARE:
                yield self.finding(
                    ctx, node, f"raises bare {name}", self._SUGGESTION
                )


@register
class RngStateLeakRule(Rule):
    """R13: alias-aware RNG funnel enforcement (supersedes R1's reach).

    R1 catches the literal spellings (``np.random.*``, ``import
    random``).  R13 resolves names through the import table, so the
    forms R1 cannot see — ``import numpy as xp; xp.random.seed(0)``,
    ``from numpy import random as nr; nr.default_rng()`` — are caught
    too.  Global reseeding (``numpy.random.seed``) is the worst case:
    it silently rewires every legacy-RNG consumer in the process, so
    adaptive rounds stop being reproducible from the run seed.

    Findings R1 already reports (literal ``np.random``/``numpy.random``
    text) are skipped, so a violation surfaces under exactly one rule.
    """

    id = "R13"
    title = "RNG construction/use escaping the rngutil funnel (alias-aware)"

    _SUGGESTION = "take a seed: SeedLike and call repro.rngutil.make_rng/spawn"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.filename == "rngutil.py":
            return
        model = ctx.model
        stack: list[ast.AST] = [ctx.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Attribute, ast.Name)):
                literal = dotted_name(node)
                resolved = model.qualified(node)
                if resolved is not None and self._is_rng_target(resolved):
                    if literal is not None and self._r1_sees(literal):
                        continue  # R1 already reports this spelling
                    yield self.finding(
                        ctx,
                        node,
                        f"{literal or resolved} resolves to {resolved} — "
                        f"RNG state outside the rngutil funnel",
                        self._SUGGESTION,
                    )
                    continue  # do not re-flag inner chain nodes
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_rng_target(qualified: str) -> bool:
        return (
            qualified.startswith("numpy.random.")
            or qualified == "numpy.random"
            or qualified.startswith("random.")
            or qualified == "random"
        )

    @staticmethod
    def _r1_sees(literal: str) -> bool:
        return (
            literal.startswith(("np.random.", "numpy.random.", "random."))
            or literal in ("np.random", "numpy.random", "random")
        )
