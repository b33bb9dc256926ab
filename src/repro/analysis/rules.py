"""The invariant rules and their registry.

Each rule is an AST check encoding one repo-specific invariant that
plain flake8/ruff cannot express:

* **R1** — randomness flows through :mod:`repro.rngutil` only;
* **R2** — algorithm packages never read the wall clock directly
  (timing goes through :func:`repro.obs.clock.monotonic`);
* **R3** — library code in ``core/`` and ``lsh/`` raises
  :class:`repro.errors.ReproError` subclasses, never bare
  ``ValueError`` / ``RuntimeError``;
* **R4** — public functions in the typed packages carry complete
  annotations (the mypy ratchet's AST-level twin);
* **R5** — no mutable default arguments anywhere;
* **R6** — result-producing packages only write documented
  ``FilterResult.info`` keys (the key schema lives in ``docs/API.md``).

Rules register themselves in :data:`RULES` via the :func:`register`
decorator, so adding a rule is: subclass :class:`Rule`, decorate, done.
The engine instantiates the registry once per run.
"""

from __future__ import annotations

import abc
import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from .findings import Finding
from .model import ModuleModel

#: Packages whose code must not read the wall clock (R2).
CLOCK_FREE_PACKAGES = frozenset(
    {"core", "lsh", "structures", "distance", "serve"}
)
#: Packages whose raises must come from the repro error taxonomy (R3).
TAXONOMY_PACKAGES = frozenset({"core", "lsh"})
#: Packages whose public functions must be fully annotated (R4).
ANNOTATED_PACKAGES = frozenset({"core", "lsh", "obs", "eval"})
#: Packages that build FilterResults and must stick to the documented
#: ``info`` key schema (R6).
INFO_SCHEMA_PACKAGES = frozenset({"core", "baselines", "online", "serve"})
#: The ``FilterResult.info`` key schema documented in ``docs/API.md``.
#: Writing any other key from an :data:`INFO_SCHEMA_PACKAGES` package is
#: an R6 finding — document the key (and add it here) first.
DOCUMENTED_INFO_KEYS = frozenset(
    {
        "method",
        "budgets",
        "designs",
        "selection",
        "records_per_level",
        "components",
        "n_hashes",
        "design",
        "verified",
        "serving",
        "memoized_pairs",
        "store_backing",
        "bin_index",
    }
)

#: Wall-clock callables flagged by R2 (dotted form as written in code).
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.perf_counter",
        "time.monotonic",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)


@dataclass
class FileContext:
    """Everything a rule may need to know about one source file."""

    #: Display path (as reported in findings).
    path: str
    #: Path parts relative to the ``repro`` package root, e.g.
    #: ``("core", "adaptive.py")`` — rules scope themselves on these.
    scope: tuple[str, ...]
    tree: ast.Module
    lines: list[str]
    #: Lazily built shared AST model (imports, scopes, parents) for the
    #: scope-aware rules; one build serves every rule on this file.
    _model: ModuleModel | None = field(default=None, repr=False, compare=False)

    @property
    def model(self) -> ModuleModel:
        if self._model is None:
            self._model = ModuleModel(self.tree)
        return self._model

    @property
    def package(self) -> str:
        """First-level package the file lives in ('' for top-level modules)."""
        return self.scope[0] if len(self.scope) > 1 else ""

    @property
    def filename(self) -> str:
        return self.scope[-1]


class Rule(abc.ABC):
    """One invariant check over a parsed source file."""

    #: Stable identifier used in findings, noqa comments and baselines.
    id: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    title: str = ""

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every violation of this rule in ``ctx``."""

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str, suggestion: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            rule=self.id,
            message=message,
            suggestion=suggestion,
        )


#: Rule registry, id -> instance; populated by :func:`register`.
RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to :data:`RULES`."""
    RULES[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    return [RULES[rule_id] for rule_id in sorted(RULES)]


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class StaleNoqaRule(Rule):
    """R0: a ``# repro: noqa`` that suppresses nothing is itself a finding.

    The check lives in the engine (:func:`repro.analysis.engine.lint_file`)
    because staleness is only knowable *after* every other rule has run
    on the file; this class exists so R0 participates in the registry —
    ``--list-rules``, ``--rules`` filtering, baselines — like any rule.
    Stale-suppression detection only runs when R0 is in the active rule
    set **and** the run covers all registered rules (a ``--rules R7``
    subset run cannot tell a stale noqa from one aimed at an inactive
    rule).
    """

    id = "R0"
    title = "stale noqa: suppression comment that suppresses nothing"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@register
class RandomSourceRule(Rule):
    """R1: all randomness is constructed in ``rngutil.py``."""

    id = "R1"
    title = "np.random / random usage outside repro.rngutil"

    _SUGGESTION = "take a seed: SeedLike and call repro.rngutil.make_rng/spawn"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.filename == "rngutil.py":
            return
        # Walk manually so a flagged `np.random.default_rng` chain does
        # not also flag its inner `np.random` Attribute node.
        stack: list[ast.AST] = [ctx.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "numpy.random"
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"imports {alias.name!r} directly",
                            self._SUGGESTION,
                        )
                continue
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module.startswith("numpy.random"):
                    yield self.finding(
                        ctx,
                        node,
                        f"imports from {module!r} directly",
                        self._SUGGESTION,
                    )
                continue
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted is not None and (
                    dotted.startswith("np.random.")
                    or dotted.startswith("numpy.random.")
                    or dotted in ("np.random", "numpy.random")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"uses {dotted} directly",
                        self._SUGGESTION,
                    )
                    continue  # do not descend into the flagged chain
            stack.extend(ast.iter_child_nodes(node))


@register
class WallClockRule(Rule):
    """R2: algorithm packages read time only through ``repro.obs.clock``."""

    id = "R2"
    title = "wall-clock access in core/lsh/structures/distance/serve"

    _SUGGESTION = "route timing through repro.obs.clock.monotonic()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in CLOCK_FREE_PACKAGES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module in ("time", "datetime"):
                    names = ", ".join(alias.name for alias in node.names)
                    yield self.finding(
                        ctx,
                        node,
                        f"imports {names} from {module!r}",
                        self._SUGGESTION,
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in _CLOCK_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"calls {dotted}() directly",
                        self._SUGGESTION,
                    )


@register
class ErrorTaxonomyRule(Rule):
    """R3: core/lsh raise repro.errors subclasses, not stdlib errors."""

    id = "R3"
    title = "bare ValueError/RuntimeError raised in core/lsh"

    _BARE = frozenset({"ValueError", "RuntimeError"})
    _SUGGESTION = (
        "raise a repro.errors.ReproError subclass "
        "(e.g. ConfigurationError)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in TAXONOMY_PACKAGES:
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
class AnnotationRule(Rule):
    """R4: public functions in the typed packages are fully annotated."""

    id = "R4"
    title = "incomplete annotations on public functions"

    _SUGGESTION = "annotate every parameter and the return type"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in ANNOTATED_PACKAGES:
            return
        yield from self._walk(ctx, ctx.tree, in_class=False)

    def _walk(
        self, ctx: FileContext, node: ast.AST, in_class: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from self._walk(ctx, child, in_class=True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_public(child.name):
                    yield from self._check_signature(ctx, child, in_class)
                # Nested defs are implementation details — not public API.

    @staticmethod
    def _is_public(name: str) -> bool:
        if name.startswith("__") and name.endswith("__"):
            return True  # dunders are part of the public protocol
        return not name.startswith("_")

    def _check_signature(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        in_class: bool,
    ) -> Iterator[Finding]:
        args = fn.args
        positional = list(args.posonlyargs) + list(args.args)
        if in_class and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            a.arg
            for a in positional + list(args.kwonlyargs)
            if a.annotation is None
        ]
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if missing:
            yield self.finding(
                ctx,
                fn,
                f"public function {fn.name!r} has unannotated "
                f"parameter(s): {', '.join(missing)}",
                self._SUGGESTION,
            )
        if fn.returns is None:
            yield self.finding(
                ctx,
                fn,
                f"public function {fn.name!r} has no return annotation",
                self._SUGGESTION,
            )


@register
class InfoKeySchemaRule(Rule):
    """R6: only documented ``FilterResult.info`` keys are written."""

    id = "R6"
    title = "undocumented FilterResult.info key written in a result package"

    _SUGGESTION = (
        "document the key in docs/API.md and add it to "
        "DOCUMENTED_INFO_KEYS (or drop the write)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in INFO_SCHEMA_PACKAGES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_assign(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_assign(
        self, ctx: FileContext, node: ast.Assign | ast.AnnAssign
    ) -> Iterator[Finding]:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            # result.info["key"] = ... / info["key"] = ...
            if isinstance(target, ast.Subscript) and self._is_info(
                target.value
            ):
                key = target.slice
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield from self._check_key(ctx, key, key.value)
            # info = {...} / info: dict = {...}
            elif (
                self._is_info(target)
                and node.value is not None
                and isinstance(node.value, ast.Dict)
            ):
                yield from self._check_dict(ctx, node.value)

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted is None or not dotted.startswith("FilterResult"):
            return
        for keyword in node.keywords:
            if keyword.arg == "info" and isinstance(keyword.value, ast.Dict):
                yield from self._check_dict(ctx, keyword.value)

    @staticmethod
    def _is_info(node: ast.AST) -> bool:
        """Matches the name ``info`` and any ``<expr>.info`` attribute."""
        if isinstance(node, ast.Name):
            return node.id == "info"
        return isinstance(node, ast.Attribute) and node.attr == "info"

    def _check_dict(self, ctx: FileContext, node: ast.Dict) -> Iterator[Finding]:
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield from self._check_key(ctx, key, key.value)

    def _check_key(
        self, ctx: FileContext, node: ast.AST, key: str
    ) -> Iterator[Finding]:
        if key not in DOCUMENTED_INFO_KEYS:
            yield self.finding(
                ctx,
                node,
                f"writes undocumented FilterResult.info key {key!r}",
                self._SUGGESTION,
            )


@register
class MutableDefaultRule(Rule):
    """R5: no mutable default arguments, anywhere."""

    id = "R5"
    title = "mutable default argument"

    _FACTORIES = frozenset({"list", "dict", "set"})
    _SUGGESTION = "default to None and create the object inside the function"

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                ast.DictComp, ast.SetComp)):
            return True
        if isinstance(default, ast.Call) and isinstance(default.func, ast.Name):
            return default.func.id in self._FACTORIES
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            name = getattr(node, "name", "<lambda>")
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"function {name!r} has a mutable default argument",
                        self._SUGGESTION,
                    )
