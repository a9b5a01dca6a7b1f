"""``repro lint`` — AST-based static analysis for the repo's DP contracts.

The library's correctness rests on conventions that no general-purpose
linter knows about: randomness must flow through explicit
:class:`numpy.random.Generator` objects, ``epsilon`` arithmetic lives in
:mod:`repro.privacy`, write paths only touch sufficient statistics (the
lazy-materialization contract), the asyncio service tier must not block the
event loop, snapshotable state must round-trip through :mod:`repro.persist`,
and failures surface as :mod:`repro.exceptions` types.  This module turns
those conventions into machine-checked rules:

========= ==================================================================
Rule      Contract
========= ==================================================================
LDP-R001  RNG hygiene: no legacy ``np.random`` global-state calls and no
          hard-coded ``default_rng(<literal>)`` seeds in library code
          (``experiments``/``data`` are exempt — they *own* their seeds);
          raw generator words (``.random_raw``) are read nowhere but the
          audited ``repro/privacy/randomness.py`` (``power_of_two_integers``
          and ``fair_binomial``), with no exempt dirs.
LDP-R002  Epsilon flow: raw ``exp(epsilon)`` arithmetic is confined to
          ``repro.privacy``; constructors that accept ``epsilon`` must
          validate it (``validate_epsilon``/``PrivacyBudget``) or forward
          it to a constructor that does.
LDP-R003  Write-path purity: ``partial_fit*``/``merge_from``/``fit_*``/
          ``submit*``/``load_state_dict`` must not materialize or read
          estimates — writes touch only sufficient statistics; and
          ``repro/core`` never calls ``.encode_batch(`` — per-user
          simulation has one route, the accumulators' ``_add_items`` hook.
LDP-R004  Asyncio discipline: no blocking calls inside ``async def``; no
          discarded ``create_task`` handles; no discarded
          ``gather(..., return_exceptions=True)`` results.
LDP-R005  Persist coverage: ``state_dict`` and ``load_state_dict`` come in
          pairs, and every concrete mechanism (every non-abstract subclass
          of ``RangeQueryMechanism``, whose snapshot hooks it inherits) is
          listed in persist's kind table: a module-level dict (display or
          comprehension) in ``repro/persist/snapshots.py``.  A class only
          mentioned elsewhere there (an import, an ``isinstance``) is not
          registered.
LDP-R006  Exception discipline: library raises use ``repro.exceptions``
          types, not bare ``ValueError``/``RuntimeError``/``Exception``.
LDP-R008  One HTTP transport: nothing imports ``http.client`` or
          ``urllib.request`` — the service speaks HTTP through
          ``ServiceClient`` and ``ReproHttpServer`` only, so the retry
          rule and strict framing live in one client and one server.
========= ==================================================================

LDP-R007 (kernel-backend pairing) is retired with the compiled backend it
policed; its ID is not reused.

Suppressions: append ``# repro: noqa[LDP-R00X]`` (or a blanket
``# repro: noqa``) to the offending line.  Grandfathered findings can live
in a JSON baseline (``--baseline``); the committed baseline is empty and
should stay that way.

Run as ``python -m repro lint [paths...] [--format text|json]
[--baseline FILE]``; exits non-zero when unsuppressed findings remain.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Finding", "RULES", "lint_paths", "main"]

#: Rule identifiers and the one-line contract each one enforces.
RULES: Dict[str, str] = {
    "LDP-R001": "randomness flows through explicit Generators (no legacy "
    "np.random global state, no hard-coded default_rng seeds, raw words "
    "only in repro/privacy/randomness.py)",
    "LDP-R002": "exp(epsilon) arithmetic confined to repro.privacy; "
    "constructors validate epsilon",
    "LDP-R003": "write paths touch only sufficient statistics (no "
    "materialize/_require_fitted/estimate reads; repro/core simulates users "
    "through the accumulator hook, never encode_batch)",
    "LDP-R004": "async code never blocks the event loop or discards task "
    "handles / gathered exceptions",
    "LDP-R005": "state_dict/load_state_dict come in pairs and every "
    "concrete RangeQueryMechanism subclass is listed in persist's kind "
    "table",
    "LDP-R006": "query/ingest paths raise repro.exceptions types, not bare "
    "ValueError/RuntimeError/Exception",
    "LDP-R008": "one HTTP transport: no http.client or urllib.request "
    "imports (ServiceClient and ReproHttpServer own the wire)",
}

#: Rule used for files the parser cannot read at all.
PARSE_RULE = "LDP-R000"

#: Top-level package directories exempt from the library-code rules
#: (experiments and data generators legitimately own literal seeds and are
#: not part of the query/ingest surface; devtools is the linter itself).
EXEMPT_LIBRARY_DIRS = frozenset({"experiments", "data", "devtools"})

#: The one module allowed to read raw bit-generator words (LDP-R001): its
#: helpers reproduce numpy's draws exactly (``power_of_two_integers``) or
#: read a documented bit stream (``fair_binomial``), each pinned by
#: property tests.
RAW_WORDS_MODULE = ("privacy", "randomness.py")

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[^\]]*)\])?", re.IGNORECASE)

_LEGACY_RNG_ATTRS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "binomial",
        "poisson",
        "exponential",
        "standard_normal",
        "get_state",
        "set_state",
        "RandomState",
    }
)

_CAST_FUNCS = frozenset({"float", "int", "bool", "str", "abs", "round", "len"})

_WRITE_PATH_RE = re.compile(r"^(partial_fit\w*|merge_from|fit_\w+|submit\w*|load_state_dict)$")

_READ_SURFACE_CALLS = frozenset(
    {
        "materialize",
        "_require_fitted",
        "_refresh_estimates",
        "estimate_frequencies",
        "estimate_cdf",
        "estimate_quantiles",
        "answer_range",
        "answer_ranges",
        "answer_prefix",
        "answer_workload",
        "answer_box",
        "answer_boxes",
        "estimate_heatmap",
        "quantile",
        "quantiles",
    }
)

#: Materialized estimates a write path must not read: the leaf read path's
#: frequencies and prefix sums, and each mechanism's own reconstructions
#: (HH's levels and their prefix sums, Haar's coefficients, the grid's
#: per-tuple grids and prefix buffers).
_ESTIMATE_ATTRS = frozenset(
    {
        "_frequencies",
        "_prefix",
        "_estimates",
        "_levels",
        "_raw_levels",
        "_level_prefix",
        "_coefficients",
        "_prefix_flat",
        "_tuple_prefix",
    }
)

_BLOCKING_IO_ATTRS = frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})

_BARE_EXCEPTIONS = frozenset({"ValueError", "RuntimeError", "Exception"})

#: Second HTTP stacks (LDP-R008), as ``package -> submodule``.
_HTTP_STACKS = {"http": "client", "urllib": "request"}

_MECHANISM_BASE = "RangeQueryMechanism"

_ABSTRACT_BASES = frozenset({"ABC", "ABCMeta", "Protocol"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> str:
        """Location-insensitive identity used for baseline matching (line
        numbers churn on unrelated edits; path + rule + message do not)."""
        return f"{self.path}::{self.rule}::{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class _ClassInfo:
    name: str
    bases: Tuple[str, ...]
    defines_state_dict: bool
    defines_load_state_dict: bool
    is_abstract: bool
    path: str
    line: int


@dataclass
class _ProjectFacts:
    """Cross-file knowledge gathered before the per-file rule passes."""

    classes: Dict[str, _ClassInfo] = field(default_factory=dict)
    persist_registry_names: Set[str] = field(default_factory=set)
    has_persist_registry: bool = False


@dataclass
class _FileContext:
    path: Path
    display: str
    parts: Tuple[str, ...]
    lines: List[str]
    tree: ast.Module


# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything richer."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _last_component(name: Optional[str]) -> Optional[str]:
    return name.rsplit(".", 1)[-1] if name else None


def _package_parts(path: Path) -> Tuple[str, ...]:
    """Path components below the innermost ``repro`` package directory.

    Files outside a ``repro`` checkout (test fixtures in temp dirs) keep
    their full component tuple, so no library-dir exemption applies.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1 :]
    return parts


def _is_exempt(ctx: _FileContext, dirs: frozenset) -> bool:
    return bool(ctx.parts) and ctx.parts[0] in dirs


def _walk_pruned(node: ast.AST, prune: Tuple[type, ...]) -> Iterator[ast.AST]:
    """Depth-first walk of ``node``'s children, skipping pruned subtrees."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, prune):
            continue
        yield child
        yield from _walk_pruned(child, prune)


def _mentions_epsilon(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "eps" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "eps" in sub.attr.lower():
            return True
    return False


# ----------------------------------------------------------------------
# Rule passes (one generator of findings per rule family)
# ----------------------------------------------------------------------
def _check_rng_hygiene(ctx: _FileContext) -> Iterator[Finding]:
    """LDP-R001 — legacy global-state RNG calls, hard-coded seeds and raw
    generator words outside the audited helper module."""
    if ctx.parts != RAW_WORDS_MODULE:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "random_raw":
                yield Finding(
                    "LDP-R001",
                    ctx.display,
                    node.lineno,
                    node.col_offset,
                    "raw generator words ('random_raw') outside "
                    "repro/privacy/randomness.py — draw through its audited "
                    "helpers (power_of_two_integers, fair_binomial) so "
                    "every stream they read stays pinned by its tests",
                )
    if _is_exempt(ctx, EXEMPT_LIBRARY_DIRS):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute):
            base = _dotted(node.value)
            if base in ("np.random", "numpy.random") and node.attr in _LEGACY_RNG_ATTRS:
                yield Finding(
                    "LDP-R001",
                    ctx.display,
                    node.lineno,
                    node.col_offset,
                    f"legacy global-state RNG '{base}.{node.attr}' — pass an "
                    "explicit numpy.random.Generator instead",
                )
        if isinstance(node, ast.Call):
            func = _dotted(node.func)
            if _last_component(func) != "default_rng":
                continue
            seeds = list(node.args) + [kw.value for kw in node.keywords if kw.arg == "seed"]
            for seed in seeds[:1]:
                if isinstance(seed, ast.Constant) and seed.value is not None:
                    yield Finding(
                        "LDP-R001",
                        ctx.display,
                        node.lineno,
                        node.col_offset,
                        f"hard-coded RNG seed default_rng({seed.value!r}) in "
                        "library code — accept a seed/Generator parameter",
                    )


def _check_epsilon_flow(ctx: _FileContext) -> Iterator[Finding]:
    """LDP-R002 — exp(epsilon) outside repro.privacy + unvalidated epsilon."""
    if _is_exempt(ctx, EXEMPT_LIBRARY_DIRS):
        return
    in_privacy = bool(ctx.parts) and ctx.parts[0] == "privacy"
    if not in_privacy:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = _dotted(node.func)
            if func not in ("math.exp", "np.exp", "numpy.exp", "exp"):
                continue
            if any(_mentions_epsilon(arg) for arg in node.args):
                yield Finding(
                    "LDP-R002",
                    ctx.display,
                    node.lineno,
                    node.col_offset,
                    "raw exp(epsilon) arithmetic outside repro.privacy — use "
                    "PrivacyBudget.exp_epsilon / repro.privacy.budget.exp_epsilon",
                )
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                yield from _check_init_epsilon(ctx, node, item)


def _check_init_epsilon(
    ctx: _FileContext, cls: ast.ClassDef, init: ast.FunctionDef
) -> Iterator[Finding]:
    params = {arg.arg for arg in init.args.args + init.args.kwonlyargs}
    if "epsilon" not in params:
        return
    validated = False
    forwarded = False
    stored = False
    for node in ast.walk(init):
        if isinstance(node, ast.Call):
            callee = _last_component(_dotted(node.func))
            if callee in ("validate_epsilon", "PrivacyBudget", "from_exp_epsilon"):
                validated = True
            elif callee not in _CAST_FUNCS:
                values = list(node.args) + [kw.value for kw in node.keywords]
                if any(
                    isinstance(value, ast.Name) and value.id == "epsilon"
                    for value in values
                ):
                    forwarded = True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if node.value is not None and any(
                isinstance(target, ast.Attribute) for target in targets
            ):
                if any(
                    isinstance(sub, ast.Name) and sub.id == "epsilon"
                    for sub in ast.walk(node.value)
                ):
                    stored = True
    if stored and not (validated or forwarded):
        yield Finding(
            "LDP-R002",
            ctx.display,
            init.lineno,
            init.col_offset,
            f"{cls.name}.__init__ stores epsilon without routing it through "
            "validate_epsilon/PrivacyBudget (or a constructor that does)",
        )


def _check_write_path_purity(ctx: _FileContext) -> Iterator[Finding]:
    """LDP-R003 — write paths must not materialize or read estimates, and
    the mechanisms' per-user simulation goes through one route."""
    if ctx.parts[:1] == ("core",):
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "encode_batch"
            ):
                yield Finding(
                    "LDP-R003",
                    ctx.display,
                    node.lineno,
                    node.col_offset,
                    "repro/core calls 'encode_batch()' — per-user simulation "
                    "goes through the accumulator hook _add_items (one route)",
                )
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _WRITE_PATH_RE.match(node.name):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                receiver = sub.func.value
                if (
                    sub.func.attr in _READ_SURFACE_CALLS
                    and isinstance(receiver, ast.Name)
                    and receiver.id not in ("np", "numpy", "math")
                ):
                    yield Finding(
                        "LDP-R003",
                        ctx.display,
                        sub.lineno,
                        sub.col_offset,
                        f"write path {node.name}() calls read surface "
                        f"'{sub.func.attr}()' — writes must only touch "
                        "sufficient statistics (PR 5 lazy contract)",
                    )
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in _ESTIMATE_ATTRS
                and isinstance(sub.ctx, ast.Load)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                yield Finding(
                    "LDP-R003",
                    ctx.display,
                    sub.lineno,
                    sub.col_offset,
                    f"write path {node.name}() reads estimate attribute "
                    f"'{sub.attr}' — estimates are stale until materialize()",
                )


def _check_asyncio_discipline(ctx: _FileContext) -> Iterator[Finding]:
    """LDP-R004 — event-loop blocking and discarded async results."""
    if _is_exempt(ctx, frozenset({"devtools"})):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield from _check_async_body(ctx, node)


def _check_async_body(ctx: _FileContext, func: ast.AsyncFunctionDef) -> Iterator[Finding]:
    # Nested sync defs/lambdas are (typically) shipped to executors, where
    # blocking is the point; nested async defs get their own visit.
    prune = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    for node in _walk_pruned(func, prune):
        if isinstance(node, ast.Expr):
            inner = node.value
            awaited = isinstance(inner, ast.Await)
            call = inner.value if isinstance(inner, ast.Await) else inner
            if isinstance(call, ast.Call):
                callee = _last_component(_dotted(call.func))
                if callee == "create_task" and not awaited:
                    yield Finding(
                        "LDP-R004",
                        ctx.display,
                        node.lineno,
                        node.col_offset,
                        f"{func.name}() discards the create_task() handle — "
                        "keep a reference so failures surface and the task "
                        "is not garbage-collected",
                    )
                if callee == "gather" and any(
                    kw.arg == "return_exceptions"
                    and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                    for kw in call.keywords
                ):
                    yield Finding(
                        "LDP-R004",
                        ctx.display,
                        node.lineno,
                        node.col_offset,
                        f"{func.name}() discards the result of "
                        "gather(..., return_exceptions=True) — collected "
                        "exceptions are silently swallowed",
                    )
        if not isinstance(node, ast.Call):
            continue
        func_name = _dotted(node.func)
        if func_name == "time.sleep":
            yield Finding(
                "LDP-R004",
                ctx.display,
                node.lineno,
                node.col_offset,
                f"blocking time.sleep() inside async {func.name}() — use "
                "await asyncio.sleep()",
            )
        elif func_name == "os.system" or (func_name or "").startswith("subprocess."):
            yield Finding(
                "LDP-R004",
                ctx.display,
                node.lineno,
                node.col_offset,
                f"blocking subprocess call inside async {func.name}() — use "
                "asyncio subprocess APIs or an executor",
            )
        elif func_name == "open":
            yield Finding(
                "LDP-R004",
                ctx.display,
                node.lineno,
                node.col_offset,
                f"synchronous file I/O inside async {func.name}() — run it "
                "in an executor",
            )
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr == "result" and not node.args and not node.keywords:
                yield Finding(
                    "LDP-R004",
                    ctx.display,
                    node.lineno,
                    node.col_offset,
                    f"blocking .result() inside async {func.name}() — await "
                    "the future instead",
                )
            elif node.func.attr in _BLOCKING_IO_ATTRS:
                yield Finding(
                    "LDP-R004",
                    ctx.display,
                    node.lineno,
                    node.col_offset,
                    f"synchronous file I/O '.{node.func.attr}()' inside async "
                    f"{func.name}() — run it in an executor",
                )


def _check_persist_coverage(ctx: _FileContext, facts: _ProjectFacts) -> Iterator[Finding]:
    """LDP-R005 — snapshot hook pairing + persist config-kind registration."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = facts.classes.get(node.name)
        if info is None or info.path != ctx.display:
            continue
        if info.defines_state_dict != info.defines_load_state_dict:
            missing = (
                "load_state_dict" if info.defines_state_dict else "state_dict"
            )
            present = "state_dict" if info.defines_state_dict else "load_state_dict"
            yield Finding(
                "LDP-R005",
                ctx.display,
                node.lineno,
                node.col_offset,
                f"{node.name} defines {present} but not {missing} — snapshot "
                "hooks must round-trip",
            )


def _check_persist_registration(facts: _ProjectFacts) -> Iterator[Finding]:
    if not facts.has_persist_registry:
        return
    # The root mechanism snapshots its collected state, so every concrete
    # mechanism below it does.
    children: Dict[str, List[str]] = {}
    for info in facts.classes.values():
        for base in info.bases:
            children.setdefault(base, []).append(info.name)
    mechanisms: Set[str] = set()
    frontier = [_MECHANISM_BASE]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child not in mechanisms:
                mechanisms.add(child)
                frontier.append(child)
    for name in sorted(mechanisms):
        info = facts.classes[name]
        if info.is_abstract or name in facts.persist_registry_names:
            continue
        yield Finding(
            "LDP-R005",
            info.path,
            info.line,
            0,
            f"mechanism {name} snapshots state but is not registered "
            "with a persist config kind (list it in the kind table of "
            "repro/persist/snapshots.py)",
        )


def _check_exception_discipline(ctx: _FileContext) -> Iterator[Finding]:
    """LDP-R006 — bare stdlib exceptions on query/ingest paths."""
    if _is_exempt(ctx, EXEMPT_LIBRARY_DIRS):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = _dotted(exc.func) if isinstance(exc, ast.Call) else _dotted(exc)
        last = _last_component(name)
        if last in _BARE_EXCEPTIONS:
            yield Finding(
                "LDP-R006",
                ctx.display,
                node.lineno,
                node.col_offset,
                f"bare {last} raised on a library path — raise the matching "
                "repro.exceptions type (they subclass ValueError/RuntimeError, "
                "so callers keep working)",
            )


def _check_http_transport(ctx: _FileContext) -> Iterator[Finding]:
    """LDP-R008 — imports of a second HTTP stack."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            package, _, submodule = module.partition(".")
            if _HTTP_STACKS.get(package) == submodule.partition(".")[0]:
                yield Finding(
                    "LDP-R008",
                    ctx.display,
                    node.lineno,
                    node.col_offset,
                    f"imports '{package}.{_HTTP_STACKS[package]}' — the service "
                    "has one HTTP transport (ServiceClient, ReproHttpServer); "
                    "a second stack would bypass its retry rule and strict framing",
                )
                break


# ----------------------------------------------------------------------
# Project fact collection
# ----------------------------------------------------------------------
def _is_abstract_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if _last_component(_dotted(base)) in _ABSTRACT_BASES:
            return True
    for keyword in node.keywords:
        if keyword.arg == "metaclass":
            if _last_component(_dotted(keyword.value)) in _ABSTRACT_BASES:
                return True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in item.decorator_list:
                if _last_component(_dotted(decorator)) in (
                    "abstractmethod",
                    "abstractproperty",
                ):
                    return True
    return False


def _project_facts(contexts: Sequence[_FileContext]) -> _ProjectFacts:
    facts = _ProjectFacts()
    for ctx in contexts:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                methods = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                bases = tuple(
                    component
                    for component in (
                        _last_component(_dotted(base)) for base in node.bases
                    )
                    if component is not None
                )
                facts.classes[node.name] = _ClassInfo(
                    name=node.name,
                    bases=bases,
                    defines_state_dict="state_dict" in methods,
                    defines_load_state_dict="load_state_dict" in methods,
                    is_abstract=_is_abstract_class(node),
                    path=ctx.display,
                    line=node.lineno,
                )
        if ctx.parts[-2:] == ("persist", "snapshots.py"):
            facts.has_persist_registry = True
            # The kind table: module-level dicts (displays or comprehensions).
            for statement in ctx.tree.body:
                if isinstance(statement, (ast.Assign, ast.AnnAssign)) and isinstance(
                    statement.value, (ast.Dict, ast.DictComp)
                ):
                    for node in ast.walk(statement.value):
                        if isinstance(node, ast.Name):
                            facts.persist_registry_names.add(node.id)
                        elif isinstance(node, ast.Attribute):
                            facts.persist_registry_names.add(node.attr)
    return facts


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _display_path(path: Path) -> str:
    parts = _package_parts(path)
    if parts is not path.parts:
        return "/".join(("repro",) + parts)
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _load_context(path: Path) -> Tuple[Optional[_FileContext], Optional[Finding]]:
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as error:
        return None, Finding(PARSE_RULE, display, 1, 0, f"cannot parse file: {error}")
    return (
        _FileContext(
            path=path,
            display=display,
            parts=_package_parts(path),
            lines=source.splitlines(),
            tree=tree,
        ),
        None,
    )


def _suppressed(finding: Finding, ctx: Optional[_FileContext]) -> bool:
    if ctx is None or not 1 <= finding.line <= len(ctx.lines):
        return False
    match = _NOQA_RE.search(ctx.lines[finding.line - 1])
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    wanted = {rule.strip().upper() for rule in rules.split(",") if rule.strip()}
    return finding.rule.upper() in wanted


def lint_paths(
    paths: Sequence[Path],
    baseline: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], Dict[str, int]]:
    """Lint every ``*.py`` file under ``paths``.

    Returns the unsuppressed findings (sorted by location) plus counter
    statistics (files checked, noqa-suppressed, baseline-matched).
    ``baseline`` is a collection of finding fingerprints to ignore; each
    entry forgives at most one occurrence.
    """
    contexts: List[_FileContext] = []
    findings: List[Finding] = []
    for path in _iter_python_files(paths):
        ctx, parse_error = _load_context(path)
        if parse_error is not None:
            findings.append(parse_error)
        if ctx is not None:
            contexts.append(ctx)

    facts = _project_facts(contexts)
    by_display = {ctx.display: ctx for ctx in contexts}
    for ctx in contexts:
        findings.extend(_check_rng_hygiene(ctx))
        findings.extend(_check_epsilon_flow(ctx))
        findings.extend(_check_write_path_purity(ctx))
        findings.extend(_check_asyncio_discipline(ctx))
        findings.extend(_check_persist_coverage(ctx, facts))
        findings.extend(_check_exception_discipline(ctx))
        findings.extend(_check_http_transport(ctx))
    findings.extend(_check_persist_registration(facts))

    stats = {"files": len(contexts), "suppressed": 0, "baselined": 0}
    remaining: List[Finding] = []
    budget: Dict[str, int] = {}
    for fingerprint in baseline or ():
        budget[fingerprint] = budget.get(fingerprint, 0) + 1
    for finding in findings:
        if _suppressed(finding, by_display.get(finding.path)):
            stats["suppressed"] += 1
            continue
        if budget.get(finding.fingerprint, 0) > 0:
            budget[finding.fingerprint] -= 1
            stats["baselined"] += 1
            continue
        remaining.append(finding)
    remaining.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return remaining, stats


# ----------------------------------------------------------------------
# Baseline handling
# ----------------------------------------------------------------------
def load_baseline(path: Path) -> List[str]:
    """Read a baseline file and return the grandfathered fingerprints."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "findings" not in payload:
        raise SystemExit(f"lint: malformed baseline file {path}")
    fingerprints: List[str] = []
    for entry in payload["findings"]:
        fingerprints.append(
            "{path}::{rule}::{message}".format(
                path=entry["path"], rule=entry["rule"], message=entry["message"]
            )
        )
    return fingerprints


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    payload = {
        "version": 1,
        "comment": "Grandfathered `repro lint` findings; drain to empty, "
        "never grow. Regenerate with --write-baseline.",
        "findings": [
            {"path": f.path, "rule": f.rule, "message": f.message}
            for f in findings
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="AST-based DP-contract linter for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="JSON baseline of grandfathered findings to ignore",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the current findings as a new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _default_paths() -> List[Path]:
    return [Path(__file__).resolve().parents[1]]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro lint``; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0
    paths = [Path(p) for p in args.paths] or _default_paths()
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    fingerprints: List[str] = []
    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"lint: baseline file not found: {args.baseline}", file=sys.stderr)
            return 2
        fingerprints = load_baseline(args.baseline)
    findings, stats = lint_paths(paths, baseline=fingerprints)
    if args.write_baseline is not None:
        write_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}")
        return 0
    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [
                        {
                            "rule": f.rule,
                            "path": f.path,
                            "line": f.line,
                            "col": f.col,
                            "message": f.message,
                        }
                        for f in findings
                    ],
                    "files_checked": stats["files"],
                    "suppressed": stats["suppressed"],
                    "baselined": stats["baselined"],
                    "exit_code": 1 if findings else 0,
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        summary = (
            f"checked {stats['files']} file(s): {len(findings)} finding(s), "
            f"{stats['suppressed']} noqa-suppressed, {stats['baselined']} baselined"
        )
        print(summary)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via `python -m repro lint`
    raise SystemExit(main())
