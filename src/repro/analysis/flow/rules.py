"""The D-series project rules: flow-checked runtime invariants.

====  ========  ===========================================================
id    severity  finding
====  ========  ===========================================================
D001  error     cache-key completeness: a result-affecting solver knob or
                policy field does not flow into ``solve_fingerprint`` /
                ``cache_token``
D002  error     process-pool purity: a callable submitted to
                ``run_parallel`` is not a pure top-level function
D003  error     determinism: unordered ``set`` iteration or unseeded RNG on
                a path that reaches a ``Solution``, report table, or cache
                record
D004  error     facade integrity: a ``repro.api`` export does not resolve,
                or consumer code deep-imports a blessed symbol
====  ========  ===========================================================

Unlike the per-file C-rules, these run over the whole scanned file set at
once (see :mod:`repro.analysis.flow`), so they can follow imports: D001
traces the options mapping through ``Model.solve`` into the fingerprint
call, D002 resolves the worker function a sweep submits (including through
``functools.partial``), D003 combines set-typing with call-graph
reachability to sinks, and D004 walks the facade's re-export chains.

Every rule is structural, not name-list driven: seeding a regression (e.g.
deleting the ``cache_token`` branch in ``runtime/cache.py``) turns the
corresponding rule red — that property is pinned by tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    ignored_rules_for_lines,
    node_waiver_span,
)
from repro.analysis.flow.callgraph import CallGraph, build_call_graph
from repro.analysis.flow.dataflow import function_origins
from repro.analysis.flow.project import ModuleInfo, Project, load_project

#: Final-name components whose definitions count as determinism sinks: a
#: value iterated in nondeterministic order in a function that can reach
#: one of these ends up in a solver result, a cache record, or a report.
SINK_NAMES = frozenset(
    {"Solution", "CacheRecord", "Table", "format_table", "solve_fingerprint", "matrix_fingerprint"}
)

#: Methods that mutate their receiver (D002 worker purity).
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
    }
)


@dataclass(frozen=True)
class FlowFinding:
    """One raw rule hit, pre-waiver: where plus what."""

    module: ModuleInfo
    node: ast.AST | None
    message: str
    hint: str = ""


class ProjectRule:
    """One whole-project check; yields :class:`FlowFinding` objects."""

    rule_id: str = "D000"
    title: str = ""

    def check(self, project: Project, graph: CallGraph) -> Iterable[FlowFinding]:
        raise NotImplementedError


# --------------------------------------------------------------------- helpers
def _walk_functions(project: Project) -> Iterator[tuple[ModuleInfo, ast.FunctionDef | ast.AsyncFunctionDef]]:
    for module in project:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node


def _references_cache_token(node: ast.AST) -> bool:
    """Does ``node`` read a ``cache_token`` attribute (incl. via getattr)?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == "cache_token":
            return True
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "getattr"
            and len(child.args) >= 2
            and isinstance(child.args[1], ast.Constant)
            and child.args[1].value == "cache_token"
        ):
            return True
    return False


def _self_attr_reads(node: ast.AST) -> set[str]:
    return {
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute)
        and isinstance(child.value, ast.Name)
        and child.value.id == "self"
        and isinstance(child.ctx, ast.Load)
    }


def _calls_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(child, ast.Call)
        and isinstance(child.func, ast.Name)
        and child.func.id == name
        for child in ast.walk(node)
    )


def _marked_untokened(value: ast.AST | None) -> bool:
    """Does a field's default carry ``{"token": False}`` metadata?"""
    return value is not None and any(
        isinstance(child, ast.Dict)
        and any(
            isinstance(key, ast.Constant)
            and key.value == "token"
            and isinstance(flag, ast.Constant)
            and flag.value is False
            for key, flag in zip(child.keys, child.values)
        )
        for child in ast.walk(value)
    )


def _token_fields(cls: ast.ClassDef) -> set[str]:
    """The annotated fields of a class body not marked ``token=False``."""
    return {
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and not _marked_untokened(stmt.value)
    }


class CacheKeyCompleteness(ProjectRule):
    """D001 — every result-affecting knob must reach the cache key.

    Three structural sub-checks, each anchored on a definition found by
    shape (so fixtures and the real tree are checked identically):

    1. **token protocol** — the module defining ``solve_fingerprint`` must,
       somewhere reachable from it, honor the option ``cache_token``
       protocol (an attribute read or ``getattr(..., "cache_token")``);
    2. **solve plumbing** — in any function that both computes a
       fingerprint and forwards a ``**options`` mapping to a backend, the
       taint roots flowing into *any* other call (the solver dispatch) must
       be a subset of the roots hashed into the key: a new solver kwarg
       that skips the fingerprint turns this red;
    3. **protocol completeness** — in a class exposing ``cache_token``
       alongside an options-producing method (``backend_options`` on a
       policy, ``request_options`` on a request), every field the producer
       reads must either land in the returned options mapping (hashed
       generically) or be read by ``cache_token``. A class may inherit
       ``cache_token`` from a base in the scanned tree; when the base
       derives it from ``dataclasses.fields``, the token reads every
       annotated field of the class body except those whose metadata
       says ``token=False``.
    """

    rule_id = "D001"
    title = "cache-key completeness (knob does not reach solve_fingerprint)"

    def check(self, project: Project, graph: CallGraph) -> Iterable[FlowFinding]:
        yield from self._check_token_protocol(project, graph)
        yield from self._check_solve_plumbing(project, graph)
        yield from self._check_policy_class(project)

    # ------------------------------------------------------- 1: token protocol
    def _check_token_protocol(self, project: Project, graph: CallGraph) -> Iterator[FlowFinding]:
        for module in project:
            binding = module.binding("solve_fingerprint")
            if binding is None or binding.kind != "func":
                continue
            qname = f"{module.name}.solve_fingerprint"
            for reached in graph.reachable(qname):
                info = graph.definitions.get(reached)
                if info is not None and _references_cache_token(info.node):
                    break
            else:
                yield FlowFinding(
                    module,
                    binding.node,
                    "solve_fingerprint ignores the option cache_token protocol: no "
                    "function reachable from it reads `.cache_token`",
                    "canonicalize option values via their cache_token() (see "
                    "repro.runtime.fingerprint.cache_token_of); without it a "
                    "SolvePolicy- or SolveRequest-valued option aliases solves "
                    "with different effective budgets",
                )

    # ------------------------------------------------------- 2: solve plumbing
    def _fingerprint_calls(
        self, project: Project, module: ModuleInfo, fn: ast.AST
    ) -> list[ast.Call]:
        calls = []
        for child in ast.walk(fn):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if isinstance(func, ast.Name):
                resolved = project.resolve_name(module, func.id)
                if resolved.name == "solve_fingerprint" or (
                    resolved.external or ""
                ).endswith(":solve_fingerprint"):
                    calls.append(child)
            elif isinstance(func, ast.Attribute) and func.attr in ("fingerprint", "solve_fingerprint"):
                calls.append(child)
        return calls

    def _check_solve_plumbing(self, project: Project, graph: CallGraph) -> Iterator[FlowFinding]:
        for module, fn in _walk_functions(project):
            fp_calls = self._fingerprint_calls(project, module, fn)
            if not fp_calls:
                continue
            origins = function_origins(fn)
            if origins.var_keyword is None:
                continue  # no catch-all knob mapping to audit here
            kwarg_root = f"param:{origins.var_keyword}"
            hashed: set[str] = set()
            for call in fp_calls:
                hashed |= origins.call_param_origins(call)
            if kwarg_root not in hashed:
                yield FlowFinding(
                    module,
                    fn,
                    f"{fn.name}() computes a cache fingerprint but its "
                    f"**{origins.var_keyword} backend options never flow into it",
                    "hash the same options mapping you forward to the backend "
                    "(solve_fingerprint(form, backend=..., options=...))",
                )
                continue
            if "policy" in origins.params and "param:policy" not in hashed:
                yield FlowFinding(
                    module,
                    fn,
                    f"{fn.name}() takes a policy but the policy does not "
                    "contribute to the cache fingerprint",
                    "fold policy.backend_options() and/or policy.cache_token() "
                    "into the hashed options mapping — a truncated solve must "
                    "never be replayed for an uncapped request",
                )
            allowed = hashed | {"param:self"}
            fp_set = set(fp_calls)
            for child in ast.walk(fn):
                if not isinstance(child, ast.Call) or child in fp_set:
                    continue
                roots = origins.call_param_origins(child)
                if kwarg_root not in roots:
                    continue
                leaked = sorted(root[len("param:"):] for root in roots - allowed)
                if leaked:
                    yield FlowFinding(
                        module,
                        child,
                        f"solver dispatch in {fn.name}() receives parameter(s) "
                        f"{leaked} that are not part of the cache fingerprint",
                        "any knob that can change what a solve returns must be "
                        "hashed into the key (add it to the options mapping "
                        "before the fingerprint is computed)",
                    )

    # ------------------------------------------------- 3: protocol completeness
    #: Methods whose self-attribute reads shape a solve and therefore must
    #: be covered by the class's ``cache_token`` (or land in the returned,
    #: generically hashed options mapping). ``backend_options`` is the
    #: policy shape, ``request_options`` the unified-request shape.
    OPTION_PRODUCERS = ("backend_options", "request_options")

    def _check_policy_class(self, project: Project) -> Iterator[FlowFinding]:
        for module in project:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                methods = {
                    stmt.name: stmt
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                token_reads = self._token_reads(project, module, node, methods)
                if token_reads is None:
                    continue
                for producer_name in self.OPTION_PRODUCERS:
                    producer = methods.get(producer_name)
                    if producer is None:
                        continue
                    covered = self._dict_covered_fields(producer)
                    for attr in sorted(_self_attr_reads(producer)):
                        if attr in token_reads or attr in covered:
                            continue
                        yield FlowFinding(
                            module,
                            producer,
                            f"{node.name}.{attr} shapes the solve in "
                            f"{producer_name}() but reaches neither the returned "
                            "options mapping nor cache_token()",
                            "store it into the returned options dict (hashed "
                            "generically) or add it to cache_token() (for a "
                            "derived token: drop its token=False mark)",
                        )

    def _token_reads(
        self, project: Project, module: ModuleInfo, cls: ast.ClassDef, methods: dict
    ) -> set[str] | None:
        """Fields the class's own or inherited ``cache_token`` reads, or
        None when it has none."""
        if "cache_token" in methods:
            return _self_attr_reads(methods["cache_token"])
        for base in cls.bases:
            if not isinstance(base, ast.Name):
                continue
            resolved = project.resolve_name(module, base.id)
            if not isinstance(resolved.node, ast.ClassDef):
                continue
            for stmt in resolved.node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "cache_token":
                    reads = _self_attr_reads(stmt)
                    if _calls_name(stmt, "fields"):
                        reads |= _token_fields(cls)
                    return reads
        return None

    def _dict_covered_fields(self, method: ast.AST) -> set[str]:
        """Fields stored into a dict that the method returns."""
        returned = {
            stmt.value.id
            for stmt in ast.walk(method)
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name)
        }
        covered: set[str] = set()
        for stmt in ast.walk(method):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Subscript)
                and isinstance(stmt.targets[0].value, ast.Name)
                and stmt.targets[0].value.id in returned
            ):
                covered |= _self_attr_reads(stmt.value)
        return covered


class ProcessPoolPurity(ProjectRule):
    """D002 — callables crossing the process-pool boundary must be pure.

    ``run_parallel`` pickles its worker into separate processes: the worker
    must be a *top-level* function (picklable by qualified name), must not
    write module globals (each process has its own copy — silent divergence),
    and must not be a lambda, nested function, or bound method (closures and
    instances smuggle unpicklable or mutable shared state).
    """

    rule_id = "D002"
    title = "impure or non-top-level callable submitted to the process pool"

    def check(self, project: Project, graph: CallGraph) -> Iterable[FlowFinding]:
        for module in project:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call) and self._is_submission(project, module, node):
                    yield from self._check_submission(project, module, node)

    def _is_submission(self, project: Project, module: ModuleInfo, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            resolved = project.resolve_name(module, func.id)
        elif isinstance(func, ast.Attribute):
            resolved = project.resolve_attribute(module, func)
        else:
            return False
        if resolved.name == "run_parallel":
            return True
        return bool(resolved.external) and resolved.external.endswith(":run_parallel")

    def _worker_expr(self, call: ast.Call) -> ast.AST | None:
        for keyword in call.keywords:
            if keyword.arg == "fn":
                return keyword.value
        return call.args[0] if call.args else None

    def _check_submission(
        self, project: Project, module: ModuleInfo, call: ast.Call
    ) -> Iterator[FlowFinding]:
        worker = self._worker_expr(call)
        if worker is None:
            return
        yield from self._check_worker(project, module, call, worker)

    def _check_worker(
        self, project: Project, module: ModuleInfo, site: ast.Call, worker: ast.AST
    ) -> Iterator[FlowFinding]:
        if isinstance(worker, ast.Lambda):
            yield FlowFinding(
                module,
                site,
                "lambda submitted to the process pool",
                "workers are pickled by qualified name; define a top-level "
                "function and pass inputs through the payload",
            )
            return
        if isinstance(worker, ast.Call):
            from repro.analysis.flow.callgraph import _is_partial

            if _is_partial(project, module, worker) and worker.args:
                yield from self._check_worker(project, module, site, worker.args[0])
                return
            yield FlowFinding(
                module,
                site,
                "process-pool worker built by a call expression is not statically "
                "resolvable to a top-level function",
                "submit a top-level function (functools.partial over one is fine)",
            )
            return
        if isinstance(worker, ast.Attribute):
            resolved = project.resolve_attribute(module, worker)
            if resolved.module is not None and isinstance(
                resolved.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield from self._check_purity(resolved.module, resolved.node, module, site)
                return
            yield FlowFinding(
                module,
                site,
                f"process-pool worker `{ast.unparse(worker)}` looks like a bound "
                "method or unresolvable attribute",
                "bound methods drag their instance across the pickle boundary; "
                "submit a top-level function",
            )
            return
        if isinstance(worker, ast.Name):
            if module.binding(worker.id) is None:
                # Not a module-level name at the call site: a local variable,
                # nested def, or lambda — none are pool-safe statically.
                yield FlowFinding(
                    module,
                    site,
                    f"process-pool worker `{worker.id}` is not a top-level "
                    "function (local variable, nested def, or lambda)",
                    "define the worker at module scope so it pickles by "
                    "qualified name and cannot close over mutable state",
                )
                return
            resolved = project.resolve_name(module, worker.id)
            if resolved.module is not None and isinstance(
                resolved.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                binding = resolved.module.binding(resolved.name or "")
                if binding is not None and binding.node is resolved.node:
                    yield from self._check_purity(resolved.module, resolved.node, module, site)
            # Anything else resolved through the import table (an external
            # library function, a module-level alias) is accepted: it pickles
            # by qualified name even if we cannot audit its body.

    def _check_purity(
        self,
        def_module: ModuleInfo,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        site_module: ModuleInfo,
        site: ast.Call,
    ) -> Iterator[FlowFinding]:
        local_names = {arg.arg for arg in [
            *fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs,
            *( [fn.args.vararg] if fn.args.vararg else [] ),
            *( [fn.args.kwarg] if fn.args.kwarg else [] ),
        ]}
        for child in ast.walk(fn):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                local_names.add(child.id)
        def is_module_global(name: str) -> bool:
            return name not in local_names and def_module.binding(name) is not None

        for child in ast.walk(fn):
            if isinstance(child, ast.Global):
                yield FlowFinding(
                    site_module,
                    site,
                    f"pool worker {fn.name}() declares `global "
                    f"{', '.join(child.names)}` — each worker process mutates "
                    "its own copy",
                    "pass state through the payload and return results; module "
                    "globals silently diverge across processes",
                )
            elif isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for target in targets:
                    root = target
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if isinstance(root, ast.Name) and is_module_global(root.id):
                        yield FlowFinding(
                            site_module,
                            site,
                            f"pool worker {fn.name}() writes module-level state "
                            f"`{root.id}`",
                            "worker processes do not share memory with the "
                            "parent; mutations are lost or diverge",
                        )
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in MUTATOR_METHODS
                and isinstance(child.func.value, ast.Name)
                and is_module_global(child.func.value.id)
            ):
                yield FlowFinding(
                    site_module,
                    site,
                    f"pool worker {fn.name}() mutates module-level container "
                    f"`{child.func.value.id}.{child.func.attr}(...)`",
                    "worker processes do not share memory with the parent; "
                    "mutations are lost or diverge",
                )


class DeterminismDiscipline(ProjectRule):
    """D003 — no unordered iteration or unseeded RNG on result paths.

    Python ``set`` iteration order depends on insertion history and (for
    strings) the per-process hash seed: two runs — or two pool workers — can
    legitimately disagree. That is harmless in a membership test, fatal in
    anything that reaches a :class:`Solution`, a report table, or a cache
    record, because the runtime layer promises those are byte-identical
    across runs. The rule infers set-typed expressions per function, flags
    order-*sensitive* consumption (``for``, comprehensions, ``list(...)``,
    ``join``) without a ``sorted(...)`` step, and only fires when the
    enclosing function can reach a sink in the call graph. Unseeded RNG
    (``make_rng()`` / ``default_rng()`` with no seed) on the same paths is
    flagged for the same reason.
    """

    rule_id = "D003"
    title = "nondeterministic set iteration / unseeded RNG reaches solver output"

    _SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference", "copy"}
    )

    def check(self, project: Project, graph: CallGraph) -> Iterable[FlowFinding]:
        sinks = {
            qname
            for qname in graph.definitions
            if qname.rpartition(".")[2] in SINK_NAMES
        }
        for module, fn in _walk_functions(project):
            qname = graph.qname_of(fn)
            if qname is None or qname in sinks:
                continue
            if not graph.reaches_any(qname, sinks):
                continue
            local_sets = self._local_sets(module, fn)
            yield from self._check_iterations(module, fn, local_sets)
            yield from self._check_rng(project, module, fn)

    # ------------------------------------------------------------ set typing
    def _module_set_constants(self, module: ModuleInfo) -> set[str]:
        constants: set[str] = set()
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and self._is_setty(stmt.value, set(), set()):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        constants.add(target.id)
        return constants

    def _is_setty(self, expr: ast.AST, local_sets: set[str], module_sets: set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in self._SET_METHODS
                and self._is_setty(expr.func.value, local_sets, module_sets)
            ):
                return True
            return False
        if isinstance(expr, ast.Name):
            return expr.id in local_sets or expr.id in module_sets
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_setty(expr.left, local_sets, module_sets) or self._is_setty(
                expr.right, local_sets, module_sets
            )
        return False

    def _local_sets(self, module: ModuleInfo, fn: ast.AST) -> set[str]:
        module_sets = self._module_set_constants(module)
        local_sets: set[str] = set()
        for _ in range(2):  # two sweeps resolve simple chains
            for child in ast.walk(fn):
                if isinstance(child, ast.Assign) and self._is_setty(
                    child.value, local_sets, module_sets
                ):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            local_sets.add(target.id)
        return local_sets | module_sets

    # ------------------------------------------------------------- iteration
    def _check_iterations(
        self, module: ModuleInfo, fn: ast.AST, sets: set[str]
    ) -> Iterator[FlowFinding]:
        module_sets: set[str] = set()  # folded into ``sets`` already
        hint = (
            "set iteration order varies with insertion history and the hash "
            "seed; wrap the set in sorted(...) before it can influence a "
            "Solution, table, or cache record"
        )

        def setty(expr: ast.AST) -> bool:
            return self._is_setty(expr, sets, module_sets)

        for child in ast.walk(fn):
            if isinstance(child, ast.For) and setty(child.iter):
                yield FlowFinding(
                    module, child, "iteration over an unordered set on a result path", hint
                )
            elif isinstance(child, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for gen in child.generators:
                    if setty(gen.iter):
                        yield FlowFinding(
                            module,
                            child,
                            "comprehension over an unordered set on a result path",
                            hint,
                        )
            elif isinstance(child, ast.Call):
                if (
                    isinstance(child.func, ast.Name)
                    and child.func.id in ("list", "tuple")
                    and len(child.args) == 1
                    and setty(child.args[0])
                ):
                    yield FlowFinding(
                        module,
                        child,
                        f"{child.func.id}() over an unordered set on a result path",
                        hint,
                    )
                elif (
                    isinstance(child.func, ast.Attribute)
                    and child.func.attr == "join"
                    and len(child.args) == 1
                    and setty(child.args[0])
                ):
                    yield FlowFinding(
                        module,
                        child,
                        "str.join over an unordered set on a result path",
                        hint,
                    )

    # -------------------------------------------------------------------- rng
    def _check_rng(
        self, project: Project, module: ModuleInfo, fn: ast.AST
    ) -> Iterator[FlowFinding]:
        for child in ast.walk(fn):
            if not isinstance(child, ast.Call):
                continue
            name = None
            if isinstance(child.func, ast.Name):
                resolved = project.resolve_name(module, child.func.id)
                name = resolved.name or (resolved.external or "").rpartition(":")[2]
            elif isinstance(child.func, ast.Attribute):
                name = child.func.attr
            if name not in ("make_rng", "default_rng"):
                continue
            unseeded = not child.args or (
                isinstance(child.args[0], ast.Constant) and child.args[0].value is None
            )
            if unseeded and not child.keywords:
                yield FlowFinding(
                    module,
                    child,
                    f"unseeded {name}() on a path that reaches solver output",
                    "thread an explicit seed (or a caller-provided Generator) so "
                    "re-runs and cache validation reproduce bit-identical results",
                )


class FacadeIntegrity(ProjectRule):
    """D004 — the ``repro.api`` facade is complete and actually used.

    Two directions: every facade import/``__all__`` entry must resolve to a
    real definition (a renamed internal silently breaks every downstream
    consumer at import time — of the *facade*, so the break surfaces far
    from the rename), and consumer code outside the package (benchmarks,
    scripts; examples are already held by C005) must not deep-import a
    symbol the facade blesses — otherwise the facade stops being the
    compatibility surface it claims to be.
    """

    rule_id = "D004"
    title = "facade export does not resolve / consumer bypasses the facade"

    def check(self, project: Project, graph: CallGraph) -> Iterable[FlowFinding]:
        api_modules = [
            module
            for module in project
            if (module.name == "api" or module.name.endswith(".api"))
            and module.dunder_all() is not None
        ]
        for api in api_modules:
            yield from self._check_exports(project, api)
        blessed: set[str] = set()
        root_packages: set[str] = set()
        for api in api_modules:
            blessed |= set(api.dunder_all() or ())
            root = api.name.rpartition(".")[0]
            if root:
                root_packages.add(root)
        if blessed:
            yield from self._check_consumers(project, blessed, root_packages)

    def _check_exports(self, project: Project, api: ModuleInfo) -> Iterator[FlowFinding]:
        for name, binding in sorted(api.bindings.items()):
            if binding.kind == "from":
                target = project.absolute_target(api, binding.node)  # type: ignore[arg-type]
                if project.module(target) is None and not any(
                    mod.name.startswith(target + ".") for mod in project
                ):
                    continue  # source module not scanned: out of scope
                resolved = project.resolve(target, binding.symbol or name)
                if resolved.is_external:
                    yield FlowFinding(
                        api,
                        binding.node,
                        f"facade import `{binding.symbol or name}` does not resolve "
                        f"in {target!r}",
                        "the internal was moved or renamed; every repro.api "
                        "export must point at a real definition",
                    )
        exported = api.dunder_all() or []
        for name in exported:
            if name not in api.bindings:
                yield FlowFinding(
                    api,
                    None,
                    f"__all__ exports {name!r} but the facade never binds it",
                    "add the import (or drop the export) so `from repro.api "
                    f"import {name}` cannot fail",
                )

    def _is_consumer(self, module: ModuleInfo, root_packages: set[str]) -> bool:
        stem = module.name.rpartition(".")[2]
        if stem.startswith("test_") or stem == "conftest":
            return False
        if module.name.startswith("tests.") or module.name == "tests":
            return False
        for root in root_packages:
            if module.name == root or module.name.startswith(root + "."):
                return False  # package internals must use internal imports
        return True

    def _check_consumers(
        self, project: Project, blessed: set[str], root_packages: set[str]
    ) -> Iterator[FlowFinding]:
        targets = root_packages or {""}
        for module in project:
            if not self._is_consumer(module, root_packages):
                continue
            for name, binding in sorted(module.bindings.items()):
                if binding.kind != "from" or binding.symbol not in blessed:
                    continue
                target = binding.target or ""
                if not any(target == root or target.startswith(root + ".") for root in targets):
                    continue
                if target.endswith(".api"):
                    continue
                yield FlowFinding(
                    module,
                    binding.node,
                    f"deep import of blessed symbol {binding.symbol!r} from "
                    f"{target!r}",
                    f"import it from the facade instead (from "
                    f"{next(iter(sorted(root_packages)), 'repro')}.api import "
                    f"{binding.symbol}); deep imports break when internals move",
                )


#: The default flow rule set, in reporting order.
FLOW_RULES: tuple[ProjectRule, ...] = (
    CacheKeyCompleteness(),
    ProcessPoolPurity(),
    DeterminismDiscipline(),
    FacadeIntegrity(),
)


def run_project_rules(
    project: Project,
    rules: Iterable[ProjectRule] | None = None,
    graph: CallGraph | None = None,
) -> LintReport:
    """Run ``rules`` (default: all D-rules) over ``project``.

    Inline ``# lint: ignore[D00x]`` waivers apply exactly as for the
    per-file rules, honoring the full source span of the flagged statement
    (decorators and multi-line statements included).
    """
    graph = graph if graph is not None else build_call_graph(project)
    report = LintReport()
    for rule in rules if rules is not None else FLOW_RULES:
        for finding in rule.check(project, graph):
            lineno = getattr(finding.node, "lineno", 0) if finding.node is not None else 0
            diagnostic = Diagnostic(
                rule.rule_id,
                Severity.ERROR,
                f"{finding.module.path}:{lineno}",
                finding.message,
                finding.hint,
            )
            start, end = node_waiver_span(finding.node) if finding.node is not None else (0, 0)
            ignored = ignored_rules_for_lines(finding.module.lines, start, end)
            if ignored is None or rule.rule_id in ignored:
                report.waived.append(diagnostic)
            else:
                report.add(diagnostic)
    return report


def lint_project(paths: Iterable[str]) -> LintReport:
    """Load ``paths`` into a project and run every flow rule."""
    from repro.analysis.code_lint import iter_python_files

    project = load_project(iter_python_files(paths))
    return run_project_rules(project)
