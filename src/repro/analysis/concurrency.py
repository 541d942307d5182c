"""CONC rule pack — data-plane and pool-dispatch invariants.

The worker pool and shared-memory plane keep their guarantees only when
call sites hold up their end: dispatched callables must cross process
boundaries (else the pool silently runs serial and the parallel paths
are never exercised), every published segment must be unlinked on all
paths (``SharedArrayStore`` owns that — provided it is used as a
context manager or owned by an object with a ``close`` lifecycle), raw
segment creation stays inside ``repro.parallel.shm`` (the single owner
of unlink bookkeeping), and attached views are never written (a write
would race with sibling workers reading the same bytes).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .astutil import call_chain, dotted_name, enclosing_function, first_arg
from .callgraph import own_body
from .core import Finding, Rule, register
from .symbols import SymbolInfo, module_path
from .walker import Project, SourceFile

__all__ = [
    "UnpicklableDispatchRule",
    "ShmLifecycleRule",
    "RawSegmentRule",
    "SharedViewMutationRule",
    "RawMatrixPublishRule",
]


def _parsed(source: SourceFile) -> bool:
    return source.tree is not None


def _module_level_defs(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _nested_defs(tree: ast.Module, parent_of) -> set[str]:
    nested: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if enclosing_function(node, parent_of) is not None:
                nested.add(node.name)
    return nested


def _lambda_bindings(tree: ast.Module) -> set[str]:
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


def _is_dispatch_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "parallel_map"
    if isinstance(func, ast.Attribute) and func.attr == "map":
        # `<receiver>.map(fn, items)` — process pools in this codebase;
        # the builtin map() is a bare Name and never matches.
        return not (
            isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")
        )
    return False


@register
class UnpicklableDispatchRule(Rule):
    """Pool-dispatched callables must be module-level picklable."""

    rule_id = "CONC001"
    name = "unpicklable-dispatch"
    rationale = (
        "WorkerPool.map / parallel_map fall back to serial, silently, when "
        "the callable cannot pickle; lambdas and nested defs therefore "
        "disable the very parallelism the call asks for."
    )

    def setup(self, project: Project) -> None:
        """Keep the project for cross-module target resolution."""
        self._project = project

    def applies_to(self, source: SourceFile) -> bool:
        """Everywhere — a silently-serial dispatch is a bug in any tree."""
        return _parsed(source)

    def _resolve_target(self, source: SourceFile, fn: ast.AST) -> Optional[SymbolInfo]:
        """Resolve a dispatched name through the symbol graph."""
        text = dotted_name(fn)
        if text is None:
            return None
        symbols = self._project.semantics.symbols
        return symbols.resolve_dotted(module_path(source.relpath), text)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Flag lambdas / nested defs handed to a pool dispatch.

        Local bindings are judged lexically; anything else is resolved
        through the project symbol graph, so a lambda or nested def
        reached through an import (or a package re-export) is caught at
        the dispatch site too.
        """
        tree = source.tree
        nested = _nested_defs(tree, source.parent)
        module_level = _module_level_defs(tree)
        lambdas = _lambda_bindings(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _is_dispatch_call(node)):
                continue
            fn = first_arg(node)
            if fn is None:
                continue
            if isinstance(fn, ast.Lambda):
                yield self.finding(
                    source,
                    fn,
                    "lambda dispatched through a process pool cannot pickle "
                    "and silently runs serial; hoist it to a module-level def",
                )
            elif isinstance(fn, ast.Name) and (
                fn.id in lambdas or (fn.id in nested and fn.id not in module_level)
            ):
                yield self.finding(
                    source,
                    fn,
                    f"`{fn.id}` is defined inside a function scope and "
                    "cannot pickle for pool dispatch; hoist it to module "
                    "level (or functools.partial of a module-level def)",
                )
            else:
                target = self._resolve_target(source, fn)
                if target is not None and not target.picklable_by_reference:
                    what = "a lambda" if target.kind == "lambda" else "a nested def"
                    yield self.finding(
                        source,
                        fn,
                        f"dispatch target resolves to `{target.qualname}`, "
                        f"{what} that cannot pickle for pool dispatch; it "
                        "silently runs serial — bind a module-level def",
                    )


@register
class ShmLifecycleRule(Rule):
    """``SharedArrayStore()`` must have an owned unlink path."""

    rule_id = "CONC002"
    name = "shm-lifecycle"
    rationale = (
        "a store constructed as a bare local can leak /dev/shm segments when "
        "an exception skips close(); construct it in a `with` block or assign "
        "it to an instance attribute of an object whose close() runs it."
    )

    #: Handoff depth for "a callee closes it" ownership transfer.
    _HANDOFF_DEPTH = 3

    def setup(self, project: Project) -> None:
        """Keep the project for interprocedural ownership checks."""
        self._project = project

    def applies_to(self, source: SourceFile) -> bool:
        """Everywhere except the defining module itself."""
        return _parsed(source) and not source.relpath.endswith("repro/parallel/shm.py")

    @staticmethod
    def _closes(stmts: Iterable[ast.AST], name: str) -> bool:
        """Whether ``<name>.close()`` / ``.unlink_all()`` appears here."""
        stack = list(stmts)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("close", "unlink_all")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False

    def _closed_in_finally(self, owner: ast.AST, name: str) -> bool:
        for node in own_body(owner):
            if isinstance(node, ast.Try) and self._closes(node.finalbody, name):
                return True
        return False

    def _callee_closes(
        self, source: SourceFile, owner: ast.AST, name: str, depth: int = 0
    ) -> bool:
        """Whether the store is handed to a project function that closes it.

        Follows the symbol graph through at most ``_HANDOFF_DEPTH``
        ownership transfers; anything unresolvable counts as *not*
        closed, so this only ever removes findings when ownership is
        provable.
        """
        if depth >= self._HANDOFF_DEPTH:
            return False
        symbols = self._project.semantics.symbols
        callgraph = self._project.semantics.callgraph
        module = module_path(source.relpath)
        for node in own_body(owner):
            if not isinstance(node, ast.Call):
                continue
            pos = next(
                (
                    i
                    for i, arg in enumerate(node.args)
                    if isinstance(arg, ast.Name) and arg.id == name
                ),
                None,
            )
            if pos is None:
                continue
            text = dotted_name(node.func)
            if text is None:
                continue
            target = symbols.resolve_dotted(module, text)
            if target is None:
                continue
            body = callgraph.callable_body(target)
            if body is None or body.symbol.node is None:
                continue
            fn_ast = body.symbol.node
            if not isinstance(fn_ast, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = [a.arg for a in fn_ast.args.posonlyargs + fn_ast.args.args]
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            if pos >= len(params):
                continue
            param = params[pos]
            if self._closes(fn_ast.body, param) or (
                body.symbol.source is not None
                and self._callee_closes(body.symbol.source, fn_ast, param, depth + 1)
            ):
                return True
        return False

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Flag bare-local construction of SharedArrayStore.

        Ownership is accepted when the store is (a) a ``with`` context,
        (b) assigned to a ``self`` attribute, (c) closed in a
        ``finally`` block of the constructing function, or (d) handed to
        a project function that provably closes it (call-graph check).
        """
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = call_chain(node)
            if chain is None or chain.split(".")[-1] != "SharedArrayStore":
                continue
            parent = source.parent(node)
            if isinstance(parent, ast.withitem):
                continue
            if isinstance(parent, ast.Assign) and all(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in parent.targets
            ):
                continue  # lifecycle owned by the enclosing object's close()
            if isinstance(parent, ast.Assign) and all(
                isinstance(t, ast.Name) for t in parent.targets
            ):
                owner = enclosing_function(node, source.parent) or source.tree
                names = [t.id for t in parent.targets if isinstance(t, ast.Name)]
                if all(
                    self._closed_in_finally(owner, n) or self._callee_closes(source, owner, n)
                    for n in names
                ):
                    continue
            yield self.finding(
                source,
                node,
                "SharedArrayStore() without an owned unlink path (no `with`, "
                "self-attribute, finally-close, or provable callee close); "
                "segments may leak if close() is skipped",
            )


@register
class RawSegmentRule(Rule):
    """Raw shared-memory segments are created only inside the shm module."""

    rule_id = "CONC003"
    name = "raw-shm-segment"
    rationale = (
        "repro.parallel.shm is the single owner of segment unlink "
        "bookkeeping; SharedMemory(create=True) anywhere else bypasses the "
        "always-unlinked guarantee (attaching with create=False is fine)."
    )

    def applies_to(self, source: SourceFile) -> bool:
        """Everywhere except the owning module."""
        return _parsed(source) and not source.relpath.endswith("repro/parallel/shm.py")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Flag ``SharedMemory(..., create=True, ...)`` calls."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = call_chain(node)
            if chain is None or chain.split(".")[-1] != "SharedMemory":
                continue
            creates = any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            if creates:
                yield self.finding(
                    source,
                    node,
                    "raw SharedMemory(create=True) outside repro.parallel.shm; "
                    "publish through a SharedArrayStore so the segment is "
                    "always unlinked",
                )


#: Call-chain tails that bind a binned (uint8) encoding of their first
#: positional argument.
_BINNING_TAILS = {"fit_transform", "_binned_matrix"}


@register
class RawMatrixPublishRule(Rule):
    """Publish the uint8 codes, not the float64 matrix they encode."""

    rule_id = "CONC005"
    name = "raw-matrix-publish"
    rationale = (
        "once a matrix has a binned uint8 encoding, shipping the float64 "
        "original through the shared-memory plane moves ~8x the bytes per "
        "worker for no information the histogram kernel can use; publish "
        "the BinnedMatrix codes and bin bounds instead."
    )

    def applies_to(self, source: SourceFile) -> bool:
        """Everywhere — dispatch helpers live in several trees."""
        return _parsed(source)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Flag ``publish(X)`` where the same function also binned ``X``."""
        # Per enclosing function: names whose binned encoding is computed
        # there by `<BinMapper()>.fit_transform(X)` or the engine's
        # `self._binned_matrix(X)` cache accessor, wherever the call sits
        # (an assignment, a call keyword, an if-expression).
        binned_sources: dict[ast.AST | None, set[str]] = {}
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            # Tail of the callee even through a call receiver, so
            # `BinMapper().fit_transform(X)` matches too.
            func = node.func
            tail = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if tail not in _BINNING_TAILS:
                continue
            arg = first_arg(node)
            if isinstance(arg, ast.Name):
                scope = enclosing_function(node, source.parent)
                binned_sources.setdefault(scope, set()).add(arg.id)
        if not binned_sources:
            return
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "publish"
            ):
                continue
            arg = first_arg(node)
            if not isinstance(arg, ast.Name):
                continue
            scope = enclosing_function(node, source.parent)
            if arg.id in binned_sources.get(scope, ()):
                yield self.finding(
                    source,
                    node,
                    f"`{arg.id}` has a binned uint8 encoding in this scope "
                    "but the float64 matrix is published to the pool; ship "
                    "the BinnedMatrix codes/bounds instead",
                )


_MUTATING_METHODS = {"fill", "sort", "put", "itemset", "partition", "resize", "setfield"}


@register
class SharedViewMutationRule(Rule):
    """Views returned by ``attach`` are read-only and must stay so."""

    rule_id = "CONC004"
    name = "shared-view-mutation"
    rationale = (
        "attach() maps the parent's segment read-only because sibling "
        "workers read the same bytes concurrently; writing through the view "
        "(or flipping writeable) is a data race on the fold inputs."
    )

    def applies_to(self, source: SourceFile) -> bool:
        """Everywhere — worker-side code lives in several trees."""
        return _parsed(source)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Flag writes to names bound from ``attach(...)``."""
        attached: set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                chain = call_chain(node.value)
                if chain is not None and chain.split(".")[-1] == "attach":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            attached.add(target.id)
        if not attached:
            return
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in attached
                        and base is not target
                    ):
                        yield self.finding(
                            source,
                            node,
                            f"write through `{base.id}`, a read-only shared "
                            "view from attach(); copy before mutating",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if (
                    node.func.attr in _MUTATING_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in attached
                ):
                    yield self.finding(
                        source,
                        node,
                        f"mutating method `.{node.func.attr}()` on a read-only "
                        "shared view from attach(); copy before mutating",
                    )
