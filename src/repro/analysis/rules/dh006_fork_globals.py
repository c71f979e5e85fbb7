"""DH006 — post-fork global mutation in parallel worker paths.

The trial executor (:mod:`repro.engine.parallel`) forks workers and
promises that a serial loop replays a parallel run seed-for-seed.  That
promise dies the moment a worker-path function mutates module-level
state: the mutation lands in one forked address space, the serial run
sees it accumulate across trials, and the two executions diverge.

In :attr:`AnalysisConfig.worker_modules` the rule flags, inside any
function:

* ``global`` declarations (rebinding a module name post-fork);
* assignments through a module-level name (``CACHE[k] = v``,
  ``CACHE.total = n``);
* mutating method calls on a module-level name (``CACHE.update(…)``,
  ``REGISTRY.append(…)``).

Module-level constants stay legal — only *mutation from function bodies*
is the hazard.  Worker state belongs on the spec/result objects that
cross the process boundary explicitly.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.config import module_matches
from repro.analysis.engine import FileContext, Finding

_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "discard",
    "clear",
    "extend",
    "extendleft",
    "insert",
    "__setitem__",
    "__delitem__",
}


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _base_name(node: ast.AST) -> str:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


class ForkGlobalRule:
    rule_id = "DH006"
    title = "post-fork global mutation in a worker path"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not module_matches(ctx.rel, ctx.config.worker_modules):
            return
        module_names = _module_level_names(ctx.tree)
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_names = self._local_bindings(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    yield Finding(
                        self.rule_id,
                        ctx.rel,
                        node.lineno,
                        node.col_offset,
                        f"global {', '.join(node.names)}: rebinding module "
                        "state in a worker path diverges forked workers from "
                        "the serial replay — thread state through "
                        "spec/result objects",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if not isinstance(target, (ast.Attribute, ast.Subscript)):
                            continue
                        base = _base_name(target)
                        if base in module_names and base not in local_names:
                            yield Finding(
                                self.rule_id,
                                ctx.rel,
                                node.lineno,
                                node.col_offset,
                                f"writes through module-level {base!r} in a "
                                "worker path: forked workers and the serial "
                                "replay see different state",
                            )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr not in _MUTATORS:
                        continue
                    base = _base_name(node.func)
                    if base in module_names and base not in local_names:
                        yield Finding(
                            self.rule_id,
                            ctx.rel,
                            node.lineno,
                            node.col_offset,
                            f"{base}.{node.func.attr}(…) mutates module-level "
                            "state in a worker path: forked workers and the "
                            "serial replay see different state",
                        )

    def _local_bindings(self, func: ast.AST) -> Set[str]:
        """Names bound locally (params + assignments) — these shadow
        module-level names of the same spelling."""
        out: Set[str] = set()
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            out.add(arg.arg)
        if args.vararg:
            out.add(args.vararg.arg)
        if args.kwarg:
            out.add(args.kwarg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                out.add(node.target.id)
            elif isinstance(node, (ast.withitem,)) and node.optional_vars is not None:
                if isinstance(node.optional_vars, ast.Name):
                    out.add(node.optional_vars.id)
        return out
