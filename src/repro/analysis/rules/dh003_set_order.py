"""DH003 — set iteration order escaping into the event stream.

CPython iterates sets in hash-table order.  For strings that order
depends on ``PYTHONHASHSEED``; for everything it depends on insertion
history and table resizes — none of which is part of the replay
contract.  The moment that order reaches a *sink* — a scheduler call
(``schedule_*``/``call_*``), a transport ``send``, a ledger
``record_*``/``append`` — two runs of "the same" world can dispatch the
same events in different sequence and the byte-identity matrix (lanes
on/off, serial vs ``--jobs``, sim vs wire) is dead.

Flagged shapes (``s`` inferred set-typed; see
:func:`repro.analysis.astutil.infer_set_types`):

* ``for x in s: …sink(x)…`` — loop body reaches a sink;
* ``[f(x) for x in s]`` — a list comprehension materializes the order;
* ``list(s)`` / ``tuple(s)`` — ditto, as an expression.

Not flagged: ``sorted(s)`` (the fix), membership tests, order-free
reductions (``len``/``sum``/``min``/``max``/``any``/``all``/``set``),
and — by default — dict iteration: CPython dicts are insertion-ordered,
so a deterministically-built dict iterates deterministically
(``AnalysisConfig.strict_dict_order`` turns dict checking on for audit
sweeps).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.astutil import call_name, class_set_attrs, infer_set_types
from repro.analysis.engine import FileContext, Finding

#: Order-free consumers of an iterable: iteration order cannot escape.
_ORDER_FREE = {"len", "sum", "min", "max", "any", "all", "set", "frozenset", "sorted"}

_DICT_VIEW_METHODS = {"keys", "values", "items"}


class SetOrderEscapeRule:
    rule_id = "DH003"
    title = "set/dict iteration order escapes into a scheduling sink"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Walk every function with its class's set-typed self attrs in
        # scope; module level gets an empty-class pass of its own.
        yield from self._check_scope(ctx, ctx.tree, set())
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                attrs = class_set_attrs(node)
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield from self._check_scope(ctx, sub, attrs)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not self._in_class(ctx, node):
                    yield from self._check_scope(ctx, node, set())

    # -- scope helpers ----------------------------------------------------

    def _in_class(self, ctx: FileContext, func: ast.AST) -> bool:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and func in node.body:
                return True
        return False

    def _is_sink_call(self, ctx: FileContext, node: ast.Call) -> bool:
        name = call_name(node)
        if name is None:
            return False
        config = ctx.config
        return name in config.order_sink_names or name.startswith(
            tuple(config.order_sink_prefixes)
        )

    def _hazard_iter(self, types, node: ast.AST, config) -> bool:
        """Is ``node`` (a ``for``'s iterable) hash-ordered?"""
        if types.is_set(node):
            return True
        if config.strict_dict_order:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_VIEW_METHODS
            ):
                return True
            if isinstance(node, (ast.Dict, ast.DictComp)):
                return True
        return False

    def _check_scope(
        self, ctx: FileContext, scope: ast.AST, self_attrs: Set[str]
    ) -> Iterator[Finding]:
        types = infer_set_types(scope, self_attrs)
        body = scope.body if isinstance(scope, ast.Module) else scope
        nodes: List[ast.AST] = (
            list(ast.iter_child_nodes(scope))
            if isinstance(scope, ast.Module)
            else [scope]
        )
        for top in nodes:
            for node in ast.walk(top):
                # Skip nested defs at module level (handled per-function).
                if isinstance(scope, ast.Module) and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    break
                if isinstance(node, (ast.For, ast.AsyncFor)) and self._hazard_iter(
                    types, node.iter, ctx.config
                ):
                    sink = self._first_sink(ctx, node.body)
                    if sink is not None:
                        yield Finding(
                            self.rule_id,
                            ctx.rel,
                            node.lineno,
                            node.col_offset,
                            "iterating a hash-ordered container here feeds "
                            f"'{sink}' in the loop body — wrap the iterable in "
                            "sorted() so the event order is replayable",
                        )
                elif isinstance(node, ast.ListComp) and any(
                    self._hazard_iter(types, gen.iter, ctx.config)
                    for gen in node.generators
                ):
                    yield Finding(
                        self.rule_id,
                        ctx.rel,
                        node.lineno,
                        node.col_offset,
                        "list comprehension over a hash-ordered container "
                        "materializes set order — wrap the iterable in sorted()",
                    )
                elif (
                    isinstance(node, ast.Call)
                    and call_name(node) in ("list", "tuple")
                    and len(node.args) == 1
                    and not node.keywords
                    and self._hazard_iter(types, node.args[0], ctx.config)
                ):
                    yield Finding(
                        self.rule_id,
                        ctx.rel,
                        node.lineno,
                        node.col_offset,
                        f"{call_name(node)}() over a hash-ordered container "
                        "materializes set order — use sorted() instead",
                    )

    def _first_sink(self, ctx: FileContext, body: List[ast.stmt]):
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and self._is_sink_call(ctx, node):
                    return call_name(node)
        return None
