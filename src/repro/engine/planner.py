"""Rule-based planner for one component database.

Translates a parsed query into a tree of physical operators from
:mod:`repro.engine.operators`.  The planner applies the classic heuristics a
1990s local optimizer would:

- selection pushdown to the lowest operator that can evaluate it
- index selection for constant equality/range predicates
- hash joins for equi-join conjuncts, greedy join ordering for implicit
  (comma-separated) joins, nested loops as the fallback
- aggregate rewrite: post-aggregation expressions are rewritten to reference
  the aggregate operator's output columns
- predicate pushdown into mergeable derived tables (export views): a WHERE
  conjunct over a plain SELECT's outputs is rewritten onto its select-item
  expressions, so a keyed lookup through a gateway's export view becomes an
  index probe.  A pushed conjunct no index absorbs is filtered above the
  derived table's own WHERE, never beside it, so it only sees rows that
  WHERE accepted.

Correlated subqueries are supported by planning with a parent
:class:`~repro.engine.expressions.Scope`; the executor supplies outer rows at
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from repro.errors import CatalogError, ExecutionError
from repro.engine import operators as ops
from repro.engine.expressions import OutputColumn, Scope
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.types import TypeKind


class _RecordingScope(Scope):
    """Wraps an outer scope and records whether it was ever consulted.

    Used to detect correlated subqueries: if planning (or evaluation setup)
    resolves any column through the parent, the subquery result cannot be
    cached across outer rows.
    """

    def __init__(self, inner: Scope):
        super().__init__([], parent=inner)
        self.consulted = False

    def resolve(self, table: str | None, name: str) -> tuple[int, int]:
        depth, position = self.parent.resolve(table, name)  # may raise
        self.consulted = True
        # Collapse our empty frame: we occupy depth 0 with no columns, so a
        # parent hit at depth d must surface as depth d (not d+1) relative to
        # the subquery scope that has us as parent... the caller adds 1.
        return depth, position


@dataclass
class _Relation:
    """A planned FROM-clause item and the bindings it provides."""

    op: ops.Operator
    bindings: frozenset[str]


class LocalPlanner:
    """Plans queries against one :class:`~repro.storage.catalog.Catalog`."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def plan_query(
        self, query: ast.Query, outer: Scope | None = None
    ) -> ops.Operator:
        if isinstance(query, ast.SetOperation):
            return self._plan_set_operation(query, outer)
        return self._plan_select(query, outer)

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def _plan_set_operation(
        self, query: ast.SetOperation, outer: Scope | None
    ) -> ops.Operator:
        left = self.plan_query(query.left, outer)
        right = self.plan_query(query.right, outer)
        plan: ops.Operator = ops.SetOp(query.kind, left, right)
        if query.order_by:
            scope = Scope(plan.schema, outer)
            keys, ascending = self._resolve_order_keys(
                query.order_by, plan.schema, None
            )
            plan = ops.Sort(plan, keys, ascending, scope)
        if query.limit is not None or query.offset is not None:
            plan = ops.Limit(plan, query.limit, query.offset)
        return plan

    # ------------------------------------------------------------------
    # SELECT blocks
    # ------------------------------------------------------------------

    def _plan_select(
        self,
        select: ast.Select,
        outer: Scope | None,
        pushed: list[ast.Expression] | None = None,
    ) -> ops.Operator:
        """Plan one block; ``pushed`` are conjuncts from an enclosing query
        (see :meth:`_push_into_derived`), already over this block's FROM."""
        # ------------------------------------------------------ FROM + WHERE
        conjuncts = ast.split_conjuncts(select.where)
        pushed = list(pushed or ())
        if select.from_clause:
            input_op, remaining = self._plan_from(
                select.from_clause, conjuncts, outer, pushed
            )
        else:
            # SELECT without FROM: single empty row.
            input_op = ops.ValuesScan([], [()])
            remaining = conjuncts
        input_scope = Scope(input_op.schema, outer)
        if remaining:
            input_op = ops.Filter(input_op, ast.conjoin(remaining), input_scope)
        if pushed:
            # Pushed conjuncts no index probe absorbed.  A Filter of their
            # own, above every filter of this block's WHERE: AND stops on
            # FALSE but not on NULL, so one combined predicate would run
            # them on rows the block's WHERE did not accept.
            input_op = ops.Filter(input_op, ast.conjoin(pushed), input_scope)

        # ------------------------------------------------------ projections
        items = self._expand_stars(select.items, input_op.schema)
        output_names = [item.output_name for item in items]

        needs_aggregate = bool(select.group_by) or any(
            ast.contains_aggregate(item.expression) for item in items
        ) or (select.having is not None and ast.contains_aggregate(select.having))

        order_items = self._normalise_order_items(select.order_by, items)

        if needs_aggregate:
            plan, scope, items, having, order_items = self._plan_aggregate(
                input_op, input_scope, select, items, order_items, outer
            )
            if having is not None:
                plan = ops.Filter(plan, having, scope)
        else:
            if select.having is not None:
                raise ExecutionError("HAVING requires GROUP BY or aggregates")
            plan, scope = input_op, input_scope

        # ------------------------------------------------------ ORDER/DISTINCT
        if select.distinct:
            plan = ops.Project(
                plan, [item.expression for item in items], output_names, scope
            )
            plan = ops.Distinct(plan)
            if order_items:
                # With DISTINCT the sort keys must be output columns; map
                # expressions matching a projection back to its output name.
                keys: list[ast.Expression] = []
                ascending: list[bool] = []
                for order in order_items:
                    expression = order.expression
                    for position, item in enumerate(items):
                        if expression == item.expression:
                            expression = ast.ColumnRef(output_names[position])
                            break
                    keys.append(expression)
                    ascending.append(order.ascending)
                out_scope = Scope(plan.schema, outer)
                plan = ops.Sort(plan, keys, ascending, out_scope)
        elif order_items:
            # Extended projection: visible outputs plus hidden sort keys.
            # Internal names are positional so duplicate/unnamed output
            # columns (e.g. two 'ename's in a self join) stay unambiguous.
            sort_exprs = [item.expression for item in order_items]
            extended_exprs = [item.expression for item in items] + sort_exprs
            visible_names = [f"__o{i}" for i in range(len(items))]
            hidden_names = [f"__sort{i}" for i in range(len(sort_exprs))]
            plan = ops.Project(
                plan, extended_exprs, visible_names + hidden_names, scope
            )
            extended_scope = Scope(plan.schema, outer)
            keys = [
                ast.ColumnRef(name) for name in hidden_names
            ]
            ascending = [item.ascending for item in order_items]
            plan = ops.Sort(plan, keys, ascending, extended_scope)
            visible = [ast.ColumnRef(name) for name in visible_names]
            plan = ops.Project(plan, visible, output_names, extended_scope)
        else:
            plan = ops.Project(
                plan, [item.expression for item in items], output_names, scope
            )

        if select.limit is not None or select.offset is not None:
            plan = ops.Limit(plan, select.limit, select.offset)
        return plan

    # ------------------------------------------------------------------
    # FROM planning
    # ------------------------------------------------------------------

    def _plan_from(
        self,
        from_clause: list[ast.TableRef],
        conjuncts: list[ast.Expression],
        outer: Scope | None,
        pushed: list[ast.Expression],
    ) -> tuple[ops.Operator, list[ast.Expression]]:
        """Plan the FROM clause, consuming pushable conjuncts.

        Index probes may also absorb (remove) entries of ``pushed``.
        Returns (operator, leftover conjuncts to apply above)."""
        available = list(conjuncts)
        unresolved: list[ast.Expression] = []
        if available and (
            len(from_clause) > 1 or isinstance(from_clause[0], ast.Join)
        ):
            # Only a conjunct whose names resolve against the whole FROM
            # clause may be pushed into one of its items.  The rest (an
            # unqualified name two items share, an outer reference, a
            # subquery) wait for the filter above the FROM, which reports
            # an ambiguous name.
            from_scope = Scope(
                [c for ref in from_clause for c in self._ref_columns(ref)]
            )
            available, unresolved = self._split_local(available, from_scope)
        relations: list[_Relation] = []
        for ref in from_clause:
            relation = self._plan_table_ref(ref, available, outer, pushed)
            relations.append(relation)

        if len(relations) == 1:
            combined = relations[0]
        else:
            combined = self._order_joins(relations, available, outer)

        # Apply any remaining conjuncts that are local to the combined input.
        local, leftover = self._split_local(
            available, Scope(combined.op.schema, outer)
        )
        op = combined.op
        if local:
            op = ops.Filter(op, ast.conjoin(local), Scope(op.schema, outer))
        return op, unresolved + leftover

    def _plan_table_ref(
        self,
        ref: ast.TableRef,
        available: list[ast.Expression],
        outer: Scope | None,
        pushed: list[ast.Expression],
    ) -> _Relation:
        if isinstance(ref, ast.TableName):
            return self._plan_base_table(ref, available, outer, pushed)
        if isinstance(ref, ast.SubqueryRef):
            inner = self._push_into_derived(ref, available)
            if inner:
                child = self._plan_select(ref.query, outer, inner)
            else:
                child = self.plan_query(ref.query, outer)
            op = ops.Rename(child, ref.alias)
            return _Relation(op, frozenset({ref.alias.lower()}))
        if isinstance(ref, ast.Join):
            return self._plan_explicit_join(ref, available, outer, pushed)
        raise ExecutionError(f"unsupported FROM item {type(ref).__name__}")

    def _push_into_derived(
        self,
        ref: ast.SubqueryRef,
        available: list[ast.Expression],
    ) -> list[ast.Expression]:
        """Take from ``available`` the conjuncts ``ref`` can evaluate inside.

        ``ref`` must be mergeable (:func:`_mergeable`), and each taken
        conjunct names only ``ref``'s outputs.  The taken conjuncts come
        back with each output name replaced by its select-item expression.
        """
        if not available or not _mergeable(ref.query):
            return []
        items = ref.query.items
        scope = Scope([OutputColumn(i.output_name, ref.alias) for i in items])
        by_name = {i.output_name.lower(): i.expression for i in items}

        def substitute(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.ColumnRef):
                return by_name[node.name.lower()]
            return node

        taken: list[ast.Expression] = []
        rest: list[ast.Expression] = []
        for conjunct in available:
            if _resolves_locally(conjunct, scope):
                taken.append(ast.transform_expression(conjunct, substitute))
            else:
                rest.append(conjunct)
        available[:] = rest
        return taken

    def _ref_columns(self, ref: ast.TableRef) -> list[OutputColumn]:
        """The columns a FROM item provides, found without planning it."""
        if isinstance(ref, ast.TableName):
            table = self.catalog.get_table(ref.name)
            return [OutputColumn(c.name, ref.binding) for c in table.schema.columns]
        if isinstance(ref, ast.Join):
            return self._ref_columns(ref.left) + self._ref_columns(ref.right)
        query = ref.query
        while isinstance(query, ast.SetOperation):
            query = query.left
        items = query.items
        if any(isinstance(item.expression, ast.Star) for item in items):
            inner = [c for r in query.from_clause for c in self._ref_columns(r)]
            items = self._expand_stars(items, inner)
        return [OutputColumn(item.output_name, ref.alias) for item in items]

    def _plan_base_table(
        self,
        ref: ast.TableName,
        available: list[ast.Expression],
        outer: Scope | None,
        pushed: list[ast.Expression],
    ) -> _Relation:
        table = self.catalog.get_table(ref.name)
        binding = ref.binding
        columns = [OutputColumn(c.name, binding) for c in table.schema.columns]
        scope = Scope(columns, outer)
        local, leftover = self._split_local(available, scope)
        available[:] = leftover

        # The block's own conjuncts first.  A pushed conjunct may become
        # the probe too: an index probe evaluates no expression, so it
        # cannot run the conjunct on a row the block's WHERE rejects.
        own = Scope(columns)
        candidates = local + [c for c in pushed if _resolves_locally(c, own)]
        scan, position = self._choose_access_path(table, binding, candidates)
        if position is not None:
            if position < len(local):
                local.pop(position)
            else:
                pushed.remove(candidates[position])
        op: ops.Operator = scan
        if local:
            op = ops.Filter(op, ast.conjoin(local), scope)
        return _Relation(op, frozenset({binding.lower()}))

    def _choose_access_path(
        self, table, binding: str, candidates: list[ast.Expression]
    ) -> tuple[ops.Operator, int | None]:
        """Pick IndexScan when a constant predicate matches an index.

        Returns the scan and the position in ``candidates`` of the
        conjunct the index absorbs (None for a SeqScan).
        """
        for position, conjunct in enumerate(candidates):
            match = _constant_comparison(conjunct)
            if match is None:
                continue
            column, op_name, value = match
            if not table.schema.has_column(column):
                continue
            kind = table.schema.column(column).datatype.kind
            if type(value) not in _PROBE_TYPES.get(kind, ()):
                continue
            index = table.find_index([column])
            if index is None:
                continue
            if op_name == "=":
                return ops.IndexScan(
                    table, index.name, binding, equal_key=(value,)
                ), position
            from repro.storage.index import OrderedIndex

            if not isinstance(index, OrderedIndex):
                continue
            if op_name in ("<", "<="):
                return ops.IndexScan(
                    table,
                    index.name,
                    binding,
                    high=(value,),
                    high_inclusive=(op_name == "<="),
                ), position
            return ops.IndexScan(
                table,
                index.name,
                binding,
                low=(value,),
                low_inclusive=(op_name == ">="),
            ), position
        return ops.SeqScan(table, binding), None

    def _plan_explicit_join(
        self,
        ref: ast.Join,
        available: list[ast.Expression],
        outer: Scope | None,
        pushed: list[ast.Expression],
    ) -> _Relation:
        # WHERE conjuncts (and conjuncts pushed in from an enclosing query)
        # may only be pushed below the *preserved* side of an outer join;
        # pushing below the null-supplying side would remove rows before
        # padding happens and change the result.
        left_in, left_pushed = available, pushed
        right_in, right_pushed = available, pushed
        if ref.join_type in (ast.JoinType.RIGHT, ast.JoinType.FULL):
            left_in, left_pushed = [], []
        if ref.join_type in (ast.JoinType.LEFT, ast.JoinType.FULL):
            right_in, right_pushed = [], []
        left = self._plan_table_ref(ref.left, left_in, outer, left_pushed)
        right = self._plan_table_ref(ref.right, right_in, outer, right_pushed)
        bindings = left.bindings | right.bindings

        condition = ref.condition
        if ref.using:
            using_parts = [
                ast.BinaryOp(
                    "=",
                    _qualified(left.op.schema, column),
                    _qualified(right.op.schema, column),
                )
                for column in ref.using
            ]
            condition = ast.conjoin(using_parts)

        op = self._make_join(
            left.op, right.op, ref.join_type, condition, outer
        )
        return _Relation(op, bindings)

    def _make_join(
        self,
        left: ops.Operator,
        right: ops.Operator,
        join_type: ast.JoinType,
        condition: ast.Expression | None,
        outer: Scope | None,
    ) -> ops.Operator:
        combined_scope = Scope(left.schema + right.schema, outer)
        if condition is None or join_type is ast.JoinType.CROSS:
            return ops.NestedLoopJoin(
                left, right, join_type, condition, combined_scope
            )
        left_scope = Scope(left.schema, outer)
        right_scope = Scope(right.schema, outer)
        equi_left: list[ast.Expression] = []
        equi_right: list[ast.Expression] = []
        residual: list[ast.Expression] = []
        for conjunct in ast.split_conjuncts(condition):
            pair = _equi_pair(conjunct, left_scope, right_scope)
            if pair is not None:
                equi_left.append(pair[0])
                equi_right.append(pair[1])
            else:
                residual.append(conjunct)
        if equi_left:
            # Build the hash table on the (estimated) smaller input; the
            # output schema is unaffected (HashJoin handles either side).
            build_left = (
                join_type is ast.JoinType.INNER
                and _estimate_rows(left) < _estimate_rows(right)
            )
            return ops.HashJoin(
                left,
                right,
                equi_left,
                equi_right,
                join_type,
                ast.conjoin(residual),
                combined_scope,
                build_left=build_left,
            )
        return ops.NestedLoopJoin(left, right, join_type, condition, combined_scope)

    def _order_joins(
        self,
        relations: list[_Relation],
        available: list[ast.Expression],
        outer: Scope | None,
    ) -> _Relation:
        """Greedy ordering for implicit (comma) joins.

        Start from the first relation, repeatedly pick a joinable relation
        connected by an available equi-conjunct; fall back to cross joins.
        """
        remaining = list(relations)
        current = remaining.pop(0)
        while remaining:
            chosen_index = None
            for index, candidate in enumerate(remaining):
                if self._find_join_conjuncts(current, candidate, available):
                    chosen_index = index
                    break
            if chosen_index is None:
                chosen_index = 0
            candidate = remaining.pop(chosen_index)
            join_conjuncts = self._take_join_conjuncts(
                current, candidate, available
            )
            join_type = (
                ast.JoinType.INNER if join_conjuncts else ast.JoinType.CROSS
            )
            op = self._make_join(
                current.op,
                candidate.op,
                join_type,
                ast.conjoin(join_conjuncts),
                outer,
            )
            current = _Relation(op, current.bindings | candidate.bindings)
        return current

    def _find_join_conjuncts(
        self,
        left: _Relation,
        right: _Relation,
        available: list[ast.Expression],
    ) -> bool:
        combined = Scope(left.op.schema + right.op.schema)
        left_scope = Scope(left.op.schema)
        right_scope = Scope(right.op.schema)
        for conjunct in available:
            if not _resolves_locally(conjunct, combined):
                continue
            if _resolves_locally(conjunct, left_scope):
                continue
            if _resolves_locally(conjunct, right_scope):
                continue
            return True
        return False

    def _take_join_conjuncts(
        self,
        left: _Relation,
        right: _Relation,
        available: list[ast.Expression],
    ) -> list[ast.Expression]:
        combined = Scope(left.op.schema + right.op.schema)
        left_scope = Scope(left.op.schema)
        right_scope = Scope(right.op.schema)
        taken: list[ast.Expression] = []
        rest: list[ast.Expression] = []
        for conjunct in available:
            if (
                _resolves_locally(conjunct, combined)
                and not _resolves_locally(conjunct, left_scope)
                and not _resolves_locally(conjunct, right_scope)
            ):
                taken.append(conjunct)
            else:
                rest.append(conjunct)
        available[:] = rest
        return taken

    def _split_local(
        self, conjuncts: list[ast.Expression], scope: Scope
    ) -> tuple[list[ast.Expression], list[ast.Expression]]:
        """Partition conjuncts into (evaluable under scope, leftover)."""
        local: list[ast.Expression] = []
        leftover: list[ast.Expression] = []
        for conjunct in conjuncts:
            if _resolves_locally(conjunct, scope):
                local.append(conjunct)
            else:
                leftover.append(conjunct)
        return local, leftover

    # ------------------------------------------------------------------
    # Projections / aggregation
    # ------------------------------------------------------------------

    def _expand_stars(
        self, items: list[ast.SelectItem], schema: list[OutputColumn]
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expression, ast.Star):
                star = item.expression
                matched = False
                for column in schema:
                    if star.table is None or (
                        column.binding
                        and column.binding.lower() == star.table.lower()
                    ):
                        matched = True
                        expanded.append(
                            ast.SelectItem(
                                ast.ColumnRef(column.name, column.binding),
                                column.name,
                            )
                        )
                if not matched:
                    raise CatalogError(
                        f"no table {star.table!r} to expand in projection"
                    )
            else:
                expanded.append(item)
        return expanded

    def _normalise_order_items(
        self, order_by: list[ast.OrderItem], items: list[ast.SelectItem]
    ) -> list[ast.OrderItem]:
        """Resolve ordinal and alias references in ORDER BY."""
        normalised: list[ast.OrderItem] = []
        alias_map = {
            item.alias.lower(): item.expression for item in items if item.alias
        }
        for order in order_by:
            expression = order.expression
            if isinstance(expression, ast.Literal) and isinstance(
                expression.value, int
            ):
                position = expression.value
                if not 1 <= position <= len(items):
                    raise ExecutionError(
                        f"ORDER BY position {position} is out of range"
                    )
                expression = items[position - 1].expression
            elif (
                isinstance(expression, ast.ColumnRef)
                and expression.table is None
                and expression.name.lower() in alias_map
            ):
                expression = alias_map[expression.name.lower()]
            normalised.append(ast.OrderItem(expression, order.ascending))
        return normalised

    def _plan_aggregate(
        self,
        input_op: ops.Operator,
        input_scope: Scope,
        select: ast.Select,
        items: list[ast.SelectItem],
        order_items: list[ast.OrderItem],
        outer: Scope | None,
    ):
        group_exprs = list(select.group_by)
        # Allow GROUP BY output aliases (GROUP BY dept for SELECT x AS dept).
        alias_map = {
            item.alias.lower(): item.expression for item in items if item.alias
        }
        group_exprs = [
            alias_map.get(g.name.lower(), g)
            if isinstance(g, ast.ColumnRef) and g.table is None
            else g
            for g in group_exprs
        ]

        aggregate_calls: list[ast.FunctionCall] = []

        def collect(expr: ast.Expression) -> None:
            for node in ast.walk_expressions(expr):
                if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                    if node not in aggregate_calls:
                        aggregate_calls.append(node)

        for item in items:
            collect(item.expression)
        if select.having is not None:
            collect(select.having)
        for order in order_items:
            collect(order.expression)

        group_names = [f"__g{i}" for i in range(len(group_exprs))]
        agg_names = [f"__a{i}" for i in range(len(aggregate_calls))]
        agg_op = ops.HashAggregate(
            input_op,
            group_exprs,
            aggregate_calls,
            group_names + agg_names,
            input_scope,
        )
        agg_scope = Scope(agg_op.schema, outer)

        def rewrite(expr: ast.Expression) -> ast.Expression:
            def replace(node: ast.Expression) -> ast.Expression:
                if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                    return ast.ColumnRef(
                        agg_names[aggregate_calls.index(node)]
                    )
                for position, group in enumerate(group_exprs):
                    if node == group:
                        return ast.ColumnRef(group_names[position])
                return node

            # Replace whole-subtree group matches first (top-down), then
            # aggregates bottom-up.  transform_expression is bottom-up which
            # handles both: group-expr subtrees become refs when visited.
            return ast.transform_expression(expr, replace)

        rewritten_items = [
            ast.SelectItem(rewrite(item.expression), item.alias or item.output_name)
            for item in items
        ]
        rewritten_having = (
            rewrite(select.having) if select.having is not None else None
        )
        rewritten_order = [
            ast.OrderItem(rewrite(order.expression), order.ascending)
            for order in order_items
        ]
        return agg_op, agg_scope, rewritten_items, rewritten_having, rewritten_order

    def _resolve_order_keys(
        self,
        order_items: list[ast.OrderItem],
        schema: list[OutputColumn],
        _unused,
    ) -> tuple[list[ast.Expression], list[bool]]:
        keys: list[ast.Expression] = []
        ascending: list[bool] = []
        for order in order_items:
            expression = order.expression
            if isinstance(expression, ast.Literal) and isinstance(
                expression.value, int
            ):
                position = expression.value
                if not 1 <= position <= len(schema):
                    raise ExecutionError(
                        f"ORDER BY position {position} is out of range"
                    )
                expression = ast.ColumnRef(schema[position - 1].name)
            keys.append(expression)
            ascending.append(order.ascending)
        return keys, ascending


# ---------------------------------------------------------------------------
# Predicate analysis helpers
# ---------------------------------------------------------------------------


def _estimate_rows(op: ops.Operator) -> float:
    """Coarse cardinality estimate for build-side selection."""
    if isinstance(op, ops.SeqScan):
        return float(op.table.row_count)
    if isinstance(op, ops.IndexScan):
        if op.equal_key is not None:
            return max(
                op.table.row_count / max(op.index.distinct_keys, 1), 1.0
            )
        return op.table.row_count / 3.0
    if isinstance(op, ops.ValuesScan):
        return float(len(op._rows))
    if isinstance(op, ops.Filter):
        return _estimate_rows(op.child) / 3.0
    if isinstance(op, ops.Rename):
        return _estimate_rows(op.child)
    if isinstance(op, (ops.HashJoin, ops.NestedLoopJoin)):
        return max(
            _estimate_rows(op.left), _estimate_rows(op.right)
        )
    if isinstance(op, ops.Limit) and op.limit is not None:
        return float(op.limit)
    children = op._children()
    if children:
        return _estimate_rows(children[0])
    return 1000.0


_SUBQUERIES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)

#: Literal types an index probe compares with a column's stored values
#: exactly as SQL ``=`` and ``<`` do.  Any other literal (``k = '7'`` on an
#: INTEGER key, a date string on a DATE key) is left to a Filter, whose
#: comparison coerces.
_PROBE_TYPES = {
    TypeKind.INTEGER: (int, float),
    TypeKind.FLOAT: (int, float),
    TypeKind.DECIMAL: (int, Decimal),
    TypeKind.VARCHAR: (str,),
    TypeKind.BOOLEAN: (bool,),
}


def _mergeable(query: ast.Query) -> bool:
    """True for a derived table a WHERE conjunct may be pushed into.

    A plain SELECT: no GROUP BY, HAVING, aggregate, DISTINCT, ORDER BY,
    LIMIT or OFFSET, and a select list without ``*``, subqueries or
    duplicate output names.
    """
    if not isinstance(query, ast.Select) or (
        query.group_by
        or query.having is not None
        or query.distinct
        or query.order_by
        or query.limit is not None
        or query.offset is not None
    ):
        return False
    names = set()
    for item in query.items:
        if isinstance(item.expression, ast.Star) or ast.contains_aggregate(
            item.expression
        ):
            return False
        if any(
            isinstance(node, _SUBQUERIES)
            for node in ast.walk_expressions(item.expression)
        ):
            return False
        names.add(item.output_name.lower())
    return len(names) == len(query.items)


def _resolves_locally(expr: ast.Expression, scope: Scope) -> bool:
    """True if every column ref resolves at depth 0 and no subquery appears."""
    for node in ast.walk_expressions(expr):
        if isinstance(node, _SUBQUERIES):
            return False
        if isinstance(node, ast.ColumnRef):
            resolved = scope.try_resolve(node.table, node.name)
            if resolved is None or resolved[0] != 0:
                return False
        if isinstance(node, ast.Star):
            return False
    return True


def _constant_comparison(
    expr: ast.Expression,
) -> tuple[str, str, object] | None:
    """Match ``col <op> literal`` (either side); returns (column, op, value)."""
    if not isinstance(expr, ast.BinaryOp):
        return None
    if expr.op not in ("=", "<", "<=", ">", ">="):
        return None
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    if isinstance(expr.left, ast.ColumnRef) and isinstance(expr.right, ast.Literal):
        if expr.right.value is None:
            return None
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.right, ast.ColumnRef) and isinstance(expr.left, ast.Literal):
        if expr.left.value is None:
            return None
        return expr.right.name, flipped[expr.op], expr.left.value
    return None


def _equi_pair(
    conjunct: ast.Expression, left_scope: Scope, right_scope: Scope
) -> tuple[ast.Expression, ast.Expression] | None:
    """Match an equi-join conjunct; returns (left_expr, right_expr)."""
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
        return None
    if _resolves_locally(conjunct.left, left_scope) and _resolves_locally(
        conjunct.right, right_scope
    ):
        return conjunct.left, conjunct.right
    if _resolves_locally(conjunct.left, right_scope) and _resolves_locally(
        conjunct.right, left_scope
    ):
        return conjunct.right, conjunct.left
    return None


def _qualified(schema: list[OutputColumn], column: str) -> ast.ColumnRef:
    for output in schema:
        if output.name.lower() == column.lower():
            return ast.ColumnRef(output.name, output.binding)
    raise CatalogError(f"USING column {column!r} not found")
