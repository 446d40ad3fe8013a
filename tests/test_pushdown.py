"""Predicate pushdown into mergeable derived tables (export views).

A gateway turns every export relation into a derived table over the local
table.  The local planner pushes the outer WHERE conjuncts over that
table's outputs inside it, so a keyed lookup becomes an index probe.  Every
test runs on the row and the vectorized engine, which share one plan.
"""

import pytest

from repro.engine import LocalEngine
from repro.engine.expressions import OutputColumn, Scope
from repro.errors import CatalogError, ExecutionError
from repro.gateway.translate import rewrite_exports
from repro.sql import parse_query, to_sql
from repro.storage import Catalog
from repro.workloads import build_partitioned_sites


@pytest.fixture(params=[False, True], ids=["row", "vectorized"])
def vectorized(request):
    return request.param


@pytest.fixture
def engine(vectorized):
    engine = LocalEngine(Catalog("push"), vectorized=vectorized)
    engine.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, g INTEGER)")
    engine.execute("CREATE TABLE u (k INTEGER PRIMARY KEY, w INTEGER)")
    for row in [(0, None, 1), (1, 1, 1), (2, 2, 2), (3, 0, 2), (4, 4, 3)]:
        engine.execute("INSERT INTO t VALUES (?, ?, ?)", list(row))
    for row in [(1, 10), (2, 20), (5, 50)]:
        engine.execute("INSERT INTO u VALUES (?, ?)", list(row))
    return engine


def run(engine, sql):
    return sorted(engine.execute(sql).rows, key=repr)


EXPORT = "(SELECT t.k AS k, t.v AS v FROM t WHERE t.v <> 0) e"


# ---------------------------------------------------------------------------
# Index use through a gateway's export view
# ---------------------------------------------------------------------------


def _gateway_sql(vectorized, global_sql):
    system = build_partitioned_sites(2, 40, vectorized=vectorized)
    gateway = system.gateways["p0"]
    local = rewrite_exports(parse_query(global_sql), gateway.exports)
    return gateway.dbms.engine, to_sql(local, gateway.dbms.dialect)


def test_gateway_point_lookup_probes_the_index(vectorized):
    engine, sql = _gateway_sql(
        vectorized, "SELECT k, grp, val FROM part WHERE k = 7"
    )
    assert "IndexScan" in engine.explain(sql)
    assert "SeqScan" not in engine.explain(sql)
    result = engine.execute(sql)
    assert [row[0] for row in result.rows] == [7]
    assert engine.last_report.rows_scanned == 1


def test_gateway_range_uses_the_ordered_index(vectorized):
    engine, sql = _gateway_sql(vectorized, "SELECT k FROM part WHERE k < 3")
    plan = engine.explain(sql)
    assert "IndexScan" in plan and "range" in plan
    assert sorted(engine.execute(sql).rows) == [(0,), (1,), (2,)]
    assert engine.last_report.rows_scanned == 3


# ---------------------------------------------------------------------------
# Semantics the pushdown must keep
# ---------------------------------------------------------------------------


def test_pushed_conjunct_never_sees_rows_the_view_rejected(engine):
    # Row (0, NULL): the view's t.v <> 0 is NULL there, so 10 / k must not
    # run on it.  AND does not stop on NULL, so the pushed conjunct sits in
    # a Filter above the view's own.
    sql = (
        "SELECT k FROM (SELECT t.k AS k FROM t WHERE t.v <> 0) e "
        "WHERE 10 / k > 2"
    )
    assert run(engine, sql) == [(1,), (2,), (4,)]


def test_view_row_predicate_still_applies_under_an_index_probe(engine):
    sql = f"SELECT k, v FROM {EXPORT} WHERE k = 3"
    plan = engine.explain(sql)
    assert "IndexScan" in plan and "t.v <> 0" in plan
    assert run(engine, sql) == []
    assert run(engine, f"SELECT k, v FROM {EXPORT} WHERE k = 4") == [(4, 4)]
    assert engine.last_report.rows_scanned == 1


@pytest.mark.parametrize(
    "where, expected", [("k = '4'", [(4,)]), ("k < '2'", [(1,)])]
)
def test_literal_of_another_type_is_filtered_not_probed(engine, where, expected):
    # '=' and '<' coerce a string against an INTEGER key; an index probe
    # would compare it raw and miss (or fail on) the stored ints.
    for sql in (
        f"SELECT k FROM {EXPORT} WHERE {where}",
        f"SELECT t.k FROM t WHERE t.v <> 0 AND {where}",
    ):
        assert "IndexScan" not in engine.explain(sql)
        assert run(engine, sql) == expected


def test_non_exported_column_is_not_pushed_onto_the_base_table(engine):
    # t.g exists but the view does not export it.
    for where in ("g = 1", "e.g = 1", "k = 1 AND g = 1"):
        with pytest.raises(CatalogError):
            engine.execute(f"SELECT k FROM {EXPORT} WHERE {where}")


def test_unqualified_column_shared_by_two_derived_tables_is_ambiguous(engine):
    # Base tables too: no FROM item may take a conjunct whose name another
    # item also provides.
    for sql in (
        f"SELECT e.k FROM {EXPORT}, (SELECT u.k AS k FROM u) f WHERE k = 1",
        "SELECT v FROM t, (SELECT u.k AS k FROM u) f WHERE k = 1",
        "SELECT v FROM t, u WHERE k + 0 = 1",
        "SELECT v FROM t, u WHERE k = 1 OR w = 99",
        "SELECT v FROM t JOIN u ON t.k = u.k WHERE k = 1",
    ):
        with pytest.raises(CatalogError, match="ambiguous"):
            engine.execute(sql)


def test_pushdown_reaches_the_probed_side_of_a_join_inside_the_view(engine):
    sql = (
        "SELECT tk, w FROM (SELECT t.k AS tk, u.w AS w FROM t JOIN u "
        "ON t.k = u.k) e WHERE tk = 2"
    )
    assert "IndexScan(t" in engine.explain(sql)
    assert run(engine, sql) == [(2, 20)]


# ---------------------------------------------------------------------------
# Derived tables that stay unmerged
# ---------------------------------------------------------------------------


UNMERGED = [
    pytest.param(
        "SELECT g, n FROM (SELECT t.g AS g, COUNT(*) AS n FROM t "
        "GROUP BY t.g) e WHERE n = 2",
        [(1, 2), (2, 2)],
        id="group-by",
    ),
    pytest.param(
        "SELECT n FROM (SELECT COUNT(*) AS n FROM t) e WHERE n = 5",
        [(5,)],
        id="aggregate",
    ),
    pytest.param(
        "SELECT g FROM (SELECT DISTINCT t.g AS g FROM t) e WHERE g = 2",
        [(2,)],
        id="distinct",
    ),
    pytest.param(
        "SELECT k FROM (SELECT t.k AS k FROM t ORDER BY t.k LIMIT 2) e "
        "WHERE k = 3",
        [],
        id="limit",
    ),
    pytest.param(
        "SELECT k FROM (SELECT t.k AS k FROM t ORDER BY t.k LIMIT 2 "
        "OFFSET 2) e WHERE k = 1",
        [],
        id="offset",
    ),
    pytest.param(
        "SELECT k FROM (SELECT t.k AS k FROM t ORDER BY t.k) e WHERE k = 3",
        [(3,)],
        id="order-by",
    ),
    pytest.param(
        "SELECT k FROM (SELECT t.k AS k FROM t UNION SELECT u.k AS k "
        "FROM u) e WHERE k = 5",
        [(5,)],
        id="union",
    ),
    pytest.param(
        "SELECT u.k, e.k FROM u LEFT JOIN (SELECT t.k AS k FROM t) e "
        "ON u.k = e.k WHERE e.k IS NULL",
        [(5, None)],
        id="left-join-null-side",
    ),
    pytest.param(
        "SELECT u.k, e.k FROM u LEFT JOIN (SELECT t.k AS k FROM t) e "
        "ON u.k = e.k WHERE e.k = 1",
        [(1, 1)],
        id="left-join-null-side-equality",
    ),
    pytest.param(
        "SELECT e.k, u.k FROM (SELECT t.k AS k FROM t) e FULL JOIN u "
        "ON u.k = e.k WHERE e.k = 2 OR e.k IS NULL",
        [(2, 2), (None, 5)],
        id="full-join",
    ),
    pytest.param(
        "SELECT e.k, u.k FROM (SELECT t.k AS k FROM t) e FULL JOIN u "
        "ON u.k = e.k WHERE e.k = 2",
        [(2, 2)],
        id="full-join-equality",
    ),
]


@pytest.mark.parametrize("sql, expected", UNMERGED)
def test_unmergeable_derived_tables_keep_their_results(engine, sql, expected):
    assert "IndexScan" not in engine.explain(sql)
    assert run(engine, sql) == sorted(expected, key=repr)


def test_correlated_conjunct_is_not_pushed(engine):
    inner = parse_query(
        "SELECT e.k FROM (SELECT t.k AS k FROM t) e WHERE e.k = u.k"
    )
    plan = engine.planner.plan_query(inner, Scope([OutputColumn("k", "u")]))
    assert "IndexScan" not in plan.explain()
    sql = (
        "SELECT u.k FROM u WHERE EXISTS (SELECT 1 FROM (SELECT t.k AS k "
        "FROM t WHERE t.v <> 0) e WHERE e.k = u.k)"
    )
    assert run(engine, sql) == [(1,), (2,)]


def test_conjunct_with_a_subquery_is_not_pushed(engine):
    sql = (
        f"SELECT k FROM {EXPORT} WHERE k = (SELECT MIN(u.k) FROM u)"
    )
    assert "IndexScan" not in engine.explain(sql)
    assert run(engine, sql) == [(1,)]


def test_pushed_conjunct_still_runs_on_accepted_rows(engine):
    # Row (1, 1) passes the view, so 1 / (k - 1) divides by zero there.
    with pytest.raises(ExecutionError, match="division by zero"):
        engine.execute(f"SELECT k FROM {EXPORT} WHERE 1 / (k - 1) > 0")
