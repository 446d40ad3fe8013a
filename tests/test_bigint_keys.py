"""Hash keys keep 64-bit integers exact.

Joins, GROUP BY, DISTINCT and the vectorized IN-list probe hash their keys.
Folding integers through ``float`` made 2**53 and 2**53 + 1 the same key;
SQL ``=`` tells them apart, and so must every hashed path, on both engines.
Cross-type equality (1 = 1.0 = DECIMAL 1) still holds.
"""

import pytest

from repro.engine import LocalEngine
from repro.storage import Catalog

BIG = 2**53  # 9007199254740992: the first int a float cannot follow


@pytest.fixture(params=[False, True], ids=["row", "vectorized"])
def engine(request):
    engine = LocalEngine(Catalog("bigint"), vectorized=request.param)
    # No primary keys: the predicates below must not become index probes.
    engine.execute("CREATE TABLE a (k BIGINT, tag VARCHAR(4))")
    engine.execute("CREATE TABLE b (k BIGINT)")
    engine.execute("INSERT INTO a VALUES (?, 'lo'), (?, 'hi')", [BIG, BIG + 1])
    engine.execute("INSERT INTO b VALUES (?)", [BIG + 1])
    return engine


def test_join_keeps_adjacent_bigints_apart(engine):
    rows = engine.execute(
        "SELECT a.tag, b.k FROM a JOIN b ON a.k = b.k"
    ).rows
    assert rows == [("hi", BIG + 1)]


def test_group_by_keeps_adjacent_bigints_apart(engine):
    rows = engine.execute("SELECT k, COUNT(*) FROM a GROUP BY k").rows
    assert sorted(rows) == [(BIG, 1), (BIG + 1, 1)]


def test_distinct_keeps_adjacent_bigints_apart(engine):
    assert len(engine.execute("SELECT DISTINCT k FROM a").rows) == 2
    assert engine.execute("SELECT COUNT(DISTINCT k) FROM a").rows == [(2,)]


def test_in_list_matches_the_exact_bigint(engine):
    rows = engine.execute(f"SELECT tag FROM a WHERE k IN ({BIG + 1}, 7)").rows
    assert rows == [("hi",)]
    rows = engine.execute(f"SELECT tag FROM a WHERE k NOT IN ({BIG + 1})").rows
    assert rows == [("lo",)]


def test_cross_type_numeric_keys_still_meet(engine):
    engine.execute("CREATE TABLE f (x FLOAT)")
    engine.execute("CREATE TABLE d (x DECIMAL(4, 1))")
    engine.execute("CREATE TABLE i (x INTEGER)")
    for table in ("f", "d", "i"):
        engine.execute(f"INSERT INTO {table} VALUES (1), (2)")
    rows = engine.execute(
        "SELECT i.x FROM i JOIN f ON i.x = f.x JOIN d ON f.x = d.x"
    ).rows
    assert sorted(rows) == [(1,), (2,)]
    rows = engine.execute(
        "SELECT x FROM i WHERE x IN (1.0, 3.0) "
        "UNION SELECT x FROM d WHERE x IN (1, 3)"
    ).rows
    assert len(rows) == 1


def test_hash_join_agrees_with_the_equality_operator(engine):
    # DECIMAL 0.1 = FLOAT 0.1 is TRUE for the '=' operator (it compares a
    # Decimal through float); the hash join must give the nested loop's
    # answer.
    engine.execute("CREATE TABLE d (x DECIMAL(4, 1))")
    engine.execute("CREATE TABLE f (x FLOAT)")
    engine.execute("INSERT INTO d VALUES (0.1), (0.3)")
    engine.execute("INSERT INTO f VALUES (0.1), (0.2)")
    hashed = engine.execute("SELECT f.x FROM d JOIN f ON d.x = f.x")
    looped = engine.execute("SELECT f.x FROM d JOIN f ON d.x = f.x OR 1 = 0")
    assert "HashJoin" in engine.explain("SELECT f.x FROM d JOIN f ON d.x = f.x")
    assert hashed.rows == looped.rows == [(0.1,)]
