"""Derived-table predicates checked against an independent oracle.

Seeded random predicates over an export-style derived table (a projection
with its own row predicate, over data with NULLs) run on the component
engine — row and vectorized — and on stdlib ``sqlite3`` loaded with the
same rows.  The answers must be equal as multisets of rows.  The outer
WHERE is what the planner pushes into the derived table (onto an index
probe where it can), so this pins the pushdown to SQL's semantics rather
than to the engine's own other path.
"""

import random
import sqlite3
from collections import Counter

import pytest

from repro.engine import LocalEngine
from repro.storage import Catalog

#: Deliberate dialect divergences between the engine and sqlite.  The
#: generator stays clear of each; ``test_divergences_are_still_real``
#: keeps every entry honest.  Entry: (example, engine's answer, sqlite's).
DIVERGENCES = {
    # Integer division is exact here and truncating in sqlite, so the
    # generator divides a float numerator (10.0 / x).
    "int-division": ("SELECT 7 / 2", 3.5, 3),
    # Division by zero raises here and is NULL in sqlite, so the generator
    # divides only by x under the view whose row predicate keeps x <> 0.
    "division-by-zero": ("SELECT 1 / 0", "raises", None),
    # LIKE is case-sensitive here and ASCII case-insensitive in sqlite;
    # the generator does not use LIKE.
    "like-case": ("SELECT 'AA' LIKE 'aa'", False, 1),
    # A number meets a string as text here; sqlite orders every number
    # before every string.  The generator compares like with like.
    "number-vs-text": ("SELECT 10 = '10'", True, 0),
}

SEED_COUNT = 300
ROW_COUNT = 150

#: Export-style views: renamed columns, one computed column, and a row
#: predicate.  ``x`` is never 0 under the first, so it may divide; that
#: predicate is NULL (not FALSE) on rows with a = 0 and b NULL, where a
#: pushed ``10.0 / x`` run beside it instead of above it would raise.
VIEWS = [
    "WHERE t.a * t.b <> 0",
    "WHERE t.b IS NOT NULL OR t.a > 3",
    "",
]
COLUMNS = "e.k, e.x, e.y, e.s, e.z"
NUMERIC = ["k", "x", "y", "z"]
STRINGS = ["aa", "bb", "cc"]


def _rows():
    rng = random.Random(94)

    def maybe(value):
        return None if rng.random() < 0.2 else value

    return [
        (
            k,
            maybe(rng.randint(-3, 9)),
            maybe(round(rng.uniform(-5, 5), 1)),
            maybe(rng.choice(STRINGS)),
        )
        for k in range(ROW_COUNT)
    ]


ROWS = _rows()


def _view_sql(index: int) -> str:
    return (
        "(SELECT t.k AS k, t.a AS x, t.b AS y, t.s AS s, t.a * 2 AS z "
        f"FROM t {VIEWS[index]}) e"
    )


# ---------------------------------------------------------------------------
# Predicate generator
# ---------------------------------------------------------------------------


class _Generator:
    def __init__(self, rng: random.Random, may_divide: bool):
        self.rng = rng
        self.may_divide = may_divide

    def literal(self, column: str) -> str:
        rng = self.rng
        if column == "k":
            return str(rng.randrange(-5, ROW_COUNT + 5))
        if column == "y":
            return repr(round(rng.uniform(-6, 6), 1))
        if column == "z":
            return str(rng.randrange(-8, 20))
        return str(rng.randrange(-4, 11))

    def operand(self) -> tuple[str, str]:
        """(SQL text, column whose literal range fits it)."""
        rng = self.rng
        column = rng.choice(NUMERIC)
        roll = rng.random()
        if roll < 0.7:
            return column, column
        if roll < 0.8 and self.may_divide:
            return "10.0 / x", "y"
        other = rng.choice(NUMERIC)
        op = rng.choice(["+", "-", "*"])
        return f"({column} {op} {other})", "z"

    def atom(self) -> str:
        rng = self.rng
        kind = rng.randrange(8)
        if kind == 0:
            column = rng.choice(["s", *NUMERIC])
            return f"{column} IS {rng.choice(['', 'NOT '])}NULL"
        if kind == 1:
            op = rng.choice(["=", "<>"])
            return f"s {op} '{rng.choice(STRINGS)}'"
        if kind == 2:
            text, like = self.operand()
            low, high = sorted(
                (float(self.literal(like)), float(self.literal(like)))
            )
            negated = rng.choice(["", "NOT "])
            return f"{text} {negated}BETWEEN {low!r} AND {high!r}"
        if kind == 3:
            text, like = self.operand()
            items = [self.literal(like) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.25:
                items.append("NULL")
            negated = rng.choice(["", "NOT "])
            return f"{text} {negated}IN ({', '.join(items)})"
        text, like = self.operand()
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        literal = self.literal(like)
        if rng.random() < 0.2:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            return f"{literal} {flipped.get(op, op)} {text}"
        return f"{text} {op} {literal}"

    def predicate(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.55:
            return self.atom()
        if roll < 0.7:
            return f"NOT ({self.predicate(depth + 1)})"
        op = rng.choice(["AND", "OR"])
        return f"({self.predicate(depth + 1)} {op} {self.predicate(depth + 1)})"

    def where(self) -> str:
        conjuncts = [self.predicate() for _ in range(self.rng.randint(1, 3))]
        return " AND ".join(conjuncts)


def _cases():
    for seed in range(SEED_COUNT):
        rng = random.Random(seed)
        view = seed % len(VIEWS)
        where = _Generator(rng, may_divide=(view == 0)).where()
        yield seed, f"SELECT {COLUMNS} FROM {_view_sql(view)} WHERE {where}"


CASES = list(_cases())


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle():
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b REAL, s TEXT)"
    )
    connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", ROWS)
    yield connection
    connection.close()


def _engine(vectorized: bool) -> LocalEngine:
    engine = LocalEngine(Catalog("oracle"), vectorized=vectorized)
    engine.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b FLOAT, "
        "s VARCHAR(4))"
    )
    # Ordered indexes on a and b: pushed ranges over x and y (with NULLs
    # in the data) become index probes.
    engine.execute("CREATE INDEX t_a ON t (a)")
    engine.execute("CREATE INDEX t_b ON t (b)")
    for row in ROWS:
        engine.execute("INSERT INTO t VALUES (?, ?, ?, ?)", list(row))
    return engine


@pytest.fixture(scope="module")
def engines():
    return {False: _engine(False), True: _engine(True)}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("vectorized", [False, True], ids=["row", "vectorized"])
def test_derived_table_predicates_match_sqlite(oracle, engines, vectorized):
    engine = engines[vectorized]
    mismatches = []
    for seed, sql in CASES:
        expected = Counter(oracle.execute(sql).fetchall())
        actual = Counter(engine.execute(sql).rows)
        if actual != expected:
            mismatches.append(f"seed {seed}: {sql}")
    assert not mismatches, "\n".join(mismatches)


def test_data_has_rows_where_the_view_predicate_is_null_and_x_is_zero():
    assert any(a == 0 and b is None for _, a, b, _ in ROWS)


def test_generated_predicates_reach_index_probes(engines):
    # The oracle comparison is only worth having if the pushed conjuncts
    # really reach the index; a good share of the cases must probe it.
    engine = engines[False]
    probed = sum("IndexScan" in engine.explain(sql) for _, sql in CASES)
    assert probed >= len(CASES) // 6


def test_generated_predicates_select_something(oracle):
    non_empty = sum(bool(oracle.execute(sql).fetchall()) for _, sql in CASES)
    assert non_empty >= len(CASES) // 3


@pytest.mark.parametrize("name", sorted(DIVERGENCES))
def test_divergences_are_still_real(oracle, engines, name):
    sql, ours, theirs = DIVERGENCES[name]
    assert oracle.execute(sql).fetchone()[0] == theirs
    engine = engines[False]
    if ours == "raises":
        with pytest.raises(Exception):
            engine.execute(sql)
    else:
        assert engine.execute(sql).rows[0][0] == ours
