"""The three federation workloads and their independent answer oracles.

Each workload owns four things:

- ``build()``: the federation, from the existing ``repro.workloads``
  builders in the default ``MyriadSystem`` configuration;
- ``operations(rng)``: an endless, seeded stream of operations, each
  carrying the SQL the program receives;
- ``run(system, op)``: one operation through the public API, returning
  the answer and the cost trace;
- ``verify(records)``: checks of every recorded answer against an oracle
  that shares no code with the program: stdlib ``sqlite3`` loaded with
  the same generated rows, or a balance model for the bank.

The oracle rows are regenerated here with the builders' own random
recipe and default seeds, not read back from the program's storage.
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter
from dataclasses import dataclass, field

#: Operation kinds whose latency counts as a global query or a transfer.
QUERY = "query"
TXN = "txn"


@dataclass
class Op:
    """One operation of a workload's stream."""

    kind: str  # "point", "join", "read", "audit" or "transfer"
    latency_type: str  # QUERY or TXN
    sql: str  # the statement text(s) the program receives
    write: bool = False
    args: tuple = ()


@dataclass
class Record:
    """What one executed operation returned, kept for the oracle."""

    op: Op
    latency_s: float = 0.0
    rows: list | None = None
    error: str | None = None
    sim_s: float = 0.0
    wire_bytes: int = 0
    messages: int = 0
    warmup: bool = False
    wrong: list = field(default_factory=list)

    @property
    def cost(self) -> tuple[float, int, int]:
        return (self.sim_s, self.wire_bytes, self.messages)


def _trace_costs(record: Record, trace) -> None:
    record.sim_s = trace.elapsed_s
    record.wire_bytes = trace.total_bytes
    record.messages = trace.message_count


def _same_rows(got: list, expected: list) -> bool:
    """Multiset equality; ``1000 == 1000.0`` as in SQL."""
    return Counter(map(tuple, got)) == Counter(map(tuple, expected))


class Workload:
    name = ""
    why = ""
    latency_types: tuple[str, ...] = (QUERY,)
    #: Untimed operations run after each build (lazy statistics, pool start).
    warmup_ops = 5

    def build(self):
        raise NotImplementedError

    def operations(self, rng: random.Random):
        raise NotImplementedError

    def run(self, system, op: Op, record: Record) -> None:
        raise NotImplementedError

    def verify(self, records: list[Record], system) -> list[str]:
        """Mark wrong answers on the records (``record.wrong``).

        Returns the problems that belong to no single record, such as a
        final state that differs from the model.
        """
        raise NotImplementedError

    def close(self) -> None:
        pass


class _SqliteOracle:
    """A stdlib sqlite3 database holding one workload's generated rows."""

    def __init__(self, ddl: list[str], tables: dict[str, list[tuple]]):
        self.db = sqlite3.connect(":memory:")
        for statement in ddl:
            self.db.execute(statement)
        for table, rows in tables.items():
            marks = ", ".join("?" * len(rows[0]))
            self.db.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)

    def rows(self, sql: str, params: tuple) -> list[tuple]:
        return self.db.execute(sql, params).fetchall()

    def close(self) -> None:
        self.db.close()


class _QueryWorkload(Workload):
    """A read-only workload checked row-for-row against sqlite3."""

    oracle_sql = ""
    federation = ""

    def __init__(self):
        self.oracle = self.make_oracle()

    def make_oracle(self) -> _SqliteOracle:
        raise NotImplementedError

    def run(self, system, op: Op, record: Record) -> None:
        result = system.query(self.federation, op.sql)
        record.rows = result.rows
        _trace_costs(record, result.trace)

    def verify(self, records: list[Record], system) -> list[str]:
        for record in records:
            if record.error is None:
                expected = self.oracle.rows(self.oracle_sql, record.op.args)
                if not _same_rows(record.rows, expected):
                    record.wrong.append(
                        f"{record.op.sql}: got {record.rows[:3]}..., "
                        f"sqlite3 gives {expected[:3]}..."
                    )
        return []

    def close(self) -> None:
        self.oracle.close()


class PointWorkload(_QueryWorkload):
    name = "point"
    why = (
        "per-query fixed path with 4-way fan-out; uniform keys over 8000 "
        "rows overflow the plan and fragment caches; full-scan PK lookup"
    )
    federation = "synth"
    sites, rows_per_site, data_seed = 4, 2000, 11
    oracle_sql = "SELECT k, grp, val FROM measurements WHERE k = ?"

    def make_oracle(self) -> _SqliteOracle:
        # The recipe of repro.workloads.build_partitioned_sites.
        rng = random.Random(self.data_seed)
        rows = []
        for index in range(self.sites):
            base = index * self.rows_per_site
            for offset in range(self.rows_per_site):
                grp = rng.randrange(16)
                rows.append((base + offset, grp, rng.random()))
        return _SqliteOracle(
            ["CREATE TABLE measurements "
             "(k INTEGER PRIMARY KEY, grp INTEGER, val REAL)"],
            {"measurements": rows},
        )

    def build(self):
        from repro.workloads import build_partitioned_sites

        return build_partitioned_sites(
            self.sites, self.rows_per_site, seed=self.data_seed
        )

    def operations(self, rng: random.Random):
        keys = self.sites * self.rows_per_site
        while True:
            key = rng.randrange(keys)
            yield Op(
                "point",
                QUERY,
                f"SELECT k, grp, val FROM measurements WHERE k = {key}",
                args=(key,),
            )


class SemijoinWorkload(_QueryWorkload):
    name = "semijoin"
    why = (
        "cost optimizer ships left keys as an IN list: the component "
        "engine's IN-list scan, fragment registration and residual join"
    )
    federation = "synth"
    left_rows, right_rows, data_seed = 1000, 1000, 7
    match_fraction = 0.5
    cutoff_low, cutoff_high = 0.05, 0.5
    oracle_sql = (
        "SELECT l.k, r.val FROM lhs l JOIN rhs r ON l.k = r.k WHERE l.flt < ?"
    )
    warmup_ops = 3

    def make_oracle(self) -> _SqliteOracle:
        # The recipe of repro.workloads.build_two_site_join.
        rng = random.Random(self.data_seed)
        left = [(key, rng.random()) for key in range(self.left_rows)]
        matchable = max(self.left_rows, 1)
        right = []
        for rid in range(self.right_rows):
            if rng.random() < self.match_fraction:
                key = rng.randrange(matchable)
            else:
                key = matchable + rng.randrange(max(self.right_rows, 1))
            right.append((rid, key, rng.random()))
        flts = sorted(flt for _, flt in left)
        # Cut-offs halfway between neighbouring left values: two cut-offs
        # drawn close together would otherwise select the same left keys,
        # ship the same IN list and hit the fragment cache.
        self.cutoffs = [
            f"{(low + high) / 2:.9f}"
            for low, high in zip(flts, flts[1:])
            if self.cutoff_low <= (low + high) / 2 <= self.cutoff_high
        ]
        return _SqliteOracle(
            ["CREATE TABLE lhs (k INTEGER PRIMARY KEY, flt REAL)",
             "CREATE TABLE rhs (rid INTEGER PRIMARY KEY, k INTEGER, val REAL)",
             "CREATE INDEX rhs_k ON rhs (k)"],
            {"lhs": left, "rhs": right},
        )

    def build(self):
        from repro.workloads import build_two_site_join

        return build_two_site_join(
            self.left_rows,
            self.right_rows,
            match_fraction=self.match_fraction,
            seed=self.data_seed,
        )

    def operations(self, rng: random.Random):
        """Cut-offs drawn without replacement, so key sets do not repeat."""
        while True:
            for text in rng.sample(self.cutoffs, len(self.cutoffs)):
                yield Op(
                    "join",
                    QUERY,
                    "SELECT l.k, r.val FROM lhs l JOIN rhs r "
                    f"ON l.k = r.k WHERE l.flt < {text}",
                    args=(float(text),),
                )


class BankMixWorkload(Workload):
    name = "bank-mix"
    why = (
        "2PC transfers beside point reads and audits on the same caches; "
        "the only workload that reaches txn and concurrency"
    )
    latency_types = (QUERY, TXN)
    federation = "bank"
    sites, accounts_per_site, initial_balance = 4, 500, 1000.0
    #: Per block of ten operations: five transfers, four reads, one audit,
    #: in seeded order, so every prefix of whole blocks has the exact mix.
    block = ("transfer",) * 5 + ("read",) * 4 + ("audit",)
    max_amount = 100
    warmup_ops = 10

    def build(self):
        from repro.workloads import build_bank_sites

        return build_bank_sites(
            self.sites,
            self.accounts_per_site,
            initial_balance=self.initial_balance,
            query_timeout=2.0,
        )

    @property
    def total(self) -> float:
        return self.sites * self.accounts_per_site * self.initial_balance

    def operations(self, rng: random.Random):
        accounts = self.sites * self.accounts_per_site
        while True:
            kinds = list(self.block)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "transfer":
                    src, dst = rng.sample(range(self.sites), 2)
                    a = src * self.accounts_per_site + rng.randrange(
                        self.accounts_per_site
                    )
                    b = dst * self.accounts_per_site + rng.randrange(
                        self.accounts_per_site
                    )
                    amount = rng.randint(1, self.max_amount)
                    debit = (
                        f"UPDATE account SET balance = balance - {amount} "
                        f"WHERE acct = {a}"
                    )
                    credit = (
                        f"UPDATE account SET balance = balance + {amount} "
                        f"WHERE acct = {b}"
                    )
                    yield Op(
                        "transfer",
                        TXN,
                        f"{debit}; {credit}",
                        write=True,
                        args=(
                            f"b{src}", debit, f"b{dst}", credit, a, b, amount
                        ),
                    )
                elif kind == "read":
                    acct = rng.randrange(accounts)
                    yield Op(
                        "read",
                        QUERY,
                        "SELECT acct, balance FROM accounts "
                        f"WHERE acct = {acct}",
                        args=(acct,),
                    )
                else:
                    yield Op(
                        "audit", QUERY, "SELECT SUM(balance) FROM accounts"
                    )

    def run(self, system, op: Op, record: Record) -> None:
        if op.kind != "transfer":
            result = system.query(self.federation, op.sql)
            record.rows = result.rows
            _trace_costs(record, result.trace)
            return
        src_site, debit, dst_site, credit = op.args[:4]
        # Leaving the block commits; an exception aborts an active txn.
        with system.begin_transaction() as txn:
            txn.execute(src_site, debit)
            txn.execute(dst_site, credit)
        record.rows = []
        _trace_costs(record, txn.trace)

    def verify(self, records: list[Record], system) -> list[str]:
        """Replay the records in order against the balance model.

        Transfers that raised are assumed not applied; if one was, the
        reads, audits and final state after it disagree with the model.
        """
        accounts = self.sites * self.accounts_per_site
        model = {acct: self.initial_balance for acct in range(accounts)}
        for record in records:
            op = record.op
            if record.error is not None:
                continue
            if op.kind == "transfer":
                a, b, amount = op.args[4:]
                model[a] -= amount
                model[b] += amount
            elif op.kind == "read":
                acct = op.args[0]
                if not _same_rows(record.rows, [(acct, model[acct])]):
                    record.wrong.append(
                        f"{op.sql}: got {record.rows}, model {model[acct]}"
                    )
            elif not _same_rows(record.rows, [(self.total,)]):
                record.wrong.append(
                    f"audit: got {record.rows}, conserved {self.total}"
                )
        final = system.query(
            self.federation, "SELECT acct, balance FROM accounts"
        ).rows
        if not _same_rows(final, list(model.items())):
            return ["final balances differ from the balance model"]
        return []


WORKLOADS = {
    workload.name: workload
    for workload in (PointWorkload, SemijoinWorkload, BankMixWorkload)
}
