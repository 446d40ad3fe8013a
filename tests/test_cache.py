"""Plan-cache and fragment-cache tests: hits, invalidation, edge cases.

The invalidation contract under test:

- committed DML through any gateway path (1PC, 2PC) bumps the written
  export's data version → the next read misses and fetches fresh rows
- DML inside an *aborted* global transaction must NOT invalidate
- degraded (``allow_partial``) fragments are never cached
- reads inside a global transaction bypass the fragment cache entirely
- redefining an integrated relation or an export flushes compiled plans
- a plan-cache hit returns the shared plan, which execution never edits
"""

import pytest

from repro.cache import FragmentCache, LRUCache, PlanCache, fragment_digest
from repro.myriad import MyriadSystem
from repro.query.feedback import fetch_shape
from repro.workloads import build_bank_sites
from tests.test_adaptive import JOIN, build_skewed_join


@pytest.fixture
def bank():
    with build_bank_sites(3, 4, query_timeout=1.0) as system:
        yield system


BALANCES = "SELECT acct, balance FROM accounts"


def _hits(system):
    return system.metrics.counter_total("fragcache.hit")


class TestFragmentCacheHits:
    def test_repeat_read_costs_zero_messages(self, bank):
        first = bank.query("bank", BALANCES)
        messages_after_first = bank.network.total_messages
        second = bank.query("bank", BALANCES)
        assert bank.network.total_messages == messages_after_first
        assert second.rows == first.rows
        assert _hits(bank) == 3  # one per site
        assert second.trace.message_count == 0
        assert second.bytes_shipped == 0

    def test_explain_analyze_marks_cached_fetches(self, bank):
        bank.query("bank", BALANCES)
        second = bank.query("bank", BALANCES)
        analyzed = second.explain_analyze()
        assert "cached" in analyzed
        assert all(actual.cached for actual in second.fetch_actuals.values())

    def test_distinct_fragments_cached_separately(self, bank):
        bank.query("bank", BALANCES)
        bank.query("bank", "SELECT acct FROM accounts WHERE balance > 0")
        assert _hits(bank) == 0
        assert len(bank.processor("bank").fragment_cache) == 6


class TestFragmentCacheInvalidation:
    def test_committed_dml_invalidates(self, bank):
        stale = bank.query(
            "bank", "SELECT balance FROM accounts WHERE acct = 0"
        ).scalar()
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = 777 WHERE acct = 0"
        )
        txn.commit()
        fresh = bank.query(
            "bank", "SELECT balance FROM accounts WHERE acct = 0"
        ).scalar()
        assert stale == 1000.0
        assert fresh == 777.0

    def test_two_phase_commit_invalidates_every_branch(self, bank):
        bank.query("bank", BALANCES)
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = balance - 5 WHERE acct = 0"
        )
        txn.execute(
            "b1", "UPDATE account SET balance = balance + 5 WHERE acct = 4"
        )
        txn.commit()
        result = bank.query("bank", BALANCES)
        row = {acct: bal for acct, bal in result.rows}
        assert row[0] == 995.0
        assert row[4] == 1005.0
        # b2 was untouched: its fragment may still be served from cache
        assert _hits(bank) == 1

    def test_aborted_txn_does_not_invalidate(self, bank):
        bank.query("bank", BALANCES)
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = 0 WHERE acct = 0"
        )
        txn.abort()
        second = bank.query("bank", BALANCES)
        # nothing committed → every fragment still valid → all hits
        assert _hits(bank) == 3
        assert second.trace.message_count == 0
        assert {bal for _, bal in second.rows} == {1000.0}

    def test_reads_inside_global_txn_bypass_cache(self, bank):
        bank.query("bank", BALANCES)  # populate
        txn = bank.begin_transaction()
        result = bank.transactional_query(txn, "bank", BALANCES)
        txn.commit()
        assert _hits(bank) == 0
        assert result.trace.message_count > 0

    def test_degraded_fragments_never_cached(self, bank):
        faults = bank.inject_faults()
        faults.crash_site("b2")
        degraded = bank.query("bank", BALANCES, allow_partial=True)
        assert degraded.degraded and degraded.missing_sites == ["b2"]
        faults.restart_site("b2")
        # let b2's circuit-breaker cooldown elapse so the probe is admitted
        bank.network.advance(1.0)
        healed = bank.query("bank", BALANCES)
        assert not healed.degraded
        assert len(healed.rows) == 12  # b2's rows are back, not the empty
        assert _hits(bank) <= 2  # b2's fragment was never served from cache

    def test_export_schema_change_invalidates_site(self, bank):
        bank.query("bank", BALANCES)
        gateway = bank.gateway("b0")
        gateway.dbms.execute("CREATE TABLE aux (id INTEGER PRIMARY KEY)")
        gateway.export_table("aux", "aux")
        refreshed = bank.query("bank", BALANCES)
        assert len(refreshed.rows) == 12
        # b0's export epoch bumped → its fragment refetched; the other
        # sites' fragments are untouched and still hit
        assert bank.metrics.counter("fragcache.hit", site="b0") == 0
        assert bank.metrics.counter("fragcache.hit", site="b1") == 1


class TestPlanCache:
    def test_hit_and_miss_metrics(self, bank):
        metrics = bank.metrics
        bank.query("bank", BALANCES)
        assert metrics.counter_total("plancache.miss") == 1
        assert metrics.counter_total("plancache.hit") == 0
        bank.query("bank", BALANCES)
        assert metrics.counter_total("plancache.hit") == 1

    def test_optimizer_variants_cached_separately(self, bank):
        processor = bank.processor("bank")
        plan_a = processor.plan(BALANCES, "cost")
        plan_b = processor.plan(BALANCES, "cost-nosemijoin")
        assert plan_a is not plan_b
        assert bank.metrics.counter_total("plancache.miss") == 2

    def test_schema_redefinition_flushes(self, bank):
        bank.query("bank", BALANCES)
        fed = bank.federation("bank")
        relation = fed.get_relation("accounts")
        fed.drop_relation("accounts")
        fed.add_relation(relation)
        bank.query("bank", BALANCES)
        # second planning missed: the schema version moved the cache key
        assert bank.metrics.counter_total("plancache.miss") == 2
        assert bank.metrics.counter_total("plancache.hit") == 0

    def test_committed_dml_flushes(self, bank):
        bank.query("bank", BALANCES)
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = 1 WHERE acct = 0"
        )
        txn.commit()
        bank.query("bank", BALANCES)
        # stats version moved → plans recompile against fresh statistics
        assert bank.metrics.counter_total("plancache.miss") == 2

    def test_stats_refresh_flushes(self, bank):
        # regression companion to the gateway stats_version fix: an
        # explicit statistics refresh must expire compiled plans
        bank.query("bank", BALANCES)
        bank.gateway("b0").export_stats("account", refresh=True)
        bank.query("bank", BALANCES)
        assert bank.metrics.counter_total("plancache.miss") == 2
        assert bank.metrics.counter_total("plancache.hit") == 0

    def test_runtime_stats_version_moves_the_key(self):
        with build_bank_sites(2, 2, adaptive_feedback=True) as system:
            processor = system.processor("bank")
            key_before = processor._plan_cache_key(BALANCES, "cost")
            system.query("bank", BALANCES)
            # first execution learned fresh entries → version bumped →
            # plans compiled against the old estimates expire by key
            key_after = processor._plan_cache_key(BALANCES, "cost")
            assert processor.runtime_stats.version > 0
            assert key_before != key_after

    def test_adaptive_feedback_converges_to_cache_hits(self):
        with build_bank_sites(
            2, 2, adaptive_feedback=True, fragment_cache=False
        ) as system:
            system.query("bank", BALANCES)  # miss: cold cache
            system.query("bank", BALANCES)  # miss: version moved after run 1
            assert system.metrics.counter_total("plancache.miss") == 2
            # run 2 re-observed identical actuals: no drift, no bump — the
            # learned estimates converged and caching resumes
            system.query("bank", BALANCES)
            assert system.metrics.counter_total("plancache.hit") == 1

    def test_disabled_by_knob(self):
        system = MyriadSystem(fragment_cache=False)
        gateway = system.add_postgres("s")
        gateway.dbms.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        gateway.export_table("t", "t")
        fed = system.create_federation("f")
        fed.define_relation("rel", "SELECT id FROM s.t")
        with system:
            assert system.processor("f").fragment_cache is None
            system.query("f", "SELECT id FROM rel")
            assert system.metrics.counter_total("fragcache.miss") == 0


#: SQL shapes whose plans must survive repeated execution unchanged:
#: shape -> (builder, federation, SQL, marker in the plan's EXPLAIN).
SHARED_PLAN_SHAPES = {
    "semijoin-join": (
        lambda: build_skewed_join(initial_left=3, final_left=3),
        "fed",
        JOIN,
        "SEMIJOIN",
    ),
    "oracle-whole-block-limit": (
        lambda: build_bank_sites(3, 4, query_timeout=1.0),
        "bank",
        "SELECT acct FROM b1.account ORDER BY acct DESC LIMIT 2",
        "SHIPPED BLOCK SELECT acct AS acct FROM account",
    ),
    "aggregate-pushdown": (
        lambda: build_bank_sites(3, 4, query_timeout=1.0),
        "bank",
        "SELECT COUNT(*), SUM(balance) FROM accounts",
        "SHIPPED BLOCK SELECT COUNT(*)",
    ),
    "in-subquery-residual": (
        lambda: build_bank_sites(3, 4, query_timeout=1.0),
        "bank",
        "SELECT acct FROM b0.account WHERE acct + 4 IN "
        "(SELECT acct FROM b1.account WHERE balance > 0) ORDER BY acct",
        "IN (SELECT acct FROM",
    ),
}


class TestSharedPlans:
    """A hit returns the cached plan itself; execution never edits it."""

    def test_hit_returns_the_cached_object(self, bank):
        processor = bank.processor("bank")
        first = processor.plan(BALANCES)
        assert processor.plan(BALANCES) is first
        assert bank.query("bank", BALANCES).plan is first

    def test_replan_edits_a_private_copy(self):
        with build_skewed_join(adaptive_replan=True) as system:
            cached = system.processor("fed").plan(JOIN)
            planned = cached.describe()
            result = system.query("fed", JOIN)  # a hit on ``cached``
            assert system.processor("fed").plan(JOIN) is cached
        assert result.plan is not cached
        assert any(note.startswith("replan@stage") for note in result.plan.notes)
        assert cached.describe() == planned
        assert not any(fetch.replanned for fetch in cached.fetches)

    def test_replanned_tag_on_miss_and_hit(self):
        # Tail sampling keeps re-planned traces; the tag must come from the
        # executed plan, not from the cached one.
        with build_skewed_join(adaptive_replan=True) as system:
            system.query("fed", JOIN)
            system.query("fed", JOIN)
            assert system.metrics.counter_total("plancache.miss") == 1
            assert system.metrics.counter_total("plancache.hit") == 1
            roots = system.tracer.find("query.execute")
        assert [root.tags.get("sample_keep") for root in roots] == [
            "replanned",
            "replanned",
        ]

    def test_feedback_records_the_executed_fetch_shapes(self):
        with build_skewed_join(
            adaptive_replan=True, adaptive_feedback=True
        ) as system:
            processor = system.processor("fed")
            cached = processor.plan(JOIN)
            result = system.query("fed", JOIN)
            store = processor.runtime_stats
        planned = next(f for f in cached.fetches if f.export == "right_rel")
        executed = next(
            f for f in result.plan.fetches if f.export == "right_rel"
        )
        assert planned.semijoin is not None
        assert executed.replanned and executed.semijoin is None
        assert store.lookup("s2", "right_rel", fetch_shape(executed))
        assert store.lookup("s2", "right_rel", fetch_shape(planned)) is None

    @pytest.mark.parametrize("shape", sorted(SHARED_PLAN_SHAPES))
    def test_repeated_hits_agree(self, shape):
        build, federation, sql, marker = SHARED_PLAN_SHAPES[shape]
        with build() as system:
            runs = [system.query(federation, sql) for _ in range(4)]
            assert system.metrics.counter_total("plancache.hit") == 3
            explain = system.explain(federation, sql)
        assert marker in explain
        for run in runs:
            assert run.rows == runs[0].rows
            assert run.plan.describe() == explain


class TestCachePrimitives:
    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats["evictions"] == 1

    def test_fragment_cache_rejects_racing_store(self):
        cache = FragmentCache()
        cache.store("s", "e", "SELECT 1", (0, 1), (0, 2), ["c"], [(1,)])
        assert cache.lookup("s", "e", "SELECT 1", (0, 2)) is None
        assert len(cache) == 0

    def test_fragment_cache_stale_entry_dropped_on_sight(self):
        cache = FragmentCache()
        cache.store("s", "e", "SELECT 1", (0, 1), (0, 1), ["c"], [(1,)])
        assert cache.lookup("s", "e", "SELECT 1", (0, 1)) is not None
        assert cache.lookup("s", "e", "SELECT 1", (0, 2)) is None
        assert cache.stats["stale_drops"] == 1
        assert len(cache) == 0

    def test_digest_differs_by_sql(self):
        assert fragment_digest("SELECT 1") != fragment_digest("SELECT 2")

    def test_plan_cache_bounded(self):
        cache = PlanCache(capacity=2)
        for i in range(5):
            cache.put(("q", i), {"plan": i})
        assert len(cache) == 2
