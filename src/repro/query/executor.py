"""Global query execution at the federation site.

Executes a :class:`~repro.query.localizer.GlobalPlan`:

1. ship fragment queries to gateways — independent fetches in parallel
   (accounted as parallel sections on the message trace), semijoin-dependent
   fetches after their key source,
2. materialise fragments as temporary tables in a per-query federation-site
   catalog,
3. evaluate the residual query there with the federation's integration
   functions registered,
4. return rows plus the full traffic/timing accounting.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.cache import FragmentCache
from repro.engine import LocalEngine, ResultSet
from repro.errors import (
    CircuitOpenError,
    ExecutionError,
    FederationError,
    MessageDropped,
)
from repro.gateway import LOCAL_ROW_COST_S, Gateway
from repro.net import MessageTrace
from repro.obs import DISABLED, FetchActual, Observability, obs_of
from repro.query.localizer import Fetch, GlobalPlan
from repro.schema.federation import Federation
from repro.sql import ast, to_sql
from repro.storage import Catalog, Column, TableSchema
from repro.storage.types import FLOAT, INTEGER, DataType, TypeKind

#: Mid-query re-planning trigger: a completed fetch whose actual row count
#: diverges from its estimate by at least this factor (either direction)
#: re-optimizes the remaining stages, when a replanner was passed to
#: :meth:`GlobalExecutor.execute`.
REPLAN_THRESHOLD = 3.0


def _canonical_type(datatype: DataType) -> DataType:
    """Fragment columns use federation-canonical types.

    Dialect-specific exact numerics (Oracle NUMBER → Decimal) become FLOAT
    at the federation site, matching the value normalisation gateways apply
    to shipped rows.
    """
    if datatype.kind is TypeKind.DECIMAL:
        # NUMBER(p) with no scale is an integer; anything else is FLOAT.
        if len(datatype.params) == 1 or (
            len(datatype.params) == 2 and datatype.params[1] == 0
        ):
            return INTEGER
        return FLOAT
    return datatype


@dataclass
class GlobalResult:
    """Result of one global query: rows + plan + accounting."""

    columns: list[str]
    rows: list[tuple]
    plan: GlobalPlan
    trace: MessageTrace
    fetched_rows: int = 0
    #: Per-fetch measurements (fetch index → actuals), for explain_analyze.
    fetch_actuals: dict[int, FetchActual] = field(default_factory=dict)
    #: True when ``allow_partial`` execution skipped one or more sites:
    #: the rows cover only the reachable part of the federation.
    degraded: bool = False
    #: Sites whose fragments are missing from a degraded result.
    missing_sites: list[str] = field(default_factory=list)
    #: Correlation id of the request that produced this result; stamped on
    #: every span, event, and network message of the execution.
    request_id: str | None = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> object:
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[object]:
        try:
            position = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"no column {name!r} in result") from None
        return [row[position] for row in self.rows]

    @property
    def elapsed_s(self) -> float:
        return self.trace.elapsed_s

    @property
    def bytes_shipped(self) -> int:
        return self.trace.total_bytes

    def explain_analyze(self) -> str:
        """The executed plan annotated with per-fetch actuals vs. estimates."""
        from repro.obs.explain import render_explain_analyze

        return render_explain_analyze(self)


def _replannable_copy(plan: GlobalPlan) -> GlobalPlan:
    """A copy of ``plan`` that re-planning may edit without touching it.

    ``CostBasedOptimizer.replan`` only reassigns fields of fetches and
    appends to the notes, so the plan, its fetch list, each fetch and the
    notes are copied; ASTs, columns and join edges stay shared.
    """
    return replace(
        plan,
        fetches=[replace(fetch) for fetch in plan.fetches],
        notes=list(plan.notes),
    )


@dataclass
class _Stage:
    fetches: list[Fetch] = field(default_factory=list)


@dataclass
class _FetchOutcome:
    """What one fetch produced, collected off a worker or inline."""

    fetch: Fetch
    result: ResultSet | None = None
    actual: FetchActual | None = None
    degraded: bool = False
    error: BaseException | None = None


class GlobalExecutor:
    """Runs GlobalPlans for one federation.

    Independent fetches of one stage run concurrently on a bounded thread
    pool (one worker per *site*, so a single gateway never sees two fetches
    of the same query at once).  All simulated accounting is
    interleaving-independent — per-branch sums feeding a max — so parallel
    execution produces bit-identical simulated cost, bytes, and rows to
    sequential execution (``parallel_fetches=1``).
    """

    def __init__(
        self,
        federation: Federation,
        obs: Observability | None = None,
        parallel_fetches: int = 4,
        fragment_cache: FragmentCache | None = None,
        vectorized: bool = False,
        wire_compression: bool = False,
    ):
        self.federation = federation
        self._obs = obs
        #: Run the federation-site residual query on the columnar engine.
        self.vectorized = bool(vectorized)
        #: Gateways ship dict/RLE-encoded fragments; cached fragments keep
        #: the encoded payload and decode on hit.
        self.wire_compression = bool(wire_compression)
        #: Transient-loss resilience: each fetch retries dropped messages
        #: up to this many times, with exponential simulated backoff.
        self.fetch_retry_limit = 2
        self.fetch_retry_backoff_s = 0.01
        #: Max fetch worker threads per stage; <= 1 disables threading.
        self.parallel_fetches = parallel_fetches
        #: Optional federation-site fragment cache (shared across queries;
        #: bypassed inside global transactions).
        self.fragment_cache = fragment_cache
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the fetch worker pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(2, self.parallel_fetches),
                    thread_name_prefix="myriad-fetch",
                )
            return self._pool

    @property
    def gateways(self) -> dict[str, Gateway]:
        return self.federation.gateways

    @property
    def obs(self) -> Observability:
        if self._obs is not None:
            return self._obs
        for gateway in self.federation.gateways.values():
            return obs_of(gateway.network)
        return DISABLED

    def execute(
        self,
        plan: GlobalPlan,
        trace: MessageTrace | None = None,
        timeout: float | None = None,
        global_id: object | None = None,
        allow_partial: bool = False,
        skip_sites: set[str] | None = None,
        replanner=None,
        request_id: str | None = None,
    ) -> GlobalResult:
        """Run one global plan.

        Dropped fetch messages are retried up to ``fetch_retry_limit``
        times with exponential simulated backoff.  With
        ``allow_partial=True``, a site whose circuit breaker refuses
        traffic — or that stays unreachable through every retry — is
        *skipped*: its fragment materialises empty, and the result comes
        back ``degraded`` with the site listed in ``missing_sites``.
        ``skip_sites`` pre-seeds that set (sites the caller already found
        dead, e.g. while opening transaction branches).

        ``replanner`` (an optimizer with a ``replan`` method) switches on
        **adaptive mid-query re-planning**: after each stage, if a
        completed fetch's actual rows diverged from its estimate beyond
        :data:`REPLAN_THRESHOLD` — or a remaining site's circuit breaker
        opened — the not-yet-executed fetches are re-optimized with the
        measured actuals pinned.  Stages are scheduled dynamically, so a
        revised dependency graph takes effect immediately.  Without a
        replanner the schedule is identical to the non-adaptive executor.

        ``plan`` may be shared (the plan cache hands one object to every
        query), so it is never edited: re-planning works on a private copy,
        which ``GlobalResult.plan`` returns.
        """
        if replanner is not None:
            plan = _replannable_copy(plan)
        trace = trace or MessageTrace()
        obs = self.obs
        health = self._health()
        missing: set[str] = set(skip_sites or ())
        catalog = Catalog(f"federation:{self.federation.name}")
        engine = LocalEngine(
            catalog,
            functions=self.federation.functions.as_dict(),
            vectorized=self.vectorized,
        )
        use_cache = self.fragment_cache is not None and global_id is None

        fetch_results: dict[int, ResultSet] = {}
        fetch_actuals: dict[int, FetchActual] = {}
        fetched_rows = 0
        remaining = {fetch.index: fetch for fetch in plan.fetches}
        done: set[int] = set()
        stage_index = 0
        while remaining:
            stage = self._next_stage(remaining, done)
            with obs.span("execute.stage", stage=stage_index) as stage_span:
                groups = self._site_groups(stage)
                run_parallel = self.parallel_fetches > 1 and len(groups) > 1
                trace.begin_parallel()
                # end_parallel() must run even when a fetch raises
                # (MessageDropped, GatewayTimeout, ...): a caller-supplied
                # trace outlives this call, and an unbalanced parallel
                # section would swallow every later cost it records.
                try:
                    if run_parallel:
                        outcomes = self._run_stage_parallel(
                            groups,
                            fetch_results,
                            trace,
                            timeout,
                            global_id,
                            allow_partial,
                            missing,
                            health,
                            obs,
                            stage_span,
                            use_cache,
                            request_id,
                        )
                    else:
                        outcomes = [
                            self._run_one(
                                fetch,
                                fetch_results,
                                trace,
                                timeout,
                                global_id,
                                allow_partial,
                                missing,
                                health,
                                obs,
                                stage_span,
                                use_cache,
                                request_id=request_id,
                            )
                            for fetch in stage.fetches
                        ]
                    # Workers capture failures instead of raising (every
                    # branch must finish before the section closes); the
                    # earliest failed fetch in plan order wins, matching
                    # what sequential execution would have raised.
                    for outcome in outcomes:
                        if outcome.error is not None:
                            raise outcome.error
                finally:
                    trace.end_parallel()
                for outcome in outcomes:
                    fetch = outcome.fetch
                    fetch_results[fetch.index] = outcome.result
                    if outcome.degraded:
                        continue
                    if outcome.actual is not None:
                        fetch_actuals[fetch.index] = outcome.actual
                    fetched_rows += len(outcome.result.rows)
                stage_span.tag(fetches=len(stage.fetches))
            for fetch in stage.fetches:
                self._register_fragment(
                    catalog, fetch, fetch_results[fetch.index]
                )
                del remaining[fetch.index]
                done.add(fetch.index)
            if replanner is not None and remaining:
                self._maybe_replan(
                    plan,
                    stage,
                    stage_index,
                    replanner,
                    remaining,
                    done,
                    fetch_results,
                    fetch_actuals,
                    missing,
                    health,
                    obs,
                    trace,
                    request_id,
                )
            stage_index += 1

        with obs.span("execute.residual") as residual_span:
            result = engine.execute_query(plan.query)
            residual_sim = engine.last_report.rows_scanned * LOCAL_ROW_COST_S
            trace.add_compute(residual_sim)
            residual_span.set_sim(residual_sim)
            residual_span.tag(rows=len(result.rows))
        if missing:
            obs.metrics.inc("query.degraded")
            obs.emit(
                "query.degraded", sites=sorted(missing), request=request_id
            )
        return GlobalResult(
            columns=result.columns,
            rows=result.rows,
            plan=plan,
            trace=trace,
            fetched_rows=fetched_rows,
            fetch_actuals=fetch_actuals,
            degraded=bool(missing),
            missing_sites=sorted(missing),
            request_id=request_id,
        )

    def _health(self):
        for gateway in self.federation.gateways.values():
            return getattr(gateway.network, "health", None)
        return None

    def _degraded_fragment(self, fetch: Fetch, obs: Observability) -> ResultSet:
        """Empty stand-in for a fragment from a skipped (dead) site.

        Downstream semijoins see zero key values (their shipped query
        degenerates to ``1=0``), so the rest of the plan still runs.
        """
        obs.metrics.inc("query.degraded_fetches", site=fetch.site)
        return ResultSet(list(fetch.columns), [])

    def _fetch_with_retry(
        self,
        fetch: Fetch,
        shipped: ast.Select,
        trace: MessageTrace,
        timeout: float | None,
        global_id: object | None,
        request_id: str | None = None,
    ) -> ResultSet:
        """One fetch with bounded retry of transient message loss.

        Backoff is exponential in *simulated* time, charged both to the
        query's trace (the caller waits it out) and to the network clock
        (so breaker cooldowns advance).  Only
        :class:`~repro.errors.MessageDropped` is transient; a refused
        circuit fails immediately.
        """
        gateway = self.gateways[fetch.site]
        network = gateway.network
        last_error: MessageDropped | None = None
        for attempt in range(self.fetch_retry_limit + 1):
            if attempt:
                self.obs.metrics.inc("query.fetch_retries", site=fetch.site)
                backoff = self.fetch_retry_backoff_s * 2 ** (attempt - 1)
                trace.add_compute(backoff)
                network.advance(backoff)
            try:
                return gateway.execute_query(
                    shipped,
                    trace=trace,
                    timeout=timeout,
                    global_id=global_id,
                    request_id=request_id,
                )
            except MessageDropped as error:
                last_error = error
        raise last_error

    # ------------------------------------------------------------------
    # Fetch scheduling
    # ------------------------------------------------------------------

    def _stages(self, plan: GlobalPlan) -> list[_Stage]:
        """Topological stages: semijoin sources before their targets."""
        remaining = {fetch.index: fetch for fetch in plan.fetches}
        done: set[int] = set()
        stages: list[_Stage] = []
        while remaining:
            stage = _Stage()
            for index, fetch in list(remaining.items()):
                dependency = (
                    fetch.semijoin.source_index
                    if fetch.semijoin is not None
                    else None
                )
                if dependency is None or dependency in done:
                    stage.fetches.append(fetch)
            if not stage.fetches:
                raise FederationError(
                    "cyclic semijoin dependencies in global plan"
                )
            for fetch in stage.fetches:
                del remaining[fetch.index]
                done.add(fetch.index)
            stages.append(stage)
        return stages

    def _next_stage(
        self, remaining: dict[int, Fetch], done: set[int]
    ) -> _Stage:
        """The currently-ready fetches: no dependency, or source done.

        Equivalent to one iteration of :meth:`_stages`, but computed
        against the *live* plan so mid-query re-planning (which rewires
        semijoin dependencies of unexecuted fetches) takes effect on the
        very next stage.
        """
        stage = _Stage()
        for fetch in remaining.values():
            dependency = (
                fetch.semijoin.source_index
                if fetch.semijoin is not None
                else None
            )
            if dependency is None or dependency in done:
                stage.fetches.append(fetch)
        if not stage.fetches:
            raise FederationError(
                "cyclic semijoin dependencies in global plan"
            )
        return stage

    def _maybe_replan(
        self,
        plan: GlobalPlan,
        stage: _Stage,
        stage_index: int,
        replanner,
        remaining: dict[int, Fetch],
        done: set[int],
        fetch_results: dict[int, ResultSet],
        fetch_actuals: dict[int, FetchActual],
        missing: set[str],
        health,
        obs: Observability,
        trace: MessageTrace,
        request_id: str | None = None,
    ) -> None:
        """Re-optimize remaining stages if this stage's actuals diverged.

        Triggers when a just-completed fetch's measured row count is off
        from its estimate by :data:`REPLAN_THRESHOLD`× in either direction, or
        when a remaining site's circuit breaker has opened (pure state
        check — probe admission stays with the fetch path).  Delegates the
        actual plan surgery to ``replanner.replan`` with completed fetches
        pinned and exact key counts read off the materialised fragments.
        """
        trigger: str | None = None
        for fetch in stage.fetches:
            actual = fetch_actuals.get(fetch.index)
            if actual is None or fetch.est_rows is None:
                continue
            ratio = max(
                (actual.rows + 1.0) / (fetch.est_rows + 1.0),
                (fetch.est_rows + 1.0) / (actual.rows + 1.0),
            )
            if ratio >= REPLAN_THRESHOLD:
                trigger = (
                    f"divergence: fetch #{fetch.index} estimated "
                    f"{fetch.est_rows:.0f} rows, measured {actual.rows} "
                    f"({ratio:.1f}x)"
                )
                break
        if trigger is None and health is not None:
            for fetch in remaining.values():
                if fetch.site not in missing and health.is_blocked(fetch.site):
                    trigger = f"breaker open: site {fetch.site!r}"
                    break
        if trigger is None:
            return

        # Degraded fetches count as executed (they must stay pinned) but
        # carry (0, 0) and are refused as key sources via key_count=None.
        executed: dict[int, tuple[float, float]] = {}
        for index in done:
            actual = fetch_actuals.get(index)
            executed[index] = (
                (float(actual.rows), float(actual.bytes))
                if actual is not None
                else (0.0, 0.0)
            )

        def key_count(index: int, column: str) -> int | None:
            if fetch_actuals.get(index) is None:
                return None  # degraded fragment: not a usable key source
            result = fetch_results.get(index)
            if result is None:
                return None
            try:
                values = result.column(column)
            except ExecutionError:
                return None
            return len({value for value in values if value is not None})

        notes = replanner.replan(
            plan, executed, key_count, stage=stage_index
        )
        if notes:
            obs.metrics.inc("query.replans")
            obs.emit(
                "query.replan",
                stage=stage_index,
                trigger=trigger,
                changes=len(notes),
                sim_s=trace.elapsed_s,
                request=request_id,
            )

    def _site_groups(self, stage: _Stage) -> list[tuple[str, list[Fetch]]]:
        """Stage fetches grouped by site, preserving first-seen order.

        One worker per group: a gateway never runs two fetches of the same
        query concurrently, and within a site the sequential fetch order
        (hence accounting order) is preserved exactly.
        """
        groups: dict[str, list[Fetch]] = {}
        for fetch in stage.fetches:
            groups.setdefault(fetch.site, []).append(fetch)
        return list(groups.items())

    def _run_stage_parallel(
        self,
        groups: list[tuple[str, list[Fetch]]],
        fetch_results: dict[int, ResultSet],
        trace: MessageTrace,
        timeout: float | None,
        global_id: object | None,
        allow_partial: bool,
        missing: set[str],
        health,
        obs: Observability,
        stage_span,
        use_cache: bool,
        request_id: str | None = None,
    ) -> list[_FetchOutcome]:
        """Run one stage's site groups on the worker pool.

        Returns outcomes in the stage's original fetch order.  Every
        future is awaited (even after a failure) so no branch is still
        recording when the caller closes the parallel section.
        """
        pool = self._ensure_pool()

        def run_group(fetches: list[Fetch]) -> list[_FetchOutcome]:
            outcomes = []
            for fetch in fetches:
                outcome = self._run_one(
                    fetch,
                    fetch_results,
                    trace,
                    timeout,
                    global_id,
                    allow_partial,
                    missing,
                    health,
                    obs,
                    stage_span,
                    use_cache,
                    capture_errors=True,
                    request_id=request_id,
                )
                outcomes.append(outcome)
                if outcome.error is not None:
                    # Fatal for the whole query: stop burning messages on
                    # this site; remaining group fetches never run (same
                    # as sequential execution after a raise).
                    break
            return outcomes

        futures = [pool.submit(run_group, fetches) for _, fetches in groups]
        by_index: dict[int, _FetchOutcome] = {}
        for future in futures:
            for outcome in future.result():
                by_index[outcome.fetch.index] = outcome
        ordered = []
        for _, fetches in groups:
            for fetch in fetches:
                if fetch.index in by_index:
                    ordered.append(by_index[fetch.index])
        ordered.sort(key=lambda o: o.fetch.index)
        return ordered

    def _run_one(
        self,
        fetch: Fetch,
        fetch_results: dict[int, ResultSet],
        trace: MessageTrace,
        timeout: float | None,
        global_id: object | None,
        allow_partial: bool,
        missing: set[str],
        health,
        obs: Observability,
        stage_span,
        use_cache: bool,
        capture_errors: bool = False,
        request_id: str | None = None,
    ) -> _FetchOutcome:
        """One fetch end to end: degrade, cache lookup, ship, cache store.

        With ``capture_errors`` (worker mode) fatal exceptions come back
        in the outcome instead of raising, so sibling branches finish and
        the caller re-raises deterministically.
        """
        outcome = _FetchOutcome(fetch=fetch)
        try:
            if fetch.site in missing:
                outcome.degraded = True
                outcome.result = self._degraded_fragment(fetch, obs)
                return outcome
            # is_blocked (pure), not allow(): the half-open probe slot is
            # admitted by the gateway's own circuit check on the send path
            # — consuming it here would double-count one request as two
            # probes (and starve the single-flight probe).
            if (
                allow_partial
                and health is not None
                and health.is_blocked(fetch.site)
            ):
                missing.add(fetch.site)
                outcome.degraded = True
                outcome.result = self._degraded_fragment(fetch, obs)
                return outcome
            shipped = self._shipped_query(fetch, fetch_results)
            gateway = self.gateways[fetch.site]
            shipped_sql: str | None = None
            version_before: tuple | None = None
            # The codec family is part of the cache key: toggling the knob
            # on a live federation must never replay entries stored under
            # the other payload format.
            cache_codec = "dictrle" if self.wire_compression else ""
            if use_cache:
                shipped_sql = to_sql(shipped)
                version_before = gateway.data_version(fetch.export)
                hit = self.fragment_cache.lookup(
                    fetch.site,
                    fetch.export,
                    shipped_sql,
                    version_before,
                    codec=cache_codec,
                )
                if hit is not None:
                    obs.metrics.inc("fragcache.hit", site=fetch.site)
                    rows = hit.materialize()
                    outcome.result = ResultSet(list(hit.columns), rows)
                    outcome.actual = FetchActual(
                        rows=len(rows), cached=True
                    )
                    return outcome
                obs.metrics.inc("fragcache.miss", site=fetch.site)
            branch_name = f"{fetch.site}:{fetch.binding}"
            wall_start = time.perf_counter()
            with obs.span(
                "execute.fetch",
                parent=stage_span,
                site=fetch.site,
                export=fetch.export,
                binding=fetch.binding,
            ) as fetch_span:
                try:
                    with trace.branch(branch_name) as branch:
                        result = self._fetch_with_retry(
                            fetch, shipped, trace, timeout, global_id,
                            request_id=request_id,
                        )
                except (MessageDropped, CircuitOpenError):
                    if not allow_partial:
                        raise
                    missing.add(fetch.site)
                    outcome.degraded = True
                    outcome.result = self._degraded_fragment(fetch, obs)
                    return outcome
                encoded = getattr(result, "encoded", None)
                actual = FetchActual(
                    rows=len(result.rows),
                    bytes=branch.payload_bytes,
                    messages=len(branch.records),
                    sim_s=trace.branch_elapsed(branch_name),
                    wall_s=time.perf_counter() - wall_start,
                    raw_bytes=branch.raw_payload_bytes,
                    codec=encoded.codec if encoded is not None else None,
                )
                fetch_span.set_sim(actual.sim_s)
                fetch_span.tag(rows=actual.rows, bytes=actual.bytes)
            if use_cache:
                # Degraded fragments never reach this store (they return
                # above); a version moved by a concurrent commit between
                # capture and arrival is rejected inside store().
                stored = self.fragment_cache.store(
                    fetch.site,
                    fetch.export,
                    shipped_sql,
                    version_before,
                    gateway.data_version(fetch.export),
                    result.columns,
                    result.rows,
                    encoded=encoded,
                    codec=cache_codec,
                )
                if stored and encoded is not None:
                    obs.metrics.inc(
                        "fragcache.bytes_raw", encoded.raw_bytes
                    )
                    obs.metrics.inc(
                        "fragcache.bytes_wire", encoded.wire_bytes
                    )
                    obs.metrics.inc(
                        "fragcache.bytes_saved",
                        encoded.raw_bytes - encoded.wire_bytes,
                    )
            outcome.result = result
            outcome.actual = actual
            return outcome
        except BaseException as error:
            if not capture_errors:
                raise
            outcome.error = error
            return outcome

    def _shipped_query(
        self, fetch: Fetch, fetch_results: dict[int, ResultSet]
    ) -> ast.Select:
        """Build the SELECT shipped for this fetch (semijoin keys bound)."""
        in_list: list[object] | None = None
        if fetch.semijoin is not None:
            source = fetch_results[fetch.semijoin.source_index]
            key_values = source.column(fetch.semijoin.source_column)
            seen: set[object] = set()
            in_list = []
            for value in key_values:
                if value is None or value in seen:
                    continue
                seen.add(value)
                in_list.append(value)
        return fetch.shipped_query(in_list)

    def _register_fragment(
        self, catalog: Catalog, fetch: Fetch, result: ResultSet
    ) -> None:
        if fetch.whole_query is not None:
            # Shipped whole blocks (aggregates etc.): output types are only
            # known dynamically — register pass-through columns.
            from repro.storage.types import ANY

            schema = TableSchema(
                fetch.temp_name,
                [Column(name, ANY) for name in result.columns],
            )
            table = catalog.create_table(schema)
            for row in result.rows:
                table.insert(row)
            return
        gateway = self.gateways[fetch.site]
        export_schema = gateway.export_relation_schema(fetch.export)
        columns = [
            Column(
                name,
                _canonical_type(export_schema.column(name).datatype),
                nullable=True,
            )
            for name in fetch.columns
        ]
        # Keep the primary key when fully shipped: the federation planner
        # can then use index lookups on the fragment.
        shipped = {c.lower() for c in fetch.columns}
        primary_key = (
            list(export_schema.primary_key)
            if export_schema.primary_key
            and all(k.lower() in shipped for k in export_schema.primary_key)
            else []
        )
        if primary_key:
            # A shipped fragment can legally repeat key values (overlapping
            # export relations behind a union view, semijoin-reduced
            # fetches): fall back to a keyless temp table rather than
            # failing the materialisation — the fragment is intermediate
            # state, not the export itself.
            positions = [
                [c.name.lower() for c in columns].index(k.lower())
                for k in primary_key
            ]
            seen_keys: set[tuple] = set()
            for row in result.rows:
                key = tuple(row[p] for p in positions)
                if key in seen_keys or any(v is None for v in key):
                    primary_key = []
                    break
                seen_keys.add(key)
        schema = TableSchema(fetch.temp_name, columns, primary_key)
        table = catalog.create_table(schema)
        for row in result.rows:
            table.insert(row)
