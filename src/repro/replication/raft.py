"""Deterministic Raft-style replica groups for component sites.

Each component site becomes a *replica group*: a leader plus N followers,
every replica backed by its own :class:`~repro.localdb.LocalDBMS` and its
own :class:`~repro.gateway.Gateway` registered under a replica network
site (``b0#0``, ``b0#1``, ...).  The group implements the Raft essentials
on the **simulated clock** — no background threads:

- **term-based leader election**, driven lazily from routed operations:
  when the leader is unreachable (dropped message) or its circuit breaker
  is open, :meth:`ReplicaGroup.elect` draws election timeouts from a
  seeded RNG (reproducible schedules), charges the winning timeout to the
  simulated clock, and campaigns with ``raft.vote_req`` /
  ``raft.vote_resp`` messages — all fault-injectable, so elections fail
  realistically under partitions and crashes
- **log replication** of committed local writes: autocommit DML, and the
  2PC branch lifecycle (prepare write-sets, commit/abort decisions) are
  appended to the leader's log and shipped to followers as
  ``raft.append`` messages; the commit index advances at **majority
  ack**, and a write is only reported durable once majority-replicated
- **deterministic apply**: followers apply committed entries to their own
  DBMS through the normal gateway DML machinery (parse → export rewrite →
  local execution → version bumps), so follower state converges to the
  leader's and follower reads stay explainable

Safety bookkeeping doubles as the chaos audit surface: the group records
every ``(term, leader)`` election and every majority-committed entry, so
:mod:`repro.chaos` can check *at most one leader per term* and *no
committed-then-lost entry* across any failover schedule.

Raft message purposes (all consulted by the fault injector, all exempt
from circuit-breaker attribution — replica-to-replica losses must not
open the federation-facing breaker of the *sender*):

========================  ============================================
``raft.vote_req``         candidate → peer vote solicitation
``raft.vote_resp``        peer → candidate vote grant
``raft.append``           leader → follower log entries (+ commit index)
``raft.append_ack``       follower → leader replication ack
``raft.heartbeat``        leader → follower liveness + commit index
``raft.redirect``         stale-leader NOT_LEADER reply with leader hint
========================  ============================================
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass, field

from repro.errors import MessageDropped, NetworkError
from repro.gateway import Gateway
from repro.net import MessageTrace, Network
from repro.obs import DISABLED

#: Election timeout window (simulated seconds); each candidacy draws from
#: it uniformly, so the seeded RNG fully determines the failover schedule.
ELECTION_TIMEOUT_S = (0.15, 0.30)
#: Leader heartbeat cadence on the simulated clock.
HEARTBEAT_INTERVAL_S = 0.05
#: Campaign rounds before the group gives up and reports itself down.
MAX_ELECTION_ROUNDS = 6


@dataclass(frozen=True)
class LogEntry:
    """One replicated log entry.

    ``kind`` is one of ``write`` (autocommit DML), ``prepare`` (a 2PC
    branch's write-set, replicated before the YES vote), ``commit`` or
    ``abort`` (the branch decision).  ``statements`` are export-namespace
    SQL texts — each replica re-translates them through its own gateway.
    """

    index: int  # 1-based position in the log
    term: int
    kind: str
    global_id: object = None
    statements: tuple[str, ...] = ()

    def payload_bytes(self) -> int:
        return 24 + sum(len(s.encode()) for s in self.statements)


class Replica:
    """One member of a replica group: role, term, log, apply cursor."""

    def __init__(self, index: int, site: str, gateway: Gateway):
        self.index = index
        self.site = site
        self.gateway = gateway
        self.role = "follower"
        self.term = 1
        #: term → candidate site this replica granted its vote to.
        self.voted_for: dict[int, str] = {}
        self.log: list[LogEntry] = []
        #: Highest log index known committed (majority-replicated).
        self.commit_index = 0
        #: Highest log index applied to this replica's DBMS.
        self.applied_index = 0
        #: Committed-but-undecided 2PC branches: global_id → statements.
        self.pending_prepares: dict[object, tuple[str, ...]] = {}

    def last_log(self) -> tuple[int, int]:
        """(last term, last index) — Raft's up-to-date comparison key."""
        if not self.log:
            return (0, 0)
        return (self.log[-1].term, self.log[-1].index)

    def lag(self) -> int:
        """Entries this replica has yet to apply (vs its own commit view)."""
        return max(0, self.commit_index - self.applied_index)


class ReplicaGroup:
    """A leader + followers presenting one logical component site.

    All state transitions run inline on the caller's thread, paced by the
    shared simulated clock; a seeded :class:`random.Random` makes every
    election schedule reproducible from ``(seed, site)``.
    """

    def __init__(
        self,
        site: str,
        gateways: list[Gateway],
        network: Network,
        seed: int = 0,
        obs=None,
    ):
        if not gateways:
            raise NetworkError(f"replica group {site!r} needs >= 1 replica")
        self.site = site
        self.network = network
        self.obs = obs or DISABLED
        self.replicas = [
            Replica(i, gw.site, gw) for i, gw in enumerate(gateways)
        ]
        self.leader_index = 0
        self.replicas[0].role = "leader"
        #: History of elections: term → winning replica site.  A second
        #: winner for a term is the classic split-brain bug; it is
        #: recorded in :attr:`violations` instead of asserted, so chaos
        #: sweeps report it as an invariant failure.
        self.elections: dict[int, str] = {1: self.replicas[0].site}
        self.violations: list[str] = []
        #: Every entry that ever reached majority commit, in commit
        #: order — the "no committed-then-lost entry" audit trail.
        self.committed_history: list[LogEntry] = []
        #: Statements executed under each open global transaction branch,
        #: captured at the wrapper so prepare/commit entries carry them.
        self.pending_stmts: dict[object, list[str]] = {}
        #: Chaos hook: called with a schedule-point label at enumerated
        #: replication protocol steps (``before_append:commit``,
        #: ``mid_election``, ...); the chaos explorer kills the leader
        #: from it.  Must never be wrapped in try/except here.
        self.chaos_hook = None
        self._rng = random.Random((seed << 16) ^ zlib.crc32(site.encode()))
        self._last_heartbeat_s = network.now_s
        self._mutex = threading.RLock()
        # Failover accounting for the benchmark / dashboard.
        self.elections_run = 0
        self.failovers = 0
        self.heartbeat_misses = 0
        self.redirects = 0
        self.follower_reads = 0
        self.last_failover_s = 0.0
        self._set_gauges()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    @property
    def leader(self) -> Replica:
        return self.replicas[self.leader_index]

    @property
    def term(self) -> int:
        return max(r.term for r in self.replicas)

    def majority(self) -> int:
        return len(self.replicas) // 2 + 1

    def replica_sites(self) -> list[str]:
        return [r.site for r in self.replicas]

    def replica_of(self, gateway: Gateway) -> Replica:
        for replica in self.replicas:
            if replica.gateway is gateway:
                return replica
        raise NetworkError(
            f"gateway {gateway.site!r} is not a member of group {self.site!r}"
        )

    def stats(self) -> dict:
        """JSON-safe snapshot for federation_stats / the dashboard."""
        leader = self.leader
        return {
            "replicas": len(self.replicas),
            "leader": leader.site,
            "term": leader.term,
            "commit_index": leader.commit_index,
            "applied": {r.site: r.applied_index for r in self.replicas},
            "staleness": {
                r.site: max(0, leader.commit_index - r.applied_index)
                for r in self.replicas
                if r is not leader
            },
            "elections": self.elections_run,
            "failovers": self.failovers,
            "heartbeat_misses": self.heartbeat_misses,
            "redirects": self.redirects,
            "follower_reads": self.follower_reads,
            "log_length": len(leader.log),
        }

    def _chaos(self, point: str, **context: object) -> None:
        if self.chaos_hook is not None:
            self.chaos_hook(point, group=self.site, **context)

    def _set_gauges(self) -> None:
        metrics = self.obs.metrics
        leader = self.leader
        metrics.set_gauge("raft.term", leader.term, group=self.site)
        metrics.set_gauge(
            "raft.commit_index", leader.commit_index, group=self.site
        )
        for replica in self.replicas:
            if replica is leader:
                continue
            metrics.set_gauge(
                "raft.staleness",
                max(0, leader.commit_index - replica.applied_index),
                group=self.site,
                replica=replica.site,
            )

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Send a heartbeat round when the cadence is due (lazy driver).

        Called from every routed operation; heartbeats piggyback the
        leader's commit index so healthy followers stay applied without
        dedicated traffic.  Losses are counted as ``raft.heartbeat_miss``
        — failure *detection* stays with the routing layer, which reacts
        to real operation failures rather than to missed idle beats.
        """
        with self._mutex:
            if (
                len(self.replicas) == 1
                or self.network.now_s - self._last_heartbeat_s
                < HEARTBEAT_INTERVAL_S
            ):
                return
            self._last_heartbeat_s = self.network.now_s
            leader = self.leader
            for replica in self.replicas:
                if replica is leader:
                    continue
                try:
                    self.network.send(
                        leader.site, replica.site, 16, "raft.heartbeat"
                    )
                except MessageDropped as error:
                    self.heartbeat_misses += 1
                    self.obs.metrics.inc(
                        "raft.heartbeat_miss", group=self.site
                    )
                    self.obs.emit(
                        "raft.heartbeat_miss",
                        sim_s=self.network.now_s,
                        group=self.site,
                        leader=leader.site,
                        follower=replica.site,
                        reason=error.reason,
                    )
                    continue
                if (
                    replica.last_log() != leader.last_log()
                    or replica.commit_index < leader.commit_index
                ):
                    self._sync_follower(replica, leader)
                else:
                    replica.term = max(replica.term, leader.term)

    # ------------------------------------------------------------------
    # Log replication
    # ------------------------------------------------------------------

    def record_statement(self, global_id: object, sql_text: str) -> None:
        """Capture one branch statement for later prepare/commit entries."""
        with self._mutex:
            self.pending_stmts.setdefault(global_id, []).append(sql_text)

    def pending_statements(self, global_id: object) -> tuple[str, ...]:
        with self._mutex:
            return tuple(self.pending_stmts.get(global_id, ()))

    def clear_pending(self, global_id: object) -> None:
        with self._mutex:
            self.pending_stmts.pop(global_id, None)

    def _find_entry(self, kind: str, global_id: object) -> LogEntry | None:
        for entry in reversed(self.leader.log):
            if entry.kind == kind and entry.global_id == global_id:
                return entry
        return None

    def append_and_replicate(
        self,
        kind: str,
        global_id: object = None,
        statements: tuple[str, ...] = (),
        trace: MessageTrace | None = None,
    ) -> LogEntry | None:
        """Append one entry at the leader and replicate to majority.

        Returns the entry when it is majority-durable (commit index
        advanced past it), ``None`` otherwise.  Idempotent per ``(kind,
        global_id)`` for branch entries: a retried decision re-drives
        replication of the existing entry instead of appending a
        duplicate.
        """
        with self._mutex:
            leader = self.leader
            entry = (
                self._find_entry(kind, global_id)
                if global_id is not None
                else None
            )
            if entry is not None and entry.index <= leader.commit_index:
                return entry  # already majority-durable (retried decision)
            if entry is None:
                self._chaos(f"before_append:{kind}", global_id=global_id)
                entry = LogEntry(
                    index=len(leader.log) + 1,
                    term=leader.term,
                    kind=kind,
                    global_id=global_id,
                    statements=tuple(statements),
                )
                leader.log.append(entry)
            acks = 1  # the leader's own durable copy
            followers = [r for r in self.replicas if r is not leader]
            for position, replica in enumerate(followers):
                if self._sync_follower(replica, leader, trace=trace):
                    acks += 1
                if position == 0:
                    self._chaos(f"mid_append:{kind}", global_id=global_id)
            self._chaos(f"after_append:{kind}", global_id=global_id, acks=acks)
            if acks < self.majority():
                return None
            self._chaos(f"before_commit_advance:{kind}", global_id=global_id)
            self._advance_commit(leader, entry.index)
            self._chaos(f"after_commit_advance:{kind}", global_id=global_id)
            # Re-announce the moved commit index so acked followers apply
            # now rather than at the next heartbeat (cheap, drop-tolerant).
            for replica in self.replicas:
                if replica is leader:
                    continue
                try:
                    self.network.send(
                        leader.site, replica.site, 16, "raft.commit", trace
                    )
                except MessageDropped:
                    continue
                replica.commit_index = min(
                    leader.commit_index, len(replica.log)
                )
                self._apply_committed(replica)
            self._set_gauges()
            return entry

    def _sync_follower(
        self,
        follower: Replica,
        leader: Replica,
        trace: MessageTrace | None = None,
    ) -> bool:
        """Ship the follower everything it is missing; True on ack.

        Models one append-entries exchange: the Raft consistency check is
        the truncate-then-copy below — a follower whose suffix diverges
        from the leader's log (a deposed leader's uncommitted entries)
        adopts the leader's version.
        """
        start = 0
        while (
            start < len(follower.log)
            and start < len(leader.log)
            and follower.log[start] == leader.log[start]
        ):
            start += 1
        missing = leader.log[start:]
        payload = 16 + sum(e.payload_bytes() for e in missing)
        try:
            self.network.send(
                leader.site, follower.site, payload, "raft.append", trace
            )
            self.network.send(
                follower.site, leader.site, 16, "raft.append_ack", trace
            )
        except MessageDropped:
            return False
        del follower.log[start:]
        follower.log.extend(missing)
        follower.term = max(follower.term, leader.term)
        follower.commit_index = min(leader.commit_index, len(follower.log))
        self._apply_committed(follower)
        return True

    def _advance_commit(self, leader: Replica, index: int) -> None:
        for entry in leader.log[leader.commit_index : index]:
            self.committed_history.append(entry)
            self.obs.metrics.inc(
                "raft.entries_committed", group=self.site, kind=entry.kind
            )
        leader.commit_index = max(leader.commit_index, index)

    # ------------------------------------------------------------------
    # Applying committed entries
    # ------------------------------------------------------------------

    def mark_leader_applied(self) -> None:
        """The leader applied its newest entries in-band (through its own
        gateway session); move its cursor so the replay loop skips them."""
        leader = self.leader
        leader.applied_index = max(leader.applied_index, leader.commit_index)

    def _apply_committed(self, replica: Replica) -> None:
        """Replay committed-but-unapplied entries onto one replica's DBMS."""
        while replica.applied_index < min(
            replica.commit_index, len(replica.log)
        ):
            entry = replica.log[replica.applied_index]
            self._apply_entry(replica, entry)
            replica.applied_index = entry.index

    def _apply_entry(self, replica: Replica, entry: LogEntry) -> None:
        gateway = replica.gateway
        if entry.kind == "write":
            for sql_text in entry.statements:
                gateway.apply_replicated(sql_text)
        elif entry.kind == "prepare":
            replica.pending_prepares[entry.global_id] = entry.statements
        elif entry.kind in ("commit", "abort"):
            statements = replica.pending_prepares.pop(
                entry.global_id, entry.statements
            )
            if gateway.has_branch(entry.global_id):
                # This replica led when the branch ran (it may be a healed
                # ex-leader): resolve the live local branch itself.
                gateway.resolve_replicated(entry.global_id, entry.kind)
            elif entry.kind == "commit":
                for sql_text in statements:
                    gateway.apply_replicated(sql_text)

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------

    def elect(
        self,
        trace: MessageTrace | None = None,
        suspect: str | None = None,
    ) -> Replica:
        """Run a leader election; returns the new leader.

        ``suspect`` (the replica site that just failed an operation) does
        not stand as a candidate.  Each round draws per-replica election
        timeouts from the seeded RNG; the earliest timer fires first and
        that replica campaigns.  The winning timeout is charged to the
        simulated clock (and the caller's trace) — that *is* the failover
        latency the benchmark measures.  Raises
        :class:`~repro.errors.MessageDropped` when no candidate can reach
        a majority within :data:`MAX_ELECTION_ROUNDS` (the group is down).
        """
        with self._mutex:
            self.elections_run += 1
            started_s = self.network.now_s
            for _ in range(MAX_ELECTION_ROUNDS):
                self._chaos("mid_election")
                draws = sorted(
                    (
                        self._rng.uniform(*ELECTION_TIMEOUT_S),
                        replica.index,
                        replica,
                    )
                    for replica in self.replicas
                    if replica.site != suspect
                )
                if not draws:
                    break
                timeout = draws[0][0]
                self.network.advance(timeout)
                if trace is not None:
                    trace.add_compute(timeout)
                for _, _, candidate in draws:
                    if self._campaign(candidate, trace):
                        self.failovers += 1
                        self.last_failover_s = (
                            self.network.now_s - started_s
                        )
                        self.obs.metrics.inc("raft.failover", group=self.site)
                        self.obs.metrics.observe(
                            "raft.failover_latency_s",
                            self.last_failover_s,
                            group=self.site,
                        )
                        return self.leader
            raise MessageDropped(
                f"replica group {self.site!r}: no leader electable "
                f"(majority unreachable)",
                destination=self.site,
                purpose="raft.vote_req",
                reason="no quorum",
            )

    def _campaign(
        self, candidate: Replica, trace: MessageTrace | None
    ) -> bool:
        term = max(r.term for r in self.replicas) + 1
        candidate.term = term
        candidate.role = "candidate"
        candidate.voted_for[term] = candidate.site
        votes = 1
        for peer in self.replicas:
            if peer is candidate:
                continue
            try:
                self.network.send(
                    candidate.site, peer.site, 24, "raft.vote_req", trace
                )
            except MessageDropped:
                continue
            if not self._grant_vote(peer, candidate, term):
                continue
            try:
                self.network.send(
                    peer.site, candidate.site, 16, "raft.vote_resp", trace
                )
            except MessageDropped:
                continue  # granted but the grant was lost: not counted
            votes += 1
        if votes < self.majority():
            candidate.role = "follower"
            return False
        self._become_leader(candidate, term, votes)
        return True

    def _grant_vote(
        self, peer: Replica, candidate: Replica, term: int
    ) -> bool:
        if term < peer.term:
            return False
        if term > peer.term:
            peer.term = term
        voted = peer.voted_for.get(term)
        if voted is not None and voted != candidate.site:
            return False
        # Leader completeness: never elect a candidate whose log is
        # behind — a majority-committed entry lives on some majority
        # member, and that member refuses this vote.
        if candidate.last_log() < peer.last_log():
            return False
        peer.voted_for[term] = candidate.site
        return True

    def _become_leader(
        self, candidate: Replica, term: int, votes: int
    ) -> None:
        previous = self.elections.get(term)
        if previous is not None and previous != candidate.site:
            self.violations.append(
                f"group {self.site}: two leaders for term {term}: "
                f"{previous} and {candidate.site}"
            )
        self.elections[term] = candidate.site
        for replica in self.replicas:
            replica.role = "follower"
        candidate.role = "leader"
        self.leader_index = candidate.index
        self._last_heartbeat_s = self.network.now_s
        self.obs.metrics.inc("raft.election", group=self.site)
        self.obs.emit(
            "raft.election",
            sim_s=self.network.now_s,
            group=self.site,
            term=term,
            leader=candidate.site,
            votes=votes,
        )
        # The new leader re-drives its log: replicate the suffix to every
        # reachable follower, recompute the majority commit point, apply.
        self._replicate_suffix(candidate)
        self._apply_committed(candidate)
        self._materialize_prepared(candidate)
        self._set_gauges()

    def _replicate_suffix(self, leader: Replica) -> None:
        if len(self.replicas) == 1:
            return
        matched = [len(leader.log)]  # the leader's own copy
        for replica in self.replicas:
            if replica is leader:
                continue
            if self._sync_follower(replica, leader):
                matched.append(len(replica.log))
            else:
                matched.append(0)
        matched.sort(reverse=True)
        quorum_index = matched[self.majority() - 1]
        if quorum_index > leader.commit_index:
            self._advance_commit(leader, quorum_index)
            # Followers synced *before* the advance: announce the moved
            # commit index so they apply the re-driven suffix now.
            for replica in self.replicas:
                if replica is leader:
                    continue
                try:
                    self.network.send(
                        leader.site, replica.site, 16, "raft.commit"
                    )
                except MessageDropped:
                    continue
                replica.commit_index = min(
                    leader.commit_index, len(replica.log)
                )
                self._apply_committed(replica)

    def _materialize_prepared(self, leader: Replica) -> None:
        """Re-create in-doubt prepared branches at a newly elected leader.

        A committed ``prepare`` entry without a committed decision means
        the coordinator may still decide either way; the new leader must
        hold a real PREPARED local branch so decision delivery (and
        presumed-abort recovery) resolve it exactly as they would have at
        the old leader — the group keeps voting consistently across the
        failover.
        """
        decided = {
            e.global_id for e in leader.log if e.kind in ("commit", "abort")
        }
        for global_id, statements in sorted(
            leader.pending_prepares.items(), key=lambda item: str(item[0])
        ):
            if global_id in decided:
                continue
            if leader.gateway.has_branch(global_id):
                continue
            leader.gateway.adopt_branch(global_id, statements)

    # ------------------------------------------------------------------
    # Heal / convergence
    # ------------------------------------------------------------------

    def catch_up(self) -> None:
        """Bring every reachable replica up to the leader's log and state.

        Called after a heal: replays the leader's log onto followers,
        applies everything committed, and resolves stray local branches a
        deposed leader may still hold for transactions whose entries did
        not survive (presumed abort — exactly what participant recovery
        would do).  Idempotent.
        """
        with self._mutex:
            leader = self.leader
            self._replicate_suffix(leader)
            self._apply_committed(leader)
            live_prepares = {
                e.global_id
                for e in leader.log[: leader.commit_index]
                if e.kind == "prepare"
            }
            for replica in self.replicas:
                if replica is leader:
                    continue
                for global_id in list(replica.gateway.branch_states()):
                    if global_id in live_prepares:
                        continue  # genuinely in doubt: the leader owns it
                    replica.gateway.resolve_replicated(global_id, "abort")
            self._set_gauges()
