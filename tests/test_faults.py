"""Fault-injection tests: drop rules, crashes, partitions, and the hardened
2PC decision-delivery path (retry, durable parking, recovery draining)."""

import pytest

from repro.errors import (
    MessageDropped,
    TransactionAborted,
    TwoPhaseCommitError,
)
from repro.net import FaultInjector, Network
from repro.txn import GlobalTxnState
from repro.txn.coordinator import DECISION_RETRY_BACKOFF_S
from repro.workloads import build_bank_sites, total_balance


def make_network(seed: int = 1) -> Network:
    net = Network(faults=FaultInjector(seed=seed))
    for site in ("a", "b", "c"):
        net.add_site(site)
    return net


class TestFaultInjector:
    def test_drop_next_scoped_by_purpose(self):
        net = make_network()
        net.faults.drop_next(1, purpose="commit")
        assert net.send("a", "b", 10, "query") > 0  # other purposes flow
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "commit")
        # the rule is spent
        assert net.send("a", "b", 10, "commit") > 0

    def test_drop_next_scoped_by_link(self):
        net = make_network()
        net.faults.drop_next(2, source="a", destination="b")
        assert net.send("a", "c", 10, "query") > 0
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "query")
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "result")
        assert net.send("a", "b", 10, "query") > 0

    def test_drop_rate_is_seed_deterministic(self):
        def losses(seed):
            net = make_network(seed)
            net.faults.drop_rate(0.5, purpose="query")
            lost = 0
            for _ in range(50):
                try:
                    net.send("a", "b", 10, "query")
                except MessageDropped:
                    lost += 1
            return lost

        assert losses(3) == losses(3)
        assert 0 < losses(3) < 50

    def test_crash_and_restart(self):
        net = make_network()
        net.faults.crash_site("b")
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "query")
        with pytest.raises(MessageDropped):
            net.send("b", "a", 10, "result")
        assert net.send("a", "c", 10, "query") > 0
        net.faults.restart_site("b")
        assert net.send("a", "b", 10, "query") > 0

    def test_restart_clears_site_scoped_one_shot_rules(self):
        """A restarted site must not inherit stale one-shot losses queued
        against its previous incarnation."""
        net = make_network()
        net.faults.drop_next(5, destination="b")
        net.faults.drop_next(1, source="b", purpose="vote")
        net.faults.drop_next(1, destination="c", purpose="commit")
        net.faults.restart_site("b")
        assert net.send("a", "b", 10, "query") > 0
        assert net.send("b", "a", 10, "vote") > 0
        # rules scoped to other sites are untouched
        with pytest.raises(MessageDropped):
            net.send("a", "c", 10, "commit")

    def test_restart_keeps_unlimited_link_rules(self):
        # drop_rate models the *link*, not the site: it survives a reboot
        net = make_network()
        net.faults.drop_rate(1.0, destination="b")
        net.faults.restart_site("b")
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "query")

    def test_restart_does_not_heal_partitions(self):
        # a restart reboots the site; it does not re-cable the network
        net = make_network()
        net.faults.partition(["a"], ["b", "c"])
        net.faults.crash_site("b")
        net.faults.restart_site("b")
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "query")
        assert net.send("b", "c", 10, "query") > 0  # same side, rebooted
        net.faults.heal()
        assert net.send("a", "b", 10, "query") > 0

    def test_partition_and_heal(self):
        net = make_network()
        net.faults.partition(["a"], ["b", "c"])
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "query")
        with pytest.raises(MessageDropped):
            net.send("c", "a", 10, "query")
        assert net.send("b", "c", 10, "query") > 0  # same side
        net.faults.heal()
        assert net.send("a", "b", 10, "query") > 0

    def test_oneway_partition_cuts_a_single_direction(self):
        # the classic asymmetric link: a hears b, b never hears a
        net = make_network()
        net.faults.partition_oneway(["a"], ["b"])
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "query")
        assert net.send("b", "a", 10, "query") > 0  # reverse path delivers
        assert net.send("a", "c", 10, "query") > 0  # other links untouched

    def test_oneway_partitions_compose_into_a_symmetric_cut(self):
        net = make_network()
        net.faults.partition_oneway(["a"], ["b"])
        net.faults.partition_oneway(["b"], ["a"])
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "query")
        with pytest.raises(MessageDropped):
            net.send("b", "a", 10, "query")

    def test_heal_clears_oneway_cuts(self):
        net = make_network()
        net.faults.partition_oneway(["a"], ["b", "c"])
        with pytest.raises(MessageDropped):
            net.send("a", "c", 10, "query")
        net.faults.heal()
        assert net.send("a", "c", 10, "query") > 0

    def test_drops_are_accounted(self):
        net = make_network()
        net.faults.drop_next(1, purpose="commit")
        with pytest.raises(MessageDropped):
            net.send("a", "b", 10, "commit")
        assert net.dropped_messages == 1
        assert net.total_messages == 0  # dropped ≠ delivered
        (record,) = net.faults.dropped
        assert (record.source, record.destination) == ("a", "b")
        assert record.purpose == "commit"


@pytest.fixture
def bank():
    system = build_bank_sites(3, 4, query_timeout=1.0)
    system.inject_faults(seed=7)
    return system


def transfer(system):
    """Open a 3-branch global transaction moving 10 from b0 to b1."""
    txn = system.begin_transaction()
    txn.execute("b0", "UPDATE account SET balance = balance - 10 WHERE acct = 0")
    txn.execute("b1", "UPDATE account SET balance = balance + 10 WHERE acct = 4")
    txn.execute("b2", "UPDATE account SET balance = balance + 0 WHERE acct = 8")
    return txn


def balances(system):
    acct0 = system.query(
        "bank", "SELECT balance FROM accounts WHERE acct = 0"
    ).scalar()
    acct4 = system.query(
        "bank", "SELECT balance FROM accounts WHERE acct = 4"
    ).scalar()
    return float(acct0), float(acct4)


class TestDecisionRetry:
    def test_single_dropped_commit_is_retried(self, bank):
        txn = transfer(bank)
        bank.network.faults.drop_next(1, destination="b1", purpose="commit")
        txn.commit()
        assert txn.state is GlobalTxnState.COMMITTED
        assert bank.transactions.decision_retries >= 1
        assert bank.transactions.decisions_parked == 0
        assert bank.gateways["b1"].prepared_branches() == []
        assert balances(bank) == (990.0, 1010.0)

    def test_retry_backoff_charged_to_trace(self, bank):
        txn = transfer(bank)
        before = txn.trace.elapsed_s
        bank.network.faults.drop_next(2, destination="b1", purpose="commit")
        txn.commit()
        backoff = DECISION_RETRY_BACKOFF_S * (1 + 2)  # 2 retries: 1x + 2x
        assert txn.trace.elapsed_s - before >= backoff

    def test_dropped_commit_ack_is_idempotent(self, bank):
        """Decision applied, ack lost: the retry must not double-commit."""
        txn = transfer(bank)
        bank.network.faults.drop_next(1, source="b1", purpose="ack")
        txn.commit()
        assert txn.state is GlobalTxnState.COMMITTED
        assert bank.transactions.decisions_parked == 0
        assert balances(bank) == (990.0, 1010.0)


class TestParkingAndRecovery:
    def test_lost_commit_parked_then_recovered(self, bank):
        txn = transfer(bank)
        faults = bank.network.faults
        faults.drop_next(10**6, destination="b1", purpose="commit")
        txn.commit()  # must not raise: decision is durable
        assert txn.state is GlobalTxnState.COMMITTED
        assert bank.transactions.decisions_parked == 1
        assert bank.gateways["b1"].prepared_branches() == [txn.global_id]
        assert bank.transactions.wal.pending_deliveries() == {
            (txn.global_id, "b1"): "commit"
        }
        # While b1 stays unreachable, recovery keeps the decision parked.
        actions = bank.transactions.recover_in_doubt()
        assert (txn.global_id, "b1", "commit") not in actions
        assert bank.gateways["b1"].prepared_branches() == [txn.global_id]
        # Heal the network: recovery drains the pending-delivery list.
        faults.clear()
        actions = bank.transactions.recover_in_doubt()
        assert (txn.global_id, "b1", "commit") in actions
        assert bank.gateways["b1"].prepared_branches() == []
        assert bank.transactions.wal.pending_deliveries() == {}
        assert bank.transactions.decisions_recovered == 1
        assert balances(bank) == (990.0, 1010.0)
        assert total_balance(bank) == 12000.0

    def test_lost_abort_parked_then_recovered(self, bank):
        txn = transfer(bank)
        faults = bank.network.faults
        faults.drop_next(10**6, destination="b2", purpose="abort")
        txn.abort()
        assert txn.state is GlobalTxnState.ABORTED
        assert bank.transactions.wal.pending_deliveries() == {
            (txn.global_id, "b2"): "abort"
        }
        faults.clear()
        actions = bank.transactions.recover_in_doubt()
        assert (txn.global_id, "b2", "abort") in actions
        assert bank.transactions.wal.pending_deliveries() == {}
        assert total_balance(bank) == 12000.0

    def test_parked_delivery_survives_coordinator_crash(self, bank):
        """The pending-delivery list is durable: a crash that drops the
        coordinator's volatile state must not lose the parked decision."""
        txn = transfer(bank)
        faults = bank.network.faults
        faults.drop_next(10**6, destination="b1", purpose="commit")
        txn.commit()
        # Coordinator crash: volatile dict gone, durable WAL survives.
        bank.transactions.pending_deliveries.clear()
        bank.transactions.wal.simulate_crash()
        faults.clear()
        actions = bank.transactions.recover_in_doubt()
        assert (txn.global_id, "b1", "commit") in actions
        assert balances(bank) == (990.0, 1010.0)

    def test_lost_prepare_counts_as_vote_no(self, bank):
        txn = transfer(bank)
        bank.network.faults.drop_next(1, destination="b1", purpose="prepare")
        with pytest.raises(TwoPhaseCommitError):
            txn.commit()
        assert txn.state is GlobalTxnState.ABORTED
        assert total_balance(bank) == 12000.0
        for gateway in bank.gateways.values():
            assert gateway.prepared_branches() == []

    def test_lost_vote_counts_as_vote_no(self, bank):
        """The vote is lost *after* the branch prepared: presumed abort must
        still roll the prepared branch back."""
        txn = transfer(bank)
        bank.network.faults.drop_next(1, source="b1", purpose="vote")
        with pytest.raises(TwoPhaseCommitError):
            txn.commit()
        assert txn.state is GlobalTxnState.ABORTED
        assert total_balance(bank) == 12000.0
        for gateway in bank.gateways.values():
            assert gateway.prepared_branches() == []

    def test_crashed_site_aborts_and_recovers_after_restart(self, bank):
        txn = transfer(bank)
        faults = bank.network.faults
        faults.crash_site("b1")
        with pytest.raises(TwoPhaseCommitError):
            txn.commit()
        assert txn.state is GlobalTxnState.ABORTED
        # b1's abort decision could not be delivered: parked.
        assert (txn.global_id, "b1") in bank.transactions.wal.pending_deliveries()
        faults.restart_site("b1")
        actions = bank.transactions.recover_in_doubt()
        assert (txn.global_id, "b1", "abort") in actions
        assert total_balance(bank) == 12000.0

    def test_one_phase_commit_loss_is_parked(self, bank):
        """Even the ≤1-participant fast path must not strand a branch."""
        faults = bank.network.faults
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = balance + 1 WHERE acct = 0")
        faults.drop_next(10**6, destination="b0", purpose="commit")
        txn.commit()
        assert txn.state is GlobalTxnState.COMMITTED
        assert bank.transactions.wal.pending_deliveries() == {
            (txn.global_id, "b0"): "commit"
        }
        faults.clear()
        bank.transactions.recover_in_doubt()
        value = bank.query(
            "bank", "SELECT balance FROM accounts WHERE acct = 0"
        ).scalar()
        assert float(value) == 1001.0


class TestExecutionFaults:
    def test_unreachable_site_aborts_global_txn(self, bank):
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = 0 WHERE acct = 0")
        bank.network.faults.partition(["federation", "b0", "b2"], ["b1"])
        with pytest.raises(TransactionAborted) as exc:
            txn.execute("b1", "UPDATE account SET balance = 0 WHERE acct = 4")
        assert exc.value.reason == "network"
        assert txn.state is GlobalTxnState.ABORTED
        bank.network.faults.heal()
        assert total_balance(bank) == 12000.0

    def test_transactional_query_network_abort(self, bank):
        txn = bank.begin_transaction()
        # Persistent loss: a single dropped begin would just be retried.
        bank.network.faults.drop_next(10**6, purpose="begin")
        with pytest.raises(TransactionAborted) as exc:
            bank.transactional_query(
                txn, "bank", "SELECT SUM(balance) FROM accounts"
            )
        assert exc.value.reason == "network"
        assert txn.state is GlobalTxnState.ABORTED


class TestFaultEvents:
    def test_restart_emits_event(self, bank):
        bank.network.faults.crash_site("b1")
        bank.network.faults.restart_site("b1")
        (event,) = bank.events.of_type("fault.restart")
        assert event.fields["site"] == "b1"

    def test_partition_events_carry_the_direction(self, bank):
        bank.network.faults.partition(["b0"], ["b1"])
        bank.network.faults.partition_oneway(["b1"], ["b2"])
        both, oneway = bank.events.of_type("fault.partition")
        assert both.fields["direction"] == "both"
        assert oneway.fields["direction"] == "a->b"
        assert oneway.fields["group_a"] == ["b1"]
        bank.network.faults.heal()
        (heal,) = bank.events.of_type("fault.heal")
        assert heal.fields["cuts"] == 3  # two directed cuts + one one-way
