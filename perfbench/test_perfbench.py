"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import harness

harness.import_program()

import run  # noqa: E402
from layers import LayerTracer, targets  # noqa: E402
from workloads import WORKLOADS, BankMixWorkload, PointWorkload  # noqa: E402

#: Share of a sequential query's wall time its spans may leave uncovered,
#: plus a fixed allowance for the call into the system and the clocks.
COVER_SLACK = 0.05
COVER_SLACK_S = 0.0005


def test_install_and_remove_restore_every_attribute():
    entries = targets()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in entries]
    tracer = LayerTracer(entries)
    tracer.install()
    try:
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, (owner, attr)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)


def test_self_times_add_up_to_a_sequential_query():
    from repro.workloads import build_partitioned_sites

    system = build_partitioned_sites(2, 200, parallel_fetches=1)
    try:
        system.query("synth", "SELECT COUNT(*) FROM measurements")  # warm up
        tracer = LayerTracer()
        with tracer:
            tracer.op = 0
            start = time.perf_counter()
            system.query("synth", "SELECT k FROM measurements WHERE k < 9")
            wall = time.perf_counter() - start
    finally:
        system.close()
    main = threading.get_ident()
    assert {span[2] for span in tracer.spans} == {main}
    covered = tracer.covered(main)[0]
    assert covered <= wall
    assert covered >= wall * (1 - COVER_SLACK) - COVER_SLACK_S
    layers_seen = {span[1] for span in tracer.spans}
    assert {"query.processor", "gateway.fetch", "engine.component",
            "engine.residual", "net.send"} <= layers_seen


def _run(workload, system, seed, ops):
    """The first ``ops`` operations of the seeded stream."""
    stream = itertools.islice(harness.stream(workload, seed), ops)
    return [harness.run_op(workload, system, op) for op in stream]


@pytest.mark.parametrize("name,ops", [("point", 8), ("semijoin", 4),
                                      ("bank-mix", 30)])
def test_cost_counts_repeat_exactly_for_one_seed(name, ops):
    workload = WORKLOADS[name]()
    costs = []
    try:
        for _ in range(2):
            system, _, _ = harness.set_up(workload)
            try:
                records = _run(workload, system, seed=3, ops=ops)
            finally:
                system.close()
            costs.append([record.cost for record in records])
    finally:
        workload.close()
    assert len(costs[0]) == ops
    assert costs[0] == costs[1]
    assert sum(messages for _, _, messages in costs[0]) > 0


def _run_and_check(workload, corrupt):
    system, warm, _ = harness.set_up(workload)
    try:
        records = _run(workload, system, seed=5, ops=20)
        assert harness.check(workload, system, warm, records) == (0, [])
        for record in records:
            record.wrong.clear()
        corrupt(records)
        return harness.check(workload, system, warm, records)
    finally:
        system.close()


def test_wrong_program_answer_counts_as_failure():
    workload = PointWorkload()
    try:
        def corrupt(records):
            k, grp, val = records[3].rows[0]
            records[3].rows = [(k, grp, val + 1e-9)]

        failed, problems = _run_and_check(workload, corrupt)
    finally:
        workload.close()
    assert failed == 1 and len(problems) == 1


def test_wrong_oracle_answer_counts_as_failure():
    workload = PointWorkload()
    try:
        def corrupt(records):
            workload.oracle.db.execute(
                "UPDATE measurements SET grp = grp + 1 WHERE k = ?",
                records[7].op.args,
            )

        failed, problems = _run_and_check(workload, corrupt)
    finally:
        workload.close()
    assert failed >= 1 and problems


def test_wrong_balance_counts_as_failure():
    workload = BankMixWorkload()

    def corrupt(records):
        read = next(r for r in records if r.op.kind == "read")
        acct, balance = read.rows[0]
        read.rows = [(acct, balance + 1)]

    failed, problems = _run_and_check(workload, corrupt)
    assert failed == 1 and len(problems) == 1


def test_run_without_program_source_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in Path(harness.__file__).parent.glob("*.py"):
        shutil.copy(source, bench / source.name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_metrics_match_the_benchmark_definition():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    declared = {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }
    reported = {
        "end_to_end": list(harness.END_TO_END),
        "per_layer": [*LayerTracer([]).per_op(1), *harness.TRACE_EXTRAS],
    }
    for section, names in reported.items():
        assert sorted(names) == sorted(declared[section])
        for name in names:
            assert run.unit_of(name) == declared[section][name], name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
