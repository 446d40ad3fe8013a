"""Runs one workload: set-up, the closed loop, oracle checks, metrics.

Load model: one process, one client thread, closed loop (the next
operation starts when the previous one returns).  The program's own
fetch pool is part of what is measured.

Timed run (``trace=False``): set up ``SETUPS`` times and report the
median (build, load and an untimed warm-up), then run the seeded stream
on the last build for ``seconds`` and until every latency type has
``MIN_SAMPLES`` samples.  Answers are checked after the loop.

Traced run (``trace=True``): two fresh builds run the same stream, one
operation on each in turn; the layer wrappers are installed only while
build B runs its operation.  Both builds see the same host conditions,
so their latency difference is the tracing overhead.  The simulated
cost of every operation must be identical on both builds, which shows
the wrappers did not change what the program did.
"""

from __future__ import annotations

import itertools
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from layers import LayerTracer
from workloads import QUERY, TXN, WORKLOADS, Record

ROOT = Path(__file__).resolve().parent.parent
#: Samples of each latency type a timed run takes at least, so that its
#: p95 has ten samples beyond it.
MIN_SAMPLES = 200
#: The deterministic cost metrics cover this many leading operations, so
#: two runs with one seed report them identically.
COST_OPS = 200
#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 5
#: Operations of a traced run, at least.
TRACE_MIN_OPS = 50

END_TO_END = {
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ms_per_op": "sim_ms",
    "wire_bytes_per_op": "B",
    "messages_per_op": "count",
}
#: Per-layer metrics besides ``LayerTracer.per_op``'s.
TRACE_EXTRAS = {
    "other.wall_ms_per_op": "ms",
    "trace_overhead_ms": "ms",
    "txn_p50_ms": "ms",
    "txn_p95_ms": "ms",
}


def import_program() -> None:
    """Make the checkout's ``src/repro`` importable, or raise."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(workload, system, op, warmup: bool = False) -> Record:
    record = Record(op, warmup=warmup)
    start = time.perf_counter()
    try:
        workload.run(system, op, record)
    except Exception as exc:  # a failed operation is counted, not fatal
        record.error = f"{type(exc).__name__}: {exc}"
    record.latency_s = time.perf_counter() - start
    return record


def stream(workload, seed: int, purpose: str = "measure"):
    """The seeded operation stream; warm-up uses a stream of its own."""
    rng = random.Random(f"{workload.name}/{purpose}/{seed}")
    return workload.operations(rng)


#: Warm-up is the same for every seed, so every run's set-up does the
#: same work (a semijoin warm-up query takes 30 to 380 ms by cut-off).
WARMUP_SEED = 0


def time_cap(seconds: float) -> float:
    """Hard limit on a loop, so that a slow program ends in time."""
    return max(seconds, min(4 * seconds, 120.0))


def set_up(workload):
    """Build, load and warm up one federation; return it and its time."""
    start = time.perf_counter()
    system = workload.build()
    ops = stream(workload, WARMUP_SEED, "warmup")
    ops = itertools.islice(ops, workload.warmup_ops)
    warm = [run_op(workload, system, op, warmup=True) for op in ops]
    return system, warm, time.perf_counter() - start


def closed_loop(
    workload,
    system,
    seed: int,
    seconds: float,
    min_samples: int,
):
    """Run the seeded stream; return the records, wall and CPU seconds.

    Stops once ``seconds`` have passed and every latency type has
    ``min_samples`` samples, or at a hard cap that keeps a slow program
    within limits.
    """
    cap = time_cap(seconds)
    samples = dict.fromkeys(workload.latency_types, 0)
    records: list[Record] = []
    cpu_start, start = time.process_time(), time.perf_counter()
    for op in stream(workload, seed):
        elapsed = time.perf_counter() - start
        if elapsed >= cap or (
            elapsed >= seconds and min(samples.values()) >= min_samples
        ):
            break
        records.append(run_op(workload, system, op))
        samples[op.latency_type] += 1
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return records, wall, cpu


def check(workload, system, warm: list[Record], records: list[Record]):
    """Check every answer; return (failed measured ops, problems)."""
    problems = workload.verify(warm + records, system)
    for record in warm + records:
        if record.error or record.wrong:
            label = "warm-up" if record.warmup else "op"
            problems.append(f"{label} {record.op.sql[:80]!r}: "
                            f"{record.error or '; '.join(record.wrong)}")
    failed = sum(bool(r.error or r.wrong) for r in records)
    return failed, problems


def latencies_ms(records: list[Record], latency_type: str) -> list[float]:
    return [
        1000.0 * r.latency_s for r in records
        if r.op.latency_type == latency_type and r.error is None
    ]


def traffic(records: list[Record]) -> dict[str, float]:
    """Share of repeated statement texts and of writes."""
    seen: set[str] = set()
    repeats = 0
    for record in records:
        repeats += record.op.sql in seen
        seen.add(record.op.sql)
    n = len(records)
    return {
        "repeat_frac": repeats / n,
        "write_frac": sum(r.op.write for r in records) / n,
    }


def cost_metrics(records: list[Record]) -> dict[str, float]:
    head = records[:COST_OPS]
    n = len(head)
    return {
        "sim_ms_per_op": 1000.0 * sum(r.sim_s for r in head) / n,
        "wire_bytes_per_op": sum(r.wire_bytes for r in head) / n,
        "messages_per_op": sum(r.messages for r in head) / n,
    }


def timed_run(workload, seed: int, seconds: float) -> dict:
    setups = []
    for attempt in range(SETUPS):
        system, warm, elapsed = set_up(workload)
        setups.append(elapsed)
        if attempt < SETUPS - 1:
            system.close()
    try:
        records, wall, cpu = closed_loop(
            workload, system, seed, seconds, min_samples=MIN_SAMPLES
        )
        failed, problems = check(workload, system, warm, records)
    finally:
        system.close()
    queries = latencies_ms(records, QUERY)
    metrics = {
        "query_p50_ms": statistics.median(queries),
        "query_p95_ms": percentile(queries, 95),
        "ops_per_s": len(records) / wall,
        "cpu_ms_per_op": 1000.0 * cpu / len(records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        **cost_metrics(records),
    }
    report = dict(metrics)
    txns = latencies_ms(records, TXN)
    if txns:
        report["txn_p50_ms"] = statistics.median(txns)
        report["txn_p95_ms"] = percentile(txns, 95)
    report["failed_frac"] = failed / len(records)
    report.update(traffic(records))
    notes = [f"samples: {len(queries)} queries, {len(txns)} transfers"]
    return {
        "attempted": len(records),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "report": report,
        "notes": notes,
    }


def traced_run(workload, seed: int, seconds: float) -> dict:
    system_a, warm_a, _ = set_up(workload)
    system_b, warm_b, _ = set_up(workload)
    tracer = LayerTracer()
    plain: list[Record] = []
    traced: list[Record] = []
    try:
        cap = time_cap(seconds)
        start = time.perf_counter()
        for index, op in enumerate(stream(workload, seed)):
            elapsed = time.perf_counter() - start
            if elapsed >= cap or (
                elapsed >= seconds and index >= TRACE_MIN_OPS
            ):
                break
            plain.append(run_op(workload, system_a, op))
            tracer.op = index
            with tracer:
                traced.append(run_op(workload, system_b, op))
        failed_a, problems = check(workload, system_a, warm_a, plain)
        failed_b, problems_b = check(workload, system_b, warm_b, traced)
    finally:
        system_a.close()
        system_b.close()
    problems += problems_b
    if [r.cost for r in plain] != [r.cost for r in traced]:
        problems.append("simulated cost differs between traced and untraced")

    ops = len(traced)
    covered = tracer.covered(threading.get_ident())
    uncovered = sum(r.latency_s - covered[i] for i, r in enumerate(traced))
    metrics = tracer.per_op(ops)
    metrics["other.wall_ms_per_op"] = 1000.0 * uncovered / ops
    metrics["trace_overhead_ms"] = statistics.median(
        latencies_ms(traced, QUERY)
    ) - statistics.median(latencies_ms(plain, QUERY))
    txns = latencies_ms(plain, TXN)
    metrics["txn_p50_ms"] = statistics.median(txns) if txns else 0.0
    metrics["txn_p95_ms"] = percentile(txns, 95) if txns else 0.0
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-{seed}.jsonl")
    report = dict(metrics)
    report["failed_frac"] = (failed_a + failed_b) / (2 * ops)
    report.update(traffic(traced))
    return {
        "failed": failed_a + failed_b,
        "attempted": 2 * ops,
        "problems": problems,
        "metrics": metrics,
        "report": report,
        "notes": [f"traced ops: {ops}; spans: {len(tracer.spans)}"],
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]()
    try:
        if trace:
            return traced_run(workload, seed, seconds)
        return timed_run(workload, seed, seconds)
    finally:
        workload.close()
