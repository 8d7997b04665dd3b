"""Run a workload's passes and turn them into metrics."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from benchstats import median, tail
from layers import ENGINE_SPANS, LayerTracer
from workloads import PassResult, Workload

#: Each set-up point repeats set-ups until this much time is spent
#: (``setup_s`` of auto-mode is under a millisecond).
SETUP_SLOT_SECONDS = 0.02

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "throughput_st_s": "st/s",
    "stmt_latency_p50_ms": "ms",
    "stmt_latency_tail_ms": "ms",
    "vote_latency_p50_ms": "ms",
    "total_work": "cost",
    "realized_total_work": "cost",
    "recovery_s": "s",
    "durable_bytes_per_stmt": "B/st",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    summary: List[str] = field(default_factory=list)


def _passes_agree(reference: PassResult, other: PassResult) -> List[str]:
    failures = []
    if other.recommendations != reference.recommendations:
        failures.append("pass: recommendation sequence differs from pass 1")
    if other.total_work != reference.total_work:
        failures.append("pass: totWork differs from pass 1")
    if other.realized_total_work != reference.realized_total_work:
        failures.append("pass: realized totWork differs from pass 1")
    if other.durable_bytes != reference.durable_bytes:
        failures.append("pass: persisted bytes differ from pass 1")
    return failures


def best_of_passes(per_pass: List[List[float]]) -> List[float]:
    """Per position, the fastest of the passes' timings.

    Every pass runs the same statements, so position ``i`` is the same work
    in each pass; its fastest timing is the one least disturbed by other
    tenants of the machine, whose speed moves by tens of percent over
    seconds to minutes.
    """
    return [min(timings) for timings in zip(*per_pass)]


def setup_points(passes: int, slots: int) -> List[int]:
    """Pass boundaries at which set-up is timed, spread evenly over the run.

    Boundary ``i`` lies just before pass ``i``; boundary ``passes`` is
    after the last pass.
    """
    slots = max(2, min(slots, passes + 1))
    return sorted({round(j * passes / (slots - 1)) for j in range(slots)})


def _setup_slot(workload: Workload) -> List[float]:
    """One or more set-ups, repeated while they are cheap."""
    samples = [workload.setup_sample()]
    while sum(samples) < SETUP_SLOT_SECONDS:
        samples.append(workload.setup_sample())
    return samples


def measure(workload: Workload, seconds: float, trace: bool) -> Report:
    """Warm up, then run a fixed number of whole passes.

    The pass count follows from ``seconds`` and the workload's nominal
    pass length only, so two commits compare bests over equally many
    passes. Set-up is timed at points spread over the run, between
    passes. With ``trace`` every second pass runs under the layer tracer;
    the others are the untraced baseline for ``trace.overhead_ratio``.
    """
    count = workload.pass_count(seconds)
    points = setup_points(count, workload.setup_slots)
    warmup = workload.run_pass(workload.statements[:workload.warmup])
    tracer = LayerTracer() if trace else None
    recovery_tracer = LayerTracer() if trace else None
    setups: List[float] = []
    setup_slots = 0
    passes: List[PassResult] = []
    traced: List[bool] = []
    failures = list(warmup.failures)
    start = time.perf_counter()
    for number in range(count + 1):
        if number in points:
            setups.extend(_setup_slot(workload))
            setup_slots += 1
        if number == count:
            break
        on = trace and number % 2 == 1
        try:
            result = workload.run_pass(
                workload.statements,
                tracer if on else None,
                recovery_tracer if on else None,
            )
        except Exception as exc:  # a failed or refused operation (QueueFull)
            if number < (2 if trace else 1):
                raise
            failures.append(f"pass {number + 1}: {exc!r}")
            break
        failures.extend(result.failures)
        if passes:
            failures.extend(_passes_agree(passes[0], result))
            # Checked; kept, they would grow this process's peak RSS with
            # the pass count.
            result.recommendations = []
        passes.append(result)
        traced.append(on)
    elapsed = time.perf_counter() - start

    attempted = warmup.operations + sum(p.operations for p in passes)
    failed = len(failures)

    summary = [
        f"workload={workload.name} seed={workload.seed} "
        f"passes={len(passes)} statements/pass={len(workload.statements)} "
        f"seconds={elapsed:.1f}",
    ]
    if trace:
        metrics = _per_layer(passes, traced, tracer, recovery_tracer)
    else:
        metrics, lines = _end_to_end(passes, setups)
        summary.extend(lines)
        summary.append(
            f"  setup_s is the median of {len(setups)} set-ups "
            f"at {setup_slots} points of the run"
        )
    summary.append(
        f"checks: {'ok' if not failures else 'FAILED'} "
        f"({attempted} operations, {failed} failed)"
    )
    summary.extend(f"  failure: {text}" for text in failures)
    return Report(
        correct=not failures,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        summary=summary,
    )


def _end_to_end(passes: List[PassResult], setups: List[float]):
    """End-to-end metrics over the per-statement best of the passes."""
    steps = best_of_passes([p.steps for p in passes])
    latencies = best_of_passes([p.latencies for p in passes])
    votes = best_of_passes([p.vote_latencies for p in passes])
    tail_value, tail_percentile, tail_samples = tail(latencies)
    values = {
        "throughput_st_s": len(steps) / sum(steps),
        "stmt_latency_p50_ms": median(latencies) * 1000.0,
        "stmt_latency_tail_ms": tail_value * 1000.0,
        "vote_latency_p50_ms": median(votes) * 1000.0,
        "total_work": passes[0].total_work,
        "realized_total_work": passes[0].realized_total_work,
        "recovery_s": min(p.recovery_seconds for p in passes),
        "durable_bytes_per_stmt": median(
            [p.durable_bytes / p.statements for p in passes]
        ),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    lines = [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"  timings are per-statement bests of {len(passes)} passes; "
        f"stmt_latency_tail_ms is p{tail_percentile:.2f} of {tail_samples} "
        f"statements; vote_latency_p50_ms is over {len(votes)} DBA calls"
    )
    return metrics, lines


def _per_layer(
    passes: List[PassResult],
    traced: List[bool],
    tracer: LayerTracer,
    recovery_tracer: LayerTracer,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced passes, normalized per statement.

    ``*_ms`` are inclusive wall time per statement (``*_self_ms``: minus
    wrapped children); ``*_calls`` and counters are per statement.
    """
    on = [p for p, flag in zip(passes, traced) if flag]
    off = [p for p, flag in zip(passes, traced) if not flag]
    n = sum(p.statements for p in on)

    def ms(span: str) -> float:
        return tracer.stats(span).total * 1000.0 / n

    def calls(span: str) -> float:
        return tracer.stats(span).calls / n

    def total(key: str) -> float:
        return sum(p.counters.get(key, 0) for p in on)

    def ratio(hits: str, misses: str) -> float:
        requests = total(hits) + total(misses)
        return total(hits) / requests if requests else 0.0

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    restores = recovery_tracer.stats("snapshot.restore")
    recovery_ms = sum(p.recovery_seconds for p in on) * 1000.0

    def loop_seconds(group: List[PassResult]) -> float:
        return sum(best_of_passes([p.steps for p in group]))
    values = [
        ("whatif.statement_ibg_ms", ms("whatif.statement_ibg"), "ms/st"),
        ("whatif.statement_ibg_calls", calls("whatif.statement_ibg"), "1/st"),
        ("whatif.ibg_hit_ratio", ratio("ibg_hits", "ibg_builds"), "ratio"),
        ("whatif.cost_fill_ms", ms("whatif.cost_fill"), "ms/st"),
        ("whatif.plan_derivations", total("plan_derivations") / n, "1/st"),
        ("whatif.cost_hit_ratio",
         ratio("statement_hits", "statement_misses"), "ratio"),
        ("ibg.build_ms", ms("ibg.build"), "ms/st"),
        ("ibg.stats_ms", ms("ibg.stats"), "ms/st"),
        ("ibg.stats_calls", calls("ibg.stats"), "1/st"),
        ("candidates.top_indices_ms", ms("candidates.top_indices"), "ms/st"),
        ("candidates.top_indices_calls", calls("candidates.top_indices"), "1/st"),
        ("partitioning.choose_partition_ms",
         ms("partitioning.choose_partition"), "ms/st"),
        ("partitioning.choose_partition_calls",
         calls("partitioning.choose_partition"), "1/st"),
        ("partitioning.choose_partition_max_ms",
         tracer.stats("partitioning.choose_partition").max * 1000.0, "ms"),
        ("wfit.analyze_ms", ms("wfit.analyze"), "ms/st"),
        ("wfit.self_ms",
         tracer.stats("wfit.analyze").self_time * 1000.0 / n, "ms/st"),
        ("wfit.repartitions", total("repartitions") / n, "1/st"),
        ("wfit.tracked_states", on[-1].counters["tracked_states"], "states"),
        ("wfa.prepare_ms", ms("wfa.prepare"), "ms/st"),
        ("wfa.relax_ms", ms("wfa.relax"), "ms/st"),
        ("wfa.relax_calls", calls("wfa.relax"), "1/st"),
        ("wfa.feedback_ms", ms("wfa.feedback"), "ms/st"),
        ("engine.self_ms",
         sum(tracer.stats(s).self_time for s in ENGINE_SPANS) * 1000.0 / n,
         "ms/st"),
        ("engine.adopt_ms", ms("engine.adopt"), "ms/st"),
        ("engine.metrics_ms", ms("engine.metrics"), "ms/st"),
        ("scheduler.push_ms", ms("scheduler.push"), "ms/st"),
        ("scheduler.take_ms", ms("scheduler.take"), "ms/st"),
        ("scheduler.batches", total("batches") / n, "1/st"),
        ("scheduler.rejected", total("rejected"), "count"),
        ("wal.append_ms", ms("wal.append"), "ms/st"),
        ("wal.appends", total("wal_appends") / n, "1/st"),
        ("wal.bytes", total("wal_bytes") / n, "B/st"),
        ("wal.sync_ms", ms("wal.sync"), "ms/st"),
        ("wal.rotate_ms", ms("wal.rotate"), "ms/st"),
        ("snapshot.checkpoint_ms", ms("snapshot.checkpoint"), "ms/st"),
        ("snapshot.checkpoint_max_ms",
         tracer.stats("snapshot.checkpoint").max * 1000.0, "ms"),
        ("snapshot.bytes_full",
         mean([b for p in on for b in p.counters.get("snapshot_full_bytes", [])]),
         "B"),
        ("snapshot.bytes_delta",
         mean([b for p in on for b in p.counters.get("snapshot_delta_bytes", [])]),
         "B"),
        ("snapshot.restore_ms",
         restores.total * 1000.0 / max(1, restores.calls), "ms"),
        ("recovery.replay_ms",
         (recovery_ms - restores.total * 1000.0) / len(on), "ms"),
        ("recovery.totwork_rel_drift",
         max(p.counters["drift"] for p in passes), "ratio"),
        ("recovery.realized_rel_drift",
         max(p.counters["realized_drift"] for p in passes), "ratio"),
        ("trace.overhead_ratio", loop_seconds(on) / loop_seconds(off), "ratio"),
    ]
    return {name: (value, unit) for name, value, unit in values}
