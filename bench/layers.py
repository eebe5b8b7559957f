"""The per-layer table: which entry points are timed and how metrics are read.

Layers are this repository's packages.  Time metrics are *self* time (a
span minus what its child spans cover), so the rows of one traced pass add
up to the traced wall time instead of counting nested work twice.  A metric
whose layer a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from bench import stats
from bench.trace import Recorder, Span, SpanTotals, Target, covered_seconds, totals_by_name

#: (name, unit, better) of every per-layer metric, in presentation order.
#: BENCHMARK.json's ``per_layer`` list mirrors this table (a harness test
#: checks that they agree).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.loop_self_s", "s", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("streaming.setup_s", "s", "lower"),
    ("streaming.decide_s", "s", "lower"),
    ("streaming.exchange_s", "s", "lower"),
    ("streaming.flush_s", "s", "lower"),
    ("streaming.periods", "count", "lower"),
    ("streaming.peer_periods", "count", "lower"),
    ("streaming.requests", "count", "lower"),
    ("streaming.requests_failed_share", "ratio", "lower"),
    ("core.schedule_calls", "count", "lower"),
    ("core.schedule_s", "s", "lower"),
    ("core.greedy_s", "s", "lower"),
    ("core.priority_s", "s", "lower"),
    ("core.allocate_s", "s", "lower"),
    ("core.assigned_share", "ratio", "higher"),
    ("core.vector.dispatch", "count", "higher"),
    ("core.vector.fallback", "count", "lower"),
    ("core.vector.priorities_s", "s", "lower"),
    ("core.vector.flush_s", "s", "lower"),
    ("net.control_s", "s", "lower"),
    ("net.data_s", "s", "lower"),
    ("net.deliveries_delayed", "count", "lower"),
    ("net.drop_share", "ratio", "lower"),
    ("overlay.build_s", "s", "lower"),
    ("overlay.repair_s", "s", "lower"),
    ("overlay.repairs", "count", "lower"),
    ("churn.plan_s", "s", "lower"),
    ("churn.joins", "count", "lower"),
    ("churn.leaves", "count", "lower"),
    ("channels.plan_s", "s", "lower"),
    ("channels.aggregate_s", "s", "lower"),
    ("dist.plan_s", "s", "lower"),
    ("dist.run_s", "s", "lower"),
    ("dist.shards", "count", "lower"),
    ("dist.shards_per_s", "1/s", "higher"),
    ("dist.shard_p50_s", "s", "lower"),
    ("dist.shard_max_s", "s", "lower"),
    ("dist.idle_share", "ratio", "lower"),
    ("dist.journal_s", "s", "lower"),
    ("dist.retries", "count", "lower"),
    ("experiments.sweep_s", "s", "lower"),
    ("experiments.fingerprint_s", "s", "lower"),
    ("experiments.store.save_s", "s", "lower"),
    ("experiments.store.load_s", "s", "lower"),
    ("experiments.store.saves", "count", "lower"),
    ("experiments.store.loads", "count", "lower"),
    ("experiments.store.hit_share", "ratio", "higher"),
    ("experiments.store.bytes", "B", "lower"),
    ("experiments.store.json_roundtrip_s", "s", "lower"),
    ("experiments.store.sqlite_roundtrip_s", "s", "lower"),
    ("metrics.sketch_merge_s", "s", "lower"),
    ("metrics.sketch_merges", "count", "lower"),
    ("metrics.sketch_percentile_s", "s", "lower"),
    ("figures.paper_s", "s", "lower"),
    ("figures.universe_s", "s", "lower"),
    ("figures.probe_s", "s", "lower"),
    ("figures.html_s", "s", "lower"),
    ("figures.rendered", "count", "higher"),
    ("figures.skipped", "count", "lower"),
    ("analysis.charts_s", "s", "lower"),
    ("cli.version_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("obs.telemetry_overhead_ratio", "ratio", "lower"),
    ("obs.probe_overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("peer_periods_per_s", "1/s", "higher"),
    ("sim_switch_reduction", "ratio", "higher"),
    ("sim_overhead_ratio", "ratio", "lower"),
)


def _bump(key: str) -> Callable[[Dict[str, float], Any], None]:
    def count(counts: Dict[str, float], _result: Any) -> None:
        counts[key] = counts.get(key, 0) + 1
    return count


def _count_transfer(counts: Dict[str, float], delay: Any) -> None:
    counts["net.messages"] = counts.get("net.messages", 0) + 1
    if delay is None:
        counts["net.dropped"] = counts.get("net.dropped", 0) + 1


def _count_churn(counts: Dict[str, float], plan: Any) -> None:
    counts["churn.joins"] = counts.get("churn.joins", 0) + plan.joins
    counts["churn.leaves"] = counts.get("churn.leaves", 0) + len(plan.leavers)


def _figure_family(name: str, **_kwargs: Any) -> str:
    if name.startswith("universe-"):
        return "figures.universe"
    if name.startswith("probe-"):
        return "figures.probe"
    return "figures.paper"


#: The fixed table of public entry points the traced pass wraps.  The sim
#: loop, the period phases, store I/O and shard execution need no shim:
#: ``telemetry_session()`` already records ``engine.run``, ``period.*``,
#: ``store.*`` and ``shard.execute`` spans, merged into the same tree.
#:
#: Entry points called from inside a running simulation (hot: up to
#: hundreds of thousands of calls per session).
SIM_TARGETS: Tuple[Target, ...] = (
    Target("streaming.setup", "repro.streaming.session:SwitchSession.__init__", subclasses=True),
    Target("core.schedule", "repro.core.base:SwitchAlgorithm.schedule", subclasses=True),
    Target("core.greedy", "repro.core.scheduler:greedy_supplier_assignment"),
    Target("core.priority", "repro.core.priority:priority_for_view"),
    Target("core.allocate", "repro.core.allocation:allocate_rates"),
    Target("core.vector.priorities", "repro.core.vector:vectorized_priorities"),
    Target("core.vector.flush", "repro.core.vector:SegmentArrays.flush"),
    Target("net.control", "repro.net.fabric:NetworkFabric.control_transfer",
           subclasses=True, count=_count_transfer),
    Target("net.data", "repro.net.fabric:NetworkFabric.data_transfer",
           subclasses=True, count=_count_transfer),
    Target("overlay.build", "repro.streaming.session:build_session_overlay"),
    Target("overlay.repair", "repro.overlay.membership:MembershipService.join"),
    Target("overlay.repair", "repro.overlay.membership:MembershipService.leave"),
    Target("overlay.repair", "repro.overlay.membership:MembershipService.repair"),
    Target("churn.plan", "repro.churn.model:ChurnModel.plan_round", count=_count_churn),
)

#: Entry points of the layers around the simulation.
HOST_TARGETS: Tuple[Target, ...] = (
    Target("channels.plan", "repro.channels.universe:plan_universe"),
    Target("channels.aggregate", "repro.channels.aggregates:unit_aggregate"),
    Target("channels.aggregate", "repro.channels.aggregates:RepAggregator.fold_unit"),
    Target("channels.aggregate", "repro.channels.aggregates:merge_rep_aggregates"),
    Target("dist.plan", "repro.dist.plan:ShardPlan.build"),
    Target("dist.plan", "repro.dist.plan:ShardPlan.fingerprint"),
    Target("dist.run", "repro.dist.runner:ShardedExecutor.execute", generator=True),
    Target("dist.journal", "repro.dist.journal:ShardJournal.record"),
    Target("dist.journal", "repro.dist.journal:ShardJournal.discard"),
    Target("experiments.sweep", "repro.experiments.sweeps:run_size_sweep"),
    Target("experiments.fingerprint", "repro.experiments.store:stable_hash"),
    Target("experiments.fingerprint", "repro.experiments.store:net_fingerprint"),
    Target("experiments.fingerprint", "repro.experiments.store:pair_fingerprint"),
    Target("experiments.fingerprint", "repro.experiments.store:sweep_fingerprint"),
    Target("experiments.fingerprint", "repro.experiments.store:telemetry_fingerprint"),
    Target("experiments.fingerprint", "repro.channels.runner:universe_fingerprint"),
    Target("experiments.fingerprint", "repro.workloads.runner:workload_fingerprint"),
    Target("metrics.sketch_merge", "repro.metrics.sketch:QuantileSketch.merge",
           count=_bump("metrics.sketch_merges")),
    Target("metrics.sketch_percentile", "repro.metrics.sketch:QuantileSketch.percentile"),
    Target("metrics.sketch_percentile", "repro.metrics.sketch:QuantileSketch.percentiles"),
    Target(_figure_family, "repro.figures.registry:render_figure"),
    Target("figures.html", "repro.figures.report:render_report"),
    Target("analysis.charts", "repro.analysis.charts:svg_line_chart"),
    Target("analysis.charts", "repro.analysis.charts:svg_bar_chart"),
)

TARGETS: Tuple[Target, ...] = SIM_TARGETS + HOST_TARGETS

#: metric name -> span name whose self time it reports.
_SELF_TIME_ROWS: Tuple[Tuple[str, str], ...] = (
    ("sim.loop_self_s", "engine.run"),
    ("streaming.setup_s", "streaming.setup"),
    ("streaming.decide_s", "period.decide"),
    ("streaming.exchange_s", "period.exchange"),
    ("streaming.flush_s", "period.flush"),
    ("core.schedule_s", "core.schedule"),
    ("core.greedy_s", "core.greedy"),
    ("core.priority_s", "core.priority"),
    ("core.allocate_s", "core.allocate"),
    ("core.vector.priorities_s", "core.vector.priorities"),
    ("core.vector.flush_s", "core.vector.flush"),
    ("net.control_s", "net.control"),
    ("net.data_s", "net.data"),
    ("overlay.build_s", "overlay.build"),
    ("overlay.repair_s", "overlay.repair"),
    ("churn.plan_s", "churn.plan"),
    ("channels.plan_s", "channels.plan"),
    ("channels.aggregate_s", "channels.aggregate"),
    ("dist.plan_s", "dist.plan"),
    ("dist.run_s", "dist.run"),
    ("dist.journal_s", "dist.journal"),
    ("experiments.sweep_s", "experiments.sweep"),
    ("experiments.fingerprint_s", "experiments.fingerprint"),
    ("experiments.store.save_s", "store.save"),
    ("experiments.store.load_s", "store.load"),
    ("metrics.sketch_merge_s", "metrics.sketch_merge"),
    ("metrics.sketch_percentile_s", "metrics.sketch_percentile"),
    ("figures.paper_s", "figures.paper"),
    ("figures.universe_s", "figures.universe"),
    ("figures.probe_s", "figures.probe"),
    ("figures.html_s", "figures.html"),
    ("analysis.charts_s", "analysis.charts"),
)


def empty_table() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in LAYER_METRICS}


def layer_table(
    recorder: Recorder,
    snapshot: Mapping[str, Any],
    telemetry_events: Sequence[Mapping[str, Any]],
    *,
    workers: int = 0,
) -> Dict[str, float]:
    """Read every span- and counter-derived layer metric of one traced pass.

    ``snapshot`` is ``Telemetry.snapshot()`` and ``telemetry_events`` the
    tracer's buffered events (for the per-period ``peers`` argument), both
    taken after the shims were removed.
    """
    table = empty_table()
    totals: Dict[str, SpanTotals] = totals_by_name(recorder.spans)
    counters: Mapping[str, float] = snapshot.get("counters", {})
    counts = recorder.counts

    def total(name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    for metric, span in _SELF_TIME_ROWS:
        table[metric] = total(span).self_s

    table["sim.events"] = counters.get("engine.events", 0)
    table["sim.events_per_s"] = stats.share(table["sim.events"], total("engine.run").total_s)
    table["streaming.periods"] = counters.get("session.periods", 0)
    table["streaming.peer_periods"] = sum(
        event.get("args", {}).get("peers", 0)
        for event in telemetry_events
        if event.get("name") == "period.decide"
    )
    table["streaming.requests"] = counters.get("fabric.requests", 0)
    table["streaming.requests_failed_share"] = stats.share(
        counters.get("fabric.requests_failed", 0), table["streaming.requests"]
    )
    table["core.schedule_calls"] = total("core.schedule").calls
    assigned = counters.get("scheduler.assigned", 0)
    table["core.assigned_share"] = stats.share(
        assigned, assigned + counters.get("scheduler.unassigned", 0)
    )
    table["core.vector.dispatch"] = counters.get("engine.dispatch.vector", 0)
    table["core.vector.fallback"] = counters.get("engine.dispatch.scalar_fallback", 0)
    table["net.deliveries_delayed"] = counters.get("fabric.deliveries_delayed", 0)
    table["net.drop_share"] = stats.share(
        counts.get("net.dropped", 0), counts.get("net.messages", 0)
    )
    table["overlay.repairs"] = total("overlay.repair").calls
    table["churn.joins"] = counts.get("churn.joins", 0)
    table["churn.leaves"] = counts.get("churn.leaves", 0)

    shard_seconds = sorted(end - start for name, start, end, _ in recorder.spans
                           if name == "shard.execute")
    run_total = total("dist.run").total_s
    table["dist.shards"] = len(shard_seconds)
    table["dist.shards_per_s"] = stats.share(len(shard_seconds), run_total)
    if shard_seconds:
        table["dist.shard_p50_s"] = stats.quantile(shard_seconds, 0.5)
        table["dist.shard_max_s"] = shard_seconds[-1]
        table["dist.idle_share"] = max(
            0.0, 1.0 - stats.share(sum(shard_seconds), workers * run_total)
        )
    table["dist.retries"] = counters.get("pool.shard_retry", 0)

    hits = counters.get("store.load.hit", 0)
    table["experiments.store.saves"] = counters.get("store.save", 0)
    table["experiments.store.loads"] = hits + counters.get("store.load.miss", 0)
    table["experiments.store.hit_share"] = stats.share(hits, table["experiments.store.loads"])
    table["metrics.sketch_merges"] = counts.get("metrics.sketch_merges", 0)
    return table


def unattributed_share(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of the traced wall interval no main-thread span covers."""
    return max(0.0, 1.0 - stats.share(covered_seconds(spans, start, end), end - start))


def format_layer_rows(table: Mapping[str, float], wall_s: Optional[float] = None) -> List[str]:
    """Printable ``name value unit`` rows; time rows gain their share of the wall."""
    rows = []
    for name, unit, _ in LAYER_METRICS:
        value = table.get(name, 0.0)
        line = f"  {name:<38s} {value:>14.6g} {unit}"
        if wall_s and unit == "s" and not name.startswith(("cli.", "experiments.store.json",
                                                           "experiments.store.sqlite")):
            line += f"   ({100.0 * value / wall_s:5.1f} % of traced wall)"
        rows.append(line)
    return rows
