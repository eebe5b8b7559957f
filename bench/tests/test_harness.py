"""Tests of the benchmark harness itself (run with ``pytest bench/tests``).

Not collected by the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import END_TO_END, RUN_SECONDS, hostspeed, layers, stats  # noqa: E402
from bench.compare import compare, resolution, verdict  # noqa: E402
from bench.trace import (  # noqa: E402
    Recorder,
    ShimSet,
    Target,
    covered_seconds,
    nest,
    self_times,
    totals_by_name,
)
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# --------------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------------- #
def test_lower_decile_interpolates_and_ignores_the_slow_tail():
    values = [float(v) for v in range(1, 12)]  # 1..11: p10 sits exactly on 2
    assert stats.lower_decile(values) == pytest.approx(2.0)
    assert stats.lower_decile([10.0, 20.0]) == pytest.approx(11.0)
    assert stats.lower_decile([7.0]) == 7.0
    slow_tail = values[:-1] + [1000.0]
    assert stats.lower_decile(slow_tail) == stats.lower_decile(values)


def test_low_mean_is_the_mean_at_or_below_the_median():
    assert stats.low_mean([5.0, 1.0, 3.0, 2.0, 4.0]) == pytest.approx(2.0)  # 1, 2, 3
    assert stats.low_mean([4.0, 1.0, 3.0, 2.0]) == pytest.approx(1.5)  # 1, 2
    assert stats.low_mean([1.0, 2.0, 3.0, 400.0, 500.0]) == stats.low_mean([1.0, 2.0, 3.0, 4.0, 5.0])


def test_host_speed_factor_scales_to_the_reference_and_ignores_a_stall():
    host = hostspeed.HostSpeed()
    host.readings = [2 * hostspeed.REFERENCE_PROBE_S] * 19
    assert host.factor() == pytest.approx(0.5)  # a host at half speed: times are halved
    host.readings.append(100.0)  # one stalled probe falls in the trimmed tenth
    assert host.factor() == pytest.approx(0.5)
    assert hostspeed.trimmed_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)  # too few to trim
    host = hostspeed.HostSpeed()
    host.sample(3)
    assert len(host.readings) == 3 and all(reading > 0 for reading in host.readings)


def test_host_speed_pools_the_readings_of_its_helper_processes():
    host = hostspeed.HostSpeed(processes=2)
    helper = host.helpers[0]
    try:
        host.sample(2)
    finally:
        host.close()
    assert len(host.readings) == 4 and all(reading > 0 for reading in host.readings)
    assert host.helpers == [] and helper.returncode == 0


def test_quartile_spread_matches_the_acceptance_formula():
    import statistics

    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 1.02, 0.98, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([3.0]) == 0.0


def test_digest_ignores_volatile_fields_only():
    a = {"x": 1, "wallclock_seconds": 1.5, "nested": [{"created": "now", "y": 2}]}
    b = {"x": 1, "wallclock_seconds": 9.9, "nested": [{"created": "later", "y": 2}]}
    assert stats.digest([a]) == stats.digest([b])
    assert stats.digest([a]) != stats.digest([{**a, "x": 2}])


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_is_the_span_minus_what_its_children_cover():
    spans = [
        ("root", 0.0, 10.0, 0),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 0),
        ("child", 5.0, 9.0, 0),
        ("other-thread", 0.0, 10.0, 7),
    ]
    parents = nest(spans)
    assert parents == [-1, 0, 1, 0, -1]
    assert self_times(spans, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0, 10.0])
    table = totals_by_name(spans)
    assert table["child"].calls == 2
    assert table["child"].total_s == pytest.approx(7.0)
    assert table["child"].self_s == pytest.approx(6.0)
    # self times of one thread add up to the time its spans cover
    assert sum(self_times(spans, parents)[:4]) == pytest.approx(covered_seconds(spans, 0.0, 10.0))


def test_self_time_clips_a_child_that_outlives_its_parent():
    spans = [("parent", 0.0, 5.0, 0), ("late", 4.0, 6.0, 0)]
    assert nest(spans) == [-1, 0]
    assert self_times(spans) == pytest.approx([4.0, 2.0])


def test_nesting_does_not_depend_on_recording_order():
    spans = [("inner", 2.0, 3.0, 0), ("outer", 1.0, 4.0, 0)]  # shims record on exit
    assert nest(spans) == [1, -1]


def test_covered_seconds_merges_overlaps_and_clips_to_the_window():
    spans = [("a", 0.0, 2.0, 0), ("b", 1.0, 3.0, 0), ("c", 8.0, 12.0, 0), ("d", 0.0, 50.0, 1)]
    assert covered_seconds(spans, 0.0, 10.0) == pytest.approx(5.0)
    assert layers.unattributed_share(spans, 0.0, 10.0) == pytest.approx(0.5)


# --------------------------------------------------------------------------- #
# shims
# --------------------------------------------------------------------------- #
def _module_bindings():
    """id of every attribute of every loaded repro module and patched class."""
    import repro.churn.model
    import repro.core.base
    import repro.metrics.sketch
    import repro.net.fabric

    owners = {name: module for name, module in sys.modules.items()
              if module is not None and (name == "repro" or name.startswith("repro."))}
    for cls in (repro.core.base.SwitchAlgorithm, repro.net.fabric.NetworkFabric):
        owners[cls.__qualname__] = cls
        for sub in cls.__subclasses__():
            owners[sub.__qualname__] = sub
    owners["QuantileSketch"] = repro.metrics.sketch.QuantileSketch
    owners["ChurnModel"] = repro.churn.model.ChurnModel
    return {(name, key): id(value) for name, owner in owners.items()
            for key, value in vars(owner).items()}


def test_shims_install_everywhere_and_uninstall_restores_every_binding():
    import importlib

    import repro.cli  # noqa: F401 - the importers of the patched names
    import repro.core.fast_switch as fast_switch
    import repro.core.scheduler as scheduler
    from repro.core.fast_switch import FastSwitchAlgorithm

    for target in layers.TARGETS:  # installing imports these; load them first
        importlib.import_module(target.path.partition(":")[0])
    before = _module_bindings()
    original = scheduler.greedy_supplier_assignment
    original_schedule = vars(FastSwitchAlgorithm)["schedule"]
    recorder = Recorder()
    with ShimSet(layers.TARGETS, recorder):
        # the defining module and a module that did ``from ... import``
        assert scheduler.greedy_supplier_assignment is not original
        assert fast_switch.greedy_supplier_assignment is scheduler.greedy_supplier_assignment
        assert vars(FastSwitchAlgorithm)["schedule"] is not original_schedule
        assert _module_bindings() != before
    assert _module_bindings() == before
    assert scheduler.greedy_supplier_assignment is original


def test_shims_record_spans_counts_and_leave_results_untouched():
    from repro import make_session_config, run_pair
    from repro.experiments.store import session_result_to_dict

    config = make_session_config(30, seed=4, max_time=60.0)
    plain = run_pair(config)
    recorder = Recorder()
    with ShimSet(layers.TARGETS, recorder):
        shimmed = run_pair(config)
    assert stats.digest(map(session_result_to_dict, (plain.normal, plain.fast))) == \
        stats.digest(map(session_result_to_dict, (shimmed.normal, shimmed.fast)))
    table = totals_by_name(recorder.spans)
    assert table["core.schedule"].calls > 0
    assert table["streaming.setup"].calls >= 2
    assert 0 < table["core.schedule"].self_s < table["core.schedule"].total_s
    assert recorder.counts["net.messages"] > 0


def test_generator_shim_times_only_the_generator_not_its_consumer():
    import time
    import types

    module = types.ModuleType("repro._bench_fake")

    def produce():
        for item in range(3):
            time.sleep(0.002)
            yield item

    module.produce = produce
    sys.modules[module.__name__] = module
    try:
        recorder = Recorder()
        with ShimSet([Target("fake.produce", "repro._bench_fake:produce", generator=True)],
                     recorder):
            consumed = []
            for item in module.produce():
                time.sleep(0.01)  # the consumer's time
                consumed.append(item)
        assert module.produce is produce
    finally:
        del sys.modules[module.__name__]
    assert consumed == [0, 1, 2]
    inside = sum(end - start for _, start, end, _ in recorder.spans)
    assert len(recorder.spans) == 4  # three items and the final StopIteration
    assert 0.006 <= inside < 0.03


def test_install_failure_leaves_nothing_patched():
    import repro.core.scheduler as scheduler

    original = scheduler.greedy_supplier_assignment
    targets = [layers.TARGETS[2], Target("nope", "repro.core.scheduler:does_not_exist")]
    with pytest.raises(AttributeError):
        ShimSet(targets, Recorder()).install()
    assert scheduler.greedy_supplier_assignment is original


# --------------------------------------------------------------------------- #
# compare.py
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,unit,better,bound", END_TO_END)
def test_verdicts_at_and_around_each_bound(name, unit, better, bound):
    base = 100.0
    sign = 1.0 if better == "lower" else -1.0
    assert verdict(base, base, better, bound) == "same"
    assert verdict(base, base + sign * base * bound * 0.99, better, bound) == "same"
    assert verdict(base, base + sign * base * bound, better, bound) == "same"  # at the bound
    assert verdict(base, base + sign * base * bound * 1.01, better, bound) == "worse"
    assert verdict(base, base - sign * base * bound * 1.01, better, bound) == "better"
    assert verdict(base, base - sign * base * bound * 0.99, better, bound) == "same"
    # a difference cannot be judged through noise wider than the bound
    assert verdict(base, base * 2, better, bound, spread=bound * 1.01) == "unresolved"
    assert verdict(base, base + sign * base * bound * 1.01, better, bound, spread=bound) == "worse"


def test_higher_is_better_metrics_flip_the_direction():
    assert verdict(100.0, 80.0, "higher", 0.1) == "worse"
    assert verdict(100.0, 120.0, "higher", 0.1) == "better"
    assert verdict(100.0, 120.0, "lower", 0.1) == "worse"


def _result(seed=1, wall=1.0, failed=0, digest="d" * 64, spread=0.05, k=16):
    detail = {"k": k, "quartile_spread": spread}
    metrics = {name: {"value": wall if name == "wall_per_unit_s" else 1.0, "unit": unit}
               for name, unit, _, _ in END_TO_END}
    return {"seed": seed, "workloads": {"w": {
        "end_to_end": metrics,
        "end_to_end_detail": {"wall_per_unit_s": detail, "cpu_per_unit_s": detail},
        "end_to_end_attempted": 10, "end_to_end_failed": failed, "sim_digest": digest,
    }}}


def test_compare_rows_cover_every_metric_failures_and_the_digest():
    rows = compare(_result(), _result(wall=1.5, failed=1, digest="e" * 64))
    by_metric = {row[1]: row for row in rows}
    assert set(by_metric) == {name for name, _, _, _ in END_TO_END} | {"failed", "sim_digest"}
    assert by_metric["wall_per_unit_s"][-1] == "worse"
    assert by_metric["wall_per_unit_s"][4] == "1.5000"  # the ratio, base A
    assert by_metric["cpu_per_unit_s"][-1] == "same"
    assert by_metric["failed"][-1] == "worse"
    assert by_metric["sim_digest"][-1] == "differs"
    noisy = compare(_result(spread=2.0, k=4), _result(wall=1.5, spread=2.0, k=4))
    assert {row[1]: row[-1] for row in noisy}["wall_per_unit_s"] == "unresolved"
    other_seed = compare(_result(seed=1), _result(seed=2))
    assert "sim_digest" not in {row[1] for row in other_seed}


def test_resolution_shrinks_with_the_iteration_count():
    assert resolution({"k": 16, "quartile_spread": 0.2}) == pytest.approx(0.05)
    assert resolution(None) == 0.0


def test_compare_cli_exits_non_zero_only_on_worse(tmp_path):
    a, same, worse = tmp_path / "a.json", tmp_path / "same.json", tmp_path / "worse.json"
    a.write_text(json.dumps(_result()))
    same.write_text(json.dumps(_result(wall=1.05)))
    worse.write_text(json.dumps(_result(wall=1.5)))
    script = str(ROOT / "bench" / "compare.py")
    ok = subprocess.run([sys.executable, script, str(a), str(same)], capture_output=True, text=True)
    bad = subprocess.run([sys.executable, script, str(a), str(worse)], capture_output=True, text=True)
    assert ok.returncode == 0 and "same" in ok.stdout
    assert bad.returncode == 1 and "worse" in bad.stdout


# --------------------------------------------------------------------------- #
# the contract: BENCHMARK.json and the result line
# --------------------------------------------------------------------------- #
def test_benchmark_json_mirrors_the_tables_in_code():
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, cls.why) for name, cls in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.LAYER_METRICS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace,expected", [
    (0, [(name, unit) for name, unit, _, _ in END_TO_END]),
    (1, [(name, unit) for name, unit, _ in layers.LAYER_METRICS]),
])
def test_result_line_schema(trace, expected):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "pair-churn-wan-vector",
         "--seed", "11", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert [(name, metric["unit"]) for name, metric in result["metrics"].items()] == expected
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"])
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    # every metric is also printed by name with its unit
    for name, metric in result["metrics"].items():
        assert re.search(rf"^{re.escape(name)} = \S+ {re.escape(metric['unit'])}$",
                         completed.stdout, re.MULTILINE)


def test_setup_only_prints_the_set_up_seconds_of_a_fresh_process():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "pair-churn-wan-vector",
         "--seed", "11", "--smoke", "--setup-only"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    assert float(completed.stdout.strip().splitlines()[-1]) > 0
