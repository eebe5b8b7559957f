#!/usr/bin/env python3
"""Run the repository benchmark.

One workload, as the driver calls it (the last stdout line is the result)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

All four workloads, timed run then traced pass, each in a fresh child
process; prints every metric by name with its unit and writes the result
JSON that ``bench/compare.py`` reads::

    python3 bench/run.py --seed N [--seconds S] [--smoke] [--out FILE]
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Import as the ``bench`` package from the repository root: leaving this
# directory on sys.path would let bench/trace.py shadow the stdlib ``trace``.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import END_TO_END, RUN_SECONDS, layers, stats  # noqa: E402
from bench.hostspeed import HostSpeed  # noqa: E402
from bench.workloads import OUT, WORKLOADS, Sample, Workload, peak_rss_mb  # noqa: E402

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}


def per_unit(samples: List[Sample], field: str) -> List[float]:
    return [getattr(s, field) / s.units for s in samples]


def setup_once(workload: Workload) -> float:
    """Set the workload up; seconds since this process started."""
    workload.setup()
    return time.perf_counter() - _PROCESS_START


def setup_samples(workload: Workload, own: float) -> List[float]:
    """This process's set-up time plus that of fresh child processes.

    Only a fresh process pays for imports and first calls again, so a repeat
    in this one would hide exactly the work ``setup_s`` exists to show.
    """
    samples = [own]
    for _ in range(0 if workload.smoke else workload.setup_repeats - 1):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
                   "--seed", str(workload.seed), "--setup-only"]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        if completed.returncode != 0:
            raise RuntimeError(f"set-up child exited {completed.returncode}:\n{completed.stderr}")
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def timed_run(workload: Workload, seconds: float) -> Dict[str, Any]:
    """The closed loop: iterate for ``seconds``, tracing off.

    Host-speed probes run before the first iteration and after every one;
    every reported time is scaled by what they read (see bench/hostspeed.py).
    """
    setups = setup_samples(workload, setup_once(workload))
    host = HostSpeed(workload.busy_processes)
    samples: List[Sample] = []
    start = time.perf_counter()
    try:
        host.sample()
        while True:
            samples.append(workload.timed_iteration(len(samples)))
            host.sample()
            if time.perf_counter() - start >= seconds:
                break
    finally:
        host.close()
    if workload.distinct_inputs or len(samples) < 2:
        samples.append(workload.timed_iteration(0))  # input 0 again: digests must agree
    good = [s for s in samples if s.failure is None] or samples
    wall, cpu = per_unit(good, "wall_s"), per_unit(good, "cpu_s")
    factor = host.factor()
    values = {
        "wall_per_unit_s": stats.low_mean(wall) * factor,
        "cpu_per_unit_s": stats.low_mean(cpu) * factor,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups) * factor,
    }
    failures = [s.failure for s in samples if s.failure is not None]
    return {
        "metrics": {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in values},
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:5],
        "detail": {
            "unit_of_work": workload.unit,
            "host_speed": host.summary(),
            # The rest as the clock read it, before the host-speed factor.
            "wall_per_unit_s": stats.summarise(wall),
            "cpu_per_unit_s": stats.summarise(cpu),
            "setup_s": stats.summarise(setups),
            "iteration_wall_s": stats.summarise([s.wall_s for s in good]),
            "units_per_iteration": stats.summarise([s.units for s in good]),
        },
        # Of the first input only: how many more a run reaches depends on the host.
        "sim_digest": samples[0].sim_digest,
    }


def traced_run(workload: Workload) -> Dict[str, Any]:
    """One untraced reference iteration, then the traced pass."""
    workload.setup()
    traced = workload.traced_pass()
    reference_failures = (
        [f"reference iteration: {traced.reference.failure}"] if traced.reference.failure else []
    )
    return {
        "metrics": {name: {"value": traced.table[name], "unit": unit}
                    for name, unit, _ in layers.LAYER_METRICS},
        "attempted": 2,  # the reference iteration and the traced one
        "failed": len(reference_failures) + int(bool(traced.failures)),
        "failures": (reference_failures + traced.failures)[:5],
        "detail": {
            "reference_wall_s": traced.reference.wall_s,
            "traced_wall_s": traced.traced_wall_s,
            "observability_overhead": traced.overhead,
            "trace_file": str((OUT / f"trace-{workload.name}.json").relative_to(ROOT)),
        },
        "sim_digest": traced.reference.sim_digest,
    }


def sidecar_path(name: str, trace: int) -> Path:
    return OUT / f"last-{name}-trace{trace}.json"


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload in this process."""
    if not (ROOT / "src" / "repro").is_dir():
        print("error: src/repro not found next to bench/; nothing to benchmark", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if args.setup_only:
        try:
            print(repr(setup_once(workload)))
        finally:
            workload.cleanup()
        return 0
    try:
        report = traced_run(workload) if args.trace else timed_run(workload, args.seconds)
    finally:
        workload.cleanup()
    report.update(workload=args.workload, seed=args.seed, trace=args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    with sidecar_path(args.workload, args.trace).open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    for name, metric in report["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    host = report["detail"].get("host_speed")
    if host:
        print(f"host_speed_factor = {host['factor']:.6g} ratio")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def run_passes(name: str, seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """Timed run then traced pass of one workload, each in a fresh child process."""
    cls = WORKLOADS[name]
    entry: Dict[str, Any] = {"why": cls.why, "unit_of_work": cls.unit}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if smoke:
            command.append("--smoke")
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        if completed.returncode != 0:
            raise RuntimeError(
                f"{name} --trace {trace} exited {completed.returncode}:\n{completed.stderr}"
            )
        with sidecar_path(name, trace).open(encoding="utf-8") as handle:
            report = json.load(handle)
        entry[key] = report["metrics"]
        for field in ("detail", "attempted", "failed", "failures"):
            entry[f"{key}_{field}"] = report[field]
        entry["sim_digest" if trace == 0 else "traced_sim_digest"] = report["sim_digest"]
    return entry


def run_all(args: argparse.Namespace) -> int:
    """All four workloads, one after the other (two at a time under --smoke,
    which validates the harness and measures nothing)."""
    seconds = 0.0 if args.smoke else args.seconds
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        entries = list(pool.map(
            lambda name: run_passes(name, args.seed, seconds, args.smoke), WORKLOADS
        ))
    result: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "run_seconds": seconds, "smoke": args.smoke,
        "workloads": dict(zip(WORKLOADS, entries)),
    }
    for name, entry in result["workloads"].items():
        print_workload(name, entry)
    out = Path(args.out) if args.out else OUT / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"\nresult written to {out}")
    failed = sum(e["end_to_end_failed"] + e["per_layer_failed"] for e in entries)
    return 1 if failed else 0


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    attempted = entry["end_to_end_attempted"]
    print(f"\n== {name}  (unit of work: {entry['unit_of_work']})")
    print(f"  end to end, tracing off: {attempted} iterations, "
          f"{entry['end_to_end_failed']} failed, sim_digest {entry['sim_digest'][:16]}")
    for metric, _, _, _ in END_TO_END:
        value = entry["end_to_end"][metric]
        line = f"  {metric:<38s} {value['value']:>14.6g} {value['unit']}"
        detail = entry["end_to_end_detail"].get(metric)
        if detail:
            line += ("   [k={k} min={min:.4g} p10={p10:.4g} q1={q1:.4g} median={median:.4g} "
                     "q3={q3:.4g} max={max:.4g}]").format(**detail)
        print(line)
    host = entry["end_to_end_detail"]["host_speed"]
    print(f"  times above are scaled by the host-speed factor {host['factor']:.4f} "
          f"(median probe {host['median_probe_s'] * 1e3:.3f} ms over {host['probes']} probes; "
          f"the bracketed details are as the clock read them)")
    detail = entry["per_layer_detail"]
    print(f"  per layer, traced pass: traced {detail['traced_wall_s']:.3f} s vs untraced "
          f"{detail['reference_wall_s']:.3f} s")
    table = {metric: value["value"] for metric, value in entry["per_layer"].items()}
    for row in layers.format_layer_rows(table, detail["traced_wall_s"]):
        print(row)
    overhead = detail.get("observability_overhead")
    if overhead:
        for side, row in overhead.items():
            print(f"  obs {side}: p10 on {row['on_p10_s']:.4f} s / p10 off {row['off_p10_s']:.4f} s"
                  f" = {row['ratio']:.4f} over {row['rounds']} interleaved rounds")
    for failure in entry["end_to_end_failures"] + entry["per_layer_failures"]:
        print(f"  FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process (driver mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="how long the timed loop measures (the traced pass does a fixed "
                             "amount of work, so that its counts repeat exactly for a seed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: the per-layer traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="miniature sizes, one iteration: validates the harness, not the repo")
    parser.add_argument("--setup-only", action="store_true",
                        help="with --workload: set up, print the seconds it took, exit "
                             "(how the timed run takes further samples of setup_s)")
    parser.add_argument("--out", help="result file of the all-workloads mode")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
