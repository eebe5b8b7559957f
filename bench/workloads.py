"""The four benchmark workloads.

Each is a closed loop with one client: the next iteration starts when the
previous one returned.  ``--seed`` feeds the session / universe seeds and
nothing else.  An iteration returns a :class:`Sample` whose ``units`` is the
amount of work it did, so host time is reported per unit of work and stays
comparable when seeds make one iteration longer than the next (bench/run.py
also scales it by the run's host-speed factor, see bench/hostspeed.py):

* ``pair-*``: one unit = 1 000 nominal peer-periods (``n_nodes x n_rounds``
  summed over the two sessions of the pair);
* ``universe-cold-pipeline``: one unit = one cold pipeline;
* ``report-warm-replay``: one unit = one rendered report.
"""

from __future__ import annotations

import compileall
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from bench import layers, stats
from bench.trace import Recorder, ShimSet, Target, write_chrome_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: A CLI command of these workloads takes a few seconds; a hung one must
#: not outlive the driver's per-run limit.
CLI_TIMEOUT_S = 150

_clock = time.perf_counter


# --------------------------------------------------------------------------- #
# measurement primitives
# --------------------------------------------------------------------------- #
def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env.pop("REPRO_RESULTS_DIR", None)
    env.pop("REPRO_PAPER_SCALE", None)
    return env


def run_python(args: Sequence[str]) -> subprocess.CompletedProcess:
    """Run ``python <args>`` to completion with ``src/`` importable."""
    return subprocess.run(
        [sys.executable, *args], env=child_env(), text=True,
        capture_output=True, timeout=CLI_TIMEOUT_S, check=False,
    )


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python(["-m", "repro.cli", *args])


def seed_batch(seed: int) -> List[int]:
    """The simulation seeds a run iterates over, drawn from ``--seed``.

    Iteration i simulates seed i of the batch, so one run averages over as
    many overlays / lineups as it has iterations instead of reporting how
    hard one particular seed happens to be.
    """
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31 - 1) for _ in range(256)]


#: What checking one iteration's output yields: (units, digest, info).
Checked = Tuple[float, str, Dict[str, Any]]


class IterationFailed(Exception):
    """An iteration whose output check did not hold (counts in ``failed``)."""


@dataclass
class Sample:
    """One timed iteration."""

    wall_s: float
    cpu_s: float
    units: float
    digest: str = ""
    failure: Optional[str] = None
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def sim_digest(self) -> str:
        """The digest two runs of one seed share (``digest`` may also cover
        bytes that only repeat within a run)."""
        return self.info.get("sim_digest", self.digest)


@dataclass
class TracedPass:
    """What the traced pass of a workload produced."""

    table: Dict[str, float]
    reference: Sample
    traced_wall_s: float
    #: What went wrong in the traced iteration (the reference iteration
    #: reports its own through ``reference.failure``).
    failures: List[str]
    #: Both bases of the ``obs.*`` ratios, where they were measured.
    overhead: Optional[Dict[str, Dict[str, float]]] = None


@contextmanager
def tracing(recorder: Recorder, targets: Sequence[Target]) -> Iterator[Any]:
    """Shims installed and telemetry on; yields the live ``Telemetry``."""
    from repro.obs import telemetry_session

    with ShimSet(targets, recorder):
        with telemetry_session(max_trace_events=2_000_000) as telemetry:
            yield telemetry


def close_trace(recorder: Recorder, telemetry: Any) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Merge the telemetry spans into ``recorder``; returns (snapshot, events).

    Call after the shims are gone: ``snapshot()`` itself asks sketches for
    percentiles, which must not be billed to ``metrics``.
    """
    events = telemetry.tracer.events()
    recorder.add_telemetry_events(events, telemetry.tracer.origin)
    return telemetry.snapshot(), events


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def store_documents(root: Path, backend: str) -> List[Dict[str, Any]]:
    """Every document of a result store, in key order."""
    from repro.experiments.store import open_store

    store = open_store(root, backend=backend)
    return [doc for doc in (store.load(key) for key in store.keys()) if doc is not None]


def record_roundtrips(table: Dict[str, float], documents: Sequence[Dict[str, Any]],
                      scratch: Path) -> None:
    """Backend probe: save then load ``documents`` into a fresh store of each backend."""
    from repro.experiments.store import open_store

    for backend in ("json", "sqlite"):
        root = scratch / f"roundtrip-{backend}"
        shutil.rmtree(root, ignore_errors=True)
        start = _clock()
        store = open_store(root, backend=backend)
        for index, document in enumerate(documents):
            store.save(document.get("key", f"doc-{index}"), document)
        for index, document in enumerate(documents):
            if store.load(document.get("key", f"doc-{index}")) is None:
                raise IterationFailed(f"{backend} store lost a document on round trip")
        table[f"experiments.store.{backend}_roundtrip_s"] = _clock() - start


def pooled_switch_reduction(documents: Sequence[Dict[str, Any]]) -> float:
    """(normal - fast) / normal mean zap time from universe ``aggregates`` blocks."""
    from repro.channels.aggregates import merge_rep_aggregates

    universes = sorted(
        (d for d in documents if d.get("kind") == "universe" and "aggregates" in d),
        key=lambda d: d["seed"],
    )
    if not universes:
        return 0.0
    merged = merge_rep_aggregates([d["aggregates"] for d in universes])
    normal, fast = merged["normal"].stats.mean, merged["fast"].stats.mean
    return (normal - fast) / normal if normal else 0.0


# --------------------------------------------------------------------------- #
# workload base
# --------------------------------------------------------------------------- #
class Workload:
    """Set-up, one timed iteration, and the traced pass of one workload."""

    name = ""
    why = ""
    unit = ""
    #: Iterations run different inputs (drawn from the seed); the run loop
    #: then repeats input 0 once at the end so determinism is still checked.
    distinct_inputs = False
    #: How many fresh processes ``setup_s`` is the median of.
    setup_repeats = 3
    #: Processes the timed body keeps busy at once (the host-speed probe
    #: runs on as many).
    busy_processes = 1

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.smoke = smoke
        self.scratch = OUT / f"tmp-{self.name}-{os.getpid()}"
        self._first_digest: Dict[Any, str] = {}

    # -- lifecycle ------------------------------------------------------- #
    def setup(self) -> None:
        """Everything before the first timed iteration (reported as ``setup_s``)."""
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        # The checkout may be pristine: byte-compile once so no timed CLI
        # iteration pays for it (a no-op when the caches are current).
        compileall.compile_dir(str(SRC), quiet=2, workers=1)

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- timed iterations ------------------------------------------------- #
    def input_key(self, index: int) -> Any:
        """Iterations with equal keys must produce equal digests."""
        return 0

    def body(self, index: int) -> Tuple[Callable[[], Any], Callable[[Any], Checked]]:
        """Prepare iteration ``index``; returns ``(run, finish)`` closures.

        ``run()`` is the timed body; ``finish(result)`` checks its output
        untimed and returns ``(units, digest, info)``.
        """
        raise NotImplementedError

    def timed_iteration(self, index: int) -> Sample:
        run, finish = self.body(index)
        cpu0, start = cpu_seconds(), _clock()
        try:
            result = run()
            failure = None
        except Exception as error:  # an iteration that raises is a failed one
            result, failure = None, f"{type(error).__name__}: {error}"
        wall, cpu = _clock() - start, cpu_seconds() - cpu0
        units, digest, info = 1.0, "", {}
        if failure is None:
            try:
                units, digest, info = finish(result)
                first = self._first_digest.setdefault(self.input_key(index), digest)
                if digest != first:
                    raise IterationFailed(
                        f"result digest {digest[:12]} differs from the first "
                        f"run of the same input ({first[:12]})"
                    )
            except IterationFailed as error:
                failure = str(error)
        return Sample(wall_s=wall, cpu_s=cpu, units=units, digest=digest,
                      failure=failure, info=info)

    # -- traced pass ------------------------------------------------------ #
    def traced_pass(self) -> TracedPass:
        raise NotImplementedError

    def _finish_traced(self, recorder: Recorder, table: Dict[str, float], reference: Sample,
                       traced_digest: str, window: Tuple[float, float],
                       failures: List[str]) -> TracedPass:
        """Shared tail of every traced pass: instrument metrics, trace file."""
        start, end = window
        table["trace.overhead_ratio"] = stats.share(end - start, reference.wall_s)
        table["trace.unattributed_share"] = layers.unattributed_share(recorder.spans, start, end)
        if traced_digest != reference.digest:
            failures.append(
                f"traced sim_digest {traced_digest[:12]} != untraced {reference.digest[:12]}"
            )
        write_chrome_trace(
            recorder.spans, OUT / f"trace-{self.name}.json",
            metadata={"workload": self.name, "seed": self.seed},
        )
        return TracedPass(table=table, reference=reference,
                          traced_wall_s=end - start, failures=failures)


# --------------------------------------------------------------------------- #
# pair-static-oracle / pair-churn-wan-vector
# --------------------------------------------------------------------------- #
class PairWorkload(Workload):
    """In-process ``run_pair`` of a 100-peer session, no store."""

    unit = "1000 nominal peer-periods"
    distinct_inputs = True
    n_nodes = 100
    max_time = 120.0
    config_kwargs: Dict[str, Any] = {}
    #: The reference engine must finish every tracked peer; under churn a
    #: peer may legitimately leave mid-switch.
    require_finished = False
    #: Interleaved off/on rounds for the ``obs.*`` overhead ratios (0: this
    #: workload does not measure them).
    overhead_rounds = 0

    def setup(self) -> None:
        super().setup()
        from repro import run_pair

        if self.smoke:
            self.n_nodes, self.max_time = 40, 80.0
        self.session_seeds = seed_batch(self.seed)
        # Warm-up on a fixed reference session: imports, NumPy first calls,
        # lazy tables.  Fixed, so ``setup_s`` does not move with the seed.
        run_pair(self.config(0))

    def config(self, session_seed: int) -> Any:
        from repro import make_session_config

        return make_session_config(self.n_nodes, seed=session_seed,
                                   max_time=self.max_time, **self.config_kwargs)

    def input_key(self, index: int) -> Any:
        return self.session_seeds[index % len(self.session_seeds)]

    def body(self, index: int):
        from repro import run_pair

        config = self.config(self.input_key(index))
        return (lambda: run_pair(config)), self.check_pair

    def check_pair(self, pair: Any) -> Tuple[float, str, Dict[str, Any]]:
        from repro.experiments.store import session_result_to_dict

        results = (pair.normal, pair.fast)
        units = sum(r.config.n_nodes * r.n_rounds for r in results) / 1000.0
        digest = stats.digest(session_result_to_dict(r) for r in results)
        info = {
            "sim_switch_reduction": pair.switch_time_reduction,
            "sim_overhead_ratio": pair.fast.overhead_ratio,
        }
        for result in results:
            if result.stop_reason != "all tracked peers switched":
                raise IterationFailed(f"unexpected stop_reason {result.stop_reason!r}")
            if self.require_finished and result.metrics.unfinished > 0:
                raise IterationFailed(f"{result.metrics.unfinished} unfinished peers")
        return units, digest, info

    def traced_pass(self) -> TracedPass:
        from repro import run_pair
        from repro.experiments.store import pair_fingerprint

        failures: List[str] = []
        reference = self.timed_iteration(0)
        config = self.config(self.input_key(0))
        recorder = Recorder()
        with tracing(recorder, layers.TARGETS) as telemetry:
            start = _clock()
            pair = run_pair(config)
            end = _clock()
        snapshot, events = close_trace(recorder, telemetry)
        table = layers.layer_table(recorder, snapshot, events)
        try:
            _, traced_digest, info = self.check_pair(pair)
        except IterationFailed as error:
            failures.append(f"traced iteration: {error}")
            traced_digest, info = "", {}
        table["peer_periods_per_s"] = stats.share(reference.units * 1000.0, reference.wall_s)
        table["sim_switch_reduction"] = info.get("sim_switch_reduction", 0.0)
        table["sim_overhead_ratio"] = info.get("sim_overhead_ratio", 0.0)

        from repro.experiments.store import config_to_dict, session_result_to_dict

        document = {
            "kind": "pair", "key": pair_fingerprint(config),
            "config": config_to_dict(config),
            "normal": session_result_to_dict(pair.normal),
            "fast": session_result_to_dict(pair.fast),
        }
        record_roundtrips(table, [document], self.scratch)
        table["experiments.store.bytes"] = directory_bytes(self.scratch / "roundtrip-sqlite")
        traced = self._finish_traced(recorder, table, reference, traced_digest,
                                     (start, end), failures)
        if self.overhead_rounds:
            traced.overhead = observability_overhead(
                config, rounds=1 if self.smoke else self.overhead_rounds
            )
            table["obs.telemetry_overhead_ratio"] = traced.overhead["telemetry"]["ratio"]
            table["obs.probe_overhead_ratio"] = traced.overhead["probes"]["ratio"]
        return traced


class PairStaticOracle(PairWorkload):
    name = "pair-static-oracle"
    why = ("The paper's static paired switch on the reference engine: ~90 % scalar decide "
           "(streaming + core), a few dozen engine events, no fabric, churn, dist or store work.")
    config_kwargs = {"engine": "oracle"}
    require_finished = True
    overhead_rounds = 8


class PairChurnWanVector(PairWorkload):
    name = "pair-churn-wan-vector"
    why = ("Same session layer under 5 %/5 % churn, a lossy delayed fabric and the array engine: "
           "core.vector, net, sim event dispatch, overlay repair and churn carry the run.")
    config_kwargs = {"engine": "vector", "dynamic": True, "topology": "transcontinental"}


def observability_overhead(config: Any, *, rounds: int) -> Dict[str, Dict[str, float]]:
    """p10(on) / p10(off) of the pair body, from interleaved rounds.

    Every round runs the body telemetry-off, telemetry-on and probes-on,
    rotating which goes first, so drift on a shared machine hits all three
    sides alike; one noisy pair can no longer put the ratio below 1.
    """
    from repro import run_pair
    from repro.obs import telemetry_session

    def off() -> None:
        run_pair(config)

    def telemetry_on() -> None:
        with telemetry_session():
            run_pair(config)

    def probes_on() -> None:
        with telemetry_session(probes=True):
            run_pair(config)

    sides = [("off", off), ("telemetry", telemetry_on), ("probes", probes_on)]
    seconds: Dict[str, List[float]] = {name: [] for name, _ in sides}
    for round_index in range(rounds):
        shift = round_index % len(sides)
        for name, body in sides[shift:] + sides[:shift]:
            start = _clock()
            body()
            seconds[name].append(_clock() - start)
    base = stats.lower_decile(seconds["off"])
    return {
        name: {
            "ratio": stats.share(stats.lower_decile(seconds[name]), base),
            "on_p10_s": stats.lower_decile(seconds[name]),
            "off_p10_s": base,
            "rounds": rounds,
        }
        for name in ("telemetry", "probes")
    }


# --------------------------------------------------------------------------- #
# CLI workloads
# --------------------------------------------------------------------------- #
PAPER_FIGURES = [
    "fig2-ordering", "fig5-ratio-static", "fig6-times-static", "fig7-switch-static",
    "fig8-overhead-static", "fig9-ratio-dynamic", "fig10-times-dynamic",
    "fig11-switch-dynamic", "fig12-overhead-dynamic",
]
UNIVERSE_FIGURES = ["universe-deciles", "universe-percentiles", "universe-summary"]
PROBE_FIGURES = ["probe-swarm-health", "probe-startup-funnel"]


def cli_layer_times(samples: int) -> Dict[str, float]:
    """Interpreter start-up rows: p10 over fresh subprocesses."""
    commands = {
        "cli.version_s": ["-m", "repro.cli", "--version"],
        "cli.import_s": ["-c", "import repro.cli"],
        "cli.import_numpy_s": ["-c", "import numpy"],
    }
    seconds: Dict[str, List[float]] = {name: [] for name in commands}
    for _ in range(samples):
        for name, args in commands.items():
            start = _clock()
            completed = run_python(args)
            seconds[name].append(_clock() - start)
            if completed.returncode != 0:
                raise IterationFailed(f"{' '.join(args)} exited {completed.returncode}")
    return {name: stats.lower_decile(values) for name, values in seconds.items()}


def expect_success(completed: subprocess.CompletedProcess, what: str) -> Any:
    """The command's JSON output; a non-zero exit fails the iteration."""
    if completed.returncode != 0:
        raise IterationFailed(
            f"{what} exited {completed.returncode}: {completed.stderr.strip()[-300:]}"
        )
    try:
        return json.loads(completed.stdout)
    except ValueError as error:
        raise IterationFailed(f"{what} printed no JSON: {error}") from None


def expect_figures(summary: Dict[str, Any], rendered: Sequence[str],
                   skipped: Sequence[str]) -> None:
    if list(summary["rendered"]) != list(rendered) or sorted(summary["skipped"]) != sorted(skipped):
        raise IterationFailed(
            f"figure set changed: rendered {summary['rendered']}, "
            f"skipped {sorted(summary['skipped'])}"
        )


def report_tree(out_dir: Path) -> List[Path]:
    return sorted(p for p in out_dir.rglob("*") if p.is_file())


class CliWorkload(Workload):
    """Shared parameters of the two command-line workloads."""

    channels, viewers, repetitions, shards, workers = 6, 96, 2, 4, 2

    def setup(self) -> None:
        super().setup()
        import repro.channels  # noqa: F401 - the checks below read stores in-process
        import repro.experiments.store  # noqa: F401

        if self.smoke:
            self.channels, self.viewers, self.repetitions, self.shards = 3, 36, 1, 2

    def universe_args(self, results_dir: Path, seed: int) -> List[str]:
        return [
            "universe", "run", "lineup-mini", "--seed", str(seed),
            "--channels", str(self.channels), "--viewers", str(self.viewers),
            "--repetitions", str(self.repetitions), "--shards", str(self.shards),
            "--workers", str(self.workers), "--store-backend", "sqlite",
            "--results-dir", str(results_dir), "--json",
        ]

    def report_args(self, results_dir: Path, out_dir: Path, seed: int, sizes: Sequence[int],
                    n_nodes: int) -> List[str]:
        return [
            "report", "--results-dir", str(results_dir), "--store-backend", "sqlite",
            "--out", str(out_dir), "--sizes", *map(str, sizes),
            "--n-nodes", str(n_nodes), "--seed", str(seed), "--json",
        ]

    def universe_spec(self) -> Any:
        from repro.workloads import get_universe

        return get_universe("lineup-mini").scaled_to(
            n_channels=self.channels, n_viewers=self.viewers
        )

    def record_cli_layers(self, table: Dict[str, float], failures: List[str]) -> None:
        try:
            table.update(cli_layer_times(2 if self.smoke else 10))
        except IterationFailed as error:
            failures.append(str(error))


class UniverseColdPipeline(CliWorkload):
    name = "universe-cold-pipeline"
    why = ("Cold sharded mini-universe -> SQLite store writes -> rendered report, as two CLI "
           "commands: dist, channels, experiments sweeps and store saves do most of the work.")
    unit = "one cold pipeline (universe run + report)"
    distinct_inputs = True
    busy_processes = CliWorkload.workers
    sizes, n_nodes = (30,), 30

    def setup(self) -> None:
        super().setup()
        self.universe_seeds = seed_batch(self.seed)

    def input_key(self, index: int) -> Any:
        return self.universe_seeds[index % len(self.universe_seeds)]

    def body(self, index: int):
        results_dir = self.scratch / f"cold-{index}"
        shutil.rmtree(results_dir, ignore_errors=True)
        out_dir = results_dir / "report"
        seed = self.input_key(index)

        def run() -> Tuple[subprocess.CompletedProcess, subprocess.CompletedProcess]:
            universe = run_cli(*self.universe_args(results_dir, seed))
            if universe.returncode != 0:
                return universe, universe
            return universe, run_cli(*self.report_args(results_dir, out_dir, seed,
                                                       self.sizes, self.n_nodes))

        def finish(result: Any) -> Tuple[float, str, Dict[str, Any]]:
            try:
                universe, report = result
                expect_success(universe, "universe run")
                summary = expect_success(report, "report")
                expect_figures(summary, PAPER_FIGURES + UNIVERSE_FIGURES, PROBE_FIGURES)
                return (1.0,) + self.pipeline_digest(results_dir, out_dir)
            finally:
                shutil.rmtree(results_dir, ignore_errors=True)

        return run, finish

    def pipeline_digest(self, results_dir: Path, out_dir: Path) -> Tuple[str, Dict[str, Any]]:
        documents = store_documents(results_dir, "sqlite")
        data_files = sorted((out_dir / "data").glob("*.json"))
        digest = stats.digest(documents) + ":" + stats.digest_files(data_files)
        return digest, {"sim_switch_reduction": pooled_switch_reduction(documents)}

    def traced_pass(self) -> TracedPass:
        import repro.figures
        from repro.channels import run_universe
        from repro.experiments.store import open_store
        from repro.experiments.sweeps import clear_sweep_cache

        failures: List[str] = []
        reference = self.timed_iteration(0)
        results_dir = self.scratch / "cold-traced"
        out_dir = results_dir / "report"
        spec = self.universe_spec()
        seed = self.input_key(0)
        clear_sweep_cache()
        recorder = Recorder()
        # Shard workers are forked from this process: while they exist only
        # the host-side shims are in place, so in-shard simulation runs as
        # un-instrumented as it does under the CLI.
        start = _clock()
        with tracing(recorder, layers.HOST_TARGETS) as telemetry_run:
            run_universe(
                spec, seed=seed, repetitions=self.repetitions, workers=self.workers,
                shards=self.shards, store=open_store(results_dir, backend="sqlite"),
            )
        with tracing(recorder, layers.TARGETS) as telemetry_report:
            summary = repro.figures.render_report(  # looked up now: it is shimmed
                open_store(results_dir, backend="sqlite"), out_dir,
                seed=seed, sizes=list(self.sizes), n_nodes=self.n_nodes,
            )
        end = _clock()
        # The same universe once serially in-process, to split in-shard time
        # across sim / streaming / core / net.
        with tracing(recorder, layers.TARGETS) as telemetry_serial:
            run_universe(spec, seed=seed, repetitions=self.repetitions)
        snapshots, events = [], []
        for telemetry in (telemetry_run, telemetry_report, telemetry_serial):
            snapshot, pass_events = close_trace(recorder, telemetry)
            snapshots.append(snapshot)
            events.extend(pass_events)
        table = layers.layer_table(recorder, merge_counters(snapshots), events,
                                   workers=self.workers)
        table["figures.rendered"] = len(summary.rendered)
        table["figures.skipped"] = len(summary.skipped)
        table["experiments.store.bytes"] = directory_bytes(results_dir) - directory_bytes(out_dir)
        traced_digest, info = self.pipeline_digest(results_dir, out_dir)
        table["sim_switch_reduction"] = info["sim_switch_reduction"]
        record_roundtrips(table, store_documents(results_dir, "sqlite"), self.scratch)
        self.record_cli_layers(table, failures)
        return self._finish_traced(recorder, table, reference, traced_digest,
                                   (start, end), failures)


class ReportWarmReplay(CliWorkload):
    name = "report-warm-replay"
    why = ("One `repro report --from-store` over a warm SQLite store: no simulator code runs, so "
           "CLI start-up, store loads, sketch percentiles and figure/HTML rendering are all of it.")
    unit = "one rendered report"
    #: Building the warm store takes ~10 s: no room for more than one sample.
    setup_repeats = 1
    sizes, n_nodes = (30, 40, 50), 40

    def setup(self) -> None:
        super().setup()
        if self.smoke:
            self.sizes, self.n_nodes = (30,), 30
        self.warm = self.scratch / "warm"
        steps = [
            ("universe run", self.universe_args(self.warm, self.seed)),
            ("probed run", ["run", "--n-nodes", str(self.n_nodes), "--seed", "7",
                            "--max-time", "80", "--probes", "--store-backend", "sqlite",
                            "--results-dir", str(self.warm)]),
            ("cold report", self.report_args(self.warm, self.scratch / "warm-report", self.seed,
                                             self.sizes, self.n_nodes)),
        ]
        for what, args in steps:
            completed = run_cli(*args)
            if completed.returncode != 0:
                raise RuntimeError(
                    f"warm-store set-up: {what} exited {completed.returncode}: "
                    f"{completed.stderr.strip()[-300:]}"
                )

    def body(self, index: int):
        out_dir = self.scratch / f"replay-{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        args = (self.report_args(self.warm, out_dir, self.seed, self.sizes, self.n_nodes)
                + ["--from-store"])

        def finish(completed: subprocess.CompletedProcess) -> Tuple[float, str, Dict[str, Any]]:
            try:
                summary = expect_success(completed, "report --from-store")
                expect_figures(summary, PAPER_FIGURES + UNIVERSE_FIGURES + PROBE_FIGURES, [])
                return 1.0, self.tree_digest(out_dir), {"sim_digest": self.data_digest(out_dir)}
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        return (lambda: run_cli(*args)), finish

    @staticmethod
    def tree_digest(out_dir: Path) -> str:
        """Names and bytes of the whole output tree: replays must be identical."""
        files = report_tree(out_dir)
        names = stats.digest([str(p.relative_to(out_dir)) for p in files])
        return names + ":" + stats.digest_files(files)

    @staticmethod
    def data_digest(out_dir: Path) -> str:
        """The figure data only: report.html also shows the probed run's host
        timings, which differ from one warm store to the next."""
        return stats.digest_files(sorted((out_dir / "data").glob("*.json")))

    def traced_pass(self) -> TracedPass:
        import repro.figures
        from repro.experiments.store import open_store
        from repro.experiments.sweeps import clear_sweep_cache

        failures: List[str] = []
        reference = self.timed_iteration(0)
        out_dir = self.scratch / "replay-traced"
        clear_sweep_cache()
        recorder = Recorder()
        with tracing(recorder, layers.TARGETS) as telemetry:
            start = _clock()
            summary = repro.figures.render_report(  # looked up now: it is shimmed
                open_store(self.warm, backend="sqlite", replay_only=True), out_dir,
                seed=self.seed, sizes=list(self.sizes), n_nodes=self.n_nodes,
            )
            end = _clock()
        snapshot, events = close_trace(recorder, telemetry)
        table = layers.layer_table(recorder, snapshot, events)
        table["figures.rendered"] = len(summary.rendered)
        table["figures.skipped"] = len(summary.skipped)
        table["experiments.store.bytes"] = directory_bytes(self.warm)
        documents = store_documents(self.warm, "sqlite")
        table["sim_switch_reduction"] = pooled_switch_reduction(documents)
        record_roundtrips(table, documents, self.scratch)
        traced_digest = self.tree_digest(out_dir)
        self.record_cli_layers(table, failures)
        return self._finish_traced(recorder, table, reference, traced_digest,
                                   (start, end), failures)


def merge_counters(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the counter blocks of several telemetry snapshots."""
    counters: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"counters": counters}


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (PairStaticOracle, PairChurnWanVector, UniverseColdPipeline, ReportWarmReplay)
}
