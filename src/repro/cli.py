"""Command-line interface.

Installed as ``repro-gossip`` (and the shorter alias ``repro``; see
``pyproject.toml``), also usable as ``python -m repro.cli``.  Sub-commands:

``figure N``
    Regenerate the data behind paper figure ``N`` and print it as a table
    (optionally as JSON).  ``--paper-scale`` switches to the paper's full
    overlay sizes (slow); the default uses the reduced benchmark sizes.
    With ``--results-dir`` results are read from / written to the
    persistent store; ``--from-store`` forbids simulation entirely (pure
    replay).

``sweep``
    Run a paired fast-vs-normal size sweep -- the workload behind Figures
    6--8 and 10--12 -- optionally in parallel (``--workers N``) and through
    the persistent result store (``--results-dir PATH``), and print one row
    per overlay size.

``store ls`` / ``store clear`` / ``store migrate``
    Inspect (``ls`` takes ``--kind``/``--limit`` filters), empty, or
    losslessly migrate a results directory between backends.  Every
    store-backed command accepts ``--store-backend {json,sqlite}``: one
    JSON file per document (the default) or a single ``store.sqlite``
    database in the same directory.  A command that cannot write -- these
    three on their source, and any command under ``--from-store`` -- never
    creates a store: a path that is not there is an error (``store``,
    ``report``) or a miss (the rest), and stays not there.

``run``
    Run a single simulation (choose algorithm, size, seed, churn) and print
    its summary metrics.

``compare``
    Run a paired fast-vs-normal comparison and print the reduction ratio.

``workload ls`` / ``workload run NAME`` / ``workload compare NAME``
    The time-scripted workload engine: list the named workloads, run one
    (paired fast-vs-normal, store-backed, parallel over ``--repetitions``
    with ``--workers``), or print the paired switch-time comparison.
    ``--from-store`` forbids simulation (pure replay).  ``--json`` emits a
    machine-readable payload (``compare --json`` a focused comparison one).

``universe ls`` / ``universe run NAME`` / ``universe compare NAME``
    The multi-channel universe: list the named universes, run one (a Zipf
    channel lineup with surfing/loyal zapping; every channel's paired
    fast-vs-normal switch, store-backed), or print only the
    per-popularity-decile zap-time comparison.  ``--channels`` /
    ``--viewers`` rescale the lineup.  ``--workers N`` runs the channels
    on the sharded runtime (:mod:`repro.dist`): a long-lived
    crash-tolerant worker pool with a checkpoint journal, so an
    interrupted run resumes without recomputing finished shards -- still
    bit-identical to the serial path.  ``--shards N`` sets how many shards
    the ``repetitions x channels`` units are dealt into (default: one unit
    per shard).

``report``
    Render every figure of the one figure table
    (:mod:`repro.figures`) from a results store into one self-contained
    HTML report (``report.html`` plus per-figure ``data/<name>.json``):
    the nine paper figures and the universe-scale sketch-backed figures,
    the telemetry of instrumented runs and a store inventory.
    ``--from-store`` forbids simulation -- figures without stored results
    are listed as skipped instead of simulated.

``scenario NAME``
    Run one of the named example scenarios -- thin wrappers over workload
    specs, executed through the same engine (store-backed; ``--compare``
    prints the switch-time reduction).

``net ls`` / ``net show NAME``
    The latency-aware network layer: list the library topologies or print
    one topology's regions and latency matrix.  ``run``, ``compare``,
    ``workload run|compare``, ``universe run|compare`` and ``scenario``
    accept ``--topology NAME`` to execute over that topology's latency
    fabric instead of the paper's ideal zero-latency network; ``run`` and
    ``compare`` then also print the per-region switch-time breakdown.

``trace overlay PATH`` / ``trace run``
    ``overlay`` generates a synthetic clip2/DSS-style overlay trace
    file.  ``run`` executes one instrumented simulation under the
    observability layer (:mod:`repro.obs`) and writes a Chrome
    trace-event file (``--out``, loadable in ``chrome://tracing`` or
    https://ui.perfetto.dev) plus a per-span timing table.

``run``, ``compare``, ``workload run|compare``, ``universe run|compare``
and ``scenario`` accept ``--engine {oracle,vector}`` to pick the
simulation core.  Without the flag they run on
:data:`~repro.streaming.config.DEFAULT_ENGINE`: the NumPy array engine
(``vector``) is the production path, and the per-peer object engine
(``oracle``) is the readable reference and the debugging path -- the two
are bit-identical (see docs/architecture.md), so store keys and
documents do not depend on the choice.
The same commands accept ``--telemetry`` (collect metrics and spans;
persisted beside the results as a ``telemetry-*`` store document when a
results directory is configured) and ``--trace-out PATH`` (also write
the Chrome trace-event file).  Telemetry never changes simulation
results: documents and fingerprints are byte-identical with it on or
off.

``--log-level {debug,info,warning,error}`` (global) configures the
stdlib logging of the ``repro.*`` loggers on stderr -- worker respawn
and retry warnings from the sharded runtime land there, never in the
JSON output on stdout.

The results directory may also be set via the ``REPRO_RESULTS_DIR``
environment variable (the ``--results-dir`` flag wins).

Start-up follows use: this module imports the standard library only.  One
table (``_COMMANDS``) gives every sub-command its help line, its
``configure(subparser)`` and its handler; :func:`main` registers all of
them by name, configures the one ``argv`` names, and that command imports
what it runs -- so ``--version`` and ``--help`` load no NumPy, and a warm
``report --from-store`` loads no simulator (``tests/test_import_fences.py``).

Every group of flags that several commands share is declared once (the
``_add_*_arguments`` helpers), the three named-run commands share one
handler skeleton (``_named_run``) and the four ``ls`` commands one emitter
(``_emit_rows``).  Input the simulator or a replay-only store rejects
(``ValueError``, ``MissingResultError``) is caught once, in :func:`_run`:
one ``error:`` line on stderr and status 1 (the traceback at
``--log-level debug``).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Dict, List, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only; every command imports what it runs
    from repro.channels.runner import UniverseResult
    from repro.experiments.store import BaseResultStore
    from repro.workloads.runner import WorkloadResult
    from repro.workloads.spec import WorkloadSpec

__all__ = ["main", "build_parser"]

_LOG = logging.getLogger("repro.cli")

#: ``--log-level`` choices, lowercase on the command line.
_LOG_LEVELS = ("debug", "info", "warning", "error")


def _positive_int(value: str) -> int:
    """Argparse type for options that must be >= 1 (e.g. ``--workers``)."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared persistent-store options to a sub-command."""
    from repro.experiments.store import STORE_BACKENDS

    parser.add_argument("--results-dir", default=None,
                        help="persistent result store directory "
                             "(default: $REPRO_RESULTS_DIR if set)")
    parser.add_argument("--store-backend", choices=STORE_BACKENDS, default="json",
                        help="result-store backend: one JSON file per document "
                             "('json', the default) or a single store.sqlite "
                             "database inside the results directory ('sqlite')")


def _add_topology_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--topology`` option to a sub-command."""
    from repro.net.library import topology_names

    parser.add_argument("--topology", choices=topology_names(), default=None,
                        help="run over this network topology's latency fabric "
                             "(default: the ideal zero-latency network)")


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--engine`` option to a sub-command."""
    from repro.streaming.config import DEFAULT_ENGINE, ENGINE_NAMES

    parser.add_argument("--engine", choices=sorted(ENGINE_NAMES), default=None,
                        help="simulation core: the NumPy array engine "
                             "('vector') or the bit-identical per-peer "
                             "object engine ('oracle', the reference and "
                             f"debugging path); default: {DEFAULT_ENGINE}")


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared telemetry options to a sub-command."""
    parser.add_argument("--telemetry", action="store_true",
                        help="collect metrics and trace spans for this run; "
                             "persisted as a telemetry-* store document when a "
                             "results directory is configured (results stay "
                             "byte-identical either way)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="also write the run's Chrome trace-event file "
                             "here (implies --telemetry; load it in "
                             "chrome://tracing or ui.perfetto.dev)")
    parser.add_argument("--probes", action="store_true",
                        help="also record the sim-time protocol probes "
                             "(implies --telemetry; segment lifecycle, swarm "
                             "health and startup funnel, exported in the "
                             "telemetry document's 'probes' block)")


def _add_session_arguments(parser: argparse.ArgumentParser, *, algorithm: bool = True) -> None:
    """Attach the single-session flags of ``run``, ``compare``, ``probe`` and ``trace run``."""
    if algorithm:
        parser.add_argument("--algorithm", choices=["fast", "normal"], default="fast")
    parser.add_argument("--n-nodes", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dynamic", action="store_true", help="enable 5%% churn per period")
    parser.add_argument("--max-time", type=float, default=120.0)
    parser.add_argument("--json", action="store_true")
    _add_topology_argument(parser)
    _add_engine_argument(parser)


def _add_named_run_arguments(
    parser: argparse.ArgumentParser,
    names: Sequence[str],
    *,
    compare_help: str = "print only the paired switch-time comparison",
    workers_help: str = "worker processes; bit-identical to --workers 1",
) -> None:
    """Attach the named-run flags of ``workload``/``universe`` ``run|compare`` and ``scenario``."""
    parser.add_argument("name", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repetitions", type=_positive_int, default=1,
                        help="independent repetitions (seed, seed+1, ...)")
    parser.add_argument("--workers", type=_positive_int, default=1, help=workers_help)
    parser.add_argument("--from-store", action="store_true",
                        help="replay from the result store only; never simulate")
    parser.add_argument("--compare", action="store_true", help=compare_help)
    parser.add_argument("--json", action="store_true")
    _add_topology_argument(parser)
    _add_engine_argument(parser)
    _add_telemetry_arguments(parser)
    _add_store_arguments(parser)


def _package_version() -> str:
    """The installed package version (falls back to the module version)."""
    try:
        from importlib.metadata import version

        return version("repro-gossip")
    except Exception:
        from repro import __version__

        return __version__


def _resolve_store(args: argparse.Namespace, *, replay_only: bool = False,
                   required: bool = False, existing: bool = False) -> Optional[BaseResultStore]:
    """Build the store selected by ``--results-dir``/env and ``--store-backend``.

    ``existing``: the command reads what is there (``store ls|clear|migrate``,
    ``report --from-store``), so a directory that is not is the user's typo,
    not an empty store -- and is not created.
    """
    from repro.experiments.store import default_results_dir, open_store

    path = args.results_dir if args.results_dir else default_results_dir()
    if path is None:
        if required:
            raise SystemExit(
                "error: no results directory; pass --results-dir or set REPRO_RESULTS_DIR"
            )
        return None
    if existing and not Path(path).is_dir():
        raise SystemExit(f"error: no results store at {path}")
    backend = getattr(args, "store_backend", None) or "json"
    return open_store(path, backend=backend, replay_only=replay_only)


class _VersionAction(argparse.Action):
    """``--version``: the version is looked up when the flag is given, not per command."""

    def __init__(self, option_strings: Sequence[str], dest: str) -> None:
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        print(f"{parser.prog} {_package_version()}")
        parser.exit()


def _configure_figure(fig: argparse.ArgumentParser) -> None:
    from repro.figures import FIGURES

    fig.add_argument("number", help="paper figure number",
                     choices=[spec.figure_id for spec in FIGURES.values()
                              if spec.figure_id.isdigit()])
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--paper-scale", action="store_true",
                     help="use the paper's full overlay sizes (slow)")
    fig.add_argument("--sizes", type=int, nargs="+", default=None,
                     help="override the swept overlay sizes")
    fig.add_argument("--n-nodes", type=int, default=None,
                     help="override the overlay size (ratio-track figures)")
    fig.add_argument("--repetitions", type=_positive_int, default=1,
                     help="independent repetitions per size (sweep figures)")
    fig.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    fig.add_argument("--chart", action="store_true",
                     help="also render the figure's series as an ASCII chart")
    fig.add_argument("--workers", type=_positive_int, default=1,
                     help="worker processes for the underlying sweep (sweep figures)")
    fig.add_argument("--from-store", action="store_true",
                     help="replay from the result store only; never simulate")
    _add_store_arguments(fig)


def _configure_sweep(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--sizes", type=int, nargs="+", default=None,
                       help="overlay sizes to sweep (default: benchmark sizes)")
    sweep.add_argument("--paper-scale", action="store_true",
                       help="sweep the paper's full overlay sizes (slow)")
    sweep.add_argument("--dynamic", action="store_true",
                       help="enable the paper's churn model (Figures 10-12)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--repetitions", type=_positive_int, default=1,
                       help="independent repetitions per size (>= 3 for paper-grade)")
    sweep.add_argument("--workers", type=_positive_int, default=1,
                       help="worker processes; results are bit-identical to --workers 1")
    sweep.add_argument("--max-time", type=float, default=None,
                       help="override the simulation horizon in seconds")
    sweep.add_argument("--json", action="store_true")
    _add_store_arguments(sweep)


def _configure_store(store: argparse.ArgumentParser) -> None:
    from repro.experiments.store import KINDS, STORE_BACKENDS

    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list stored results")
    store_ls.add_argument("--json", action="store_true")
    store_ls.add_argument("--limit", type=_positive_int, default=None, metavar="N",
                          help="show only the newest N entries (by creation time)")
    store_ls.add_argument("--kind", choices=sorted(["run", *KINDS]), default=None,
                          help="show only entries of this document kind "
                               "('run' is an alias for 'pair')")
    _add_store_arguments(store_ls)
    store_clear = store_sub.add_parser("clear", help="delete every stored result")
    _add_store_arguments(store_clear)
    store_migrate = store_sub.add_parser(
        "migrate",
        help="copy every document into another backend (lossless, "
             "envelope and keys preserved)",
    )
    store_migrate.add_argument("--to", required=True, choices=STORE_BACKENDS,
                               dest="to_backend",
                               help="destination backend")
    store_migrate.add_argument("--dest-dir", default=None,
                               help="destination results directory "
                                    "(default: the source directory itself)")
    _add_store_arguments(store_migrate)


def _configure_run(run: argparse.ArgumentParser) -> None:
    _add_session_arguments(run)
    _add_telemetry_arguments(run)
    _add_store_arguments(run)


def _configure_compare(cmp_parser: argparse.ArgumentParser) -> None:
    _add_session_arguments(cmp_parser, algorithm=False)
    _add_telemetry_arguments(cmp_parser)
    _add_store_arguments(cmp_parser)


def _configure_workload(workload: argparse.ArgumentParser) -> None:
    from repro.workloads.library import workload_names

    workload_sub = workload.add_subparsers(dest="workload_command", required=True)
    workload_ls = workload_sub.add_parser("ls", help="list the named workloads")
    workload_ls.add_argument("--json", action="store_true")
    for verb, verb_help in (
        ("run", "run a named workload (paired fast-vs-normal)"),
        ("compare", "run a named workload and print the paired comparison"),
    ):
        workload_run = workload_sub.add_parser(verb, help=verb_help)
        _add_named_run_arguments(workload_run, workload_names())
        workload_run.add_argument("--n-nodes", type=_positive_int, default=None,
                                  help="override the workload's overlay size")


def _configure_universe(universe: argparse.ArgumentParser) -> None:
    from repro.workloads.library import universe_names

    universe_sub = universe.add_subparsers(dest="universe_command", required=True)
    universe_ls = universe_sub.add_parser("ls", help="list the named universes")
    universe_ls.add_argument("--json", action="store_true")
    for verb, verb_help in (
        ("run", "run a named universe (paired fast-vs-normal on every channel)"),
        ("compare", "run a named universe and print the per-decile comparison"),
    ):
        universe_run = universe_sub.add_parser(verb, help=verb_help)
        _add_named_run_arguments(
            universe_run, universe_names(),
            compare_help="print only the per-decile zap-time comparison",
            workers_help="worker processes of the sharded runtime (crash-tolerant pool "
                         "with checkpoint/resume); bit-identical to --workers 1",
        )
        universe_run.add_argument("--channels", type=_positive_int, default=None,
                                  help="override the universe's lineup size")
        universe_run.add_argument("--viewers", type=_positive_int, default=None,
                                  help="override the universe's viewer population")
        universe_run.add_argument("--shards", type=_positive_int, default=None,
                                  help="partition the repetitions x channels "
                                       "units into this many shards on the worker "
                                       "pool (default: one unit per shard when "
                                       "--workers > 1); bit-identical to the "
                                       "serial path")
        universe_run.add_argument("--progress", action="store_true",
                                  help="with --workers > 1 or --shards: print a "
                                       "periodic live status line to stderr "
                                       "(shards done/total, ETA from shard "
                                       "history, per-worker heartbeat age)")


def _configure_scenario(scen: argparse.ArgumentParser) -> None:
    from repro.experiments.scenarios import SCENARIOS

    _add_named_run_arguments(scen, sorted(SCENARIOS))


def _configure_net(net: argparse.ArgumentParser) -> None:
    from repro.net.library import topology_names

    net_sub = net.add_subparsers(dest="net_command", required=True)
    net_ls = net_sub.add_parser("ls", help="list the named network topologies")
    net_ls.add_argument("--json", action="store_true")
    net_show = net_sub.add_parser("show", help="print one topology's full model")
    net_show.add_argument("name", choices=topology_names())
    net_show.add_argument("--json", action="store_true")


def _configure_trace(trace: argparse.ArgumentParser) -> None:
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_overlay = trace_sub.add_parser(
        "overlay", help="generate a synthetic overlay trace file"
    )
    trace_overlay.add_argument("path", help="output file path")
    trace_overlay.add_argument("--n-nodes", type=int, default=1000)
    trace_overlay.add_argument("--seed", type=int, default=0)
    trace_overlay.add_argument("--mean-degree", type=float, default=2.0)
    trace_run = trace_sub.add_parser(
        "run",
        help="run one instrumented simulation and write a Chrome "
             "trace-event file (chrome://tracing / ui.perfetto.dev)",
    )
    trace_run.add_argument("--out", default="trace.json",
                           help="Chrome trace-event output path "
                                "(default: ./trace.json)")
    _add_session_arguments(trace_run)


def _configure_probe(probe: argparse.ArgumentParser) -> None:
    _add_session_arguments(probe)
    probe.add_argument("--peer", type=int, default=None, metavar="ID",
                       help="print this peer's segment-lifecycle timeline "
                            "instead of the swarm overview")
    probe.add_argument("--seg", type=int, default=None, metavar="ID",
                       help="restrict the --peer timeline to one segment id")
    probe.add_argument("--last", type=_positive_int, default=40, metavar="N",
                       help="timeline events to print (newest last, default 40)")


def _configure_report(report: argparse.ArgumentParser) -> None:
    report.add_argument("--out", default="report",
                        help="output directory for report.html and data/ "
                             "(default: ./report)")
    report.add_argument("--title", default="Reproduction report")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--sizes", type=_positive_int, nargs="+", default=None,
                        help="overlay sizes for the sweep figures "
                             "(default: the generators' reduced sizes)")
    report.add_argument("--n-nodes", type=_positive_int, default=None,
                        help="overlay size for the ratio-track figures")
    report.add_argument("--repetitions", type=_positive_int, default=1)
    report.add_argument("--workers", type=_positive_int, default=1)
    report.add_argument("--universe", default=None,
                        help="restrict the universe figures to one named "
                             "universe (default: all stored universes)")
    report.add_argument("--from-store", action="store_true",
                        help="replay-only: forbid simulation, skip figures "
                             "whose results are not stored")
    report.add_argument("--json", action="store_true",
                        help="print the report summary as JSON")
    _add_store_arguments(report)


def _table(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Rows as a fixed-width text table (:func:`repro.metrics.report.format_table`)."""
    from repro.metrics.report import format_table

    return format_table(rows, columns)


def _emit_rows(args: argparse.Namespace, rows: Sequence[dict], empty: Optional[str] = None) -> int:
    """What an ``ls`` command prints: the rows as JSON (``--json``) or as a table."""
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(empty if empty is not None and not rows else _table(rows))
    return 0


def _session_config(args: argparse.Namespace, **kwargs):
    """The one-session configuration ``run``, ``compare``, ``probe`` and ``trace run`` build."""
    from repro.experiments.config import make_session_config

    return make_session_config(
        args.n_nodes,
        seed=args.seed,
        dynamic=args.dynamic,
        max_time=args.max_time,
        topology=args.topology or "",
        **({"engine": args.engine} if args.engine else {}),
        **kwargs,
    )


def _metrics_rows(result) -> List[dict]:
    metrics = result.metrics
    return [
        {"metric": "algorithm", "value": metrics.algorithm},
        {"metric": "tracked peers", "value": metrics.n_peers},
        {"metric": "avg finishing time of S1 (s)", "value": round(metrics.avg_finish_old, 3)},
        {"metric": "avg preparing time of S2 (s)", "value": round(metrics.avg_prepare_new, 3)},
        {"metric": "avg switch time (s)", "value": round(metrics.avg_switch_time, 3)},
        {"metric": "avg playback start of S2 (s)", "value": round(metrics.avg_start_time, 3)},
        {"metric": "last prepare time (s)", "value": round(metrics.last_prepare_new, 3)},
        {"metric": "unfinished peers", "value": metrics.unfinished},
        {"metric": "communication overhead", "value": round(result.overhead_ratio, 5)},
        {"metric": "rounds simulated", "value": result.n_rounds},
        {"metric": "wallclock (s)", "value": round(result.wallclock_seconds, 2)},
    ]


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.figures.registry import generate_figure

    store = _resolve_store(args, replay_only=args.from_store, required=args.from_store)
    # One uniform set: the figure takes the parameters its builder names.
    result = generate_figure(
        args.number, store=store, seed=args.seed, paper_scale=args.paper_scale,
        sizes=args.sizes, n_nodes=args.n_nodes, repetitions=args.repetitions,
        workers=args.workers,
    )
    if args.json:
        print(json.dumps({
            "figure": result.figure_id,
            "title": result.title,
            "meta": result.meta,
            "rows": result.rows,
            "series": result.series,
        }, indent=2, default=str))
    else:
        print(result.to_text())
        if getattr(args, "chart", False) and result.series:
            from repro.analysis.charts import ascii_line_chart

            print()
            print(ascii_line_chart(result.series, title=f"Figure {result.figure_id}: "
                                                        f"{result.title}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.config import sweep_sizes
    from repro.experiments.sweeps import run_size_sweep

    store = _resolve_store(args)
    sizes = args.sizes if args.sizes else list(sweep_sizes(paper_scale=args.paper_scale))
    overrides: dict = {}
    if args.max_time is not None:
        overrides["max_time"] = args.max_time
    sweep = run_size_sweep(
        sizes,
        dynamic=args.dynamic,
        seed=args.seed,
        repetitions=args.repetitions,
        overrides=overrides,
        workers=args.workers,
        store=store,
    )
    if args.json:
        print(json.dumps({
            "sizes": sizes,
            "dynamic": sweep.dynamic,
            "seed": sweep.seed,
            "repetitions": args.repetitions,
            "workers": args.workers,
            "results_dir": str(store.root) if store is not None else None,
            "rows": sweep.rows(),
        }, indent=2))
    else:
        print(_table(sweep.rows()))
        if store is not None:
            print(f"\nresults persisted under {store.root}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = _resolve_store(args, required=True, existing=True)
    if args.store_command == "ls":
        from repro.records import to_json

        kind = "pair" if args.kind == "run" else args.kind
        entries = store.entries(kind=kind, limit=args.limit)
        return _emit_rows(args, [to_json(entry) for entry in entries],
                          empty=f"(store at {store.root} is empty)")
    if args.store_command == "migrate":
        from repro.experiments.store import migrate_store, open_store

        dest_dir = args.dest_dir if args.dest_dir else store.root
        dest = open_store(dest_dir, backend=args.to_backend)
        if dest.backend == store.backend and Path(dest.root) == Path(store.root):
            print("error: source and destination are the same store; "
                  "pass --to with a different backend or --dest-dir",
                  file=sys.stderr)
            return 1
        migrated = migrate_store(store, dest)
        print(f"migrated {migrated} document(s) from {store.backend}:{store.root} "
              f"to {dest.backend}:{dest.root}")
    else:  # clear
        removed = store.clear()
        print(f"removed {removed} stored result(s) from {store.root}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_single

    result = run_single(_session_config(args, algorithm=args.algorithm))
    rows = _metrics_rows(result)
    if args.topology:
        from repro.metrics.net import fabric_stats_rows

        rows.extend(fabric_stats_rows(result.fabric_stats))
    if args.json:
        print(json.dumps({row["metric"]: row["value"] for row in rows}, indent=2))
    else:
        print(_table(rows, ["metric", "value"]))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_pair
    from repro.records import to_json

    pair = run_pair(_session_config(args))
    row = to_json(pair.comparison())
    region_rows = []
    if args.topology:
        from repro.metrics.net import region_comparison_rows

        region_rows = region_comparison_rows(
            pair.normal.metrics.outcomes,
            pair.fast.metrics.outcomes,
            horizon=pair.normal.metrics.horizon,
        )
    if args.json:
        payload = dict(row)
        if args.topology:
            payload["topology"] = args.topology
            payload["regions"] = region_rows
        print(json.dumps(payload, indent=2))
    else:
        print(_table([row]))
        if region_rows:
            print(f"\nper-region switch time over {args.topology!r}:")
            print(_table(region_rows))
        print(f"\nswitch-time reduction: {pair.switch_time_reduction:.1%}")
    return 0


def _cmd_net(args: argparse.Namespace) -> int:
    from repro.net.library import TOPOLOGIES, get_topology

    if args.net_command == "ls":
        rows = [
            {
                "name": topology.name,
                "regions": ",".join(topology.region_names),
                "max_latency_ms": topology.max_latency_ms,
                "lossy": topology.lossy,
                "locality_bias": topology.locality_bias,
                "description": topology.description,
            }
            for _, topology in sorted(TOPOLOGIES.items())
        ]
        return _emit_rows(args, rows)
    topology = get_topology(args.name)
    if args.json:
        from repro.records import to_json

        print(json.dumps(to_json(topology), indent=2))
        return 0
    print(f"topology: {topology.name} -- {topology.description}")
    print(f"locality_bias: {topology.locality_bias}")
    print()
    region_rows = [
        {
            "region": region.name,
            "weight": region.weight,
            "last_mile_ms": region.last_mile_ms,
            "jitter_ms": region.jitter_ms,
            "loss": region.loss,
        }
        for region in topology.regions
    ]
    print(_table(region_rows))
    print()
    print("one-way backbone latency matrix (ms):")
    matrix_rows = [
        {"from/to": src.name, **{dst.name: topology.latency_ms[i][j]
                                 for j, dst in enumerate(topology.regions)}}
        for i, src in enumerate(topology.regions)
    ]
    print(_table(matrix_rows))
    return 0


def _workload_payload(result: WorkloadResult, *, compare_only: bool) -> dict:
    """Machine-readable form of a workload run (the ``--json`` output).

    ``compare_only`` (``workload compare --json``) strips it down to what a
    harness consumes: the paired per-switch rows and the mean reduction.
    """
    payload = {
        "workload": result.spec.name,
        "n_nodes": result.spec.n_nodes,
        "n_switches": result.spec.n_switches,
        "seed": result.seed,
        "repetitions": result.repetitions,
        "simulated": result.simulated,
        "replayed": result.replayed,
        "mean_reduction": result.mean_reduction,
        "switch_rows": result.switch_rows(),
    }
    if compare_only:
        return {key: value for key, value in payload.items()
                if key not in ("n_switches", "simulated", "replayed")}
    return {**payload, "class_rows": result.class_rows(), "phase_rows": result.phase_rows()}


def _print_workload_result(result: WorkloadResult, *, compare_only: bool) -> None:
    spec = result.spec
    print(f"workload: {spec.name} -- {spec.description}")
    print(
        f"n_nodes={spec.n_nodes} switches={spec.n_switches} "
        f"phases={len(spec.phases)} repetitions={result.repetitions} "
        f"(simulated {result.simulated}, replayed {result.replayed})"
    )
    print()
    print(_table(result.switch_rows()))
    if not compare_only:
        class_rows = result.class_rows()
        if class_rows:
            print()
            print("per-class switch-time percentiles (s):")
            print(_table(class_rows))
        print()
        print("per-phase playback quality (fast algorithm):")
        print(_table(result.phase_rows()))
    print(f"\nmean switch-time reduction: {result.mean_reduction:.1%}")


def _named_run(
    args: argparse.Namespace,
    run: Callable[[Optional[BaseResultStore]], object],
    payload: Callable[..., dict],
    show: Callable[..., None],
) -> int:
    """The handler skeleton of ``workload run|compare``, ``universe run|compare``
    and ``scenario``: resolve the store, ``run(store)`` (which scales the
    named spec and runs it), then print the result's ``payload`` as JSON or
    ``show`` it and say where it persisted."""
    store = _resolve_store(args, replay_only=args.from_store, required=args.from_store)
    result = run(store)
    if args.json:
        print(json.dumps(payload(result, compare_only=args.compare), indent=2))
    else:
        show(result, compare_only=args.compare)
        if store is not None:
            print(f"results persisted under {store.root}")
    return 0


def _run_workload_spec(spec: WorkloadSpec, args: argparse.Namespace) -> int:
    """Shared execution path of ``workload run|compare`` and ``scenario``."""
    from repro.workloads.runner import run_workload

    def run(store: Optional[BaseResultStore]) -> WorkloadResult:
        scaled = spec
        if getattr(args, "n_nodes", None) is not None:
            scaled = scaled.scaled_to(args.n_nodes)
        if args.topology:
            scaled = scaled.with_overrides(topology=args.topology)
        return run_workload(scaled, seed=args.seed, repetitions=args.repetitions,
                            workers=args.workers, store=store, engine=args.engine)

    return _named_run(args, run, _workload_payload, _print_workload_result)


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads.library import WORKLOADS, get_workload

    if args.workload_command == "ls":
        rows = [
            {
                "name": spec.name,
                "n_nodes": spec.n_nodes,
                "switches": spec.n_switches,
                "phases": " -> ".join(phase.name for phase in spec.phases),
                "classes": ",".join(cls.name for cls in spec.peer_classes) or "-",
                "duration_s": spec.total_duration,
            }
            for _, spec in sorted(WORKLOADS.items())
        ]
        return _emit_rows(args, rows)
    if args.workload_command == "compare":
        args.compare = True
    return _run_workload_spec(get_workload(args.name), args)


def _universe_payload(result: UniverseResult, *, compare_only: bool) -> dict:
    """Machine-readable form of a universe run (the ``--json`` output)."""
    payload = {
        "universe": result.spec.name,
        "n_channels": result.spec.n_channels,
        "n_viewers": result.spec.n_viewers,
        "topology": result.spec.topology,
        "seed": result.seed,
        "repetitions": result.repetitions,
        "simulated": result.simulated,
        "replayed": result.replayed,
        "n_zaps": result.n_zaps,
        "mean_reduction": result.mean_reduction,
        "decile_rows": result.decile_rows(),
    }
    if not compare_only:
        payload["channel_rows"] = result.channel_rows()
    return payload


def _print_universe_result(result: UniverseResult, *, compare_only: bool) -> None:
    spec = result.spec
    print(f"universe: {spec.name} -- {spec.description}")
    if spec.topology:
        print(f"topology: {spec.topology}")
    print(
        f"channels={spec.n_channels} viewers={spec.n_viewers} "
        f"zipf_exponent={spec.zipf_exponent} horizon={spec.horizon:.0f}s "
        f"repetitions={result.repetitions} "
        f"(simulated {result.simulated}, replayed {result.replayed}) "
        f"zaps={result.n_zaps}"
    )
    print()
    if not compare_only:
        print(_table(result.channel_rows()))
        print()
        print("per-popularity-decile zap time (s):")
    print(_table(result.decile_rows()))
    print(f"\nmean zap-time reduction: {result.mean_reduction:.1%}")


def _cmd_universe(args: argparse.Namespace) -> int:
    from repro.channels.runner import run_universe
    from repro.workloads.library import UNIVERSES, get_universe

    if args.universe_command == "ls":
        rows = [
            {
                "name": spec.name,
                "channels": spec.n_channels,
                "viewers": spec.n_viewers,
                "zipf_exponent": spec.zipf_exponent,
                "surfers": f"{spec.surfer_fraction:.0%}@{spec.surfer_zap_rate:.0%}/period",
                "topology": spec.topology or "-",
                "duration_s": spec.duration,
            }
            for _, spec in sorted(UNIVERSES.items())
        ]
        return _emit_rows(args, rows)
    if args.universe_command == "compare":
        args.compare = True

    def run(store: Optional[BaseResultStore]) -> UniverseResult:
        spec = get_universe(args.name)
        if args.channels is not None or args.viewers is not None:
            spec = spec.scaled_to(n_channels=args.channels, n_viewers=args.viewers)
        if args.topology:
            spec = spec.with_topology(args.topology)
        return run_universe(spec, seed=args.seed, repetitions=args.repetitions,
                            workers=args.workers, store=store, compute_engine=args.engine,
                            shards=args.shards, progress=args.progress)

    return _named_run(args, run, _universe_payload, _print_universe_result)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import SCENARIOS

    scenario = SCENARIOS[args.name]
    _LOG.info("scenario: %s -- %s", scenario.name, scenario.description)
    return _run_workload_spec(scenario.spec(), args)


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_single
    from repro.obs.telemetry import telemetry_session
    from repro.streaming.protocol import STAGE_WIRE_BITS

    with telemetry_session(probes=True) as telemetry:
        run_single(_session_config(args, algorithm=args.algorithm))
    probes = telemetry.probes
    lifecycle = probes.lifecycle
    if args.json:
        payload = probes.snapshot()
        if args.peer is not None:
            payload["timeline"] = lifecycle.rows(peer=args.peer, seg=args.seg)
        print(json.dumps(payload, indent=2))
        return 0
    if args.peer is not None:
        events = lifecycle.rows(peer=args.peer, seg=args.seg)
        if not events:
            print(f"(no lifecycle events recorded for peer {args.peer})")
            return 0
        shown = events[-args.last:]
        print(f"segment lifecycle of peer {args.peer} "
              f"({len(shown)} of {len(events)} events, newest last):")
        print(_table([
            {
                "t_sim": f"{event['time']:.2f}",
                "period": event["period"],
                "seg": event["seg"],
                "stage": event["stage"],
                "supplier": event["supplier"] if event["supplier"] >= 0 else "-",
                "value": round(event["value"], 4),
                "wire_bits": STAGE_WIRE_BITS.get(event["stage"], 0),
            }
            for event in shown
        ]))
        return 0
    print("segment lifecycle:")
    print(_table([
        {"stage": stage, "events": count}
        for stage, count in lifecycle.stage_counts().items()
    ]))
    drops = lifecycle.drop_reason_counts()
    if drops:
        print("\ndrop reasons:")
        print(_table([
            {"reason": reason, "drops": count} for reason, count in drops.items()
        ]))
    print("\nstartup funnel:")
    print(_table(probes.funnel.funnel_rows()))
    health = probes.health.rows()
    if health:
        step = max(1, len(health) // 12)
        print("\nswarm health (every "
              f"{step}{'st' if step == 1 else 'th'} period):")
        print(_table([
            {
                "t_sim": f"{row['time']:.1f}",
                "peers": row["peers"],
                "fill_p50": row["fill_p50"],
                "fill_p90": row["fill_p90"],
                "pending": row["pending"],
                "util": row["utilisation"],
                "requests": row["requests"],
                "failed": row["failed"],
                "delivered": row["delivered"],
            }
            for row in health[::step]
        ]))
    if lifecycle.dropped:
        print(f"warning: lifecycle ring buffer overflowed; "
              f"{lifecycle.dropped} events were dropped "
              f"(first {len(lifecycle)} kept)", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.figures import render_report

    store = _resolve_store(args, replay_only=args.from_store, required=True,
                           existing=args.from_store)
    summary = render_report(
        store,
        args.out,
        title=args.title,
        seed=args.seed,
        sizes=args.sizes,
        n_nodes=args.n_nodes,
        repetitions=args.repetitions,
        workers=args.workers,
        universe=args.universe,
    )
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"wrote {summary.html_path} "
          f"({len(summary.rendered)} figures rendered, "
          f"{len(summary.skipped)} skipped)")
    for name, reason in summary.skipped.items():
        print(f"  skipped {name}: {reason}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "run":
        return _cmd_trace_run(args)
    from repro.overlay.generator import generate_trace
    from repro.overlay.trace import write_trace

    records = generate_trace(args.n_nodes, seed=args.seed, mean_degree=args.mean_degree)
    write_trace(records, args.path,
                header=f"synthetic trace: n={args.n_nodes} seed={args.seed}")
    print(f"wrote {len(records)} records to {args.path}")
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_single
    from repro.obs.export import write_chrome_trace
    from repro.obs.telemetry import telemetry_session

    with telemetry_session() as telemetry:
        run_single(_session_config(args, algorithm=args.algorithm))
    identity = {
        "kind": "run",
        "name": f"trace-{args.algorithm}",
        "n_nodes": args.n_nodes,
        "seed": args.seed,
    }
    write_chrome_trace(telemetry, args.out, run=identity)
    _warn_trace_overflow(telemetry)
    stats = telemetry.tracer.span_stats()
    n_events = len(telemetry.tracer.events())
    if args.json:
        print(json.dumps({
            "out": str(args.out),
            "events": n_events,
            "spans": stats,
            "counters": telemetry.registry.snapshot()["counters"],
        }, indent=2))
        return 0
    rows = [
        {
            "span": name,
            "count": stat["count"],
            "total_s": round(stat["total_s"], 4),
            "mean_ms": round(stat["mean_s"] * 1e3, 3),
            "p95_ms": round(stat["p95_s"] * 1e3, 3),
        }
        for name, stat in stats.items()
    ]
    print(_table(rows))
    print(f"\nwrote {n_events} trace events to {args.out}")
    return 0


def _warn_trace_overflow(telemetry) -> None:
    """One-line stderr warning when the Tracer ring buffer overflowed.

    The dropped count is otherwise only visible inside the exported
    document; a truncated trace silently missing its tail is the kind of
    thing worth one loud line.
    """
    dropped = getattr(getattr(telemetry, "tracer", None), "dropped", 0)
    if dropped:
        kept = len(telemetry.tracer.events())
        print(f"warning: trace ring buffer overflowed; {dropped} events were "
              f"dropped (first {kept} kept -- raise the buffer via "
              f"telemetry_session(max_trace_events=...))", file=sys.stderr)


class _Command(NamedTuple):
    """One sub-command: its ``--help`` line, its arguments and what runs it."""

    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]


#: The one table of sub-commands, in ``--help`` order.  ``configure`` and
#: ``handler`` import what they need when they are called, so a command
#: line pays for the command it names and for no other.
_COMMANDS: Dict[str, _Command] = {
    "figure": _Command("regenerate a paper figure's data", _configure_figure, _cmd_figure),
    "sweep": _Command("run a paired fast-vs-normal size sweep (Figures 6-8/10-12 workload)",
                      _configure_sweep, _cmd_sweep),
    "store": _Command("inspect, empty or migrate the persistent result store",
                      _configure_store, _cmd_store),
    "run": _Command("run a single simulation", _configure_run, _cmd_run),
    "compare": _Command("paired fast-vs-normal comparison", _configure_compare, _cmd_compare),
    "workload": _Command("list or run the time-scripted workloads",
                         _configure_workload, _cmd_workload),
    "universe": _Command("list or run the multi-channel zapping universes",
                         _configure_universe, _cmd_universe),
    "scenario": _Command("run a named example scenario", _configure_scenario, _cmd_scenario),
    "net": _Command("inspect the network-topology library", _configure_net, _cmd_net),
    "trace": _Command("overlay trace files and run-telemetry traces",
                      _configure_trace, _cmd_trace),
    "probe": _Command("run one probed simulation and inspect the sim-time protocol "
                      "probes (segment lifecycle, swarm health, startup funnel)",
                      _configure_probe, _cmd_probe),
    "report": _Command("render every registered figure from a results store into one "
                       "self-contained HTML report", _configure_report, _cmd_report),
}


def _make_parser(configured: Collection[str]) -> argparse.ArgumentParser:
    """The top-level parser; only the ``configured`` commands get their arguments.

    Every command is registered by name and help line, so ``--help`` and the
    "invalid choice" message do not depend on ``configured``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-gossip",
        description=(
            "Reproduction of 'Fast Source Switching for Gossip-based "
            "Peer-to-Peer Streaming' (ICPP 2008)"
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    parser.add_argument("--log-level", choices=_LOG_LEVELS, default="warning",
                        help="stdlib logging level for the repro.* loggers "
                             "on stderr (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        if name in configured:
            command.configure(subparser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Construct the full argument parser (exposed for tests and docs)."""
    return _make_parser(_COMMANDS)


def _parser_for(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser :func:`main` reads ``argv`` with: only the command it names is configured.

    The command is the first word of ``argv`` that is a command name: what
    may precede it are the global options, and no value of theirs is one.
    """
    return _make_parser([arg for arg in argv if arg in _COMMANDS][:1])


def _run_identity(args: argparse.Namespace) -> dict:
    """The run-identity payload ``telemetry-*`` documents are keyed by.

    Identity, not content: two invocations with the same command line map
    to the same telemetry key, so a re-run refreshes its document in
    place instead of accumulating one per execution.
    """
    identity = {
        "kind": args.command,
        "name": getattr(args, "name", None) or args.command,
    }
    for key in ("workload_command", "universe_command", "algorithm", "engine",
                "topology", "n_nodes", "channels", "viewers", "seed",
                "repetitions", "workers", "shards", "dynamic"):
        value = getattr(args, key, None)
        if value is not None and value is not False:
            identity[key] = value
    return identity


def _export_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Persist/export one enabled run's telemetry (after a clean exit)."""
    from repro.experiments.store import persist_telemetry_document
    from repro.obs.export import write_chrome_trace

    identity = _run_identity(args)
    _warn_trace_overflow(telemetry)
    if getattr(args, "trace_out", None):
        write_chrome_trace(telemetry, args.trace_out, run=identity)
        _LOG.info("wrote Chrome trace to %s", args.trace_out)
    if getattr(args, "from_store", False):
        return  # replay-only invocations never write to the store
    store = _resolve_store(args) if hasattr(args, "results_dir") else None
    if store is not None:
        key = persist_telemetry_document(store, run=identity, telemetry=telemetry)
        _LOG.info("telemetry persisted as %s", key)


def _run(argv: Sequence[str]) -> int:
    """Parse ``argv`` and run the command it names (under telemetry if asked)."""
    args = _parser_for(argv).parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    handler = _COMMANDS[args.command].handler
    probes_on = bool(getattr(args, "probes", False))
    telemetry_on = bool(
        getattr(args, "telemetry", False)
        or getattr(args, "trace_out", None)
        or probes_on
    )
    try:
        if not telemetry_on:
            return handler(args)
        from repro.obs.telemetry import telemetry_session

        with telemetry_session(probes=probes_on) as telemetry:
            code = handler(args)
    except (KeyError, ValueError) as error:
        from repro.experiments.store import MissingResultError

        # User input, not a bug: a replay-only miss, or a spec or size the
        # simulator rejects (an overlay too small for the minimum degree,
        # too few viewers for the lineup).
        if not isinstance(error, (MissingResultError, ValueError)):
            raise
        _LOG.debug("%s failed", args.command, exc_info=True)
        print(f"error: {error}", file=sys.stderr)
        return 1
    if code == 0:
        _export_telemetry(args, telemetry)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        try:
            return _run(sys.argv[1:] if argv is None else list(argv))
        finally:
            sys.stdout.flush()  # a closed pipe must surface here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away (``repro ... | head``).  Python flushes stdout
        # again at exit: point it at devnull so that flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
