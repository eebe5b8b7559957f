"""Structural fences: one table of ``rule -> pattern -> paths -> allowed count``.

Each row counts the lines of the files under ``paths`` that match
``pattern`` (``re.search``, line by line, like ``grep -E``) and compares the
count with ``allowed``.  ``paths`` are globs relative to the repository
root; one starting with ``!`` takes files back out.  Rules about *loaded
modules* rather than source text live next door, in
``tests/test_import_fences.py``.

A pattern that names something deleted is spelled with one bracketed letter
(``NAM[E]``) wherever this file is itself among the files searched.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

_SRC = "src/repro/**/*.py"
_SESSION = "src/repro/streaming/session.py"
_HOT_MODULES = tuple(
    f"src/repro/{module}"
    for module in ("core/vector.py", "net/fabric.py", "net/link.py", "streaming/peer.py")
)
_DEFERRED_IMPORT = r"^\s+(from \S+ import|import \S+)"
#: The 13 modules that simulate (tier 2) and so import NumPy at module level.
_NUMPY_MODULES = (
    "analysis/stats.py", "channels/directory.py", "channels/lineup.py", "channels/universe.py",
    "channels/zapping.py", "core/vector.py", "net/fabric.py", "net/link.py",
    "overlay/augment.py", "overlay/generator.py", "overlay/membership.py", "sim/rng.py",
    "streaming/session.py",
)

#: (rule, pattern, paths, allowed count)
FENCES: Tuple[Tuple[str, str, Tuple[str, ...], int], ...] = (
    # Imports follow use: the CLI imports the standard library only, every
    # command imports what it runs; imports are deferred at command and run
    # boundaries, never per period or per message (in the session exactly
    # two: TYPE_CHECKING, the decider in __init__); dist/pool.py is the only
    # process starter; nothing imports networkx, not even a test.
    ("cli-imports-stdlib-only",
     r"^(from|import) repro", ("src/repro/cli.py",), 0),
    ("no-deferred-import-in-hot-modules", _DEFERRED_IMPORT, _HOT_MODULES, 0),
    ("session-defers-two-imports", _DEFERRED_IMPORT, (_SESSION,), 2),
    ("one-process-starter",
     r"^\s*(import|from)\s.*\b(concurrent|multiprocessing)\b",
     (_SRC, "!src/repro/dist/pool.py"), 0),
    ("no-networkx", r"^\s*(import|from)\s+networ[k]x\b", ("src/**/*.py", "tests/**/*.py"), 0),
    # A module imports NumPy at module level only if it simulates: the
    # records, the store and the figures a replay loads run on the standard
    # library (tests/test_import_fences.py, tier 1).
    ("numpy-at-module-level-only-where-it-simulates", r"^(import|from)\s+numpy\b",
     (_SRC, *(f"!src/repro/{module}" for module in _NUMPY_MODULES)), 0),
    # One door per job: the store is a key -> document map; replay_or_execute
    # alone refuses a replay-only miss and persists a run's net-* document;
    # the by-number figure table, the CLI's copy of FigureSpec.kind, the
    # paper-scale variable and the legacy benchmark suite stay deleted.
    ("no-typed-store-method",
     r"def (save|load)_(pair|sweep|workload|universe|net|telemetry)\b", (_SRC,), 0),
    ("one-replay-loop",
     r"\.missing\(|persist_net_document\(", (_SRC, "!src/repro/experiments/store.py"), 0),
    ("deleted-doors-stay-deleted",
     r"FIGURE_GENERATOR[S]|_SWEEP_FIGURE[S]|REPRO_PAPER_SCAL[E]|benchmark[s]/",
     ("src/**/*", "tests/**/*", ".github/**/*", "pyproject.toml"), 0),
    # The engine a command runs on without --engine is DEFAULT_ENGINE and
    # nothing else: no second literal default in a dataclass field, a
    # getattr fallback or a help text.
    ("default-engine-defined-once", r"^DEFAULT_ENGINE\b[^=]*=", (_SRC,), 1),
    ("default-engine-is-a-literal",
     r'^DEFAULT_ENGINE: str = "(oracle|vector)"$', ("src/repro/streaming/config.py",), 1),
    ("no-second-default-engine-literal",
     r'engine: str = "|"engine", *"(oracle|vector)"|default: (oracle|vector)', (_SRC,), 0),
    # One period pipeline: the control-plane draw (the RNG-order-sensitive
    # step of the decide phase) lives in SwitchSession.pull_neighbours;
    # delayed deliveries wait on the arrival calendar; the engine picks a
    # decider inside the one SwitchSession class.
    ("one-neighbour-walk",
     r"control_transfer\(", ("src/repro/streaming/*.py", "src/repro/core/*.py"), 1),
    ("no-per-message-engine-event", r"schedule_in\(|partial\(", (_SESSION,), 0),
    ("no-session-new", r"__new__", (_SESSION,), 0),
    ("no-session-subclass", r"class .*\(SwitchSession\)", (_SRC,), 0),
    # Requests are rows: on the array engine a request never becomes an
    # object, the two classes stay the output of the scalar algorithms (the
    # oracle flattens them into the same rows), and the partner scan builds
    # one exclusion set instead of asking the overlay once per alive node.
    ("vector-builds-no-request-object",
     r"SegmentRequest|ScheduleDecision\(|object\.__new__", ("src/repro/core/vector.py",), 0),
    ("request-objects-come-from-the-algorithms",
     r"(SegmentRequest|ScheduleDecision)\(",
     (_SRC, "!src/repro/core/base.py", "!src/repro/core/fast_switch.py",
      "!src/repro/core/normal_switch.py"), 0),
    ("no-request-object-helpers", r"_new_request|_priority_order", ("src/**/*.py",), 0),
    ("partner-scan-asks-no-edge", r"has_edge\(", ("src/repro/overlay/membership.py",), 0),
    # A session is a loop over periods: SwitchSession.step runs one, there
    # is no event engine to build, share or hand around, and run() is the
    # one way to a SessionResult.  The engine a session runs on is one
    # branch on config.engine (which decider it builds), and time moves at
    # two sites, both in step(): the switch announcement at 0 and the period.
    ("one-engine-constructor", r"if .*\bengine == \"", (_SRC,), 1),
    ("two-engine-schedule-sites", r"^\s+self\.now = (?!float\()", (_SESSION,), 2),
    ("no-event-engine",
     r"SimulationEngin[e]|EventQueu[e]|PeriodicProces[s]|StopSimulatio[n]",
     ("src/**/*.py", "tests/**/*.py"), 0),
    ("no-shared-engine-mode", r"_owns_engine|UniverseSession", (_SRC,), 0),
    ("session-takes-no-engine", r"^\s+engine: ", (_SESSION,), 0),
    ("finalize-is-private", r"\._?finalize\(", (_SRC, f"!{_SESSION}"), 0),
    # A buffer is a bitmap, an order array and an index row: no per-segment
    # Python objects, and on the array engine one copy -- the buffer writes
    # the matrix the kernel reads, nothing is queued, mirrored or flushed.
    ("buffer-holds-no-deque", r"\bdeque\b", ("src/repro/streaming/buffer.py",), 0),
    ("no-insert-index-dict", r"_insert_index", (_SRC,), 0),
    ("vector-keeps-no-second-copy", r"\bpending\b|\bpresent\b|def flush",
     ("src/repro/core/vector.py",), 0),
    # Pay for what can move: the decider gathers each peer's own id ranges
    # (no peers x id-span grid) and never hands supplier-less candidates
    # around; a partner draw cuts neighbours out of the sorted alive-id array
    # (the overlay's id list is read only to build it and to repair
    # everyone) and weights it without NumPy's checked weighted choice.
    ("decider-walks-supplied-candidates", r"np\.nonzero\(missing\)|_spread\(",
     ("src/repro/core/vector.py",), 0),
    ("membership-reads-the-id-list-twice", r"\.node_ids\b", ("src/repro/overlay/membership.py",), 2),
    ("no-checked-weighted-choice", r"replace=False, p=", ("src/repro/overlay/membership.py",), 0),
    # The paper's two schedulers and nothing else: Eq. 9 priorities, a
    # work-conserving fast algorithm, a baseline that reserves min(I, Q1)
    # for S1, and peers built by config.make_algorithm() -- no knob, factory
    # or sensitivity switch that only a test would turn.  A buffer is FIFO:
    # eviction is its only removal path, so a position is counter + 1 - index.
    ("no-ablation-knobs",
     r"PriorityPolic[y]|work_conservin[g]|opportunistic_leftove[r]|algorithm_factor[y]"
     r"|include_request[s]",
     ("src/**/*.py", "tests/**/*.py"), 0),
    ("buffer-is-fifo", r"_discard[s]|def discar[d]",
     ("src/repro/streaming/buffer.py", "src/repro/core/vector.py"), 0),
    # A run is a function: sweeps, workloads and universes are each one
    # run_* function over the one WorkerPool, not a class that only holds
    # its arguments.  The figures are one literal table of rows: nothing
    # registers a figure and a row carries no kind.
    ("no-runner-classes", r"class \w*Runne[r]\b", (_SRC,), 0),
    ("one-figure-table", r"register_figur[e]|register_\w+_figure[s]|FIGURE_KIND[S]",
     ("src/**/*.py", "tests/**/*.py"), 0),
    # A record is its dataclass: repro.records is the one JSON codec.  The
    # 14 codecs left are config_to_dict and session_result_to_dict (they
    # strip the engine), the two spec methods of WorkloadSpec and
    # UniverseSpec (the overrides stay a dict), the four sketch and three
    # aggregate codecs (inf as null, int decile keys as strings) and
    # ReportSummary.to_dict.
    ("one-record-codec", r"asdict\(|def \w*(to|from)_dict\b", (_SRC,), 14),
    # Say each rule once: the switch-time summary (horizon fill, sort, mean,
    # p50/p90/p99) is metrics.collectors.switch_time_stats, whose one
    # percentile call serves every channel, class and region table; the
    # paper's Section 5.1 parameters are SessionConfig's defaults, with no
    # second parameter object beside them.
    ("one-switch-time-summary",
     r"np\.percentile\(|ExperimentDefault[s]|PAPER_DEFAULT[S]", (_SRC,), 1),
)


def _files(paths: Tuple[str, ...]) -> List[Path]:
    taken = {p for glob in paths if glob.startswith("!") for p in ROOT.glob(glob[1:])}
    found = {p for glob in paths if not glob.startswith("!") for p in ROOT.glob(glob)}
    return sorted(p for p in found - taken if p.is_file() and p.suffix != ".pyc")


@pytest.mark.parametrize("rule,pattern,paths,allowed", FENCES, ids=[row[0] for row in FENCES])
def test_fence(rule, pattern, paths, allowed):
    files = _files(paths)
    assert files, f"no file under {paths}"
    matcher = re.compile(pattern)
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line}"
        for path in files
        for number, line in enumerate(
            path.read_text(encoding="utf-8", errors="replace").splitlines(), start=1
        )
        if matcher.search(line)
    ]
    assert len(hits) == allowed, "\n".join([f"{rule}: {len(hits)} lines, {allowed} allowed", *hits])
