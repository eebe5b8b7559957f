#!/usr/bin/env python3
"""Which ``src/repro`` lines the product's entry points run, and which only the tests run.

    python tools/reach.py record entry DATA   # every CLI command, figure, example, bench smoke
    python tools/reach.py record tests DATA   # pytest -q
    python tools/reach.py report DATA         # unreached lines per def: tests only / neither

Standard library only.  An injected ``sitecustomize`` traces every Python process the
suite starts, and forked pool workers write their lines from a ``multiprocessing``
after-fork finaliser, to ``DATA/<suite>/<pid>-*.json``.  A function stops being traced
once all its lines ran; still, a traced run takes tens of minutes: a one-off tool, not CI.
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
from multiprocessing import util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def code_lines(code):
    """Executable lines of ``code`` itself; a function's ``def`` line fires no line event."""
    lines = {line for *_, line in code.co_lines() if line}
    if code.co_flags & 0x1:  # CO_OPTIMIZED: a function body
        lines.discard(code.co_firstlineno)
    return lines


def nested(code):
    return [code, *(n for c in code.co_consts if hasattr(c, "co_lines") for n in nested(c))]


def start() -> None:
    """Trace this process (called from the injected ``sitecustomize``)."""
    out, prefix, left = os.environ["REACH_OUT"], str(SRC), {}

    def local(frame, event, arg):
        (lines := left[frame.f_code]).discard(frame.f_lineno)
        return local if lines else None

    def call(frame, event, arg):
        code = frame.f_code
        if code not in left:
            left[code] = code_lines(code) if code.co_filename.startswith(prefix) else set()
        return local if left[code] else None

    def dump(*_):
        ran = {}
        for code, lines in list(left.items()):
            if code.co_filename.startswith(prefix):
                ran.setdefault(code.co_filename, set()).update(code_lines(code) - lines)
        with os.fdopen(tempfile.mkstemp(".json", f"{os.getpid()}-", out)[0], "w") as file:
            json.dump({name: sorted(lines) for name, lines in ran.items()}, file)

    util.register_after_fork(start, lambda _: util.Finalize(None, dump, exitpriority=100))
    atexit.register(dump)
    threading.settrace(call)
    sys.settrace(call)


def _entry_commands(tmp: str):
    """The product's entry points, at laptop sizes."""
    from repro.experiments.scenarios import SCENARIOS
    from repro.workloads.library import universe_names, workload_names

    store, small = f"--results-dir {tmp}/store", "--n-nodes 30 --max-time 40"
    report = "report --sizes 20 30 --n-nodes 30 --repetitions 1 --universe lineup-mini"
    sqlite = f"--store-backend sqlite --results-dir {tmp}/sqlite"
    cli = [
        "--version", "--help", "workload ls", "universe ls", "net ls", "net show metro --json",
        f"run {small}", f"run {small} --engine oracle --algorithm normal --dynamic --json",
        f"run {small} --topology lossy-edge --telemetry --probes --trace-out {tmp}/run.json",
        f"probe {small}", f"probe {small} --json --peer 5", f"compare {small} --json {store}",
        f"trace run --out {tmp}/trace.json {small}", f"trace overlay {tmp}/o.trace --n-nodes 60",
        f"sweep --sizes 20 30 --repetitions 2 --workers 2 --max-time 40 {store}",
        f"sweep --sizes 20 --repetitions 1 --max-time 40 --dynamic --json {store}",
        "figure 2", "figure 5 --n-nodes 30", f"figure 7 --sizes 20 --repetitions 1 --chart {store}",
        f"figure 7 --sizes 20 --repetitions 1 --from-store {store}",
        f"workload compare paper-baseline --n-nodes 30 --json {store}",
        f"universe compare lineup-mini --channels 2 --viewers 16 --json {store}",
        f"universe run lineup-mini --channels 3 --viewers 24 --shards 2 --progress {store}2",
        f"{report} --out {tmp}/r {store}", f"{report} --out {tmp}/r --from-store --json {store}",
        f"store ls {store}", f"store migrate --to sqlite --dest-dir {tmp}/sqlite {store}",
        f"store ls {sqlite}", f"store clear {sqlite}",
        *(f"workload run {name} --n-nodes 30 --workers 2 {store}" for name in workload_names()),
        *(f"universe run {name} --channels 2 --viewers 16 {store}" for name in universe_names()),
        *(f"scenario {name} --probes {store}" for name in SCENARIOS),
    ]
    yield from ([sys.executable, "-m", "repro.cli", *argv.split()] for argv in cli)
    yield from ([sys.executable, str(path)] for path in sorted(ROOT.glob("examples/*.py")))
    yield [sys.executable, str(ROOT / "bench/run.py"), "--smoke", "--out", f"{tmp}/bench.json"]


def record(suite: str, data: Path) -> int:
    (data / suite).mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text("import reach\nreach.start()\n")
        path = [tmp, str(ROOT / "tools"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        path = os.pathsep.join(filter(None, path))
        env = dict(os.environ, REACH_OUT=str(data / suite), PYTHONPATH=path)
        commands = ([[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]]
                    if suite == "tests" else list(_entry_commands(tmp)))
        codes = [subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
                 for command in commands]
    for code, command in zip(codes, commands):
        print(f"rc={code} {' '.join(command[1:])}")
    return sum(code != 0 for code in codes)


def report(data: Path) -> int:
    """Each unreached line is charged to the innermost def (or class / module) holding it."""
    entry, tests = ({}, {})
    for suite, ran in (("entry", entry), ("tests", tests)):
        for dump in (data / suite).glob("*.json"):
            for name, lines in json.loads(dump.read_text()).items():
                ran.setdefault(name, set()).update(lines)
    totals = {"executable": 0, "tests only": 0, "neither": 0}
    for path in sorted(SRC.rglob("*.py")):
        owner = {}  # line -> innermost code object (nested ones come later in the walk)
        for code in nested(compile(path.read_text(), str(path), "exec")):
            owner.update(dict.fromkeys(code_lines(code), code))
        totals["executable"] += len(owner)
        by_def = {}
        for line in sorted(set(owner) - entry.get(str(path), set())):
            kind = "tests only" if line in tests.get(str(path), ()) else "neither"
            by_def.setdefault((kind, owner[line].co_qualname), []).append(line)
            totals[kind] += 1
        for (kind, qualname), lines in sorted(by_def.items()):
            print(f"{kind:10} {len(lines):4}  {path.relative_to(ROOT)}:{qualname} {lines}")
    print("  ".join(f"{kind}: {count}" for kind, count in totals.items()))
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "record" and args[1] in ("entry", "tests"):
        sys.exit(record(args[1], Path(args[2]).resolve()))
    if len(args) == 2 and args[0] == "report":
        sys.exit(report(Path(args[1]).resolve()))
    sys.exit(__doc__)
