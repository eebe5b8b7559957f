"""Import fences: a command loads what it uses, checked as module sets.

Three tiers (docs/architecture.md, "Package layers"):

* tier 0 -- ``import repro``, ``import repro.cli``, ``--version`` and
  ``--help`` load the standard library only: no NumPy, no ``repro`` module
  beyond the package, the CLI and the hub helper
  (``import repro.cli`` itself is fenced in ``tests/test_public_api.py``);
* tier 1 -- the store-backed commands that never simulate (``report`` and
  ``figure`` with ``--from-store``, ``store ls``) load the records and the
  store on the standard library only: no NumPy, no simulator, no fan-out,
  no network stack;
* tier 2 -- everything that simulates; not fenced (which source files may
  import NumPy at module level is pinned in ``tests/test_fences.py``),
  except that listing the named workloads and universes loads the specs,
  not the simulator they describe.

Every check runs in a fresh interpreter and compares ``sys.modules``, which
repeats exactly; the one timing check is relative (against ``import
numpy`` on the same host, minimum of five).
"""

from __future__ import annotations

import subprocess
import sys
import time

import pytest
from conftest import TIER0_REPRO_MODULES, fresh_python_env, modules_loaded_by, repro_modules

from repro.cli import main

#: What a tier-1 command must not load: exact names ...
TIER1_FORBIDDEN = {
    "repro.streaming.session", "repro.streaming.peer", "repro.streaming.source",
    "repro.core.vector", "repro.streaming.bandwidth",
    "repro.channels.universe", "repro.channels.runner",
    "multiprocessing", "urllib.request", "ssl", "importlib.metadata", "numpy",
}
#: ... and whole packages.
TIER1_FORBIDDEN_PACKAGES = {"repro.overlay", "repro.dist", "repro.workloads", "repro.net"}


@pytest.mark.parametrize("code", [
    "import repro",
    "from repro.cli import main; main(['--version'])",
    "from repro.cli import main; main(['--help'])",
], ids=["import-repro", "version", "help"])
def test_tier0_loads_no_numpy_and_no_other_repro_module(code):
    modules = modules_loaded_by(code)
    assert "numpy" not in modules
    assert repro_modules(modules) <= TIER0_REPRO_MODULES


def test_a_command_does_not_look_the_version_up():
    modules = modules_loaded_by("from repro.cli import main; main(['net', 'ls'])")
    assert "importlib.metadata" not in modules
    assert "repro.net.library" in modules  # the command did run


@pytest.fixture(scope="module")
def warm_stores(tmp_path_factory):
    """A small store holding what every registered figure replays from, once
    per backend (the SQLite one is a migration of the JSON one)."""
    root = tmp_path_factory.mktemp("fence-store")
    sqlite_root = tmp_path_factory.mktemp("fence-store-sqlite")
    steps = [
        ["universe", "run", "lineup-mini", "--channels", "3", "--viewers", "36"],
        ["run", "--n-nodes", "30", "--seed", "7", "--max-time", "60", "--probes"],
        ["report", "--out", str(root / "cold-report"), "--sizes", "30", "--n-nodes", "30", "--json"],
        ["store", "migrate", "--to", "sqlite", "--dest-dir", str(sqlite_root)],
    ]
    for argv in steps:
        assert main(argv + ["--results-dir", str(root)]) == 0
    return {"json": root, "sqlite": sqlite_root}


#: id -> argv of a tier-1 command (``report`` also gets its ``--out``).
TIER1_COMMANDS = {
    "report": ["report", "--from-store", "--sizes", "30", "--n-nodes", "30", "--json"],
    "figure": ["figure", "7", "--from-store", "--sizes", "30", "--json"],
    "figure-5": ["figure", "5", "--from-store", "--n-nodes", "30", "--json"],
    "store-ls": ["store", "ls"],
    "store-ls-pair": ["store", "ls", "--kind", "pair"],
}


@pytest.mark.parametrize("command,backend", [
    pytest.param(command, backend, id=command if backend == "json" else f"{command}-{backend}")
    for backend in ("json", "sqlite") for command in TIER1_COMMANDS
])
def test_tier1_replay_commands_do_not_load_the_simulator(command, backend, warm_stores, tmp_path):
    argv = TIER1_COMMANDS[command] + [
        "--results-dir", str(warm_stores[backend]), "--store-backend", backend]
    if command == "report":
        argv += ["--out", str(tmp_path / "replay")]
    modules = modules_loaded_by(
        f"import sys; from repro.cli import main; sys.exit(main({argv!r}))"
    )
    assert not {name for name in modules
                if name in TIER1_FORBIDDEN
                or ".".join(name.split(".")[:2]) in TIER1_FORBIDDEN_PACKAGES}
    assert "repro.experiments.store" in modules  # the command did run
    if command == "report":
        assert (tmp_path / "replay" / "report.html").is_file()
        assert "repro.figures.report" in modules


#: What ``workload ls`` / ``universe ls`` must not load: the machine a
#: spec runs on, and the fan-out that would run it.
SIMULATOR_MODULES = {
    "repro.streaming.session", "repro.streaming.peer", "repro.streaming.source",
    "repro.core.vector", "repro.net.fabric",
}


@pytest.mark.parametrize("library", ["workload", "universe"])
def test_listing_a_library_does_not_load_the_simulator(library):
    modules = modules_loaded_by(f"from repro.cli import main; main([{library!r}, 'ls'])")
    assert not {name for name in modules
                if name in SIMULATOR_MODULES or name.split(".")[:2] == ["repro", "dist"]}
    assert "repro.workloads.library" in modules  # the command did run


#: Runs ``main(argv)`` with every process start recording whether the parent
#: has the simulator (and with it NumPy) loaded; prints one line per start.
_FORK_PROGRAM = """
import sys
from multiprocessing.process import BaseProcess
start = BaseProcess.start
def recording_start(self):
    print("@@ start", "numpy" in sys.modules, "repro.streaming.session" in sys.modules)
    start(self)
BaseProcess.start = recording_start
assert "numpy" not in sys.modules
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["sweep", "--sizes", "30", "36", "--repetitions", "1", "--max-time", "60", "--workers", "2"],
    ["universe", "run", "lineup-mini", "--channels", "3", "--viewers", "36", "--workers", "2"],
], ids=["sweep", "universe-run"])
def test_fan_out_forks_workers_from_a_parent_that_imported_the_simulator(argv, tmp_path):
    """Tier 1 went lazy; a worker must still inherit NumPy, not import it."""
    done = subprocess.run(
        [sys.executable, "-c", _FORK_PROGRAM, *argv, "--results-dir", str(tmp_path)],
        env=fresh_python_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    starts = [line for line in done.stdout.splitlines() if line.startswith("@@ start")]
    assert len(starts) >= 2
    assert set(starts) == {"@@ start True True"}


def _min_wall_s(code: str, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=fresh_python_env(), check=True,
                       capture_output=True, timeout=120)
        best = min(best, time.perf_counter() - start)
    return best


def test_importing_the_cli_is_cheaper_than_importing_numpy():
    assert _min_wall_s("import repro.cli") < _min_wall_s("import numpy")
