"""Import fences: a command loads what it uses, checked as module sets.

Three tiers (docs/architecture.md, "Package layers"):

* tier 0 -- ``import repro``, ``import repro.cli``, ``--version`` and
  ``--help`` load the standard library only: no NumPy, no ``repro`` module
  beyond the package, the CLI and the hub helper
  (``import repro.cli`` itself is fenced in ``tests/test_public_api.py``);
* tier 1 -- the store-backed commands that never simulate (``report`` and
  ``figure`` with ``--from-store``, ``store ls``) load the records and the
  store, not the simulator, the fan-out or the network stack;
* tier 2 -- everything that simulates; not fenced.

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
    "repro.sim.engine", "repro.sim.events", "repro.core.vector",
    "repro.net.fabric", "repro.net.link",
    "repro.channels.universe", "repro.channels.runner",
    "multiprocessing", "urllib.request", "ssl", "importlib.metadata",
}
#: ... and whole packages.
TIER1_FORBIDDEN_PACKAGES = {"repro.overlay", "repro.dist", "repro.workloads"}


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
def warm_store(tmp_path_factory):
    """A small store holding what every registered figure replays from."""
    root = tmp_path_factory.mktemp("fence-store")
    steps = [
        ["universe", "run", "lineup-mini", "--channels", "3", "--viewers", "36"],
        ["run", "--n-nodes", "30", "--seed", "7", "--max-time", "60", "--probes"],
        ["report", "--out", str(root / "cold-report"), "--sizes", "30", "--n-nodes", "30", "--json"],
    ]
    for argv in steps:
        assert main(argv + ["--results-dir", str(root)]) == 0
    return root


@pytest.mark.parametrize("command", ["report", "figure", "store-ls"])
def test_tier1_replay_commands_do_not_load_the_simulator(command, warm_store, tmp_path):
    argv = {
        "report": ["report", "--from-store", "--out", str(tmp_path / "replay"),
                   "--sizes", "30", "--n-nodes", "30", "--json"],
        "figure": ["figure", "7", "--from-store", "--sizes", "30", "--json"],
        "store-ls": ["store", "ls"],
    }[command] + ["--results-dir", str(warm_store)]
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
