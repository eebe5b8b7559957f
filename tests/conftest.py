"""Shared pytest fixtures and differential-testing helpers.

The simulation-level fixtures use deliberately small overlays so the unit
and integration test suite stays fast; the benchmark (``bench/``) is where
realistic sizes live.

The module-level helpers (importable as ``from conftest import ...``) are
the shared core of the vector-engine
differential suite: they run a configuration through both engines and
normalise results/stores into comparable JSON documents.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Set, Tuple

import numpy as np
import pytest

from repro.experiments.config import make_session_config
from repro.experiments.store import session_result_to_dict
from repro.streaming.session import SessionConfig, SessionResult, SwitchSession

#: Document fields that legitimately differ between two executions of the
#: same simulation (wallclock timing, store-write timestamps).
VOLATILE_DOCUMENT_KEYS = frozenset({"wallclock_seconds", "created"})


def strip_volatile(node: Any) -> Any:
    """Recursively drop volatile (timing) fields from a JSON-like document."""
    if isinstance(node, dict):
        return {
            key: strip_volatile(value)
            for key, value in node.items()
            if key not in VOLATILE_DOCUMENT_KEYS
        }
    if isinstance(node, list):
        return [strip_volatile(value) for value in node]
    return node


def normalized_run_document(result: SessionResult) -> Dict[str, Any]:
    """A session result as the exact JSON document the store would persist,
    minus volatile timing fields (one ``json`` round trip, so any numpy
    scalar leaking into the result shows up as a string mismatch)."""
    document = json.loads(json.dumps(session_result_to_dict(result), default=str))
    return strip_volatile(document)


def run_engine_pair(
    config: SessionConfig,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run ``config`` under the oracle and the vector engine.

    Returns both normalised store documents; the differential suite asserts
    they are bit-identical.
    """
    oracle = SwitchSession(replace(config, engine="oracle")).run()
    vector = SwitchSession(replace(config, engine="vector")).run()
    return normalized_run_document(oracle), normalized_run_document(vector)


def store_documents(root: Path) -> Dict[str, Any]:
    """Every JSON document persisted under a result-store directory,
    keyed by filename, with volatile fields stripped."""
    documents: Dict[str, Any] = {}
    for path in sorted(Path(root).rglob("*.json")):
        with open(path, "r", encoding="utf-8") as handle:
            documents[path.name] = strip_volatile(json.load(handle))
    return documents


#: What ``modules_loaded_by`` runs: ``code`` (its first argument), then the
#: names in ``sys.modules`` below a marker line.
_MODULES_MARKER = "@@ sys.modules @@"
_MODULES_PROGRAM = f"""
import sys
try:
    exec(sys.argv[1])
except SystemExit as exit:
    assert not exit.code, exit.code
print({_MODULES_MARKER!r})
print("\\n".join(sorted(sys.modules)))
"""

#: All of ``repro`` a tier-0 entry point (``import repro.cli``, ``--version``,
#: ``--help``) may load; see ``tests/test_import_fences.py``.
TIER0_REPRO_MODULES = frozenset({"repro", "repro.cli", "repro._hub"})


def fresh_python_env() -> Dict[str, str]:
    """The environment of a fresh interpreter that can import this checkout's ``repro``."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    env.pop("REPRO_RESULTS_DIR", None)
    return env


def modules_loaded_by(code: str) -> Set[str]:
    """``sys.modules`` of a fresh interpreter after it ran ``code``.

    The import fences compare module *sets*, which repeat exactly, instead
    of start-up times, which do not on a shared host.  ``code`` may end in
    ``SystemExit(0)`` (``--help``, ``--version``); any other failure fails
    the calling test with the child's stderr.
    """
    done = subprocess.run([sys.executable, "-c", _MODULES_PROGRAM, code],
                          env=fresh_python_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split(_MODULES_MARKER + "\n", 1)[1].split())


def repro_modules(modules: Set[str]) -> Set[str]:
    """The ``repro`` package and its sub-modules among ``modules``."""
    return {name for name in modules if name.split(".")[0] == "repro"}


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_config() -> SessionConfig:
    """A very small but complete session configuration (fast to run)."""
    return make_session_config(
        40,
        seed=7,
        max_time=80.0,
        old_stream_segments=400,
        lookahead=120,
    )


@pytest.fixture
def small_config() -> SessionConfig:
    """A slightly larger configuration used by the integration tests."""
    return make_session_config(
        80,
        seed=3,
        max_time=100.0,
        old_stream_segments=600,
    )
