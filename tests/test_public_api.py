"""Tests for the package's public API surface."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_version_is_exposed():
    assert repro.__version__


def test_public_names_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_top_level_quickstart_flow():
    config = repro.make_session_config(36, seed=2, max_time=70.0,
                                       old_stream_segments=400, lookahead=120)
    result = repro.run_single(config)
    assert result.metrics.avg_switch_time > 0
    assert isinstance(repro.FastSwitchAlgorithm(), repro.FastSwitchAlgorithm)


def test_optimal_split_reachable_from_top_level():
    split = repro.optimal_split(15.0, 50.0, 50.0, 10.0, 10.0)
    assert split.r1 > 0 and split.r2 > 0


def test_subpackages_import_cleanly():
    import repro.channels  # noqa: F401
    import repro.churn  # noqa: F401
    import repro.core  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.metrics  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.overlay  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.streaming  # noqa: F401
    import repro.workloads  # noqa: F401


def test_importing_the_cli_does_not_import_networkx():
    """networkx is a test-only dependency: only ``Overlay.to_networkx`` loads it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; sys.exit(1 if 'networkx' in sys.modules else 0)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
