"""The benchmark's layer shims bind on a real ``run_pair``, on both engines.

``bench/layers.py`` times the simulator through a fixed table of entry
points; which of them a run reaches depends on the engine.  The harness's
own test of this (``bench/tests``, not tier-1) builds its configuration
without an engine, so it follows :data:`~repro.streaming.session.DEFAULT_ENGINE`
while asserting on the oracle's spans.  This test says which engine it
expects what of: the oracle must be seen through ``core.schedule`` and its
children, the array engine through ``core.vector.*``, both through the
allocation entry point they share -- and wearing the shims must not change
a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import layers, stats  # noqa: E402
from bench.trace import Recorder, ShimSet, totals_by_name  # noqa: E402

from repro import make_session_config, run_pair  # noqa: E402
from repro.experiments.store import session_result_to_dict  # noqa: E402
from repro.streaming.session import DEFAULT_ENGINE  # noqa: E402


def _shimmed_pair(engine):
    kwargs = {} if engine is None else {"engine": engine}
    config = make_session_config(30, seed=4, max_time=60.0, **kwargs)
    plain = run_pair(config)
    recorder = Recorder()
    with ShimSet(layers.TARGETS, recorder):
        shimmed = run_pair(config)
    digests = [
        stats.digest(map(session_result_to_dict, (pair.normal, pair.fast)))
        for pair in (plain, shimmed)
    ]
    assert digests[0] == digests[1]
    return digests[0], totals_by_name(recorder.spans), recorder.counts


@pytest.mark.parametrize("engine", ["oracle", "vector", None])
def test_shims_bind_on_a_real_pair_and_leave_results_untouched(engine):
    digest, table, counts = _shimmed_pair(engine)
    assert table["streaming.setup"].calls >= 2
    assert counts["net.messages"] > 0
    assert table["core.allocate"].calls > 0  # the rate model both engines share
    if (engine or DEFAULT_ENGINE) == "oracle":
        assert table["core.schedule"].calls > 0
        # priority / greedy / allocate spans nest inside schedule
        assert 0 < table["core.schedule"].self_s < table["core.schedule"].total_s
        assert table["core.greedy"].calls > 0 and table["core.priority"].calls > 0
        assert "core.vector.priorities" not in table
    else:
        assert "core.schedule" not in table
        # one batched kernel call per period and algorithm group, not per peer
        assert 0 < table["core.vector.priorities"].calls < table["core.allocate"].calls
        # buffers write the kernel's matrix directly: nothing to flush, so
        # the table's flush target is gone and its row reads 0
        assert "core.vector.flush" not in table
        assert digest == _shimmed_pair("oracle")[0]
