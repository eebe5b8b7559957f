"""Memory fences for the segment buffer and the array engine's matrix.

A buffer is a bitmap, an ``array('i')`` queue and an ``int32`` index -- no
Python object per segment -- and on the array engine that index is the
node's row of one shared matrix, which the buffers reference and which
references them only weakly.  These tests fail if boxed-int buffers, a
second copy of the index or a buffer <-> matrix reference cycle come back,
or the decider keeps per-peer state for peers that left.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import tracemalloc
import weakref
from array import array

from conftest import fresh_python_env
from repro import make_session_config, run_pair
from repro.core import vector
from repro.streaming.buffer import SegmentBuffer
from repro.streaming.session import SwitchSession


def _traced_growth(build):
    """Bytes still allocated by ``build()`` while its result is held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = build()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del held
    return grown


def test_the_matrix_row_and_the_scalar_index_share_one_item_format():
    assert array("i").itemsize == 4
    assert vector.SegmentArrays(1, 1).index.itemsize == 4


def test_a_full_buffer_holds_no_object_per_segment():
    def full_buffer():
        buffer = SegmentBuffer(capacity=600)
        for seg_id in range(2000):
            buffer.insert(seg_id)
        assert buffer.oldest() == 1400 and len(buffer) == 600
        return buffer

    assert _traced_growth(full_buffer) <= 16 * 1024


def test_a_vector_session_at_its_stop_costs_under_40_kib_per_peer():
    config = make_session_config(100, seed=3, engine="vector")
    SwitchSession(make_session_config(20, seed=3, engine="vector", max_time=30.0)).run()

    def stopped_session():
        session = SwitchSession(config)
        session.run()
        return session

    assert _traced_growth(stopped_session) <= 40 * 1024 * 100


def test_the_matrix_and_its_buffers_are_freed_without_a_collection(monkeypatch):
    """Buffer -> matrix is the only strong edge: with the cyclic collector
    off, nothing of a pair's array state outlives ``run_pair``."""
    created = []
    for cls in (vector.SegmentArrays, vector.MirroredBuffer):
        original = cls.__init__

        def recording_init(self, *args, _original=original, **kwargs):
            _original(self, *args, **kwargs)
            created.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", recording_init)
    config = make_session_config(40, seed=5, engine="vector", dynamic=True, max_time=60.0)
    gc.collect()
    gc.disable()
    try:
        run_pair(config)
        alive = [type(ref()).__name__ for ref in created if ref() is not None]
    finally:
        gc.enable()
    assert created and not alive


def test_the_decider_keeps_nothing_for_departed_peers():
    """The decider's capacity and neighbourhood caches are bounded by the
    alive nodes under churn, on the ideal fabric and on a lossy one."""
    for topology in (None, "transcontinental"):
        session = SwitchSession(make_session_config(
            40, seed=5, engine="vector", dynamic=True, max_time=60.0, topology=topology
        ))
        session.run()
        decider, alive = session._decider, session.peers.keys() | session.sources.keys()
        assert session.membership.leaves > 0 and decider._capacity_cache
        assert decider._capacity_cache.keys() <= alive
        assert decider._survivor_cache.keys() <= alive


_PAIR_LOOP = """
import gc, json, resource
from repro import make_session_config, run_pair
gc.disable()
peaks = []
for seed in range(10):
    run_pair(make_session_config(100, seed=seed, engine="vector", dynamic=True))
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(json.dumps(peaks))
"""


def test_back_to_back_pairs_do_not_raise_the_peak():
    """Ten 100-peer churn pairs in a fresh process with the cyclic collector
    off: the peak after the tenth is within 1 MiB of the peak after the
    first (``ru_maxrss`` is in KiB on Linux)."""
    out = subprocess.run(
        [sys.executable, "-c", _PAIR_LOOP],
        env=fresh_python_env(),
        capture_output=True, text=True, check=True, timeout=300,
    )
    peaks = json.loads(out.stdout)
    assert peaks[-1] - peaks[0] <= 1024, peaks
