"""Tests for the mergeable quantile sketch and stream accumulators.

Pins both halves of the exactness contract documented in
:mod:`repro.metrics.sketch`: exact percentiles (bit-identical to
``numpy.percentile`` and hence to :func:`switch_time_stats`) while the sample
count stays within capacity, and a bounded relative error once the sketch
has compressed.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.sketch import (
    DEFAULT_SKETCH_CAPACITY,
    QuantileSketch,
    StreamAccumulator,
    sketch_of,
)

#: Finite samples of every size class: ties and signed zeros, ordinary,
#: denormal-sized and near-overflow magnitudes.
SAMPLES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 2.5e-310, 1.7e308, -1.7e308]),
        st.integers(-3, 3).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=60.0),
    ),
    min_size=1, max_size=40,
)
#: Whole, fractional and boundary percentiles.
PERCENTILES = st.one_of(
    st.sampled_from([0, 100, 0.0, 100.0, 50, 99.9, 1e-300, 99.99999999999999]),
    st.integers(0, 100),
    st.floats(min_value=0.0, max_value=100.0),
)


def _same(left: float, right: float) -> bool:
    """``==``, with NaN (``inf - inf`` at overflowing magnitudes) equal to NaN."""
    return left == right or (left != left and right != right)


#: Relative-error tolerance pinned for compressed sketches on the shipped
#: percentiles (p50/p90/p99).  The dist layer's merge contract relies on it.
COMPRESSED_RTOL = 0.01


class TestStreamAccumulator:
    def test_empty(self):
        acc = StreamAccumulator()
        assert acc.count == 0 and acc.mean == 0.0

    def test_add_and_merge_are_exact(self):
        left, right = StreamAccumulator(), StreamAccumulator()
        for v in (1.5, 2.0, -3.25):
            left.add(v)
        right.add(10.0, weight=4)
        left.merge(right)
        assert left.count == 7
        assert left.total == 1.5 + 2.0 + -3.25 + 40.0
        assert left.minimum == -3.25 and left.maximum == 10.0

    def test_merge_empty_is_identity(self):
        acc = StreamAccumulator()
        acc.add(2.0)
        before = acc.to_dict()
        acc.merge(StreamAccumulator())
        assert acc.to_dict() == before

    def test_round_trip(self):
        acc = StreamAccumulator()
        acc.add(0.1)
        acc.add(7.7, weight=3)
        rebuilt = StreamAccumulator.from_dict(json.loads(json.dumps(acc.to_dict())))
        assert rebuilt == acc
        empty = StreamAccumulator.from_dict(
            json.loads(json.dumps(StreamAccumulator().to_dict()))
        )
        assert empty == StreamAccumulator()

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            StreamAccumulator().add(1.0, weight=0)


class TestExactMode:
    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.percentile(50.0) == 0.0
        assert sketch.mean == 0.0

    def test_percentiles_match_numpy_exactly(self):
        rng = np.random.default_rng(7)
        samples = rng.exponential(3.0, size=500).tolist()
        sketch = sketch_of(samples)
        assert sketch.exact
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert sketch.percentile(q) == float(np.percentile(samples, q))
        assert sketch.mean == pytest.approx(float(np.mean(samples)), rel=1e-12)

    def test_merge_stays_exact_within_capacity(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(5.0, 2.0, 300).tolist(), rng.normal(9.0, 1.0, 200).tolist()
        left, right = sketch_of(a), sketch_of(b)
        left.merge(right)
        assert left.exact and left.count == 500
        pooled = a + b
        for q in (50.0, 90.0, 99.0):
            assert left.percentile(q) == float(np.percentile(pooled, q))

    def test_matches_zap_time_stats_pooling(self):
        """The universe contract: pooled sketch percentiles equal the
        in-memory ``switch_time_stats`` of the concatenated samples."""
        from repro.metrics.collectors import PeerOutcome, completion_times, switch_time_stats

        outcomes = [
            PeerOutcome(
                node_id=i,
                q0=0,
                finish_old_time=1.0,
                prepared_new_time=0.5 * i,
                switch_complete_time=(None if i % 7 == 0 else 0.5 * i),
            )
            for i in range(60)
        ]
        values = completion_times(outcomes, "switch_complete_time", 40.0)
        stats = switch_time_stats(outcomes, horizon=40.0)[""]
        sketch = sketch_of(values)
        assert stats.unfinished > 0  # the horizon samples are in the distribution
        assert sketch.percentile(50.0) == stats.p50
        assert sketch.percentile(90.0) == stats.p90
        assert sketch.percentile(99.0) == stats.p99
        assert sketch.mean == pytest.approx(stats.mean, rel=1e-12)


class TestPlainPythonMatchesNumpy:
    """The three functions a store replay runs are plain Python; each repeats
    the NumPy rule its docstring names, to the last bit."""

    @settings(max_examples=300, deadline=None)
    @given(samples=SAMPLES, q=PERCENTILES)
    @example(samples=[3.0], q=37.5)
    @example(samples=[2.0, 2.0, 2.0], q=50)
    @example(samples=[1.0, 2.0], q=99.99999999999999)
    def test_exact_percentile_is_numpy_percentile(self, samples, q):
        sketch = sketch_of(samples)
        with np.errstate(all="ignore"):
            expected = float(np.percentile(np.asarray(samples, dtype=float), q))
        # ``==`` and not the bit pattern: among equal samples NumPy's
        # partition may hand back either of ``-0.0`` and ``0.0``.
        assert _same(sketch.percentile(q), expected)

    @pytest.mark.parametrize("q", [-0.001, 100.001, float("nan")])
    def test_exact_percentile_rejects_what_numpy_rejects(self, q):
        with pytest.raises(ValueError, match="range"):
            np.percentile([1.0, 2.0], q)
        with pytest.raises(ValueError, match="range"):
            sketch_of([1.0, 2.0]).percentile(q)

    @settings(max_examples=300, deadline=None)
    @given(samples=SAMPLES, data=st.data(),
           q=PERCENTILES.filter(lambda q: 0.0 < q < 100.0))  # beyond: TestTailClamping
    def test_compressed_percentile_is_numpy_interp_over_index_midpoints(self, samples, q, data):
        values = sorted(samples)
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(values),
                                     max_size=len(values)))
        sketch = QuantileSketch(capacity=max(2, len(values)), values=values,
                                weights=weights, compressed=True)
        w = np.asarray(weights, dtype=np.float64)
        h = (w.sum() - 1.0) * (float(q) / 100.0)
        with np.errstate(all="ignore"):
            expected = float(np.interp(h, np.cumsum(w) - w / 2 - 0.5,
                                       np.asarray(values, dtype=float)))
        assert sketch.percentile(q).hex() == expected.hex()

    @settings(max_examples=300, deadline=None)
    @given(samples=SAMPLES, more=SAMPLES)
    @example(samples=[0.0, -0.0, 0.0], more=[-0.0, 0.0, -0.0])
    def test_normalise_order_is_numpy_stable_argsort(self, samples, more):
        sketch = sketch_of(samples)
        before = sketch.values + more
        sketch.extend(more)
        order = np.argsort(np.asarray(before, dtype=float), kind="stable")
        # Bit patterns, so that the order among ``-0.0`` and ``0.0`` counts.
        assert [v.hex() for v in sketch.values] == [before[i].hex() for i in order]

    def test_docstrings_name_the_numpy_rule_they_repeat(self):
        assert 'numpy.argsort(values,' in QuantileSketch._normalise.__doc__
        assert 'kind="stable"' in QuantileSketch._normalise.__doc__
        for rule in ("numpy.percentile(values, q)", 'method="linear"', "numpy.interp("):
            assert rule in QuantileSketch.percentile.__doc__


class TestCompressedMode:
    def test_compression_preserves_count_and_sum(self):
        rng = np.random.default_rng(3)
        samples = rng.gamma(2.0, 2.0, size=5000).tolist()
        sketch = sketch_of(samples, capacity=64)
        assert sketch.compressed and not sketch.exact
        assert sketch.count == len(samples)
        assert len(sketch.values) <= 64
        assert sketch.mean == pytest.approx(float(np.mean(samples)), rel=1e-9)

    def test_compressed_percentiles_within_tolerance(self):
        rng = np.random.default_rng(5)
        samples = rng.exponential(4.0, size=20000).tolist()
        sketch = sketch_of(samples, capacity=256)
        for q in (50.0, 90.0, 99.0):
            exact = float(np.percentile(samples, q))
            assert sketch.percentile(q) == pytest.approx(exact, rel=COMPRESSED_RTOL)

    def test_merge_of_compressed_shards_within_tolerance(self):
        """Shard-wise sketches merged in shard order approximate the pooled
        distribution -- the dist layer's streaming-aggregation contract."""
        rng = np.random.default_rng(9)
        shards = [rng.lognormal(1.0, 0.6, size=4000).tolist() for _ in range(6)]
        merged = QuantileSketch(capacity=512)
        for shard in shards:
            merged.merge(sketch_of(shard, capacity=512))
        pooled = [v for shard in shards for v in shard]
        for q in (50.0, 90.0, 99.0):
            exact = float(np.percentile(pooled, q))
            assert merged.percentile(q) == pytest.approx(exact, rel=COMPRESSED_RTOL)

    def test_compression_is_order_independent(self):
        """The centroid set depends only on the inserted multiset."""
        rng = np.random.default_rng(13)
        samples = rng.uniform(0.0, 10.0, size=1000).tolist()
        forward = sketch_of(samples, capacity=32)
        backward = sketch_of(list(reversed(samples)), capacity=32)
        assert forward.values == backward.values
        assert forward.weights == backward.weights

    def test_merge_in_fixed_order_is_deterministic(self):
        rng = np.random.default_rng(17)
        shards = [rng.normal(0.0, 1.0, size=900).tolist() for _ in range(4)]

        def merged():
            out = QuantileSketch(capacity=128)
            for shard in shards:
                out.merge(sketch_of(shard, capacity=128))
            return out

        first, second = merged(), merged()
        assert first.values == second.values and first.weights == second.weights


class TestTailClamping:
    """Exact extremes survive compression, merging and serialisation.

    Compression interpolates between centroid means, so without the
    tracked extremes ``percentile(0)``/``percentile(100)`` would drift
    inward toward the first/last centroid -- and the universe figures'
    tail rows would under-report the worst zap time.
    """

    def test_compressed_tails_are_exact(self):
        rng = np.random.default_rng(29)
        samples = rng.exponential(4.0, size=20000).tolist()
        sketch = sketch_of(samples, capacity=64)
        assert sketch.compressed
        assert sketch.percentile(0.0) == min(samples)
        assert sketch.percentile(100.0) == max(samples)

    def test_tails_clamp_out_of_range_queries(self):
        sketch = sketch_of([1.0, 2.0, 3.0] * 200, capacity=16)
        assert sketch.percentile(-5.0) == 1.0
        assert sketch.percentile(250.0) == 3.0

    def test_merge_takes_the_extremes_of_both_sides(self):
        low = sketch_of(list(np.linspace(0.5, 10.0, 500)), capacity=32)
        high = sketch_of(list(np.linspace(20.0, 99.5, 500)), capacity=32)
        low.merge(high)
        assert low.percentile(0.0) == 0.5
        assert low.percentile(100.0) == 99.5

    def test_extremes_round_trip_through_json(self):
        rng = np.random.default_rng(31)
        sketch = sketch_of(rng.gamma(2.0, 3.0, size=5000).tolist(), capacity=64)
        rebuilt = QuantileSketch.from_dict(json.loads(json.dumps(sketch.to_dict())))
        assert rebuilt.minimum == sketch.minimum
        assert rebuilt.maximum == sketch.maximum
        assert rebuilt.percentile(0.0) == sketch.percentile(0.0)
        assert rebuilt.percentile(100.0) == sketch.percentile(100.0)

    def test_legacy_payload_without_extremes_falls_back_to_centroids(self):
        # Payloads written before the extremes existed must still load;
        # the bounds degrade to the surviving centroid means.
        sketch = sketch_of([float(v) for v in range(1000)], capacity=32)
        payload = sketch.to_dict()
        del payload["minimum"], payload["maximum"]
        rebuilt = QuantileSketch.from_dict(payload)
        assert rebuilt.percentile(0.0) == min(rebuilt.values)
        assert rebuilt.percentile(100.0) == max(rebuilt.values)


class TestSerialisation:
    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(21)
        for capacity, n in ((DEFAULT_SKETCH_CAPACITY, 100), (64, 1000)):
            sketch = sketch_of(rng.exponential(2.0, size=n).tolist(), capacity=capacity)
            rebuilt = QuantileSketch.from_dict(json.loads(json.dumps(sketch.to_dict())))
            assert rebuilt == sketch
            assert rebuilt.percentile(90.0) == sketch.percentile(90.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(capacity=1)
