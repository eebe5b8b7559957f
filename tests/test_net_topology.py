"""Tests for the region/topology model and the topology library."""

import pytest

from repro.net.library import TOPOLOGIES, get_topology, topology_names
from repro.net.topology import NetTopology, Region
from repro.records import from_json, to_json


def two_region_topology(**kwargs):
    defaults = dict(
        name="two-city",
        regions=(
            Region("east", weight=0.6, last_mile_ms=5.0, jitter_ms=1.0, loss=0.01),
            Region("west", weight=0.4, last_mile_ms=8.0, jitter_ms=2.0, loss=0.0),
        ),
        latency_ms=((2.0, 80.0), (80.0, 3.0)),
        locality_bias=2.0,
        description="test topology",
    )
    defaults.update(kwargs)
    return NetTopology(**defaults)


class TestRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            Region("")
        with pytest.raises(ValueError):
            Region("a", weight=0.0)
        with pytest.raises(ValueError):
            Region("a", last_mile_ms=-1.0)
        with pytest.raises(ValueError):
            Region("a", loss=1.0)

    def test_defaults_are_valid(self):
        region = Region("anywhere")
        assert region.weight == 1.0 and region.loss == 0.0


class TestNetTopology:
    def test_round_trips_exactly_through_dict(self):
        topo = two_region_topology()
        assert from_json(NetTopology, to_json(topo)) == topo

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError):
            two_region_topology(latency_ms=((2.0, 80.0),))
        with pytest.raises(ValueError):
            two_region_topology(latency_ms=((2.0,), (80.0,)))

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            two_region_topology(latency_ms=((2.0, -1.0), (80.0, 3.0)))

    def test_rejects_duplicate_region_names(self):
        with pytest.raises(ValueError):
            two_region_topology(regions=(Region("east"), Region("east")))

    def test_rejects_empty_regions_and_sub_one_bias(self):
        with pytest.raises(ValueError):
            two_region_topology(regions=(), latency_ms=())
        with pytest.raises(ValueError):
            two_region_topology(locality_bias=0.5)

    def test_region_index_and_latency_lookup(self):
        topo = two_region_topology()
        assert topo.region_index("west") == 1
        assert topo.base_latency_ms("east", "west") == 80.0
        with pytest.raises(KeyError):
            topo.region_index("mars")

    def test_weights_are_normalised(self):
        topo = two_region_topology()
        assert topo.weights == pytest.approx((0.6, 0.4))
        assert sum(topo.weights) == pytest.approx(1.0)

    def test_properties(self):
        topo = two_region_topology()
        assert topo.n_regions == 2
        assert topo.region_names == ("east", "west")
        assert topo.max_latency_ms == 80.0
        assert topo.lossy is True


class TestLibrary:
    def test_required_topologies_present(self):
        names = topology_names()
        assert "metro" in names
        assert "transcontinental" in names

    def test_all_library_topologies_round_trip(self):
        for name, topo in TOPOLOGIES.items():
            assert topo.name == name
            assert from_json(NetTopology, to_json(topo)) == topo

    def test_transcontinental_shape(self):
        topo = get_topology("transcontinental")
        assert topo.n_regions == 4
        assert topo.max_latency_ms >= 100.0
        assert topo.lossy
        assert topo.locality_bias > 1.0

    def test_get_topology_unknown_name(self):
        with pytest.raises(KeyError):
            get_topology("atlantis")
