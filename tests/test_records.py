"""The one record codec: ``to_json`` is ``asdict`` and ``from_json`` undoes it.

Every record type the store writes goes through one JSON round trip here;
the rebuilt record must compare equal *and* hold values of the same types,
field by field, as the record that was written.
"""

import json
import typing
from dataclasses import asdict, fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_experiments_store import session_configs

from repro.channels.universe import ChannelOutcome
from repro.experiments.config import make_session_config
from repro.experiments.runner import run_pair
from repro.experiments.sweeps import SweepPoint
from repro.net.library import TOPOLOGIES
from repro.records import from_json, to_json
from repro.workloads.library import UNIVERSES, WORKLOADS, IPTV_CLASSES
from repro.workloads.runner import SwitchOutcome


def _types(value):
    """The type of ``value`` and, recursively, of everything inside it."""
    if is_dataclass(value):
        return type(value), [_types(getattr(value, f.name)) for f in fields(value)]
    if isinstance(value, (list, tuple)):
        return type(value), [_types(item) for item in value]
    if isinstance(value, dict):
        return dict, {key: _types(item) for key, item in value.items()}
    return type(value)


def assert_round_trips(record):
    payload = to_json(record)
    assert payload == asdict(record)
    rebuilt = from_json(type(record), json.loads(json.dumps(payload)))
    assert rebuilt == record
    assert _types(rebuilt) == _types(record)


_LEAVES = {
    int: st.integers(min_value=-2**53, max_value=2**53),
    float: st.floats(allow_nan=False),
    str: st.text(max_size=8),
    bool: st.booleans(),
}


def _values(annotation):
    """Values of a record annotation: nested records, ``Tuple[X, ...]`` and leaves."""
    if is_dataclass(annotation):
        return records(annotation)
    if typing.get_origin(annotation) is tuple:
        return st.lists(_values(typing.get_args(annotation)[0]), max_size=3).map(tuple)
    return _LEAVES[annotation]


def records(cls):
    """Records of ``cls`` with every field drawn from its annotation."""
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: _values(hints[f.name]) for f in fields(cls)})


@settings(max_examples=200, deadline=None)
@given(config=session_configs())
def test_session_config_round_trips(config):
    assert_round_trips(config)


@settings(max_examples=100, deadline=None)
@given(record=st.one_of(records(SweepPoint), records(SwitchOutcome), records(ChannelOutcome)))
def test_result_rows_round_trip(record):
    assert_round_trips(record)


@pytest.fixture(scope="module")
def tiny_pair():
    """One paired run over churn, a lossy fabric and bandwidth classes."""
    return run_pair(make_session_config(
        30, seed=4, dynamic=True, max_time=40.0, topology="metro", peer_classes=IPTV_CLASSES,
    ))


def test_session_results_and_metrics_round_trip(tiny_pair):
    for result in (tiny_pair.normal, tiny_pair.fast):
        assert result.fabric_stats and result.metrics.rounds and result.config.peer_classes
        assert_round_trips(result)
        assert_round_trips(result.metrics)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_specs_round_trip(name):
    spec = WORKLOADS[name]
    assert_round_trips(spec)
    assert_round_trips(spec.scaled_to(31))


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_universe_specs_round_trip(name):
    spec = UNIVERSES[name]
    assert_round_trips(spec)
    assert_round_trips(spec.scaled_to(n_channels=3, n_viewers=40))


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_topologies_round_trip(name):
    assert_round_trips(TOPOLOGIES[name])


def test_a_missing_key_keeps_the_field_default():
    topology = TOPOLOGIES["metro"]
    payload = to_json(topology)
    del payload["locality_bias"], payload["description"]
    rebuilt = from_json(type(topology), payload)
    assert (rebuilt.locality_bias, rebuilt.description) == (1.0, "")
