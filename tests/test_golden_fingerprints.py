"""Golden-fingerprint regression pins for the persistent result store.

Two families of pins, both computed with a frozen ``version=`` override so
they are independent of the package version string:

* **Key goldens** -- the store fingerprints (``pair-*``, ``net-*``,
  ``workload-*``, ``universe-*``, ``sweep-*``, ``telemetry-*``) of one
  representative document each.
  These rotate only when the spec/config serialisation, the schema
  version or :func:`stable_hash` itself changes.  Silent key rotation is
  a real bug class: it orphans every previously persisted result.

* **Content goldens** -- ``stable_hash`` of fully normalised result
  documents (volatile timing fields stripped).  These pin the simulator's
  *behaviour* bit for bit: any change to scheduling, priorities, RNG
  consumption order or document layout shows up here first.

* **Store-content golden** -- every document the four store-backed runners
  leave behind (result payloads *and* the headers the runners assemble
  around them), on both backends.

* **CLI output goldens** -- what ``--json`` commands print, in the order
  they print it (the store goldens hash ``sort_keys`` documents, so they
  cannot see key order).

If a change rotates one of these on purpose (schema bump, intentional
behaviour change), update the literal and say why in the commit message.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import normalized_run_document, strip_volatile

import repro
from repro.cli import main
from repro.channels.runner import run_universe, universe_fingerprint
from repro.experiments.config import make_session_config
from repro.experiments.runner import run_pair
from repro.experiments.store import (
    SCHEMA_VERSION,
    STORE_BACKENDS,
    net_fingerprint,
    open_store,
    pair_fingerprint,
    stable_hash,
    sweep_fingerprint,
    telemetry_fingerprint,
)
from repro.experiments.sweeps import run_size_sweep
from repro.net.library import get_topology
from repro.obs.telemetry import telemetry_session
from repro.records import to_json
from repro.streaming.config import PeerClass
from repro.streaming.session import PeriodDirective, SwitchSession
from repro.workloads.library import get_universe, get_workload
from repro.workloads.runner import run_workload, run_workload_rep, workload_fingerprint

#: Frozen code-version stand-in: goldens must not rotate on version bumps.
GOLDEN_VERSION = "golden-v1"


def _golden_config(**overrides):
    base = dict(seed=7, max_time=80.0, old_stream_segments=400, lookahead=120)
    base.update(overrides)
    return make_session_config(40, **base)


def test_schema_version_is_pinned():
    """Key goldens below assume schema 1; bumping the schema must be a
    deliberate act that also refreshes every golden."""
    assert SCHEMA_VERSION == 1


# --------------------------------------------------------------------------- #
# store-key goldens
# --------------------------------------------------------------------------- #
def test_pair_fingerprint_golden():
    assert (
        pair_fingerprint(_golden_config(), version=GOLDEN_VERSION)
        == "pair-76bbae35bff1eab46ac57023"
    )


def test_pair_fingerprint_ignores_algorithm_and_engine():
    """The pair key covers both algorithms and must not depend on the
    execution engine (engines are bit-identical by contract)."""
    base = pair_fingerprint(_golden_config(), version=GOLDEN_VERSION)
    for override in (
        {"algorithm": "normal"},
        {"engine": "vector"},
    ):
        assert pair_fingerprint(_golden_config(**override), version=GOLDEN_VERSION) == base


def test_net_fingerprint_golden():
    assert (
        net_fingerprint(get_topology("metro"), version=GOLDEN_VERSION)
        == "net-c1f669f51aee33f59ff10450"
    )


def test_workload_fingerprint_golden():
    spec = get_workload("paper-baseline").scaled_to(30)
    assert (
        workload_fingerprint(spec, 3, version=GOLDEN_VERSION)
        == "workload-49d9c05eeb65eafe55a852fc"
    )


def test_universe_fingerprint_golden():
    spec = get_universe("lineup-mini").scaled_to(n_channels=3, n_viewers=60)
    assert (
        universe_fingerprint(spec, 5, version=GOLDEN_VERSION)
        == "universe-6f60949bdced2271ad303c16"
    )


def test_sweep_fingerprint_golden():
    key = sweep_fingerprint(
        [30, 40], dynamic=True, seed=3, repetitions=2,
        overrides={"max_time": 70.0, "topology": "metro"},
        pair_keys=["pair-abc", "pair-def"], version=GOLDEN_VERSION,
    )
    assert key == "sweep-c63502d9e5bf669010906c0f"


def test_telemetry_fingerprint_golden():
    run = {"kind": "run", "name": "run", "algorithm": "fast", "n_nodes": 40, "seed": 7}
    assert (
        telemetry_fingerprint(run, version=GOLDEN_VERSION)
        == "telemetry-2d0bce6ec498034d4a8a1840"
    )


# --------------------------------------------------------------------------- #
# document-content goldens (simulation behaviour pinned bit for bit)
# --------------------------------------------------------------------------- #
#: Paths the reference session does not reach: churn over a lossy, delayed
#: fabric; the simulated warm-up; bandwidth classes with a region pin (set-up
#: and joiners); a scripted environment.
_CHURN_WAN = dict(dynamic=True, topology="transcontinental")
_SIMULATED_WARMUP = dict(warmup="simulated", warmup_duration=20.0)
_CLASSES_PINNED = dict(
    dynamic=True,
    topology="metro",
    peer_classes=(
        PeerClass("adsl", 0.5, 10.0, 14.0, 11.0, 10.0, 14.0, 11.0, region="exurbs"),
        PeerClass("fiber", 0.5, 18.0, 33.0, 24.0, 18.0, 33.0, 24.0),
    ),
)
_SCRIPTED = dict(max_time=20.0, run_full_horizon=True, topology="metro")
#: Timelines whose period times are not whole seconds: a warm-up that is not
#: a multiple of ``tau`` (the switch lands between two periods), a short
#: ``tau``, and a horizon stop on it (34 periods, "time horizon reached").
_WARMUP_OFF_GRID = dict(warmup="simulated", warmup_duration=20.5)
_SHORT_TAU = dict(tau=0.3)
_SHORT_TAU_HORIZON = dict(tau=0.3, max_time=10.0, run_full_horizon=True)
_SCRIPT = {
    3: PeriodDirective(fail_fraction=0.15),
    5: PeriodDirective(leave_count=4, join_count=3),
    6: PeriodDirective(bandwidth_scale=0.5),
    8: PeriodDirective(bandwidth_scale=0.5, join_count=2),
}


@pytest.mark.parametrize(
    "algorithm,expected,overrides",
    [
        pytest.param("fast", "d8029d02f407d60bb31207cb", {},
                     id="fast-d8029d02f407d60bb31207cb"),
        pytest.param("normal", "cf480a4281437f11d87c1a09", {},
                     id="normal-cf480a4281437f11d87c1a09"),
        pytest.param("fast", "8ad189f0a3c4e07192acd149", _CHURN_WAN, id="fast-churn-wan"),
        pytest.param("normal", "7cd128982b53876d83ca4989", _CHURN_WAN, id="normal-churn-wan"),
        pytest.param("fast", "0527ebaf4e2b0f696774bb56", _SIMULATED_WARMUP,
                     id="fast-simulated-warmup"),
        pytest.param("normal", "3d13ee66cf2d0ead19cc0681", _SIMULATED_WARMUP,
                     id="normal-simulated-warmup"),
        pytest.param("fast", "9e3dd61d09d741abd0185b82", _CLASSES_PINNED,
                     id="fast-classes-region-pin"),
        pytest.param("normal", "9625c16be5641f7bf501acdd", _CLASSES_PINNED,
                     id="normal-classes-region-pin"),
        pytest.param("fast", "57215f346fbaaabf1f6a12c0", _SCRIPTED, id="fast-scripted"),
        pytest.param("normal", "184d5b2e8d1e6a770f038da4", _SCRIPTED, id="normal-scripted"),
        pytest.param("fast", "9f252e68b3c71779989501e8", _WARMUP_OFF_GRID,
                     id="fast-warmup-off-grid"),
        pytest.param("normal", "ea7905c5081e4c00ee932d9c", _WARMUP_OFF_GRID,
                     id="normal-warmup-off-grid"),
        pytest.param("fast", "dd84b71cef8f86a03846eff9", _SHORT_TAU, id="fast-short-tau"),
        pytest.param("normal", "80599f82f111da32c3c2c06b", _SHORT_TAU, id="normal-short-tau"),
        pytest.param("fast", "34e3f5f075b5a35d439724a5", _SHORT_TAU_HORIZON,
                     id="fast-short-tau-horizon"),
    ],
)
@pytest.mark.parametrize("engine", ["oracle", "vector"])
def test_run_document_content_golden(algorithm, expected, overrides, engine):
    """The normalised run document of the reference session -- and of the
    variants above -- is pinned under both engines, which by contract hash
    identically."""
    config = _golden_config(algorithm=algorithm, engine=engine, **overrides)
    directives = _SCRIPT if overrides is _SCRIPTED else None
    result = SwitchSession(config, directives=directives).run()
    assert stable_hash(normalized_run_document(result)) == expected


@pytest.mark.parametrize("engine", ["oracle", "vector"])
def test_probe_stream_content_golden(engine):
    """Probe output is pinned too, row order included: every lifecycle row
    (requested / assigned / scheduled / dropped / delivered, immediate and
    delayed / played / missed), the start-up funnel and the per-period
    health series of the churn-over-WAN session."""
    with telemetry_session(probes=True) as telemetry:
        SwitchSession(_golden_config(engine=engine, **_CHURN_WAN)).run()
    probes = telemetry.probes
    document = {"lifecycle": probes.lifecycle.rows(), "snapshot": probes.snapshot()}
    assert stable_hash(document) == "ceb53ce05f070f3953a11b76"


def test_workload_document_content_golden():
    spec = get_workload("paper-baseline").scaled_to(30)
    document = strip_volatile(to_json(run_workload_rep(spec, 3)))
    assert stable_hash(document) == "552569faa595b110607eb560"


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_store_content_golden(backend, tmp_path, monkeypatch):
    """What the four store-backed runners write, headers included: the
    ``kind`` stamp, ``workload`` / ``universe`` / ``seed`` / ``n_nodes`` /
    ``spec`` / ``net_key`` / ``aggregates`` / ``params`` and the envelope
    (``key``, ``schema``, ``code_version``) -- the same on both backends."""
    monkeypatch.setattr(repro, "__version__", GOLDEN_VERSION)
    store = open_store(tmp_path, backend=backend)
    run_pair(make_session_config(30, seed=2, max_time=60.0, topology="metro"), store=store)
    run_size_sweep([30], seed=2, overrides={"max_time": 60.0}, store=store)
    run_workload(
        get_workload("zapping").scaled_to(40).with_overrides(topology="metro"),
        seed=2, store=store,
    )
    run_universe(
        get_universe("lineup-mini").scaled_to(n_channels=3, n_viewers=36), seed=4, store=store
    )
    documents = [[key, strip_volatile(store.load(key))] for key in store.keys()]
    assert [key.split("-")[0] for key, _ in documents] == [
        "net", "pair", "pair", "sweep", "universe", "workload",
    ]
    assert stable_hash(documents) == "9b5dc440a888f0ba5cccbcf8"


# --------------------------------------------------------------------------- #
# CLI --json output goldens (key order included)
# --------------------------------------------------------------------------- #
#: Printed fields that differ between runs or hosts: wall-clock time, the
#: store path, store-write times and the document sizes that carry them.
_VOLATILE_OUTPUT_KEYS = frozenset({"wallclock (s)", "results_dir", "created", "size_bytes"})


def _stable_output(node):
    if isinstance(node, dict):
        return {k: _stable_output(v) for k, v in node.items() if k not in _VOLATILE_OUTPUT_KEYS}
    if isinstance(node, list):
        return [_stable_output(v) for v in node]
    return node


_SMALL = ["--seed", "2", "--max-time", "60"]
_UNIVERSE = ["universe", "compare", "lineup-mini", "--channels", "3", "--viewers", "36",
             "--results-dir", "{store}"]
_SWEEP = ["sweep", "--sizes", "30", *_SMALL, "--results-dir", "{store}"]


@pytest.mark.parametrize(
    "commands,expected",
    [
        pytest.param([["net", "show", "metro"]], "9d8e77b16122077129861506", id="net-show"),
        pytest.param([["run", "--n-nodes", "30", *_SMALL, "--topology", "metro"]],
                     "d21af423dc1fcdde677e67cb", id="run-topology"),
        pytest.param([["compare", "--n-nodes", "30", *_SMALL]],
                     "c4d02a7516169819dd8414e1", id="compare"),
        pytest.param([["workload", "compare", "paper-baseline", "--n-nodes", "30"]],
                     "c6e5f4ae3c9b54e4009618f1", id="workload-compare"),
        pytest.param([_UNIVERSE, [*_UNIVERSE, "--from-store"]],
                     "068d92b3306ed9e7c907b588", id="universe-compare-replay"),
        pytest.param([_SWEEP, _SWEEP, ["store", "ls", "--results-dir", "{store}"]],
                     "924b1c383216770cec7458fc", id="sweep-replay-ls"),
        pytest.param([["compare", "--n-nodes", "30", *_SMALL, "--topology", "metro"]],
                     "161e928487d166bfff884833", id="compare-regions"),
        pytest.param([["workload", "run", "zapping", "--n-nodes", "40"]],
                     "0116fa767bd0099a3fd826bb", id="workload-run-classes"),
        pytest.param([["figure", figure, "--sizes", "30", "--seed", "2"]
                      for figure in ("6", "7", "8")],
                     "36b677ab21b45c4d0f9a8d8c", id="figures-6-7-8"),
    ],
)
def test_cli_json_output_golden(commands, expected, tmp_path, capsys, monkeypatch):
    """Each command's ``--json`` stdout, volatile fields stripped, in print order."""
    monkeypatch.setattr(repro, "__version__", GOLDEN_VERSION)
    printed = []
    for argv in commands:
        assert main([arg.format(store=tmp_path) for arg in argv] + ["--json"]) == 0
        printed.append(_stable_output(json.loads(capsys.readouterr().out)))
    blob = json.dumps(printed, indent=2).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest()[:24] == expected
