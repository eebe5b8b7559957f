"""The figure table, universe figures and the HTML report.

Everything here runs at miniature scale against one module-scoped warm
store: the table's completeness and kwargs routing, the sketch-backed
universe figures' aggregate-only data path (pinned by poisoning the raw
outcome table), serial-vs-sharded bit-identity of the universe figures,
and the report's warm-replay determinism.
"""

import inspect
import json

import pytest

from repro.channels.runner import run_universe, universe_fingerprint
from repro.channels.universe import UniverseSpec
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import clear_sweep_cache
from repro.figures import (
    FIGURES,
    FigureUnavailable,
    get_figure,
    render_figure,
    render_report,
)

TINY_SIZES = [30]
TINY_UNIVERSE = UniverseSpec(
    name="lineup-mini", n_channels=3, n_viewers=36, duration=25.0
)

#: One uniform kwargs set for every figure -- what the report passes.
RENDER_KWARGS = dict(seed=0, sizes=TINY_SIZES, n_nodes=36, repetitions=1, workers=1)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


def _persist_probed_run(store):
    """One probed scalar session, persisted as a telemetry document --
    the data source of the probe-backed figures."""
    from repro.experiments.config import make_session_config
    from repro.experiments.runner import run_single
    from repro.experiments.store import persist_telemetry_document
    from repro.obs import telemetry_session

    with telemetry_session(probes=True) as telemetry:
        run_single(make_session_config(36, seed=0, max_time=60.0))
    persist_telemetry_document(
        store,
        run={"kind": "run", "name": "probe-fixture", "seed": 0},
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store holding a serial universe run plus every simulation figure."""
    root = tmp_path_factory.mktemp("warm-store")
    store = ResultStore(root)
    run_universe(TINY_UNIVERSE, seed=0, repetitions=2, store=store)
    _persist_probed_run(store)
    clear_sweep_cache()
    for name in FIGURES:
        render_figure(name, store=store, **RENDER_KWARGS)
    clear_sweep_cache()
    return store


def figure_json(result):
    """Canonical JSON of a figure's data (what determinism asserts on)."""
    return json.dumps(
        {
            "rows": result.rows,
            "series": {k: list(map(list, v)) for k, v in result.series.items()},
            "meta": result.meta,
        },
        sort_keys=True,
    )


#: What each family's builders take: the keyword surface render_figure
#: routes out of the uniform set, read off the builders' signatures.
TRACK_KEYWORDS = {"n_nodes", "seed", "paper_scale", "max_time", "store"}
SWEEP_KEYWORDS = {"sizes", "seed", "repetitions", "paper_scale", "store", "workers"}
KEYWORDS = {
    "fig2-ordering": set(),
    **dict.fromkeys(["fig5-ratio-static", "fig9-ratio-dynamic"], TRACK_KEYWORDS),
    **dict.fromkeys(["fig6-times-static", "fig7-switch-static", "fig8-overhead-static",
                     "fig10-times-dynamic", "fig11-switch-dynamic", "fig12-overhead-dynamic"],
                    SWEEP_KEYWORDS),
    **dict.fromkeys(["universe-deciles", "universe-percentiles", "universe-summary"],
                    {"store", "universe"}),
    **dict.fromkeys(["probe-swarm-health", "probe-startup-funnel"], {"store"}),
}


class TestRegistry:
    def test_covers_all_paper_figures_and_universe_figures(self):
        ids = [spec.figure_id for spec in FIGURES.values()]
        assert ids[:9] == ["2", "5", "6", "7", "8", "9", "10", "11", "12"]
        # Three sketch-backed universe figures, then two probe-backed ones.
        assert list(FIGURES)[9:] == [
            "universe-deciles", "universe-percentiles", "universe-summary",
            "probe-swarm-health", "probe-startup-funnel",
        ]

    def test_builder_signatures_are_the_keyword_surface(self):
        assert set(FIGURES) == set(KEYWORDS)
        for name, spec in FIGURES.items():
            assert set(inspect.signature(spec.builder).parameters) == KEYWORDS[name], name

    def test_get_figure_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="fig7-switch-static"):
            get_figure("no-such-figure")

    def test_render_filters_kwargs_to_the_declared_surface(self):
        # fig2's builder takes no argument: the uniform kwargs soup must
        # not leak into it.
        result = render_figure("fig2-ordering", store=None, **RENDER_KWARGS)
        assert result.figure_id == "2"

    def test_render_drops_none_values_so_defaults_apply(self):
        result = render_figure("fig7-switch-static", sizes=TINY_SIZES,
                               n_nodes=None, store=None, paper_scale=None)
        assert [row["n_nodes"] for row in result.rows] == TINY_SIZES


class TestUniverseFigures:
    def test_need_a_store(self):
        with pytest.raises(FigureUnavailable, match="results store"):
            render_figure("universe-summary")

    def test_empty_store_reports_no_documents(self, tmp_path):
        with pytest.raises(FigureUnavailable, match="no universe documents"):
            render_figure("universe-summary", store=ResultStore(tmp_path))

    def test_unknown_universe_filter_reports_scope(self, warm_store):
        with pytest.raises(FigureUnavailable, match="'nope'"):
            render_figure("universe-summary", store=warm_store, universe="nope")

    def test_summary_shape(self, warm_store):
        result = render_figure("universe-summary", store=warm_store)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["universe"] == "lineup-mini"
        assert row["reps"] == 2
        assert row["samples"] > 0
        assert row["fast_mean"] < row["normal_mean"]
        assert row["normal_p50"] <= row["normal_p90"] <= row["normal_p99"]

    def test_percentile_curves_are_monotone(self, warm_store):
        result = render_figure("universe-percentiles", store=warm_store)
        for algorithm in ("normal", "fast"):
            values = [v for _, v in result.series[algorithm]]
            assert values == sorted(values)

    def test_deciles_cover_the_lineup(self, warm_store):
        result = render_figure("universe-deciles", store=warm_store)
        assert len(result.rows) == TINY_UNIVERSE.n_channels
        assert sum(row["viewers"] for row in result.rows) > 0

    def test_reads_only_aggregates_never_raw_outcomes(self, warm_store, tmp_path):
        """Poison every document's raw outcome table: figures must not notice.

        This is the O(channels x percentiles) guarantee -- universe figures
        render from the sketch-aggregate block alone, so a million-viewer
        outcome table is never even deserialised into row objects.
        """
        poisoned = ResultStore(tmp_path / "poisoned")
        baseline = {}
        for key in warm_store.keys():
            document = warm_store.load(key)
            if document.get("kind") != "universe" or "aggregates" not in document:
                continue
            document = dict(document)
            document["rep"] = {"poison": "raw outcomes must never be read"}
            poisoned.save(key, document)
        for name in ("universe-deciles", "universe-percentiles", "universe-summary"):
            baseline[name] = figure_json(render_figure(name, store=warm_store))
            assert figure_json(render_figure(name, store=poisoned)) == baseline[name]

    def test_documents_without_aggregates_explain_the_upgrade(self, warm_store, tmp_path):
        legacy = ResultStore(tmp_path / "legacy")
        for key in warm_store.keys():
            document = warm_store.load(key)
            if document.get("kind") != "universe" or "aggregates" not in document:
                continue
            document = dict(document)
            del document["aggregates"]
            legacy.save(key, document)
        with pytest.raises(FigureUnavailable, match="re-run the universe"):
            render_figure("universe-summary", store=legacy)

    def test_serial_and_sharded_runs_render_identically(self, warm_store, tmp_path):
        """The acceptance criterion: figures from a --shards 2 store are
        bit-identical to the serial store's."""
        sharded = ResultStore(tmp_path / "sharded")
        run_universe(TINY_UNIVERSE, seed=0, repetitions=2, store=sharded,
                     workers=2, shards=2)
        key = universe_fingerprint(TINY_UNIVERSE, 0)
        serial_doc = dict(warm_store.load(key))
        sharded_doc = dict(sharded.load(key))
        serial_doc.pop("created", None)  # the only allowed difference
        sharded_doc.pop("created", None)
        assert json.dumps(serial_doc, sort_keys=True) == \
            json.dumps(sharded_doc, sort_keys=True)
        for name in ("universe-deciles", "universe-percentiles", "universe-summary"):
            assert figure_json(render_figure(name, store=warm_store)) == \
                figure_json(render_figure(name, store=sharded))


class TestReport:
    def test_renders_every_registered_figure_from_the_warm_store(self, warm_store, tmp_path):
        summary = render_report(warm_store, tmp_path / "report", **RENDER_KWARGS)
        assert summary.rendered == list(FIGURES)
        assert summary.skipped == {}
        html = summary.html_path.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        for name in FIGURES:
            assert name in html
            payload = json.loads((tmp_path / "report" / "data" / f"{name}.json")
                                 .read_text(encoding="utf-8"))
            assert payload["name"] == name
            assert payload["rows"] or payload["series"]
        assert "<svg" in html and "<table>" in html

    def test_warm_replay_is_byte_identical(self, warm_store, tmp_path):
        first = render_report(warm_store, tmp_path / "one", **RENDER_KWARGS)
        second = render_report(warm_store, tmp_path / "two", **RENDER_KWARGS)
        assert first.html_path.read_bytes() == second.html_path.read_bytes()
        for left, right in zip(first.data_files, second.data_files):
            assert left.read_bytes() == right.read_bytes()

    def test_replay_only_store_skips_missing_figures_gracefully(self, tmp_path):
        store = ResultStore(tmp_path / "empty-store", replay_only=True)
        summary = render_report(store, tmp_path / "report")
        assert summary.rendered == ["fig2-ordering"]
        assert set(summary.skipped) == set(FIGURES) - {"fig2-ordering"}
        html = summary.html_path.read_text(encoding="utf-8")
        assert "Skipped figures" in html


class TestReportCLI:
    def test_report_command_end_to_end(self, warm_store, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli-report"
        code = main([
            "report",
            "--results-dir", str(warm_store.root),
            "--from-store",
            "--out", str(out),
            "--sizes", "30",
            "--n-nodes", "36",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["skipped"] == {}
        assert sorted(payload["rendered"]) == sorted(FIGURES)
        assert (out / "report.html").stat().st_size > 0
