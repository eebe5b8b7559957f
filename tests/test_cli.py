"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.overlay.trace import parse_trace


def test_parser_knows_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["figure", "2"])
    assert args.command == "figure" and args.number == "2"
    args = parser.parse_args(["run", "--algorithm", "normal", "--n-nodes", "50"])
    assert args.algorithm == "normal" and args.n_nodes == 50
    args = parser.parse_args(["compare", "--dynamic"])
    assert args.dynamic is True
    args = parser.parse_args(["scenario", "video-conference"])
    assert args.name == "video-conference"
    args = parser.parse_args(["trace", "overlay", "out.trace", "--n-nodes", "77"])
    assert args.path == "out.trace" and args.n_nodes == 77
    args = parser.parse_args(["trace", "run", "--out", "t.json", "--n-nodes", "40"])
    assert args.trace_command == "run" and args.out == "t.json" and args.n_nodes == 40
    args = parser.parse_args(["sweep", "--sizes", "30", "40", "--workers", "4",
                              "--results-dir", "/tmp/r"])
    assert args.sizes == [30, 40] and args.workers == 4 and args.results_dir == "/tmp/r"
    args = parser.parse_args(["figure", "7", "--from-store", "--results-dir", "/tmp/r"])
    assert args.from_store is True
    args = parser.parse_args(["store", "ls", "--results-dir", "/tmp/r"])
    assert args.store_command == "ls"
    args = parser.parse_args(["store", "clear", "--results-dir", "/tmp/r"])
    assert args.store_command == "clear"
    args = parser.parse_args(["workload", "ls"])
    assert args.workload_command == "ls"
    args = parser.parse_args(["workload", "run", "zapping", "--workers", "2",
                              "--repetitions", "3", "--n-nodes", "40",
                              "--results-dir", "/tmp/r", "--from-store"])
    assert args.workload_command == "run" and args.name == "zapping"
    assert args.workers == 2 and args.repetitions == 3 and args.from_store
    args = parser.parse_args(["workload", "compare", "flash-crowd"])
    assert args.workload_command == "compare" and args.name == "flash-crowd"
    args = parser.parse_args(["scenario", "video-conference", "--compare",
                              "--results-dir", "/tmp/r"])
    assert args.compare and args.results_dir == "/tmp/r"


def test_figure2_command_prints_table(capsys):
    assert main(["figure", "2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "normal" in out and "fast" in out


def test_figure2_command_json_output(capsys):
    assert main(["figure", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure"] == "2"
    assert len(payload["rows"]) == 2


def test_run_command_small_simulation(capsys):
    code = main(["run", "--n-nodes", "36", "--seed", "2", "--max-time", "70", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "fast"
    assert payload["tracked peers"] == 34
    assert payload["avg switch time (s)"] > 0


def test_compare_command_reports_reduction(capsys):
    code = main(["compare", "--n-nodes", "36", "--seed", "2", "--max-time", "70", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "switch_time_reduction" in payload
    assert payload["n_peers"] == 34


def test_trace_overlay_command_writes_parseable_file(tmp_path, capsys):
    target = tmp_path / "synthetic.trace"
    assert main(["trace", "overlay", str(target), "--n-nodes", "60", "--seed", "3"]) == 0
    assert "wrote 60 records" in capsys.readouterr().out
    records = parse_trace(target)
    assert len(records) == 60


def test_trace_run_command_writes_chrome_trace(tmp_path, capsys):
    target = tmp_path / "run.trace.json"
    argv = ["trace", "run", "--out", str(target), "--n-nodes", "36",
            "--seed", "2", "--max-time", "70", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["events"] > 0
    assert "period.decide" in payload["spans"]
    document = json.loads(target.read_text(encoding="utf-8"))
    assert document["traceEvents"] and document["displayTimeUnit"] == "ms"
    phases = {event["ph"] for event in document["traceEvents"]}
    assert "X" in phases


def test_run_with_telemetry_persists_document_and_identical_metrics(
        tmp_path, capsys):
    argv = ["run", "--n-nodes", "36", "--seed", "2", "--max-time", "70", "--json"]
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    store_dir = tmp_path / "results"
    assert main(argv + ["--telemetry", "--results-dir", str(store_dir)]) == 0
    instrumented = json.loads(capsys.readouterr().out)
    # telemetry never changes results (wallclock is a measurement, not a result)
    plain.pop("wallclock (s)"), instrumented.pop("wallclock (s)")
    assert instrumented == plain
    from repro.experiments.store import ResultStore

    store = ResultStore(store_dir)
    keys = [key for key in store.keys() if key.startswith("telemetry-")]
    assert len(keys) == 1
    document = store.load(keys[0], "telemetry")
    assert document["kind"] == "telemetry"
    assert document["spans"]["period.decide"]["count"] > 0


def test_unknown_figure_number_rejected_by_parser():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "99"])


def test_sweep_command_runs_and_persists(tmp_path, capsys):
    store_dir = tmp_path / "results"
    argv = ["sweep", "--sizes", "30", "--seed", "2", "--max-time", "70",
            "--results-dir", str(store_dir), "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert [row["n_nodes"] for row in first["rows"]] == [30]
    assert first["rows"][0]["normal_switch_time"] == first["rows"][0]["normal_prepare_new"]
    # pair + aggregated sweep entry on disk (excluding metadata sidecars)
    def documents(pattern):
        return [p for p in store_dir.glob(pattern) if not p.name.endswith(".meta.json")]

    assert len(documents("pair-*.json")) == 1
    assert len(documents("sweep-*.json")) == 1

    # The repeated invocation replays from the store: identical rows, and no
    # simulation (run_single would explode if called).
    import repro.experiments.runner as runner_module

    def _boom(config):
        raise AssertionError("simulated despite a warm store")

    original = runner_module.run_single
    runner_module.run_single = _boom
    try:
        assert main(argv) == 0
    finally:
        runner_module.run_single = original
    second = json.loads(capsys.readouterr().out)
    assert second["rows"] == first["rows"]


def test_figure_from_store_requires_populated_store(tmp_path, capsys):
    store_dir = tmp_path / "results"
    argv_missing = ["figure", "7", "--sizes", "30", "--seed", "2",
                    "--from-store", "--results-dir", str(store_dir)]
    assert main(argv_missing) == 1
    assert "not in the store" in capsys.readouterr().err
    assert not store_dir.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--n-nodes", "3"],
    ["compare", "--n-nodes", "3"],
    ["probe", "--n-nodes", "3"],
    ["trace", "run", "--n-nodes", "3", "--out", "{tmp}/trace.json"],
    ["sweep", "--sizes", "3", "--results-dir", "{tmp}/results"],
    ["figure", "7", "--sizes", "3"],
    ["report", "--sizes", "3", "--n-nodes", "3", "--out", "{tmp}/report",
     "--results-dir", "{tmp}/results"],
], ids=["run", "compare", "probe", "trace-run", "sweep", "figure", "report"])
def test_a_size_the_simulator_rejects_is_one_error_line(argv, tmp_path, capsys):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: need at least min_degree + 2 = 7 nodes, got 3"]
    assert "Traceback" not in err


def test_store_ls_and_clear_commands(tmp_path, capsys):
    store_dir = tmp_path / "results"
    assert main(["sweep", "--sizes", "30", "--seed", "2", "--max-time", "70",
                 "--results-dir", str(store_dir)]) == 0
    capsys.readouterr()
    assert main(["store", "ls", "--results-dir", str(store_dir), "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert sorted(e["kind"] for e in entries) == ["pair", "sweep"]
    assert main(["store", "clear", "--results-dir", str(store_dir)]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert main(["store", "ls", "--results-dir", str(store_dir)]) == 0
    assert "empty" in capsys.readouterr().out


def test_store_command_without_results_dir_errors(monkeypatch):
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    with pytest.raises(SystemExit):
        main(["store", "ls"])


@pytest.mark.parametrize("backend", ["json", "sqlite"])
@pytest.mark.parametrize("argv", [
    ["store", "ls"],
    ["store", "clear"],
    ["store", "migrate", "--to", "sqlite", "--dest-dir", "{tmp}/dest"],
    ["report", "--from-store", "--out", "{tmp}/report"],
], ids=["store-ls", "store-clear", "store-migrate", "report-from-store"])
def test_commands_that_cannot_write_never_create_a_store(argv, backend, tmp_path):
    """A mistyped --results-dir is an error, not an empty store -- and stays absent."""
    missing = tmp_path / "no" / "such" / "dir"
    argv = [word.replace("{tmp}", str(tmp_path)) for word in argv]
    with pytest.raises(SystemExit) as exit:
        main(argv + ["--results-dir", str(missing), "--store-backend", backend])
    assert exit.value.code == f"error: no results store at {missing}"  # status 1, on stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == []


def test_workload_ls_lists_the_library(capsys):
    assert main(["workload", "ls", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in rows}
    assert {"zapping", "flash-crowd", "paper-baseline"} <= names
    zapping = next(row for row in rows if row["name"] == "zapping")
    assert zapping["switches"] == 4
    assert "zap-1" in zapping["phases"]


def test_workload_run_persists_and_replays(tmp_path, capsys, monkeypatch):
    store_dir = tmp_path / "results"
    argv = ["workload", "run", "zapping", "--n-nodes", "40", "--seed", "2",
            "--results-dir", str(store_dir), "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["workload"] == "zapping"
    assert first["n_switches"] == 4
    assert first["simulated"] == 1 and first["replayed"] == 0
    assert [row["switch"] for row in first["switch_rows"]] == [1, 2, 3, 4]
    assert {row["class"] for row in first["class_rows"]} == {"adsl", "cable", "fiber"}

    # The repeated invocation replays from the store without simulating.
    import repro.workloads.runner as runner_module

    def _boom(spec, seed):
        raise AssertionError("simulated despite a warm store")

    monkeypatch.setattr(runner_module, "run_workload_rep", _boom)
    assert main(argv + ["--from-store"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["replayed"] == 1 and second["simulated"] == 0
    assert second["switch_rows"] == first["switch_rows"]
    assert second["class_rows"] == first["class_rows"]
    assert second["phase_rows"] == first["phase_rows"]


def test_workload_compare_prints_reduction(tmp_path, capsys):
    store_dir = tmp_path / "results"
    assert main(["workload", "compare", "paper-baseline", "--n-nodes", "40",
                 "--results-dir", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "mean switch-time reduction:" in out
    assert "per-phase playback quality" not in out  # compare prints only the comparison


def test_workload_from_store_requires_populated_store(tmp_path, capsys):
    argv = ["workload", "run", "zapping", "--from-store",
            "--results-dir", str(tmp_path / "empty")]
    assert main(argv) == 1
    assert "not in the store" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


def test_scenario_from_store_requires_populated_store(tmp_path, capsys):
    argv = ["scenario", "video-conference", "--from-store",
            "--results-dir", str(tmp_path / "empty")]
    assert main(argv) == 1
    assert "not in the store" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


def test_parser_knows_universe_subcommands():
    parser = build_parser()
    args = parser.parse_args(["universe", "ls"])
    assert args.universe_command == "ls"
    args = parser.parse_args(["universe", "run", "lineup-zipf", "--workers", "4",
                              "--channels", "8", "--viewers", "200",
                              "--repetitions", "2", "--results-dir", "/tmp/r",
                              "--from-store", "--json"])
    assert args.universe_command == "run" and args.name == "lineup-zipf"
    assert args.workers == 4 and args.channels == 8 and args.viewers == 200
    assert args.from_store and args.json
    args = parser.parse_args(["universe", "compare", "lineup-mini"])
    assert args.universe_command == "compare" and args.name == "lineup-mini"


def test_universe_ls_lists_the_library(capsys):
    assert main(["universe", "ls", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in rows}
    assert {"lineup-zipf", "prime-time", "lineup-mini"} <= names
    zipf = next(row for row in rows if row["name"] == "lineup-zipf")
    assert zipf["channels"] == 20 and zipf["viewers"] == 1000


def test_universe_run_persists_and_replays(tmp_path, capsys, monkeypatch):
    store_dir = tmp_path / "results"
    argv = ["universe", "run", "lineup-mini", "--channels", "3", "--viewers", "30",
            "--seed", "4", "--results-dir", str(store_dir), "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["universe"] == "lineup-mini"
    assert first["n_channels"] == 3 and first["n_viewers"] == 30
    assert first["simulated"] == 1 and first["replayed"] == 0
    assert len(first["channel_rows"]) == 3
    assert first["decile_rows"]

    # The repeated invocation replays from the store without simulating.
    import repro.channels.runner as runner_module

    def _boom(spec, seed):
        raise AssertionError("simulated despite a warm store")

    monkeypatch.setattr(runner_module, "run_universe_rep", _boom)
    assert main(argv + ["--from-store"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["replayed"] == 1 and second["simulated"] == 0
    assert second["channel_rows"] == first["channel_rows"]
    assert second["decile_rows"] == first["decile_rows"]


def test_universe_compare_json_is_decile_focused(tmp_path, capsys):
    argv = ["universe", "compare", "lineup-mini", "--channels", "3",
            "--viewers", "30", "--results-dir", str(tmp_path / "r"), "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "decile_rows" in payload and "mean_reduction" in payload
    assert "channel_rows" not in payload


def test_universe_from_store_requires_populated_store(tmp_path, capsys):
    argv = ["universe", "run", "lineup-mini", "--from-store",
            "--results-dir", str(tmp_path / "empty")]
    assert main(argv) == 1
    assert "not in the store" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


def test_workload_compare_json_is_switch_focused(tmp_path, capsys):
    argv = ["workload", "compare", "paper-baseline", "--n-nodes", "40",
            "--results-dir", str(tmp_path / "r"), "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "paper-baseline"
    assert "mean_reduction" in payload and "switch_rows" in payload
    assert "class_rows" not in payload and "phase_rows" not in payload


def test_version_flag_prints_package_version(capsys):
    from repro.cli import _package_version

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert _package_version() in out
    assert "repro-gossip" in out


def test_parser_knows_net_subcommands_and_topology_flags():
    parser = build_parser()
    args = parser.parse_args(["net", "ls"])
    assert args.command == "net" and args.net_command == "ls"
    args = parser.parse_args(["net", "show", "transcontinental"])
    assert args.net_command == "show" and args.name == "transcontinental"
    args = parser.parse_args(["run", "--topology", "metro"])
    assert args.topology == "metro"
    args = parser.parse_args(["compare", "--topology", "transcontinental"])
    assert args.topology == "transcontinental"
    args = parser.parse_args(["workload", "run", "zapping", "--topology", "metro"])
    assert args.topology == "metro"
    args = parser.parse_args(["universe", "run", "lineup-mini",
                              "--topology", "transcontinental"])
    assert args.topology == "transcontinental"
    args = parser.parse_args(["scenario", "video-conference", "--topology", "metro"])
    assert args.topology == "metro"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--topology", "atlantis"])


def test_net_ls_lists_library(capsys):
    assert main(["net", "ls"]) == 0
    out = capsys.readouterr().out
    assert "metro" in out and "transcontinental" in out


def test_net_ls_json(capsys):
    assert main(["net", "ls", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in rows}
    assert {"metro", "transcontinental"} <= names


def test_net_show_prints_matrix(capsys):
    assert main(["net", "show", "transcontinental"]) == 0
    out = capsys.readouterr().out
    assert "latency matrix" in out
    assert "na-east" in out and "asia" in out
    assert "locality_bias: 4.0" in out


def test_net_show_json_round_trips(capsys):
    from repro.net.library import get_topology
    from repro.net.topology import NetTopology
    from repro.records import from_json

    assert main(["net", "show", "metro", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert from_json(NetTopology, payload) == get_topology("metro")


def test_run_command_with_topology_reports_net_stats(capsys):
    argv = ["run", "--n-nodes", "40", "--seed", "3", "--max-time", "40",
            "--topology", "metro", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["net messages"] > 0
    assert payload["avg switch time (s)"] > 0


def test_compare_command_with_topology_reports_regions(capsys):
    argv = ["compare", "--n-nodes", "40", "--seed", "3", "--max-time", "40",
            "--topology", "metro", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["topology"] == "metro"
    regions = {row["region"] for row in payload["regions"]}
    assert regions <= {"core", "suburbs", "exurbs"}
    assert len(regions) >= 1


def test_universe_run_with_topology_persists_net_document(tmp_path, capsys):
    results = tmp_path / "results"
    argv = ["universe", "run", "lineup-mini", "--channels", "3", "--viewers", "36",
            "--topology", "metro", "--results-dir", str(results), "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["topology"] == "metro"
    from repro.experiments.store import ResultStore

    store = ResultStore(results)
    assert any(key.startswith("net-") for key in store.keys())


# --------------------------------------------------------------------------- #
# sharded runtime, store backends
# --------------------------------------------------------------------------- #
def test_parser_knows_dist_and_backend_flags():
    parser = build_parser()
    args = parser.parse_args(["universe", "run", "lineup-mini", "--shards", "4",
                              "--workers", "2", "--store-backend", "sqlite",
                              "--results-dir", "/tmp/r"])
    assert args.shards == 4 and args.store_backend == "sqlite"
    args = parser.parse_args(["store", "ls", "--results-dir", "/tmp/r",
                              "--limit", "3", "--kind", "run"])
    assert args.limit == 3 and args.kind == "run"
    args = parser.parse_args(["store", "migrate", "--results-dir", "/tmp/r",
                              "--to", "sqlite", "--dest-dir", "/tmp/d"])
    assert args.to_backend == "sqlite" and args.dest_dir == "/tmp/d"


def test_universe_run_sharded_on_sqlite_persists_and_replays(tmp_path, capsys):
    store_dir = tmp_path / "results"
    argv = ["universe", "run", "lineup-mini", "--channels", "3", "--viewers", "30",
            "--seed", "4", "--repetitions", "2", "--shards", "4", "--workers", "2",
            "--store-backend", "sqlite", "--results-dir", str(store_dir), "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["simulated"] == 2 and first["replayed"] == 0
    assert (store_dir / "store.sqlite").exists()
    assert not (store_dir / "journal").exists()  # discarded on success
    assert main(argv + ["--from-store"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["replayed"] == 2 and second["simulated"] == 0
    assert second["channel_rows"] == first["channel_rows"]


def test_store_ls_kind_and_limit_flags(tmp_path, capsys):
    store_dir = tmp_path / "results"
    assert main(["sweep", "--sizes", "30", "--seed", "2", "--max-time", "70",
                 "--results-dir", str(store_dir)]) == 0
    capsys.readouterr()
    assert main(["store", "ls", "--results-dir", str(store_dir),
                 "--kind", "run", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert [e["kind"] for e in entries] == ["pair"]  # "run" aliases "pair"
    assert main(["store", "ls", "--results-dir", str(store_dir),
                 "--limit", "1", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1
    assert main(["store", "ls", "--results-dir", str(store_dir),
                 "--kind", "universe", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_store_migrate_between_backends(tmp_path, capsys):
    store_dir = tmp_path / "results"
    assert main(["sweep", "--sizes", "30", "--seed", "2", "--max-time", "70",
                 "--results-dir", str(store_dir)]) == 0
    capsys.readouterr()
    # json -> sqlite in place, then ls through the sqlite backend
    assert main(["store", "migrate", "--results-dir", str(store_dir),
                 "--to", "sqlite"]) == 0
    assert "migrated 2 document(s)" in capsys.readouterr().out
    assert main(["store", "ls", "--results-dir", str(store_dir),
                 "--store-backend", "sqlite", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert sorted(e["kind"] for e in entries) == ["pair", "sweep"]
    # migrating a store onto itself is refused
    assert main(["store", "migrate", "--results-dir", str(store_dir),
                 "--to", "json"]) == 1


# --------------------------------------------------------------------------- #
# protocol probes: the `probe` command, `run --probes`, live progress
# --------------------------------------------------------------------------- #
def test_parser_knows_probe_and_progress_flags():
    parser = build_parser()
    args = parser.parse_args(["probe", "--n-nodes", "60", "--peer", "5",
                              "--seg", "100", "--last", "10", "--json"])
    assert args.command == "probe" and args.peer == 5 and args.seg == 100
    assert args.last == 10 and args.json
    args = parser.parse_args(["run", "--probes", "--results-dir", "/tmp/r"])
    assert args.probes is True
    args = parser.parse_args(["universe", "run", "lineup-mini", "--shards", "2",
                              "--progress", "--results-dir", "/tmp/r"])
    assert args.progress is True


def test_probe_command_prints_lifecycle_funnel_and_health(capsys):
    assert main(["probe", "--n-nodes", "36", "--seed", "2",
                 "--max-time", "70"]) == 0
    out = capsys.readouterr().out
    assert "segment lifecycle:" in out
    assert "requested" in out and "delivered" in out and "played" in out
    assert "startup funnel:" in out and "playback_mean_s" in out
    assert "swarm health" in out and "fill_p50" in out


def test_probe_command_peer_timeline(capsys):
    assert main(["probe", "--n-nodes", "36", "--seed", "2", "--max-time", "70",
                 "--peer", "5", "--last", "5"]) == 0
    out = capsys.readouterr().out
    assert "segment lifecycle of peer 5" in out
    assert "(5 of" in out and "newest last" in out
    assert "t_sim" in out and "supplier" in out and "wire_bits" in out
    # a peer outside the overlay has no recorded events
    assert main(["probe", "--n-nodes", "36", "--seed", "2", "--max-time", "70",
                 "--peer", "999"]) == 0
    assert "no lifecycle events recorded for peer 999" in capsys.readouterr().out


def test_probe_command_json_snapshot(capsys):
    assert main(["probe", "--n-nodes", "36", "--seed", "2", "--max-time", "70",
                 "--peer", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["enabled"] is True
    assert payload["lifecycle"]["events"] > 0
    assert payload["health"]["periods"] > 0
    assert payload["funnel"]["peers"] == 34
    assert payload["timeline"][0]["peer"] == 5


def test_run_probes_flag_persists_the_probes_block(tmp_path, capsys):
    from repro.experiments.store import ResultStore

    store_dir = tmp_path / "results"
    assert main(["run", "--n-nodes", "36", "--seed", "2", "--max-time", "70",
                 "--probes", "--results-dir", str(store_dir), "--json"]) == 0
    capsys.readouterr()
    store = ResultStore(store_dir)
    keys = [key for key in store.keys() if key.startswith("telemetry-")]
    assert len(keys) == 1
    probes = store.load(keys[0], "telemetry")["probes"]
    assert probes["enabled"] is True
    assert probes["lifecycle"]["events"] > 0
    assert probes["health"]["periods"] > 0


def test_universe_run_progress_prints_live_status(tmp_path, capsys):
    store_dir = tmp_path / "results"
    assert main(["universe", "run", "lineup-mini", "--channels", "3",
                 "--viewers", "30", "--seed", "4", "--repetitions", "1",
                 "--shards", "2", "--workers", "2", "--progress",
                 "--results-dir", str(store_dir), "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["simulated"] == 1
    lines = [l for l in captured.err.splitlines() if l.startswith("[shards]")]
    assert lines, "no progress lines on stderr"
    assert lines[0].startswith("[shards] 0/2 done")
    assert lines[-1].startswith("[shards] 2/2 done | all shards finished")


def test_trace_overflow_warning_is_one_loud_line(capsys):
    from repro.cli import _warn_trace_overflow

    class _Tracer:
        dropped = 5

        def events(self):
            return [{}] * 3

    class _Telemetry:
        tracer = _Tracer()

    _warn_trace_overflow(_Telemetry())
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "5 events were dropped" in err
    assert "max_trace_events" in err  # the fix-it hint
    # silent when nothing was dropped
    _Telemetry.tracer.dropped = 0
    _warn_trace_overflow(_Telemetry())
    assert capsys.readouterr().err == ""
