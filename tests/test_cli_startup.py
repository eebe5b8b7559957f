"""The CLI configures only the command it runs, and survives a closed pipe."""

from __future__ import annotations

import subprocess
import sys

import pytest
from conftest import fresh_python_env

from repro.cli import _COMMANDS, _parser_for, build_parser
from repro.experiments.store import open_store

#: Every command and sub-command: valid, invalid choice, missing positional.
ARGV_SAMPLES = [
    ["figure", "7", "--sizes", "30", "--from-store", "--results-dir", "d"],
    ["figure", "99"],
    ["figure"],
    ["sweep", "--sizes", "30", "36", "--workers", "2", "--json"],
    ["sweep", "--workers", "0"],
    ["store", "ls", "--kind", "run", "--limit", "3", "--results-dir", "d"],
    ["store", "ls", "--kind", "nope"],
    ["store", "clear", "--store-backend", "sqlite"],
    ["store", "migrate", "--to", "sqlite", "--dest-dir", "e"],
    ["store", "migrate"],
    ["store"],
    ["run", "--n-nodes", "40", "--topology", "metro", "--engine", "oracle", "--probes"],
    ["run", "--engine", "nope"],
    ["compare", "--seed", "3", "--dynamic", "--json", "--trace-out", "t.json"],
    ["compare", "--topology", "nowhere"],
    ["workload", "ls", "--json"],
    ["workload", "run", "zapping", "--n-nodes", "60", "--repetitions", "2"],
    ["workload", "compare", "zapping", "--from-store"],
    ["workload", "run", "nope"],
    ["workload", "run"],
    ["workload"],
    ["universe", "ls"],
    ["universe", "run", "lineup-mini", "--channels", "3", "--viewers", "36",
     "--shards", "2", "--progress"],
    ["universe", "compare", "lineup-mini", "--json"],
    ["universe", "run", "nope"],
    ["universe", "compare"],
    ["net", "ls", "--json"],
    ["net", "show", "metro"],
    ["net", "show", "nowhere"],
    ["net", "show"],
    ["report", "--from-store", "--results-dir", "d", "--sizes", "30", "40"],
    ["report", "--sizes", "0"],
    ["explain", "telemetry-a", "telemetry-b", "--json", "--results-dir", "d"],
    ["explain", "--store-backend", "nope"],
    # Deleted commands (``run --probes`` / ``--trace-out`` and ``explain``
    # replace them) are an invalid choice to both parsers alike.
    ["scenario", "flash-crowd", "--compare"],
    ["scenario", "nope"],
    ["scenario"],
    ["trace", "overlay", "out.trace", "--n-nodes", "50"],
    ["trace", "overlay"],
    ["trace", "run", "--out", "t.json", "--algorithm", "normal"],
    ["trace", "run", "--algorithm", "slow"],
    ["probe", "--peer", "5", "--last", "3"],
    ["probe", "--last", "0"],
    ["--log-level", "debug", "net", "ls"],
    ["--log-level", "loud", "net", "ls"],
    ["--log", "info", "run", "--seed", "1"],  # an abbreviated global option
    ["net", "ls", "--bogus"],
    ["nope"],
    [],
]


def _parse(parser, argv, capsys):
    """``(namespace dict, None)`` or ``(exit code, what argparse printed)``."""
    try:
        return vars(parser.parse_args(argv)), None
    except SystemExit as exit:
        return exit.code, capsys.readouterr().err


@pytest.mark.parametrize("argv", ARGV_SAMPLES, ids=lambda argv: " ".join(argv) or "(empty)")
def test_the_one_command_parser_agrees_with_the_full_parser(argv, capsys):
    lazy, full = _parse(_parser_for(argv), argv, capsys), _parse(build_parser(), argv, capsys)
    assert lazy == full
    if full[1] is not None:
        assert full[0] == 2 and full[1].startswith("usage: ")


def test_every_command_is_covered_by_a_parity_sample():
    assert set(_COMMANDS) == {argv[0] for argv in ARGV_SAMPLES if argv and argv[0] in _COMMANDS}


def test_a_closed_pipe_ends_the_command_quietly(tmp_path):
    """``repro store ls --json | head -1``: no traceback, a non-zero exit status."""
    store = open_store(tmp_path)
    for index in range(800):  # ~170 KiB of listing: more than pipe and reader buffer hold
        store.save(f"net-{index:024d}", {"kind": "net", "topology": {"name": "metro"}})
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "store", "ls", "--json", "--results-dir", str(tmp_path)],
        env=fresh_python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline() == "[\n"
        child.stdout.close()  # what ``head -1`` does after the first line
        stderr = child.stderr.read()
        assert child.wait(timeout=60) == 1
    finally:
        child.kill()
        child.stderr.close()
    assert stderr == ""
