"""The documents agree with the tables they describe.

* The store-kinds table of docs/architecture.md ("One table of kinds")
  names, per document kind, the functions that write such a document:
  every row's kind is a row of ``repro.experiments.store.KINDS`` (and
  every kind has a row), and every function a row names is a callable
  some ``repro`` module defines.
* The package diagram of docs/architecture.md ("Package layers") names
  every package under ``src/repro/`` and no other.
* Every ``repro <command>`` line of README.md, docs/architecture.md and the
  verify skill names a command of the CLI's one table (``_COMMANDS``), and
  ``tools/reach.py`` drives every command of that table and no other.
* Every counter of the "Metric names" table is a string literal of the
  source, and every counter a telemetry-on lossy-edge run records is a row.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.cli import _COMMANDS
from repro.experiments.store import KINDS

ROOT = Path(__file__).resolve().parents[1]
_ROW = re.compile(r"^\| `(\w+)` \| [^|]+ \| (.+) \|$")


def _store_kind_rows():
    """``kind -> producer names`` from the table under "One table of kinds"."""
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = text[text.index("**One table of kinds.**"):].split("\n\n")[1]
    rows = {}
    for line in section.splitlines():
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = re.findall(r"`(\w+)`", match.group(2))
    return rows


def _repro_callables():
    """Every public callable any ``repro`` module defines, by name."""
    names = set()
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        loaded = importlib.import_module(module.name)
        names.update(name for name, value in vars(loaded).items()
                     if callable(value) and getattr(value, "__module__", None) == module.name)
    return names


def test_store_kinds_table_matches_kinds_and_names_real_producers():
    rows = _store_kind_rows()
    assert set(rows) == set(KINDS)
    callables = _repro_callables()
    for kind, producers in rows.items():
        assert producers, f"row {kind!r} names no producer"
        assert set(producers) <= callables, (kind, set(producers) - callables)


def _metric_names():
    """The counter names of the "Metric names" table of docs/architecture.md."""
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    table = text[text.index("### Metric names"):].split("\n\n")[1]
    return {name for line in table.splitlines()[2:]
            for name in re.findall(r"`([\w.]+)`", line.split("|")[1])}


def test_metric_names_table_matches_the_counters_the_code_records():
    from repro.experiments.config import make_session_config
    from repro.experiments.runner import run_single
    from repro.obs import telemetry_session

    names = _metric_names()
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in (ROOT / "src" / "repro").rglob("*.py"))
    assert sorted(name for name in names if f'"{name}"' not in source) == []
    with telemetry_session() as telemetry:
        run_single(make_session_config(60, seed=2, max_time=70.0, topology="lossy-edge"))
    assert telemetry.counters and sorted(set(telemetry.counters) - names) == []


def test_package_diagram_names_every_package_and_no_other():
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = text[text.index("## Package layers"):]
    diagram = section[section.index("```"):section.index("```", section.index("```") + 3)]
    named = set(re.findall(r"│ (\w+)/", diagram))
    packages = {path.parent.name for path in (ROOT / "src" / "repro").glob("*/__init__.py")}
    assert named == packages


#: ``repro <command>`` where a command line starts: not ``from repro import``.
_COMMAND_LINE = re.compile(r"(?<![\w./-])(?<!from )repro ([a-z][\w-]*)")


@pytest.mark.parametrize("document", [
    "README.md", "docs/architecture.md", ".claude/skills/verify/SKILL.md",
])
def test_documented_command_lines_name_real_commands(document):
    text = (ROOT / document).read_text(encoding="utf-8")
    unknown = [
        f"{document}:{text.count(chr(10), 0, match.start()) + 1}: repro {match.group(1)}"
        for match in _COMMAND_LINE.finditer(text) if match.group(1) not in _COMMANDS
    ]
    assert not unknown, "\n".join(unknown)


def test_reach_drives_every_command_and_no_other(tmp_path):
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    driven = {argv[3] for argv in reach._entry_commands(str(tmp_path))
              if argv[1:3] == ["-m", "repro.cli"] and not argv[3].startswith("-")}
    assert driven == set(_COMMANDS)
