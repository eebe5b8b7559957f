"""docs/architecture.md agrees with the registries it describes.

The store-kinds table ("One table of kinds") names, per document kind, the
functions that write such a document: every row's kind is a row of
``repro.experiments.store.KINDS`` (and every kind has a row), and every
function a row names is a callable some ``repro`` module defines.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import repro
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
