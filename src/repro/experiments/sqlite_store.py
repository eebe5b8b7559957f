"""SQLite backend for the result store.

One ``store.sqlite`` file inside the results directory replaces the
one-file-per-document layout of :class:`~repro.experiments.store.
ResultStore`.  At universe scale the JSON backend's weakness is file
count, not file size -- a million-viewer sweep leaves tens of thousands
of small documents plus sidecars, and listing or syncing the directory
grinds.  The SQLite backend keeps the exact same logical contract (same
fingerprint keys, same stamped document envelope, byte-identical JSON
payloads) inside a single database:

* documents are stored as their canonical JSON serialisation (the same
  ``sort_keys=True`` dump the JSON backend writes), so migrating between
  backends round-trips losslessly;
* the listing metadata (kind, created, code version, description, size)
  is denormalised into indexed columns, making ``repro store ls`` -- with
  its ``--kind``/``--limit`` filters -- a query instead of a crawl;
* writes go through a transaction in WAL mode, so concurrent sweep
  workers sharing one database serialise cleanly instead of corrupting
  each other.

Each process holds one connection per store, opened on first use.  WAL
mode is a property of the database file, so it is set once, where the
schema is created.  A connection never crosses ``fork()``: a child that
inherited one opens its own and leaves the inherited handle alone, neither
used nor closed (sqlite.org/howtocorrupt.html, section 2.6).

Only the storage primitives live here; the kind check, the kind walk and
the instrumented ``load`` / ``save`` doors are inherited from
:class:`~repro.experiments.store.BaseResultStore` unchanged.
"""

from __future__ import annotations

import json
import os
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.experiments.store import SCHEMA_VERSION, BaseResultStore, StoreEntry, _describe

__all__ = ["SQLITE_STORE_FILENAME", "SQLiteStore"]

#: The database file kept inside the results directory.
SQLITE_STORE_FILENAME = "store.sqlite"

#: Connections a forked child inherited from its parent: referenced here so
#: that replacing one never closes it in the child.
_INHERITED: List[sqlite3.Connection] = []

_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    key          TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    created      TEXT NOT NULL,
    code_version TEXT NOT NULL,
    description  TEXT NOT NULL,
    size_bytes   INTEGER NOT NULL,
    payload      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS documents_kind ON documents (kind);
CREATE INDEX IF NOT EXISTS documents_created ON documents (created);
"""


class SQLiteStore(BaseResultStore):
    """Single-file result store (see module docstring).

    The connection is opened on first use and serves the process (and, as
    sqlite3 requires, the thread) that opened it; the pickled state leaves
    it out, since parallel sweep workers receive the store by pickle.
    Every operation still runs in its own ``with connection:`` transaction.
    """

    backend = "sqlite"

    def __init__(self, root: "str | os.PathLike[str]", *, replay_only: bool = False) -> None:
        super().__init__(root, replay_only=replay_only)
        self.db_path = self.root / SQLITE_STORE_FILENAME
        self._connection: Optional[sqlite3.Connection] = None
        self._pid = 0
        if not self.replay_only:
            with self._connect() as connection:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.executescript(_SCHEMA)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """This process's connection, inside one transaction."""
        if self._pid != os.getpid():
            if self._connection is not None:
                _INHERITED.append(self._connection)
            self._connection = sqlite3.connect(self.db_path, timeout=30.0)
            self._pid = os.getpid()
        with self._connection:
            yield self._connection

    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "_connection": None, "_pid": 0}

    def _select(self, sql: str, *args: Any) -> List[tuple]:
        """The rows of one read query.  A replay-only store creates nothing,
        so its database may not exist: it then reads as empty."""
        if not self.db_path.is_file():
            return []
        with self._connect() as connection:
            return connection.execute(sql, args).fetchall()

    # -- backend primitives --------------------------------------------- #
    def _load_document(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` when absent.

        Mirrors the JSON backend's forgiveness: an unparsable or
        wrong-schema payload is a miss (recomputed and rewritten), never
        an error.
        """
        try:
            rows = self._select("SELECT payload FROM documents WHERE key = ?", key)
            payload = json.loads(rows[0][0]) if rows else None
        except (sqlite3.Error, json.JSONDecodeError, TypeError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
            return None
        return payload

    def _save_document(self, key: str, payload: Mapping[str, Any]) -> Path:
        """Persist ``payload`` under ``key``; returns the database path.

        The stored text is the same canonical ``sort_keys=True`` dump the
        JSON backend writes -- the serialised document, not just its
        contents, is identical across backends.
        """
        document = self._stamp(key, payload)
        text = json.dumps(document, sort_keys=True)
        with self._connect() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO documents "
                "(key, kind, created, code_version, description, size_bytes, payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    str(document.get("kind", "?")),
                    str(document.get("created", "")),
                    str(document.get("code_version", "")),
                    _describe(document),
                    len(text.encode("utf-8")),
                    text,
                ),
            )
        return self.db_path

    def delete(self, key: str) -> bool:
        """Remove one document; returns whether it existed."""
        with self._connect() as connection:
            cursor = connection.execute("DELETE FROM documents WHERE key = ?", (key,))
            return cursor.rowcount > 0

    def keys(self, kind: Optional[str] = None) -> List[str]:
        """All stored keys (of one document kind, if given), sorted."""
        if kind is None:
            rows = self._select("SELECT key FROM documents ORDER BY key")
        else:
            rows = self._select("SELECT key FROM documents WHERE kind = ? ORDER BY key", kind)
        return [row[0] for row in rows]

    def clear(self) -> int:
        """Delete every stored document; returns how many were removed."""
        with self._connect() as connection:
            (count,) = connection.execute("SELECT COUNT(*) FROM documents").fetchone()
            connection.execute("DELETE FROM documents")
        return int(count)

    def _all_entries(self) -> List[StoreEntry]:
        """Entry summaries straight from the indexed metadata columns."""
        rows = self._select(
            "SELECT key, kind, created, code_version, description, size_bytes "
            "FROM documents ORDER BY key"
        )
        return [
            StoreEntry(
                key=row[0],
                kind=row[1],
                created=row[2],
                code_version=row[3],
                description=row[4],
                size_bytes=int(row[5]),
            )
            for row in rows
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = ", replay_only=True" if self.replay_only else ""
        return f"SQLiteStore({str(self.root)!r}{mode})"
