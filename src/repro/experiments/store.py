"""Persistent on-disk result store for simulation results.

Every paper-grade experiment in this repository boils down to paired
fast-vs-normal simulation runs, and those runs are expensive (minutes at
benchmark scale, hours at the paper's 8000-node scale).  This module makes
them *incremental*: results are written to a store of JSON documents, keyed
by a stable content hash of what identifies them (for a pair: the full
:class:`SessionConfig`, seed included) plus the package's code version, and
every consumer -- the size sweeps, the figure builders, the benchmark and
the CLI -- reads through the store before simulating.  Regenerating a
figure from a warm store touches no simulator code at all; it is pure
replay.

Three things live here, each once:

the store
    A key -> document map (:class:`BaseResultStore`: ``load`` / ``save`` /
    ``documents`` / ``keys`` / ``entries`` / ``delete`` / ``clear``) with two
    backends.  It stamps the envelope and checks a document's kind; what a
    document means is its callers' business, and the records in it go
    through the one codec, :mod:`repro.records`.

the table of kinds
    :data:`KINDS`: ``pair`` (one paired comparison, both full
    :class:`~repro.streaming.config.SessionResult` payloads; ``algorithm`` is
    not in the key), ``sweep`` (one aggregated
    :class:`~repro.experiments.sweeps.SizeSweepResult`, so that a repeated
    sweep returns without opening its pairs), ``workload`` and ``universe``
    (one repetition each, :mod:`repro.workloads.runner` /
    :mod:`repro.channels.runner`), ``net`` (the
    :class:`~repro.net.topology.NetTopology` a latency-fabric run executed
    over) and ``telemetry`` (one run's digest, keyed by the run's identity).
    Keys, filename globs, ``store ls --kind`` and descriptions derive from it.

the loop
    :func:`replay_or_execute`: look every key up, refuse to simulate on a
    replay-only store, execute what is missing, save each unit as it
    completes.  Every runner enters the store through it.

Keys change whenever the configuration *or* the code version changes, so a
store never serves results produced by a different simulator; stale
entries are simply never read again (``repro-gossip store clear`` removes
them).

Examples
--------
>>> import tempfile
>>> store = ResultStore(tempfile.mkdtemp())
>>> len(store)
0
>>> store.clear()
0
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.obs.telemetry import get_telemetry
from repro.records import to_json
from repro.streaming.config import SessionConfig, SessionResult

if TYPE_CHECKING:
    from repro.net.topology import NetTopology

__all__ = [
    "SCHEMA_VERSION",
    "MissingResultError",
    "code_version",
    "stable_hash",
    "config_to_dict",
    "pair_fingerprint",
    "sweep_fingerprint",
    "net_fingerprint",
    "telemetry_fingerprint",
    "persist_telemetry_document",
    "session_result_to_dict",
    "StoreEntry",
    "BaseResultStore",
    "ResultStore",
    "STORE_BACKENDS",
    "open_store",
    "migrate_store",
    "default_results_dir",
    "replay_or_execute",
]

#: Bumped whenever the on-disk layout changes; part of every key, so a
#: schema change silently invalidates old entries instead of misreading them.
SCHEMA_VERSION: int = 1

#: Environment variable consulted for the default store location.
RESULTS_DIR_ENV: str = "REPRO_RESULTS_DIR"


class MissingResultError(KeyError):
    """A replay-only store was asked for a result it does not hold."""

    def __init__(self, key: str) -> None:
        super().__init__(key)
        self.key = key

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"result {self.key!r} is not in the store; run the same command "
            "without --from-store to populate it first"
        )


def code_version() -> str:
    """The package version that keys store entries.

    Imported lazily to avoid an import cycle during ``repro`` package
    initialisation.
    """
    from repro import __version__

    return __version__


def default_results_dir() -> Optional[str]:
    """The results directory named by ``REPRO_RESULTS_DIR`` (or ``None``)."""
    value = os.environ.get(RESULTS_DIR_ENV, "").strip()
    return value or None


# --------------------------------------------------------------------------- #
# configuration serialisation and fingerprints
# --------------------------------------------------------------------------- #
def config_to_dict(config: SessionConfig) -> Dict[str, Any]:
    """JSON-friendly dictionary form of a :class:`SessionConfig`.

    The execution engine is stripped: like the worker count it is an
    execution detail, not an experiment parameter -- the vector engine is
    bit-identical to the oracle (enforced by the differential suite), so
    documents and fingerprints must not depend on which engine ran.  The
    rest is :func:`~repro.records.to_json`; ``from_json`` reads it back
    with the default engine.
    """
    payload = to_json(config)
    del payload["engine"]
    return payload


def stable_hash(payload: Mapping[str, Any]) -> str:
    """Deterministic short hash of a JSON-serialisable mapping.

    Used for every store key; exposed so higher layers (e.g. the workload
    engine) can fingerprint their own document kinds consistently.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _fingerprint(kind: str, version: Optional[str], **identity: Any) -> str:
    """``<kind>-<hash>``: the one envelope every store key is hashed under.

    ``identity`` is what tells two documents of ``kind`` apart; the kind,
    the schema and the code version (``version`` overrides it) are always
    part of the hash.  The six public ``*_fingerprint`` functions are
    one-call wrappers that name their identity fields.
    """
    return f"{kind}-" + stable_hash(
        {
            "kind": kind,
            "schema": SCHEMA_VERSION,
            "code_version": version if version is not None else code_version(),
            **identity,
        }
    )


def persist_net_document(store: "BaseResultStore", topology_name: str) -> Optional[str]:
    """Persist a named library topology as a ``net-*`` document.

    Called by :func:`replay_or_execute` alone: whenever a run executed over
    ``SessionConfig.topology``, the topology it resolved to is written
    (idempotently: the key is a content hash) alongside the result
    documents.  Returns the ``net-*`` key, or ``None`` when the run used the
    ideal fabric and there is nothing to persist.
    """
    if not topology_name:
        return None
    from repro.net.library import get_topology

    topology = get_topology(topology_name)
    key = net_fingerprint(topology)
    store.save(key, {"kind": "net", "topology": to_json(topology)})
    return key


def net_fingerprint(topology: "NetTopology", *, version: Optional[str] = None) -> str:
    """Stable store key of one network-topology configuration.

    Covers the complete topology (its :func:`~repro.records.to_json`), the
    schema and the code version.  Every run executed over a latency fabric
    persists its topology as a ``net-*`` document under this key, so a
    stored ``universe-*``/``workload-*``/``pair`` result can always be
    traced back to -- and replayed against -- the exact region model that
    produced it.
    """
    return _fingerprint("net", version, topology=to_json(topology))


def pair_fingerprint(config: SessionConfig, *, version: Optional[str] = None) -> str:
    """Stable store key of one paired run.

    The key covers every :class:`SessionConfig` field except ``algorithm``
    (a pair entry holds both algorithms), plus the seed (a config field)
    and the code version.
    """
    cfg = config_to_dict(config)
    cfg.pop("algorithm", None)
    return _fingerprint("pair", version, config=cfg)


def sweep_fingerprint(
    sizes: Sequence[int],
    *,
    dynamic: bool,
    seed: int,
    repetitions: int,
    overrides: Optional[Mapping[str, Any]] = None,
    pair_keys: Optional[Sequence[str]] = None,
    version: Optional[str] = None,
) -> str:
    """Stable store key of one aggregated size sweep.

    ``pair_keys`` should be the fingerprints of the sweep's constituent
    pairs: they hash the *resolved* session configurations, so a change to
    the experiment defaults rotates the sweep key in lockstep with the
    pair keys even when the sweep-level parameters look unchanged.
    """
    return _fingerprint(
        "sweep",
        version,
        sizes=[int(s) for s in sizes],
        dynamic=bool(dynamic),
        seed=int(seed),
        repetitions=int(repetitions),
        overrides=dict(sorted((overrides or {}).items())),
        pair_keys=list(pair_keys or []),
    )


def telemetry_fingerprint(
    run: Mapping[str, Any], *, version: Optional[str] = None
) -> str:
    """Stable store key of one run's telemetry document.

    Keyed by the run's *identity* (kind, name, seed, ...) -- never by the
    telemetry content -- so re-running the same configuration with
    telemetry enabled refreshes one document instead of accreting copies,
    and enabling telemetry can never rotate any result fingerprint.
    """
    return _fingerprint("telemetry", version, run=dict(run))


def persist_telemetry_document(
    store: Optional["BaseResultStore"],
    *,
    run: Mapping[str, Any],
    telemetry: Optional[Any] = None,
) -> Optional[str]:
    """Persist the active telemetry beside a run's result documents.

    Called by the CLI after a ``--telemetry`` run: snapshots the given (or
    active) telemetry into a ``telemetry-*`` document under
    :func:`telemetry_fingerprint` and returns the key.  A disabled
    telemetry or storeless run persists nothing (returns ``None``) -- the
    default path stays byte-identical to a build without this module.
    """
    if store is None:
        return None
    handle = telemetry if telemetry is not None else get_telemetry()
    if not handle.enabled:
        return None
    from repro.obs.export import build_telemetry_document

    key = telemetry_fingerprint(run)
    store.save(key, {**build_telemetry_document(handle, run=run), "kind": "telemetry"})
    return key


# --------------------------------------------------------------------------- #
# result serialisation
# --------------------------------------------------------------------------- #
def session_result_to_dict(result: SessionResult) -> Dict[str, Any]:
    """JSON-friendly dictionary form of a full :class:`SessionResult`: its
    :func:`~repro.records.to_json`, the config as :func:`config_to_dict`."""
    payload = to_json(result)
    del payload["config"]["engine"]
    return payload


def _describe_pair(document: Mapping[str, Any]) -> str:
    cfg = document.get("config", {})
    dynamic = bool((cfg.get("churn") or {}).get("enabled", False))
    return f"n_nodes={cfg.get('n_nodes')} seed={cfg.get('seed')} dynamic={dynamic}"


def _describe_sweep(document: Mapping[str, Any]) -> str:
    params = document.get("params", {})
    return (
        f"sizes={params.get('sizes')} seed={params.get('seed')} "
        f"repetitions={params.get('repetitions')} dynamic={params.get('dynamic')}"
    )


def _describe_workload(document: Mapping[str, Any]) -> str:
    return (
        f"workload={document.get('workload')} seed={document.get('seed')} "
        f"n_nodes={document.get('n_nodes')}"
    )


def _describe_universe(document: Mapping[str, Any]) -> str:
    return (
        f"universe={document.get('universe')} seed={document.get('seed')} "
        f"channels={document.get('n_channels')} viewers={document.get('n_viewers')}"
    )


def _describe_net(document: Mapping[str, Any]) -> str:
    topology = document.get("topology", {})
    regions = [r.get("name") for r in topology.get("regions", [])]
    return f"topology={topology.get('name')} regions={','.join(map(str, regions))}"


def _describe_telemetry(document: Mapping[str, Any]) -> str:
    run = document.get("run", {})
    return (
        f"run={run.get('kind')}:{run.get('name', '?')} "
        f"spans={len(document.get('spans', {}))} "
        f"events={document.get('trace', {}).get('events', 0)}"
    )


#: The one table of document kinds: kind -> the one-line summary of such a
#: document.  A kind's keys are ``<kind>-<hash>`` (:func:`_fingerprint`); the
#: JSON backend's filename globs, ``store ls --kind`` and the descriptions in
#: every listing are read from here, so a new kind is one row.
KINDS: Dict[str, Callable[[Mapping[str, Any]], str]] = {
    "pair": _describe_pair,
    "sweep": _describe_sweep,
    "workload": _describe_workload,
    "universe": _describe_universe,
    "net": _describe_net,
    "telemetry": _describe_telemetry,
}


def _describe(document: Mapping[str, Any]) -> str:
    """One-line human summary of a stored document (shown by ``store ls``)."""
    describe = KINDS.get(document.get("kind"))
    return describe(document) if describe is not None else ""


# --------------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StoreEntry:
    """Summary of one stored document (what ``store ls`` prints, field by
    field in this order)."""

    key: str
    kind: str
    created: str
    code_version: str
    size_bytes: int
    description: str


class BaseResultStore:
    """Behaviour shared by every result-store backend.

    A result store maps content-fingerprint keys to JSON documents.  Two
    backends exist: the original one-file-per-document directory
    (:class:`ResultStore`) and a single-file SQLite database
    (:class:`~repro.experiments.sqlite_store.SQLiteStore`).  Concrete
    backends provide the storage primitives (:meth:`load`, :meth:`save`,
    :meth:`delete`, :meth:`keys`, :meth:`clear` and the listing hook
    :meth:`_all_entries`); the envelope stamping, the kind check of
    :meth:`load`, the kind walk :meth:`documents`, replay-only semantics
    and entry filtering all live here so the backends cannot drift apart
    -- the backend-parametrised store test suite pins that both satisfy
    the same contract, document for document.  The store knows no document
    kind beyond its name (:data:`KINDS`): callers encode and decode their
    own payloads.

    Parameters
    ----------
    root:
        Results directory.  Both backends anchor here: the JSON backend
        spreads documents inside it, the SQLite backend keeps one
        ``store.sqlite`` file in it.  A writable store creates it; a
        replay-only store never touches the filesystem, and a directory
        that is not there reads as an empty store.
    replay_only:
        When true, consumers must find every result they need in the store;
        :class:`MissingResultError` is raised instead of simulating.  Used
        by ``repro-gossip figure --from-store``.
    """

    #: Backend tag (what ``open_store`` dispatches on).
    backend: str = "?"

    def __init__(self, root: "str | os.PathLike[str]", *, replay_only: bool = False) -> None:
        self.root = Path(root)
        self.replay_only = bool(replay_only)
        if not self.replay_only:
            self.root.mkdir(parents=True, exist_ok=True)

    # -- instrumented read/write entry points ---------------------------- #
    def load(self, key: str, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` when absent.

        Corrupt or unreadable documents are treated as misses rather than
        errors: the result is simply recomputed and rewritten -- and so is
        a document of another kind than the ``kind`` asked for.  Every read
        funnels through here, so one span/counter update per document
        covers both backends (a no-op while telemetry is disabled).
        """
        obs = get_telemetry()
        if not obs.enabled:
            return self._load_kind(key, kind)
        with obs.span("store.load", backend=self.backend, key=key):
            payload = self._load_kind(key, kind)
        obs.counter("store.load.hit" if payload is not None else "store.load.miss").inc()
        return payload

    def _load_kind(self, key: str, kind: Optional[str]) -> Optional[Dict[str, Any]]:
        payload = self._load_document(key)
        if payload is not None and kind is not None and payload.get("kind") != kind:
            return None
        return payload

    def save(self, key: str, payload: Mapping[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``key``; returns its path
        (the document file, or the database file on SQLite)."""
        obs = get_telemetry()
        if not obs.enabled:
            return self._save_document(key, payload)
        with obs.span("store.save", backend=self.backend, key=key):
            path = self._save_document(key, payload)
        obs.counter("store.save").inc()
        return path

    # -- backend primitives --------------------------------------------- #
    def _load_document(self, key: str) -> Optional[Dict[str, Any]]:
        """Backend read primitive behind :meth:`load`."""
        raise NotImplementedError

    def _save_document(self, key: str, payload: Mapping[str, Any]) -> Path:
        """Backend write primitive behind :meth:`save`."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove one document; returns whether it existed."""
        raise NotImplementedError

    def keys(self, kind: Optional[str] = None) -> List[str]:
        """All stored keys (of one document kind, if given), sorted."""
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every stored document; returns how many were removed."""
        raise NotImplementedError

    def _all_entries(self) -> List["StoreEntry"]:
        """One :class:`StoreEntry` per stored document, in key order."""
        raise NotImplementedError

    # -- shared behaviour ------------------------------------------------ #
    def _stamp(self, key: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """The document envelope, identical across backends.

        ``setdefault`` throughout: a payload that already carries envelope
        fields (a replayed or migrated document) keeps them verbatim --
        which is what makes ``repro store migrate`` lossless.
        """
        document = dict(payload)
        document.setdefault("schema", SCHEMA_VERSION)
        document.setdefault("key", key)
        document.setdefault("code_version", code_version())
        document.setdefault("created", datetime.now(timezone.utc).isoformat())
        return document

    def documents(self, kind: str) -> List[Tuple[str, Dict[str, Any]]]:
        """Every readable document of ``kind``, as key-ordered ``(key, document)`` pairs."""
        loaded = ((key, self.load(key, kind)) for key in self.keys(kind))
        return [(key, document) for key, document in loaded if document is not None]

    def missing(self, key: str) -> "MissingResultError":
        """The error to raise for a miss in replay-only mode."""
        return MissingResultError(key)

    def entries(
        self, *, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> List["StoreEntry"]:
        """Stored-document summaries (what ``store ls`` shows).

        ``kind`` filters to one document kind; ``limit`` keeps only the
        newest ``N`` by creation time (newest first).  Without ``limit``
        entries come in key order, matching historical output.
        """
        entries = self._all_entries()
        if kind is not None:
            entries = [entry for entry in entries if entry.kind == kind]
        if limit is not None:
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")
            entries = sorted(
                entries, key=lambda entry: (entry.created, entry.key), reverse=True
            )[:limit]
        return entries

    def __len__(self) -> int:
        return len(self.keys())


class ResultStore(BaseResultStore):
    """A directory of JSON result documents keyed by content fingerprints.

    The original (and default) backend: one ``<key>.json`` per document
    plus a small ``<key>.meta.json`` sidecar for fast listings.  Writes
    are atomic (temp file + ``os.replace``) and keys are unique per
    configuration, so concurrent writers -- e.g. parallel sweep workers on
    a shared results directory -- cannot corrupt each other's entries.
    """

    backend = "json"

    # -- low-level document access ------------------------------------- #
    def path_for(self, key: str) -> Path:
        """Filesystem path of a key's document."""
        return self.root / f"{key}.json"

    def meta_path_for(self, key: str) -> Path:
        """Path of a key's small metadata sidecar (what ``ls`` reads).

        Pair documents at paper scale run to megabytes; the sidecar keeps
        listing the store O(number of entries) instead of O(store bytes).
        """
        return self.root / f"{key}.meta.json"

    def _load_document(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` when absent.

        Corrupt or unreadable documents are treated as misses rather than
        errors: the result is simply recomputed and rewritten.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
            return None
        return payload

    def _save_document(self, key: str, payload: Mapping[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``key`` and return its path.

        A small metadata sidecar (see :meth:`meta_path_for`) is written
        alongside the document so listings never have to parse the full
        payload.
        """
        document = self._stamp(key, payload)
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        os.replace(tmp, path)
        self._write_meta(key, document)
        return path

    def delete(self, key: str) -> bool:
        """Remove one document (and its sidecar); returns whether it existed."""
        existed = False
        try:
            self.path_for(key).unlink()
            existed = True
        except OSError:
            pass
        try:
            self.meta_path_for(key).unlink()
        except OSError:
            pass
        return existed

    def _write_meta(self, key: str, document: Mapping[str, Any]) -> None:
        meta = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "kind": document.get("kind", "?"),
            "created": document.get("created", ""),
            "code_version": document.get("code_version", ""),
            "description": _describe(document),
        }
        path = self.meta_path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(meta, handle, sort_keys=True)
        os.replace(tmp, path)

    def _document_paths(self, kind: Optional[str] = None) -> List[Path]:
        """The store's own document files: ``<kind>-*.json`` for every kind of
        :data:`KINDS` (or the one given).  ``keys``/``clear`` only ever touch
        these shapes, so pointing ``--results-dir`` at a directory that also
        holds unrelated ``.json`` files is safe."""
        return sorted(
            path
            for name in ([kind] if kind is not None else KINDS)
            for path in self.root.glob(f"{name}-*.json")
            if not path.name.endswith(".meta.json")
        )

    # -- maintenance ----------------------------------------------------- #
    def keys(self, kind: Optional[str] = None) -> List[str]:
        """All stored keys (of one document kind, if given), sorted."""
        return [path.stem for path in self._document_paths(kind)]

    def _all_entries(self) -> List[StoreEntry]:
        """One :class:`StoreEntry` per stored document, in key order.

        Reads the small metadata sidecars, falling back to parsing the full
        document only when a sidecar is missing (e.g. a store written by an
        older version) or unreadable.
        """
        entries: List[StoreEntry] = []
        for key in self.keys():
            size = self.path_for(key).stat().st_size if self.path_for(key).exists() else 0
            meta = self._load_meta(key)
            if meta is None:
                payload = self.load(key)
                if payload is None:
                    entries.append(
                        StoreEntry(key=key, kind="corrupt", created="", code_version="",
                                   description="unreadable document", size_bytes=size)
                    )
                    continue
                self._write_meta(key, payload)  # heal the missing sidecar
                meta = self._load_meta(key) or {}
            entries.append(
                StoreEntry(
                    key=key,
                    kind=str(meta.get("kind", "?")),
                    created=str(meta.get("created", "")),
                    code_version=str(meta.get("code_version", "")),
                    description=str(meta.get("description", "")),
                    size_bytes=size,
                )
            )
        return entries

    def _load_meta(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with self.meta_path_for(key).open("r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def clear(self) -> int:
        """Delete every stored document; returns how many were removed.

        Only the store's own documents (see :meth:`_document_paths`) and
        their metadata sidecars are touched; unrelated files in the
        directory survive.  Sidecars are deleted too but not counted.
        """
        return sum(self.delete(key) for key in self.keys())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = ", replay_only=True" if self.replay_only else ""
        return f"ResultStore({str(self.root)!r}{mode})"


# --------------------------------------------------------------------------- #
# backend selection and migration
# --------------------------------------------------------------------------- #
#: The store backends ``open_store`` (and ``--store-backend``) accept.
STORE_BACKENDS: Tuple[str, ...] = ("json", "sqlite")


def open_store(
    root: "str | os.PathLike[str]",
    *,
    backend: str = "json",
    replay_only: bool = False,
) -> BaseResultStore:
    """Open the results directory through the chosen backend.

    Both backends anchor at the same directory -- the JSON backend spreads
    ``<key>.json`` files in it, the SQLite backend keeps one
    ``store.sqlite`` file in it -- so switching backends never moves the
    results location, only the on-disk format.
    """
    if backend == "json":
        return ResultStore(root, replay_only=replay_only)
    if backend == "sqlite":
        from repro.experiments.sqlite_store import SQLiteStore

        return SQLiteStore(root, replay_only=replay_only)
    raise ValueError(
        f"unknown store backend {backend!r} (expected one of {', '.join(STORE_BACKENDS)})"
    )


def migrate_store(source: BaseResultStore, dest: BaseResultStore) -> int:
    """Copy every document from ``source`` into ``dest``; returns the count.

    Lossless by construction: documents are copied with their envelope
    (``created``, ``code_version``, ...) intact -- :meth:`BaseResultStore.
    _stamp` only fills fields that are absent -- so migrating JSON ->
    SQLite -> JSON round-trips byte-identical document payloads.
    """
    migrated = 0
    for key in source.keys():
        document = source.load(key)
        if document is None:
            continue  # corrupt/foreign entry: nothing faithful to copy
        dest.save(key, document)
        migrated += 1
    return migrated


_T = TypeVar("_T")


def replay_or_execute(
    store: Optional[BaseResultStore],
    kind: str,
    keys: Sequence[str],
    *,
    decode: Callable[[Dict[str, Any]], _T],
    execute: Callable[[List[int]], Iterable[_T]],
    encode: Callable[[int, _T, Optional[str]], Mapping[str, Any]],
    topology: str = "",
) -> Tuple[List[_T], int]:
    """The one replay-or-simulate loop over a run's units.

    Every runner (single pairs, sweep pairs, workload repetitions, universe
    repetitions) enters here, and nothing else looks a result up: every
    key is loaded first (a document of another kind is a miss), a
    replay-only store refuses to simulate, only the missing units are
    executed, and each one is persisted as soon as it completes, so an
    interrupted run keeps its finished units.  A run over a named
    ``topology`` also persists that topology's ``net-*`` document, once,
    with its first fresh unit.

    Parameters
    ----------
    store:
        The result store, or ``None`` to always execute.
    kind:
        The document kind of the units (a key of :data:`KINDS`).
    keys:
        One store key per unit, in result order.
    decode:
        The unit a stored document holds.
    execute:
        Produce fresh results for the given pending indices, lazily and in
        that order.
    encode:
        The document body of one fresh unit, from its index, its result and
        the run's ``net-*`` key (``None`` on the ideal fabric); the ``kind``
        stamp is added here.
    topology:
        Name of the library topology the run executes over (``""``: none).

    Returns
    -------
    The unit results in key order, and how many were replayed.
    """
    results: Dict[int, _T] = {}
    if store is not None:
        for index, key in enumerate(keys):
            document = store.load(key, kind)
            if document is not None:
                results[index] = decode(document)
    pending = [index for index in range(len(keys)) if index not in results]
    if pending and store is not None and store.replay_only:
        raise store.missing(keys[pending[0]])

    net_key: Optional[str] = None
    for position, (index, result) in enumerate(zip(pending, execute(pending))):
        results[index] = result
        if store is not None:
            if position == 0:
                net_key = persist_net_document(store, topology)
            store.save(keys[index], {**encode(index, result, net_key), "kind": kind})

    return [results[index] for index in range(len(keys))], len(keys) - len(pending)
