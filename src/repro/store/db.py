"""The sqlite campaign database: durable history of every sweep run.

Before this module, every evaluation artifact the repo produced — sweep
curves, capacity peaks, speedup gates — existed only as a printed table or
a loose JSON file under ``benchmarks/bench_artifacts/``.  Nothing could
answer "did this PR regress capacity vs the last one?" without re-running
the simulation and eyeballing two printouts.

:class:`CampaignStore` is the durable record.  One sqlite file holds:

* ``campaigns`` — named sweep families (``capacity_sweep/ntp+ntp/...``).
* ``runs`` — one row per executed sweep: executor kind, engine backend,
  engine version, trial-batch width, job count, shard accounting
  (total/computed/cached/retries/failures), a content fingerprint over the
  run's rows, and a metrics snapshot from :mod:`repro.obs`.
* ``shard_results`` — every shard's params, seed, result (or error
  record), and result-cache key, in merge order.
* ``checkpoints`` — the warm-start prefix checkpoint digests the run
  restored from (the same digests folded into result-cache keys).
* ``artifacts`` — benchmark JSON artifacts (``conftest.artifact``),
  stamped with engine backend and trial-batch width.
* ``analysis_cache`` — memoized analysis query results, invalidated by
  the store's content fingerprint (see :mod:`repro.analysis.reports`).

Everything stored is *standard* JSON (NaN canonicalized to null via
:mod:`repro.analysis.results_io`), so sqlite's JSON functions and strict
external parsers can query rows directly.

Determinism is the design center: two runs of the same seeded sweep store
byte-identical ``params_json``/``result_json`` rows and therefore equal
run fingerprints — which is what lets the regression reporter say
"identical" instead of "probably fine".
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..analysis.results_io import _encode
from ..errors import ReproError
from ..runner.shard import Shard, canonical_json

#: Schema version, stored in ``PRAGMA user_version``; bump on breaking DDL
#: changes so old files are refused loudly instead of misread.
SCHEMA_VERSION = 1

#: How long a writer waits on another process's transaction before
#: sqlite reports the database locked (file-backed stores only).
BUSY_TIMEOUT_MS = 5_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id   INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS runs (
    id              INTEGER PRIMARY KEY,
    campaign_id     INTEGER NOT NULL REFERENCES campaigns(id),
    started_at      REAL NOT NULL,
    wall_seconds    REAL NOT NULL,
    executor        TEXT NOT NULL,
    engine          TEXT,
    engine_version  TEXT NOT NULL,
    batch_size      INTEGER NOT NULL,
    jobs            INTEGER NOT NULL,
    shards_total    INTEGER NOT NULL,
    shards_computed INTEGER NOT NULL,
    shards_cached   INTEGER NOT NULL,
    retries         INTEGER NOT NULL,
    failures        INTEGER NOT NULL,
    fingerprint     TEXT NOT NULL,
    metrics_json    TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_campaign ON runs (campaign_id, id);
CREATE TABLE IF NOT EXISTS shard_results (
    run_id      INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    shard_index INTEGER NOT NULL,
    seed        INTEGER NOT NULL,
    params_json TEXT NOT NULL,
    result_json TEXT,
    error_json  TEXT,
    cache_key   TEXT,
    PRIMARY KEY (run_id, shard_index)
);
CREATE TABLE IF NOT EXISTS checkpoints (
    run_id      INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    prefix_json TEXT NOT NULL,
    digest      TEXT NOT NULL,
    PRIMARY KEY (run_id, prefix_json)
);
CREATE TABLE IF NOT EXISTS artifacts (
    id           INTEGER PRIMARY KEY,
    name         TEXT NOT NULL,
    created_at   REAL NOT NULL,
    engine       TEXT,
    batch_size   INTEGER,
    payload_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS artifacts_by_name ON artifacts (name, id);
CREATE TABLE IF NOT EXISTS analysis_cache (
    key          TEXT PRIMARY KEY,
    fingerprint  TEXT NOT NULL,
    payload_json TEXT NOT NULL,
    created_at   REAL NOT NULL
);
"""


def _result_json(value: Any) -> str:
    """Standard-JSON encoding of one shard result (NaN canonicalized)."""
    return json.dumps(_encode(value), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


@dataclass(frozen=True)
class RunRecord:
    """One recorded sweep run (the ``runs`` table, resolved)."""

    id: int
    campaign: str
    started_at: float
    wall_seconds: float
    executor: str
    engine: Optional[str]
    engine_version: str
    batch_size: int
    jobs: int
    shards_total: int
    shards_computed: int
    shards_cached: int
    retries: int
    failures: int
    fingerprint: str
    metrics: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class ShardRow:
    """One shard's stored outcome, in merge order."""

    run_id: int
    index: int
    seed: int
    params: Dict[str, Any]
    result: Optional[Dict[str, Any]]
    error: Optional[Dict[str, Any]]
    cache_key: Optional[str]

    @property
    def params_json(self) -> str:
        return canonical_json(self.params)


@dataclass(frozen=True)
class ArtifactRecord:
    """One recorded benchmark artifact."""

    id: int
    name: str
    created_at: float
    engine: Optional[str]
    batch_size: Optional[int]
    payload: Dict[str, Any]


@dataclass(frozen=True)
class CampaignSummary:
    """One campaign with its run accounting (the ``campaigns`` listing)."""

    name: str
    runs: int
    last_run_id: int
    last_started_at: float
    last_fingerprint: str


@dataclass
class MemoStats:
    """Memoized-analysis accounting (tests and the CI round-trip assert it)."""

    hits: int = 0
    misses: int = 0


def _encoded_rows(
    shards: Sequence[Shard],
    results: Sequence[Optional[Dict[str, Any]]],
    material: Any,
) -> Iterator[Tuple[Shard, str, Optional[str], Optional[str]]]:
    """Yield each row's stored JSON, hashing its fingerprint bytes as it goes.

    Each row is encoded once for both uses, and rows stream rather than
    pile up (a sweep's params embed its whole platform config).  Yields
    ``(shard, params_json, result_json, error_json)``; an error record
    is stored as its error part only, but fingerprinted whole.
    """
    from ..runner.pool import SHARD_ERROR_KEY, is_error_record

    for shard, result in zip(shards, results):
        params_json = canonical_json(shard.params)
        if type(shard.index) is int and type(shard.seed) is int:
            head = f"[{shard.index},{shard.seed},{params_json}]"
        else:
            head = canonical_json([shard.index, shard.seed, shard.params])
        result_json = _result_json(result)
        material.update(head.encode("utf-8"))
        material.update(b"\x00")
        material.update(result_json.encode("utf-8"))
        material.update(b"\x01")
        if is_error_record(result):
            yield shard, params_json, None, _result_json(result[SHARD_ERROR_KEY])
        else:
            yield shard, params_json, result_json, None


def run_fingerprint(
    shards: Sequence[Shard], results: Sequence[Optional[Dict[str, Any]]]
) -> str:
    """SHA-256 over the run's (index, seed, params, result) rows.

    Deterministic by the runner contract: a seeded sweep merges
    bit-identical results in shard order at any ``jobs`` value, so two runs
    of the same sweep produce the same fingerprint — and a differing
    fingerprint is a real behavioural difference, not scheduling noise.
    Wall-clock fields (timestamps, shard seconds) never participate.
    """
    material = hashlib.sha256()
    for _ in _encoded_rows(shards, results, material):
        pass
    return material.hexdigest()


class CampaignStore:
    """A sqlite-backed store of campaigns, runs, shard results, and artifacts.

    ``path`` may be a filesystem path (created on first open, parents
    included) or ``":memory:"`` for tests.  The store is a plain context
    manager; writes are transactional per call.
    """

    def __init__(self, path: Union[str, Path] = ":memory:"):
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(self.path)
        self._db.execute("PRAGMA foreign_keys = ON")
        if self.path != ":memory:":
            # Concurrent writers (service dispatchers, parallel CLI runs)
            # share one file: wait out each other's write transactions
            # instead of failing fast, and journal in WAL mode so readers
            # never block a writer.  Fail-soft — a filesystem that cannot
            # take WAL (some network mounts) keeps the default journal.
            self._db.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
            try:
                self._db.execute("PRAGMA journal_mode = WAL")
            except sqlite3.OperationalError:
                pass
        version = self._db.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            self._db.close()
            raise ReproError(
                f"campaign store {self.path} has schema version {version}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        with self._db:
            self._db.executescript(_SCHEMA)
            self._db.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        self.memo = MemoStats()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingest -----------------------------------------------------------

    def record_run(
        self,
        campaign: str,
        shards: Sequence[Shard],
        results: Sequence[Optional[Dict[str, Any]]],
        *,
        executor: str,
        engine: Optional[str],
        engine_version: str,
        batch_size: int = 1,
        jobs: int = 1,
        shards_computed: int = 0,
        shards_cached: int = 0,
        retries: int = 0,
        failures: int = 0,
        wall_seconds: float = 0.0,
        metrics: Optional[Dict[str, Any]] = None,
        digests: Optional[Dict[str, str]] = None,
        cache_keys: Optional[Sequence[Optional[str]]] = None,
        started_at: Optional[float] = None,
    ) -> int:
        """Store one completed sweep run; returns the new run id.

        ``shards`` and ``results`` are the executor's inputs and merged
        outputs, aligned by slot; an error record in a slot lands in
        ``error_json`` with ``result_json`` null.  ``digests`` maps
        canonical prefix JSON to checkpoint digest (plan runs).
        ``cache_keys`` aligns per-slot result-cache keys, where known.
        """
        if len(shards) != len(results):
            raise ReproError(
                f"shards/results length mismatch: {len(shards)} != {len(results)}"
            )
        now = time.time() if started_at is None else started_at
        material = hashlib.sha256()
        with self._db:
            # Take the write lock before reading, so two first runs into a
            # new campaign cannot both miss it and both insert it.
            self._db.execute("BEGIN IMMEDIATE")
            self._db.execute(
                "INSERT OR IGNORE INTO campaigns (name) VALUES (?)", (campaign,)
            )
            (campaign_id,) = self._db.execute(
                "SELECT id FROM campaigns WHERE name = ?", (campaign,)
            ).fetchone()
            # The fingerprint is filled in once the rows have streamed in.
            run_id = self._db.execute(
                "INSERT INTO runs (campaign_id, started_at, wall_seconds,"
                " executor, engine, engine_version, batch_size, jobs,"
                " shards_total, shards_computed, shards_cached, retries,"
                " failures, fingerprint, metrics_json)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, '', ?)",
                (
                    campaign_id, now, wall_seconds, executor, engine,
                    engine_version, batch_size, jobs, len(shards),
                    shards_computed, shards_cached, retries, failures,
                    _result_json(metrics) if metrics is not None else None,
                ),
            ).lastrowid
            self._db.executemany(
                "INSERT INTO shard_results (run_id, shard_index, seed,"
                " params_json, result_json, error_json, cache_key)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    (run_id, shard.index, shard.seed, params_json, result_json,
                     error_json, cache_keys[slot] if cache_keys is not None else None)
                    for slot, (shard, params_json, result_json, error_json)
                    in enumerate(_encoded_rows(shards, results, material))
                ),
            )
            self._db.execute(
                "UPDATE runs SET fingerprint = ? WHERE id = ?",
                (material.hexdigest(), run_id),
            )
            self._db.executemany(
                "INSERT INTO checkpoints (run_id, prefix_json, digest)"
                " VALUES (?, ?, ?)",
                ((run_id, prefix_json, digest)
                 for prefix_json, digest in (digests or {}).items()),
            )
        return run_id

    def record_artifact(
        self,
        name: str,
        payload: Dict[str, Any],
        *,
        engine: Optional[str] = None,
        batch_size: Optional[int] = None,
        created_at: Optional[float] = None,
    ) -> int:
        """Store one benchmark artifact payload; returns its row id."""
        if engine is None and isinstance(payload, dict):
            engine = payload.get("engine_backend")
        if batch_size is None and isinstance(payload, dict):
            batch_size = payload.get("trial_batch_size")
        with self._db:
            return self._db.execute(
                "INSERT INTO artifacts (name, created_at, engine, batch_size,"
                " payload_json) VALUES (?, ?, ?, ?, ?)",
                (
                    name,
                    time.time() if created_at is None else created_at,
                    engine,
                    batch_size,
                    _result_json(payload),
                ),
            ).lastrowid

    # -- queries ----------------------------------------------------------

    def campaigns(self) -> List[CampaignSummary]:
        """Every campaign, with run counts and its latest run's identity."""
        rows = self._db.execute(
            "SELECT c.name, COUNT(r.id), MAX(r.id)"
            " FROM campaigns c JOIN runs r ON r.campaign_id = c.id"
            " GROUP BY c.name ORDER BY c.name"
        ).fetchall()
        out = []
        for name, count, last_id in rows:
            started_at, fingerprint = self._db.execute(
                "SELECT started_at, fingerprint FROM runs WHERE id = ?",
                (last_id,),
            ).fetchone()
            out.append(
                CampaignSummary(
                    name=name, runs=count, last_run_id=last_id,
                    last_started_at=started_at, last_fingerprint=fingerprint,
                )
            )
        return out

    def _run_from_row(self, row: tuple) -> RunRecord:
        (run_id, campaign, started_at, wall_seconds, executor, engine,
         engine_version, batch_size, jobs, total, computed, cached, retries,
         failures, fingerprint, metrics_json) = row
        return RunRecord(
            id=run_id, campaign=campaign, started_at=started_at,
            wall_seconds=wall_seconds, executor=executor, engine=engine,
            engine_version=engine_version, batch_size=batch_size, jobs=jobs,
            shards_total=total, shards_computed=computed,
            shards_cached=cached, retries=retries, failures=failures,
            fingerprint=fingerprint,
            metrics=json.loads(metrics_json) if metrics_json else None,
        )

    _RUN_COLUMNS = (
        "r.id, c.name, r.started_at, r.wall_seconds, r.executor, r.engine,"
        " r.engine_version, r.batch_size, r.jobs, r.shards_total,"
        " r.shards_computed, r.shards_cached, r.retries, r.failures,"
        " r.fingerprint, r.metrics_json"
    )

    def run(self, run_id: int) -> RunRecord:
        row = self._db.execute(
            f"SELECT {self._RUN_COLUMNS} FROM runs r"
            " JOIN campaigns c ON c.id = r.campaign_id WHERE r.id = ?",
            (run_id,),
        ).fetchone()
        if row is None:
            raise ReproError(f"no run {run_id} in campaign store {self.path}")
        return self._run_from_row(row)

    def runs(self, campaign: str) -> List[RunRecord]:
        """All runs of ``campaign``, oldest first."""
        rows = self._db.execute(
            f"SELECT {self._RUN_COLUMNS} FROM runs r"
            " JOIN campaigns c ON c.id = r.campaign_id"
            " WHERE c.name = ? ORDER BY r.id",
            (campaign,),
        ).fetchall()
        return [self._run_from_row(row) for row in rows]

    def latest_runs(self, campaign: str, n: int = 2) -> List[RunRecord]:
        """The newest ``n`` runs of ``campaign``, newest first."""
        rows = self._db.execute(
            f"SELECT {self._RUN_COLUMNS} FROM runs r"
            " JOIN campaigns c ON c.id = r.campaign_id"
            " WHERE c.name = ? ORDER BY r.id DESC LIMIT ?",
            (campaign, n),
        ).fetchall()
        return [self._run_from_row(row) for row in rows]

    def shard_rows(self, run_id: int) -> List[ShardRow]:
        """One run's stored shard rows, in merge order."""
        rows = self._db.execute(
            "SELECT shard_index, seed, params_json, result_json, error_json,"
            " cache_key FROM shard_results WHERE run_id = ?"
            " ORDER BY shard_index",
            (run_id,),
        ).fetchall()
        return [
            ShardRow(
                run_id=run_id, index=index, seed=seed,
                params=json.loads(params_json),
                result=json.loads(result_json) if result_json else None,
                error=json.loads(error_json) if error_json else None,
                cache_key=cache_key,
            )
            for index, seed, params_json, result_json, error_json, cache_key
            in rows
        ]

    def checkpoint_digests(self, run_id: int) -> Dict[str, str]:
        """prefix JSON -> checkpoint digest for one run."""
        return dict(
            self._db.execute(
                "SELECT prefix_json, digest FROM checkpoints WHERE run_id = ?",
                (run_id,),
            ).fetchall()
        )

    def artifact_names(self) -> List[str]:
        return [
            name for (name,) in self._db.execute(
                "SELECT DISTINCT name FROM artifacts ORDER BY name"
            ).fetchall()
        ]

    def artifacts(self, name: Optional[str] = None) -> List[ArtifactRecord]:
        """Recorded artifacts (optionally one name's history), oldest first."""
        if name is None:
            rows = self._db.execute(
                "SELECT id, name, created_at, engine, batch_size, payload_json"
                " FROM artifacts ORDER BY id"
            ).fetchall()
        else:
            rows = self._db.execute(
                "SELECT id, name, created_at, engine, batch_size, payload_json"
                " FROM artifacts WHERE name = ? ORDER BY id",
                (name,),
            ).fetchall()
        return [
            ArtifactRecord(
                id=row_id, name=row_name, created_at=created_at,
                engine=engine, batch_size=batch_size,
                payload=json.loads(payload_json),
            )
            for row_id, row_name, created_at, engine, batch_size, payload_json
            in rows
        ]

    # -- memoized analysis -------------------------------------------------

    def fingerprint(self) -> str:
        """Content fingerprint of the whole store (memoization key input).

        Any new run or artifact changes it, so memoized analysis can never
        serve stale answers; the fingerprints of the runs themselves make
        it content-derived rather than a bare row count.
        """
        material = hashlib.sha256()
        for count, last_id, fingerprints in (
            self._db.execute(
                "SELECT COUNT(*), COALESCE(MAX(id), 0),"
                " COALESCE(GROUP_CONCAT(fingerprint), '') FROM runs"
            ).fetchall()
        ):
            material.update(f"{count}:{last_id}:{fingerprints}".encode())
        for count, last_id in self._db.execute(
            "SELECT COUNT(*), COALESCE(MAX(id), 0) FROM artifacts"
        ).fetchall():
            material.update(f"a{count}:{last_id}".encode())
        return material.hexdigest()

    def memo_get(self, key: str, fingerprint: str) -> Optional[Any]:
        """The memoized payload for ``key`` at ``fingerprint``, or None."""
        row = self._db.execute(
            "SELECT fingerprint, payload_json FROM analysis_cache WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None or row[0] != fingerprint:
            self.memo.misses += 1
            return None
        self.memo.hits += 1
        return json.loads(row[1])

    def memo_put(self, key: str, fingerprint: str, payload: Any) -> None:
        """Store a memoized payload (replacing any stale entry for ``key``)."""
        with self._db:
            self._db.execute(
                "INSERT INTO analysis_cache (key, fingerprint, payload_json,"
                " created_at) VALUES (?, ?, ?, ?)"
                " ON CONFLICT(key) DO UPDATE SET fingerprint = excluded.fingerprint,"
                " payload_json = excluded.payload_json,"
                " created_at = excluded.created_at",
                (key, fingerprint, _result_json(payload), time.time()),
            )

    def memoized(self, key: str, compute) -> Any:
        """``compute()``'s JSON-compatible result, served from the memo table.

        The memo key is ``key`` + the store fingerprint: a second identical
        query against an unchanged store is answered without touching the
        run tables (``store.memo.hits`` counts it); any ingest invalidates.
        """
        fingerprint = self.fingerprint()
        cached = self.memo_get(key, fingerprint)
        if cached is not None:
            return cached
        value = compute()
        self.memo_put(key, fingerprint, value)
        return value
