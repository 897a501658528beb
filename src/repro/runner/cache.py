"""Content-addressed on-disk cache for sweep-point results.

Every cache entry is keyed by the SHA-256 of everything that determines a
sweep point's output: the engine version, the worker's identity, the full
platform configuration, and the point's parameters (seeds included).  A
re-run of ``python -m repro table2`` therefore recomputes nothing, while
*any* change to the platform config, the sweep grid, or the engine's
numeric behaviour misses cleanly.

Entries are rows of one WAL-journalled sqlite table in
``<root>/results.sqlite``.  The per-entry ``<root>/<key[:2]>/<key>.json``
trees of older releases are ignored (the first run after upgrading
recomputes) and may be deleted.  The cache is fail-soft: unreadable/unwritable storage degrades to
recomputation, never to an error — results must not depend on
filesystem health.

A sweep reads and writes through :meth:`ResultCache.transaction`, so its
lookups share one read snapshot and its puts commit once, not once per
entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..cache import ENGINE_VERSION
from .shard import canonical_json

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: How long a writer waits on another process's transaction (seconds).
BUSY_TIMEOUT_S = 5.0

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY,"
    " payload TEXT NOT NULL, bytes INTEGER NOT NULL, written REAL NOT NULL)"
)


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-leakyway``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-leakyway"


class _Transaction:
    """Bookkeeping of one open :meth:`ResultCache.transaction` block."""

    __slots__ = ("db", "written", "evicted")

    def __init__(self, db: sqlite3.Connection):
        self.db = db
        #: Entries put, and entries evicted, since the last commit.
        self.written = 0
        self.evicted = 0


class ResultCache:
    """A content-addressed store of JSON sweep-point results.

    ``max_bytes`` bounds the cache's total entry size: when a
    :meth:`put` pushes the total over the budget, the oldest entries (by
    write time) are evicted until it fits again, so a long-lived service
    node cannot fill its disk.  Evictions are counted in :attr:`evicted`
    and surface as the ``runner.cache.evicted`` metric.
    ``max_bytes=None`` (the default) keeps the historical unbounded
    behaviour.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root) if root is not None else default_cache_root()
        self.path = self.root / "results.sqlite"
        self.max_bytes = max_bytes
        #: Fulfilled / recomputed lookups, for tests and ``--jobs`` tuning.
        self.hits = 0
        self.misses = 0
        #: Entries that existed but failed to parse (also misses).
        self.corrupt = 0
        #: Payloads refused by :meth:`put` (non-finite floats — not JSON).
        self.rejected = 0
        #: :meth:`get` / :meth:`put` calls the storage failed (sqlite or OS
        #: error); a failed get is also a miss, a failed put stores nothing.
        self.errors = 0
        #: Entries removed to keep the cache under ``max_bytes``.
        self.evicted = 0
        # Entry bytes as of the last eviction pass plus this handle's puts
        # since; None until the first budgeted put reads the table.
        self._total_bytes: Optional[int] = None
        self._local = threading.local()

    def key(self, **components: Any) -> str:
        """SHA-256 hex key over the canonical JSON of ``components``.

        The engine version participates automatically so numeric-behaviour
        changes to the simulator invalidate every prior entry.
        """
        material = canonical_json({"engine": ENGINE_VERSION, **components})
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _db(self) -> sqlite3.Connection:
        """This process and thread's connection, opened on first use.

        Keyed by pid: a forked child opens its own and leaves the inherited
        one unused and open (closing it could unlink the parent's WAL).
        """
        opened = self._local.__dict__.setdefault("by_pid", {})
        db = opened.get(os.getpid())
        if db is None:
            self.root.mkdir(parents=True, exist_ok=True)
            db = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S,
                                 isolation_level=None)
            try:
                db.execute("PRAGMA journal_mode = WAL")
            except sqlite3.OperationalError:
                pass  # a concurrent first opener is switching the file to WAL
            # A lost tail of entries on power failure costs a recompute.
            db.execute("PRAGMA synchronous = NORMAL")
            db.execute(_SCHEMA)
            opened[os.getpid()] = db
        return db

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or None (counts hit/miss).

        An entry that fails to parse is deleted (best effort) rather than
        re-missed on every later run.
        """
        try:
            db = self._db()
            self._join(db, "BEGIN")
            row = db.execute("SELECT payload FROM entries WHERE key = ?",
                             (key,)).fetchone()
        except (sqlite3.Error, OSError):
            self.errors += 1
            row = None
        if row is None:
            self.misses += 1
            return None
        try:
            payload = json.loads(row[0])
        except (TypeError, ValueError):
            self.corrupt += 1
            self.misses += 1
            try:
                db.execute("DELETE FROM entries WHERE key = ?", (key,))
            except sqlite3.Error:
                pass  # fail-soft: the recompute will overwrite it anyway
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (best effort).

        A payload holding a NaN/Infinity float is refused and counted in
        :attr:`rejected`: those tokens are not standard JSON, so strict
        readers (sqlite's JSON functions among them) could not parse the
        entry.  The sweep keeps its in-memory value and the point
        recomputes next run.
        """
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError:
            self.rejected += 1
            return
        txn = None
        try:
            db = self._db()
            txn = self._join(db, "BEGIN IMMEDIATE")
            db.execute(
                "INSERT OR REPLACE INTO entries (key, payload, bytes, written)"
                " VALUES (?, ?, ?, ?)",
                (key, text, len(text), time.time()),
            )
            if txn is not None:
                txn.written += 1
            if self.max_bytes is None:
                return
            if self._total_bytes is None or self._total_bytes + len(text) > self.max_bytes:
                self._evict(db, keep=key, txn=txn)
            else:
                self._total_bytes += len(text)
        except (sqlite3.Error, OSError):
            self.errors += 1  # fail-soft: a broken cache only costs recomputation
            if txn is not None and not txn.db.in_transaction:
                # sqlite rolled the whole transaction back: its puts are lost.
                self._dropped(txn)

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Run this thread's :meth:`get` / :meth:`put` calls as one transaction.

        The first call inside the block opens it: a get a read
        transaction (``BEGIN``), so a run of lookups shares one snapshot;
        a put a write transaction (``BEGIN IMMEDIATE``), so a run of puts
        commits once instead of once per entry.  Leaving the block
        commits, also when an exception leaves it, so entries put before
        the error stay cached.  A block inside an open one joins it, and
        eviction runs inside it without a nested ``BEGIN``.

        Fail-soft like the accessors: a commit that fails rolls back and
        counts every entry it held in :attr:`errors` (its evictions are
        undone, so they leave :attr:`evicted` too).
        """
        local = self._local
        outer = getattr(local, "txn", None)
        try:
            db = self._db()
        except (sqlite3.Error, OSError):
            db = None  # the calls inside fail soft one by one
        if db is None or (outer is not None and outer.db is db):
            yield
            return
        txn = local.txn = _Transaction(db)
        try:
            yield
        finally:
            local.txn = outer
            if db.in_transaction:
                try:
                    db.execute("COMMIT")
                except sqlite3.Error:
                    try:
                        db.execute("ROLLBACK")
                    except sqlite3.Error:
                        pass
                    self._dropped(txn)

    def _join(self, db: sqlite3.Connection, begin: str) -> Optional[_Transaction]:
        """The open :meth:`transaction` on ``db``, begun with ``begin`` if
        no statement has begun it yet; None outside a block."""
        txn = getattr(self._local, "txn", None)
        if txn is None or txn.db is not db:
            return None  # no block, or a forked child's fresh connection
        if not db.in_transaction:
            db.execute(begin)
        return txn

    def _dropped(self, txn: _Transaction) -> None:
        """Account a rolled-back transaction's puts and evictions."""
        self.errors += txn.written
        self.evicted -= txn.evicted
        txn.written = txn.evicted = 0
        self._total_bytes = None  # re-read the table on the next budgeted put

    def _evict(self, db: sqlite3.Connection, keep: str,
               txn: Optional[_Transaction] = None) -> None:
        """Drop oldest entries until the budget holds, sparing ``keep``.

        Re-reads the table, so entries of other handles and processes
        sharing the root count and are evictable too.  ``keep`` is the
        entry just written: evicting it would defeat the put.  Inside an
        open :meth:`transaction` (``txn``) the deletes join it; otherwise
        they commit as one transaction of their own.
        """
        if txn is None:
            with db:
                db.execute("BEGIN IMMEDIATE")
                doomed, total = self._doomed(db, keep)
        else:
            doomed, total = self._doomed(db, keep)
            txn.evicted += len(doomed)
        self.evicted += len(doomed)
        self._total_bytes = total

    def _doomed(self, db: sqlite3.Connection, keep: str) -> tuple:
        """Delete the oldest entries over budget; (deleted keys, bytes left)."""
        entries = db.execute(
            "SELECT key, bytes FROM entries ORDER BY written, rowid"
        ).fetchall()
        total = sum(size for _, size in entries)
        doomed = []
        for key, size in entries:
            if total <= self.max_bytes:
                break
            if key != keep:
                doomed.append((key,))
                total -= size
        db.executemany("DELETE FROM entries WHERE key = ?", doomed)
        return doomed, total

    def clear(self) -> int:
        """Delete every entry; returns the number removed (test helper)."""
        try:
            return self._db().execute("DELETE FROM entries").rowcount
        except (sqlite3.Error, OSError):
            return 0
