"""Two processes, one campaign store file: nobody loses a write.

The sweep service points every dispatcher (and the CLI, concurrently) at
one sqlite store.  WAL journaling plus a busy timeout make that safe: a
writer that meets another writer's transaction waits it out instead of
failing with ``database is locked``, and readers never block writers.
"""

import multiprocessing
import queue
import sqlite3
import sys
import threading

from repro.runner import make_shards
from repro.store import CampaignStore

RUNS_PER_WRITER = 8


def _write_runs(store_path, writer, barrier, out):
    """One writer process: record RUNS_PER_WRITER runs, all racing."""
    shards = make_shards(writer, [{"x": i} for i in range(3)])
    results = [{"index": s.index, "x": s.params["x"]} for s in shards]
    store = CampaignStore(store_path)
    try:
        barrier.wait(timeout=30)  # maximize write overlap
        ids = []
        for n in range(RUNS_PER_WRITER):
            ids.append(store.record_run(
                f"concurrency/writer-{writer}",
                shards,
                results,
                executor="test",
                engine=None,
                engine_version="test-0",
                jobs=1,
                shards_computed=len(shards),
                metrics={"writer": writer, "n": n},
            ))
        out.put((writer, ids))
    finally:
        store.close()


RACERS = 4


def _first_run(store_path, racer, barrier, out):
    """Record one run into a campaign nobody has created yet."""
    shards = make_shards(racer, [{"x": 0}])
    store = CampaignStore(store_path)
    try:
        barrier.wait(timeout=60)
        try:
            out.put(store.record_run(
                "race/fresh", shards, [{"x": racer}],
                executor="test", engine=None, engine_version="test-0",
            ))
        except sqlite3.Error as error:
            out.put(repr(error))
    finally:
        store.close()


def _assert_one_campaign_holds(store_path, run_ids):
    assert all(isinstance(run_id, int) for run_id in run_ids), run_ids
    assert len(set(run_ids)) == RACERS
    store = CampaignStore(store_path)
    try:
        assert [c.runs for c in store.campaigns()] == [RACERS]
        assert sorted(r.id for r in store.runs("race/fresh")) == sorted(run_ids)
    finally:
        store.close()


class TestFreshCampaignRace:
    """Concurrent first runs into one new campaign all land in it.

    The campaign upsert once read, then inserted: two racers could both
    miss the name and the loser failed on its UNIQUE constraint.
    """

    def test_threads(self, tmp_path):
        store_path = str(tmp_path / "race.sqlite")
        CampaignStore(store_path).close()
        barrier = threading.Barrier(RACERS)
        out = queue.Queue()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            racers = [
                threading.Thread(target=_first_run,
                                 args=(store_path, r, barrier, out))
                for r in range(RACERS)
            ]
            for thread in racers:
                thread.start()
            for thread in racers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        _assert_one_campaign_holds(
            store_path, [out.get_nowait() for _ in range(RACERS)]
        )

    def test_processes(self, tmp_path):
        store_path = str(tmp_path / "race.sqlite")
        CampaignStore(store_path).close()
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(RACERS)
        out = ctx.Queue()
        racers = [
            ctx.Process(target=_first_run, args=(store_path, r, barrier, out))
            for r in range(RACERS)
        ]
        for proc in racers:
            proc.start()
        run_ids = [out.get(timeout=120) for _ in racers]
        for proc in racers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        _assert_one_campaign_holds(store_path, run_ids)


class TestConcurrentWriters:
    def test_two_processes_share_one_store_file(self, tmp_path):
        store_path = str(tmp_path / "shared.sqlite")
        CampaignStore(store_path).close()  # create the schema up front

        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        out = ctx.Queue()
        writers = [
            ctx.Process(target=_write_runs, args=(store_path, w, barrier, out))
            for w in (0, 1)
        ]
        for proc in writers:
            proc.start()
        reported = {}
        for _ in writers:
            writer, ids = out.get(timeout=120)
            reported[writer] = ids
        for proc in writers:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        store = CampaignStore(store_path)
        try:
            # Every run from both writers landed, none overwrote another.
            all_ids = [i for ids in reported.values() for i in ids]
            assert len(set(all_ids)) == 2 * RUNS_PER_WRITER
            for writer, ids in reported.items():
                runs = store.runs(f"concurrency/writer-{writer}")
                assert [r.id for r in runs] == sorted(ids)
                assert len(runs) == RUNS_PER_WRITER
        finally:
            store.close()

    def test_file_store_journals_in_wal(self, tmp_path):
        store_path = str(tmp_path / "wal.sqlite")
        store = CampaignStore(store_path)
        try:
            mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            timeout = store._db.execute("PRAGMA busy_timeout").fetchone()[0]
            assert timeout >= 5_000
        finally:
            store.close()

    def test_reader_sees_writers_commit_immediately(self, tmp_path):
        """WAL's promise: a second connection reads committed rows."""
        store_path = str(tmp_path / "visible.sqlite")
        writer = CampaignStore(store_path)
        reader = CampaignStore(store_path)
        try:
            shards = make_shards(0, [{"x": 1}])
            writer.record_run(
                "concurrency/visibility", shards,
                [{"index": 0, "x": 1}],
                executor="test", engine=None, engine_version="test-0",
            )
            assert len(reader.runs("concurrency/visibility")) == 1
        finally:
            writer.close()
            reader.close()

    def test_memory_store_untouched_by_wal_pragmas(self):
        store = CampaignStore(":memory:")
        try:
            mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "memory"
        finally:
            store.close()
