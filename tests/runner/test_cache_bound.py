"""Result cache storage: the byte budget, sharing, and failure modes.

Oldest-first eviction under ``max_bytes``, entries shared between
handles and processes on one root, and fail-soft behaviour when the
cache file cannot be opened.  Entry presence is checked through a
second handle, so the counters of the handle under test stay exact.
"""

import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.runner import ResultCache, Shard, make_shards, run_shards

PAYLOAD = {"blob": "x" * 100}
SIZE = len(json.dumps(PAYLOAD, sort_keys=True))


def _stored(root, *keys):
    """Which of ``keys`` a fresh handle on ``root`` can read back."""
    reader = ResultCache(root)
    return [key for key in keys if reader.get(key) is not None]


class TestEviction:
    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        keys = [f"key-{i}" for i in range(50)]
        for key in keys:
            cache.put(key, {"blob": "x" * 512})
        assert cache.evicted == 0
        assert _stored(tmp_path, *keys) == keys

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(str(tmp_path), max_bytes=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(str(tmp_path), max_bytes=-10)

    def test_oldest_entries_evicted_first(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=3 * SIZE)
        for key in ("old", "mid", "new"):
            cache.put(key, PAYLOAD)
        assert cache.evicted == 0
        cache.put("newest", PAYLOAD)  # pushes the total over budget
        assert cache.evicted == 1
        assert _stored(tmp_path, "old", "mid", "new", "newest") == [
            "mid", "new", "newest"
        ]
        for survivor in ("mid", "new", "newest"):
            assert cache.get(survivor) == PAYLOAD

    def test_rewritten_entry_counts_as_new(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=3 * SIZE)
        for key in ("a", "b", "c"):
            cache.put(key, PAYLOAD)
        cache.put("a", PAYLOAD)  # replaces in place: a is now the newest
        cache.put("d", PAYLOAD)
        assert _stored(tmp_path, "a", "b", "c", "d") == ["a", "c", "d"]

    def test_just_written_entry_is_protected(self, tmp_path):
        """A single entry larger than the whole budget must not evict itself."""
        cache = ResultCache(str(tmp_path), max_bytes=64)
        cache.put("small", {"blob": "y"})
        cache.put("big", {"blob": "x" * 256})
        assert cache.get("big") == {"blob": "x" * 256}
        assert cache.evicted == 1
        assert _stored(tmp_path, "small") == []

    def test_evicts_entries_written_by_other_handles(self, tmp_path):
        """Eviction re-reads the table: fleet-shared roots stay bounded."""
        writer = ResultCache(str(tmp_path))  # unbounded sibling handle
        writer.put("foreign", PAYLOAD)
        bounded = ResultCache(str(tmp_path), max_bytes=SIZE + 10)
        bounded.put("mine", PAYLOAD)
        assert bounded.evicted == 1
        assert bounded.get("foreign") is None
        assert bounded.get("mine") == PAYLOAD

    def test_clear_removes_every_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        for key in ("a", "b"):
            cache.put(key, PAYLOAD)
        assert cache.clear() == 2
        assert _stored(tmp_path, "a", "b") == []


class TestStorageFailures:
    def test_unopenable_cache_file_degrades_to_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path.write_bytes(b"this is not a sqlite database" * 64)
        assert cache.get("k") is None
        cache.put("k", PAYLOAD)  # no error: the write is simply lost
        assert cache.get("k") is None
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 2, 0)
        assert cache.clear() == 0

    def test_root_that_is_a_file_degrades_to_misses(self, tmp_path):
        root = tmp_path / "not-a-directory"
        root.write_text("")
        cache = ResultCache(root, max_bytes=64)
        cache.put("k", PAYLOAD)
        assert cache.get("k") is None
        assert cache.misses == 1

    def test_pre_sqlite_entry_trees_are_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(tag="t", x=1)
        legacy = tmp_path / key[:2] / f"{key}.json"
        legacy.parent.mkdir()
        legacy.write_text(json.dumps({"x": "stale"}))
        assert cache.get(key) is None
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}


PER_WRITER = 40


def _write_entries(root, writer, barrier, out):
    """One writer process: PER_WRITER entries, racing the other writer."""
    cache = ResultCache(root)
    barrier.wait(timeout=30)
    for i in range(PER_WRITER):
        cache.put(f"w{writer}-{i}", {"writer": writer, "i": i})
    out.put((writer, cache.get(f"w{writer}-0") is not None))


class TestSharedRoot:
    def test_two_processes_write_one_root(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        out = ctx.Queue()
        writers = [
            ctx.Process(target=_write_entries,
                        args=(str(tmp_path), w, barrier, out))
            for w in (0, 1)
        ]
        for proc in writers:
            proc.start()
        reported = dict(out.get(timeout=120) for _ in writers)
        for proc in writers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert reported == {0: True, 1: True}
        reader = ResultCache(tmp_path)
        for w in (0, 1):
            for i in range(PER_WRITER):
                assert reader.get(f"w{w}-{i}") == {"writer": w, "i": i}
        assert reader.misses == 0

    def test_threads_share_one_handle(self, tmp_path):
        cache = ResultCache(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda t=t: [
                    cache.put(f"t{t}-{i}", {"i": i}) for i in range(25)
                ])
                for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        keys = [f"t{t}-{i}" for t in range(4) for i in range(25)]
        assert _stored(tmp_path, *keys) == keys

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_opens_its_own_connection(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("parent", PAYLOAD)
        parent_db = cache._db()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            fresh = cache._db() is not parent_db
            cache.put("child", {"pid": os.getpid()})
            send.send((fresh, cache.get("parent")))

        proc = ctx.Process(target=child)
        proc.start()
        assert receive.poll(60)
        assert receive.recv() == (True, PAYLOAD)
        proc.join(timeout=30)
        assert proc.exitcode == 0
        # The parent's connection still works and sees the child's entry.
        assert cache._db() is parent_db
        assert cache.get("child") == {"pid": proc.pid}


def _worker(shard: Shard) -> dict:
    return {"index": shard.index, "blob": "z" * 200}


class TestMetricsSurface:
    def test_runner_cache_evicted_counter(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(str(tmp_path), max_bytes=600)
        shards = make_shards(0, [{"x": i} for i in range(8)])
        run_shards(_worker, shards, cache=cache, metrics=registry)
        counters = registry.as_dict("runner.")["counters"]
        assert counters["runner.cache.evicted"] == cache.evicted
        assert cache.evicted > 0

    def test_sweep_results_correct_even_while_evicting(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=600)
        shards = make_shards(0, [{"x": i} for i in range(8)])
        bounded = run_shards(_worker, shards, cache=cache)
        unbounded = run_shards(_worker, shards)
        assert bounded == unbounded
