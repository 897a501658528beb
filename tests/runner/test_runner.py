"""The sharded runner's contract: parallel == serial, cache == recompute.

The sweep experiments lean on three guarantees from :mod:`repro.runner`:
stable merge order (so ``--jobs`` never changes output), deterministic
seed derivation (so a shard computes the same thing in any process), and
content-addressed caching (so a repeated sweep returns without simulating).
Each is tested here both in isolation and through a real sweep.
"""

import dataclasses
import sqlite3
from contextlib import closing

import pytest

from repro.config import SKYLAKE
from repro.errors import ReproError
from repro.experiments.noise_sweep import run_noise_sweep
from repro.runner import (
    ResultCache,
    Shard,
    canonical_json,
    derive_seed,
    make_shards,
    run_shards,
)
from repro.sim.machine import Machine


def _square_worker(shard: Shard) -> dict:
    return {"index": shard.index, "seed": shard.seed,
            "square": shard.params["x"] ** 2}


def _nan_worker(shard: Shard) -> dict:
    return {"index": shard.index, "ber": float("nan")}


class TestShards:
    def test_seeds_deterministic_and_distinct(self):
        shards = make_shards(7, [{"x": i} for i in range(32)])
        again = make_shards(7, [{"x": i} for i in range(32)])
        assert [s.seed for s in shards] == [s.seed for s in again]
        assert len({s.seed for s in shards}) == 32

    def test_root_seed_changes_all_shard_seeds(self):
        a = make_shards(1, [{}, {}])
        b = make_shards(2, [{}, {}])
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_derive_seed_handles_dataclasses_and_enums(self):
        one = derive_seed(0, SKYLAKE, {"b": 2, "a": 1})
        two = derive_seed(0, SKYLAKE, {"a": 1, "b": 2})
        assert one == two  # dict order must not matter

    def test_canonical_json_rejects_opaque_objects(self):
        with pytest.raises(ReproError):
            canonical_json({"machine": object()})

    def test_config_survives_canonicalization(self):
        text = canonical_json(SKYLAKE)
        assert SKYLAKE.name in text
        assert text == canonical_json(dataclasses.replace(SKYLAKE))


class TestRunShards:
    def test_parallel_merge_order_matches_serial(self):
        shards = make_shards(3, [{"x": i} for i in range(10)])
        serial = run_shards(_square_worker, shards, jobs=1)
        parallel = run_shards(_square_worker, shards, jobs=4)
        assert serial == parallel
        assert [r["square"] for r in serial] == [i ** 2 for i in range(10)]

    def test_negative_jobs_rejected(self):
        with pytest.raises(ReproError):
            run_shards(_square_worker, [], jobs=-1)

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        shards = make_shards(5, [{"x": i} for i in range(4)])
        first = run_shards(_square_worker, shards, cache=cache, cache_tag="t")
        assert (cache.hits, cache.misses) == (0, 4)
        second = run_shards(_square_worker, shards, cache=cache, cache_tag="t")
        assert first == second
        assert cache.hits == 4

    def test_cache_key_separates_tags_and_params(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = {"worker": "w", "seed": 1, "params": {"x": 1}}
        assert cache.key(**base) != cache.key(**{**base, "seed": 2})
        assert cache.key(tag="a", **base) != cache.key(tag="b", **base)

    def test_cache_is_fail_soft(self, tmp_path):
        cache = ResultCache(tmp_path / "missing")
        key = cache.key(worker="w", seed=0, params={})
        assert cache.get(key) is None  # unreadable -> miss, not error
        cache.put(key, {"v": 1})
        assert cache.get(key) == {"v": 1}

    def test_non_finite_payload_refused_not_cached(self, tmp_path):
        # Regression: allow_nan defaulted on, so a NaN result was cached as
        # a bare ``NaN`` token that json.loads of a strict reader rejects.
        # The cache now refuses the payload (fail-soft) instead.
        cache = ResultCache(tmp_path)
        key = cache.key(worker="w", seed=0, params={})
        cache.put(key, {"ber": float("nan")})
        assert cache.rejected == 1
        assert cache.get(key) is None
        assert ResultCache(tmp_path).get(key) is None

    def test_finite_payload_unaffected_by_rejection_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(worker="w", seed=0, params={})
        cache.put(key, {"ber": 0.25})
        assert cache.rejected == 0
        assert cache.get(key) == {"ber": 0.25}


class TestSweepThroughRunner:
    """ISSUE acceptance: a real sweep, parallel and cached, is bit-identical."""

    BIASES = (0.0, 0.02)

    @pytest.fixture(scope="class")
    def serial(self):
        return run_noise_sweep(
            lambda: Machine.skylake(seed=77), biases=self.BIASES, n_bits=48
        )

    def test_parallel_noise_sweep_bit_identical(self, serial):
        parallel = run_noise_sweep(
            lambda: Machine.skylake(seed=77), biases=self.BIASES, n_bits=48,
            jobs=4,
        )
        assert parallel.curves.keys() == serial.curves.keys()
        for name in serial.curves:
            assert [(p.bias, p.bit_error_rate) for p in parallel.curve(name)] \
                == [(p.bias, p.bit_error_rate) for p in serial.curve(name)]

    def test_second_invocation_served_from_cache(self, serial, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_noise_sweep(
            lambda: Machine.skylake(seed=77), biases=self.BIASES, n_bits=48,
            result_cache=cache,
        )
        computed = cache.misses
        assert computed == len(self.BIASES) * len(first.curves)
        second = run_noise_sweep(
            lambda: Machine.skylake(seed=77), biases=self.BIASES, n_bits=48,
            result_cache=cache,
        )
        assert cache.hits == computed  # every point reused, none recomputed
        assert cache.misses == computed
        for name in first.curves:
            assert [(p.bias, p.bit_error_rate) for p in second.curve(name)] \
                == [(p.bias, p.bit_error_rate) for p in first.curve(name)]
        # And the cached results equal the freshly computed serial baseline.
        for name in serial.curves:
            assert [p.bit_error_rate for p in second.curve(name)] \
                == [p.bit_error_rate for p in serial.curve(name)]


class TestCacheHygiene:
    def test_corrupt_entry_evicted_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(tag="t", x=2)
        cache.put(key, {"x": 2})
        with closing(sqlite3.connect(cache.path)) as db, db:
            db.execute("UPDATE entries SET payload = '{torn write' WHERE key = ?",
                       (key,))
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert cache.misses == 1
        with closing(sqlite3.connect(cache.path)) as db:
            # Evicted, not left to re-fail.
            assert db.execute("SELECT COUNT(*) FROM entries").fetchone() == (0,)
        # The recompute-and-put path repairs the entry.
        cache.put(key, {"x": 2})
        assert cache.get(key) == {"x": 2}

    def test_unreadable_entry_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(cache.key(tag="t", x=3)) is None
        assert cache.misses == 1 and cache.corrupt == 0


class TestRunnerObservability:
    def test_shard_counters_and_histogram(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        shards = make_shards(0, [{"x": i} for i in range(5)])
        run_shards(_square_worker, shards, metrics=registry)
        counters = registry.as_dict("runner.")["counters"]
        assert counters["runner.shards.total"] == 5
        assert counters["runner.shards.computed"] == 5
        assert counters["runner.shards.cached"] == 0
        assert registry.histogram("runner.shard.seconds").count == 5
        assert registry.gauge("runner.pool.jobs").value == 1

    def test_cache_hit_counters(self, tmp_path):
        from repro.obs import MetricsRegistry

        cache = ResultCache(tmp_path)
        shards = make_shards(0, [{"x": i} for i in range(4)])
        run_shards(_square_worker, shards, cache=cache, cache_tag="obs/v1")
        registry = MetricsRegistry()
        run_shards(_square_worker, shards, cache=cache, cache_tag="obs/v1",
                   metrics=registry)
        counters = registry.as_dict("runner.")["counters"]
        assert counters["runner.shards.cached"] == 4
        assert counters["runner.shards.computed"] == 0
        assert counters["runner.cache.hits"] == 4

    def test_cache_storage_failure_counted_not_fatal(self, tmp_path):
        from repro.analysis.reporting import runner_summary
        from repro.obs import MetricsRegistry

        root = tmp_path / "not-a-dir"
        root.write_text("a regular file where the cache root should be")
        shards = make_shards(0, [{"x": i} for i in range(3)])
        registry = MetricsRegistry()
        rows = run_shards(_square_worker, shards, cache=ResultCache(root),
                          cache_tag="obs/v3", metrics=registry)
        assert rows == run_shards(_square_worker, shards)
        errors = registry.counter("runner.cache.errors").value
        assert errors > 0
        assert f"cache write failed ({errors})" in runner_summary(registry)

    def test_rejected_payload_counted(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        run_shards(_nan_worker, make_shards(0, [{"x": 0}]),
                   cache=ResultCache(tmp_path), cache_tag="obs/v4",
                   metrics=registry)
        assert registry.counter("runner.cache.rejected").value == 1
        assert registry.counter("runner.cache.errors").value == 0

    def test_trace_events_recorded(self, tmp_path):
        from repro.obs import EventTrace

        trace = EventTrace()
        shards = make_shards(0, [{"x": i} for i in range(3)])
        run_shards(_square_worker, shards, cache=ResultCache(tmp_path),
                   cache_tag="obs/v2", trace=trace)
        names = [e.name for e in trace.events]
        assert names.count("runner.cache.miss") == 3
        assert names.count("runner.shard") == 3
        assert names[-1] == "runner.sweep"
