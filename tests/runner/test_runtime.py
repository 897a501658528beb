"""The persistent runtime's contract: reused, shared, never different.

ISSUE acceptance: a persistent :class:`~repro.runner.Runtime` behind
``run_shards`` (plain workers and warm-start plans) must produce bit-identical output to
the fresh-pool path at any ``jobs`` value; pool reuse and shared-memory
traffic must be visible as ``runner.runtime.*`` metrics; a fully cached
sweep must never construct a worker pool; and teardown must leave zero
orphaned worker processes or ``/dev/shm`` segments.
"""

import os

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import EventTrace, MetricsRegistry
from repro.runner import (
    FRESH,
    ResultCache,
    Runtime,
    WarmStartPlan,
    clear_warm_states,
    make_shards,
    resolve_runtime,
    run_shards,
    set_default_runtime,
    use_default_runtime,
)
from repro.runner.runtime import (
    RUNTIME_ENV,
    PayloadRef,
    _ATTACHED,
    _guard_epoch,
    clear_attached_payloads,
    get_default_runtime,
    load_payload,
    runtime_configured,
)
from repro.runner.warmstart import _WARM_STATES, _memo_put


@pytest.fixture(autouse=True)
def _clean_runtime_state(monkeypatch):
    monkeypatch.delenv(RUNTIME_ENV, raising=False)
    set_default_runtime(None)
    clear_warm_states()
    clear_attached_payloads()
    yield
    set_default_runtime(None)
    clear_warm_states()
    clear_attached_payloads()


def _square_worker(shard):
    return {"index": shard.index, "seed": shard.seed, "square": shard.params["x"] ** 2}


def _wide_worker(shard):
    """Returns a block big enough to trigger shared-memory result return."""
    return {"index": shard.index, "blob": list(range(100_000))}


def _negate(x):
    return -x


def _shards(n=12, seed=3):
    return make_shards(seed, [{"x": i} for i in range(n)])


def _leftover_segments():
    return [f for f in os.listdir("/dev/shm") if f.startswith("repro_rt")]


class TestRuntimeMap:
    def test_identical_to_fresh_at_any_jobs(self):
        baseline = run_shards(_square_worker, _shards(), jobs=1)
        with Runtime() as rt:
            for jobs in (1, 2, 4):
                assert run_shards(
                    _square_worker, _shards(), jobs=jobs, runtime=rt
                ) == baseline

    def test_pool_survives_across_calls(self):
        registry = MetricsRegistry()
        with Runtime() as rt:
            for _ in range(3):
                run_shards(
                    _square_worker, _shards(), jobs=2, runtime=rt, metrics=registry
                )
            assert rt.pools == 1
            assert rt.reuses == 2
            assert registry.counter("runner.runtime.pools").value == 1
            assert registry.counter("runner.runtime.reuses").value == 2
            assert registry.counter("runner.runtime.maps").value == 3

    def test_pool_respawns_wider_never_narrower(self):
        with Runtime() as rt:
            rt.map(str, list(range(8)), jobs=2)
            assert rt.workers_spawned == 2
            rt.map(str, list(range(8)), jobs=4)  # wider: respawn
            assert rt.pools == 2
            assert rt.workers_spawned == 6
            rt.map(str, list(range(8)), jobs=2)  # narrower: reuse
            assert rt.pools == 2

    def test_map_preserves_item_order(self):
        with Runtime() as rt:
            out = rt.map(_negate, list(range(37)), jobs=4)
        assert out == [-x for x in range(37)]

    def test_map_empty_and_closed(self):
        rt = Runtime()
        assert rt.map(str, [], jobs=4) == []
        rt.close()
        with pytest.raises(ReproError, match="closed"):
            rt.map(str, [1], jobs=2)
        rt.close()  # idempotent

    def test_large_results_return_via_shared_memory(self):
        registry = MetricsRegistry()
        with Runtime() as rt:
            rows = run_shards(
                _wide_worker, _shards(4), jobs=2, runtime=rt, metrics=registry
            )
        assert [row["blob"][-1] for row in rows] == [99_999] * 4
        assert registry.counter("runner.runtime.shm.result_bytes").value > 0
        assert _leftover_segments() == []


class TestPayloads:
    def test_payload_round_trip_and_dedup(self):
        obj = {"table": np.arange(64, dtype=np.int64), "tag": "x"}
        with Runtime() as rt:
            ref = rt.put_payload(obj)
            assert isinstance(ref, PayloadRef)
            again = rt.put_payload({"table": np.arange(64, dtype=np.int64), "tag": "x"})
            assert again == ref  # content-deduplicated
            loaded = load_payload(ref)
            assert loaded["tag"] == "x"
            np.testing.assert_array_equal(loaded["table"], obj["table"])
            # Zero-copy: the array is a read-only view over the segment.
            assert not loaded["table"].flags.writeable
            clear_attached_payloads()
        assert _leftover_segments() == []

    def test_close_unlinks_segments(self):
        rt = Runtime()
        rt.put_payload({"plane": np.zeros(4096, dtype=np.int64)})
        assert len(_leftover_segments()) == 1
        rt.close()
        assert _leftover_segments() == []
        with pytest.raises(ReproError, match="closed"):
            rt.put_payload({"x": 1})

    def test_attached_cache_is_bounded(self):
        with Runtime() as rt:
            refs = [rt.put_payload({"i": i, "pad": bytes(8192)}) for i in range(20)]
            for ref in refs:
                load_payload(ref)
            assert len(_ATTACHED) <= 16
            clear_attached_payloads()


class TestEpochGuard:
    def test_epoch_bump_clears_worker_state(self):
        token = 991
        _memo_put(("plan", "{}", "digest"), ("machine", "ctx", "checkpoint"))
        _guard_epoch(token, 0)  # first sighting: nothing to clear
        assert ("plan", "{}", "digest") in _WARM_STATES
        _guard_epoch(token, 0)  # same epoch: state survives
        assert ("plan", "{}", "digest") in _WARM_STATES
        _guard_epoch(token, 1)  # bumped: memo and payload cache reset
        assert _WARM_STATES == {}

    def test_bump_epoch_increments(self):
        with Runtime() as rt:
            assert rt.epoch == 0
            assert rt.bump_epoch() == 1
            baseline = run_shards(_square_worker, _shards(), jobs=1)
            assert run_shards(_square_worker, _shards(), jobs=2, runtime=rt) == baseline


class TestResolution:
    def test_explicit_beats_default(self):
        with Runtime() as mine, Runtime() as installed:
            with use_default_runtime(installed):
                assert resolve_runtime(mine) is mine
                assert resolve_runtime(None) is installed
                assert resolve_runtime(FRESH) is None

    def test_default_scope_restores_previous(self):
        with Runtime() as outer, Runtime() as inner:
            set_default_runtime(outer)
            with use_default_runtime(inner):
                assert resolve_runtime(None) is inner
            assert resolve_runtime(None) is outer
            set_default_runtime(None)
            assert resolve_runtime(None) is None

    def test_fresh_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV, "persistent")
        with use_default_runtime(FRESH):
            assert resolve_runtime(None) is None
        env_rt = get_default_runtime()
        assert env_rt is not None and not env_rt.closed
        env_rt.close()

    def test_env_validation_is_eager(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV, "turbo")
        with pytest.raises(ReproError, match="turbo"):
            get_default_runtime()

    def test_rejects_unknown_string_and_closed(self):
        with pytest.raises(ReproError, match="unknown runtime"):
            resolve_runtime("sticky")
        rt = Runtime()
        rt.close()
        with pytest.raises(ReproError, match="closed"):
            resolve_runtime(rt)

    def test_runtime_configured_reflects_any_choice(self, monkeypatch):
        assert not runtime_configured()
        with use_default_runtime(FRESH):
            assert runtime_configured()
        monkeypatch.setenv(RUNTIME_ENV, "persistent")
        assert runtime_configured()


class _NoSpawn:
    """Stand-in executor class that fails the test if instantiated."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was constructed")


class TestCachedSweepSkipsSpawn:
    def test_fully_cached_sweep_creates_no_workers(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        baseline = run_shards(
            _square_worker, _shards(), jobs=1, cache=cache, cache_tag="rt/skip/v1"
        )
        monkeypatch.setattr(
            "repro.runner.pool.ProcessPoolExecutor", _NoSpawn
        )
        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", _NoSpawn
        )
        with Runtime() as rt:
            for runtime in (rt, FRESH):
                rows = run_shards(
                    _square_worker, _shards(), jobs=4,
                    cache=cache, cache_tag="rt/skip/v1", runtime=runtime,
                )
                assert rows == baseline
            assert rt.pools == 0
            assert rt.worker_pids() == []

    def test_single_pending_shard_runs_inline(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        shards = _shards(6)
        run_shards(
            _square_worker, shards[:-1], jobs=1, cache=cache, cache_tag="rt/one/v1"
        )
        monkeypatch.setattr("repro.runner.pool.ProcessPoolExecutor", _NoSpawn)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _NoSpawn)
        rows = run_shards(
            _square_worker, shards, jobs=4, cache=cache, cache_tag="rt/one/v1"
        )
        assert rows == run_shards(
            _square_worker, shards, jobs=1, cache=cache, cache_tag="rt/one/v1"
        )


# -- warm start under a persistent runtime (shipped checkpoint table) -------

SETUP_CALLS = []


class _StubCheckpoint:
    def __init__(self, base):
        self.base = base

    def digest(self):
        return f"stub-{self.base}"

    @property
    def approx_bytes(self):
        return 40 + self.base


class _StubMachine:
    def __init__(self, base):
        self.base = base
        self.state = base

    def checkpoint(self):
        return _StubCheckpoint(self.base)

    def restore(self, checkpoint):
        assert checkpoint.base == self.base
        self.state = self.base


def _stub_setup(prefix):
    SETUP_CALLS.append(prefix["base"])
    return _StubMachine(prefix["base"]), "ctx"


def _stub_body(machine, context, shard):
    machine.state += shard.params["x"]
    return {"y": machine.base + shard.params["x"]}


STUB_PLAN = WarmStartPlan(setup=_stub_setup, body=_stub_body, prefix_keys=("base",))


class TestWarmStartUnderRuntime:
    def _shards(self):
        return make_shards(0, [
            {"base": base, "x": x} for base in (10, 20) for x in (1, 2, 3)
        ])

    def test_results_and_checkpoint_shipping(self):
        baseline = run_shards(STUB_PLAN, self._shards(), jobs=1)
        clear_warm_states()
        registry = MetricsRegistry()
        with Runtime() as rt:
            rows = run_shards(
                STUB_PLAN, self._shards(), jobs=2, runtime=rt, metrics=registry
            )
        assert rows == baseline
        # The parent-built checkpoint table went out via shared memory.
        assert registry.counter("runner.runtime.shm.segments").value >= 1
        assert registry.counter("runner.runtime.shm.bytes").value > 0
        assert _leftover_segments() == []

    def test_worker_adopts_shipped_checkpoint(self):
        """A memo-missing worker restores the parent's checkpoint object."""
        from repro.runner.warmstart import PlanWorker, _memo_key

        clear_warm_states()
        with Runtime() as rt:
            table = {'{"base":10}': _StubCheckpoint(10)}
            ref = rt.put_payload(table)
            worker = PlanWorker(
                STUB_PLAN, {'{"base":10}': "stub-10"}, checkpoints=ref
            )
            shard = make_shards(0, [{"base": 10, "x": 5}])[0]
            assert worker(shard) == {"y": 15}
            # The adopted checkpoint is the shipped one, not a local capture.
            memo_key = _memo_key(STUB_PLAN.identity(), '{"base":10}', "stub-10")
            adopted = _WARM_STATES[memo_key][2]
            assert adopted.base == 10
            assert adopted is load_payload(ref)['{"base":10}']
            clear_attached_payloads()
        clear_warm_states()


class TestTeardownLeavesNothing:
    def test_no_orphan_processes_or_segments(self):
        with Runtime() as rt:
            run_shards(_wide_worker, _shards(4), jobs=2, runtime=rt)
            rt.put_payload({"plane": np.zeros(2048, dtype=np.int64)})
            pids = rt.worker_pids()
            assert pids
        assert _leftover_segments() == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
