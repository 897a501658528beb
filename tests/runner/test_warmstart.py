"""The warm-start executor's contract: faster, never different.

ISSUE acceptance: a warm-start capacity sweep must be **byte-identical**
to the cold path at ``jobs=1`` and ``jobs=4``, with and without a
recoverable fault plan; checkpoint work must be visible in metrics; and
the checkpoint digest must compose with the result cache (warm reruns are
all hits, a changed prefix never collides).
"""

import dataclasses
import sys
import threading

import pytest

from repro.config import SKYLAKE
from repro.errors import ReproError
from repro.experiments.capacity_sweep import (
    _CAPACITY_PLAN,
    _capacity_setup,
    run_capacity_sweep,
)
from repro.faults import FaultPlan
from repro.obs import EventTrace, MetricsRegistry
from repro.runner import (
    ResultCache,
    Shard,
    TraceBatchPlan,
    WarmStartPlan,
    clear_warm_states,
    make_shards,
    run_shards,
)
from repro.runner import warmstart
from repro.runner.warmstart import PlanWorker, WarmState, _memo_key, _memo_put
from repro.sim.machine import Machine
from repro.store import CampaignStore
from repro.victims.noise import NoiseConfig

CRASH_PLAN = FaultPlan(seed=0, crash_probability=0.2)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_warm_states()
    yield
    clear_warm_states()


# -- toy plan: a stub machine that records setup/restore discipline

SETUP_CALLS = []


class _StubCheckpoint:
    def __init__(self, base):
        self.base = base

    def digest(self):
        return f"stub-{self.base}"

    @property
    def approx_bytes(self):
        return 40 + self.base

    def _material(self):  # parity with MachineCheckpoint's surface
        return repr(self.base).encode()


class _StubMachine:
    """Tracks mutations the way a real machine's clock would."""

    def __init__(self, base):
        self.base = base
        self.state = base
        self.restores = 0

    def checkpoint(self):
        return _StubCheckpoint(self.base)

    def restore(self, checkpoint):
        assert checkpoint.base == self.base
        self.state = self.base
        self.restores += 1


def _stub_setup(prefix):
    SETUP_CALLS.append(prefix["base"])
    return _StubMachine(prefix["base"]), "ctx"


def _stub_body(machine, context, shard):
    assert context == "ctx"
    assert machine.state == machine.base  # restored, not dirty
    machine.state += shard.params["x"]  # dirty it for the next trial
    return {"y": machine.base + shard.params["x"], "restores": machine.restores}


STUB_PLAN = WarmStartPlan(
    setup=_stub_setup, body=_stub_body, prefix_keys=("base",)
)


STUB_BATCH_PLAN = TraceBatchPlan(
    setup=_stub_setup,
    make_trace=lambda machine, context, shard: [],
    reduce=lambda trial, context, shard: {},
    prefix_keys=("base",),
)


def _stub_shards(bases=(10, 20), xs=(1, 2, 3), seed=0):
    return make_shards(seed, [
        {"base": base, "x": x} for base in bases for x in xs
    ])


class TestInputsCheckedFirst:
    """Bad input is rejected before any prefix setup runs."""

    @pytest.mark.parametrize("plan", [STUB_PLAN, STUB_BATCH_PLAN],
                             ids=["warmstart", "batch"])
    @pytest.mark.parametrize("kwargs,match", [
        (dict(jobs=-1), "jobs"),
        (dict(retries=-1), "retries"),
        (dict(duplicate=True), "duplicate shard index"),
        (dict(missing=True), "missing prefix param"),
    ])
    def test_no_setup_before_rejection(self, plan, kwargs, match):
        SETUP_CALLS.clear()
        shards = _stub_shards()
        kwargs = dict(kwargs)
        if kwargs.pop("duplicate", False):
            shards[-1] = Shard(shards[0].index, 0, shards[-1].params)
        if kwargs.pop("missing", False):
            shards[-1] = Shard(shards[-1].index, 0, {"x": 1})
        with pytest.raises(ReproError, match=match):
            run_shards(plan, shards, **kwargs)
        assert SETUP_CALLS == []

    def test_bad_batch_size_rejected_with_the_plan(self):
        SETUP_CALLS.clear()
        with pytest.raises(ReproError, match="batch_size"):
            run_shards(dataclasses.replace(STUB_BATCH_PLAN, batch_size=0),
                       _stub_shards())
        assert SETUP_CALLS == []


class TestWarmStartPlan:
    def test_groups_build_each_prefix_once(self):
        SETUP_CALLS.clear()
        results = run_shards(STUB_PLAN, _stub_shards())
        assert sorted(SETUP_CALLS) == [10, 20]
        assert [r["y"] for r in results] == [11, 12, 13, 21, 22, 23]

    def test_restore_runs_before_every_body(self):
        results = run_shards(STUB_PLAN, _stub_shards(bases=(5,)))
        # One shared machine, restored once per trial: 1, 2, 3.
        assert [r["restores"] for r in results] == [1, 2, 3]

    def test_missing_prefix_param_is_a_clear_error(self):
        shard = make_shards(0, [{"x": 1}])[0]
        with pytest.raises(ReproError, match="missing prefix param"):
            STUB_PLAN.prefix_of(shard)

    def test_digest_joins_the_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        shards = _stub_shards(bases=(10,))
        first = run_shards(STUB_PLAN, shards, cache=cache, cache_tag="t")
        assert (cache.hits, cache.misses) == (0, len(shards))
        clear_warm_states()
        second = run_shards(STUB_PLAN, shards, cache=cache, cache_tag="t")
        assert second == first
        assert cache.hits == len(shards)
        # A different prefix (hence different digest) must miss, not collide.
        clear_warm_states()
        run_shards(STUB_PLAN, _stub_shards(bases=(11,)), cache=cache,
                   cache_tag="t")
        assert cache.misses == 2 * len(shards)

    def test_checkpoint_metrics_and_trace(self):
        registry = MetricsRegistry()
        trace = EventTrace()
        run_shards(STUB_PLAN, _stub_shards(), metrics=registry,
                   trace=trace)
        counters = registry.as_dict("runner.checkpoint")["counters"]
        assert counters["runner.checkpoint.captures"] == 2
        assert counters["runner.checkpoint.restores"] == 6
        assert counters["runner.checkpoint.bytes"] == (40 + 10) + (40 + 20)
        assert registry.gauge("runner.checkpoint.saved_seconds").value >= 0
        captures = [e for e in trace.events
                    if e.name == "runner.checkpoint.capture"]
        assert len(captures) == 2
        assert all(e.fields["trials"] == 3 for e in captures)


# -- the real thing: capacity sweep, warm vs cold, at any jobs value

_INTERVALS = (2100, 1800, 1500)


def _sweep(warm, jobs=1, faults=None, retries=0, metrics=None, cache=None):
    return run_capacity_sweep(
        lambda: Machine.skylake(seed=3), "ntp+ntp", intervals=_INTERVALS,
        n_bits=24, seed=5, jobs=jobs, warm_start=warm, faults=faults,
        retries=retries, metrics=metrics, result_cache=cache,
    )


class TestCapacitySweepEquivalence:
    def test_warm_equals_cold_at_jobs_1_and_4(self):
        baseline = _sweep(warm=False).points
        for jobs in (1, 4):
            clear_warm_states()
            assert _sweep(warm=True, jobs=jobs).points == baseline

    def test_warm_equals_cold_under_recoverable_faults(self):
        baseline = _sweep(warm=False).points
        for jobs in (1, 4):
            clear_warm_states()
            chaotic = _sweep(warm=True, jobs=jobs, faults=CRASH_PLAN,
                             retries=3)
            assert chaotic.points == baseline

    def test_checkpoint_metrics_on_a_real_sweep(self):
        registry = MetricsRegistry()
        _sweep(warm=True, metrics=registry)
        counters = registry.as_dict("runner.checkpoint")["counters"]
        assert counters["runner.checkpoint.captures"] == 1  # one curve prefix
        assert counters["runner.checkpoint.restores"] == len(_INTERVALS)
        assert counters["runner.checkpoint.bytes"] > 10_000  # a real machine

    def test_warm_rerun_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = _sweep(warm=True, cache=cache)
        assert (cache.hits, cache.misses) == (0, len(_INTERVALS))
        clear_warm_states()
        second = _sweep(warm=True, cache=cache)
        assert second.points == first.points
        assert cache.hits == len(_INTERVALS)

    def test_warm_and_cold_never_collide_in_the_cache(self, tmp_path):
        # Warm and cold runs of the same sweep compute the same values but
        # carry different worker identities, so each path owns its entries.
        cache = ResultCache(tmp_path)
        warm = _sweep(warm=True, cache=cache)
        cold = _sweep(warm=False, cache=cache)
        assert cold.points == warm.points
        assert cache.misses == 2 * len(_INTERVALS)


# -- prefix reuse: a later sweep restores the memoized prefix, never rebuilds


def _counting_capacity_setup(prefix):
    SETUP_CALLS.append(prefix["seed"])
    return _capacity_setup(prefix)


COUNTED_CAPACITY_PLAN = dataclasses.replace(
    _CAPACITY_PLAN, setup=_counting_capacity_setup
)


def _capacity_shards():
    return make_shards(5, [
        {
            "config": SKYLAKE,
            "machine_seed": 3,
            "engine": "object",
            "channel": "ntp+ntp",
            "interval": interval,
            "n_bits": 24,
            "seed": 5,
            "noise": NoiseConfig(),
        }
        for interval in _INTERVALS
    ])


def _recorded(plan, shards, path, **kwargs):
    """Rows, store fingerprint, cache keys and checkpoint digests of one
    run into a fresh store and a fresh (so all-miss) cache."""
    cache = ResultCache(path / "cache")
    with CampaignStore(path / "runs.sqlite") as store:
        rows = run_shards(plan, shards, cache=cache, cache_tag="reuse",
                          store=store, campaign="reuse", **kwargs)
        (run,) = store.runs("reuse")
        keys = [row.cache_key for row in store.shard_rows(run.id)]
        return rows, run.fingerprint, keys, store.checkpoint_digests(run.id)


class TestPrefixReuse:
    def test_second_sweep_skips_setup_and_matches_a_rebuild(self, tmp_path):
        shards = _capacity_shards()
        SETUP_CALLS.clear()
        first = _recorded(COUNTED_CAPACITY_PLAN, shards, tmp_path / "first")
        assert SETUP_CALLS == [5]
        SETUP_CALLS.clear()
        registry, trace = MetricsRegistry(), EventTrace()
        second = _recorded(COUNTED_CAPACITY_PLAN, shards, tmp_path / "second",
                           metrics=registry, trace=trace)
        assert SETUP_CALLS == []
        clear_warm_states()
        rebuilt = _recorded(COUNTED_CAPACITY_PLAN, shards, tmp_path / "rebuilt")
        assert SETUP_CALLS == [5]
        assert second == rebuilt == first

        counters = registry.as_dict("runner.checkpoint")["counters"]
        assert counters["runner.checkpoint.captures"] == 0
        assert counters["runner.checkpoint.reuses"] == 1
        assert counters["runner.checkpoint.restores"] == len(_INTERVALS)
        names = [event.name for event in trace.events]
        assert "runner.checkpoint.capture" not in names
        (reuse,) = [e for e in trace.events if e.name == "runner.checkpoint.reuse"]
        assert reuse.fields["digest"] == list(first[3].values())[0]
        assert reuse.fields["trials"] == len(_INTERVALS)

    def test_reuse_credits_the_stored_build_time(self):
        run_shards(STUB_PLAN, _stub_shards())
        build = sum(state.build_seconds for state in warmstart._WARM_STATES.values())
        registry = MetricsRegistry()
        run_shards(STUB_PLAN, _stub_shards(), metrics=registry)
        saved = registry.gauge("runner.checkpoint.saved_seconds").value
        assert saved == pytest.approx(build * 3)  # 3 trials per prefix

    def test_plan_with_another_setup_gets_its_own_state(self):
        def other_rows():
            return [row["y"] for row in run_shards(OTHER_SETUP_PLAN, _stub_shards())]

        assert OTHER_SETUP_PLAN.identity() == STUB_PLAN.identity()
        run_shards(STUB_PLAN, _stub_shards())
        SETUP_CALLS.clear()
        assert other_rows() == [111, 112, 113, 121, 122, 123]
        assert sorted(SETUP_CALLS) == [110, 120]

    def test_another_thread_never_gets_the_state(self):
        run_shards(STUB_PLAN, _stub_shards())
        SETUP_CALLS.clear()
        thread = threading.Thread(target=run_shards, args=(STUB_PLAN, _stub_shards()))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert sorted(SETUP_CALLS) == [10, 20]
        SETUP_CALLS.clear()
        run_shards(STUB_PLAN, _stub_shards())  # this thread's states survive
        assert SETUP_CALLS == []

    @pytest.mark.parametrize("drop", ["evicted", "cleared"])
    def test_dropped_prefix_rebuilds_with_the_same_digest(self, drop, tmp_path):
        shards = _capacity_shards()
        first = _recorded(COUNTED_CAPACITY_PLAN, shards, tmp_path / "first")
        if drop == "evicted":
            run_shards(STUB_PLAN, _stub_shards(bases=range(warmstart._MAX_WARM_STATES)))
        else:
            clear_warm_states()
        SETUP_CALLS.clear()
        again = _recorded(COUNTED_CAPACITY_PLAN, shards, tmp_path / "again")
        assert SETUP_CALLS == [5]
        assert again == first

    def test_a_hit_refreshes_the_entry_and_the_oldest_is_evicted(self):
        cap = warmstart._MAX_WARM_STATES
        run_shards(STUB_PLAN, _stub_shards(bases=range(cap)))
        run_shards(STUB_PLAN, _stub_shards(bases=(0,)))  # hit: 0 is now newest
        run_shards(STUB_PLAN, _stub_shards(bases=(cap,)))  # evicts 1, not 0
        assert len(warmstart._WARM_STATES) == cap
        SETUP_CALLS.clear()
        run_shards(STUB_PLAN, _stub_shards(bases=(0,)))
        assert SETUP_CALLS == []
        run_shards(STUB_PLAN, _stub_shards(bases=(1,)))
        assert SETUP_CALLS == [1]

    def test_worker_rejects_an_entry_with_another_digest(self):
        key = _memo_key(STUB_PLAN, '{"base":10}')
        stale = _StubMachine(99)
        _memo_put(key, WarmState(stale, "ctx", _StubCheckpoint(99), "stub-99", 0.0))
        SETUP_CALLS.clear()
        worker = PlanWorker(STUB_PLAN, {'{"base":10}': "stub-10"})
        shard = make_shards(0, [{"base": 10, "x": 5}])[0]
        assert worker(shard)["y"] == 15
        assert SETUP_CALLS == [10]
        assert warmstart._WARM_STATES[key].digest == "stub-10"


def _other_stub_setup(prefix):
    SETUP_CALLS.append(prefix["base"] + 100)
    return _StubMachine(prefix["base"] + 100), "ctx"


#: Same body (hence same identity) and prefix keys as STUB_PLAN, other setup.
OTHER_SETUP_PLAN = dataclasses.replace(STUB_PLAN, setup=_other_stub_setup)


class TestMemoThreadSafety:
    def test_concurrent_puts_keep_the_cap(self):
        """Four threads hammering the memo with a tiny switch interval: no
        exception, and the memo never ends over its cap."""
        errors = []

        def hammer(tag):
            try:
                for i in range(20_000):
                    key = (tag, i)
                    _memo_put(key, WarmState(None, None, None, "d", 0.0))
                    warmstart._memo_get(key)
            except Exception as error:  # pragma: no cover - the failure mode
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(warmstart._WARM_STATES) == warmstart._MAX_WARM_STATES
