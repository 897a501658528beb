"""The warm-start executor's contract: faster, never different.

ISSUE acceptance: a warm-start capacity sweep must be **byte-identical**
to the cold path at ``jobs=1`` and ``jobs=4``, with and without a
recoverable fault plan; checkpoint work must be visible in metrics; and
the checkpoint digest must compose with the result cache (warm reruns are
all hits, a changed prefix never collides).
"""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.experiments.capacity_sweep import run_capacity_sweep
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
from repro.sim.machine import Machine

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
