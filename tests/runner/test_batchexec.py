"""The trace-batch plan's contract: one array program, same bytes.

:func:`run_shards` over a :class:`TraceBatchPlan` must be interchangeable
with the scalar warm-start path — same rows in the same order at any
``jobs`` value and any ``batch_size``, cache entries that interoperate
across both paths,
deterministic fault injection and bounded retry keyed exactly like the
pool's, and error records in the right merge slots.  The insertion sweep
(:mod:`repro.experiments.insertion_sweep`) doubles as the end-to-end
fixture since it ships both a :class:`TraceBatchPlan` and the equivalent
scalar :class:`WarmStartPlan`.
"""

import dataclasses

import pytest

from repro.config import SKYLAKE
from repro.errors import ReproError
from repro.experiments.insertion_sweep import (
    BATCH_PLAN,
    SCALAR_PLAN,
    _sweep_setup,
    run_insertion_sweep,
)
from repro.faults import FaultPlan
from repro.obs import EventTrace, MetricsRegistry
from repro.runner import (
    ResultCache,
    Shard,
    TraceBatchPlan,
    clear_warm_states,
    make_shards,
    run_shards,
)
from repro.runner.pool import SHARD_ERROR_KEY
from repro.sim.machine import Machine
from repro.store import CampaignStore


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_warm_states()
    yield
    clear_warm_states()


def _factory():
    return Machine(SKYLAKE, seed=11)


def _sweep(engine, **kwargs):
    defaults = dict(positions=range(3), trials=4, seed=9)
    defaults.update(kwargs)
    return run_insertion_sweep(_factory, engine=engine, **defaults)


def _shards(engine, positions=3, trials=4, seed=9, machine_seeds=(11,)):
    """One prefix group per machine seed, ``positions × trials`` shards each."""
    return make_shards(seed, [
        {
            "config": SKYLAKE,
            "machine_seed": machine_seed,
            "engine": engine,
            "position": position,
            "trial": trial,
        }
        for machine_seed in machine_seeds
        for position in range(positions)
        for trial in range(trials)
    ])


# ---------------------------------------------------------------------------
# Bit-identity across execution strategies


def test_batched_matches_scalar_engines():
    batch = _sweep("batch")
    soa = _sweep("soa")
    obj = _sweep("object")
    assert batch.latencies == soa.latencies == obj.latencies
    assert batch.evicted_fraction == soa.evicted_fraction == obj.evicted_fraction
    assert batch.always_evicted


def test_jobs_values_identical():
    """``jobs > 1`` delegates to the pool with a scalar one-trial worker;
    the rows must not change."""
    serial = _sweep("batch", jobs=1)
    pooled = _sweep("batch", jobs=3)
    assert serial.latencies == pooled.latencies
    assert serial.evicted_fraction == pooled.evicted_fraction


def test_batch_size_is_invisible_in_results():
    full = _sweep("batch", batch_size=64)
    tiny = _sweep("batch", batch_size=1)
    ragged = _sweep("batch", batch_size=3)
    assert full.latencies == tiny.latencies == ragged.latencies


# ---------------------------------------------------------------------------
# Checkpoint restores: trials reduce from the batch result, not a rebuild


def _restores(plan, shards, **kwargs):
    registry = MetricsRegistry()
    trace = EventTrace()
    rows = run_shards(plan, shards, metrics=registry, trace=trace, **kwargs)
    return rows, registry.counter("runner.checkpoint.restores").value, trace


@pytest.mark.parametrize("batch_size,chunks", [(1, 18), (7, 4), (64, 2)])
def test_inline_batch_restores_once_per_chunk(batch_size, chunks):
    """Two prefix groups of 9 trials: one restore per chunk per group,
    none per trial, and the rows of the scalar plan."""
    plan = dataclasses.replace(BATCH_PLAN, batch_size=batch_size)
    seeds = (11, 12)
    rows, restores, _ = _restores(
        plan, _shards("batch", trials=3, machine_seeds=seeds)
    )
    assert restores == chunks
    scalar_rows, scalar_restores, _ = _restores(
        SCALAR_PLAN, _shards("soa", trials=3, machine_seeds=seeds)
    )
    assert rows == scalar_rows
    assert scalar_restores == len(rows)


def test_retried_shard_adds_one_restore():
    plan = FaultPlan(seed=3, crash_probability=0.25)
    rows, restores, trace = _restores(
        BATCH_PLAN, _shards("batch"), faults=plan, retries=4
    )
    retried = [e for e in trace.events if e.name == "runner.shard.retried"]
    assert 0 < len(retried) < len(rows)
    assert restores == 1 + len(retried)
    clean, _, _ = _restores(BATCH_PLAN, _shards("batch"))
    assert rows == clean


def test_pool_path_restores_once_per_trial():
    rows, restores, _ = _restores(BATCH_PLAN, _shards("batch"), jobs=2)
    assert restores == len(rows) == 12


# ---------------------------------------------------------------------------
# Prefix reuse across sweeps

SETUP_SEEDS = []


def _counting_setup(prefix):
    SETUP_SEEDS.append(prefix["machine_seed"])
    return _sweep_setup(prefix)


COUNTED_BATCH_PLAN = dataclasses.replace(BATCH_PLAN, setup=_counting_setup)


def _recorded(shards, path, **kwargs):
    """Rows, store fingerprint, cache keys and checkpoint digests of one
    run into a fresh store and a fresh (so all-miss) cache."""
    cache = ResultCache(path / "cache")
    with CampaignStore(path / "runs.sqlite") as store:
        rows = run_shards(COUNTED_BATCH_PLAN, shards, cache=cache,
                          cache_tag="reuse", store=store, campaign="reuse",
                          **kwargs)
        (run,) = store.runs("reuse")
        keys = [row.cache_key for row in store.shard_rows(run.id)]
        return rows, run.fingerprint, keys, store.checkpoint_digests(run.id)


@pytest.mark.parametrize("jobs", [1, 2])
def test_second_sweep_reuses_prefixes_and_matches_a_rebuild(jobs, tmp_path):
    """A second sweep over the same two prefixes runs no setup in this
    process, and its rows, cache keys, digests and store fingerprint are
    those of a sweep that rebuilt them."""
    shards = _shards("batch", trials=3, machine_seeds=(11, 12))
    SETUP_SEEDS.clear()
    first = _recorded(shards, tmp_path / "first", jobs=jobs)
    assert SETUP_SEEDS == [11, 12]
    SETUP_SEEDS.clear()
    registry = MetricsRegistry()
    second = _recorded(shards, tmp_path / "second", jobs=jobs, metrics=registry)
    assert SETUP_SEEDS == []
    assert registry.counter("runner.checkpoint.captures").value == 0
    assert registry.counter("runner.checkpoint.reuses").value == 2
    clear_warm_states()
    rebuilt = _recorded(shards, tmp_path / "rebuilt", jobs=jobs)
    assert SETUP_SEEDS == [11, 12]
    assert second == rebuilt == first


# ---------------------------------------------------------------------------
# Cache interoperation


def test_cache_interop_between_inline_and_pool_paths(tmp_path):
    cache = ResultCache(tmp_path)
    registry = MetricsRegistry()
    first = _sweep("batch", result_cache=cache, metrics=registry)
    assert registry.counter("runner.shards.computed").value == 12
    assert registry.counter("runner.batch.batches").value == 1
    assert registry.counter("runner.batch.trials").value == 12

    rerun = MetricsRegistry()
    second = _sweep("batch", result_cache=cache, jobs=2, metrics=rerun)
    assert second.latencies == first.latencies
    assert rerun.counter("runner.shards.cached").value == 12
    assert rerun.counter("runner.shards.computed").value == 0


def test_cache_key_pins_the_engine(tmp_path):
    """A batch-path cache entry must never satisfy a scalar-engine sweep:
    equality is proven by tests, not smuggled through the cache."""
    cache = ResultCache(tmp_path)
    _sweep("batch", result_cache=cache)
    registry = MetricsRegistry()
    _sweep("soa", result_cache=cache, metrics=registry)
    assert registry.counter("runner.shards.computed").value == 12
    assert registry.counter("runner.shards.cached").value == 0


# ---------------------------------------------------------------------------
# Faults, retries, error records


def test_recoverable_faults_stay_bit_identical():
    plan = FaultPlan(seed=3, crash_probability=0.25)
    clean = _sweep("batch")
    faulted = _sweep("batch", faults=plan, retries=4)
    assert faulted.latencies == clean.latencies
    assert faulted.failures == 0


def test_faulted_runs_match_the_scalar_path():
    plan = FaultPlan(seed=3, crash_probability=0.25)
    batch = _sweep("batch", faults=plan, retries=4)
    scalar = _sweep("soa", faults=plan, retries=4)
    assert batch.latencies == scalar.latencies


def test_exhausted_shards_become_error_records():
    plan = FaultPlan(seed=1, crash_probability=1.0)
    rows = run_shards(
        BATCH_PLAN, _shards("batch"), faults=plan, retries=1
    )
    assert len(rows) == 12
    for row, shard in zip(rows, _shards("batch")):
        failure = row[SHARD_ERROR_KEY]
        assert failure["shard"] == shard.index
        assert failure["attempts"] == 2


def test_on_error_raise_propagates():
    plan = FaultPlan(seed=1, crash_probability=1.0)
    with pytest.raises(ReproError, match="failed after"):
        run_shards(
            BATCH_PLAN, _shards("batch"), faults=plan, retries=1,
            on_error="raise",
        )


def test_retry_metrics_and_trace_events():
    plan = FaultPlan(seed=3, crash_probability=0.25)
    registry = MetricsRegistry()
    trace = EventTrace()
    run_shards(
        BATCH_PLAN, _shards("batch"), faults=plan, retries=4,
        metrics=registry, trace=trace,
    )
    assert registry.counter("runner.retries").value > 0
    assert registry.counter("runner.failures").value == 0
    kinds = {event.name for event in trace.events}
    assert "runner.batch" in kinds
    assert "runner.shard.retried" in kinds
    assert "runner.checkpoint.capture" in kinds


# ---------------------------------------------------------------------------
# Validation


def test_duplicate_shard_index_rejected():
    shards = _shards("batch")
    shards[3] = Shard(index=shards[2].index, seed=0, params=shards[3].params)
    with pytest.raises(ReproError, match="duplicate shard index"):
        run_shards(BATCH_PLAN, shards)


def test_missing_prefix_param_is_a_clear_error():
    shard = Shard(index=0, seed=0, params={"position": 0, "trial": 0})
    with pytest.raises(ReproError, match="missing prefix param"):
        BATCH_PLAN.prefix_of(shard)


@pytest.mark.parametrize("kwargs,match", [
    (dict(jobs=-1), "jobs"),
    (dict(retries=-1), "retries"),
    (dict(backoff_base=-0.5), "backoff_base"),
    (dict(batch_size=0), "batch_size"),
    (dict(on_error="explode"), "on_error"),
])
def test_argument_validation(kwargs, match):
    kwargs = dict(kwargs)
    with pytest.raises(ReproError, match=match):
        plan = dataclasses.replace(
            BATCH_PLAN, batch_size=kwargs.pop("batch_size", 64)
        )
        run_shards(plan, _shards("batch"), **kwargs)


def test_plan_identity_names_the_trace_builder():
    assert TraceBatchPlan is type(BATCH_PLAN)
    assert BATCH_PLAN.identity() == (
        "repro.experiments.insertion_sweep._sweep_trace"
    )
