"""Cross-runtime determinism: persistent and fresh pools never differ.

ISSUE acceptance for the persistent runtime: merged rows, stored
``run_fingerprint``s, result-cache keys, and full search trajectories are
bit-identical between ``--runtime persistent`` and ``--runtime fresh`` at
``--jobs`` 1/2/4, with and without a recoverable fault plan.  The runtime
only changes *how worker processes are provisioned*; every value a run
produces must be untouched by it.
"""

import pytest

from repro.faults import FaultPlan
from repro.runner import (
    FRESH,
    ResultCache,
    Runtime,
    Shard,
    clear_warm_states,
    make_shards,
    run_shards,
    set_default_runtime,
    use_default_runtime,
)
from repro.runner.pool import _cache_key
from repro.runner.runtime import RUNTIME_ENV, clear_attached_payloads
from repro.search import EvalContext, ToyCliffObjective, make_driver
from repro.store import CampaignStore

CRASH_PLAN = FaultPlan(seed=0, crash_probability=0.2)
JOBS = (1, 2, 4)


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


def _noisy_worker(shard):
    return {
        "index": shard.index,
        "seed": shard.seed,
        "value": (shard.seed % 1009) * shard.params["x"],
    }


def _shards(n=10, seed=5):
    return make_shards(seed, [{"x": i} for i in range(n)])


class TestRunShardsEquivalence:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_rows_identical_across_runtimes(self, jobs):
        fresh_rows = run_shards(_noisy_worker, _shards(), jobs=jobs, runtime=FRESH)
        with Runtime() as rt:
            assert (
                run_shards(_noisy_worker, _shards(), jobs=jobs, runtime=rt)
                == fresh_rows
            )

    @pytest.mark.parametrize("jobs", JOBS)
    def test_recoverable_faults_identical_across_runtimes(self, jobs):
        clean = run_shards(_noisy_worker, _shards(), jobs=jobs, runtime=FRESH)
        kwargs = dict(jobs=jobs, faults=CRASH_PLAN, retries=4)
        fresh = run_shards(_noisy_worker, _shards(), runtime=FRESH, **kwargs)
        with Runtime() as rt:
            persistent = run_shards(_noisy_worker, _shards(), runtime=rt, **kwargs)
        assert fresh == persistent == clean

    def test_store_fingerprints_identical(self, tmp_path):
        prints = []
        for label, runtime in (("fresh", FRESH), ("persistent", Runtime())):
            with CampaignStore(tmp_path / f"{label}.sqlite") as store:
                run_shards(
                    _noisy_worker, _shards(), jobs=4, runtime=runtime,
                    store=store, campaign="rt-determinism",
                )
                prints.append([r.fingerprint for r in store.runs("rt-determinism")])
            if isinstance(runtime, Runtime):
                runtime.close()
        assert prints[0] == prints[1]

    def test_cache_keys_and_interop_across_runtimes(self, tmp_path):
        """Keys are runtime-independent, so runs share entries either way."""
        expected = [
            _cache_key(ResultCache(tmp_path), _noisy_worker, "rt/v1", shard)
            for shard in _shards()
        ]
        for sub, runtime in (("a", FRESH), ("b", Runtime())):
            cache = ResultCache(tmp_path / sub)
            rows = run_shards(
                _noisy_worker, _shards(), jobs=2, cache=cache,
                cache_tag="rt/v1", runtime=runtime,
            )
            keys = [
                _cache_key(cache, _noisy_worker, "rt/v1", shard)
                for shard in _shards()
            ]
            assert keys == expected
            assert [cache.get(key) for key in keys] == rows
            if isinstance(runtime, Runtime):
                runtime.close()
        # A persistent-runtime run replays entirely from a fresh run's cache.
        cache = ResultCache(tmp_path / "a")
        with Runtime() as rt:
            run_shards(
                _noisy_worker, _shards(), jobs=4, cache=cache,
                cache_tag="rt/v1", runtime=rt,
            )
            assert rt.pools == 0  # every shard was a hit: no pool spawned
        assert cache.hits == len(_shards())


OBJ = ToyCliffObjective()


def _search(strategy="mutate", seed=11, budget=18, runtime=None, **ctx):
    return make_driver(strategy, OBJ, budget).run(
        EvalContext(seed=seed, runtime=runtime, **ctx)
    )


def _signature(outcome):
    return (
        [(e.round, e.candidate, e.fidelity, e.score) for e in outcome.evaluations],
        outcome.winner,
        outcome.winner_score,
        outcome.fingerprint,
    )


@pytest.mark.parametrize("strategy", ("mutate", "halving"))
class TestSearchTrajectoryEquivalence:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_trajectories_identical_across_runtimes(self, strategy, jobs):
        fresh = _search(strategy, jobs=jobs, runtime=FRESH)
        with Runtime() as rt:
            persistent = _search(strategy, jobs=jobs, runtime=rt)
        assert _signature(persistent) == _signature(fresh)

    def test_faulted_trajectories_identical_across_runtimes(self, strategy):
        fresh = _search(strategy, jobs=4, runtime=FRESH,
                        faults=CRASH_PLAN, retries=4)
        with Runtime() as rt:
            persistent = _search(strategy, jobs=4, runtime=rt,
                                 faults=CRASH_PLAN, retries=4)
        assert _signature(persistent) == _signature(fresh)
        assert _signature(fresh) == _signature(_search(strategy, jobs=1))

    def test_installed_default_runtime_changes_nothing(self, strategy):
        baseline = _search(strategy, jobs=2, runtime=FRESH)
        with Runtime() as rt, use_default_runtime(rt):
            assert _signature(_search(strategy, jobs=2)) == _signature(baseline)

    def test_driver_owned_runtime_matches_fresh(self, strategy):
        """With nothing configured, run() provisions (and closes) its own."""
        assert _signature(_search(strategy, jobs=2)) == _signature(
            _search(strategy, jobs=2, runtime=FRESH)
        )


class TestWarmStartEquivalence:
    def test_warm_sweep_identical_across_runtimes(self):
        from .test_runtime import STUB_PLAN

        shards = make_shards(0, [
            {"base": base, "x": x} for base in (10, 20) for x in (1, 2, 3)
        ])
        baseline = run_shards(STUB_PLAN, shards, jobs=1)
        for runtime in (FRESH, Runtime()):
            clear_warm_states()
            rows = run_shards(STUB_PLAN, shards, jobs=2, runtime=runtime)
            assert rows == baseline
            if isinstance(runtime, Runtime):
                runtime.close()
