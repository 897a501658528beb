"""Store ingest: default resolution, fail-softness, and executor wiring."""

import importlib.util
from pathlib import Path

import pytest

from repro.config import SKYLAKE
from repro.experiments.insertion_sweep import run_insertion_sweep
from repro.analysis.reporting import runner_summary
from repro.obs import EventTrace, MetricsRegistry
from repro.runner import clear_warm_states, make_shards, run_shards
from repro.sim.machine import Machine
from repro.store import (
    DISABLED,
    STORE_ENV,
    CampaignStore,
    campaign_name,
    get_default_store,
    record_sweep,
    resolve_store,
    set_default_store,
    stamp_artifact,
    use_default_store,
)
from repro.store import ingest as ingest_module


@pytest.fixture(autouse=True)
def _isolated_defaults(monkeypatch):
    """Each test sees no default store, no env store, fresh warm memos."""
    monkeypatch.delenv(STORE_ENV, raising=False)
    monkeypatch.setattr(ingest_module, "_default_store", None)
    monkeypatch.setattr(ingest_module, "_default_installed", False)
    monkeypatch.setattr(ingest_module, "_env_store", None)
    monkeypatch.setattr(ingest_module, "_env_store_path", None)
    clear_warm_states()
    yield
    clear_warm_states()


def _square(shard):
    return {"square": shard.params["x"] ** 2}


def _shards(n=3, seed=2):
    return make_shards(seed, [{"x": i} for i in range(n)])


class TestDefaultResolution:
    def test_no_default_records_nothing(self):
        assert get_default_store() is None
        assert resolve_store(None) is None

    def test_explicit_store_wins(self):
        with CampaignStore() as explicit, CampaignStore() as installed:
            set_default_store(installed)
            try:
                assert resolve_store(explicit) is explicit
                assert resolve_store(None) is installed
            finally:
                set_default_store(None)

    def test_disabled_suppresses_even_with_default(self):
        with CampaignStore() as installed:
            set_default_store(installed)
            try:
                assert resolve_store(DISABLED) is None
            finally:
                set_default_store(None)

    def test_use_default_store_scopes_and_restores(self):
        with CampaignStore() as store:
            with use_default_store(store):
                assert get_default_store() is store
            assert get_default_store() is None

    def test_disabled_default_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env.sqlite"))
        with use_default_store(DISABLED):
            assert get_default_store() is None
        assert get_default_store() is not None

    def test_env_var_opens_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env.sqlite"))
        store = get_default_store()
        assert store is not None
        assert store is get_default_store()  # memoized per path

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF"])
    def test_disabling_env_values(self, monkeypatch, value):
        monkeypatch.setenv(STORE_ENV, value)
        assert get_default_store() is None


class TestCampaignName:
    def test_version_suffix_stripped(self):
        assert campaign_name("capacity_sweep/v1", "id") == "capacity_sweep"
        assert campaign_name("a/b/v12", "id") == "a/b"

    def test_non_version_tag_kept(self):
        assert campaign_name("capacity_sweep/vx", "id") == "capacity_sweep/vx"
        assert campaign_name("plain", "id") == "plain"

    def test_missing_tag_falls_back_to_identity(self):
        assert campaign_name(None, "mod.worker") == "mod.worker"


class TestStampArtifact:
    def test_input_never_mutated(self):
        # Regression: conftest.artifact used setdefault on the caller's
        # dict, so benchmark asserts ran against a silently extended result.
        original = {"speedup": 3.0}
        stamped = stamp_artifact(original)
        assert original == {"speedup": 3.0}
        assert stamped is not original
        assert stamped["speedup"] == 3.0
        assert "engine_backend" in stamped and "trial_batch_size" in stamped

    def test_pinned_keys_kept(self):
        stamped = stamp_artifact(
            {"speedup": 1.0, "engine_backend": "batch", "trial_batch_size": 64}
        )
        assert stamped["engine_backend"] == "batch"
        assert stamped["trial_batch_size"] == 64

    def test_non_dict_passthrough(self):
        assert stamp_artifact([1, 2]) == [1, 2]


class TestRecordSweepFailSoft:
    def test_broken_store_costs_only_the_entry(self):
        class Broken:
            def record_run(self, *a, **k):
                raise RuntimeError("disk on fire")

        registry = MetricsRegistry()
        shards = _shards(2)
        run_id = record_sweep(
            Broken(), "c", shards, [_square(s) for s in shards],
            executor="pool", registry=registry,
        )
        assert run_id is None
        assert registry.counter("runner.store.errors").value == 1

    def test_failure_is_traced_and_summarised(self):
        class Broken:
            def record_run(self, *a, **k):
                raise RuntimeError("disk on fire")

        registry = MetricsRegistry()
        trace = EventTrace()
        results = run_shards(
            _square, _shards(2), store=Broken(), campaign="squares",
            metrics=registry, trace=trace,
        )
        assert results == [_square(s) for s in _shards(2)]  # still fail-soft
        errors = [e for e in trace.events if e.name == "runner.store.error"]
        assert len(errors) == 1
        assert errors[0].fields == {
            "campaign": "squares", "error": "RuntimeError",
            "message": "disk on fire",
        }
        assert runner_summary(registry).endswith(
            "store write failed, run not recorded (1)"
        )

    def test_summary_silent_when_the_store_worked(self):
        registry = MetricsRegistry()
        with CampaignStore() as store:
            run_shards(_square, _shards(2), store=store, metrics=registry)
        assert "store write failed" not in runner_summary(registry)

    def test_empty_sweep_not_recorded(self):
        with CampaignStore() as store:
            assert record_sweep(store, "c", [], [], executor="pool") is None


class TestExecutorIngest:
    def test_pool_records_one_run(self):
        with CampaignStore() as store:
            shards = _shards()
            registry = MetricsRegistry()
            results = run_shards(
                _square, shards, store=store, campaign="squares",
                metrics=registry,
            )
            runs = store.runs("squares")
            assert len(runs) == 1
            run = runs[0]
            assert run.executor == "pool"
            assert run.shards_total == 3 and run.shards_computed == 3
            assert [r.result for r in store.shard_rows(run.id)] == results
            assert registry.counter("runner.store.runs").value == 1
            assert registry.counter("runner.store.shards").value == 3

    def test_default_campaign_from_cache_tag(self):
        with CampaignStore() as store:
            shards = _shards(1)
            run_shards(_square, shards, store=store, cache_tag="squares/v1")
            assert [c.name for c in store.campaigns()] == ["squares"]

    def test_no_store_records_nothing(self):
        run_shards(_square, _shards(1))  # no default installed -> no-op

    def test_warmstart_records_once_with_digests(self):
        with CampaignStore() as store:
            run_insertion_sweep(
                lambda: Machine(SKYLAKE, seed=11), positions=range(2),
                trials=2, seed=9, engine="object", store=store,
            )
            runs = store.runs("insertion_sweep/Core i7-6700")
            assert len(runs) == 1  # delegation to the pool records nothing
            run = runs[0]
            assert run.executor == "warmstart"
            assert run.engine == "object"
            assert run.shards_total == 4
            digests = store.checkpoint_digests(run.id)
            assert len(digests) == 1  # one shared prefix for the whole sweep
            assert all(len(d) == 64 for d in digests.values())

    def test_batch_records_once_with_batch_size(self):
        with CampaignStore() as store:
            run_insertion_sweep(
                lambda: Machine(SKYLAKE, seed=11), positions=range(2),
                trials=2, seed=9, engine="batch", batch_size=8, store=store,
            )
            runs = store.runs("insertion_sweep/Core i7-6700")
            assert len(runs) == 1
            assert runs[0].executor == "batch"
            assert runs[0].batch_size == 8
            assert store.checkpoint_digests(runs[0].id)

    def test_scalar_and_batched_runs_share_fingerprint(self):
        with CampaignStore() as store:
            for engine in ("object", "batch"):
                clear_warm_states()
                run_insertion_sweep(
                    lambda: Machine(SKYLAKE, seed=11), positions=range(2),
                    trials=2, seed=9, engine=engine, store=store,
                    campaign="insertion",
                )
            scalar, batched = store.runs("insertion")
            # The engine param differs, so params_json (and hence the
            # fingerprints) differ — but the stored *results* must agree.
            assert [r.result for r in store.shard_rows(scalar.id)] == [
                r.result for r in store.shard_rows(batched.id)
            ]


class TestBenchmarkConftestArtifact:
    def _load_conftest(self):
        path = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_artifact_does_not_mutate_input(self, tmp_path, monkeypatch):
        conftest = self._load_conftest()
        monkeypatch.setattr(conftest, "ARTIFACT_DIR", tmp_path)
        with CampaignStore() as store:
            monkeypatch.setattr(conftest, "_STORE", store)
            payload = {"speedup": 3.0, "gate": 2.0}
            conftest.artifact("demo", payload)
            assert payload == {"speedup": 3.0, "gate": 2.0}
            history = store.artifacts("demo")
            assert len(history) == 1
            assert history[0].payload["speedup"] == 3.0
            assert "engine_backend" in history[0].payload
        assert (tmp_path / "demo.json").exists()
