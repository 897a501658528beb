"""LocalBackend execution: results, cache reuse, shutdown, failed jobs."""

import pytest

from repro.errors import ChannelError, ServiceError
from repro.service import JobSpec, LocalBackend

SPEC = JobSpec(
    experiment="capacity",
    params={"channel": "ntp+ntp", "intervals": [2100, 1800], "n_bits": 16},
)


@pytest.fixture
def node(tmp_path):
    """One service node's shared cache root + store path."""
    return str(tmp_path / "cache"), str(tmp_path / "store.sqlite")


class TestLocalBackend:
    def test_runs_a_job_and_records_the_run(self, node):
        cache_root, store_path = node
        backend = LocalBackend(cache_root=cache_root, store_path=store_path)
        try:
            events = []
            result = backend.run_job(SPEC, sink=events.append)
            assert result["experiment"] == "capacity"
            assert result["shards"]["total"] == 2
            assert result["runs"][0]["campaign"].startswith("capacity_sweep/")
            assert any(e["name"] == "runner.shard" for e in events)
        finally:
            backend.close()

    def test_second_run_is_cache_served(self, node):
        cache_root, store_path = node
        backend = LocalBackend(cache_root=cache_root, store_path=store_path)
        try:
            first = backend.run_job(SPEC)
            second = backend.run_job(SPEC)
            assert first["shards"]["computed"] == 2
            assert second["shards"]["computed"] == 0
            assert second["shards"]["cached"] == 2
            assert (first["runs"][0]["fingerprint"]
                    == second["runs"][0]["fingerprint"])
        finally:
            backend.close()

    def test_closed_backend_refuses_jobs(self, node):
        backend = LocalBackend(*node)
        backend.close()
        with pytest.raises(ServiceError, match="closed"):
            backend.run_job(SPEC)


class TestSubprocessBackend:
    """Checks first written for the out-of-process worker that LocalBackend
    replaced; the property they pin still holds for the in-process executor."""

    def test_worker_survives_a_failed_job(self, node):
        backend = LocalBackend(*node)
        try:
            # Every shard crash-faults with no retries, so the sweep drops
            # all its points and peak() raises — a *job* error, which must
            # leave the executor and its runtime usable.
            doomed = JobSpec(
                experiment="capacity",
                params={"channel": "ntp+ntp", "intervals": [2100], "n_bits": 16},
                faults={"seed": 0, "crash_probability": 1.0},
            )
            with pytest.raises(ChannelError, match="no points"):
                backend.run_job(doomed)
            runtime = backend._runtime
            result = backend.run_job(SPEC)  # same runtime takes the next job
            assert backend._runtime is runtime
            assert result["shards"]["total"] == 2
        finally:
            backend.close()
