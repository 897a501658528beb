"""HTTP front end end-to-end: routes, SSE, backpressure, restart, store."""

import json
import threading

import pytest

from repro.errors import QueueFullError, ServiceError
from repro.obs import MetricsRegistry
from repro.service import (
    JobQueue,
    JobSpec,
    LocalBackend,
    ServiceClient,
    ServiceThread,
)

SPEC = JobSpec(
    experiment="capacity",
    params={"channel": "ntp+ntp", "intervals": [2100, 1800], "n_bits": 16},
)


@pytest.fixture
def live(tmp_path):
    """A running service (1 worker) + client over a tmp cache/store."""
    queue = JobQueue(":memory:")
    backend = LocalBackend(
        cache_root=str(tmp_path / "cache"),
        store_path=str(tmp_path / "store.sqlite"),
    )
    registry = MetricsRegistry()
    server = ServiceThread(queue, backend, workers=1, registry=registry)
    try:
        yield ServiceClient(server.host, server.port), registry
    finally:
        server.stop()
        queue.close()


class TestRoundTrip:
    def test_submit_wait_result(self, live):
        client, registry = live
        job = client.submit(SPEC)
        assert job["state"] == "pending"
        assert job["fingerprint"] == SPEC.fingerprint()
        done = client.wait(job["id"], timeout=300)
        result = done["result"]
        assert result["experiment"] == "capacity"
        assert result["shards"]["total"] == 2
        assert result["runs"][0]["campaign"] == (
            "capacity_sweep/ntp+ntp/Core i7-6700"
        )
        assert result["store_errors"] == 0
        assert registry.counter("service.jobs.completed").value == 1

    def test_duplicate_submission_is_cache_served(self, live):
        client, _ = live
        first = client.wait(client.submit(SPEC)["id"], timeout=300)
        second = client.wait(client.submit(SPEC)["id"], timeout=300)
        assert second["result"]["shards"]["computed"] == 0
        assert second["result"]["shards"]["cached"] == 2
        assert (first["result"]["runs"][0]["fingerprint"]
                == second["result"]["runs"][0]["fingerprint"])

    def test_sse_stream_carries_lifecycle_and_trace_events(self, live):
        client, _ = live
        job = client.submit(SPEC)
        events = list(client.watch(job["id"]))
        names = [e["name"] for e in events]
        assert names[0] == "service.job.started"
        assert names[-1] == "service.job.done"
        assert "runner.shard" in names
        assert events[-1]["result"]["shards"]["total"] == 2

    def test_jobs_listing_and_state_filter(self, live):
        client, _ = live
        job = client.submit(SPEC)
        client.wait(job["id"], timeout=300)
        assert [j["id"] for j in client.jobs()] == [job["id"]]
        assert [j["id"] for j in client.jobs("done")] == [job["id"]]
        assert client.jobs("failed") == []

    def test_health_and_metrics(self, live):
        client, _ = live
        health = client.health()
        assert health["ok"] is True
        assert health["backend"] == "local"
        job = client.submit(SPEC)
        client.wait(job["id"], timeout=300)
        metrics = client.metrics()
        assert metrics["counters"]["service.jobs.submitted"] == 1
        assert metrics["counters"]["service.jobs.completed"] == 1


class TestErrors:
    def test_invalid_spec_is_a_400(self, live):
        client, registry = live
        with pytest.raises(ServiceError, match="400"):
            client._request("POST", "/jobs", body={"experiment": "nope"})
        assert registry.counter("service.jobs.rejected").value == 1

    def test_unknown_job_is_a_404(self, live):
        client, _ = live
        with pytest.raises(ServiceError, match="404"):
            client.job(999)

    def test_unknown_route_is_a_404(self, live):
        client, _ = live
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/nope")

    def test_failed_job_surfaces_error(self, live):
        client, registry = live
        doomed = JobSpec(
            experiment="capacity",
            params={"channel": "ntp+ntp", "intervals": [2100], "n_bits": 16},
            faults={"seed": 0, "crash_probability": 1.0},
        )
        job = client.submit(doomed)
        with pytest.raises(ServiceError, match="failed"):
            client.wait(job["id"], timeout=300)
        assert registry.counter("service.jobs.failed").value == 1
        assert "no points" in client.job(job["id"])["error"]


class TestBackpressure:
    def test_429_with_retry_after(self, tmp_path):
        queue = JobQueue(":memory:", max_depth=1)
        backend = LocalBackend(cache_root=str(tmp_path / "cache"))
        server = ServiceThread(queue, backend, workers=0)  # nothing drains
        try:
            client = ServiceClient(server.host, server.port)
            client.submit(SPEC)
            with pytest.raises(QueueFullError) as excinfo:
                client.submit(JobSpec(experiment="capacity", seed=1))
            assert excinfo.value.retry_after == 1.0
        finally:
            server.stop()
            queue.close()


class TestRestartSurvival:
    def test_backlog_resumes_on_a_new_service(self, tmp_path):
        """Jobs submitted to a dead service run when it comes back."""
        queue_path = str(tmp_path / "queue.sqlite")
        cache_root = str(tmp_path / "cache")
        store_path = str(tmp_path / "store.sqlite")

        queue = JobQueue(queue_path)
        backend = LocalBackend(cache_root=cache_root)
        server = ServiceThread(queue, backend, workers=0)
        try:
            client = ServiceClient(server.host, server.port)
            job_id = client.submit(SPEC)["id"]
            # Simulate a dispatcher that claimed the job, then died.
            assert queue.claim().id == job_id
        finally:
            server.stop()
            queue.close()

        queue = JobQueue(queue_path)
        registry = MetricsRegistry()
        backend = LocalBackend(cache_root=cache_root, store_path=store_path)
        server = ServiceThread(queue, backend, workers=1, registry=registry)
        try:
            client = ServiceClient(server.host, server.port)
            done = client.wait(job_id, timeout=300)
            assert done["state"] == "done"
            assert done["attempts"] == 2  # the orphaned attempt stays visible
            assert registry.counter("service.jobs.recovered").value == 1
            # SSE on a pre-restart job that already settled: one job event.
            finished = client.wait(job_id, timeout=10)
            assert finished["result"]["shards"]["total"] == 2
        finally:
            server.stop()
            queue.close()


class TestPriorityDispatch:
    def test_higher_priority_runs_first(self, tmp_path):
        """With no workers draining, order is visible in claim order; with a
        worker started afterwards, completion order follows priority."""
        queue = JobQueue(":memory:")
        backend = LocalBackend(cache_root=str(tmp_path / "cache"))
        server = ServiceThread(queue, backend, workers=0)
        try:
            client = ServiceClient(server.host, server.port)
            low = client.submit(
                JobSpec(experiment="capacity",
                        params={"intervals": [2100], "n_bits": 16}, priority=0)
            )["id"]
            high = client.submit(
                JobSpec(experiment="capacity",
                        params={"intervals": [1800], "n_bits": 16}, priority=5)
            )["id"]
            assert queue.claim().id == high
            assert queue.claim().id == low
        finally:
            server.stop()
            queue.close()


class TestCampaignStore:
    def test_failed_store_write_is_counted_and_the_job_still_done(
        self, tmp_path, monkeypatch
    ):
        from repro.store import CampaignStore

        def refuse(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(CampaignStore, "record_run", refuse)
        queue = JobQueue(":memory:")
        backend = LocalBackend(
            cache_root=str(tmp_path / "cache"),
            store_path=str(tmp_path / "store.sqlite"),
        )
        server = ServiceThread(queue, backend, workers=1)
        try:
            client = ServiceClient(server.host, server.port)
            done = client.wait(client.submit(SPEC)["id"], timeout=300)
            assert done["state"] == "done"
            assert done["result"]["store_errors"] == 1
            assert done["result"]["runs"] == []
        finally:
            server.stop()
            queue.close()

    def test_serve_records_into_env_store_from_every_thread(
        self, tmp_path, monkeypatch
    ):
        """``repro serve`` with ``$REPRO_STORE`` and no ``--store``: jobs run
        on different dispatcher threads must all land in the store."""
        import repro.service
        from repro.cli import main
        from repro.store import STORE_ENV, CampaignStore

        db = tmp_path / "env.sqlite"
        monkeypatch.setenv(STORE_ENV, str(db))
        summaries = []

        async def two_jobs_on_two_threads(queue, backend, **kwargs):
            for interval in (2100, 1800):
                spec = JobSpec(experiment="capacity",
                               params={"intervals": [interval], "n_bits": 16})
                thread = threading.Thread(
                    target=lambda: summaries.append(backend.run_job(spec))
                )
                thread.start()
                thread.join()
            backend.close()

        monkeypatch.setattr(repro.service, "run_service", two_jobs_on_two_threads)
        assert main(["serve", "--queue", ":memory:", "--no-cache"]) == 0
        with CampaignStore(db) as store:
            stored = [r.id for r in store.runs("capacity_sweep/ntp+ntp/Core i7-6700")]
        assert len(stored) == 2
        reported = [run["run_id"] for s in summaries for run in s.get("runs", [])]
        assert sorted(reported) == sorted(stored)
