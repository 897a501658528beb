"""Location transparency: service results == direct execution, everywhere.

The acceptance matrix: for jobs in {1, 4}, with and without a recoverable
fault plan, a sweep submitted through the service must land in the
campaign store with a ``run_fingerprint`` identical to the same sweep
executed directly — same shard seeds, same cache keys, same retry
``(index, attempt)`` decisions.  Concurrent duplicate submissions must
converge on that same fingerprint too.
"""

import pytest

from repro.experiments.capacity_sweep import run_capacity_sweep
from repro.faults import FaultPlan
from repro.runner import ResultCache
from repro.service import (
    JobQueue,
    JobSpec,
    LocalBackend,
    ServiceClient,
    ServiceThread,
)
from repro.sim.machine import Machine
from repro.store import CampaignStore

INTERVALS = (2100, 1800)
N_BITS = 16
#: One seed feeds both the machine factory and the sweep, CLI-style.
SEED = 340
#: Recoverable: half the attempts crash, three retries absorb them.
FAULTS = {"seed": 11, "crash_probability": 0.4}
RETRIES = 3


def _direct_fingerprint(tmp_path, jobs, faults):
    """The same sweep, called the way the CLI calls it."""
    store = CampaignStore(str(tmp_path / "direct.sqlite"))
    try:
        run_capacity_sweep(
            lambda: Machine.skylake(seed=SEED),
            "ntp+ntp",
            intervals=INTERVALS,
            n_bits=N_BITS,
            seed=SEED,
            jobs=jobs,
            result_cache=ResultCache(str(tmp_path / "direct-cache")),
            faults=FaultPlan.from_dict(faults) if faults else None,
            retries=RETRIES if faults else 0,
            store=store,
        )
        runs = store.runs("capacity_sweep/ntp+ntp/Core i7-6700")
        assert len(runs) == 1
        return runs[0].fingerprint
    finally:
        store.close()


def _service_fingerprint(tmp_path, jobs, faults):
    """The same sweep, submitted over HTTP to a one-worker service."""
    spec = JobSpec(
        experiment="capacity",
        params={"channel": "ntp+ntp", "intervals": list(INTERVALS),
                "n_bits": N_BITS},
        seed=SEED,
        jobs=jobs,
        faults=faults,
        retries=RETRIES if faults else 0,
    )
    queue = JobQueue(":memory:")
    backend = LocalBackend(
        cache_root=str(tmp_path / "svc-cache"),
        store_path=str(tmp_path / "svc.sqlite"),
    )
    server = ServiceThread(queue, backend, workers=1)
    try:
        client = ServiceClient(server.host, server.port)
        done = client.wait(client.submit(spec)["id"], timeout=300)
        runs = done["result"]["runs"]
        assert len(runs) == 1
        return runs[0]["fingerprint"]
    finally:
        server.stop()
        queue.close()


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulted"])
def test_service_matches_direct(tmp_path, jobs, faults):
    direct = _direct_fingerprint(tmp_path, jobs=jobs, faults=faults)
    via_service = _service_fingerprint(tmp_path, jobs, faults)
    assert via_service == direct


def test_jobs_value_never_moves_the_fingerprint(tmp_path):
    """The executor-independence the whole dedupe story rests on."""
    serial = _direct_fingerprint(tmp_path / "a", jobs=1, faults=None)
    fanned = _direct_fingerprint(tmp_path / "b", jobs=4, faults=None)
    assert serial == fanned


def test_concurrent_duplicates_converge(tmp_path):
    """Two identical specs racing on two workers both record, identically."""
    spec = JobSpec(
        experiment="capacity",
        params={"channel": "ntp+ntp", "intervals": list(INTERVALS),
                "n_bits": N_BITS},
        seed=SEED,
    )
    queue = JobQueue(":memory:")
    backend = LocalBackend(
        cache_root=str(tmp_path / "cache"),
        store_path=str(tmp_path / "store.sqlite"),
    )
    server = ServiceThread(queue, backend, workers=2)
    try:
        client = ServiceClient(server.host, server.port)
        first = client.submit(spec)["id"]
        second = client.submit(spec)["id"]
        results = [client.wait(job_id, timeout=300)["result"]
                   for job_id in (first, second)]
        fingerprints = {r["runs"][0]["fingerprint"] for r in results}
        assert len(fingerprints) == 1
        assert fingerprints == {_direct_fingerprint(tmp_path, 1, None)}
    finally:
        server.stop()
        queue.close()
