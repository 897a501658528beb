"""The service's job executor.

:class:`LocalBackend` runs one validated
:class:`~repro.service.spec.JobSpec` to completion in-process, on the
existing runner stack (:class:`~repro.runner.Runtime` +
:func:`~repro.runner.run_shards`) via
:func:`~repro.service.exec.execute_job`, and returns its JSON result
summary, streaming trace events to a sink callback along the way.

Location transparency is the contract: the backend receives the spec plus
the node's cache/store *paths* and produces results — cache keys,
checkpoint digests, store fingerprints, retry ``(index, attempt)``
decisions — byte-identical to :func:`execute_job` run directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import ServiceError
from .spec import JobSpec

Sink = Callable[[Dict[str, Any]], None]


class LocalBackend:
    """In-process execution on the service node's own runner stack.

    Owns one persistent :class:`~repro.runner.Runtime` shared by every job
    it runs (the service-side analogue of the CLI's default
    ``--runtime persistent`` scope), plus the node's shared result cache
    and campaign store.
    """

    name = "local"

    def __init__(
        self,
        cache_root: Optional[str] = None,
        store_path: Optional[str] = None,
    ):
        from ..runner import Runtime

        self.cache_root = cache_root
        self.store_path = store_path
        self._runtime = Runtime(name="service")
        self._closed = False

    def run_job(self, spec: JobSpec, sink: Optional[Sink] = None) -> Dict[str, Any]:
        """Run ``spec`` to completion; returns the JSON result summary.

        ``sink`` receives each trace event dict as the sweep emits it.
        Raises :class:`ServiceError` (or the experiment's own error) on
        failure — the dispatcher records it and marks the job failed.
        """
        from ..runner import ResultCache
        from .exec import execute_job

        if self._closed:
            raise ServiceError("backend is closed")
        # Fresh cache/store handles per job: sqlite connections are
        # thread-bound and cache hit counters are per-run deltas, so
        # concurrent dispatcher slots must not share either object.  The
        # *paths* are shared — that is what makes the dedupe fleet-wide.
        cache = ResultCache(self.cache_root) if self.cache_root else None
        store = None
        try:
            if self.store_path:
                from ..store import CampaignStore

                store = CampaignStore(self.store_path)
            return execute_job(
                spec, cache=cache, store=store, runtime=self._runtime, sink=sink,
            )
        finally:
            if store is not None:
                store.close()

    def close(self) -> None:
        """Release the runtime's worker pool.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._runtime.close()
