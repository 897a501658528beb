"""Pluggable execution backends behind one interface.

A :class:`Backend` runs one validated :class:`~repro.service.spec.JobSpec`
to completion and returns its JSON result summary, streaming trace events
to a sink callback along the way.  Two implementations ship:

* :class:`LocalBackend` — in-process, wrapping the existing runner stack
  (:class:`~repro.runner.Runtime` + :func:`~repro.runner.run_shards`)
  via :func:`~repro.service.exec.execute_job`.
* :class:`SubprocessBackend` — a persistent worker process driven over the
  length-prefixed JSON pipe protocol (:mod:`repro.service.protocol`).  The
  pipe is the whole coupling, which makes this the template for remote
  hosts: an SSH channel to ``python -m repro.service.worker`` on another
  machine would reuse every message unchanged.

Location transparency is the contract either way: a backend receives the
spec plus the node's cache/store *paths* and must produce results — cache
keys, checkpoint digests, store fingerprints, retry ``(index, attempt)``
decisions — byte-identical to :func:`execute_job` run directly.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from typing import Any, Callable, Dict, Optional

from ..errors import ServiceError
from . import protocol
from .spec import JobSpec

Sink = Callable[[Dict[str, Any]], None]


class Backend:
    """Interface every execution backend implements."""

    name = "abstract"

    def run_job(self, spec: JobSpec, sink: Optional[Sink] = None) -> Dict[str, Any]:
        """Run ``spec`` to completion; returns the JSON result summary.

        ``sink`` receives each trace event dict as the sweep emits it.
        Raises :class:`ServiceError` (or the experiment's own error) on
        failure — the dispatcher records it and marks the job failed.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release workers, pools, and pipes.  Idempotent."""


class LocalBackend(Backend):
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
        if self._closed:
            return
        self._closed = True
        self._runtime.close()


class SubprocessBackend(Backend):
    """One persistent worker process spoken to over stdin/stdout frames.

    The worker (``python -m repro.service.worker``) receives ``job``
    messages carrying the spec plus the cache/store paths, and answers
    with a stream of ``event`` messages followed by one ``result`` or
    ``error``.  A worker that dies mid-job fails that job and is
    respawned for the next one — the queue's retry accounting, not the
    backend, decides whether the job runs again.
    """

    name = "subprocess"

    def __init__(
        self,
        cache_root: Optional[str] = None,
        store_path: Optional[str] = None,
    ):
        self.cache_root = cache_root
        self.store_path = store_path
        self._proc: Optional[subprocess.Popen] = None
        self._lock = threading.Lock()
        self._closed = False

    def _ensure_worker(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is None:
            return self._proc
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            # stderr inherits: worker tracebacks land in the service log.
        )
        return self._proc

    def run_job(self, spec: JobSpec, sink: Optional[Sink] = None) -> Dict[str, Any]:
        with self._lock:
            if self._closed:
                raise ServiceError("backend is closed")
            proc = self._ensure_worker()
            try:
                protocol.write_message(proc.stdin, {
                    "kind": "job",
                    "spec": spec.to_dict(),
                    "cache_root": self.cache_root,
                    "store_path": self.store_path,
                })
                while True:
                    message = protocol.read_message(proc.stdout)
                    if message is None:
                        raise ServiceError(
                            "worker process exited before returning a result"
                        )
                    kind = message.get("kind")
                    if kind == "event":
                        if sink is not None:
                            try:
                                sink(message["event"])
                            except Exception:
                                pass
                    elif kind in ("result", "error"):
                        break
                    else:
                        raise ServiceError(
                            f"unexpected worker message kind {kind!r}"
                        )
            except ServiceError:
                # A protocol breakdown poisons the pipe framing; retire
                # the worker so the next job gets a clean one.
                self._retire_worker()
                raise
        if kind == "error":
            # A failed *job* over clean framing: the worker survives it
            # and stays up for the next job.
            raise ServiceError(
                f"worker failed: {message.get('error', 'unknown error')}"
            )
        return message["result"]

    def _retire_worker(self) -> None:
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        try:
            proc.stdin.close()
        except Exception:
            pass
        try:
            proc.wait(timeout=5)
        except Exception:
            proc.kill()
            proc.wait()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._proc is not None and self._proc.poll() is None:
                try:
                    protocol.write_message(self._proc.stdin, {"kind": "shutdown"})
                except Exception:
                    pass
            self._retire_worker()


#: CLI ``--backend`` choices.
BACKENDS = ("local", "subprocess")


def make_backend(
    name: str,
    cache_root: Optional[str] = None,
    store_path: Optional[str] = None,
) -> Backend:
    """Build a backend by CLI name."""
    if name == "local":
        return LocalBackend(cache_root=cache_root, store_path=store_path)
    if name == "subprocess":
        return SubprocessBackend(cache_root=cache_root, store_path=store_path)
    raise ServiceError(
        f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})"
    )
