"""Persistent worker runtime: reusable pools, shm transfer, chunked submission.

Every executor in :mod:`repro.runner` used to build a fresh
``ProcessPoolExecutor`` per call, re-pickle its worker (fault plan,
checkpoint digests, warm-start plan) once per task, and throw away any
worker-side state — the warm-start prefix memo chief among it — when the
pool died.  For a single grid sweep that fixed cost disappears into the
simulation time; for the adaptive drivers in :mod:`repro.search`, which
issue one small shard batch per round for tens of rounds, it *is* the
bottleneck.

A :class:`Runtime` keeps the expensive parts alive across
``run_shards`` calls:

* **Reusable pool** — worker processes spawn lazily on the first parallel
  batch and survive until :meth:`Runtime.close`.  Per-worker state (the
  warm-start LRU memo, attached payload segments, interned traces)
  persists with them, so a 40-round search pays each prefix build at most
  once per worker instead of once per round.  An *epoch* generation guard
  (:meth:`Runtime.bump_epoch`) clears that state on demand so nothing can
  leak between incompatible sweeps.
* **Shared-memory transfer** — the chunk worker (and, for a warm-start or
  trace-batch plan, the parent-built :class:`~repro.sim.machine.MachineCheckpoint`
  table) ships once per *content* through
  :mod:`multiprocessing.shared_memory` instead of pickling per task.
  Payloads are pickled with protocol 5: ``bytes``/NumPy planes travel as
  out-of-band buffers laid out in the segment, and workers reconstruct
  them as **zero-copy read-only views** over the mapped memory.  Large
  result blocks come back the same way (see
  :data:`RESULT_SHM_MIN_BYTES`).  Segments are content-deduplicated per
  runtime, refcount-tracked in the parent, and unlinked at close.
* **Chunked submission** — pending shards group into per-worker chunks
  sized by a cost model fed from the run's ``runner.shard.seconds``
  histogram (target :data:`TARGET_CHUNK_SECONDS` of work per message),
  amortizing IPC and futures overhead.  Chunks are submitted and merged
  in shard order, and every shard still runs through the same
  fault/retry call keyed on ``(index, attempt)``, so output is
  bit-identical to the fresh-pool path at any ``jobs`` value.

Callers choose the runtime: an explicit :class:`Runtime` reuses its pool,
and ``None`` (or the :data:`FRESH` sentinel) gives each parallel call its
own one-shot pool.  Nothing here reads the environment or keeps a process
default; the CLI's ``--runtime persistent`` opens one :class:`Runtime` per
command and passes it down.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..obs import EventTrace, MetricsRegistry, NULL_TRACE, get_registry

#: Sentinel asking for an ephemeral per-call pool (the same as ``None``).
FRESH = "fresh"

#: Ideal seconds of shard work per submitted chunk.  Below this the
#: futures/IPC overhead dominates; far above it load balancing suffers.
TARGET_CHUNK_SECONDS = 0.25

#: Pickled calls smaller than this ride along inline with each chunk —
#: a shared-memory segment would cost more than it saves.
PAYLOAD_MIN_BYTES = 4096

#: Chunk results whose pickle exceeds this return through a worker-created
#: shared-memory segment instead of the result pipe.
RESULT_SHM_MIN_BYTES = 256 * 1024

#: Per-process cap on attached payload segments (workers evict FIFO).
_MAX_ATTACHED_PAYLOADS = 16

#: Buffer alignment inside payload segments (keeps NumPy views aligned).
_ALIGN = 64


@dataclass(frozen=True)
class PayloadRef:
    """A handle to one shared-memory payload (picklable, tiny).

    ``frame`` is the byte length of the pickle frame at offset 0;
    ``buffers`` holds ``(offset, length)`` spans of the protocol-5
    out-of-band buffers laid out after it.
    """

    name: str
    frame: int
    buffers: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class _ShmResult:
    """Marker returned by a worker whose chunk result travels via shm."""

    name: str
    frame: int


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _share_resource_tracker() -> None:
    """Start the multiprocessing resource tracker before any worker forks.

    ``SharedMemory`` registers every open — attaches included — with the
    resource tracker (bpo-38119; ``track=False`` only exists from 3.13).
    Registrations from different processes collapse into one entry only
    when they reach the *same* tracker, so the tracker must exist before
    pool workers fork and inherit its pipe; otherwise each worker spawns
    a private tracker that later warns about (and re-unlinks) segments
    the owning runtime already cleaned up.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass  # tracking is a safety net, not a correctness dependency


def _encode_payload(obj: Any) -> Tuple[bytes, List[pickle.PickleBuffer]]:
    """Protocol-5 pickle with out-of-band buffers (NumPy planes, bytes)."""
    buffers: List[pickle.PickleBuffer] = []
    frame = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return frame, buffers


def _decode_payload(frame, buffers: Sequence[Any]) -> Any:
    return pickle.loads(frame, buffers=list(buffers))


# ---------------------------------------------------------------------------
# Worker-side globals (live in pool worker processes)
# ---------------------------------------------------------------------------

#: segment name -> (SharedMemory, decoded object), FIFO-bounded.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, Any]] = {}

#: Evicted attachments whose views were still live at close time.  Kept
#: referenced so ``SharedMemory.__del__`` cannot fire (and raise) at an
#: arbitrary GC point; re-closed opportunistically once the views die.
_ZOMBIES: List[shared_memory.SharedMemory] = []

#: (runtime token -> last seen epoch); a bump clears persistent state.
_EPOCHS: Dict[int, int] = {}


def _reap_zombies() -> None:
    for shm in _ZOMBIES[:]:
        try:
            shm.close()
        except BufferError:
            continue  # a view still references the map
        _ZOMBIES.remove(shm)


def _drop_attached(name: str) -> None:
    entry = _ATTACHED.pop(name, None)
    if entry is None:
        return
    try:
        entry[0].close()
    except BufferError:  # a view still references the map; retry later
        _ZOMBIES.append(entry[0])


def load_payload(ref: PayloadRef) -> Any:
    """Attach (or reuse) ``ref``'s segment and return its decoded object.

    The decoded object is cached per process keyed by segment name, so a
    payload shipped to W workers over C chunks is unpickled once per
    worker, not once per task.  Out-of-band buffers decode to read-only
    views over the mapped segment — zero copies, and a worker that tried
    to mutate shipped state would fault instead of silently diverging.
    """
    cached = _ATTACHED.get(ref.name)
    if cached is not None:
        return cached[1]
    _reap_zombies()
    shm = shared_memory.SharedMemory(name=ref.name)
    views = [
        shm.buf[offset : offset + length].toreadonly()
        for offset, length in ref.buffers
    ]
    obj = _decode_payload(shm.buf[: ref.frame], views)
    while len(_ATTACHED) >= _MAX_ATTACHED_PAYLOADS:
        _drop_attached(next(iter(_ATTACHED)))
    _ATTACHED[ref.name] = (shm, obj)
    return obj


def clear_attached_payloads() -> None:
    """Drop this process's attached payload cache (epoch guard / tests)."""
    for name in list(_ATTACHED):
        _drop_attached(name)
    _reap_zombies()


def _guard_epoch(token: int, epoch: int) -> None:
    """Reset per-process persistent state when the runtime's epoch moved.

    Warm-start memo entries carry checkpoint digests that every worker
    lookup checks against the parent's, so stale entries can never produce
    wrong results — but a long-lived worker could hoard state from sweeps
    that will never run again.  The epoch guard makes invalidation
    explicit: one bump and every worker starts clean.
    """
    seen = _EPOCHS.get(token)
    if seen == epoch:
        return
    if seen is not None:
        from .warmstart import clear_warm_states

        clear_warm_states()
        clear_attached_payloads()
    _EPOCHS[token] = epoch


_RESULT_COUNTER = 0


def _ship_result(outcomes: list) -> Union[list, _ShmResult]:
    """Return ``outcomes`` inline, or via a shm segment when large."""
    frame = pickle.dumps(outcomes, protocol=5)
    if len(frame) < RESULT_SHM_MIN_BYTES:
        return outcomes
    global _RESULT_COUNTER
    _RESULT_COUNTER += 1
    name = f"repro_rt_res_{os.getpid()}_{_RESULT_COUNTER}"
    try:
        shm = shared_memory.SharedMemory(name=name, create=True, size=len(frame))
    except OSError:
        return outcomes  # fail-soft: shm exhaustion costs pipe bandwidth only
    shm.buf[: len(frame)] = frame
    shm.close()
    return _ShmResult(name=name, frame=len(frame))


def _run_chunk(
    payload: Union[PayloadRef, Callable],
    shards: Sequence[Any],
    token: int,
    epoch: int,
) -> Union[list, _ShmResult]:
    """Execute one chunk of shards in a worker (top level: pickles)."""
    _guard_epoch(token, epoch)
    call = load_payload(payload) if isinstance(payload, PayloadRef) else payload
    return _ship_result([call(shard) for shard in shards])


# ---------------------------------------------------------------------------
# The runtime
# ---------------------------------------------------------------------------


class Runtime:
    """A persistent execution runtime behind the executor API.

    Use as a context manager, or pair with an explicit :meth:`close`::

        with Runtime() as rt:
            rows_a = run_shards(worker, shards_a, jobs=4, runtime=rt)
            rows_b = run_shards(worker, shards_b, jobs=4, runtime=rt)  # reuses pool

    Nothing spawns until the first batch that actually needs workers, so a
    runtime costs nothing on fully cached or serial runs.
    """

    _TOKENS = iter(range(1, 1 << 62))

    def __init__(self, name: Optional[str] = None):
        self.name = name or "runtime"
        self.token = next(Runtime._TOKENS)
        self.epoch = 0
        self.closed = False
        #: Guards pool (re)creation and payload-segment creation: one
        #: runtime may serve concurrent sweeps from several threads (the
        #: job service), and both paths are check-then-create.
        self._lock = threading.Lock()
        self._executor = None
        self._executor_workers = 0
        #: payload content digest -> PayloadRef (per-runtime dedup).
        self._payload_refs: Dict[str, PayloadRef] = {}
        #: segment name -> SharedMemory owned by this runtime.
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._worker_pids: List[int] = []
        # Accounting (mirrored into the per-run metrics registry by map()).
        self.pools = 0
        self.workers_spawned = 0
        self.reuses = 0
        self.maps = 0
        self.chunks = 0
        self.shm_bytes = 0
        self.shm_result_bytes = 0

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise ReproError(f"runtime {self.name!r} is closed")

    def bump_epoch(self) -> int:
        """Invalidate all persistent worker-side state (memo, payloads)."""
        self.epoch += 1
        return self.epoch

    def worker_pids(self) -> List[int]:
        """PIDs of every worker process this runtime ever spawned."""
        return list(self._worker_pids)

    def close(self) -> None:
        """Shut the pool down and unlink every owned shm segment.

        Idempotent.  After close, no worker process and no ``/dev/shm``
        segment created by this runtime survives (workers that still hold
        attachments release them as they exit with the pool).
        """
        if self.closed:
            return
        self.closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._executor_workers = 0
        for shm in self._segments.values():
            try:
                shm.close()
                shm.unlink()
            except (OSError, BufferError):
                pass  # already gone / still viewed; unlink is best-effort
        self._segments.clear()
        self._payload_refs.clear()

    # -- pool -------------------------------------------------------------

    def _ensure_executor_locked(self, jobs: int, registry: MetricsRegistry,
                                trace: EventTrace, ProcessPoolExecutor):
        # Caller holds self._lock (see map()).
        if self._executor is not None and self._executor_workers < jobs:
            # A bigger batch arrived: respawn wider.  Shrinking never
            # respawns — idle workers are what persistence pays for.
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._executor is None:
            _share_resource_tracker()  # must predate the fork (see helper)
            self._executor = ProcessPoolExecutor(max_workers=jobs)
            self._executor_workers = jobs
            self.pools += 1
            self.workers_spawned += jobs
            registry.counter("runner.runtime.pools").inc()
            registry.counter("runner.runtime.spawns").inc(jobs)
            trace.emit("runner.runtime.spawn", runtime=self.name, workers=jobs)
        else:
            self.reuses += 1
            registry.counter("runner.runtime.reuses").inc()
            trace.emit(
                "runner.runtime.reuse",
                runtime=self.name,
                workers=self._executor_workers,
            )
        # ProcessPoolExecutor spawns lazily on submit; snapshot pids after
        # the first real use (see map()).
        return self._executor

    def _snapshot_pids(self) -> None:
        if self._executor is not None and self._executor._processes:
            for pid in self._executor._processes:
                if pid not in self._worker_pids:
                    self._worker_pids.append(pid)

    # -- shared-memory payloads ------------------------------------------

    def put_payload(self, obj: Any,
                    registry: Optional[MetricsRegistry] = None) -> PayloadRef:
        """Ship ``obj`` into a shared segment once; content-deduplicated.

        Identical payloads (same pickle bytes) across calls — e.g. the
        same warm-start worker every search round — map to one segment,
        so workers keep their decoded cache entry warm across rounds.
        """
        self._check_open()
        frame, buffers = _encode_payload(obj)
        raws = [buf.raw() for buf in buffers]
        digest = hashlib.sha256(frame)
        for raw in raws:
            digest.update(raw)
        key = digest.hexdigest()
        with self._lock:
            return self._put_payload_locked(key, frame, raws, registry)

    def _put_payload_locked(self, key, frame, raws, registry) -> PayloadRef:
        ref = self._payload_refs.get(key)
        if ref is not None:
            return ref
        offset = _aligned(len(frame))
        spans = []
        for raw in raws:
            spans.append((offset, raw.nbytes))
            offset = _aligned(offset + raw.nbytes)
        name = f"repro_rt_{os.getpid()}_{self.token}_{key[:12]}"
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, offset))
        shm.buf[: len(frame)] = frame
        for (start, length), raw in zip(spans, raws):
            shm.buf[start : start + length] = raw.cast("B")
        ref = PayloadRef(name=name, frame=len(frame), buffers=tuple(spans))
        self._segments[name] = shm
        self._payload_refs[key] = ref
        self.shm_bytes += offset
        if registry is not None:
            registry.counter("runner.runtime.shm.segments").inc()
            registry.counter("runner.runtime.shm.bytes").inc(offset)
        return ref

    def _collect(self, outcome: Union[list, _ShmResult],
                 registry: MetricsRegistry) -> list:
        """Decode one chunk's result, draining its shm segment if any."""
        if not isinstance(outcome, _ShmResult):
            return outcome
        shm = shared_memory.SharedMemory(name=outcome.name)
        try:
            frame = bytes(shm.buf[: outcome.frame])  # copy out before unlink
        finally:
            shm.close()
            try:
                shm.unlink()
            except OSError:
                pass
        self.shm_result_bytes += outcome.frame
        registry.counter("runner.runtime.shm.result_bytes").inc(outcome.frame)
        return pickle.loads(frame)

    # -- chunked submission ----------------------------------------------

    def _chunk_size(self, n: int, workers: int,
                    registry: MetricsRegistry) -> int:
        """Shards per chunk, from the run's shard wall-time history.

        Aim for :data:`TARGET_CHUNK_SECONDS` of work per message; with no
        history yet, fall back to ~4 chunks per worker.  Always at least
        one chunk per worker so the pool never idles on a skewed split.
        """
        from .pool import _SHARD_SECONDS_BUCKETS

        per_worker = max(1, math.ceil(n / workers))
        hist = registry.histogram("runner.shard.seconds", _SHARD_SECONDS_BUCKETS)
        if hist.count and hist.mean > 0:
            size = max(1, int(TARGET_CHUNK_SECONDS / hist.mean))
        else:
            size = max(1, math.ceil(n / (workers * 4)))
        return min(size, per_worker)

    def map(
        self,
        call: Callable[[Any], Any],
        items: Sequence[Any],
        jobs: int,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
    ) -> List[Any]:
        """``[call(x) for x in items]`` on the persistent pool, in order.

        The drop-in replacement for ``ProcessPoolExecutor.map`` in
        :func:`~repro.runner.pool.run_shards`: results come back in item
        order, and a worker exception propagates on collection exactly
        like ``pool.map`` — the retry/fault layer lives inside ``call``
        and is untouched.
        """
        self._check_open()
        registry = metrics if metrics is not None else get_registry()
        trace = trace if trace is not None else NULL_TRACE
        items = list(items)
        if not items:
            return []
        workers = max(1, min(jobs, len(items)))
        payload: Union[PayloadRef, Callable] = call
        frame, buffers = _encode_payload(call)
        if len(frame) + sum(b.raw().nbytes for b in buffers) >= PAYLOAD_MIN_BYTES:
            payload = self.put_payload(call, registry=registry)
        chunk = self._chunk_size(len(items), workers, registry)
        from concurrent.futures import ProcessPoolExecutor

        # Acquire the pool and submit under one lock hold: a concurrent
        # map() asking for more workers respawns the pool, and a submit
        # loop interleaved with that shutdown would raise.  Collection
        # stays outside the lock — a respawn waits for pending futures.
        with self._lock:
            executor = self._ensure_executor_locked(
                workers, registry, trace, ProcessPoolExecutor
            )
            futures = [
                executor.submit(
                    _run_chunk, payload, items[i : i + chunk],
                    self.token, self.epoch,
                )
                for i in range(0, len(items), chunk)
            ]
        self.maps += 1
        self.chunks += len(futures)
        registry.counter("runner.runtime.maps").inc()
        registry.counter("runner.runtime.chunks").inc(len(futures))
        registry.gauge("runner.runtime.chunk_size").set(chunk)
        results: List[Any] = []
        for future in futures:
            results.extend(self._collect(future.result(), registry))
        self._snapshot_pids()
        return results


def resolve_runtime(
    runtime: Union[Runtime, None, str]
) -> Optional[Runtime]:
    """An executor's runtime: the explicit one, or None for a per-call pool."""
    if isinstance(runtime, str):
        if runtime != FRESH:
            raise ReproError(
                f"unknown runtime {runtime!r}; pass a Runtime, None, or 'fresh'"
            )
        return None
    if runtime is not None and runtime.closed:
        raise ReproError(f"runtime {runtime.name!r} is closed")
    return runtime
