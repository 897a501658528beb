"""Shard execution: serial or process-parallel, with identical output.

:func:`run_shards` is the one entry point every sweep goes through.  Its
work is a plain worker, a :class:`~repro.runner.warmstart.WarmStartPlan`
(each distinct setup prefix run once, its checkpoint restored before every
trial), or a :class:`~repro.runner.batchexec.TraceBatchPlan` (trials of a
prefix run as one array program per chunk).  It guarantees:

* **Stable merge order** — results come back in shard order regardless of
  ``jobs``, so a parallel sweep is bit-identical to a serial one.  Shard
  indices must be unique; a duplicate is rejected up front rather than
  silently misattributing one shard's result to another's slot.
* **Pure workers** — a worker is a top-level function of one
  :class:`~repro.runner.shard.Shard` returning a JSON-compatible dict.  It
  must derive everything from the shard (workers run in forked processes
  where closure state would silently diverge).
* **Inputs checked first** — bad arguments, duplicate indices, and shards
  missing prefix params are rejected before any simulation runs.
* **Transparent caching** — with a :class:`~repro.runner.cache.ResultCache`,
  known points are served from disk and only the misses are computed (and
  then stored), in every execution mode.  Only successful results are
  cached, and a shard that needed retries is cached exactly once.
* **Graceful degradation** — with ``retries`` and/or a
  :class:`~repro.faults.FaultPlan`, each shard gets a bounded retry budget
  with deterministic exponential backoff, and a shard that exhausts it
  yields an *error record* (see :func:`is_error_record`) in its merge slot
  instead of aborting the whole sweep.  Injected faults fire before the
  worker runs, so a recoverable chaos run merges bit-identically to a
  fault-free run.
* **Accounted execution** — per-shard wall time, pool utilization, retry
  and failure counts, checkpoint work, and cache hit/miss/corrupt/evicted/
  error/rejected counts land in the run's metrics registry
  (``runner.retries`` / ``runner.failures`` among them) and (optionally) an
  :class:`~repro.obs.trace.EventTrace`, so sweep summaries and
  ``--trace FILE`` cost nothing to support here.
* **Durable history** — with a :class:`~repro.store.CampaignStore`
  passed as ``store=``, the merged run is recorded once — shard params,
  results, cache keys, accounting, executor label
  (``pool``/``warmstart``/``batch``), batch width, checkpoint digests,
  and a metrics snapshot — fail-soft (see :mod:`repro.store.ingest`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..faults import FaultPlan, ShardFaultInjector
from ..obs import EventTrace, MetricsRegistry, NULL_TRACE, get_registry
from .batchexec import TraceBatchPlan, run_batched
from .cache import ResultCache
from .runtime import resolve_runtime
from .shard import Shard
from .warmstart import PlanWorker, PrefixPlan, WarmStartPlan, build_prefixes

Worker = Callable[[Shard], Dict[str, Any]]

#: What :func:`run_shards` runs: a plain worker or a prefix plan.
Work = Union[Worker, WarmStartPlan, TraceBatchPlan]

#: Shard wall-time histogram buckets (seconds).
_SHARD_SECONDS_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)

#: :class:`ResultCache` counters published per run as ``runner.cache.*``.
_CACHE_COUNTS = ("hits", "misses", "corrupt", "evicted", "errors", "rejected")

#: Key marking a merged slot as a shard failure rather than a result.
SHARD_ERROR_KEY = "__shard_error__"

#: Ceiling on one retry's backoff sleep, whatever the base and attempt.
BACKOFF_CAP_SECONDS = 5.0

#: One worker attempt's outcome: (result, error record, seconds, attempts).
_Outcome = Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]], float, int]


def is_error_record(result: Any) -> bool:
    """Whether a merged slot holds a shard-failure record instead of a result."""
    return isinstance(result, dict) and SHARD_ERROR_KEY in result


def backoff_seconds(
    base: float, attempt: int, cap: float = BACKOFF_CAP_SECONDS
) -> float:
    """Deterministic exponential backoff before retry ``attempt`` (1-based).

    ``base * 2**(attempt-1)``, capped at ``cap`` (default
    :data:`BACKOFF_CAP_SECONDS`) so the delay never grows unboundedly with
    the attempt count — a retrying shard stalls its pool slot for at most
    ``cap`` seconds per attempt.  Callers holding scarcer slots (e.g. the
    sweep service's dispatchers) may pass a tighter cap.  No jitter: the
    schedule is part of the reproducible contract, and sweep shards never
    contend for a shared resource that would need decorrelating.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    return min(base * (2 ** (attempt - 1)), cap)


def _identity(work: Work) -> str:
    """The name cache keys and default campaigns know ``work`` by.

    A plan is named by its body (or trace builder); a plain worker by its
    optional ``cache_identity`` attribute — required for callables without
    a useful ``__qualname__``, e.g. class instances — else its dotted name.
    """
    if isinstance(work, PrefixPlan):
        return work.identity()
    identity = getattr(work, "cache_identity", None)
    if identity is None:
        identity = f"{work.__module__}.{work.__qualname__}"
    return identity


def _cache_key(
    cache: ResultCache, work: Work, tag: Optional[str], shard: Shard,
    digest: Optional[str] = None,
) -> str:
    """Content key for one shard's result.

    A plan's shards add their prefix checkpoint ``digest`` and the engine
    backend (:meth:`engine_of`) to the key.  The backend goes in as
    ``backend``: :meth:`ResultCache.key` already puts ``ENGINE_VERSION``
    under ``engine``, and a component of that name would overwrite it.
    """
    components: Dict[str, Any] = {
        "worker": _identity(work),
        "tag": tag,
        "seed": shard.seed,
        "params": shard.params,
    }
    if digest is not None:
        components.update(checkpoint=digest, backend=work.engine_of(shard))
    return cache.key(**components)


def _failure(shard: Shard, error: Exception, attempts: int) -> Dict[str, Any]:
    return {
        "shard": shard.index,
        "error": type(error).__name__,
        "message": str(error),
        "attempts": attempts,
    }


def _timed_call(worker: Worker, shard: Shard) -> _Outcome:
    """Run ``worker`` once; top level so it pickles to pool workers."""
    start = time.perf_counter()
    result = worker(shard)
    return result, None, time.perf_counter() - start, 1


def _attempt_shard(
    worker: Worker,
    faults: Optional[FaultPlan],
    retries: int,
    backoff_base: float,
    backoff_cap: float,
    shard: Shard,
    first_error: Optional[Exception] = None,
) -> _Outcome:
    """Run ``worker`` with fault injection and bounded retry (pickles to pools).

    Fault decisions key on ``(shard.index, attempt)``, so they are identical
    in any process at any ``jobs`` value; the worker itself is only ever run
    clean, which keeps recovered results bit-identical to fault-free ones.
    ``first_error`` is the failure of an attempt 0 made elsewhere (a shard
    pulled out of a trial batch); attempts then resume at 1.
    """
    injector = ShardFaultInjector(faults) if faults is not None else None
    start = time.perf_counter()
    failure = None if first_error is None else _failure(shard, first_error, 1)
    for attempt in range(0 if first_error is None else 1, retries + 1):
        if attempt:
            delay = backoff_seconds(backoff_base, attempt, backoff_cap)
            if delay:
                time.sleep(delay)
        try:
            if injector is not None:
                injector.check(shard.index, attempt)
            result = worker(shard)
        except Exception as error:
            failure = _failure(shard, error, attempt + 1)
            continue
        return result, None, time.perf_counter() - start, attempt + 1
    return None, failure, time.perf_counter() - start, retries + 1


def run_shards(
    work: Work,
    shards: Sequence[Shard],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_tag: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[EventTrace] = None,
    faults: Optional[FaultPlan] = None,
    retries: int = 0,
    backoff_base: float = 0.0,
    backoff_cap: float = BACKOFF_CAP_SECONDS,
    on_error: Optional[str] = None,
    store=None,
    campaign: Optional[str] = None,
    runtime=None,
) -> List[Dict[str, Any]]:
    """Run ``work`` over ``shards``; results merged in shard order.

    ``work`` is a plain worker, a
    :class:`~repro.runner.warmstart.WarmStartPlan`, or a
    :class:`~repro.runner.batchexec.TraceBatchPlan`.  A plan's distinct
    prefixes are built and checkpointed once in this process before any
    trial; their digests join the cache keys.

    ``jobs <= 1`` runs inline (a trace-batch plan as one array program per
    chunk); ``jobs > 1`` fans the uncached shards out to worker processes.
    ``cache_tag`` names the sweep family in cache keys (bump it when a
    worker's *output format* changes without a rename).  ``metrics``
    defaults to the process registry (the null sink unless one is
    installed); ``trace`` records per-shard events.

    ``faults`` injects deterministic crashes/timeouts per (shard, attempt);
    ``retries`` bounds how many times a failing shard is re-attempted, with
    ``backoff_base``-seconds exponential backoff between attempts, each
    delay clamped to ``backoff_cap`` seconds (default
    :data:`BACKOFF_CAP_SECONDS`).
    ``on_error`` selects what an exhausted shard does: ``"record"`` leaves
    an error record in its merge slot, ``"raise"`` aborts the sweep.  The
    default is ``"record"`` whenever faults or retries are engaged and the
    legacy ``"raise"`` otherwise.

    ``store`` is the campaign store the merged run is recorded into (None
    records nothing); ``campaign`` names the run's campaign (default: the
    cache tag minus its version suffix, else the work's identity).

    ``runtime`` selects the execution runtime for the parallel path: a
    :class:`~repro.runner.runtime.Runtime` reuses its persistent pool (and
    receives a plan's checkpoint table through shared memory); None or
    :data:`~repro.runner.runtime.FRESH` spawns a pool for this call only.
    The choice never changes output — only how worker processes are
    provisioned.
    """
    if jobs < 0:
        raise ReproError(f"jobs must be >= 0, got {jobs}")
    if retries < 0:
        raise ReproError(f"retries must be >= 0, got {retries}")
    if backoff_base < 0:
        raise ReproError(f"backoff_base must be >= 0, got {backoff_base}")
    if backoff_cap < 0:
        raise ReproError(f"backoff_cap must be >= 0, got {backoff_cap}")
    if on_error is None:
        on_error = "record" if (faults is not None or retries > 0) else "raise"
    if on_error not in ("record", "raise"):
        raise ReproError(f"on_error must be 'record' or 'raise', got {on_error!r}")
    registry = metrics if metrics is not None else get_registry()
    trace = trace if trace is not None else NULL_TRACE
    wall_start = time.perf_counter()
    shards = list(shards)
    results: List[Optional[Dict[str, Any]]] = [None] * len(shards)

    slot_of: Dict[int, int] = {}
    for slot, shard in enumerate(shards):
        duplicate = slot_of.get(shard.index)
        if duplicate is not None:
            raise ReproError(
                f"duplicate shard index {shard.index} (positions {duplicate} "
                f"and {slot}): indices must be unique for a stable merge"
            )
        slot_of[shard.index] = slot

    plan = work if isinstance(work, PrefixPlan) else None
    rt = resolve_runtime(runtime) if jobs > 1 else None
    worker: Worker = work  # type: ignore[assignment]
    prefixes = None
    if plan is not None:
        prefixes = build_prefixes(plan, shards, registry, trace)
        # Under a persistent runtime, ship the parent-built checkpoint table
        # through one shared-memory segment: pool workers forked before
        # these prefixes existed adopt the parent's checkpoints instead of
        # each capturing their own, and the table travels once per content.
        shipped = None
        if rt is not None and prefixes.states:
            shipped = rt.put_payload(
                {key: state.checkpoint for key, state in prefixes.states.items()},
                registry=registry,
            )
        worker = PlanWorker(plan, prefixes.digests, checkpoints=shipped)

    pending: List[Shard] = []
    keys: Dict[int, str] = {}
    cache_counts_before = (
        {name: getattr(cache, name) for name in _CACHE_COUNTS}
        if cache is not None
        else {}
    )
    if cache is not None:
        with cache.transaction():  # one read snapshot for every lookup
            for slot, shard in enumerate(shards):
                digest = (
                    None if prefixes is None
                    else prefixes.digests[prefixes.json_of[slot]]
                )
                key = keys[slot] = _cache_key(cache, work, cache_tag, shard, digest)
                hit = cache.get(key)
                if hit is not None:
                    results[slot] = hit
                    trace.emit("runner.cache.hit", shard=shard.index, key=key)
                else:
                    pending.append(shard)
                    trace.emit("runner.cache.miss", shard=shard.index, key=key)
    else:
        pending = shards

    busy_seconds = 0.0
    retried_attempts = 0
    failed_shards = 0
    restores = 0
    workers_used = min(jobs, len(pending)) if jobs > 1 else (1 if pending else 0)
    computed: List[_Outcome] = []
    attempt = partial(
        _attempt_shard, worker, faults, retries, backoff_base, backoff_cap
    )
    if isinstance(plan, TraceBatchPlan) and jobs <= 1:
        computed, restores = run_batched(
            plan,
            pending,
            [prefixes.json_of[slot_of[shard.index]] for shard in pending],
            prefixes.states,
            faults,
            attempt,
            registry,
            trace,
        )
    elif pending:
        if faults is None and retries == 0 and on_error == "raise":
            # Legacy fast path: worker exceptions propagate unwrapped.
            call = partial(_timed_call, worker)
        else:
            call = attempt
        # A single pending shard (or a fully cached sweep) is not worth a
        # worker process: run it inline.  Workers are pure functions of the
        # shard, so output is identical.
        if jobs > 1 and len(pending) > 1:
            if rt is not None:
                computed = rt.map(
                    call, pending, workers_used, metrics=registry, trace=trace
                )
            else:
                with ProcessPoolExecutor(max_workers=workers_used) as pool:
                    computed = list(pool.map(call, pending))
        else:
            computed = [call(shard) for shard in pending]
        if plan is not None:
            # Every plan's run_trial restores the checkpoint once.
            restores = len(pending)

    shard_seconds = registry.histogram("runner.shard.seconds", _SHARD_SECONDS_BUCKETS)
    # The merge loop's puts commit as one write transaction — also when an
    # ``on_error="raise"`` failure leaves it, so results merged before the
    # failing shard stay cached.
    with cache.transaction() if cache is not None else nullcontext():
        for shard, (result, failure, elapsed, attempts) in zip(pending, computed):
            slot = slot_of[shard.index]
            if attempts > 1:
                retried_attempts += attempts - 1
                trace.emit(
                    "runner.shard.retried",
                    shard=shard.index,
                    retries=attempts - 1,
                    recovered=failure is None,
                )
            if failure is not None:
                if on_error == "raise":
                    raise ReproError(
                        f"shard {shard.index} failed after {attempts} "
                        f"attempt(s): {failure['error']}: {failure['message']}"
                    )
                failed_shards += 1
                results[slot] = {SHARD_ERROR_KEY: failure}
                trace.emit(
                    "runner.shard.failed",
                    shard=shard.index,
                    attempts=attempts,
                    error=failure["error"],
                )
            else:
                results[slot] = result
                if cache is not None:
                    cache.put(keys[slot], result)
                trace.emit("runner.shard", shard=shard.index, seconds=elapsed)
            busy_seconds += elapsed
            shard_seconds.observe(elapsed)

    registry.counter("runner.shards.total").inc(len(shards))
    registry.counter("runner.shards.computed").inc(len(pending))
    registry.counter("runner.shards.cached").inc(len(shards) - len(pending))
    # Always materialized (inc 0) so ``stats --json`` shows the retry layer
    # even on fault-free runs.
    registry.counter("runner.retries").inc(retried_attempts)
    registry.counter("runner.failures").inc(failed_shards)
    if plan is not None:
        registry.counter("runner.checkpoint.restores").inc(restores)
    for name, before in cache_counts_before.items():
        registry.counter(f"runner.cache.{name}").inc(getattr(cache, name) - before)
    wall_seconds = time.perf_counter() - wall_start
    registry.gauge("runner.pool.jobs").set(max(workers_used, 1))
    if pending and wall_seconds > 0:
        registry.gauge("runner.pool.utilization").set(
            busy_seconds / (wall_seconds * max(workers_used, 1))
        )
    trace.emit(
        "runner.sweep",
        shards=len(shards),
        computed=len(pending),
        cached=len(shards) - len(pending),
        retries=retried_attempts,
        failures=failed_shards,
        jobs=max(workers_used, 1),
        wall_seconds=wall_seconds,
        busy_seconds=busy_seconds,
    )

    from ..store.ingest import campaign_name, record_sweep

    record_sweep(
        store,
        campaign if campaign is not None else campaign_name(cache_tag, _identity(work)),
        shards,
        results,
        executor="pool" if plan is None else plan.executor,
        batch_size=getattr(plan, "batch_size", 1),
        digests=None if prefixes is None else dict(prefixes.digests),
        jobs=max(workers_used, 1),
        shards_computed=len(pending),
        shards_cached=len(shards) - len(pending),
        retries=retried_attempts,
        failures=failed_shards,
        wall_seconds=wall_seconds,
        registry=registry,
        trace=trace,
        cache_keys=(
            [keys.get(slot) for slot in range(len(shards))] if cache is not None else None
        ),
    )
    return results  # type: ignore[return-value]
