"""Batched trials: one array program per warm-start chunk.

A :class:`~repro.runner.warmstart.WarmStartPlan` makes the *setup prefix*
cheap; its trial bodies still execute one machine at a time.  For the
dominant sweep shape — every trial in a prefix group replays a trace on a
restored checkpoint and reduces the recorded results — a
:class:`TraceBatchPlan` splits the body into a pure trace builder and a
result reducer, so :func:`~repro.runner.pool.run_shards` can run a whole
chunk of trials through the trial-batched engine (:mod:`repro.engine.batch`)
with :func:`run_batched`: **one** checkpoint restore broadcast across the
trial axis, one merged program, and each trial reduced straight from its
:class:`~repro.engine.batch.TrialView` (end clock and recorded results).
No trial's end state is ever written back into the machine.

Everything else about the runner contract is preserved bit-for-bit:

* each trial's result is keyed *individually* in the content-addressed
  :class:`~repro.runner.cache.ResultCache` (checkpoint digest and engine
  name included), so batched, warm-scalar, and parallel runs interoperate
  through the cache;
* fault decisions key on ``(shard.index, attempt)`` exactly as for any
  other work; a shard whose fault, trace builder, or reducer raises is
  pulled out of its batch and retried scalar from attempt 1 (a retried
  trial is a one-trial batch, which the differential suite pins as
  bit-identical);
* ``jobs > 1`` runs the pool with a scalar one-trial worker — process
  isolation already parallelizes across trials, so the trial axis adds
  nothing there, and the cache keys stay identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..engine import TrialView, run_trace_batch
from ..errors import ReproError
from ..faults import FaultPlan, ShardFaultInjector
from ..obs import MetricsRegistry
from .shard import Shard
from .warmstart import PrefixPlan, Setup, WarmState

#: ``make_trace(machine, context, shard) -> ops``: build the shard's trace
#: (a list of ``(op, core, addr)`` tuples).  MUST be read-only on the
#: machine — it runs against the restored-checkpoint state that every
#: trial in the batch shares, so any mutation would leak between trials.
#: Derive all per-trial variation from the shard (seed, params).
MakeTrace = Callable[[Any, Any, Shard], Sequence[Tuple[str, int, int]]]

#: ``reduce(trial, context, shard) -> result dict``: turn the trial's
#: :class:`~repro.engine.batch.TrialView` (end clock and recorded
#: :class:`MemOpResult` tuple) into the shard's result.  Reducers read
#: only the view, never the machine: the batch's trial end states are
#: never written back into it.
Reduce = Callable[[TrialView, Any, Shard], Dict[str, Any]]


@dataclass(frozen=True)
class TraceBatchPlan(PrefixPlan):
    """A sweep trial split into prefix setup, trace builder, and reducer.

    Shards that agree on the ``prefix_keys`` params share one machine
    build, one checkpoint, and — inline (``jobs <= 1``) — one batched
    array program per chunk of at most ``batch_size`` trials.  The chunk
    width caps memory for recorded results and divergence bookkeeping; it
    never changes a result.
    """

    setup: Setup
    make_trace: MakeTrace
    reduce: Reduce
    prefix_keys: Tuple[str, ...]
    batch_size: int = 64

    executor = "batch"

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ReproError(f"batch_size must be >= 1, got {self.batch_size}")

    def _named(self):
        return self.make_trace

    def engine_of(self, shard: Shard) -> str:
        """Always ``batch``: cached rows are never replayed across engines
        silently — equality is proven by tests, not smuggled through the
        cache."""
        return "batch"

    def run_trial(self, machine, context, checkpoint, shard: Shard) -> Dict[str, Any]:
        """One shard as a one-trial batch, reduced from its view.

        The machine is not left at the trial's end state; every trial
        starts by restoring ``checkpoint``.
        """
        machine.restore(checkpoint)
        trace = self.make_trace(machine, context, shard)
        result = run_trace_batch(machine, [trace], record=True)
        return self.reduce(result.trial(0), context, shard)


def run_batched(
    plan: TraceBatchPlan,
    pending: List[Shard],
    prefix_jsons: List[str],
    states: Dict[str, WarmState],
    faults: Optional[FaultPlan],
    retry: Callable[[Shard, Exception], tuple],
    registry: MetricsRegistry,
    trace,
) -> Tuple[List[tuple], int]:
    """Outcomes for ``pending`` (in order) and the checkpoint restores spent.

    ``prefix_jsons`` names each pending shard's prefix state in
    ``states``.  Per prefix group, each chunk of at most ``plan.batch_size``
    trials costs one restore and one ``run_trace_batch``; every trial is
    reduced from :meth:`BatchResult.trial`, so the machine is never
    rebuilt to a trial's end state (each chunk and each retry starts by
    restoring the checkpoint).  Faults fire before any work, keyed
    ``(index, 0)``.  A shard that fails in its batch is handed to
    ``retry(shard, error)`` once every batch has run; a recovered retry
    costs one more restore.
    """
    injector = ShardFaultInjector(faults) if faults is not None else None
    groups: Dict[str, List[Shard]] = {}
    for shard, prefix_json in zip(pending, prefix_jsons):
        groups.setdefault(prefix_json, []).append(shard)
    outcomes: Dict[int, tuple] = {}
    pulled: List[Tuple[Shard, Exception]] = []
    restores = batches = trials = 0
    for prefix_json, members in groups.items():
        state = states[prefix_json]
        machine, context, checkpoint = state.machine, state.context, state.checkpoint
        for first in range(0, len(members), plan.batch_size):
            batch_start = time.perf_counter()
            ready: List[Shard] = []
            for shard in members[first : first + plan.batch_size]:
                try:
                    if injector is not None:
                        injector.check(shard.index, 0)
                except Exception as error:
                    pulled.append((shard, error))
                else:
                    ready.append(shard)
            if not ready:
                continue
            machine.restore(checkpoint)
            restores += 1
            traces = []
            traced: List[Shard] = []
            for shard in ready:
                try:
                    traces.append(plan.make_trace(machine, context, shard))
                except Exception as error:
                    pulled.append((shard, error))
                else:
                    traced.append(shard)
            if not traced:
                continue
            batch = run_trace_batch(machine, traces, record=True)
            batches += 1
            trials += len(traced)
            batch_elapsed = time.perf_counter() - batch_start
            share = batch_elapsed / len(traced)
            for t, shard in enumerate(traced):
                trial_start = time.perf_counter()
                try:
                    result = plan.reduce(batch.trial(t), context, shard)
                except Exception as error:
                    pulled.append((shard, error))
                    continue
                elapsed = share + time.perf_counter() - trial_start
                outcomes[shard.index] = (result, None, elapsed, 1)
            trace.emit(
                "runner.batch", prefix=prefix_json, trials=len(traced),
                seconds=batch_elapsed,
            )
    for shard, error in pulled:
        outcome = outcomes[shard.index] = retry(shard, error)
        if outcome[1] is None:
            restores += 1
    registry.counter("runner.batch.batches").inc(batches)
    registry.counter("runner.batch.trials").inc(trials)
    return [outcomes[shard.index] for shard in pending], restores
