"""Warm-start trial execution: pay each distinct setup prefix once.

Every sweep trial used to rebuild a :class:`~repro.sim.Machine` from
``(config, seed)`` and re-simulate the same warm-up/calibration prefix
before the part that actually varies.  A :class:`WarmStartPlan` splits a
trial into that shared **setup prefix** and a per-shard **body**;
:func:`~repro.runner.pool.run_shards` runs each distinct prefix once
(:func:`build_prefixes`), takes a :class:`~repro.sim.MachineCheckpoint`,
and restores it before every body instead of rebuilding.

The determinism contract is unchanged: because ``Machine.restore`` rewinds
*all* mutable simulation state (clock, RNG, caches, policy metadata, PMU
counters, allocator pool, fault streams), a warm trial is bit-identical to
a cold trial at any ``jobs`` value — the restore runs before **every**
body, including the first after a fresh setup and any fault-injected
retry.  Checkpoint digests join the result-cache key, so warm and cold
runs of the same computation never collide in the cache under a changed
prefix.

Every process keeps a small memo of built prefix states, and it outlives
the sweep that built them: a later :func:`run_shards` call over the same
plan and prefix (the next round of a search, a rerun) restores the memoized
checkpoint instead of running ``setup`` again.  That is the same contract
as sharing one build across the trials of one sweep, since every trial
starts by restoring the checkpoint.  On fork-start platforms (Linux)
children inherit the parent's memo, so a ``jobs > 1`` sweep pays each
prefix once in the parent and zero times in the pool; spawn-start
platforms rebuild lazily per process.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..errors import ReproError
from ..obs import MetricsRegistry
from .shard import Shard, canonical_json

#: ``setup(prefix_params) -> (machine, context)``: build a machine and run
#: the shared prefix (channel construction, calibration, priming).  Must be
#: a top-level function — it pickles into pool workers.
Setup = Callable[[Dict[str, Any]], Tuple[Any, Any]]

#: ``body(machine, context, shard) -> result dict``: the varying part of a
#: trial, run on a freshly restored machine.  Must derive all per-trial
#: state from the shard (reseed channels, regenerate messages).
Body = Callable[[Any, Any, Shard], Dict[str, Any]]

#: Prefix-build histogram buckets (seconds).
_PREFIX_SECONDS_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0)

#: Per-process cap on memoized prefix states (machine + checkpoint each);
#: the least recently used is evicted first.  Sweeps group shards by
#: prefix, so in practice a process only ever needs the handful of
#: prefixes routed to it.
_MAX_WARM_STATES = 16


class WarmState(NamedTuple):
    """One built prefix: the live objects and the checkpoint they restore."""

    machine: Any
    context: Any
    checkpoint: Any
    #: ``checkpoint.digest()``; lookups on behalf of a sweep accept the
    #: entry only when it equals the digest that sweep keyed its cache with.
    digest: str
    #: Wall time the build took, credited to ``saved_seconds`` on reuse.
    build_seconds: float


#: memo key (see :func:`_memo_key`) -> :class:`WarmState`, least recently
#: used first, per process.
_WARM_STATES: "OrderedDict[tuple, WarmState]" = OrderedDict()

#: Guards every lookup, insert, LRU refresh and eviction of
#: ``_WARM_STATES``: ``repro serve`` runs inline sweeps on several threads
#: of one process, all sharing the memo.
_WARM_LOCK = threading.Lock()


def _reset_lock_after_fork() -> None:
    # A fork taken while another thread held the lock would leave the
    # child's copy locked forever.
    global _WARM_LOCK
    _WARM_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_after_fork)


def clear_warm_states() -> None:
    """Drop this process's memoized prefix states (test isolation hook)."""
    with _WARM_LOCK:
        _WARM_STATES.clear()


class PrefixPlan:
    """What the two plan kinds share: prefix params feeding one ``setup``.

    Subclasses are frozen dataclasses with ``setup`` and ``prefix_keys``
    fields; shards agreeing on the ``prefix_keys`` params share one machine
    build and checkpoint.
    """

    #: The run's executor label in the campaign store.
    executor = ""

    def prefix_of(self, shard: Shard) -> Dict[str, Any]:
        """The shard's prefix params (the setup's input)."""
        try:
            return {key: shard.params[key] for key in self.prefix_keys}
        except KeyError as missing:
            raise ReproError(
                f"shard {shard.index} is missing prefix param {missing} "
                f"(plan expects {self.prefix_keys})"
            ) from None

    def identity(self) -> str:
        """Stable name for cache keys and memo keys."""
        named = self._named()
        return f"{named.__module__}.{named.__qualname__}"


@dataclass(frozen=True)
class WarmStartPlan(PrefixPlan):
    """A trial split into a shared setup prefix and a varying body.

    Everything about a trial that is not named by ``prefix_keys`` must live
    in the body.
    """

    setup: Setup
    body: Body
    prefix_keys: Tuple[str, ...]

    executor = "warmstart"

    def _named(self):
        return self.body

    def engine_of(self, shard: Shard) -> str:
        """The backend cached rows are keyed under.

        Folded in explicitly (falling back to the process default when the
        shard does not carry one) so cached rows are never replayed across
        backends silently — backends are proven bit-identical by the
        differential suites, but a cache hit must not be the mechanism
        enforcing that.
        """
        from ..engine import default_backend

        return shard.params.get("engine") or default_backend()

    def run_trial(self, machine, context, checkpoint, shard: Shard) -> Dict[str, Any]:
        # Restore before *every* body — first use and retries included — so
        # execution never depends on what previously ran on this machine.
        machine.restore(checkpoint)
        return self.body(machine, context, shard)


def _memo_key(plan: PrefixPlan, prefix_json: str) -> tuple:
    """Memo key for one prefix state, qualified by the calling thread.

    The key names everything the build is a function of: the plan (its
    identity *and* its ``setup``, since two plans may share a body but
    not a setup) and the prefix params.  The checkpoint digest lives in
    the entry, not the key, so a prefix is found without rebuilding it.

    Memoized machines are mutable and restored *in place* before every
    body, so a state entry must never be shared between threads — two
    service jobs running inline sweeps concurrently in one process would
    otherwise restore and mutate one machine simultaneously.  Pool worker
    processes are single-threaded, so the qualifier is constant there;
    fork-start children are cloned from the thread that built the parent
    prefixes, so memo inheritance across the fork still works.
    """
    return (threading.get_ident(), plan.identity(), plan.setup, prefix_json)


def _memo_get(key: tuple) -> Optional[WarmState]:
    """The memoized state under ``key``, refreshed as most recently used."""
    with _WARM_LOCK:
        state = _WARM_STATES.get(key)
        if state is not None:
            _WARM_STATES.move_to_end(key)
        return state


def _memo_put(key: tuple, state: WarmState) -> None:
    with _WARM_LOCK:
        _WARM_STATES[key] = state
        _WARM_STATES.move_to_end(key)
        while len(_WARM_STATES) > _MAX_WARM_STATES:
            _WARM_STATES.popitem(last=False)


@dataclass
class Prefixes:
    """A sweep's built prefixes: see :func:`build_prefixes`."""

    #: Canonical prefix JSON of each shard, in shard order.
    json_of: List[str]
    #: prefix JSON -> :class:`WarmState`.
    states: Dict[str, WarmState]
    #: prefix JSON -> checkpoint digest.
    digests: Dict[str, str]


def build_prefixes(
    plan: PrefixPlan, shards: List[Shard], registry: MetricsRegistry, trace
) -> Prefixes:
    """Each distinct prefix of ``shards``, built and checkpointed at most
    once per process.

    A prefix already in this thread's memo is reused as is
    (``runner.checkpoint.reuses``); any other is built by ``plan.setup``,
    checkpointed and memoized (``runner.checkpoint.captures``).  Inline
    runs use the states directly, forked pool children inherit them for
    free.  The digest is needed to *form* the cache keys, so even a sweep
    whose shards are all cache hits needs its prefixes — which costs one
    prefix execution per distinct prefix per process, not per sweep.
    """
    json_of: List[str] = []
    groups: Dict[str, Dict[str, Any]] = {}
    shared: Dict[str, str] = {}
    for shard in shards:
        prefix = plan.prefix_of(shard)
        # Hold one string per distinct prefix, not one per shard: a prefix
        # carrying a platform config encodes to about a kilobyte.
        prefix_json = canonical_json(prefix)
        prefix_json = shared.setdefault(prefix_json, prefix_json)
        json_of.append(prefix_json)
        groups.setdefault(prefix_json, prefix)
    sizes = Counter(json_of)

    states: Dict[str, WarmState] = {}
    captures = registry.counter("runner.checkpoint.captures")
    reuses = registry.counter("runner.checkpoint.reuses")
    capture_seconds = registry.histogram(
        "runner.checkpoint.capture.seconds", _PREFIX_SECONDS_BUCKETS
    )
    saved_seconds = 0.0
    for prefix_json, prefix in groups.items():
        trials = sizes[prefix_json]
        key = _memo_key(plan, prefix_json)
        state = _memo_get(key)
        if state is not None:
            reuses.inc()
            # Every trial of this sweep would have re-run the prefix cold.
            saved_seconds += state.build_seconds * trials
            trace.emit(
                "runner.checkpoint.reuse",
                prefix=prefix_json,
                digest=state.digest,
                trials=trials,
            )
        else:
            start = time.perf_counter()
            machine, context = plan.setup(prefix)
            checkpoint = machine.checkpoint()
            elapsed = time.perf_counter() - start
            state = WarmState(machine, context, checkpoint, checkpoint.digest(), elapsed)
            _memo_put(key, state)
            captures.inc()
            registry.counter("runner.checkpoint.bytes").inc(checkpoint.approx_bytes)
            capture_seconds.observe(elapsed)
            # Each trial beyond the group's first would have re-run this
            # prefix cold; count the avoided builds as the (estimated) time
            # saved.
            saved_seconds += elapsed * (trials - 1)
            trace.emit(
                "runner.checkpoint.capture",
                prefix=prefix_json,
                digest=state.digest,
                seconds=elapsed,
                trials=trials,
            )
        states[prefix_json] = state
    registry.gauge("runner.checkpoint.saved_seconds").set(saved_seconds)
    digests = {prefix_json: state.digest for prefix_json, state in states.items()}
    return Prefixes(json_of, states, digests)


class PlanWorker:
    """Picklable shard worker running one trial of a plan on its prefix state.

    ``checkpoints`` optionally carries a shared-memory
    :class:`~repro.runner.runtime.PayloadRef` to the parent-built
    ``{prefix_json: checkpoint}`` table.  Persistent-pool workers forked
    before this sweep's prefixes existed cannot inherit the parent memo;
    on a memo miss they still run ``plan.setup`` (machine and context are
    live objects only a build can produce) but adopt the *shipped* parent
    checkpoint — digest-checked — instead of capturing their own, so the
    state they restore per trial is byte-for-byte the parent's.

    A memo entry serves a trial only when its digest equals the parent's
    digest for that prefix (the one the sweep's cache keys carry); any
    other entry is rebuilt and replaced.
    """

    def __init__(self, plan: PrefixPlan, digests: Dict[str, str], checkpoints=None):
        self.plan = plan
        self.digests = digests
        self.checkpoints = checkpoints

    def _shipped_checkpoint(self, prefix_json: str):
        """The parent's checkpoint for ``prefix_json`` from shm, if shipped."""
        if self.checkpoints is None:
            return None
        from .runtime import load_payload

        checkpoint = load_payload(self.checkpoints).get(prefix_json)
        if checkpoint is None or checkpoint.digest() != self.digests[prefix_json]:
            return None  # stale/foreign table: fall back to a local capture
        return checkpoint

    def __call__(self, shard: Shard) -> Dict[str, Any]:
        plan = self.plan
        prefix = plan.prefix_of(shard)
        prefix_json = canonical_json(prefix)
        key = _memo_key(plan, prefix_json)
        digest = self.digests[prefix_json]
        state = _memo_get(key)
        if state is None or state.digest != digest:
            start = time.perf_counter()
            machine, context = plan.setup(prefix)
            checkpoint = self._shipped_checkpoint(prefix_json)
            if checkpoint is None:
                checkpoint = machine.checkpoint()
                digest = checkpoint.digest()
            state = WarmState(
                machine, context, checkpoint, digest, time.perf_counter() - start
            )
            _memo_put(key, state)
        return plan.run_trial(state.machine, state.context, state.checkpoint, shard)
