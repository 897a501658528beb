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

Worker processes keep a small per-process memo of built prefix states.  On
fork-start platforms (Linux) children inherit the parent's memo, so a
``jobs > 1`` sweep pays each prefix once in the parent and zero times in
the pool; spawn-start platforms rebuild lazily per process.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

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
#: evicted FIFO.  Sweeps group shards by prefix, so in practice a process
#: only ever needs the handful of prefixes routed to it.
_MAX_WARM_STATES = 16

#: prefix key -> (machine, context, checkpoint), per process.
_WARM_STATES: Dict[tuple, tuple] = {}


def clear_warm_states() -> None:
    """Drop this process's memoized prefix states (test isolation hook)."""
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


def _memo_key(identity: str, prefix_json: str, digest: str) -> tuple:
    """Memo key for one prefix state, qualified by the calling thread.

    Memoized machines are mutable and restored *in place* before every
    body, so a state entry must never be shared between threads — two
    service jobs running inline sweeps concurrently in one process would
    otherwise restore and mutate one machine simultaneously.  Pool worker
    processes are single-threaded, so the qualifier is constant there;
    fork-start children are cloned from the thread that built the parent
    prefixes, so memo inheritance across the fork still works.
    """
    return (threading.get_ident(), identity, prefix_json, digest)


def _memo_put(key: tuple, state: tuple) -> None:
    if len(_WARM_STATES) >= _MAX_WARM_STATES:
        _WARM_STATES.pop(next(iter(_WARM_STATES)))
    _WARM_STATES[key] = state


@dataclass
class Prefixes:
    """A sweep's built prefixes: see :func:`build_prefixes`."""

    #: Canonical prefix JSON of each shard, in shard order.
    json_of: List[str]
    #: prefix JSON -> (machine, context, checkpoint).
    states: Dict[str, tuple]
    #: prefix JSON -> checkpoint digest.
    digests: Dict[str, str]


def build_prefixes(
    plan: PrefixPlan, shards: List[Shard], registry: MetricsRegistry, trace
) -> Prefixes:
    """Run each distinct prefix of ``shards`` once and checkpoint it.

    The states land in this process's memo: inline runs reuse them
    directly, forked pool children inherit them for free.  Capture work is
    accounted under ``runner.checkpoint.*``.  Every prefix is built even
    when all its shards are cache hits — the digest is needed to *form*
    the keys — so a warm cache-hit sweep still costs one prefix execution
    per distinct prefix.
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

    states: Dict[str, tuple] = {}
    digests: Dict[str, str] = {}
    capture_seconds = registry.histogram(
        "runner.checkpoint.capture.seconds", _PREFIX_SECONDS_BUCKETS
    )
    saved_seconds = 0.0
    for prefix_json, prefix in groups.items():
        start = time.perf_counter()
        machine, context = plan.setup(prefix)
        checkpoint = machine.checkpoint()
        elapsed = time.perf_counter() - start
        digest = digests[prefix_json] = checkpoint.digest()
        state = states[prefix_json] = (machine, context, checkpoint)
        _memo_put(_memo_key(plan.identity(), prefix_json, digest), state)
        registry.counter("runner.checkpoint.captures").inc()
        registry.counter("runner.checkpoint.bytes").inc(checkpoint.approx_bytes)
        capture_seconds.observe(elapsed)
        # Each trial beyond the group's first would have re-run this prefix
        # cold; count the avoided builds as the (estimated) time saved.
        saved_seconds += elapsed * (sizes[prefix_json] - 1)
        trace.emit(
            "runner.checkpoint.capture",
            prefix=prefix_json,
            digest=digest,
            seconds=elapsed,
            trials=sizes[prefix_json],
        )
    registry.gauge("runner.checkpoint.saved_seconds").set(saved_seconds)
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
        memo_key = _memo_key(plan.identity(), prefix_json, self.digests[prefix_json])
        state = _WARM_STATES.get(memo_key)
        if state is None:
            machine, context = plan.setup(prefix)
            shipped = self._shipped_checkpoint(prefix_json)
            state = (machine, context, shipped or machine.checkpoint())
            _memo_put(memo_key, state)
        return plan.run_trial(*state, shard)
