"""Sharded insertion-position sweep (paper Figure 2 at sweep scale).

The single-machine Figure 2 experiment (:mod:`repro.experiments.insertion`)
loops positions × repetitions on one machine inline.  This module runs the
same measurement as a *sharded sweep* — one shard per (position, trial),
each trial a pure trace replay on a shared warm-start prefix — which makes
it the canonical workload for the trial-batched engine: all trials of a
position group share the machine build, the checkpoint restore, and (under
``engine="batch"``) one array program, diverging only in their randomized
fill order and timed reload.

Each trial builds a static trace: flush the target set, fill it with the
eviction set in a per-trial permutation with ``l_a`` inserted by
``PREFETCHNTA`` at position ``a``, drain in-flight fills with off-set
loads, force one replacement, drain again, and reload ``l_a`` timed by the
recorded :class:`MemOpResult`.  Property #1 predicts the reload misses —
the prefetched line is the set's eviction candidate regardless of ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import random
from typing import Dict, List, Optional, Sequence

from ..engine import TrialView, resolve_backend
from ..errors import AttackError
from ..faults import FaultPlan
from ..runner import (
    ResultCache,
    Shard,
    TraceBatchPlan,
    WarmStartPlan,
    is_error_record,
    make_shards,
    run_shards,
)
from ..sim.machine import Machine

#: Off-target-set loads inserted to drain in-flight fills: each DRAM miss
#: advances the sequential clock by a full memory latency, so a couple of
#: fresh lines put every busy-until deadline in the past.
_DRAIN_LINES = 2


@dataclass
class InsertionSweepResult:
    """Aggregated Figure 2 sweep: per-position eviction fractions."""

    platform: str
    engine: str
    #: position -> fraction of trials whose prefetched line was evicted.
    evicted_fraction: Dict[int, float] = field(default_factory=dict)
    #: position -> timed reload latencies, one per trial.
    latencies: Dict[int, List[int]] = field(default_factory=dict)
    #: Shards dropped after exhausting their retry budget.
    failures: int = 0

    @property
    def always_evicted(self) -> bool:
        """Property #1's behavioural signature."""
        if not self.evicted_fraction:
            raise AttackError("sweep produced no data")
        return all(f == 1.0 for f in self.evicted_fraction.values())


def _sweep_setup(prefix: dict) -> tuple:
    """Shared prefix: machine build + target set + thresholds."""
    machine = Machine(
        prefix["config"], seed=prefix["machine_seed"],
        backend=prefix.get("engine"),
    )
    space = machine.address_space("insertion-sweep")
    w = machine.llc_ways
    target = space.alloc_pages(1)[0]
    evset = [target] + space.congruent_lines(
        machine.hierarchy.llc_mapping, target, w
    )
    llc_map = machine.hierarchy.llc_mapping
    drain_page = space.alloc_pages(1)[0]
    drain = []
    for i in range(64):
        line = drain_page + i * 64
        if not llc_map.congruent(line, target):
            drain.append(line)
            if len(drain) == _DRAIN_LINES:
                break
    context = {
        "evset": evset,
        "drain": drain,
        "threshold": machine.miss_threshold(),
        "w": w,
    }
    return machine, context


def _sweep_trace(machine: Machine, context: dict, shard: Shard) -> list:
    """One trial's static trace (read-only on the machine).

    All per-trial variation — the fill permutation — derives from the
    shard seed, so the trace is identical however it is executed.
    """
    p = shard.params
    a = p["position"]
    evset = context["evset"]
    w = context["w"]
    rng = random.Random(shard.seed)
    # Permute which lines land at which fill position; the probed line
    # stays the one prefetched at position a.
    order = list(range(w))
    rng.shuffle(order)
    probed = evset[order[a]]
    ops = []
    # Flush the set the way the paper does: load then flush everything.
    for line in evset:
        ops.append(("load", 0, line))
    for line in evset:
        ops.append(("clflush", 0, line))
    # Fill with l_a prefetched at position a.
    for i, idx in enumerate(order):
        if i == a:
            ops.append(("prefetchnta", 0, evset[idx]))
        else:
            ops.append(("load", 0, evset[idx]))
    # Drain in-flight fills, force one replacement, drain again.
    for line in context["drain"]:
        ops.append(("load", 0, line))
    ops.append(("load", 0, evset[w]))
    for line in context["drain"]:
        ops.append(("load", 0, line))
    # Timed reload of the prefetched line (the trace's last result).
    ops.append(("load", 0, probed))
    return ops


def _sweep_reduce(trial: TrialView, context: dict, shard: Shard) -> dict:
    """Classify the trial from the recorded reload latency."""
    p = shard.params
    reload_result = trial.results[-1]
    return {
        "position": p["position"],
        "trial": p["trial"],
        "latency": reload_result.latency,
        "evicted": reload_result.latency > context["threshold"],
        "clock": trial.clock,
    }


def _sweep_body(machine: Machine, context: dict, shard: Shard) -> dict:
    """Scalar fallback body: the same trace through ``run_trace``,
    reduced from the same view the batch path builds."""
    trace = _sweep_trace(machine, context, shard)
    results = machine.run_trace(
        trace, record=True, backend=shard.params.get("engine")
    )
    return _sweep_reduce(TrialView(machine.clock, tuple(results)), context, shard)


_PREFIX_KEYS = ("config", "machine_seed", "engine")

BATCH_PLAN = TraceBatchPlan(
    setup=_sweep_setup,
    make_trace=_sweep_trace,
    reduce=_sweep_reduce,
    prefix_keys=_PREFIX_KEYS,
)

SCALAR_PLAN = WarmStartPlan(
    setup=_sweep_setup, body=_sweep_body, prefix_keys=_PREFIX_KEYS
)


def run_insertion_sweep(
    machine_factory,
    positions: Optional[Sequence[int]] = None,
    trials: int = 32,
    seed: int = 0,
    jobs: int = 1,
    result_cache: Optional[ResultCache] = None,
    metrics=None,
    trace=None,
    faults: Optional[FaultPlan] = None,
    retries: int = 0,
    engine: Optional[str] = None,
    batch_size: int = 64,
    store=None,
    campaign: Optional[str] = None,
    runtime=None,
) -> InsertionSweepResult:
    """Sweep insertion positions × trials, batching trials when possible.

    ``engine="batch"`` runs the whole sweep as a
    :class:`~repro.runner.TraceBatchPlan` — per prefix group, one
    checkpoint restore broadcast across up to ``batch_size`` trials; any
    other engine runs the scalar warm-start plan with the trace replayed
    under that backend.  Both paths produce bit-identical shard results
    (and therefore interchangeable sweeps), which
    ``tests/runner/test_batchexec.py`` pins.
    """
    probe: Machine = machine_factory()
    engine = resolve_backend(engine) if engine is not None else probe.backend
    if positions is None:
        positions = range(probe.llc_ways)
    shards = make_shards(seed, [
        {
            "config": probe.config,
            "machine_seed": probe.seed,
            "engine": engine,
            "position": position,
            "trial": trial,
        }
        for position in positions
        for trial in range(trials)
    ])
    if campaign is None:
        # The engine is deliberately absent: every backend produces
        # bit-identical rows, so their runs belong to one history.
        campaign = f"insertion_sweep/{probe.config.name}"
    plan = (
        replace(BATCH_PLAN, batch_size=batch_size) if engine == "batch"
        else SCALAR_PLAN
    )
    rows = run_shards(
        plan, shards, jobs=jobs, cache=result_cache,
        cache_tag="insertion_sweep/v1",
        metrics=metrics, trace=trace, faults=faults, retries=retries,
        store=store, campaign=campaign, runtime=runtime,
    )

    result = InsertionSweepResult(platform=probe.config.name, engine=engine)
    evicted: Dict[int, List[bool]] = {}
    for row in rows:
        if is_error_record(row):
            result.failures += 1
            continue
        evicted.setdefault(row["position"], []).append(row["evicted"])
        result.latencies.setdefault(row["position"], []).append(row["latency"])
    for position, flags in evicted.items():
        result.evicted_fraction[position] = sum(flags) / len(flags)
    return result
