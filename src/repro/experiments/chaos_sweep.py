"""Chaos harness: fault-injected sweeps and channel robustness curves.

The paper stresses its channel with stress-ng memory/CPU load and reports
how BER degrades (Section VI); this experiment generalizes that setup with
the deterministic fault layer in :mod:`repro.faults`, in two acts:

1. **Runner chaos** — the same capacity-sweep shards are run fault-free
   (serial) and under injected worker crashes with a bounded retry budget.
   Because injected faults fire *before* a worker computes, a recoverable
   chaos run must merge **bit-identically** to the fault-free baseline —
   the acceptance check every future PR's chaos smoke leans on.
2. **Channel chaos** — one :class:`~repro.channel.ReliableTransport` send
   per fault rate, with burst bit flips and slot slips injected into the
   received stream, yielding the BER/delivery-vs-fault-rate curve that
   generalizes the paper's external-noise experiment.

Both acts run through :func:`repro.runner.run_shards`, so ``--jobs``,
result caching (act 2), metrics, and tracing behave like every other sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from ..attacks.ntp_ntp import NTPNTPChannel
from ..channel.transport import ReliableTransport
from ..faults import FaultPlan
from ..obs import MetricsRegistry
from ..runner import ResultCache, Shard, is_error_record, make_shards, run_shards
from ..engine import resolve_backend
from ..sim.machine import Machine
from ..victims.noise import NoiseConfig
from .capacity_sweep import _capacity_point_worker

#: Channel fault rates swept in act 2 (per-bit burst-flip trigger rate).
DEFAULT_FAULT_RATES = (0.0, 0.002, 0.005, 0.01, 0.02)

#: Capacity-sweep intervals reused for the act-1 determinism check.
CHAOS_INTERVALS = (1500, 1800, 2100, 2800)


@dataclass(frozen=True)
class ChaosPoint:
    """One transport send under channel fault injection."""

    fault_rate: float
    delivered: bool
    channel_ber: float
    flips: int
    slips: int
    drops: int


@dataclass
class ChaosSweepResult:
    """Both acts' outcomes, plus the knobs that produced them."""

    platform: str
    crash_probability: float
    retries: int
    #: Act 1: did the fault-injected, retried run merge bit-identically?
    runner_identical: bool
    #: Retry attempts during act 1 (cache-bypassed, hence deterministic for
    #: a given plan; act-2 retries vanish on cache hits and are visible only
    #: in the run's metrics registry).
    runner_retries: int
    #: Exhausted shards across both acts.  Error records are never cached,
    #: so a failing shard fails identically on every run.
    runner_failures: int
    points: List[ChaosPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The chaos-smoke criterion: fully recovered and bit-identical."""
        return self.runner_identical and self.runner_failures == 0

    def header(self) -> tuple:
        return ("fault rate", "delivered", "flips", "slips", "drops", "channel BER")

    def rows(self) -> List[tuple]:
        return [
            (
                f"{p.fault_rate:.3f}",
                "yes" if p.delivered else "NO",
                p.flips,
                p.slips,
                p.drops,
                f"{p.channel_ber * 100:.2f}%",
            )
            for p in self.points
        ]


def _payload(n_bytes: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n_bytes))


def _chaos_channel_worker(shard: Shard) -> dict:
    """One faulted transport send, rebuilt entirely from the shard."""
    p = shard.params
    machine = Machine(
        p["config"], seed=p["machine_seed"], backend=p.get("engine")
    )
    channel = NTPNTPChannel(machine, seed=p["seed"])
    registry = MetricsRegistry()
    transport = ReliableTransport(
        channel, metrics=registry, faults=FaultPlan.from_dict(p["plan"])
    )
    delivery = transport.send(
        _payload(p["payload_bytes"], p["seed"]), interval=p["interval"]
    )
    counters = registry.as_dict("channel.faults.")["counters"]
    return {
        "fault_rate": p["fault_rate"],
        "delivered": delivery.ok,
        "channel_ber": delivery.channel_ber,
        "flips": counters.get("channel.faults.flips", 0),
        "slips": counters.get("channel.faults.slips", 0),
        "drops": counters.get("channel.faults.drops", 0),
    }


def run_chaos_sweep(
    machine_factory: Callable[[], Machine],
    n_bits: int = 48,
    payload_bytes: int = 6,
    crash_probability: float = 0.2,
    retries: int = 3,
    fault_rates: Optional[Sequence[float]] = None,
    seed: int = 0,
    jobs: int = 1,
    result_cache: Optional[ResultCache] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace=None,
    plan: Optional[FaultPlan] = None,
    engine: Optional[str] = None,
    store=None,
    runtime=None,
) -> ChaosSweepResult:
    """Run both chaos acts and score them.

    ``plan`` seeds the fault streams and supplies burst/drop shape; the
    crash and per-rate flip/slip probabilities are overlaid onto it.  The
    act-1 runs deliberately bypass ``result_cache`` — a cache hit would
    skip the very injection being exercised — while act-2 points cache
    under their plan, like any other sweep point.  Shards whose injected
    crashes exhaust ``retries`` surface as ``runner_failures`` (and error
    records), never as a sweep abort.  Only act 2 records into ``store``
    (one run per call); both parallel runs share ``runtime``'s pool.
    """
    if fault_rates is None:
        fault_rates = DEFAULT_FAULT_RATES
    base_plan = plan if plan is not None else FaultPlan(seed=seed)
    registry = metrics if metrics is not None else MetricsRegistry()
    probe = machine_factory()
    engine = resolve_backend(engine) if engine is not None else probe.backend
    crash_plan = replace(base_plan, crash_probability=crash_probability)

    # Act 1 — determinism under runner chaos.
    shards = make_shards(seed, [
        {
            "config": probe.config,
            "machine_seed": probe.seed,
            "engine": engine,
            "channel": "ntp+ntp",
            "interval": interval,
            "n_bits": n_bits,
            "seed": seed,
            "noise": NoiseConfig(),
        }
        for interval in CHAOS_INTERVALS
    ])
    baseline = run_shards(_capacity_point_worker, shards, jobs=1)
    retries_before = registry.counter("runner.retries").value
    failures_before = registry.counter("runner.failures").value
    injected = run_shards(
        _capacity_point_worker, shards, jobs=jobs,
        metrics=registry, trace=trace,
        faults=crash_plan, retries=retries, runtime=runtime,
    )
    runner_identical = injected == baseline
    act1_retries = registry.counter("runner.retries").value - retries_before

    # Act 2 — BER / delivery vs channel fault rate (runner chaos stays on,
    # demonstrating the layers compose).
    channel_shards = make_shards(seed, [
        {
            "config": probe.config,
            "machine_seed": probe.seed,
            "engine": engine,
            "seed": seed,
            "interval": 1500,
            "payload_bytes": payload_bytes,
            "fault_rate": rate,
            "plan": replace(
                base_plan,
                bit_flip_probability=rate,
                slot_slip_probability=rate / 4,
            ).to_dict(),
        }
        for rate in fault_rates
    ])
    rows = run_shards(
        _chaos_channel_worker, channel_shards, jobs=jobs,
        cache=result_cache, cache_tag="chaos_sweep/v1",
        metrics=registry, trace=trace,
        faults=crash_plan, retries=retries, store=store, runtime=runtime,
    )
    result = ChaosSweepResult(
        platform=probe.config.name,
        crash_probability=crash_probability,
        retries=retries,
        runner_identical=runner_identical,
        runner_retries=act1_retries,
        runner_failures=registry.counter("runner.failures").value - failures_before,
    )
    result.points.extend(
        ChaosPoint(**row) for row in rows if not is_error_record(row)
    )
    return result
