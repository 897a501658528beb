"""Calibration sensitivity: do the paper's conclusions survive knob error?

The simulator's latency and synchronisation constants are *calibrated*, not
measured (DESIGN.md).  A reproduction is only credible if its qualitative
conclusions do not hinge on those exact values, so this experiment perturbs
the most influential knob — the per-iteration synchronisation budget — and
re-measures both channels' capacities.  The absolute peaks move (as they
would across CPU generations), but the paper's headline, NTP+NTP beating
Prime+Probe by ~3x, must hold everywhere in the perturbation range.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..attacks.ntp_ntp import NTPNTPChannel
from ..attacks.prime_probe import PrimeProbeChannel
from ..config import PlatformConfig, SyncProfile
from ..errors import ReproError
from ..faults import FaultPlan
from ..runner import (
    ResultCache,
    Shard,
    WarmStartPlan,
    is_error_record,
    make_shards,
    run_shards,
)
from ..engine import resolve_backend
from ..sim.machine import Machine

DEFAULT_SCALES = (0.8, 1.0, 1.2)


@dataclass(frozen=True)
class SensitivityPoint:
    sync_scale: float
    ntp_capacity: float
    prime_probe_capacity: float

    @property
    def advantage(self) -> float:
        if self.prime_probe_capacity == 0:
            return float("inf")
        return self.ntp_capacity / self.prime_probe_capacity


@dataclass
class SensitivityResult:
    points: List[SensitivityPoint] = field(default_factory=list)

    def advantage_range(self) -> tuple:
        advantages = [p.advantage for p in self.points]
        return min(advantages), max(advantages)


def _peak_capacity(machine: Machine, channel, intervals, bits) -> float:
    best = 0.0
    for interval in intervals:
        outcome = channel.transmit(bits, interval)
        best = max(best, outcome.capacity_kb_per_s)
    return best


def _sensitivity_setup(prefix: dict) -> tuple:
    """Shared trial prefix: scaled config, machine, channel, interval grid."""
    config: PlatformConfig = prefix["config"]
    seed = prefix["seed"]
    sync = SyncProfile(
        overhead_cycles=int(config.sync.overhead_cycles * prefix["scale"]),
        jitter_sigma=config.sync.jitter_sigma,
    )
    scaled = dataclasses.replace(config, sync=sync)
    base = int(sync.overhead_cycles)
    machine = Machine(scaled, seed=seed, backend=prefix.get("engine"))
    if prefix["channel"] == "ntp":
        channel = NTPNTPChannel(machine, seed=seed)
        intervals = [base + 170, base + 240, base + 340, base + 500]
    else:
        channel = PrimeProbeChannel(machine, seed=seed)
        intervals = [base + 7600, base + 8800, base + 10400]
    return machine, (channel, intervals)


def _sensitivity_body(machine: Machine, context, shard: Shard) -> dict:
    """One peak measurement on a prepared (cold or restored) machine.

    The intervals run *sequentially on one machine* — that cumulative
    behaviour is this experiment's design, so the body keeps the whole
    interval loop and the warm layer only elides the setup.
    """
    p = shard.params
    channel, intervals = context
    channel.reseed(p["seed"])
    rng = random.Random(p["seed"])
    bits = [rng.randint(0, 1) for _ in range(p["n_bits"])]
    peak = _peak_capacity(machine, channel, intervals, bits)
    return {"scale": p["scale"], "channel": p["channel"], "peak": peak}


_SENSITIVITY_PREFIX_KEYS = ("config", "scale", "channel", "seed", "engine")

_SENSITIVITY_PLAN = WarmStartPlan(
    setup=_sensitivity_setup, body=_sensitivity_body,
    prefix_keys=_SENSITIVITY_PREFIX_KEYS,
)


def _sensitivity_point_worker(shard: Shard) -> dict:
    """One (scale, channel) peak measurement, rebuilt from the shard."""
    p = shard.params
    machine, context = _sensitivity_setup(
        {key: p[key] for key in _SENSITIVITY_PREFIX_KEYS}
    )
    return _sensitivity_body(machine, context, shard)


def run_sensitivity_experiment(
    config: PlatformConfig,
    scales: Sequence[float] = DEFAULT_SCALES,
    n_bits: int = 128,
    seed: int = 0,
    jobs: int = 1,
    result_cache: Optional[ResultCache] = None,
    metrics=None,
    trace=None,
    faults: Optional[FaultPlan] = None,
    retries: int = 0,
    warm_start: bool = True,
    engine: Optional[str] = None,
    store=None,
    campaign: Optional[str] = None,
    runtime=None,
) -> SensitivityResult:
    """Scale the sync budget and re-measure both channels' peaks.

    Each (scale, channel) measurement is an independent shard; ``jobs > 1``
    fans them out to worker processes with bit-identical results.
    ``faults``/``retries`` engage the runner's fault-injection and retry
    layer; a scale whose ntp or pp shard exhausts its retries is dropped
    as a *pair* (the rows are consumed positionally).  Every (scale,
    channel) pair is its own prefix here, so ``warm_start`` mainly buys
    retries and repeat runs; it is kept on for uniformity with the other
    sweeps (cold and warm are bit-identical either way).
    """
    if not scales:
        raise ReproError("need at least one scale factor")
    engine = resolve_backend(engine)
    shards = make_shards(seed, [
        {"config": config, "scale": scale, "channel": channel,
         "n_bits": n_bits, "seed": seed, "engine": engine}
        for scale in scales
        for channel in ("ntp", "pp")
    ])
    rows = run_shards(
        _SENSITIVITY_PLAN if warm_start else _sensitivity_point_worker,
        shards, jobs=jobs,
        cache=result_cache, cache_tag="sensitivity/v1",
        metrics=metrics, trace=trace, faults=faults, retries=retries,
        store=store, campaign=campaign, runtime=runtime,
    )
    result = SensitivityResult()
    for ntp_row, pp_row in zip(rows[0::2], rows[1::2]):
        if is_error_record(ntp_row) or is_error_record(pp_row):
            # Rows pair up positionally; a failed half invalidates the pair.
            continue
        result.points.append(
            SensitivityPoint(
                sync_scale=ntp_row["scale"],
                ntp_capacity=ntp_row["peak"],
                prime_probe_capacity=pp_row["peak"],
            )
        )
    return result
