"""Channel-capacity sweeps (paper Figure 8 and Table II).

Sweeps the transmission interval (hence the raw rate) for NTP+NTP and
Prime+Probe, measuring bit error rate and channel capacity at each point —
the paper's Figure 8 curves — and reports each channel's peak capacity,
the paper's Table II.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..attacks.ntp_ntp import NTPNTPChannel
from ..attacks.prime_probe import PrimeProbeChannel
from ..errors import ChannelError
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
from ..victims.noise import NoiseConfig

#: Interval grids roughly spanning the paper's 0-400 KB/s raw-rate axis.
NTP_NTP_INTERVALS = (
    4200, 2800, 2100, 1900, 1800, 1700, 1550, 1450, 1400, 1340, 1250, 1050
)
PRIME_PROBE_INTERVALS = (
    42000, 28000, 21000, 17000, 14000, 12000, 10500, 9800, 9200, 8600,
    8000, 7400, 6800, 6200,
)


@dataclass(frozen=True)
class CapacityPoint:
    """One point of a Figure 8 curve."""

    interval: int
    raw_rate_kb_per_s: float
    bit_error_rate: float
    capacity_kb_per_s: float


@dataclass
class CapacitySweepResult:
    """One channel's sweep on one platform."""

    channel: str
    platform: str
    points: List[CapacityPoint] = field(default_factory=list)

    @property
    def peak(self) -> CapacityPoint:
        """The Table II number: the sweep's best operating point."""
        if not self.points:
            raise ChannelError("sweep produced no points")
        return max(self.points, key=lambda p: p.capacity_kb_per_s)

    def rows(self) -> List[tuple]:
        return [
            (
                p.interval,
                f"{p.raw_rate_kb_per_s:.0f}",
                f"{p.bit_error_rate * 100:.2f}%",
                f"{p.capacity_kb_per_s:.0f}",
            )
            for p in self.points
        ]


def _message(n_bits: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(n_bits)]


def _capacity_setup(prefix: dict) -> tuple:
    """Shared trial prefix: machine build + channel construction/calibration."""
    machine = Machine(
        prefix["config"], seed=prefix["machine_seed"],
        backend=prefix.get("engine"),
    )
    if prefix["channel"] == "ntp+ntp":
        chan = NTPNTPChannel(machine, seed=prefix["seed"])
    else:
        chan = PrimeProbeChannel(machine, seed=prefix["seed"])
    return machine, chan


def _capacity_body(machine: Machine, chan, shard: Shard) -> dict:
    """One Figure 8 point on a prepared (cold or restored) machine."""
    p = shard.params
    chan.reseed(p["seed"])
    bits = _message(p["n_bits"], p["seed"])
    outcome = chan.transmit(bits, p["interval"], noise=p["noise"])
    return {
        "interval": p["interval"],
        "raw_rate_kb_per_s": outcome.raw_rate_kb_per_s,
        "bit_error_rate": outcome.bit_error_rate,
        "capacity_kb_per_s": outcome.capacity_kb_per_s,
    }


#: Shards agreeing on these params share one machine+channel prefix; only
#: the interval varies across a sweep, so a whole curve shares one build.
_CAPACITY_PREFIX_KEYS = ("config", "machine_seed", "channel", "seed", "engine")

_CAPACITY_PLAN = WarmStartPlan(
    setup=_capacity_setup, body=_capacity_body, prefix_keys=_CAPACITY_PREFIX_KEYS
)


def _capacity_point_worker(shard: Shard) -> dict:
    """One Figure 8 point, rebuilt entirely from the shard (picklable).

    The cold path is exactly setup + body on a fresh machine; the warm path
    is setup once + checkpoint/restore + body per trial.  ``reseed`` on a
    freshly built channel is an identity operation, which is what makes the
    two paths structurally equivalent.
    """
    p = shard.params
    machine, chan = _capacity_setup(
        {key: p[key] for key in _CAPACITY_PREFIX_KEYS}
    )
    return _capacity_body(machine, chan, shard)


def run_capacity_sweep(
    machine_factory,
    channel: str,
    intervals: Optional[Sequence[int]] = None,
    n_bits: int = 256,
    noise: Optional[NoiseConfig] = None,
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
) -> CapacitySweepResult:
    """Sweep one channel on one platform.

    ``machine_factory`` builds a fresh machine per interval (e.g.
    ``lambda: Machine.skylake(seed=7)``) so sweep points are independent.
    The factory must be equivalent to ``Machine(config, seed)`` — each point
    runs as a shard that rebuilds the machine from those two values, serially
    or on ``jobs`` worker processes with bit-identical results.

    ``faults``/``retries`` engage the runner's fault-injection and retry
    layer; a point whose shard exhausts its retries is dropped from the
    curve (visible in ``runner.failures``) rather than aborting the sweep.

    ``engine`` selects the trace-execution backend for every shard machine
    (``object`` or ``soa``; default: the probe machine's preference, which
    itself honours ``REPRO_ENGINE``) and is part of each shard's cache and
    warm-start identity.

    With ``warm_start`` (the default) the machine+channel prefix shared by
    every interval is built once and checkpointed, and each point restores
    it instead of rebuilding — bit-identical to the cold path at any
    ``jobs`` value (see :mod:`repro.runner.warmstart`).

    ``store``/``campaign`` record the run in a campaign store (default:
    the process default / ``$REPRO_STORE``); the campaign name carries the
    channel and platform (``capacity_sweep/ntp+ntp/Core i7-6700``) so the
    regression reporter always diffs like-for-like curves.
    """
    if channel not in ("ntp+ntp", "prime+probe"):
        raise ChannelError(f"unknown channel {channel!r}")
    if noise is None:
        noise = NoiseConfig()
    if intervals is None:
        intervals = NTP_NTP_INTERVALS if channel == "ntp+ntp" else PRIME_PROBE_INTERVALS
    probe: Machine = machine_factory()
    engine = resolve_backend(engine) if engine is not None else probe.backend
    shards = make_shards(seed, [
        {
            "config": probe.config,
            "machine_seed": probe.seed,
            "engine": engine,
            "channel": channel,
            "interval": interval,
            "n_bits": n_bits,
            "seed": seed,
            "noise": noise,
        }
        for interval in intervals
    ])
    if campaign is None:
        campaign = f"capacity_sweep/{channel}/{probe.config.name}"
    rows = run_shards(
        _CAPACITY_PLAN if warm_start else _capacity_point_worker,
        shards, jobs=jobs,
        cache=result_cache, cache_tag="capacity_sweep/v1",
        metrics=metrics, trace=trace, faults=faults, retries=retries,
        store=store, campaign=campaign, runtime=runtime,
    )
    result = CapacitySweepResult(channel=channel, platform=probe.config.name)
    result.points.extend(
        CapacityPoint(**row) for row in rows if not is_error_record(row)
    )
    return result
