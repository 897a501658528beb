"""Search objectives: what a candidate *is* and how it gets scored.

An :class:`Objective` binds a :class:`~repro.search.space.SearchSpace` to
a shard worker: :meth:`Objective.params` turns one candidate plus a
fidelity rung into ordinary shard params, and
:meth:`Objective.evaluate_shards` runs the batch on the runner substrate.
Every result row carries a ``"score"`` key (higher is better) — the
driver requires it, and because the score is *in the stored row*, the
campaign store can re-render a search's convergence trajectory without
any driver state (see :func:`repro.analysis.reports.search_data`).

Three objectives ship:

* ``toy-cliff`` — a synthetic capacity cliff with seeded noise that
  shrinks with fidelity.  Cheap enough for tests, CI, and benchmarks to
  measure search efficiency against an exhaustive grid.
* ``capacity-cliff`` — localize the paper's Figure 8 operating cliff:
  the NTP+NTP transmission interval maximizing channel capacity, scored
  on the real simulator via the capacity sweep's warm-start plan.
  Fidelity = message length (short probes first, long confirms).
* ``detection-knee`` — locate the Section V-A3 usable-frequency knee:
  the shortest victim period an attack still detects reliably, scored as
  ``-(period) - penalty(FN > 10%)``.  Fidelity = observation duration.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import SKYLAKE, PlatformConfig
from ..errors import ReproError
from ..experiments.capacity_sweep import (
    _CAPACITY_PREFIX_KEYS,
    _capacity_body,
    _capacity_setup,
)
from ..experiments.detection_sweep import (
    _DETECTION_PREFIX_KEYS,
    _detection_body,
    _detection_setup,
)
from ..runner import Shard, WarmStartPlan, run_shards
from ..victims.noise import NoiseConfig
from .space import Candidate, IntDimension, SearchSpace


class Objective:
    """One searchable quantity: a space, a fidelity ladder, a scorer.

    ``fidelities`` ascend; the last rung is *full* fidelity — the one
    single-fidelity strategies (mutate, bandit) evaluate at, and the one
    successive halving promotes survivors to.
    """

    name: str = "objective"
    space: SearchSpace
    fidelities: Tuple[int, ...]

    @property
    def full_fidelity(self) -> int:
        return self.fidelities[-1]

    def params(self, candidate: Candidate, fidelity: int) -> Dict[str, Any]:
        """Shard params for one evaluation (pure in candidate + fidelity)."""
        raise NotImplementedError

    def evaluate_shards(self, shards: Sequence[Shard], ctx) -> List[Dict[str, Any]]:
        """Run one evaluation batch; rows must carry ``"score"``."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.name}: {self.space.describe()}"


# ---------------------------------------------------------------------------
# toy-cliff
# ---------------------------------------------------------------------------


def _toy_cliff_worker(shard: Shard) -> Dict[str, Any]:
    """Synthetic Figure 8 shape: score climbs linearly, falls off a cliff.

    The maximum sits exactly at the planted cliff.  Noise is seeded from
    the shard's content-derived seed and scales like ``1/sqrt(fidelity)``
    — the standard-error shape of averaging ``fidelity`` trials — so the
    ladder's cheap rungs are noisy estimates of the expensive ones.
    """
    p = shard.params
    x = p["interval"]
    base = x / 1000.0 if x <= p["cliff"] else x / 1000.0 - 1.0
    noise = random.Random(shard.seed).gauss(
        0.0, p["noise_scale"] / math.sqrt(p["fidelity"])
    )
    return {"interval": x, "fidelity": p["fidelity"], "score": base + noise}


class ToyCliffObjective(Objective):
    """Planted capacity cliff on a 1-D interval grid (tests, CI, benches)."""

    name = "toy-cliff"

    def __init__(
        self,
        lo: int = 0,
        hi: int = 400,
        step: int = 4,
        cliff: int = 256,
        noise_scale: float = 0.002,
        fidelities: Tuple[int, ...] = (1, 4, 16),
    ):
        if not (lo <= cliff <= hi) or (cliff - lo) % step:
            raise ReproError(
                f"planted cliff {cliff} must be a grid point of [{lo}, {hi}]/{step}"
            )
        self.space = SearchSpace.of(interval=IntDimension(lo, hi, step))
        self.fidelities = tuple(fidelities)
        self.cliff = cliff
        self.noise_scale = noise_scale

    def params(self, candidate: Candidate, fidelity: int) -> Dict[str, Any]:
        return {
            "objective": self.name,
            "interval": candidate["interval"],
            "cliff": self.cliff,
            "noise_scale": self.noise_scale,
            "fidelity": fidelity,
        }

    def evaluate_shards(self, shards: Sequence[Shard], ctx) -> List[Dict[str, Any]]:
        return run_shards(
            _toy_cliff_worker, shards, jobs=ctx.jobs,
            cache=ctx.cache, cache_tag="search/toy_cliff/v1",
            metrics=ctx.metrics, trace=ctx.trace,
            faults=ctx.faults, retries=ctx.retries,
            store=ctx.store, campaign=ctx.campaign,
            runtime=getattr(ctx, "runtime", None),
        )


# ---------------------------------------------------------------------------
# capacity-cliff
# ---------------------------------------------------------------------------


def _capacity_score_body(machine, chan, shard: Shard) -> Dict[str, Any]:
    """One Figure 8 point with the search's scalar verdict attached."""
    row = _capacity_body(machine, chan, shard)
    row["score"] = row["capacity_kb_per_s"]
    return row


_CAPACITY_SCORE_PLAN = WarmStartPlan(
    setup=_capacity_setup,
    body=_capacity_score_body,
    prefix_keys=_CAPACITY_PREFIX_KEYS,
)


class CapacityCliffObjective(Objective):
    """Find the NTP+NTP interval that maximizes channel capacity.

    The Figure 8 curve climbs as the interval shrinks (higher raw rate)
    until synchronization collapses and errors erase the capacity — a
    cliff.  The grid sweep samples 12 hand-picked intervals; this
    objective searches the full interval range at grid resolution
    ``step`` and lets the strategy spend evaluations near the cliff only.
    """

    name = "capacity-cliff"

    def __init__(
        self,
        config: PlatformConfig = SKYLAKE,
        channel: str = "ntp+ntp",
        lo: int = 1050,
        hi: int = 4200,
        step: int = 50,
        machine_seed: int = 0,
        channel_seed: int = 0,
        engine: Optional[str] = None,
        fidelities: Tuple[int, ...] = (24, 48, 96),
    ):
        self.space = SearchSpace.of(interval=IntDimension(lo, hi, step))
        self.fidelities = tuple(fidelities)
        self.config = config
        self.channel = channel
        self.machine_seed = machine_seed
        self.channel_seed = channel_seed
        self.engine = engine

    def params(self, candidate: Candidate, fidelity: int) -> Dict[str, Any]:
        return {
            "config": self.config,
            "machine_seed": self.machine_seed,
            "engine": self.engine,
            "channel": self.channel,
            "interval": candidate["interval"],
            "n_bits": fidelity,
            "seed": self.channel_seed,
            "noise": NoiseConfig(),
        }

    def evaluate_shards(self, shards: Sequence[Shard], ctx) -> List[Dict[str, Any]]:
        return run_shards(
            _CAPACITY_SCORE_PLAN, shards, jobs=ctx.jobs,
            cache=ctx.cache, cache_tag="search/capacity_cliff/v1",
            metrics=ctx.metrics, trace=ctx.trace,
            faults=ctx.faults, retries=ctx.retries,
            store=ctx.store, campaign=ctx.campaign,
            runtime=getattr(ctx, "runtime", None),
        )


# ---------------------------------------------------------------------------
# detection-knee
# ---------------------------------------------------------------------------


def _detection_score_body(machine, context, shard: Shard) -> Dict[str, Any]:
    """One (attack, period) point scored as a knee objective.

    Reward shorter periods linearly, but charge a steep penalty once the
    false-negative rate exceeds the 10% usability threshold — the maximum
    therefore sits at the shortest period the attack still handles, i.e.
    the ROC knee the detection sweep brackets by hand.
    """
    row = _detection_body(machine, context, shard)
    miss = max(0.0, row["false_negative_rate"] - 0.1)
    row["score"] = -(shard.params["period"] / 1000.0) - 100.0 * miss
    return row


_DETECTION_SCORE_PLAN = WarmStartPlan(
    setup=_detection_setup,
    body=_detection_score_body,
    prefix_keys=_DETECTION_PREFIX_KEYS,
)


class DetectionKneeObjective(Objective):
    """Find the shortest victim period an attack detects with FN <= 10%."""

    name = "detection-knee"

    def __init__(
        self,
        config: PlatformConfig = SKYLAKE,
        attack: str = "PrimeScope",
        lo: int = 900,
        hi: int = 4500,
        step: int = 100,
        machine_seed: int = 0,
        engine: Optional[str] = None,
        fidelities: Tuple[int, ...] = (60_000, 180_000, 420_000),
    ):
        self.space = SearchSpace.of(period=IntDimension(lo, hi, step))
        self.fidelities = tuple(fidelities)
        self.config = config
        self.attack = attack
        self.machine_seed = machine_seed
        self.engine = engine

    def params(self, candidate: Candidate, fidelity: int) -> Dict[str, Any]:
        return {
            "config": self.config,
            "machine_seed": self.machine_seed,
            "engine": self.engine,
            "attack": self.attack,
            "period": candidate["period"],
            "duration": fidelity,
        }

    def evaluate_shards(self, shards: Sequence[Shard], ctx) -> List[Dict[str, Any]]:
        return run_shards(
            _DETECTION_SCORE_PLAN, shards, jobs=ctx.jobs,
            cache=ctx.cache, cache_tag="search/detection_knee/v1",
            metrics=ctx.metrics, trace=ctx.trace,
            faults=ctx.faults, retries=ctx.retries,
            store=ctx.store, campaign=ctx.campaign,
            runtime=getattr(ctx, "runtime", None),
        )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

OBJECTIVES = ("toy-cliff", "capacity-cliff", "detection-knee")


def make_objective(
    name: str,
    config: PlatformConfig = SKYLAKE,
    engine: Optional[str] = None,
) -> Objective:
    """Build a stock objective by CLI name."""
    if name == "toy-cliff":
        return ToyCliffObjective()
    if name == "capacity-cliff":
        return CapacityCliffObjective(config=config, engine=engine)
    if name == "detection-knee":
        return DetectionKneeObjective(config=config, engine=engine)
    raise ReproError(
        f"unknown search objective {name!r} (choose from {', '.join(OBJECTIVES)})"
    )
