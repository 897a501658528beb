"""The benchmark's four workloads, driven through the public experiment APIs.

Each workload is one closed-loop iteration repeated for the run's length:
the next iteration starts when the previous one has returned, on fresh
result-cache and campaign-store files (``fig2_replay`` keeps the cache its
set-up filled).  Engine, runtime and store are passed explicitly, so no
process default or environment variable picks them.

Why these four: ``table2`` is the paper's headline result and loads the
scheduler and object cache hierarchy; ``fig2_batch`` is the trial-batched
engine's canonical sweep and loads the engine plus the runner's keying,
cache writes and store ingest; ``fig2_replay`` runs the same sweep fully
cache-served, so it loads keying, cache reads and ingest with no engine
work; ``search_jobs2`` is the only workload whose shards cross processes,
so it alone loads the persistent runtime's dispatch and shared memory.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.config import KABY_LAKE, SKYLAKE
from repro.experiments.capacity_sweep import (
    NTP_NTP_INTERVALS,
    PRIME_PROBE_INTERVALS,
    run_capacity_sweep,
)
from repro.experiments.insertion_sweep import run_insertion_sweep
from repro.obs import MetricsRegistry
from repro.runner import FRESH, ResultCache, Runtime, clear_warm_states
from repro.search import CapacityCliffObjective, EvalContext, make_driver
from repro.sim.machine import Machine
from repro.store import CampaignStore

PLATFORMS = (SKYLAKE, KABY_LAKE)
CHANNELS = ("ntp+ntp", "prime+probe")
INTERVALS = {"ntp+ntp": NTP_NTP_INTERVALS, "prime+probe": PRIME_PROBE_INTERVALS}


@dataclass(frozen=True)
class Sizes:
    """How much work one iteration of each workload does."""

    #: Message length of every Table II point.
    n_bits: int = 256
    #: Leading points of each channel's interval grid (None: the whole grid).
    capacity_points: Optional[int] = None
    fig2_positions: int = 16
    fig2_trials: int = 512
    searches: int = 8
    search_budget: int = 48
    #: The capacity-cliff objective's fidelity ladder (message lengths).
    search_fidelities: tuple = (24, 48, 96)
    search_jobs: int = 2


#: The sizes the benchmark runs at.
FULL = Sizes()
#: A few-second profile for the benchmark's own tests.
TINY = Sizes(
    n_bits=16, capacity_points=2, fig2_positions=4, fig2_trials=8,
    searches=2, search_budget=4, search_fidelities=(16,),
)
PROFILES = {"full": FULL, "tiny": TINY}


@dataclass
class Outcome:
    """What one iteration produced: checkable outputs and shard counts."""

    outputs: Dict[str, Any]
    shards: int
    error_shards: int


class Scratch:
    """One iteration's private result cache and campaign store."""

    def __init__(self, root: Path, cache_root: Optional[Path] = None):
        self.root = root
        self.cache = ResultCache(cache_root if cache_root is not None else root / "cache")
        self.store = CampaignStore(root / "campaigns.sqlite")
        self.registry = MetricsRegistry()

    def close(self) -> None:
        self.store.close()

    def fingerprint(self, campaign: str) -> str:
        return self.store.runs(campaign)[-1].fingerprint


def _machine_factory(config, seed: int, engine: str):
    return lambda: Machine(config, seed=seed, backend=engine)


class Workload:
    """One named workload: a repeatable set-up and a timed iteration."""

    name = ""
    #: Result-cache directory shared by every iteration (None: fresh each).
    cache_root: Optional[Path] = None
    #: Peak resident bytes of worker processes the last iteration used.
    worker_rss = 0

    def __init__(self, sizes: Sizes, slot: int, workdir: Path):
        self.sizes = sizes
        self.slot = slot
        self.workdir = workdir

    def scratch(self) -> Scratch:
        """Fresh store and registry; a fresh cache unless ``cache_root`` is set."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))
        return Scratch(root, self.cache_root)

    def setup(self) -> None:
        """Everything an iteration needs that a user pays for once."""
        for config in PLATFORMS:
            Machine(config, seed=self.slot)

    def discard_setup(self) -> None:
        """Drop what an earlier :meth:`setup` left on disk (untimed)."""

    def iterate(self, scratch: Scratch) -> Outcome:
        raise NotImplementedError


class Table2(Workload):
    name = "table2"

    def iterate(self, scratch: Scratch) -> Outcome:
        outputs: Dict[str, Any] = {}
        shards = 0
        for config in PLATFORMS:
            for channel in CHANNELS:
                intervals = INTERVALS[channel][: self.sizes.capacity_points]
                sweep = run_capacity_sweep(
                    _machine_factory(config, self.slot, "object"), channel,
                    intervals=intervals, n_bits=self.sizes.n_bits, seed=self.slot,
                    jobs=1, result_cache=scratch.cache, metrics=scratch.registry,
                    warm_start=True, engine="object", store=scratch.store,
                    runtime=FRESH,
                )
                peak = sweep.peak
                outputs[f"{channel}/{config.name}"] = {
                    "peak": [peak.interval, peak.bit_error_rate, peak.capacity_kb_per_s],
                    "fingerprint": scratch.fingerprint(
                        f"capacity_sweep/{channel}/{config.name}"
                    ),
                }
                shards += len(intervals)
        errors = scratch.registry.counter("runner.failures").value
        return Outcome(outputs, shards, errors)


class Fig2Batch(Workload):
    name = "fig2_batch"

    def setup(self) -> None:
        Machine(SKYLAKE, seed=self.slot, backend="batch")

    def sweep(self, scratch: Scratch) -> Outcome:
        sizes = self.sizes
        sweep = run_insertion_sweep(
            _machine_factory(SKYLAKE, self.slot, "batch"),
            positions=range(sizes.fig2_positions), trials=sizes.fig2_trials,
            seed=self.slot, jobs=1, result_cache=scratch.cache,
            metrics=scratch.registry, engine="batch", store=scratch.store,
            runtime=FRESH,
        )
        outputs = {
            "always_evicted": sweep.always_evicted,
            "fingerprint": scratch.fingerprint(f"insertion_sweep/{SKYLAKE.name}"),
        }
        return Outcome(outputs, sizes.fig2_positions * sizes.fig2_trials, sweep.failures)

    iterate = sweep


class Fig2Replay(Fig2Batch):
    name = "fig2_replay"

    #: The scratch directory whose cache the iterations replay.
    filled: Optional[Path] = None

    def setup(self) -> None:
        super().setup()
        clear_warm_states()
        self.cache_root = None
        fill = self.scratch()
        try:
            self.sweep(fill)
        finally:
            fill.close()
        self.filled = fill.root
        self.cache_root = fill.cache.root

    def discard_setup(self) -> None:
        # Removed while young, before the kernel writes the fill back.
        if self.filled is not None:
            shutil.rmtree(self.filled, ignore_errors=True)
            self.filled = None

    def iterate(self, scratch: Scratch) -> Outcome:
        outcome = self.sweep(scratch)
        registry = scratch.registry
        outcome.outputs["all_cached"] = (
            registry.counter("runner.shards.computed").value == 0
            and registry.counter("runner.shards.cached").value == outcome.shards
        )
        return outcome


class SearchJobs2(Workload):
    name = "search_jobs2"

    def setup(self) -> None:
        super().setup()
        self.objective = CapacityCliffObjective(
            config=SKYLAKE, engine="object",
            fidelities=self.sizes.search_fidelities,
        )

    def iterate(self, scratch: Scratch) -> Outcome:
        sizes = self.sizes
        fingerprints: List[str] = []
        shards = 0
        # One runtime serves all searches of an iteration, as one would in
        # a user's session; its workers spawn inside the timed phase.
        runtime = Runtime(name="perfbench")
        try:
            for i in range(sizes.searches):
                ctx = EvalContext(
                    seed=self.slot * 1000 + i, jobs=sizes.search_jobs,
                    cache=scratch.cache, metrics=scratch.registry,
                    store=scratch.store, runtime=runtime,
                )
                outcome = make_driver("mutate", self.objective, sizes.search_budget).run(ctx)
                fingerprints.append(outcome.fingerprint)
                shards += outcome.evaluations_used
            self.worker_rss = sum(_peak_rss_bytes(pid) for pid in runtime.worker_pids())
        finally:
            runtime.close()
        errors = scratch.registry.counter("runner.failures").value
        return Outcome({"fingerprints": fingerprints}, shards, errors)


def _peak_rss_bytes(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


WORKLOADS = {w.name: w for w in (Table2, Fig2Batch, Fig2Replay, SearchJobs2)}

#: Number of distinct input sets with pinned golden outputs.
GOLDEN_SLOTS = 16


def slot_of(seed: int) -> int:
    """The pinned input set ``--seed`` selects (see ``golden.json``)."""
    return seed % GOLDEN_SLOTS
