"""Machine assembly: config + hierarchy + timing + cores + physical memory."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy, Level, MemOpResult
from ..cache.replacement import ReplacementPolicy
from ..config import PlatformConfig, SKYLAKE, KABY_LAKE
from ..cpu.core import Core
from ..cpu.timing import TimingModel
from ..engine import CompiledTrace, OP_NAMES, compile_trace, resolve_backend
from ..engine import batch as _batch
from ..engine import soa as _soa
from ..errors import ConfigurationError, SimulationError
from ..faults import FaultPlan, TracePollution
from ..mem.allocator import AddressSpace, PageAllocator
from ..mem.layout import CacheSetMapping
from ..obs import MetricsRegistry, NULL_REGISTRY

#: One batched memory operation: (op name, core id, byte address).
TraceOp = Tuple[str, int, int]

_DRAM = Level.DRAM
_LLC = Level.LLC


@dataclass(frozen=True)
class MachineCheckpoint:
    """Compact snapshot of a :class:`Machine`'s mutable simulation state.

    Everything is flat tuples of primitives — no shared references into the
    machine — so one checkpoint can be restored any number of times and a
    restored machine is bit-identical to a cold machine that replayed the
    same prefix.  ``rng_state`` covers the timing model and the page
    allocator too: both draw from the machine's single ``rng``.  Metrics
    registries are deliberately *not* captured — they are observability,
    not simulation state, and restoring must not rewind counters the
    caller is accumulating across trials.
    """

    config_name: str
    seed: int
    clock: int
    rng_state: tuple
    cores: Tuple[Tuple[int, int, int, int], ...]
    allocator: tuple
    hierarchy: tuple
    pollution: Optional[tuple]

    def _material(self) -> bytes:
        # repr of nested tuples of ints/bools/None is deterministic across
        # processes (no hash-order containers anywhere in the state).
        return repr(
            (
                self.config_name,
                self.seed,
                self.clock,
                self.rng_state,
                self.cores,
                self.allocator,
                self.hierarchy,
                self.pollution,
            )
        ).encode()

    def digest(self) -> str:
        """Stable content hash, suitable for result-cache keys."""
        return hashlib.sha256(self._material()).hexdigest()

    @property
    def approx_bytes(self) -> int:
        """Serialized-size estimate, for the checkpoint byte metrics."""
        return len(self._material())


class Machine:
    """A simulated multi-core machine.

    The usual entry point of the library::

        machine = Machine.skylake(seed=1)
        attacker = machine.cores[0]
        space = machine.address_space("attacker")

    ``clock`` is the sequential-execution clock used when cores run without
    the discrete-event scheduler (single-threaded experiments).
    """

    def __init__(
        self,
        config: PlatformConfig,
        seed: int = 0,
        llc_policy_factory: Optional[Callable[[int], ReplacementPolicy]] = None,
        llc_mapping: Optional[CacheSetMapping] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultPlan] = None,
        backend: Optional[str] = None,
    ):
        self.config = config
        #: Trace-execution backend preference for :meth:`run_trace`
        #: (``object``, ``soa``, or ``batch``); ``None`` reads the
        #: ``REPRO_ENGINE`` environment variable.  It selects the
        #: ``run_trace`` engine only: scheduled programs
        #: (:class:`~repro.sim.scheduler.Scheduler`) run on the SoA planes
        #: whenever the policies are supported, whatever this is.  A
        #: machine-level preference of ``soa`` or ``batch`` silently falls
        #: back to the object engine when the machine's policies are
        #: unsupported; the per-call ``backend=`` argument of
        #: :meth:`run_trace` is strict instead.
        self.backend = resolve_backend(backend)
        #: Cached metric-counter handles for batch flushing (built lazily;
        #: the registry is fixed at construction, so handles never go stale).
        self._engine_counters = None
        #: Metrics sink for batch execution; the default null sink keeps the
        #: hot path at a single boolean check per operation (the <5% gate in
        #: ``benchmarks/test_engine_throughput.py`` covers the enabled case).
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: Root seed this machine was built with (sweep shards rebuild an
        #: identical machine from ``(config, seed)`` in worker processes).
        self.seed = seed
        self.rng = random.Random(seed)
        self.hierarchy = CacheHierarchy(
            config, llc_policy_factory=llc_policy_factory, llc_mapping=llc_mapping
        )
        self.timing = TimingModel(config.latency, config.noise, self.rng)
        self.cores: List[Core] = [Core(self, c) for c in range(config.cores)]
        self.allocator = PageAllocator(self.rng)
        self.clock = 0
        #: Deterministic cache-pollution injection for :meth:`run_trace`
        #: (``faults`` with ``pollution_probability > 0``); ``None`` — the
        #: default — keeps the batch path entirely fault-free.
        self.faults = faults
        self.pollution: Optional[TracePollution] = None
        if faults is not None and faults.injects_cache_faults:
            self.pollution = TracePollution(faults, seed, core=config.cores - 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def skylake(cls, seed: int = 0, **kwargs) -> "Machine":
        """The paper's Core i7-6700 test machine."""
        return cls(SKYLAKE, seed=seed, **kwargs)

    @classmethod
    def kaby_lake(cls, seed: int = 0, **kwargs) -> "Machine":
        """The paper's Core i7-7700K test machine."""
        return cls(KABY_LAKE, seed=seed, **kwargs)

    # -- memory ------------------------------------------------------------

    def address_space(self, name: str = "proc") -> AddressSpace:
        """A fresh process address space on this machine's physical memory."""
        return AddressSpace(self.allocator, name=name)

    def llc_eviction_set(
        self, space: AddressSpace, target: int, size: Optional[int] = None
    ) -> List[int]:
        """Ground-truth eviction set for ``target`` drawn from ``space``.

        The paper's threat model assumes both parties can construct eviction
        sets (Section IV-A), so channel experiments use this shortcut; the
        honest search lives in :mod:`repro.attacks.evset`.
        """
        if size is None:
            size = self.config.llc.ways + 1
        return space.congruent_lines(self.hierarchy.llc_mapping, target, size)

    def private_eviction_lines(
        self, space: AddressSpace, target: int, size: Optional[int] = None
    ) -> List[int]:
        """Lines that conflict with ``target`` in L1/L2 but not in the LLC.

        Used by the Section III experiments to evict a line from the private
        caches while leaving its LLC state untouched (Figure 4, Step 1).
        """
        if size is None:
            size = self.config.l1.ways + self.config.l2.ways + 1
        l1_map = self.hierarchy.l1_mapping
        l2_map = self.hierarchy.l2_mapping
        llc_map = self.hierarchy.llc_mapping
        found: List[int] = []
        for line in space.candidate_lines(offset=target % 4096 // 64 * 64):
            if line == target:
                continue
            if (
                l1_map.congruent(line, target)
                and l2_map.congruent(line, target)
                and not llc_map.congruent(line, target)
            ):
                found.append(line)
                if len(found) == size:
                    return found
        raise ConfigurationError(
            f"exhausted candidate lines searching for {size} private-conflict "
            f"lines for target {target:#x} (found {len(found)}): need lines "
            "congruent in L1 and L2 but not the LLC — the configured "
            "geometries may make that set empty"
        )

    # -- batch execution -----------------------------------------------------

    def _batch_counters(self) -> dict:
        """Metric-counter handles used by batch flushing, fetched once.

        Instrument handles are resolved through name formatting and a
        registry dict lookup; caching them per machine keeps enabled-metrics
        batches at one attribute read per flushed counter instead of
        re-resolving every name on every batch.
        """
        handles = self._engine_counters
        if handles is None:
            counter = self.metrics.counter
            handles = self._engine_counters = {
                "ops": {name: counter(f"engine.ops.{name}") for name in OP_NAMES},
                "served": {
                    name: counter(f"engine.served.{name}")
                    for name in ("L1", "L2", "LLC", "DRAM")
                },
                "pollution": counter("engine.faults.pollution"),
            }
        return handles

    def _run_trace_soa(self, ops, record: bool) -> "List[MemOpResult] | int":
        """The ``soa`` backend of :meth:`run_trace` (see there)."""
        pollution = self.pollution
        injected_before = pollution.injected if pollution is not None else 0
        if isinstance(ops, CompiledTrace) and pollution is None:
            compiled = ops
        else:
            # Pollution draws one RNG decision per original op, so the
            # polluted stream must be materialised into a fresh compile;
            # feeding a pre-compiled trace back through ``ops()`` keeps the
            # draw sequence identical to the object engine's.
            source = ops.ops() if isinstance(ops, CompiledTrace) else ops
            if pollution is not None:
                source = pollution.wrap(source)
            compiled = compile_trace(self, source)
        observe = self.metrics.enabled
        hierarchy = self.hierarchy
        if observe:
            l1_hits0 = sum(l.stats.hits for l in hierarchy.l1s)
            l2_hits0 = sum(l.stats.hits for l in hierarchy.l2s)
            llc_hits0 = hierarchy.llc.stats.hits
            llc_misses0 = hierarchy.llc.stats.misses
        results = _soa.execute(self, compiled, record)
        if observe:
            handles = self._batch_counters()
            op_handles = handles["ops"]
            for name, n in zip(OP_NAMES, compiled.op_counts):
                if n:
                    op_handles[name].inc(n)
            served_handles = handles["served"]
            served = (
                ("L1", sum(l.stats.hits for l in hierarchy.l1s) - l1_hits0),
                ("L2", sum(l.stats.hits for l in hierarchy.l2s) - l2_hits0),
                ("LLC", hierarchy.llc.stats.hits - llc_hits0),
                ("DRAM", hierarchy.llc.stats.misses - llc_misses0),
            )
            for name, n in served:
                if n:
                    served_handles[name].inc(n)
            if pollution is not None and pollution.injected != injected_before:
                handles["pollution"].inc(pollution.injected - injected_before)
        return results if record else len(compiled)

    def _run_trace_batch(self, ops, record: bool) -> "List[MemOpResult] | int":
        """The ``batch`` backend of :meth:`run_trace`: a one-trial batch.

        Exists so ``REPRO_ENGINE=batch`` exercises the trial-batched
        engine (:mod:`repro.engine.batch`) across the whole test suite;
        multi-trial execution goes through
        :func:`repro.engine.run_trace_batch` directly.
        """
        result = _batch.run_trace_batch(self, [ops], record=record)
        result.apply(0)
        return result.results(0) if record else result.length(0)

    def run_trace(
        self,
        ops: "Iterable[TraceOp] | CompiledTrace",
        record: bool = False,
        backend: Optional[str] = None,
    ) -> "List[MemOpResult] | int":
        """Execute a batch of memory operations on the sequential clock.

        ``ops`` yields ``(op, core, addr)`` tuples with ``op`` one of
        ``load``, ``prefetchnta``, ``prefetcht0``, ``prefetcht1``,
        ``prefetcht2``, or ``clflush`` — or a pre-compiled
        :class:`~repro.engine.CompiledTrace`, which either backend replays
        without re-resolving addresses.  Counters, statistics, and the
        clock advance exactly as if each operation had been issued through
        ``machine.cores[core]`` individually; the batch form exists so
        experiments replaying long traces pay one Python call per *batch*
        instead of several per *operation*.

        ``backend`` selects the execution engine for this call (``object``,
        ``soa``, or ``batch``); the default is the machine's
        :attr:`backend` preference.  The ``soa`` engine
        (:mod:`repro.engine.soa`) executes the batch over flat
        struct-of-arrays planes with bit-identical results; ``batch``
        (:mod:`repro.engine.batch`) runs the trace as a one-trial batch of
        the trial-batched engine, again bit-identical.  An explicit
        ``backend="soa"`` / ``backend="batch"`` raises
        :class:`SimulationError` when the machine's policies are
        unsupported, while the machine-level preference falls back to the
        object engine.  Both compiled paths validate the whole trace at
        compile time, so a bad op raises *before* any state changes; the
        object path raises mid-batch after executing the valid prefix.

        Returns the per-op :class:`MemOpResult` list when ``record`` is
        true, else the number of operations executed (recording a
        multi-million-op trace would hold every result alive for no
        reason).

        With a fault plan carrying ``pollution_probability``, random
        interfering fills are interleaved into the batch (see
        :class:`repro.faults.TracePollution`); the injected loads execute —
        and are counted — like any other op.
        """
        engine = self.backend if backend is None else resolve_backend(backend)
        if engine == "soa":
            if _soa.supports(self):
                return self._run_trace_soa(ops, record)
            if backend is not None:
                raise SimulationError(
                    "backend='soa' requested but this machine's replacement "
                    "policies are not supported by the SoA engine"
                )
        elif engine == "batch":
            if _soa.supports(self):
                return self._run_trace_batch(ops, record)
            if backend is not None:
                raise SimulationError(
                    "backend='batch' requested but this machine's replacement "
                    "policies are not supported by the batch engine"
                )
        if isinstance(ops, CompiledTrace):
            ops = ops.ops()
        hierarchy = self.hierarchy
        cores = self.cores
        dispatch = {
            "load": hierarchy.load,
            "prefetchnta": hierarchy.prefetchnta,
            "prefetcht0": hierarchy.prefetcht0,
            "prefetcht1": hierarchy.prefetcht1,
            "prefetcht2": hierarchy.prefetcht1,
            "clflush": None,  # flush has its own accounting below
        }
        results: List[MemOpResult] = []
        clock = self.clock
        count = 0
        # Per-batch accumulation keeps instrumentation off the per-op path:
        # enabled runs pay one pre-seeded local-dict bump per op and flush
        # once at the end; served-by-level counts come from LevelStats
        # deltas around the batch, at zero per-op cost.  The default null
        # sink pays only this boolean.
        observe = self.metrics.enabled
        pollution = self.pollution
        injected_before = pollution.injected if pollution is not None else 0
        if pollution is not None:
            ops = pollution.wrap(ops)
        op_counts = dict.fromkeys(dispatch, 0)
        if observe:
            l1_hits0 = sum(l.stats.hits for l in hierarchy.l1s)
            l2_hits0 = sum(l.stats.hits for l in hierarchy.l2s)
            llc_hits0 = hierarchy.llc.stats.hits
            llc_misses0 = hierarchy.llc.stats.misses
        for op, core_id, addr in ops:
            try:
                handler = dispatch[op]
            except KeyError:
                self.clock = clock
                raise SimulationError(f"unknown trace op {op!r}") from None
            core = cores[core_id]
            if handler is None:
                result = hierarchy.clflush(addr, clock)
                core.flushes += 1
            else:
                result = handler(core_id, addr, clock)
                core.memory_references += 1
                level = result.level
                if level is _DRAM:
                    core.llc_references += 1
                    core.llc_misses += 1
                elif level is _LLC:
                    core.llc_references += 1
            if observe:
                op_counts[op] += 1
            clock += result.latency
            count += 1
            if record:
                results.append(result)
        self.clock = clock
        if observe:
            handles = self._batch_counters()
            op_handles = handles["ops"]
            for op, n in op_counts.items():
                if n:
                    op_handles[op].inc(n)
            served_handles = handles["served"]
            served = (
                ("L1", sum(l.stats.hits for l in hierarchy.l1s) - l1_hits0),
                ("L2", sum(l.stats.hits for l in hierarchy.l2s) - l2_hits0),
                ("LLC", hierarchy.llc.stats.hits - llc_hits0),
                ("DRAM", hierarchy.llc.stats.misses - llc_misses0),
            )
            for name, n in served:
                if n:
                    served_handles[name].inc(n)
            if pollution is not None and pollution.injected != injected_before:
                handles["pollution"].inc(pollution.injected - injected_before)
        return results if record else count

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> MachineCheckpoint:
        """Capture all mutable simulation state as a :class:`MachineCheckpoint`.

        Captures the clock, the RNG stream (shared by the timing model and
        the page allocator), per-core PMU counters, the allocated frame
        pool, every cache level (lines, policy metadata, stats), and — when
        a fault plan wired cache pollution — the pollution stream, so a
        warm-started trial draws the same faults as a cold one.
        """
        return MachineCheckpoint(
            config_name=self.config.name,
            seed=self.seed,
            clock=self.clock,
            rng_state=self.rng.getstate(),
            cores=tuple(
                (c.memory_references, c.flushes, c.llc_references, c.llc_misses)
                for c in self.cores
            ),
            allocator=self.allocator.capture(),
            hierarchy=self.hierarchy.capture(),
            pollution=None if self.pollution is None else self.pollution.capture(),
        )

    def restore(self, checkpoint: MachineCheckpoint) -> None:
        """Rewind this machine to a :meth:`checkpoint` taken on it.

        After restoring, execution replays bit-identically to a freshly
        built machine that ran the same prefix; restore is idempotent, so
        one checkpoint serves any number of trials.  The checkpoint must
        come from a machine with the same config and fault wiring.
        """
        if checkpoint.config_name != self.config.name or len(
            checkpoint.cores
        ) != len(self.cores):
            raise SimulationError(
                f"checkpoint is for {checkpoint.config_name!r} "
                f"({len(checkpoint.cores)} cores), machine is "
                f"{self.config.name!r} ({len(self.cores)} cores)"
            )
        if (checkpoint.pollution is None) != (self.pollution is None):
            raise SimulationError(
                "checkpoint and machine disagree on cache-fault wiring "
                "(one has TracePollution, the other does not)"
            )
        self.clock = checkpoint.clock
        self.rng.setstate(checkpoint.rng_state)
        for core, counters in zip(self.cores, checkpoint.cores):
            (
                core.memory_references,
                core.flushes,
                core.llc_references,
                core.llc_misses,
            ) = counters
        self.allocator.restore(checkpoint.allocator)
        self.hierarchy.restore(checkpoint.hierarchy)
        if self.pollution is not None:
            self.pollution.restore(checkpoint.pollution)

    # -- convenience ---------------------------------------------------------

    @property
    def llc_ways(self) -> int:
        return self.config.llc.ways

    def miss_threshold(self) -> int:
        """Noise-free hit/miss discrimination threshold (the paper's Th0)."""
        return self.timing.default_miss_threshold()

    def flush_lines(self, addrs) -> None:
        for addr in addrs:
            self.hierarchy.clflush(addr, self.clock)

    def reset_stats(self) -> None:
        self.hierarchy.reset_stats()
        for core in self.cores:
            core.reset_counters()

    def stats_report(self) -> str:
        """Human-readable access statistics for every cache level."""
        lines = [f"{self.config.name} @ {self.clock} cycles"]
        levels = [*self.hierarchy.l1s, *self.hierarchy.l2s, self.hierarchy.llc]
        header = f"{'level':<8} {'accesses':>9} {'hits':>9} {'misses':>9} {'hit rate':>9} {'evictions':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for level in levels:
            stats = level.stats
            lines.append(
                f"{level.name:<8} {stats.accesses:>9} {stats.hits:>9} "
                f"{stats.misses:>9} {stats.hit_rate:>9.2%} {stats.evictions:>10}"
            )
        refs = sum(core.memory_references for core in self.cores)
        flushes = sum(core.flushes for core in self.cores)
        lines.append(f"cores: {refs} memory references, {flushes} flushes")
        return "\n".join(lines)
