"""A CPU core: the attacker-visible instruction interface.

Every memory-reference instruction the paper's attacks use is a method here:
``load``, ``prefetchnta``, ``prefetcht0``, ``clflush``, plus the timed
variants that wrap an operation in serialized RDTSCP reads.  ``lfence`` is a
no-op because the simulator executes operations in program order anyway; it
exists so attack code reads like the paper's listings.

When called without an explicit ``at`` timestamp, operations execute at the
owning machine's sequential clock and advance it — the right model for the
single-threaded reverse-engineering experiments of Section III.  The
discrete-event scheduler passes ``at=process_time`` instead and manages time
itself.

The core also counts **memory references** (loads + prefetches), the metric
the paper's Section VI-D countermeasure evaluation reports.  Counters move
only after the hierarchy accepts the address, so an op rejected with
``AddressError`` counts nothing — as on the SoA planes, which resolve every
address before executing.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

from ..cache.hierarchy import Level, MemOpResult
from .timing import TimedResult

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine


class Core:
    """One simulated core bound to a machine."""

    def __init__(self, machine: "Machine", core_id: int):
        self.machine = machine
        self.core_id = core_id
        #: Loads + prefetches issued by this core (Section VI-D metric).
        self.memory_references = 0
        #: CLFLUSHes issued (Table III metric).
        self.flushes = 0
        #: Ops that reached the LLC (PMU: LONGEST_LAT_CACHE.REFERENCE).
        self.llc_references = 0
        #: Ops served from DRAM (PMU: LONGEST_LAT_CACHE.MISS).
        self.llc_misses = 0

    def _account(self, result: MemOpResult) -> MemOpResult:
        if result.level is Level.DRAM:
            self.llc_references += 1
            self.llc_misses += 1
        elif result.level is Level.LLC:
            self.llc_references += 1
        return result

    # -- time plumbing ---------------------------------------------------

    def _resolve_time(self, at: Optional[int]) -> tuple[int, bool]:
        if at is None:
            return self.machine.clock, True
        return at, False

    def _finish(self, latency: int, advance: bool) -> None:
        if advance:
            self.machine.clock += latency

    # -- instructions ------------------------------------------------------

    def load(self, addr: int, at: Optional[int] = None) -> MemOpResult:
        now, advance = self._resolve_time(at)
        result = self._account(self.machine.hierarchy.load(self.core_id, addr, now))
        self.memory_references += 1
        self._finish(result.latency, advance)
        return result

    def prefetchnta(self, addr: int, at: Optional[int] = None) -> MemOpResult:
        now, advance = self._resolve_time(at)
        result = self._account(self.machine.hierarchy.prefetchnta(self.core_id, addr, now))
        self.memory_references += 1
        self._finish(result.latency, advance)
        return result

    def prefetcht0(self, addr: int, at: Optional[int] = None) -> MemOpResult:
        now, advance = self._resolve_time(at)
        result = self._account(self.machine.hierarchy.prefetcht0(self.core_id, addr, now))
        self.memory_references += 1
        self._finish(result.latency, advance)
        return result

    def prefetcht1(self, addr: int, at: Optional[int] = None) -> MemOpResult:
        now, advance = self._resolve_time(at)
        result = self._account(
            self.machine.hierarchy.prefetcht1(self.core_id, addr, now)
        )
        self.memory_references += 1
        self._finish(result.latency, advance)
        return result

    #: PREFETCHT2 behaves like PREFETCHT1 on the modelled parts.
    prefetcht2 = prefetcht1

    def clflush(self, addr: int, at: Optional[int] = None) -> MemOpResult:
        now, advance = self._resolve_time(at)
        result = self.machine.hierarchy.clflush(addr, now)
        self.flushes += 1
        self._finish(result.latency, advance)
        return result

    def lfence(self) -> None:
        """Serialization barrier — a no-op in this in-order simulator."""

    # -- timed variants (RDTSCP-wrapped) ----------------------------------

    def timed_load(self, addr: int, at: Optional[int] = None) -> TimedResult:
        now, advance = self._resolve_time(at)
        result = self._account(self.machine.hierarchy.load(self.core_id, addr, now))
        self.memory_references += 1
        timed = self.machine.timing.measure(result)
        self._finish(timed.cycles, advance)
        return timed

    def timed_prefetchnta(self, addr: int, at: Optional[int] = None) -> TimedResult:
        now, advance = self._resolve_time(at)
        result = self._account(self.machine.hierarchy.prefetchnta(self.core_id, addr, now))
        self.memory_references += 1
        timed = self.machine.timing.measure(result)
        self._finish(timed.cycles, advance)
        return timed

    def timed_clflush(self, addr: int, at: Optional[int] = None) -> TimedResult:
        now, advance = self._resolve_time(at)
        result = self.machine.hierarchy.clflush(addr, now)
        self.flushes += 1
        timed = self.machine.timing.measure(result)
        self._finish(timed.cycles, advance)
        return timed

    # -- composite helpers used throughout the experiments -----------------

    def load_all(self, addrs: Iterable[int], at: Optional[int] = None) -> int:
        """Load a pointer-chased sequence; returns total raw latency."""
        total = 0
        time = at
        for addr in addrs:
            result = self.load(addr, at=time)
            total += result.latency
            if time is not None:
                time += result.latency
        return total

    def flush_all(self, addrs: Iterable[int], at: Optional[int] = None) -> int:
        total = 0
        time = at
        for addr in addrs:
            result = self.clflush(addr, at=time)
            total += result.latency
            if time is not None:
                time += result.latency
        return total

    def reset_counters(self) -> None:
        self.memory_references = 0
        self.flushes = 0
        self.llc_references = 0
        self.llc_misses = 0
