"""Discrete-event scheduler interleaving processes against shared caches.

The scheduler always runs the process with the smallest local clock, executes
its next yielded operation atomically at that timestamp, and advances the
process's clock by the operation's latency.  Shared-LLC interactions between
processes therefore occur in global time order, which is what makes the
cross-core races of the paper (sender vs. receiver prefetches, victim vs.
attacker accesses) observable in simulation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional

from ..cache.hierarchy import MemOpResult
from ..cpu.core import Core
from ..engine import soa as _soa
from ..engine.compile import OP_FLUSH, OP_LOAD, OP_NTA, OP_T0, routes
from ..errors import SimulationError
from .machine import Machine
from .process import (
    Clflush,
    Load,
    Op,
    PrefetchNTA,
    PrefetchT0,
    Program,
    ReadTSC,
    SimProcess,
    Sleep,
    StreamClflush,
    StreamLoad,
    TimedLoad,
    TimedPrefetchNTA,
    WaitUntil,
)

#: How a memory op charges its process's clock: the result's latency, the
#: prefetch issue cost, an RDTSCP-measured latency, or a streamed share.
_LATENCY, _ISSUE, _TIMED, _STREAM = range(4)

#: Memory op type -> (opcode, time charge).
_MEMORY_OPS = {
    Load: (OP_LOAD, _LATENCY),
    TimedLoad: (OP_LOAD, _TIMED),
    PrefetchNTA: (OP_NTA, _ISSUE),
    TimedPrefetchNTA: (OP_NTA, _TIMED),
    PrefetchT0: (OP_T0, _LATENCY),
    Clflush: (OP_FLUSH, _LATENCY),
    StreamClflush: (OP_FLUSH, _STREAM),
    StreamLoad: (OP_LOAD, _STREAM),
}

#: Opcode -> the core instruction the object path runs it as.
_CORE_OPS = {
    OP_LOAD: Core.load,
    OP_NTA: Core.prefetchnta,
    OP_T0: Core.prefetcht0,
    OP_FLUSH: Core.clflush,
}


class Scheduler:
    """Runs :class:`SimProcess` programs on a shared :class:`Machine`."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.processes: List[SimProcess] = []
        # core id -> the process most recently spawned there; consulted (and
        # lazily cleaned) by spawn so registering a process is O(1) instead
        # of a scan over every process ever spawned on this scheduler.
        self._core_owner: Dict[int, SimProcess] = {}
        self._counter = itertools.count()

    def spawn(
        self, name: str, core_id: int, program: Program, start_time: int = 0
    ) -> SimProcess:
        """Register a process; cores may host at most one process at a time."""
        if not 0 <= core_id < len(self.machine.cores):
            raise SimulationError(f"core {core_id} out of range for {name!r}")
        owner = self._core_owner.get(core_id)
        if owner is not None and not owner.finished:
            raise SimulationError(
                f"core {core_id} already busy with {owner.name!r}"
            )
        proc = SimProcess(name, core_id, program, start_time)
        self.processes.append(proc)
        self._core_owner[core_id] = proc
        return proc

    # ------------------------------------------------------------------
    # Op execution.  A memory op is an opcode (what the caches do) plus a
    # time charge (how far the issuing process's clock moves); both paths
    # below share the charge code and differ only in who runs the opcode.
    # Exact-type dispatch is safe: the op types have no subclass
    # relationships among them.

    def _charge(self, proc: SimProcess, result: MemOpResult, charge: int) -> Any:
        """Advance ``proc``'s clock for a memory op; the value sent back."""
        if charge == _LATENCY:
            proc.time += result.latency
            return result
        if charge == _ISSUE:
            # Non-blocking: the hint retires immediately; the fill is in
            # flight until the line's busy_until.
            proc.time += self.machine.config.latency.prefetch_issue
            return result
        if charge == _TIMED:
            timed = self.machine.timing.measure(result)
            proc.time += timed.cycles
            return timed
        mlp = max(1, self.machine.config.latency.stream_mlp)
        proc.time += max(1, result.latency // mlp)
        return result

    def _control(self, proc: SimProcess, op: Op) -> Any:
        """Execute a non-memory op (time and timestamp requests)."""
        kind = type(op)
        if kind is WaitUntil:
            proc.time = max(proc.time, op.time)
            # Returning the arrival time gives programs a free lateness
            # check (they learn whether the wait actually waited).
            return proc.time
        if kind is Sleep:
            if op.cycles < 0:
                raise SimulationError(f"negative sleep from {proc.name!r}")
            proc.time += op.cycles
            return None
        if kind is ReadTSC:
            stamp = proc.time
            proc.time += self.machine.config.latency.measure_overhead // 2
            return stamp
        raise SimulationError(f"{proc.name!r} yielded unknown op {op!r}")

    def _execute(self, proc: SimProcess, op: Op) -> Any:
        """Execute ``op`` at ``proc.time`` on the object hierarchy.

        Advances the process's clock and returns the op's result.  This is
        the hook :class:`~repro.sim.trace.TraceRecorder` wraps: a scheduler
        whose ``_execute`` is hooked runs on the object hierarchy, so the
        hook can read cache state between ops.
        """
        spec = _MEMORY_OPS.get(type(op))
        if spec is None:
            return self._control(proc, op)
        code, charge = spec
        core = self.machine.cores[proc.core_id]
        result = _CORE_OPS[code](core, op.addr, proc.time)
        return self._charge(proc, result, charge)

    def _plane_executor(self, step) -> Callable[[SimProcess, Op], Any]:
        """An ``_execute`` equivalent that runs memory ops through ``step``.

        ``step`` is an open :func:`repro.engine.soa.open_session` step;
        addresses resolve through the machine's route memo, so an op
        costs one dict hit before the planes see it.
        """
        memo, resolve = routes(self.machine)
        memo_get = memo.get
        spec_get = _MEMORY_OPS.get
        charge_op = self._charge
        control = self._control

        def execute(proc: SimProcess, op: Op) -> Any:
            spec = spec_get(type(op))
            if spec is None:
                return control(proc, op)
            code, charge = spec
            addr = op.addr
            route = memo_get(addr) if type(addr) is int else None
            if route is None:
                route = resolve(addr)
            tag, b1, b2, b3 = route
            result = step(code, proc.core_id, tag, b1, b2, b3, proc.time)
            if charge == _LATENCY:
                proc.time += result.latency
                return result
            return charge_op(proc, result, charge)

        return execute

    def run(self, until: Optional[int] = None) -> None:
        """Run until every process finishes (or the time horizon passes).

        ``until`` bounds simulated time: a process whose clock passes the
        horizon is suspended permanently (its generator is closed).

        Memory ops execute on :mod:`repro.engine.soa` planes whenever the
        machine's policies are supported, whatever its ``backend`` (which
        only picks the :meth:`Machine.run_trace` engine); the session is
        synced back into the object hierarchy when the run ends, normally
        or not.  Programs therefore see cache state only through the ops
        they yield, never by reading the hierarchy mid-run.  Unsupported
        machines, and schedulers whose ``_execute`` is hooked, run on the
        object hierarchy.
        """
        machine = self.machine
        heap: List[tuple] = []
        for proc in self.processes:
            if not proc.finished:
                heapq.heappush(heap, (proc.time, next(self._counter), proc, None))
        session = None
        hooked = getattr(self._execute, "__func__", None) is not Scheduler._execute
        if heap and not hooked and _soa.supports(machine):
            session = _soa.open_session(machine)
            execute = self._plane_executor(session.step)
        else:
            execute = self._execute
        try:
            while heap:
                time, _, proc, send_value = heapq.heappop(heap)
                if until is not None and time > until:
                    proc.program.close()
                    proc.finished = True
                    continue
                try:
                    op = proc.program.send(send_value)
                except StopIteration as stop:
                    proc.finished = True
                    proc.result = stop.value
                    continue
                result = execute(proc, op)
                heapq.heappush(heap, (proc.time, next(self._counter), proc, result))
        finally:
            if session is not None:
                session.close()
        # Keep the sequential clock monotone with the simulated world so a
        # later non-scheduled experiment on the same machine starts "after".
        latest = max((p.time for p in self.processes), default=0)
        machine.clock = max(machine.clock, latest)

    def run_all(self, until: Optional[int] = None) -> List[Any]:
        """Run and return each process's program return value, in spawn order."""
        self.run(until=until)
        return [proc.result for proc in self.processes]
