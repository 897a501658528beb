"""Trace pre-compilation for the struct-of-arrays batch backend.

A trace is a sequence of ``(op, core, addr)`` tuples.  Executing one op
touches up to three cache levels, and resolving *where* it lands — the
(slice, set) pair per level — is pure per line address.  The object engine
memoizes that resolution per level (:meth:`CacheSetMapping.flat_index`);
this module folds the same decomposition into flat **row tuples** once,
so replaying a trace (sweep trials, prime/probe loops, throughput
benchmarks) pays zero address arithmetic per op.

A :class:`CompiledTrace` holds one ``(code, core, tag, b1, b2, b3)`` row
per op: the opcode, the issuing core id, the line address (the tag stored
in the caches) and the flat way-array bases of the op's L1, L2 and LLC
set, ``(slice * sets + set) * ways``.  The bases are *dense* indices into
the struct-of-arrays planes of :mod:`repro.engine.soa` — every
``(slice, set, way)`` slot of a level maps to ``base + way``.  Rows are
plain tuples because the engines iterate them straight into Python
locals: CPython unpacks a tuple faster than it indexes any array.

Compilation validates every op up front (op name, core range, address
range), so a compiled trace always executes to completion; the object
engine raises mid-batch instead, after executing the valid prefix.  That
is the one observable semantic difference of the batch-compile path — see
``docs/performance.md``.

A compiled trace is valid for any machine with the same platform config
and set mappings (e.g. every shard machine of a sweep built from the same
``(config, seed)``), and may be passed directly to
:meth:`Machine.run_trace` under either backend.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Iterator, List, Tuple

from ..errors import SimulationError
from ..mem.address import LINE_OFFSET_BITS, validate_address

#: Op-name -> opcode.  ``prefetcht2`` keeps its own opcode (it executes
#: exactly like ``prefetcht1`` but is counted separately by the
#: ``engine.ops.*`` metrics, matching the object engine).
OP_LOAD, OP_NTA, OP_T0, OP_T1, OP_T2, OP_FLUSH = range(6)

#: Interned so op-name dict lookups and comparisons on the hot paths
#: short-circuit on pointer identity.
OP_NAMES: Tuple[str, ...] = tuple(
    sys.intern(name)
    for name in (
        "load", "prefetchnta", "prefetcht0", "prefetcht1", "prefetcht2",
        "clflush",
    )
)

_OPCODES = {name: code for code, name in enumerate(OP_NAMES)}


class CompiledTrace:
    """An op list pre-resolved to flat set indices (see module docstring)."""

    __slots__ = ("config_name", "_rows", "op_counts")

    def __init__(self, config_name: str, rows: List[Tuple[int, ...]],
                 op_counts: Tuple[int, ...]):
        self.config_name = config_name
        self._rows = rows
        #: Executed-op tally per opcode, precomputed so metrics flushing
        #: costs nothing per op.
        self.op_counts = op_counts

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> List[Tuple[int, ...]]:
        """The trace as its list of ``(code, core, tag, b1, b2, b3)`` tuples.

        The list is the compiled trace itself, shared by every replay
        (sweep trials, benchmark rounds); treat it as immutable.
        """
        return self._rows

    def ops(self) -> Iterator[Tuple[str, int, int]]:
        """Reconstruct the ``(op, core, addr)`` stream.

        Addresses come back as line addresses (offset bits zeroed); cache
        behaviour is line-granular, so replaying them through the object
        engine is bit-identical to replaying the original trace.
        """
        names = OP_NAMES
        for code, core, tag, _, _, _ in self._rows:
            yield names[code], core, tag


def routes(machine) -> Tuple[dict, Callable[[int], Tuple[int, int, int, int]]]:
    """The machine's per-address route memo and its resolver.

    A route is ``(tag, b1, b2, b3)``: the line address plus the dense
    plane base of its L1, L2 and LLC set.  Routes are pure per address
    (the working set of any experiment is a bounded set of lines), so
    compiled traces and scheduled programs resolve each address once per
    machine.  ``resolve(addr)`` validates ``addr``, computes its route
    and stores it.  Callers look up the memo only for ``type(addr) is
    int`` and resolve everything else: ``64.0 == 64`` and ``True == 1``,
    so a float or a bool would otherwise pick up an int's route and skip
    validation.
    """
    try:
        return machine._routes
    except AttributeError:
        pass
    # The route memo is the cache: going through ``index`` rather than the
    # mappings' own ``flat_index`` memos keeps each line stored once.
    hierarchy = machine.hierarchy
    l1_index = hierarchy.l1_mapping.index
    l2_index = hierarchy.l2_mapping.index
    llc_index = hierarchy.llc_mapping.index
    config = machine.config
    l1_sets, l1_ways = config.l1.sets, config.l1.ways
    l2_sets, l2_ways = config.l2.sets, config.l2.ways
    llc_sets, llc_ways = config.llc.sets, config.llc.ways
    memo: dict = {}

    def resolve(addr) -> Tuple[int, int, int, int]:
        if type(addr) is not int:
            validate_address(addr)  # raises for floats, bools, ...
        where = l1_index(addr)  # validates the range too
        b1 = (where.slice * l1_sets + where.set) * l1_ways
        where = l2_index(addr)
        b2 = (where.slice * l2_sets + where.set) * l2_ways
        where = llc_index(addr)
        b3 = (where.slice * llc_sets + where.set) * llc_ways
        tag = (addr >> LINE_OFFSET_BITS) << LINE_OFFSET_BITS
        route = memo[addr] = (tag, b1, b2, b3)
        return route

    machine._routes = memo, resolve
    return memo, resolve


def compile_trace(machine, ops: Iterable[Tuple[str, int, int]]) -> CompiledTrace:
    """Pre-resolve a trace against ``machine``'s config and set mappings.

    Addresses resolve through the machine's route memo (:func:`routes`),
    so recompiling related traces — or the same trace with fresh
    pollution interleaved — costs one dict hit per op.
    """
    n_cores = machine.config.cores
    memo, resolve = routes(machine)
    memo_get = memo.get
    opcode_get = _OPCODES.get

    rows: List[Tuple[int, ...]] = []
    append = rows.append
    op_counts = [0] * len(OP_NAMES)
    for op, core, addr in ops:
        code = opcode_get(op)
        if code is None:
            raise SimulationError(f"unknown trace op {op!r}")
        if not 0 <= core < n_cores:
            raise SimulationError(
                f"core {core} out of range for {n_cores}-core machine"
            )
        route = memo_get(addr) if type(addr) is int else None
        if route is None:
            route = resolve(addr)
        append((code, core) + route)
        op_counts[code] += 1
    return CompiledTrace(machine.config.name, rows, tuple(op_counts))
