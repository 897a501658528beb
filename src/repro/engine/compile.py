"""Trace pre-compilation for the struct-of-arrays batch backend.

A trace is a sequence of ``(op, core, addr)`` tuples.  Executing one op
touches up to three cache levels, and resolving *where* it lands — the
(slice, set) pair per level — is pure per line address.  The object engine
memoizes that resolution per level (:meth:`CacheSetMapping.flat_index`);
this module folds the same decomposition into flat **index arrays** once,
so replaying a trace (sweep trials, prime/probe loops, throughput
benchmarks) pays zero address arithmetic per op.

A :class:`CompiledTrace` holds parallel NumPy arrays::

    opcodes[i]   -- small int, one per op name
    cores[i]     -- issuing core id
    tags[i]      -- line address (the tag stored in the caches)
    l1_base[i]   -- flat way-array base of the op's L1 set: (slice*sets + set) * ways
    l2_base[i]   -- same for L2
    llc_base[i]  -- same for the LLC

The bases are *dense* indices into the struct-of-arrays planes of
:mod:`repro.engine.soa` — every ``(slice, set, way)`` slot of a level maps
to ``base + way`` in its flat arrays.

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
from typing import Callable, Iterable, Iterator, Tuple

import numpy as np

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

    __slots__ = (
        "config_name", "length", "opcodes", "cores", "tags",
        "l1_base", "l2_base", "llc_base", "op_counts", "_rows",
    )

    def __init__(
        self,
        config_name: str,
        opcodes: np.ndarray,
        cores: np.ndarray,
        tags: np.ndarray,
        l1_base: np.ndarray,
        l2_base: np.ndarray,
        llc_base: np.ndarray,
        op_counts: Tuple[int, ...],
    ):
        self.config_name = config_name
        self.length = len(opcodes)
        self.opcodes = opcodes
        self.cores = cores
        self.tags = tags
        self.l1_base = l1_base
        self.l2_base = l2_base
        self.llc_base = llc_base
        #: Executed-op tally per opcode, precomputed so metrics flushing
        #: costs nothing per op.
        self.op_counts = op_counts
        self._rows = None

    def __len__(self) -> int:
        return self.length

    def rows(self) -> list:
        """The trace as a list of ``(code, core, tag, b1, b2, b3)`` tuples.

        CPython iterates plain tuples faster than ndarray rows, and the
        zip is materialized once: replays of the same compiled trace
        (sweep trials, benchmark rounds) skip the per-op tuple allocation
        entirely.  The arrays are treated as immutable after compile.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = list(
                zip(
                    self.opcodes.tolist(), self.cores.tolist(),
                    self.tags.tolist(), self.l1_base.tolist(),
                    self.l2_base.tolist(), self.llc_base.tolist(),
                )
            )
        return rows

    def ops(self) -> Iterator[Tuple[str, int, int]]:
        """Reconstruct the ``(op, core, addr)`` stream.

        Addresses come back as line addresses (offset bits zeroed); cache
        behaviour is line-granular, so replaying them through the object
        engine is bit-identical to replaying the original trace.
        """
        names = OP_NAMES
        for code, core, tag in zip(
            self.opcodes.tolist(), self.cores.tolist(), self.tags.tolist()
        ):
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

    codes = []
    cores = []
    tags = []
    b1s = []
    b2s = []
    b3s = []
    op_counts = [0] * len(OP_NAMES)
    for op, core, addr in ops:
        code = opcode_get(op)
        if code is None:
            raise SimulationError(f"unknown trace op {op!r}")
        if not 0 <= core < n_cores:
            raise SimulationError(
                f"core {core} out of range for {n_cores}-core machine"
            )
        entry = memo_get(addr) if type(addr) is int else None
        if entry is None:
            entry = resolve(addr)
        codes.append(code)
        cores.append(core)
        tags.append(entry[0])
        b1s.append(entry[1])
        b2s.append(entry[2])
        b3s.append(entry[3])
        op_counts[code] += 1
    return CompiledTrace(
        config_name=machine.config.name,
        opcodes=np.asarray(codes, dtype=np.int64),
        cores=np.asarray(cores, dtype=np.int64),
        tags=np.asarray(tags, dtype=np.int64),
        l1_base=np.asarray(b1s, dtype=np.int64),
        l2_base=np.asarray(b2s, dtype=np.int64),
        llc_base=np.asarray(b3s, dtype=np.int64),
        op_counts=tuple(op_counts),
    )
