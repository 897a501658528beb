"""Trial-batched execution: N independent machines as one array program.

The sweeps behind the paper's headline figures run thousands of *trials* —
independent machine instances executing near-identical traces from a shared
warm-start checkpoint.  The ``soa`` backend (:mod:`repro.engine.soa`) made
one trace cheap; this module adds the cross-trial axis: the flat
tag/age/busy/prefetch planes logically gain a leading ``(trials, slots)``
dimension, and one pass over a merged *program* steps every trial at once.

The trial axis is materialized **lazily, per set** (trial-coherent
execution with copy-on-diverge) rather than as dense ``(trials, slots)``
ndarrays:

* At batch start all trials share one plane row — they begin from the same
  machine state, so the trial axis is perfectly redundant.
* The per-trial traces are aligned into a program with a vectorized NumPy
  uniformity mask; a program row whose ``(op, core, addr)`` agrees across
  all trials executes **once** on the shared planes (exactly the SoA inner
  loop), on behalf of every trial.
* A row that differs between trials — or a uniform row that touches
  diverged state — executes per trial.  The first per-trial *mutation* of
  a set splits it: the shared row is copied into ``trials`` private
  overlays for that set only (``_BatchPlane.split``), and the set stays
  split for the rest of the batch.  Dense vectorization of divergent rows
  loses to this scheme at sweep-realistic trial counts: NumPy's per-ufunc
  dispatch on 64-element vectors costs more than stepping the handful of
  genuinely diverged sets in plain Python.
* Per-trial clocks are a shared base plus an optional offset vector
  (``_Delta``); in-flight fill deadlines carry the offset vector that was
  current at fill time, so busy-until comparisons stay exact per trial.
  A comparison whose outcome *differs* between trials aborts the coherent
  row (before it mutates anything) and re-runs it per trial.

Statistics and PMU counters accumulate in shared-plus-adjustment form:
coherent rows increment shared counters (each trial's run includes them),
per-trial rows increment per-trial adjustments.  :meth:`BatchResult.apply`
materializes one trial's end state into the machine's object hierarchy —
bit-identical, including the checkpoint digest, to running that trial's
trace alone under the ``soa`` or ``object`` backend.

Supported machines are exactly the SoA-supported ones (stock Tree-PLRU
private levels plus any stock LLC policy); fault-plan cache pollution is
supported by materializing each trial's polluted stream up front from a
common pollution-state snapshot.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..cache.cacheset import CacheSet
from ..errors import SimulationError
from .compile import CompiledTrace, OP_NAMES, compile_trace, routes
from .soa import (
    KIND_BITPLRU,
    KIND_QLRU,
    KIND_SRRIP,
    KIND_TREEPLRU,
    KIND_TRUELRU,
    _MAX_AGE,
    _import_set,
    _plru_tables,
    supports,
)

#: Split-set trial-state record indices (see :func:`_split_state`).
_TAGS, _AGES, _BUSY, _PREF, _NVALID, _POL = range(6)


class _NonUniform(Exception):
    """A coherent row's outcome differs between trials; re-run it per trial.

    Only raised by pre-mutation checks (busy-until comparisons during
    victim selection), so an aborted row has not touched any state.
    """


class _Delta:
    """Immutable per-trial offset vector with cached bounds."""

    __slots__ = ("vals", "lo", "hi")

    def __init__(self, vals: List[int]):
        self.vals = vals
        self.lo = min(vals)
        self.hi = max(vals)


class _BatchPlane:
    """Dense flat state of one cache level plus per-trial bookkeeping.

    Slots are indexed ``(slice * sets + set) * ways + way`` — the dense
    bases compiled traces carry — so rows need no translation.  The row
    buffers and per-set arrays are those of :mod:`repro.engine.soa`'s
    session planes, allocated once per machine at full size and reset
    incrementally (only sets dirtied by the previous batch).  On top:

    ``busyd[slot]``
        The clock-offset :class:`_Delta` current when ``busy[slot]`` was
        written, or ``None`` for a trial-uniform deadline.  ``busy[slot] +
        busyd[slot].vals[t]`` is trial ``t``'s exact busy-until cycle.
    ``split[base]``
        Per-trial overlay states for a diverged set: ``trials`` records of
        ``[tags, ages, busy, pref, nvalid, policy]`` (busy exact per
        trial).  Once split, the shared row for that set is dead until the
        next ``sync_in``.
    ``created[base]`` / ``events``
        Set-creation tracking: the object hierarchy materializes a
        ``CacheSet`` on first fill, and dict insertion order feeds the
        checkpoint digest, so :meth:`BatchResult.apply` must create each
        trial's new sets in that trial's first-touch order.  ``events`` is
        the ordered log of ``(base, trial-or-None)`` creations (``None`` =
        a coherent fill, i.e. every trial).
    """

    __slots__ = (
        "ways", "sets_per_slice", "kind",
        "tags", "ages", "busy", "pref", "nvalid", "bits", "mru", "promo",
        "stacks", "present", "live", "dirty",
        "busyd", "split", "created", "events",
    )

    def __init__(self, geometry, kind: int):
        ways = geometry.ways
        size = geometry.slices * geometry.sets * ways
        n_sets = geometry.slices * geometry.sets
        self.ways = ways
        self.sets_per_slice = geometry.sets
        self.kind = kind
        self.tags = [-1] * size
        self.ages = [0] * size
        self.busy = [0] * size
        self.pref = [False] * size
        self.nvalid = [0] * n_sets
        #: One packed Tree-PLRU state int per set (see _plru_tables).
        self.bits = [0] * n_sets if kind == KIND_TREEPLRU else None
        self.mru = [False] * size if kind == KIND_BITPLRU else None
        self.promo = [0] * n_sets if kind == KIND_QLRU else None
        self.stacks: Dict[int, List[int]] = {}
        self.present: Dict[int, int] = {}
        #: base -> flat (slice, set) key, or None for sets first touched by
        #: this batch (resolved lazily at apply).
        self.live: Dict[int, Optional[Tuple[int, int]]] = {}
        #: bases written by the previous batch, still to be reset.
        self.dirty: List[int] = []
        self.busyd: List[Optional[_Delta]] = [None] * size
        self.split: Dict[int, list] = {}
        self.created: Dict[int, List[bool]] = {}
        self.events: List[tuple] = []

    def sync_in(self, level) -> None:
        """Reset previously dirtied sets, then import the level's live state."""
        ways = self.ways
        tags = self.tags
        nvalid = self.nvalid
        bits = self.bits
        mru = self.mru
        promo = self.promo
        busyd = self.busyd
        for base in self.dirty:
            for slot in range(base, base + ways):
                tags[slot] = -1
                busyd[slot] = None
            s = base // ways
            nvalid[s] = 0
            if bits is not None:
                bits[s] = 0
            if mru is not None:
                for slot in range(base, base + ways):
                    mru[slot] = False
            if promo is not None:
                promo[s] = 0
        self.dirty = []
        self.stacks.clear()
        self.present.clear()
        self.live.clear()
        self.split.clear()
        self.created.clear()
        del self.events[:]
        live = self.live
        sps = self.sets_per_slice
        for key, cache_set in level._sets.items():
            base = (key[0] * sps + key[1]) * ways
            live[base] = key
            _import_set(self, base, cache_set)


def _planes(machine) -> tuple:
    """The machine's cached batch planes, allocated on first use.

    Separate from the SoA planes: both backends sync through the object
    hierarchy, so interleaving them is safe, but their dirty-set tracking
    must not be shared.
    """
    try:
        return machine._batch_planes
    except AttributeError:
        pass
    config = machine.config
    llc_kind = machine._soa_llc_kind[0]
    planes = (
        [_BatchPlane(config.l1, KIND_TREEPLRU) for _ in range(config.cores)],
        [_BatchPlane(config.l2, KIND_TREEPLRU) for _ in range(config.cores)],
        _BatchPlane(config.llc, llc_kind),
    )
    machine._batch_planes = planes
    return planes


def _build_program(compiled: List[CompiledTrace]) -> list:
    """Align per-trial row lists into one program.

    An entry is either a single ``(code, core, tag, b1, b2, b3)`` tuple —
    the row is identical across every trial — or a list of per-trial rows
    (``None`` for trials whose trace is already exhausted).  Equal-length
    batches get the uniformity mask vectorized over the compiled arrays.
    """
    rows_t = [c.rows() for c in compiled]
    if len(compiled) == 1:
        return rows_t[0]
    lengths = [c.length for c in compiled]
    n = max(lengths)
    program: list = []
    if min(lengths) == n:
        if n == 0:
            return program
        same = np.ones(n, dtype=bool)
        for field in ("opcodes", "cores", "tags", "l1_base", "l2_base", "llc_base"):
            arrs = np.stack([getattr(c, field) for c in compiled])
            same &= (arrs == arrs[0]).all(axis=0)
        r0 = rows_t[0]
        for i, uniform in enumerate(same.tolist()):
            if uniform:
                program.append(r0[i])
            else:
                program.append([rt[i] for rt in rows_t])
        return program
    for i in range(n):
        rows = [rt[i] if i < len(rt) else None for rt in rows_t]
        first = rows[0]
        if first is not None and all(r == first for r in rows):
            program.append(first)
        else:
            program.append(rows)
    return program


def run_trace_batch(machine, traces, record: bool = False) -> "BatchResult":
    """Execute ``traces`` as independent trials from the machine's state.

    Each element of ``traces`` is a trace acceptable to
    :meth:`Machine.run_trace` (op tuples or a pre-compiled
    :class:`CompiledTrace`); trial ``t`` behaves exactly as if
    ``machine.run_trace(traces[t], ...)`` had run alone from the current
    machine state.  The machine itself is *not* advanced — results,
    statistics, and per-trial end states live in the returned
    :class:`BatchResult` until :meth:`BatchResult.apply` writes one
    trial back (restore the start checkpoint between applies).

    Raises :class:`SimulationError` for machines the SoA/batch engines do
    not support (exotic replacement policies) — callers wanting the lenient
    machine-preference semantics go through :meth:`Machine.run_trace`.
    """
    if not supports(machine):
        raise SimulationError(
            "batch backend does not support this machine's replacement policies"
        )
    traces = list(traces)
    if not traces:
        raise SimulationError("run_trace_batch needs at least one trace")
    config = machine.config
    pol = machine.pollution
    pol_start = pol.capture() if pol is not None else None
    compiled: List[CompiledTrace] = []
    pol_caps: List[tuple] = []
    for tr in traces:
        if pol is None and isinstance(tr, CompiledTrace):
            c = tr
        else:
            # Pollution draws one RNG decision per original op; every trial
            # replays the draw stream from the same starting snapshot, so a
            # trial's polluted trace is identical to what a scalar
            # ``run_trace`` would execute from this machine state.
            source = tr.ops() if isinstance(tr, CompiledTrace) else tr
            if pol is not None:
                pol.restore(pol_start)
                source = pol.wrap(source)
            c = compile_trace(machine, source)
        if c.config_name != config.name:
            raise SimulationError(
                f"compiled trace is for config {c.config_name!r}, "
                f"machine is {config.name!r}"
            )
        compiled.append(c)
        if pol is not None:
            pol_caps.append(pol.capture())
    if pol is not None:
        pol.restore(pol_start)

    T = len(compiled)
    trial_range = range(T)
    program = _build_program(compiled)
    # Any in-flight BatchResult for this machine goes stale now: its plane
    # references are about to be reused.
    epoch = machine._batch_epoch = getattr(machine, "_batch_epoch", 0) + 1

    hierarchy = machine.hierarchy
    n_cores = config.cores
    core_range = range(n_cores)
    l1_planes, l2_planes, llc_plane = _planes(machine)
    for c in core_range:
        l1_planes[c].sync_in(hierarchy.l1s[c])
        l2_planes[c].sync_in(hierarchy.l2s[c])
    llc_plane.sync_in(hierarchy.llc)

    lat = config.latency
    LAT_L1 = lat.l1_hit
    LAT_L2 = lat.l2_hit
    LAT_LLC = lat.llc_hit
    LAT_DRAM = lat.dram
    LAT_PREF = lat.prefetch_issue
    LAT_FLUSH = lat.clflush
    LAT_FLUSH_CACHED = lat.clflush + lat.clflush_cached_extra
    R_L1_LOAD = hierarchy._r_l1_load
    R_L1_PREF = hierarchy._r_l1_prefetch
    R_L2_LOAD = hierarchy._r_l2_load
    R_L2_PREF = hierarchy._r_l2_prefetch
    R_LLC = hierarchy._r_llc
    R_DRAM = hierarchy._r_dram
    R_FLUSH = hierarchy._r_flush
    R_FLUSH_CACHED = hierarchy._r_flush_cached

    W1 = config.l1.ways
    W1_SHIFT = W1.bit_length() - 1
    W1_M1 = W1 - 1
    W2 = config.l2.ways
    W2_SHIFT = W2.bit_length() - 1
    W2_M1 = W2 - 1
    W3 = config.llc.ways

    llc_kind = machine._soa_llc_kind
    LKIND = llc_kind[0]
    if LKIND == KIND_QLRU:
        LOAD_AGE, PREF_AGE, PHU = llc_kind[1], llc_kind[2], llc_kind[3]
    elif LKIND == KIND_SRRIP:
        INSERT_RRPV, HIT_HP = llc_kind[1], llc_kind[2] == "hp"

    l1_tags = [p.tags for p in l1_planes]
    l1_bits = [p.bits for p in l1_planes]
    l1_nval = [p.nvalid for p in l1_planes]
    l1_present = [p.present for p in l1_planes]
    l1_splits = [p.split for p in l1_planes]
    l2_tags = [p.tags for p in l2_planes]
    l2_bits = [p.bits for p in l2_planes]
    l2_nval = [p.nvalid for p in l2_planes]
    l2_present = [p.present for p in l2_planes]
    l2_splits = [p.split for p in l2_planes]
    ltags = llc_plane.tags
    lages = llc_plane.ages
    lbusy = llc_plane.busy
    lbusyd = llc_plane.busyd
    lpref = llc_plane.pref
    lnval = llc_plane.nvalid
    lbits = llc_plane.bits
    lmru = llc_plane.mru
    lpromo = llc_plane.promo
    lstacks = llc_plane.stacks
    lpresent = llc_plane.present
    llive = llc_plane.live
    llc_split = llc_plane.split

    # Shared (every-trial) stats and PMU deltas, as in the SoA engine...
    l1_stats = [[0] * 5 for _ in core_range]
    l2_stats = [[0] * 5 for _ in core_range]
    llc_stats = [0] * 5
    d_refs = [0] * n_cores
    d_flush = [0] * n_cores
    d_llc_ref = [0] * n_cores
    d_llc_miss = [0] * n_cores
    # ...plus per-trial adjustments from divergent execution.
    l1_adj = [[[0] * 5 for _ in trial_range] for _ in core_range]
    l2_adj = [[[0] * 5 for _ in trial_range] for _ in core_range]
    llc_adj = [[0] * 5 for _ in trial_range]
    adj_refs = [[0] * T for _ in core_range]
    adj_flush = [[0] * T for _ in core_range]
    adj_llc_ref = [[0] * T for _ in core_range]
    adj_llc_miss = [[0] * T for _ in core_range]

    T1_AND, T1_OR, _ = tables1 = _plru_tables(W1)
    T2_AND, T2_OR, _ = tables2 = _plru_tables(W2)
    if LKIND == KIND_TREEPLRU:
        T3_AND, T3_OR, T3_VICT = _plru_tables(W3)

    start_clock = machine.clock
    clock = start_clock
    cdelta: Optional[_Delta] = None
    any_split = False
    recorded: Optional[list] = [] if record else None
    rappend = recorded.append if record else None

    # A back-invalidated line's private sets, needed once planes have
    # split, come from the machine's route memo (tags are line-aligned
    # ints, so a tag is its own key).
    route_memo, resolve_route = routes(machine)
    route_get = route_memo.get

    # -- divergence machinery ---------------------------------------------

    def busy_le(b, bd):
        """Trial-uniform ``busy <= now``; raises _NonUniform when mixed."""
        if bd is cdelta:  # same offset stream on both sides (incl. None/None)
            return b <= clock
        if bd is None:
            blo = bhi = b
        else:
            blo = b + bd.lo
            bhi = b + bd.hi
        if cdelta is None:
            nlo = nhi = clock
        else:
            nlo = clock + cdelta.lo
            nhi = clock + cdelta.hi
        if bhi <= nlo:
            return True
        if blo > nhi:
            return False
        bvals = bd.vals if bd is not None else None
        nvals = cdelta.vals if cdelta is not None else None
        first = None
        for t in trial_range:
            r = (b + (bvals[t] if bvals is not None else 0)) <= (
                clock + (nvals[t] if nvals is not None else 0)
            )
            if first is None:
                first = r
            elif r is not first:
                raise _NonUniform
        return first

    def ensure_split(plane, base):
        """Copy one set's shared row into per-trial overlays (idempotent)."""
        nonlocal any_split
        trials = plane.split.get(base)
        if trials is not None:
            return trials
        if base not in plane.live:
            # Absent set: per-trial fills must log creations individually.
            plane.created[base] = [False] * T
        W = plane.ways
        tags = plane.tags
        s = base // W
        kind = plane.kind
        if kind == KIND_TREEPLRU:
            pol0 = plane.bits[s]
        elif kind == KIND_BITPLRU:
            pol0 = plane.mru[base : base + W]
        elif kind == KIND_QLRU:
            pol0 = plane.promo[s]
        elif kind == KIND_TRUELRU:
            pol0 = plane.stacks.get(base, [])
        else:
            pol0 = 0
        tag_row = tags[base : base + W]
        age_row = plane.ages[base : base + W]
        pref_row = plane.pref[base : base + W]
        busy = plane.busy
        busyd = plane.busyd
        n0 = plane.nvalid[s]
        present = plane.present
        for tg in tag_row:
            if tg != -1:
                present.pop(tg, None)
        trials = []
        for t in trial_range:
            busy_row = [
                busy[base + w]
                + (busyd[base + w].vals[t] if busyd[base + w] is not None else 0)
                for w in range(W)
            ]
            p = list(pol0) if kind in (KIND_BITPLRU, KIND_TRUELRU) else pol0
            trials.append(
                [tag_row[:], age_row[:], busy_row, pref_row[:], n0, p]
            )
        plane.split[base] = trials
        any_split = True
        return trials

    def mark_trial_created(plane, base, t):
        flags = plane.created.get(base)
        if flags is not None and not flags[t]:
            flags[t] = True
            plane.events.append((base, t))

    # -- per-trial (divergent) execution ----------------------------------

    def priv_fill_trial(plane, base, t, tag, now_t, adj5, tables):
        """CacheSet.fill on one trial's overlay of a private set."""
        trials = plane.split.get(base)
        if trials is None:
            trials = ensure_split(plane, base)
        mark_trial_created(plane, base, t)
        st = trials[t]
        tags = st[_TAGS]
        W = plane.ways
        t_and, t_or, t_vict = tables
        n = st[_NVALID]
        if n < W:
            way = tags.index(-1)
            st[_NVALID] = n + 1
        else:
            way = t_vict[st[_POL]]
            if st[_BUSY][way] > now_t:
                way = -1
                busy_row = st[_BUSY]
                for w in range(W):
                    if busy_row[w] <= now_t:
                        way = w
                        break
                if way < 0:
                    return
            adj5[3] += 1
        tags[way] = tag
        st[_AGES][way] = 0
        st[_BUSY][way] = 0
        st[_PREF][way] = False
        adj5[2] += 1
        st[_POL] = st[_POL] & t_and[way] | t_or[way]

    def priv_probe_touch(plane, base, t, tag, t_and, t_or):
        """Probe a private set for one trial; touch Tree-PLRU on hit."""
        trials = plane.split.get(base)
        if trials is None:
            if tag not in plane.present:
                return False
            trials = ensure_split(plane, base)
        st = trials[t]
        try:
            way = st[_TAGS].index(tag)
        except ValueError:
            return False
        st[_POL] = st[_POL] & t_and[way] | t_or[way]
        return True

    def llc_hit_trial(st, way, is_pref):
        if LKIND == KIND_QLRU:
            if is_pref and not PHU:
                return
            a = st[_AGES][way]
            if a > 0:
                st[_AGES][way] = a - 1
            if not is_pref:
                st[_PREF][way] = False
        elif LKIND == KIND_SRRIP:
            if HIT_HP:
                st[_AGES][way] = 0
            else:
                a = st[_AGES][way]
                if a > 0:
                    st[_AGES][way] = a - 1
        elif LKIND == KIND_TREEPLRU:
            st[_POL] = st[_POL] & T3_AND[way] | T3_OR[way]
        elif LKIND == KIND_BITPLRU:
            mru = st[_POL]
            mru[way] = True
            if all(mru):
                for i in range(W3):
                    mru[i] = False
                mru[way] = True
        else:  # KIND_TRUELRU
            stack = st[_POL]
            if way in stack:
                stack.remove(way)
            stack.insert(0, way)

    def fill_llc_trial(st, tag, is_pref, now_t, busy_until, adj5):
        """CacheLevel.fill on one trial's overlay of an LLC set."""
        tags = st[_TAGS]
        ages = st[_AGES]
        busy_row = st[_BUSY]
        evicted = -1
        n = st[_NVALID]
        if n < W3:
            way = tags.index(-1)
            st[_NVALID] = n + 1
        else:
            way = -1
            if LKIND == KIND_QLRU or LKIND == KIND_SRRIP:
                for w in range(W3):
                    if ages[w] == _MAX_AGE and busy_row[w] <= now_t:
                        way = w
                        break
                if way < 0:
                    evictable = [w for w in range(W3) if busy_row[w] <= now_t]
                    if not evictable:
                        return -1, False
                    for _ in range(_MAX_AGE):
                        aged = 0
                        for w in evictable:
                            if ages[w] < _MAX_AGE:
                                ages[w] += 1
                                aged += 1
                        if LKIND == KIND_QLRU:
                            st[_POL] += aged
                        for w in evictable:
                            if ages[w] == _MAX_AGE:
                                way = w
                                break
                        if way >= 0:
                            break
            elif LKIND == KIND_TREEPLRU:
                way = T3_VICT[st[_POL]]
                if busy_row[way] > now_t:
                    way = -1
                    for w in range(W3):
                        if busy_row[w] <= now_t:
                            way = w
                            break
                    if way < 0:
                        return -1, False
            elif LKIND == KIND_BITPLRU:
                mru = st[_POL]
                for w in range(W3):
                    if not mru[w] and busy_row[w] <= now_t:
                        way = w
                        break
                if way < 0:
                    for w in range(W3):
                        if busy_row[w] <= now_t:
                            way = w
                            break
                    if way < 0:
                        return -1, False
                mru[way] = False  # on_invalidate of the victim
            else:  # KIND_TRUELRU
                stack = st[_POL]
                for w in reversed(stack):
                    if tags[w] != -1 and busy_row[w] <= now_t:
                        way = w
                        break
                if way < 0:
                    for w in range(W3):
                        if tags[w] != -1 and busy_row[w] <= now_t and w not in stack:
                            way = w
                            break
                    if way < 0:
                        return -1, False
                if way in stack:  # on_invalidate of the victim
                    stack.remove(way)
            evicted = tags[way]
            adj5[3] += 1
        tags[way] = tag
        busy_row[way] = busy_until
        st[_PREF][way] = is_pref
        if LKIND == KIND_QLRU:
            ages[way] = PREF_AGE if is_pref else LOAD_AGE
        elif LKIND == KIND_SRRIP:
            ages[way] = _MAX_AGE if is_pref else INSERT_RRPV
        elif LKIND == KIND_TREEPLRU:
            ages[way] = 0
            st[_POL] = st[_POL] & T3_AND[way] | T3_OR[way]
        elif LKIND == KIND_BITPLRU:
            ages[way] = 0
            mru = st[_POL]
            mru[way] = True
            if all(mru):
                for i in range(W3):
                    mru[i] = False
                mru[way] = True
        else:
            ages[way] = 0
            stack = st[_POL]
            if way in stack:
                stack.remove(way)
            stack.insert(0, way)
        adj5[2] += 1
        return evicted, True

    def priv_inval_trial(planes, splits, presents, tags_l, nvals, shift, stats, adjs, base, tag, t, coherent):
        """Purge one tag from one private level, shared- and split-aware.

        ``coherent`` distinguishes an every-trial invalidation (shared sets
        may be mutated in place, stats go to the shared lists) from a
        single-trial one (shared holders must split first, stats go to the
        per-trial adjustments).
        """
        for c in core_range:
            trials = splits[c].get(base)
            if trials is None:
                if coherent:
                    slot = presents[c].pop(tag, None)
                    if slot is not None:
                        tags_l[c][slot] = -1
                        nvals[c][slot >> shift] -= 1
                        stats[c][4] += 1
                    continue
                if tag not in presents[c]:
                    continue
                trials = ensure_split(planes[c], base)
            st = trials[t] if not coherent else None
            if coherent:
                for tt in trial_range:
                    stt = trials[tt]
                    try:
                        way = stt[_TAGS].index(tag)
                    except ValueError:
                        continue
                    stt[_TAGS][way] = -1
                    stt[_NVALID] -= 1
                    adjs[c][tt][4] += 1
            else:
                try:
                    way = st[_TAGS].index(tag)
                except ValueError:
                    continue
                st[_TAGS][way] = -1
                st[_NVALID] -= 1
                adjs[c][t][4] += 1

    def back_inval_all(tag):
        """Inclusion purge of ``tag`` for every trial at once."""
        if not any_split:
            for c in core_range:
                slot = l1_present[c].pop(tag, None)
                if slot is not None:
                    l1_tags[c][slot] = -1
                    l1_nval[c][slot >> W1_SHIFT] -= 1
                    l1_stats[c][4] += 1
            for c in core_range:
                slot = l2_present[c].pop(tag, None)
                if slot is not None:
                    l2_tags[c][slot] = -1
                    l2_nval[c][slot >> W2_SHIFT] -= 1
                    l2_stats[c][4] += 1
            return
        entry = route_get(tag) or resolve_route(tag)
        priv_inval_trial(
            l1_planes, l1_splits, l1_present, l1_tags, l1_nval, W1_SHIFT,
            l1_stats, l1_adj, entry[1], tag, -1, True,
        )
        priv_inval_trial(
            l2_planes, l2_splits, l2_present, l2_tags, l2_nval, W2_SHIFT,
            l2_stats, l2_adj, entry[2], tag, -1, True,
        )

    def back_inval_trial(t, tag):
        """Inclusion purge of ``tag`` for one trial only."""
        entry = route_get(tag) or resolve_route(tag)
        priv_inval_trial(
            l1_planes, l1_splits, l1_present, l1_tags, l1_nval, W1_SHIFT,
            l1_stats, l1_adj, entry[1], tag, t, False,
        )
        priv_inval_trial(
            l2_planes, l2_splits, l2_present, l2_tags, l2_nval, W2_SHIFT,
            l2_stats, l2_adj, entry[2], tag, t, False,
        )

    def step_trial(t, code, core, tag, b1, b2, b3, now_t):
        """Execute one row for one trial; returns (latency, result)."""
        if code == 5:  # clflush
            adj_flush[core][t] += 1
            was_cached = False
            trials = llc_split.get(b3)
            if trials is None and lpresent.get(tag) is not None:
                trials = ensure_split(llc_plane, b3)
            if trials is not None:
                st = trials[t]
                try:
                    way = st[_TAGS].index(tag)
                except ValueError:
                    way = -1
                if way >= 0:
                    if LKIND == KIND_TRUELRU:
                        stack = st[_POL]
                        if way in stack:
                            stack.remove(way)
                    elif LKIND == KIND_BITPLRU:
                        st[_POL][way] = False
                    st[_TAGS][way] = -1
                    st[_NVALID] -= 1
                    llc_adj[t][4] += 1
                    was_cached = True
            back_inval_trial(t, tag)
            if was_cached:
                return LAT_FLUSH_CACHED, R_FLUSH_CACHED
            return LAT_FLUSH, R_FLUSH
        l1p = l1_planes[core]
        l2p = l2_planes[core]
        if code <= 2:  # load / prefetchnta / prefetcht0
            adj_refs[core][t] += 1
            if priv_probe_touch(l1p, b1, t, tag, T1_AND, T1_OR):
                l1_adj[core][t][0] += 1
                if code == 0:
                    return LAT_L1, R_L1_LOAD
                return LAT_PREF, R_L1_PREF
            l1_adj[core][t][1] += 1
            if priv_probe_touch(l2p, b2, t, tag, T2_AND, T2_OR):
                l2_adj[core][t][0] += 1
                priv_fill_trial(l1p, b1, t, tag, now_t, l1_adj[core][t], tables1)
                return LAT_L2, R_L2_LOAD
            l2_adj[core][t][1] += 1
            is_nta = code == 1
            trials = llc_split.get(b3)
            if trials is not None:
                st = trials[t]
                try:
                    way = st[_TAGS].index(tag)
                except ValueError:
                    way = -1
            else:
                st = None
                slot = lpresent.get(tag)
                way = -1 if slot is None else slot - b3
            if way >= 0:
                if st is None:
                    st = ensure_split(llc_plane, b3)[t]
                llc_adj[t][0] += 1
                llc_hit_trial(st, way, is_nta)
                if not is_nta:
                    priv_fill_trial(l2p, b2, t, tag, now_t, l2_adj[core][t], tables2)
                priv_fill_trial(l1p, b1, t, tag, now_t, l1_adj[core][t], tables1)
                adj_llc_ref[core][t] += 1
                return LAT_LLC, R_LLC
            llc_adj[t][1] += 1
            if st is None:
                st = ensure_split(llc_plane, b3)[t]
            mark_trial_created(llc_plane, b3, t)
            evicted, inserted = fill_llc_trial(
                st, tag, is_nta, now_t, now_t + LAT_DRAM, llc_adj[t]
            )
            if evicted != -1:
                back_inval_trial(t, evicted)
            if inserted:
                if not is_nta:
                    priv_fill_trial(l2p, b2, t, tag, now_t, l2_adj[core][t], tables2)
                priv_fill_trial(l1p, b1, t, tag, now_t, l1_adj[core][t], tables1)
            adj_llc_ref[core][t] += 1
            adj_llc_miss[core][t] += 1
            return LAT_DRAM, R_DRAM
        # prefetcht1 / prefetcht2
        adj_refs[core][t] += 1
        trials = l1p.split.get(b1)
        if trials is not None:
            if tag in trials[t][_TAGS]:  # presence check only: no stats
                return LAT_PREF, R_L1_PREF
        elif tag in l1p.present:
            return LAT_PREF, R_L1_PREF
        if priv_probe_touch(l2p, b2, t, tag, T2_AND, T2_OR):
            l2_adj[core][t][0] += 1
            return LAT_PREF, R_L2_PREF
        l2_adj[core][t][1] += 1
        trials = llc_split.get(b3)
        if trials is not None:
            st = trials[t]
            try:
                way = st[_TAGS].index(tag)
            except ValueError:
                way = -1
        else:
            st = None
            slot = lpresent.get(tag)
            way = -1 if slot is None else slot - b3
        if way >= 0:
            if st is None:
                st = ensure_split(llc_plane, b3)[t]
            llc_adj[t][0] += 1
            llc_hit_trial(st, way, False)  # demand-age treatment: not leaky
            priv_fill_trial(l2p, b2, t, tag, now_t, l2_adj[core][t], tables2)
            adj_llc_ref[core][t] += 1
            return LAT_LLC, R_LLC
        llc_adj[t][1] += 1
        if st is None:
            st = ensure_split(llc_plane, b3)[t]
        mark_trial_created(llc_plane, b3, t)
        evicted, inserted = fill_llc_trial(
            st, tag, False, now_t, now_t + LAT_DRAM, llc_adj[t]
        )
        if evicted != -1:
            back_inval_trial(t, evicted)
        if inserted:
            priv_fill_trial(l2p, b2, t, tag, now_t, l2_adj[core][t], tables2)
        adj_llc_ref[core][t] += 1
        adj_llc_miss[core][t] += 1
        return LAT_DRAM, R_DRAM

    def run_per_trial(rows):
        """One program entry, stepped trial by trial; advances the clocks."""
        nonlocal clock, cdelta
        dvals = cdelta.vals if cdelta is not None else None
        lats = [0] * T
        res = [None] * T if record else None
        for t in trial_range:
            row = rows[t]
            if row is None:
                continue
            now_t = clock + dvals[t] if dvals is not None else clock
            latency, r = step_trial(
                t, row[0], row[1], row[2], row[3], row[4], row[5], now_t
            )
            lats[t] = latency
            if record:
                res[t] = r
        if record:
            rappend(res)
        base = lats[0]
        clock += base
        if dvals is None:
            if any(latency != base for latency in lats):
                cdelta = _Delta([latency - base for latency in lats])
        else:
            vals = [d + latency - base for d, latency in zip(dvals, lats)]
            v0 = vals[0]
            if all(v == v0 for v in vals):
                clock += v0
                cdelta = None
            else:
                cdelta = _Delta(vals)

    # -- coherent (every-trial) helpers: the SoA loop with busy guards -----

    def make_priv_fill(plane, W, WSHIFT, stats, adj, tables):
        tags = plane.tags
        ages = plane.ages
        busy = plane.busy
        busyd = plane.busyd
        pref = plane.pref
        bits = plane.bits
        nval = plane.nvalid
        present = plane.present
        live = plane.live
        events = plane.events
        split = plane.split
        t_and, t_or, t_vict = tables

        def fill_all_trials(base, tag):
            # A private fill's outcome never feeds the row's latency or
            # result, so divergence here stays contained: split the set and
            # fill every trial's overlay.
            dvals = cdelta.vals if cdelta is not None else None
            for t in trial_range:
                now_t = clock + dvals[t] if dvals is not None else clock
                priv_fill_trial(plane, base, t, tag, now_t, adj[t], tables)

        def fill(base, tag):
            if split and base in split:
                fill_all_trials(base, tag)
                return
            if base not in live:
                live[base] = None
                events.append((base, None))
            s = base >> WSHIFT
            n = nval[s]
            if n < W:
                slot = tags.index(-1, base, base + W)
                way = slot - base
                nval[s] = n + 1
            else:
                way = t_vict[bits[s]]
                slot = base + way
                try:
                    free = busy_le(busy[slot], busyd[slot])
                except _NonUniform:
                    fill_all_trials(base, tag)
                    return
                if not free:
                    slot = -1
                    for cand in range(base, base + W):
                        try:
                            if busy_le(busy[cand], busyd[cand]):
                                slot = cand
                                break
                        except _NonUniform:
                            fill_all_trials(base, tag)
                            return
                    if slot < 0:
                        return
                    way = slot - base
                del present[tags[slot]]
                stats[3] += 1
            tags[slot] = tag
            ages[slot] = 0
            busy[slot] = 0
            busyd[slot] = None
            pref[slot] = False
            present[tag] = slot
            stats[2] += 1
            bits[s] = bits[s] & t_and[way] | t_or[way]  # on_fill touch

        return fill

    l1_fill = [
        make_priv_fill(l1_planes[c], W1, W1_SHIFT, l1_stats[c], l1_adj[c], tables1)
        for c in core_range
    ]
    l2_fill = [
        make_priv_fill(l2_planes[c], W2, W2_SHIFT, l2_stats[c], l2_adj[c], tables2)
        for c in core_range
    ]

    def _llc_hit(slot, is_pref):
        if LKIND == KIND_QLRU:
            if is_pref and not PHU:
                return
            a = lages[slot]
            if a > 0:
                lages[slot] = a - 1
            if not is_pref:
                lpref[slot] = False
        elif LKIND == KIND_SRRIP:
            if HIT_HP:
                lages[slot] = 0
            else:
                a = lages[slot]
                if a > 0:
                    lages[slot] = a - 1
        elif LKIND == KIND_TREEPLRU:
            s = slot // W3
            way = slot - s * W3
            lbits[s] = lbits[s] & T3_AND[way] | T3_OR[way]
        elif LKIND == KIND_BITPLRU:
            _bitplru_mark(slot)
        else:  # KIND_TRUELRU
            base = (slot // W3) * W3
            stack = lstacks.get(base)
            if stack is None:
                stack = lstacks[base] = []
            way = slot - base
            if way in stack:
                stack.remove(way)
            stack.insert(0, way)

    def _bitplru_mark(slot):
        lmru[slot] = True
        base = (slot // W3) * W3
        for i in range(base, base + W3):
            if not lmru[i]:
                return
        for i in range(base, base + W3):
            lmru[i] = False
        lmru[slot] = True

    def fill_llc(base, tag, is_pref, busy_until):
        """Coherent LLC fill; every _NonUniform escape precedes mutation."""
        s = base // W3
        n = lnval[s]
        evicted = -1
        if n < W3:
            slot = ltags.index(-1, base, base + W3)
            if base not in llive:
                llive[base] = None
                llc_plane.events.append((base, None))
            lnval[s] = n + 1
        else:
            slot = -1
            if LKIND == KIND_QLRU or LKIND == KIND_SRRIP:
                for i in range(base, base + W3):
                    if lages[i] == _MAX_AGE and busy_le(lbusy[i], lbusyd[i]):
                        slot = i
                        break
                if slot < 0:
                    evictable = [
                        i
                        for i in range(base, base + W3)
                        if busy_le(lbusy[i], lbusyd[i])
                    ]
                    if not evictable:
                        return -1, False
                    for _ in range(_MAX_AGE):
                        aged = 0
                        for i in evictable:
                            if lages[i] < _MAX_AGE:
                                lages[i] += 1
                                aged += 1
                        if LKIND == KIND_QLRU:
                            lpromo[s] += aged
                        for i in evictable:
                            if lages[i] == _MAX_AGE:
                                slot = i
                                break
                        if slot >= 0:
                            break
            elif LKIND == KIND_TREEPLRU:
                slot = base + T3_VICT[lbits[s]]
                if not busy_le(lbusy[slot], lbusyd[slot]):
                    slot = -1
                    for i in range(base, base + W3):
                        if busy_le(lbusy[i], lbusyd[i]):
                            slot = i
                            break
                    if slot < 0:
                        return -1, False
            elif LKIND == KIND_BITPLRU:
                for i in range(base, base + W3):
                    if not lmru[i] and busy_le(lbusy[i], lbusyd[i]):
                        slot = i
                        break
                if slot < 0:
                    for i in range(base, base + W3):
                        if busy_le(lbusy[i], lbusyd[i]):
                            slot = i
                            break
                    if slot < 0:
                        return -1, False
                lmru[slot] = False  # on_invalidate of the victim
            else:  # KIND_TRUELRU
                stack = lstacks.get(base)
                if stack is None:
                    stack = lstacks[base] = []
                for way in reversed(stack):
                    i = base + way
                    if ltags[i] != -1 and busy_le(lbusy[i], lbusyd[i]):
                        slot = i
                        break
                if slot < 0:
                    for way in range(W3):
                        i = base + way
                        if (
                            ltags[i] != -1
                            and way not in stack
                            and busy_le(lbusy[i], lbusyd[i])
                        ):
                            slot = i
                            break
                    if slot < 0:
                        return -1, False
                way = slot - base
                if way in stack:  # on_invalidate of the victim
                    stack.remove(way)
            evicted = ltags[slot]
            del lpresent[evicted]
            llc_stats[3] += 1
        ltags[slot] = tag
        lbusy[slot] = busy_until
        lbusyd[slot] = cdelta
        lpref[slot] = is_pref
        lpresent[tag] = slot
        if LKIND == KIND_QLRU:
            lages[slot] = PREF_AGE if is_pref else LOAD_AGE
        elif LKIND == KIND_SRRIP:
            lages[slot] = _MAX_AGE if is_pref else INSERT_RRPV
        elif LKIND == KIND_TREEPLRU:
            lages[slot] = 0
            way = slot - base
            lbits[s] = lbits[s] & T3_AND[way] | T3_OR[way]
        elif LKIND == KIND_BITPLRU:
            lages[slot] = 0
            _bitplru_mark(slot)
        else:  # KIND_TRUELRU
            lages[slot] = 0
            stack = lstacks.get(base)
            if stack is None:
                stack = lstacks[base] = []
            way = slot - base
            if way in stack:
                stack.remove(way)
            stack.insert(0, way)
        llc_stats[2] += 1
        return evicted, True

    # -- main loop ---------------------------------------------------------
    # Coherent rows mirror the SoA loop with two changes: busy comparisons
    # go through busy_le (and may abort the row pre-mutation), and row
    # counters land in terminal branches so an aborted row accounts nothing.

    for entry in program:
        if type(entry) is list:
            run_per_trial(entry)
            continue
        code, core, tag, b1, b2, b3 = entry
        if any_split and (
            b3 in llc_split or b1 in l1_splits[core] or b2 in l2_splits[core]
        ):
            # Uniform row over diverged state: per-trial, same row each.
            run_per_trial([entry] * T)
            continue
        try:
            if code <= 2:  # load / prefetchnta / prefetcht0 probe L1 first
                slot = l1_present[core].get(tag)
                if slot is not None:
                    bits = l1_bits[core]
                    s = slot >> W1_SHIFT
                    way = slot & W1_M1
                    bits[s] = bits[s] & T1_AND[way] | T1_OR[way]
                    d_refs[core] += 1
                    l1_stats[core][0] += 1
                    if code == 0:
                        clock += LAT_L1
                        if record:
                            rappend(R_L1_LOAD)
                    else:  # prefetchnta / prefetcht0 report the issue cost
                        clock += LAT_PREF
                        if record:
                            rappend(R_L1_PREF)
                    continue
                slot = l2_present[core].get(tag)
                if slot is not None:
                    bits = l2_bits[core]
                    s = slot >> W2_SHIFT
                    way = slot & W2_M1
                    bits[s] = bits[s] & T2_AND[way] | T2_OR[way]
                    l1_fill[core](b1, tag)
                    d_refs[core] += 1
                    l1_stats[core][1] += 1
                    l2_stats[core][0] += 1
                    clock += LAT_L2
                    if record:
                        rappend(R_L2_LOAD)
                    continue
                is_nta = code == 1
                slot = lpresent.get(tag)
                if slot is not None:
                    # Property #2: a PREFETCHNTA hit does not refresh age.
                    _llc_hit(slot, is_nta)
                    if not is_nta:
                        l2_fill[core](b2, tag)
                    l1_fill[core](b1, tag)
                    d_refs[core] += 1
                    l1_stats[core][1] += 1
                    l2_stats[core][1] += 1
                    llc_stats[0] += 1
                    d_llc_ref[core] += 1
                    clock += LAT_LLC
                    if record:
                        rappend(R_LLC)
                    continue
                # Property #1: a PREFETCHNTA miss installs the eviction
                # candidate.
                evicted, inserted = fill_llc(b3, tag, is_nta, clock + LAT_DRAM)
                if evicted != -1:
                    back_inval_all(evicted)
                if inserted:
                    if not is_nta:
                        l2_fill[core](b2, tag)
                    l1_fill[core](b1, tag)
                d_refs[core] += 1
                l1_stats[core][1] += 1
                l2_stats[core][1] += 1
                llc_stats[1] += 1
                d_llc_ref[core] += 1
                d_llc_miss[core] += 1
                clock += LAT_DRAM
                if record:
                    rappend(R_DRAM)
            elif code == 5:  # clflush
                slot = lpresent.pop(tag, None)
                if slot is not None:
                    if LKIND == KIND_TRUELRU:
                        base = (slot // W3) * W3
                        stack = lstacks.get(base)
                        way = slot - base
                        if stack is not None and way in stack:
                            stack.remove(way)
                    elif LKIND == KIND_BITPLRU:
                        lmru[slot] = False
                    ltags[slot] = -1
                    lnval[slot // W3] -= 1
                    llc_stats[4] += 1
                    was_cached = True
                else:
                    was_cached = False
                back_inval_all(tag)
                d_flush[core] += 1
                if was_cached:
                    clock += LAT_FLUSH_CACHED
                    if record:
                        rappend(R_FLUSH_CACHED)
                else:
                    clock += LAT_FLUSH
                    if record:
                        rappend(R_FLUSH)
            else:  # prefetcht1 / prefetcht2
                if tag in l1_present[core]:  # presence check only: no stats
                    d_refs[core] += 1
                    clock += LAT_PREF
                    if record:
                        rappend(R_L1_PREF)
                    continue
                slot = l2_present[core].get(tag)
                if slot is not None:
                    bits = l2_bits[core]
                    s = slot >> W2_SHIFT
                    way = slot & W2_M1
                    bits[s] = bits[s] & T2_AND[way] | T2_OR[way]
                    d_refs[core] += 1
                    l2_stats[core][0] += 1
                    clock += LAT_PREF
                    if record:
                        rappend(R_L2_PREF)
                    continue
                slot = lpresent.get(tag)
                if slot is not None:
                    _llc_hit(slot, False)  # demand-age treatment: not leaky
                    l2_fill[core](b2, tag)
                    d_refs[core] += 1
                    l2_stats[core][1] += 1
                    llc_stats[0] += 1
                    d_llc_ref[core] += 1
                    clock += LAT_LLC
                    if record:
                        rappend(R_LLC)
                    continue
                evicted, inserted = fill_llc(b3, tag, False, clock + LAT_DRAM)
                if evicted != -1:
                    back_inval_all(evicted)
                if inserted:
                    l2_fill[core](b2, tag)
                d_refs[core] += 1
                l2_stats[core][1] += 1
                llc_stats[1] += 1
                d_llc_ref[core] += 1
                d_llc_miss[core] += 1
                clock += LAT_DRAM
                if record:
                    rappend(R_DRAM)
        except _NonUniform:
            run_per_trial([entry] * T)

    # Everything touched — shared rows and split overlays — must be reset
    # before this machine's next batch.
    for plane in (*l1_planes, *l2_planes, llc_plane):
        live = plane.live
        plane.dirty = list(live) + [b for b in plane.split if b not in live]

    return BatchResult(
        machine=machine,
        epoch=epoch,
        compiled=compiled,
        start_clock=start_clock,
        clock_base=clock,
        clock_delta=None if cdelta is None else cdelta.vals,
        recorded=recorded,
        planes=(l1_planes, l2_planes, llc_plane),
        l1_stats=l1_stats,
        l2_stats=l2_stats,
        llc_stats=llc_stats,
        l1_adj=l1_adj,
        l2_adj=l2_adj,
        llc_adj=llc_adj,
        d_refs=d_refs,
        d_flush=d_flush,
        d_llc_ref=d_llc_ref,
        d_llc_miss=d_llc_miss,
        adj_refs=adj_refs,
        adj_flush=adj_flush,
        adj_llc_ref=adj_llc_ref,
        adj_llc_miss=adj_llc_miss,
        pol_start=pol_start,
        pol_caps=pol_caps if pol is not None else None,
    )


class TrialView(NamedTuple):
    """One trial's read-only outcome: its end clock and recorded results.

    :meth:`BatchResult.trial` builds one from a batch without touching
    the machine; a scalar run builds the same view from
    ``(machine.clock, tuple(results))``, so a reducer reading only the
    view serves every engine.
    """

    clock: int
    results: tuple


class BatchResult:
    """Per-trial outcomes of one :func:`run_trace_batch` call.

    Holds references into the machine's batch planes, so it is only valid
    until the machine runs another batch (guarded by an epoch counter).
    :meth:`trial` reads a trial's clock and results without touching the
    machine.  :meth:`apply` requires the machine to be back at the batch's
    start state — restore the start checkpoint between trials::

        start = machine.checkpoint()
        result = run_trace_batch(machine, traces, record=True)
        for t in range(result.trials):
            machine.restore(start)
            result.apply(t)
            ...  # read machine state / metrics for trial t
    """

    def __init__(
        self, machine, epoch, compiled, start_clock, clock_base, clock_delta,
        recorded, planes, l1_stats, l2_stats, llc_stats, l1_adj, l2_adj,
        llc_adj, d_refs, d_flush, d_llc_ref, d_llc_miss, adj_refs, adj_flush,
        adj_llc_ref, adj_llc_miss, pol_start, pol_caps,
    ):
        self._machine = machine
        self._epoch = epoch
        self._compiled = compiled
        self._start_clock = start_clock
        self._clock_base = clock_base
        self._clock_delta = clock_delta
        self._recorded = recorded
        self._planes = planes
        self._l1_stats = l1_stats
        self._l2_stats = l2_stats
        self._llc_stats = llc_stats
        self._l1_adj = l1_adj
        self._l2_adj = l2_adj
        self._llc_adj = llc_adj
        self._d_refs = d_refs
        self._d_flush = d_flush
        self._d_llc_ref = d_llc_ref
        self._d_llc_miss = d_llc_miss
        self._adj_refs = adj_refs
        self._adj_flush = adj_flush
        self._adj_llc_ref = adj_llc_ref
        self._adj_llc_miss = adj_llc_miss
        self._pol_caps = pol_caps
        self._pol_injected0 = pol_start[1] if pol_start is not None else 0

    @property
    def trials(self) -> int:
        return len(self._compiled)

    def _check_trial(self, t: int) -> None:
        if not 0 <= t < len(self._compiled):
            raise SimulationError(
                f"trial {t} out of range for a {len(self._compiled)}-trial batch"
            )

    def length(self, t: int) -> int:
        """Ops executed by trial ``t`` (pollution loads included)."""
        self._check_trial(t)
        return self._compiled[t].length

    def clock(self, t: int) -> int:
        """Trial ``t``'s end-of-trace sequential clock."""
        self._check_trial(t)
        delta = self._clock_delta
        return self._clock_base + (delta[t] if delta is not None else 0)

    def results(self, t: int) -> list:
        """Trial ``t``'s per-op :class:`MemOpResult` list (``record=True``)."""
        self._check_trial(t)
        if self._recorded is None:
            raise SimulationError("batch was executed without record=True")
        out = []
        append = out.append
        for entry in self._recorded:
            if type(entry) is list:
                r = entry[t]
                if r is not None:
                    append(r)
            else:
                append(entry)
        return out

    def trial(self, t: int) -> TrialView:
        """Trial ``t``'s clock and results (``record=True``) as a view.

        Reads only this result, never the machine, so it needs no
        restore or :meth:`apply`.
        """
        return TrialView(self.clock(t), tuple(self.results(t)))

    def pmu_deltas(self, t: int) -> list:
        """Per-core PMU counter deltas for trial ``t``."""
        self._check_trial(t)
        return [
            {
                "memory_references": self._d_refs[c] + self._adj_refs[c][t],
                "flushes": self._d_flush[c] + self._adj_flush[c][t],
                "llc_references": self._d_llc_ref[c] + self._adj_llc_ref[c][t],
                "llc_misses": self._d_llc_miss[c] + self._adj_llc_miss[c][t],
            }
            for c in range(len(self._d_refs))
        ]

    def apply(self, t: int) -> None:
        """Write trial ``t``'s end state into the machine.

        The machine must be at the batch's start state (restore the start
        checkpoint first when applying more than one trial), and the batch
        must be the machine's most recent one.  After ``apply``, the
        machine — cache contents, policy metadata, statistics, PMU
        counters, clock, pollution stream, metrics — is bit-identical to
        one that ran trial ``t``'s trace alone, down to the checkpoint
        digest.
        """
        self._check_trial(t)
        machine = self._machine
        if getattr(machine, "_batch_epoch", None) != self._epoch:
            raise SimulationError(
                "stale batch result: the machine has run a newer batch"
            )
        if machine.clock != self._start_clock:
            raise SimulationError(
                "machine is not at the batch's start state; restore the "
                "start checkpoint before applying a trial"
            )
        machine.clock = self.clock(t)
        pmu = self.pmu_deltas(t)
        for core, delta in zip(machine.cores, pmu):
            core.memory_references += delta["memory_references"]
            core.flushes += delta["flushes"]
            core.llc_references += delta["llc_references"]
            core.llc_misses += delta["llc_misses"]
        hierarchy = machine.hierarchy
        l1_planes, l2_planes, llc_plane = self._planes
        for c, plane in enumerate(l1_planes):
            self._apply_plane(
                plane, hierarchy.l1s[c], self._l1_stats[c], self._l1_adj[c][t], t
            )
        for c, plane in enumerate(l2_planes):
            self._apply_plane(
                plane, hierarchy.l2s[c], self._l2_stats[c], self._l2_adj[c][t], t
            )
        self._apply_plane(
            llc_plane, hierarchy.llc, self._llc_stats, self._llc_adj[t], t
        )
        if self._pol_caps is not None:
            machine.pollution.restore(self._pol_caps[t])
        if machine.metrics.enabled:
            self._flush_metrics(machine, t)

    def _apply_plane(self, plane, level, stats5, adj5, t):
        stats = level.stats
        stats.hits += stats5[0] + adj5[0]
        stats.misses += stats5[1] + adj5[1]
        stats.fills += stats5[2] + adj5[2]
        stats.evictions += stats5[3] + adj5[3]
        stats.invalidations += stats5[4] + adj5[4]
        ways = plane.ways
        stride = ways - 1
        sps = plane.sets_per_slice
        sets = level._sets
        factory = level._policy_factory
        kind = plane.kind
        split = plane.split
        tags = plane.tags
        ages = plane.ages
        busy = plane.busy
        busyd = plane.busyd
        pref = plane.pref

        def restore_base(base, key):
            s = base // ways
            if key is None:
                key = (s // sps, s % sps)
            cache_set = sets.get(key)
            if cache_set is None:
                cache_set = sets[key] = CacheSet(factory(ways))
            trials = split.get(base)
            if trials is not None:
                st = trials[t]
                s_tags = st[_TAGS]
                s_ages = st[_AGES]
                s_busy = st[_BUSY]
                s_pref = st[_PREF]
                pol = st[_POL]
                way_states = tuple(
                    None
                    if s_tags[w] == -1
                    else (s_tags[w], s_ages[w], s_busy[w], s_pref[w])
                    for w in range(ways)
                )
                if kind == KIND_TREEPLRU:
                    policy_state: tuple = tuple(
                        (pol >> i) & 1 for i in range(stride)
                    )
                elif kind == KIND_BITPLRU:
                    policy_state = tuple(pol)
                elif kind == KIND_QLRU:
                    policy_state = (pol,)
                elif kind == KIND_TRUELRU:
                    policy_state = tuple(pol)
                else:
                    policy_state = ()
            else:
                way_states = tuple(
                    None
                    if tags[slot] == -1
                    else (
                        tags[slot],
                        ages[slot],
                        busy[slot]
                        + (busyd[slot].vals[t] if busyd[slot] is not None else 0),
                        pref[slot],
                    )
                    for slot in range(base, base + ways)
                )
                if kind == KIND_TREEPLRU:
                    b = plane.bits[s]
                    policy_state = tuple((b >> i) & 1 for i in range(stride))
                elif kind == KIND_BITPLRU:
                    policy_state = tuple(plane.mru[base : base + ways])
                elif kind == KIND_QLRU:
                    policy_state = (plane.promo[s],)
                elif kind == KIND_TRUELRU:
                    policy_state = tuple(plane.stacks.get(base, ()))
                else:
                    policy_state = ()
            cache_set.restore((way_states, policy_state))

        # Imported sets already exist in the level dict: overwriting in
        # place preserves their insertion order (part of the checkpoint
        # digest).  New sets follow in this trial's first-touch order.
        for base, key in plane.live.items():
            if key is not None:
                restore_base(base, key)
        for base, trial in plane.events:
            if trial is None or trial == t:
                restore_base(base, None)

    def _flush_metrics(self, machine, t):
        handles = machine._batch_counters()
        op_handles = handles["ops"]
        for name, n in zip(OP_NAMES, self._compiled[t].op_counts):
            if n:
                op_handles[name].inc(n)
        core_range = range(len(self._d_refs))
        served = (
            (
                "L1",
                sum(
                    self._l1_stats[c][0] + self._l1_adj[c][t][0]
                    for c in core_range
                ),
            ),
            (
                "L2",
                sum(
                    self._l2_stats[c][0] + self._l2_adj[c][t][0]
                    for c in core_range
                ),
            ),
            ("LLC", self._llc_stats[0] + self._llc_adj[t][0]),
            ("DRAM", self._llc_stats[1] + self._llc_adj[t][1]),
        )
        served_handles = handles["served"]
        for name, n in served:
            if n:
                served_handles[name].inc(n)
        if self._pol_caps is not None:
            injected = self._pol_caps[t][1] - self._pol_injected0
            if injected:
                handles["pollution"].inc(injected)


class BatchMachine:
    """Thin trial-batch front end over one :class:`Machine`.

    Validates support eagerly (a :class:`SimulationError` at construction
    beats one mid-sweep) and exposes :meth:`run` as the batched analog of
    :meth:`Machine.run_trace`::

        bm = BatchMachine(machine)
        start = machine.checkpoint()
        result = bm.run([trace_a, trace_b], record=True)
    """

    def __init__(self, machine):
        if not supports(machine):
            raise SimulationError(
                "batch backend does not support this machine's replacement "
                "policies"
            )
        self.machine = machine

    def run(self, traces, record: bool = False) -> BatchResult:
        return run_trace_batch(self.machine, traces, record=record)


__all__ = [
    "BatchMachine",
    "BatchResult",
    "TrialView",
    "run_trace_batch",
    "supports",
]
