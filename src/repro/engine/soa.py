"""Struct-of-arrays execution of memory ops: the plane session.

The object engine walks each op through ``CacheHierarchy`` →
``CacheLevel`` → ``CacheSet`` → per-line ``ReplacementPolicy`` calls.  This
module executes the same semantics over flat per-level **planes** —
parallel arrays with one row of ``ways`` slots per cache set — with no
per-op object allocation and no per-op method dispatch:

* ``tags[slot]``   line address stored in the way, ``-1`` when invalid
* ``ages[slot]``   Quad-age / RRPV age (0 for policies that ignore it)
* ``busy[slot]``   fill-completion cycle (in-flight lines are unevictable)
* ``pref[slot]``   PREFETCHNTA-fill marker
* per-set arrays   valid-way counts, Quad-age promotion counters,
                   packed Tree-PLRU state ints (one per set, driven by
                   precomputed transition tables), Bit-PLRU MRU bits,
                   LRU stacks
* per-core vectors PMU-analog counter deltas

:func:`open_session` is the one implementation of those semantics.  It
imports the machine's live cache state into fresh planes and returns a
``step`` closure that executes one op at a caller-given cycle, plus a
``close`` that writes state, statistics and PMU deltas back.  Two callers
drive it:

* :func:`execute` — ``Machine.run_trace`` under the ``soa`` backend —
  steps a compiled trace on the sequential clock;
* :class:`~repro.sim.scheduler.Scheduler` steps each op a program yields at
  that process's own time, for every supported machine whatever its
  ``backend``.

The object hierarchy stays authoritative *between* sessions.  That
sync-in/sync-out contract is what makes the planes bit-identical to the
object engine, and it makes checkpoints interoperate for free, because
``capture()``/``restore()`` always see fully synchronized object state.

Planes hold only the sets a session touches: a set gets a row when the
session opens (if live) or when a fill first reaches it, and a
per-level map from dense bases — ``(slice * sets + set) * ways``, what
routes and compiled traces carry — to row bases translates on fills.  So
a session never allocates the 8192-set LLC.  The mutable hot-path planes
are flat Python lists — CPython scalar indexing on lists beats ndarray
scalar indexing — and compiled traces (:mod:`repro.engine.compile`) are
lists of row tuples; only the public :func:`hierarchy_arrays` /
:func:`pmu_vectors` views are NumPy arrays.

Supported configurations: Tree-PLRU private levels (the only private
policy :class:`~repro.cache.hierarchy.CacheHierarchy` installs) and any of
the five stock LLC policies (Quad-age LRU, TrueLRU, Tree-PLRU, Bit-PLRU,
SRRIP) constructed with their stock classes.  Machines with exotic policy
subclasses fall back to the object engine (or raise, when the caller
demanded ``backend="soa"`` explicitly).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..cache.cacheset import CacheSet
from ..cache.hierarchy import MemOpResult
from ..cache.lru import TrueLRU
from ..cache.plru import BitPLRU, TreePLRU
from ..cache.qlru import QuadAgeLRU
from ..cache.srrip import SRRIP
from ..errors import SimulationError
from .compile import OP_NAMES, CompiledTrace

#: LLC policy kinds the flat executor implements.
KIND_QLRU, KIND_TRUELRU, KIND_TREEPLRU, KIND_BITPLRU, KIND_SRRIP = range(5)

_MAX_AGE = 3  # == qlru.MAX_AGE == srrip.MAX_RRPV

#: Per-associativity Tree-PLRU lookup tables (see :func:`_plru_tables`).
_PLRU_TABLES: Dict[int, Tuple[List[int], List[int], List[int]]] = {}


def _plru_tables(ways: int) -> Tuple[List[int], List[int], List[int]]:
    """Precomputed Tree-PLRU transition tables for one associativity.

    A set's whole PLRU tree packs into one ``ways - 1``-bit int (bit ``i``
    = tree node ``i``), which turns the per-op tree walks into table
    lookups:

    * touch(way):  ``state = state & and_mask[way] | or_mask[way]``
    * victim():    ``victim[state]``  (walk every reachable state once,
      at table-build time)

    Bit semantics match :class:`~repro.cache.plru.TreePLRU`: walking
    *right* writes 0, walking *left* writes 1; following the tree goes
    right on 1 and left on 0.
    """
    entry = _PLRU_TABLES.get(ways)
    if entry is not None:
        return entry
    full = (1 << (ways - 1)) - 1
    and_masks: List[int] = []
    or_masks: List[int] = []
    for way in range(ways):
        am, om = full, 0
        node, low, size = 0, 0, ways
        while size > 1:
            half = size >> 1
            am &= full ^ (1 << node)
            if way >= low + half:
                node += node + 2
                low += half
            else:
                om |= 1 << node
                node += node + 1
            size = half
        and_masks.append(am)
        or_masks.append(om)
    victims: List[int] = []
    for state in range(1 << (ways - 1)):
        node, low, size = 0, 0, ways
        while size > 1:
            half = size >> 1
            if (state >> node) & 1:
                node += node + 2
                low += half
            else:
                node += node + 1
            size = half
        victims.append(low)
    entry = _PLRU_TABLES[ways] = (and_masks, or_masks, victims)
    return entry


def _llc_kind(level) -> Optional[tuple]:
    """Kind tuple for a level's policy factory, or None if unsupported.

    Instantiates one probe policy: factories close over their parameters,
    so a fresh instance carries the exact configuration every per-set
    instance will get.
    """
    try:
        probe = level._policy_factory(level.geometry.ways)
    except Exception:
        return None
    t = type(probe)
    if t is QuadAgeLRU:
        return (
            KIND_QLRU,
            probe.load_insert_age,
            probe.prefetch_insert_age,
            probe.prefetch_hit_updates,
        )
    if t is TrueLRU:
        return (KIND_TRUELRU,)
    if t is TreePLRU:
        return (KIND_TREEPLRU,)
    if t is BitPLRU:
        return (KIND_BITPLRU,)
    if t is SRRIP:
        return (KIND_SRRIP, probe.insert_rrpv, probe.hit_promotion)
    return None


def supports(machine) -> bool:
    """Whether the SoA backend can execute traces for ``machine``.

    The answer is a pure function of the machine's policy factories, so it
    is computed once and cached on the machine.
    """
    try:
        return machine._soa_supported
    except AttributeError:
        pass
    hierarchy = machine.hierarchy
    ok = (
        _llc_kind(hierarchy.l1s[0]) == (KIND_TREEPLRU,)
        and _llc_kind(hierarchy.l2s[0]) == (KIND_TREEPLRU,)
    )
    llc = _llc_kind(hierarchy.llc) if ok else None
    machine._soa_llc_kind = llc
    machine._soa_supported = ok = ok and llc is not None
    return ok


def _import_set(plane, base: int, cache_set: CacheSet) -> None:
    """Copy one live ``CacheSet`` into the empty plane row at ``base``.

    ``plane`` is a session plane here or a batch plane of
    :mod:`repro.engine.batch`: both keep the same row buffers and index a
    set's per-set arrays by ``base // ways``.
    """
    ways = plane.ways
    row = base // ways
    plane.nvalid[row] = cache_set._valid
    tags = plane.tags
    ages = plane.ages
    busy = plane.busy
    pref = plane.pref
    present = plane.present
    for w, line in enumerate(cache_set.ways):
        if line is not None:
            slot = base + w
            tags[slot] = line.tag
            ages[slot] = line.age
            busy[slot] = line.busy_until
            pref[slot] = line.prefetched
            present[line.tag] = slot
    policy = cache_set.policy
    kind = plane.kind
    if kind == KIND_TREEPLRU:
        b = 0
        for i, v in enumerate(policy._bits):
            if v:
                b |= 1 << i
        plane.bits[row] = b
    elif kind == KIND_BITPLRU:
        plane.mru[base : base + ways] = policy._mru
    elif kind == KIND_QLRU:
        plane.promo[row] = policy.age_promotions
    elif kind == KIND_TRUELRU:
        plane.stacks[base] = list(policy._stack)


class _Plane:
    """One level's state for the length of a session (see module docstring).

    Sets get plane rows in first-touch order: the level's live sets when
    the session opens, then each set a fill reaches for the first time.
    ``bases`` maps a set's dense base — ``(slice * sets + set) * ways``,
    what routes and compiled traces carry — to its row's compact base, so
    a session's memory grows with the sets it touches, never with the
    level's size.  Row order is also the order :meth:`sync_out` creates
    new ``CacheSet`` objects in, which matches the object engine's.
    """

    __slots__ = (
        "ways", "sets_per_slice", "kind", "tags", "ages", "busy", "pref",
        "nvalid", "bits", "mru", "promo", "stacks", "present", "bases",
        "imported",
    )

    def __init__(self, level, kind: int):
        ways = self.ways = level.geometry.ways
        sps = self.sets_per_slice = level.geometry.sets
        self.kind = kind
        self.tags: List[int] = []
        self.ages: List[int] = []
        self.busy: List[int] = []
        self.pref: List[bool] = []
        self.nvalid: List[int] = []
        #: One packed Tree-PLRU state int per set (see _plru_tables).
        self.bits = [] if kind == KIND_TREEPLRU else None
        self.mru = [] if kind == KIND_BITPLRU else None
        self.promo = [] if kind == KIND_QLRU else None
        self.stacks: Dict[int, List[int]] = {}
        #: tag -> slot of every valid line.
        self.present: Dict[int, int] = {}
        #: dense base -> compact base, in row order.
        self.bases: Dict[int, int] = {}
        for key, cache_set in level._sets.items():
            base = self.add_set((key[0] * sps + key[1]) * ways)
            _import_set(self, base, cache_set)
        #: Rows below this one hold sets the level already had.
        self.imported = len(self.bases)

    def add_set(self, dense: int) -> int:
        """Give the set at dense base ``dense`` an empty row; its base."""
        ways = self.ways
        base = self.bases[dense] = len(self.tags)
        self.tags.extend([-1] * ways)
        self.ages.extend([0] * ways)
        self.busy.extend([0] * ways)
        self.pref.extend([False] * ways)
        self.nvalid.append(0)
        if self.bits is not None:
            self.bits.append(0)
        elif self.mru is not None:
            self.mru.extend([False] * ways)
        elif self.promo is not None:
            self.promo.append(0)
        return base

    def sync_out(self, level, stats_delta: List[int]) -> None:
        """Write changed rows and the accumulated statistics back into the level.

        An imported set whose row still equals the set's own state is left
        alone, so a session rebuilds ``CacheLine`` objects only for the
        sets its ops changed, not for the level's whole live state.
        """
        stats = level.stats
        stats.hits += stats_delta[0]
        stats.misses += stats_delta[1]
        stats.fills += stats_delta[2]
        stats.evictions += stats_delta[3]
        stats.invalidations += stats_delta[4]
        ways = self.ways
        kind = self.kind
        tags = self.tags
        ages = self.ages
        busy = self.busy
        pref = self.pref
        bits = self.bits
        mru = self.mru
        promo = self.promo
        stacks = self.stacks
        stride = ways - 1
        sps = self.sets_per_slice
        imported = self.imported
        sets = level._sets
        factory = level._policy_factory
        for dense, base in self.bases.items():
            s = dense // ways
            key = (s // sps, s % sps)
            way_states = tuple(
                None
                if tags[slot] == -1
                else (tags[slot], ages[slot], busy[slot], pref[slot])
                for slot in range(base, base + ways)
            )
            row = base // ways
            if kind == KIND_TREEPLRU:
                b = bits[row]
                policy_state: tuple = tuple((b >> i) & 1 for i in range(stride))
            elif kind == KIND_BITPLRU:
                policy_state = tuple(mru[base : base + ways])
            elif kind == KIND_QLRU:
                policy_state = (promo[row],)
            elif kind == KIND_TRUELRU:
                policy_state = tuple(stacks.get(base, ()))
            else:
                policy_state = ()
            state = (way_states, policy_state)
            if row < imported:
                cache_set = sets[key]
                if cache_set.capture() == state:
                    continue
            else:
                cache_set = sets[key] = CacheSet(factory(ways))
            cache_set.restore(state)


class Session(NamedTuple):
    """An open plane session on one machine (see :func:`open_session`)."""

    step: Callable[..., MemOpResult]
    close: Callable[[], None]


def open_session(machine) -> Session:
    """Sync ``machine`` into fresh planes for op-at-a-time execution.

    ``step(code, core, tag, b1, b2, b3, now)`` executes one op — an
    opcode of :mod:`repro.engine.compile`, the issuing core, and the op's
    route (line tag plus the dense L1/L2/LLC bases a compiled row or
    :func:`~repro.engine.compile.routes` gives) — at cycle ``now``, and
    returns its interned :class:`MemOpResult`.  Cache state, level
    statistics and per-core PMU counters change exactly as the object
    engine's ``Core`` → ``CacheHierarchy`` path would change them.  Time
    belongs to the caller: ``step`` neither reads nor advances
    ``machine.clock``.

    Until ``close()`` the planes, not the object hierarchy, hold the
    machine's cache state, so nothing may read or drive the hierarchy
    in between.  ``close()`` writes cache state, ``LevelStats`` deltas and
    PMU counter deltas back; calling it again does nothing.
    """
    if not supports(machine):
        raise SimulationError(
            "SoA backend does not support this machine's replacement policies"
        )
    hierarchy = machine.hierarchy
    config = machine.config
    n_cores = config.cores
    llc_kind = machine._soa_llc_kind
    LKIND = llc_kind[0]
    l1_planes = [_Plane(level, KIND_TREEPLRU) for level in hierarchy.l1s]
    l2_planes = [_Plane(level, KIND_TREEPLRU) for level in hierarchy.l2s]
    llc = _Plane(hierarchy.llc, LKIND)

    lat = config.latency
    LAT_DRAM = lat.dram
    R_L1_LOAD = hierarchy._r_l1_load
    R_L1_PREF = hierarchy._r_l1_prefetch
    R_L2_LOAD = hierarchy._r_l2_load
    R_L2_PREF = hierarchy._r_l2_prefetch
    R_LLC = hierarchy._r_llc
    R_DRAM = hierarchy._r_dram
    R_FLUSH = hierarchy._r_flush
    R_FLUSH_CACHED = hierarchy._r_flush_cached

    # Private-level geometry (power of two: Tree-PLRU enforces it).
    W1 = config.l1.ways
    W1_SHIFT = W1.bit_length() - 1
    W1_M1 = W1 - 1
    W2 = config.l2.ways
    W2_SHIFT = W2.bit_length() - 1
    W2_M1 = W2 - 1
    W3 = config.llc.ways

    if LKIND == KIND_QLRU:
        LOAD_AGE, PREF_AGE, PHU = llc_kind[1], llc_kind[2], llc_kind[3]
    elif LKIND == KIND_SRRIP:
        INSERT_RRPV, HIT_HP = llc_kind[1], llc_kind[2] == "hp"

    # Hot-path local bindings of plane buffers.  Rows are appended in
    # place, so these bindings stay valid as the planes grow.
    l1_tags = [p.tags for p in l1_planes]
    l1_bits = [p.bits for p in l1_planes]
    l1_nval = [p.nvalid for p in l1_planes]
    l1_present = [p.present for p in l1_planes]
    l2_tags = [p.tags for p in l2_planes]
    l2_bits = [p.bits for p in l2_planes]
    l2_nval = [p.nvalid for p in l2_planes]
    l2_present = [p.present for p in l2_planes]
    ltags = llc.tags
    lages = llc.ages
    lbusy = llc.busy
    lpref = llc.pref
    lnval = llc.nvalid
    lbits = llc.bits
    lmru = llc.mru
    lpromo = llc.promo
    lstacks = llc.stacks
    lpresent = llc.present
    lbases = llc.bases
    ladd_set = llc.add_set

    # Per-plane LevelStats deltas: [hits, misses, fills, evictions, invals].
    l1_stats = [[0] * 5 for _ in range(n_cores)]
    l2_stats = [[0] * 5 for _ in range(n_cores)]
    llc_stats = [0] * 5
    # Per-core PMU deltas.
    d_refs = [0] * n_cores
    d_flush = [0] * n_cores
    d_llc_ref = [0] * n_cores
    d_llc_miss = [0] * n_cores

    core_range = range(n_cores)

    def _make_priv_fill(plane, W, WSHIFT, stats):
        """Build a per-core fill closure mirroring CacheSet.fill on a
        Tree-PLRU private plane.

        Every plane buffer is closure-bound, so a fill is a single call
        with no attribute loads; the Tree-PLRU victim walk and touch are
        the precomputed table lookups of :func:`_plru_tables`.  Dropped
        fills (every way in flight — only possible for pathological
        imported state; private fills never set ``busy``) account
        nothing, matching the object engine.
        """
        tags = plane.tags
        ages = plane.ages
        busy = plane.busy
        pref = plane.pref
        bits = plane.bits
        nval = plane.nvalid
        present = plane.present
        bases = plane.bases
        add_set = plane.add_set
        t_and, t_or, t_vict = _plru_tables(W)

        def fill(dense, tag, now):
            base = bases.get(dense)
            if base is None:
                base = add_set(dense)
            s = base >> WSHIFT
            n = nval[s]
            if n < W:
                slot = tags.index(-1, base, base + W)
                way = slot - base
                nval[s] = n + 1
            else:
                way = t_vict[bits[s]]
                slot = base + way
                if busy[slot] > now:
                    slot = -1
                    for cand in range(base, base + W):
                        if busy[cand] <= now:
                            slot = cand
                            break
                    if slot < 0:
                        return
                    way = slot - base
                del present[tags[slot]]
                stats[3] += 1
            tags[slot] = tag
            ages[slot] = 0
            busy[slot] = 0
            pref[slot] = False
            present[tag] = slot
            stats[2] += 1
            bits[s] = bits[s] & t_and[way] | t_or[way]  # on_fill touch

        return fill

    l1_fill = [
        _make_priv_fill(l1_planes[c], W1, W1_SHIFT, l1_stats[c])
        for c in core_range
    ]
    l2_fill = [
        _make_priv_fill(l2_planes[c], W2, W2_SHIFT, l2_stats[c])
        for c in core_range
    ]

    # Tree-PLRU transition tables for the hit-path touches.
    T1_AND, T1_OR, _ = _plru_tables(W1)
    T2_AND, T2_OR, _ = _plru_tables(W2)
    if LKIND == KIND_TREEPLRU:
        T3_AND, T3_OR, T3_VICT = _plru_tables(W3)

    def _llc_hit(slot, is_pref):
        """Mirror of the LLC policy's on_hit."""
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

    def _fill_llc(dense, tag, is_pref, now, busy_until):
        """Mirror of CacheLevel.fill on the LLC plane.

        Returns ``(evicted_tag, inserted)`` with ``-1`` for "nothing
        evicted"; accounts fills/evictions in ``llc_stats``.
        """
        base = lbases.get(dense)
        if base is None:
            base = ladd_set(dense)
        s = base // W3
        n = lnval[s]
        evicted = -1
        if n < W3:
            slot = ltags.index(-1, base, base + W3)
            lnval[s] = n + 1
        else:
            slot = -1
            if LKIND == KIND_QLRU or LKIND == KIND_SRRIP:
                # Fast path: the first evictable way (way order) already at
                # max age — identical to the object engine's first scan
                # round, without materializing the evictable list.
                for i in range(base, base + W3):
                    if lages[i] == _MAX_AGE and lbusy[i] <= now:
                        slot = i
                        break
                if slot < 0:
                    evictable = [
                        i for i in range(base, base + W3) if lbusy[i] <= now
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
                if lbusy[slot] > now:
                    slot = -1
                    for i in range(base, base + W3):
                        if lbusy[i] <= now:
                            slot = i
                            break
                    if slot < 0:
                        return -1, False
            elif LKIND == KIND_BITPLRU:
                for i in range(base, base + W3):
                    if not lmru[i] and lbusy[i] <= now:
                        slot = i
                        break
                if slot < 0:
                    for i in range(base, base + W3):
                        if lbusy[i] <= now:
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
                    if ltags[i] != -1 and lbusy[i] <= now:
                        slot = i
                        break
                if slot < 0:
                    for way in range(W3):
                        i = base + way
                        if ltags[i] != -1 and lbusy[i] <= now and way not in stack:
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
        lpref[slot] = is_pref
        lpresent[tag] = slot
        # on_fill per policy kind.
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

    def _back_inval(tag):
        """Inclusion: purge every private copy of an evicted/flushed tag."""
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

    def step(code, core, tag, b1, b2, b3, now):
        if code <= 2:  # load / prefetchnta / prefetcht0 all probe L1 first
            d_refs[core] += 1
            slot = l1_present[core].get(tag)
            stats = l1_stats[core]
            if slot is not None:
                stats[0] += 1
                bits = l1_bits[core]
                s = slot >> W1_SHIFT
                way = slot & W1_M1
                bits[s] = bits[s] & T1_AND[way] | T1_OR[way]
                # prefetchnta / prefetcht0 report the issue cost
                return R_L1_LOAD if code == 0 else R_L1_PREF
            stats[1] += 1
            slot = l2_present[core].get(tag)
            stats = l2_stats[core]
            if slot is not None:
                stats[0] += 1
                bits = l2_bits[core]
                s = slot >> W2_SHIFT
                way = slot & W2_M1
                bits[s] = bits[s] & T2_AND[way] | T2_OR[way]
                l1_fill[core](b1, tag, now)
                return R_L2_LOAD
            stats[1] += 1
            is_nta = code == 1
            slot = lpresent.get(tag)
            if slot is not None:
                llc_stats[0] += 1
                # Property #2: a PREFETCHNTA hit does not refresh the age.
                _llc_hit(slot, is_nta)
                if not is_nta:
                    l2_fill[core](b2, tag, now)
                l1_fill[core](b1, tag, now)
                d_llc_ref[core] += 1
                return R_LLC
            llc_stats[1] += 1
            # Property #1: a PREFETCHNTA miss installs the eviction candidate.
            evicted, inserted = _fill_llc(b3, tag, is_nta, now, now + LAT_DRAM)
            if evicted != -1:
                _back_inval(evicted)
            if inserted:
                if not is_nta:
                    l2_fill[core](b2, tag, now)
                l1_fill[core](b1, tag, now)
            d_llc_ref[core] += 1
            d_llc_miss[core] += 1
            return R_DRAM
        if code == 5:  # clflush
            d_flush[core] += 1
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
                _back_inval(tag)
                return R_FLUSH_CACHED
            _back_inval(tag)
            return R_FLUSH
        # prefetcht1 / prefetcht2
        d_refs[core] += 1
        if tag in l1_present[core]:  # presence check only: no stats
            return R_L1_PREF
        slot = l2_present[core].get(tag)
        stats = l2_stats[core]
        if slot is not None:
            stats[0] += 1
            bits = l2_bits[core]
            s = slot >> W2_SHIFT
            way = slot & W2_M1
            bits[s] = bits[s] & T2_AND[way] | T2_OR[way]
            return R_L2_PREF
        stats[1] += 1
        slot = lpresent.get(tag)
        if slot is not None:
            llc_stats[0] += 1
            _llc_hit(slot, False)  # demand-age treatment: not leaky
            l2_fill[core](b2, tag, now)
            d_llc_ref[core] += 1
            return R_LLC
        llc_stats[1] += 1
        evicted, inserted = _fill_llc(b3, tag, False, now, now + LAT_DRAM)
        if evicted != -1:
            _back_inval(evicted)
        if inserted:
            l2_fill[core](b2, tag, now)
        d_llc_ref[core] += 1
        d_llc_miss[core] += 1
        return R_DRAM

    closed = False

    def close() -> None:
        nonlocal closed
        if closed:
            return
        closed = True
        for c in core_range:
            core = machine.cores[c]
            core.memory_references += d_refs[c]
            core.flushes += d_flush[c]
            core.llc_references += d_llc_ref[c]
            core.llc_misses += d_llc_miss[c]
            l1_planes[c].sync_out(hierarchy.l1s[c], l1_stats[c])
            l2_planes[c].sync_out(hierarchy.l2s[c], l2_stats[c])
        llc.sync_out(hierarchy.llc, llc_stats)

    return Session(step, close)


def execute(machine, compiled: CompiledTrace, record: bool = False):
    """Run a compiled trace on the SoA planes; returns the result list or None.

    One session, stepped through the trace on the sequential clock: the
    machine changes exactly as under the object engine's ``run_trace``
    loop — cache state, level statistics, per-core PMU counters, and the
    clock.  Callers (``Machine.run_trace``) own metrics flushing and
    pollution wiring.
    """
    if compiled.config_name != machine.config.name:
        raise SimulationError(
            f"compiled trace is for config {compiled.config_name!r}, "
            f"machine is {machine.config.name!r}"
        )
    step, close = open_session(machine)
    clock = machine.clock
    results: Optional[List] = [] if record else None
    try:
        if record:
            append = results.append
            for code, core, tag, b1, b2, b3 in compiled.rows():
                result = step(code, core, tag, b1, b2, b3, clock)
                clock += result.latency
                append(result)
        else:
            for code, core, tag, b1, b2, b3 in compiled.rows():
                clock += step(code, core, tag, b1, b2, b3, clock).latency
    finally:
        machine.clock = clock
        close()
    return results


# ----------------------------------------------------------------------
# Public NumPy views (introspection, tests, docs examples)
# ----------------------------------------------------------------------

def hierarchy_arrays(machine) -> Dict[str, Dict[str, np.ndarray]]:
    """The hierarchy's current state as ``[set, way]``-shaped NumPy planes.

    One entry per level (``L1[0]``, …, ``LLC``) with ``tags`` (``-1`` =
    invalid), ``ages``, ``valid``, ``busy``, and ``prefetched`` arrays.
    Built fresh from the object state, so it reflects the ground truth
    under either backend.
    """
    out: Dict[str, Dict[str, np.ndarray]] = {}
    for level in machine.hierarchy.levels():
        geo = level.geometry
        n_sets = geo.slices * geo.sets
        ways = geo.ways
        tags = np.full((n_sets, ways), -1, dtype=np.int64)
        ages = np.zeros((n_sets, ways), dtype=np.int64)
        busy = np.zeros((n_sets, ways), dtype=np.int64)
        valid = np.zeros((n_sets, ways), dtype=bool)
        pref = np.zeros((n_sets, ways), dtype=bool)
        for (sl, si), cache_set in level._sets.items():
            s = sl * geo.sets + si
            for w, line in enumerate(cache_set.ways):
                if line is not None:
                    tags[s, w] = line.tag
                    ages[s, w] = line.age
                    busy[s, w] = line.busy_until
                    valid[s, w] = True
                    pref[s, w] = line.prefetched
        out[level.name] = {
            "tags": tags, "ages": ages, "valid": valid,
            "busy": busy, "prefetched": pref,
        }
    return out


def pmu_vectors(machine) -> Dict[str, np.ndarray]:
    """Per-core PMU-analog counters as NumPy vectors (index = core id)."""
    cores = machine.cores
    return {
        "memory_references": np.array(
            [c.memory_references for c in cores], dtype=np.int64
        ),
        "flushes": np.array([c.flushes for c in cores], dtype=np.int64),
        "llc_references": np.array(
            [c.llc_references for c in cores], dtype=np.int64
        ),
        "llc_misses": np.array([c.llc_misses for c in cores], dtype=np.int64),
    }


__all__ = [
    "CompiledTrace",
    "OP_NAMES",
    "Session",
    "execute",
    "hierarchy_arrays",
    "open_session",
    "pmu_vectors",
    "supports",
]
