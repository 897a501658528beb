"""Differential testing: trial-batched backend vs per-trial scalar engines.

The batch backend (:mod:`repro.engine.batch`) runs N independent trials as
one array program over shared coherent state.  Its contract is bit-identity
*per trial*: trial ``t`` of a batch — the recorded :class:`MemOpResult`
stream, the end clock, the PMU deltas, and (after :meth:`BatchResult.apply`)
the whole machine state down to the checkpoint digest — must equal a
machine that ran ``traces[t]`` alone through the SoA or object engine.
These tests pin that across every stock replacement policy, multi-core
eviction pressure, pollution streams, unequal trace lengths, warm-start
prefixes, and cross-backend checkpoint round-trips.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.lru import TrueLRU
from repro.cache.plru import BitPLRU, TreePLRU
from repro.cache.qlru import QuadAgeLRU
from repro.cache.srrip import SRRIP
from repro.config import SKYLAKE, CacheGeometry, PlatformConfig
from repro.engine import BatchMachine, TrialView, run_trace_batch
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.sim.machine import Machine

TINY = PlatformConfig(
    name="tiny-batch-diff",
    microarchitecture="test",
    cores=2,
    frequency_hz=1e9,
    l1=CacheGeometry(sets=4, ways=2),
    l2=CacheGeometry(sets=8, ways=2),
    llc=CacheGeometry(sets=8, ways=4, slices=2),
)

OPS = ("load", "prefetchnta", "prefetcht0", "prefetcht1", "prefetcht2", "clflush")

POLICIES = {
    "qlru": None,
    "qlru-countermeasure": lambda w: QuadAgeLRU(
        w, load_insert_age=1, prefetch_insert_age=2
    ),
    "qlru-prefetch-hit": lambda w: QuadAgeLRU(w, prefetch_hit_updates=True),
    "lru": TrueLRU,
    "plru": TreePLRU,
    "bitplru": BitPLRU,
    "srrip": SRRIP,
    "srrip-fp": lambda w: SRRIP(w, hit_promotion="fp"),
}


def mixed_trace(seed, length, cores=TINY.cores, n_lines=64):
    rng = random.Random(seed)
    return [
        (rng.choice(OPS), rng.randrange(cores), rng.randrange(n_lines) * 64)
        for _ in range(length)
    ]


def divergent_traces(seed, trials, length, cores=TINY.cores, n_lines=64):
    return [
        mixed_trace(seed * 101 + t, length, cores=cores, n_lines=n_lines)
        for t in range(trials)
    ]


def coherent_traces(seed, trials, length, cores=TINY.cores, n_lines=64):
    """Traces identical except one op in the middle: the coherent fast
    path runs most rows and must diverge/reconverge correctly."""
    base = mixed_trace(seed, length, cores=cores, n_lines=n_lines)
    traces = []
    for t in range(trials):
        trace = list(base)
        trace[length // 2] = ("load", t % cores, (t * 7 % n_lines) * 64)
        traces.append(trace)
    return traces


def scalar_machine(config, backend, seed=0, policy=None, faults=None):
    return Machine(
        config, seed=seed, llc_policy_factory=policy, faults=faults,
        backend=backend,
    )


def assert_batch_matches_scalar(
    config, traces, seed=0, policy=None, faults=None, prefix=None
):
    """Run ``traces`` batched and compare every trial against fresh SoA and
    object machines running that trial's trace alone."""
    batch_host = scalar_machine(config, "object", seed, policy, faults)
    if prefix is not None:
        batch_host.run_trace(prefix)
    start = batch_host.checkpoint()
    result = run_trace_batch(batch_host, traces, record=True)

    def pmu(machine):
        return [
            {
                "memory_references": core.memory_references,
                "flushes": core.flushes,
                "llc_references": core.llc_references,
                "llc_misses": core.llc_misses,
            }
            for core in machine.cores
        ]

    for t, trace in enumerate(traces):
        refs = {}
        for backend in ("soa", "object"):
            ref = scalar_machine(config, backend, seed, policy, faults)
            if prefix is not None:
                ref.run_trace(prefix)
            pre = pmu(ref)
            refs[backend] = (ref, ref.run_trace(trace, record=True), pre)
        soa_ref, soa_results, soa_pre = refs["soa"]
        obj_ref, obj_results, _ = refs["object"]
        assert soa_results == obj_results

        trial_results = result.results(t)
        assert len(trial_results) == len(soa_results)
        for i, (a, b) in enumerate(zip(trial_results, soa_results)):
            assert a.level is b.level, (t, i, a, b)
            assert a.latency == b.latency, (t, i, a, b)
            assert a.was_llc_miss == b.was_llc_miss, (t, i)
        assert result.clock(t) == soa_ref.clock
        assert result.length(t) == len(trial_results)
        # PMU deltas are batch-relative: subtract the prefix's counts.
        assert result.pmu_deltas(t) == [
            {field: post[field] - before[field] for field in post}
            for post, before in zip(pmu(soa_ref), soa_pre)
        ]

        # Apply the trial and compare the whole machine, digest included.
        batch_host.restore(start)
        result.apply(t)
        assert batch_host.clock == soa_ref.clock
        assert result.trial(t) == (batch_host.clock, tuple(trial_results))
        assert batch_host.hierarchy.snapshot() == soa_ref.hierarchy.snapshot()
        assert (
            batch_host.hierarchy.stats_tuple() == soa_ref.hierarchy.stats_tuple()
        )
        for bc, sc in zip(batch_host.cores, soa_ref.cores):
            assert bc.memory_references == sc.memory_references
            assert bc.flushes == sc.flushes
            assert bc.llc_references == sc.llc_references
            assert bc.llc_misses == sc.llc_misses
        assert batch_host.checkpoint().digest() == soa_ref.checkpoint().digest()
        if faults is not None:
            assert batch_host.pollution.injected == soa_ref.pollution.injected
    return result


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policies_identical_per_trial(policy):
    traces = divergent_traces(7, trials=5, length=700)
    assert_batch_matches_scalar(TINY, traces, seed=2, policy=POLICIES[policy])


def test_coherent_heavy_traces_identical():
    """Mostly-shared traces keep rows coherent; the single divergent op
    forces per-set splits that must stay isolated per trial."""
    traces = coherent_traces(11, trials=6, length=900)
    assert_batch_matches_scalar(TINY, traces, seed=0)


def test_unequal_trace_lengths():
    traces = [mixed_trace(t + 30, 100 + 150 * t) for t in range(5)]
    assert_batch_matches_scalar(TINY, traces, seed=1)


def test_warm_start_prefix_identical():
    """Batches launched from a restored checkpoint (the sweep executor's
    shape) match scalar machines that replayed the same prefix."""
    prefix = mixed_trace(77, 600)
    traces = divergent_traces(78, trials=4, length=400)
    assert_batch_matches_scalar(TINY, traces, seed=3, prefix=prefix)


def test_pollution_streams_identical_per_trial():
    faults = FaultPlan(seed=13, pollution_probability=0.05, pollution_burst=3)
    traces = divergent_traces(21, trials=4, length=600)
    assert_batch_matches_scalar(TINY, traces, seed=3, faults=faults)


@pytest.mark.parametrize("faults", [
    None,
    FaultPlan(seed=17, pollution_probability=0.05, pollution_burst=3),
], ids=["clean", "polluted"])
def test_trial_view_matches_rebuilt_machine(faults):
    """``BatchResult.trial(t)`` replaces rebuilding trial ``t`` with
    ``restore(start)`` + ``apply(t)``: its clock and results must be what
    the rebuilt machine and a scalar replay from ``start`` report."""
    host = scalar_machine(TINY, "object", seed=6, faults=faults)
    host.run_trace(mixed_trace(90, 300))
    start = host.checkpoint()
    traces = (
        coherent_traces(91, trials=3, length=400)
        + divergent_traces(92, trials=3, length=250)
        + [mixed_trace(93, 120)]
    )
    result = run_trace_batch(host, traces, record=True)
    views = [result.trial(t) for t in range(result.trials)]
    assert host.checkpoint().digest() == start.digest()  # views touch nothing
    for t, (trace, view) in enumerate(zip(traces, views)):
        assert isinstance(view, TrialView)
        host.restore(start)
        result.apply(t)
        assert view.clock == host.clock
        assert view.results == tuple(result.results(t))
        replay = scalar_machine(TINY, "object", seed=6, faults=faults)
        replay.restore(start)
        assert list(view.results) == replay.run_trace(trace, record=True)
        assert view.clock == replay.clock
    with pytest.raises(AttributeError):
        views[0].clock = 0


def test_skylake_eviction_pressure():
    """Congruent-line hammering on a paper platform: eviction, aging, and
    back-invalidation paths dominate every trial."""
    machine = Machine(SKYLAKE, seed=5, backend="object")
    space = machine.address_space("batch-diff")
    target = space.alloc_pages(1)[0]
    evset = machine.llc_eviction_set(space, target, size=SKYLAKE.llc.ways + 4)
    lines = [target, *evset]
    traces = []
    for t in range(4):
        rng = random.Random(40 + t)
        traces.append([
            (rng.choice(OPS), rng.randrange(SKYLAKE.cores), rng.choice(lines))
            for _ in range(1500)
        ])
    start = machine.checkpoint()
    result = run_trace_batch(machine, traces, record=True)
    for t, trace in enumerate(traces):
        ref = Machine(SKYLAKE, seed=5, backend="soa")
        ref_space = ref.address_space("batch-diff")
        assert ref_space.alloc_pages(1)[0] == target
        assert ref.llc_eviction_set(ref_space, target,
                                    size=SKYLAKE.llc.ways + 4) == evset
        ref.run_trace(trace)
        machine.restore(start)
        result.apply(t)
        assert machine.checkpoint().digest() == ref.checkpoint().digest()


def test_cross_backend_checkpoint_roundtrip():
    """A checkpoint of an applied batch trial restores into an object-engine
    machine, and both continuations stay bit-identical."""
    host = Machine(TINY, seed=9, backend="object")
    traces = divergent_traces(55, trials=3, length=500)
    start = host.checkpoint()
    result = run_trace_batch(host, traces, record=True)
    host.restore(start)
    result.apply(1)
    checkpoint = host.checkpoint()

    other = Machine(TINY, seed=9, backend="object")
    other.restore(checkpoint)
    assert other.checkpoint().digest() == checkpoint.digest()
    tail = mixed_trace(56, 400)
    assert other.run_trace(tail, record=True) == host.run_trace(
        tail, record=True
    )
    assert other.checkpoint().digest() == host.checkpoint().digest()


def test_batch_of_one_matches_run_trace_routing():
    """``backend="batch"`` on run_trace is a one-trial batch and must equal
    the object engine exactly."""
    trace = mixed_trace(3, 1200)
    via_batch = Machine(TINY, seed=4, backend="batch")
    via_object = Machine(TINY, seed=4, backend="object")
    assert via_batch.run_trace(trace, record=True) == via_object.run_trace(
        trace, record=True
    )
    assert (
        via_batch.checkpoint().digest() == via_object.checkpoint().digest()
    )


def test_apply_requires_start_state_and_fresh_epoch():
    host = Machine(TINY, seed=0, backend="object")
    traces = divergent_traces(1, trials=2, length=200)
    start = host.checkpoint()
    result = run_trace_batch(host, traces)
    # Applying without restoring first: only valid while the clock still
    # sits at the batch's start (trial 0 is free; a second apply is not).
    host.restore(start)
    result.apply(0)
    with pytest.raises(SimulationError):
        result.apply(1)
    # A newer batch invalidates the old result even at the right clock.
    host.restore(start)
    stale = run_trace_batch(host, traces)
    run_trace_batch(host, traces)
    host.restore(start)
    with pytest.raises(SimulationError):
        stale.apply(0)


def test_batch_machine_front_end_validates_eagerly():
    class ExoticLRU(TrueLRU):
        pass

    with pytest.raises(SimulationError):
        BatchMachine(Machine(TINY, seed=0, llc_policy_factory=ExoticLRU))
    bm = BatchMachine(Machine(TINY, seed=0))
    result = bm.run([mixed_trace(2, 50)], record=True)
    assert result.trials == 1


@settings(max_examples=40, deadline=None)
@given(
    traces=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(min_value=0, max_value=TINY.cores - 1),
                st.integers(min_value=0, max_value=47).map(lambda l: l * 64),
            ),
            max_size=120,
        ),
        min_size=1,
        max_size=4,
    ),
    policy=st.sampled_from(sorted(POLICIES)),
)
def test_hypothesis_random_batches_identical(traces, policy):
    assert_batch_matches_scalar(TINY, traces, seed=0, policy=POLICIES[policy])
