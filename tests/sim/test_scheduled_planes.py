"""Scheduled runs on the SoA planes match the object hierarchy bit for bit.

Every ``Scheduler`` user runs twice from identical machines: once on the
plane session (the default for supported machines) and once forced onto the
object-hierarchy fallback through the machine's cached
``_soa_supported = False``.  Results, cache state, core counters, the clock
and the checkpoint digest must all agree.
"""

import random

import pytest

from repro.attacks.ntp_ntp import NTPNTPChannel
from repro.attacks.occupancy import OccupancyChannel, make_occupancy_demo_machine
from repro.attacks.prefetch_prefetch import PrefetchPrefetchChannel
from repro.attacks.prime_probe import PrimeProbeChannel
from repro.attacks.prime_scope import PrimePrefetchScope, PrimeScope
from repro.attacks.redundant_ntp import RedundantNTPChannel
from repro.config import KABY_LAKE, SKYLAKE
from repro.engine import soa
from repro.engine.compile import OP_FLUSH, routes
from repro.experiments.detection import run_detection_experiment
from repro.experiments.end_to_end_spy import run_end_to_end_spy
from repro.experiments.keystrokes import run_keystroke_experiment
from repro.experiments.noise_sweep import VARIANTS, _noise_body, _noise_setup
from repro.experiments.prep_latency import run_prep_latency_experiment
from repro.experiments.resolution import (
    measure_scope_granularity,
    run_resolution_experiment,
)
from repro.runner import make_shards
from repro.sim.machine import Machine
from repro.sim.process import Load, PrefetchNTA, Sleep
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder


@pytest.fixture
def sessions(monkeypatch):
    """Counts the plane sessions the scheduler opens."""
    opened = []
    real = soa.open_session

    def counting(machine):
        opened.append(machine)
        return real(machine)

    monkeypatch.setattr(soa, "open_session", counting)
    return opened


def _forced_object(machine: Machine) -> Machine:
    machine._soa_supported = False  # soa.supports() answers from this cache
    return machine


def _state(machine: Machine) -> tuple:
    return (
        machine.hierarchy.capture(),
        [
            (c.memory_references, c.flushes, c.llc_references, c.llc_misses)
            for c in machine.cores
        ],
        machine.clock,
        machine.checkpoint().digest(),
    )


def _assert_twins(build, experiment, sessions) -> None:
    """Run ``experiment`` on the planes and on the forced object path."""
    planes = build()
    forced = _forced_object(build())
    on_planes = experiment(planes)
    assert sessions and all(m is planes for m in sessions)
    del sessions[:]
    on_objects = experiment(forced)
    assert not sessions
    assert on_planes == on_objects
    assert _state(planes) == _state(forced)


def _bits(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(n)]


# ---------------------------------------------------------------------------
# Table II: both channels on both platforms


@pytest.mark.parametrize("config", [SKYLAKE, KABY_LAKE], ids=["skylake", "kaby-lake"])
@pytest.mark.parametrize(
    "channel_cls, interval",
    [(NTPNTPChannel, 1400), (PrimeProbeChannel, 10000)],
    ids=["ntp+ntp", "prime+probe"],
)
def test_table2_channels(config, channel_cls, interval, sessions):
    def experiment(machine):
        channel = channel_cls(machine, seed=3)
        return channel.transmit(_bits(32, 3), interval)

    _assert_twins(lambda: Machine(config, seed=5), experiment, sessions)


def test_noise_sweep_variants(sessions):
    shards = make_shards(4, [
        {
            "config": SKYLAKE, "machine_seed": 2, "engine": "object",
            "name": name, "kind": kind, "kwargs": kwargs,
            "interval": interval, "bias": 0.04, "n_bits": 24, "seed": 4,
        }
        for name, kind, kwargs, interval in VARIANTS
    ])
    for shard in shards:
        prefix = {
            key: shard.params[key]
            for key in ("config", "machine_seed", "kind", "kwargs", "seed", "engine")
        }
        built = {}

        def build():
            machine, built[machine] = _noise_setup(prefix)
            return machine

        _assert_twins(
            build, lambda m: _noise_body(m, built[m], shard), sessions
        )
        del sessions[:]


# ---------------------------------------------------------------------------
# Prime+Scope family: detection, resolution, prep latency and the spies


@pytest.mark.parametrize("attack_cls", [PrimeScope, PrimePrefetchScope])
def test_detection(attack_cls, sessions):
    _assert_twins(
        lambda: Machine.skylake(seed=93),
        lambda m: run_detection_experiment(m, attack_cls, duration=150_000),
        sessions,
    )


@pytest.mark.parametrize("attack_cls", [PrimeScope, PrimePrefetchScope])
def test_resolution(attack_cls, sessions):
    def experiment(machine):
        return (
            measure_scope_granularity(machine, attack_cls, window=50_000),
            run_resolution_experiment(machine, attack_cls, events=8),
        )

    _assert_twins(lambda: Machine.skylake(seed=154), experiment, sessions)


def test_keystrokes(sessions):
    _assert_twins(
        lambda: Machine.skylake(seed=281),
        lambda m: run_keystroke_experiment(m, text="leaky"),
        sessions,
    )


def test_end_to_end_spy(sessions):
    _assert_twins(
        lambda: Machine.skylake(seed=180),
        lambda m: run_end_to_end_spy(m, _bits(16, 180), traces=2),
        sessions,
    )


def test_prep_latency(sessions):
    _assert_twins(
        lambda: Machine.kaby_lake(seed=92),
        lambda m: run_prep_latency_experiment(m, rounds=12),
        sessions,
    )


# ---------------------------------------------------------------------------
# The other channels


def test_occupancy_channel(sessions):
    _assert_twins(
        lambda: make_occupancy_demo_machine(seed=331),
        lambda m: OccupancyChannel(m).transmit(_bits(6, 331), interval=220_000),
        sessions,
    )


def test_prefetch_prefetch_channel(sessions):
    _assert_twins(
        lambda: Machine.skylake(seed=232),
        lambda m: PrefetchPrefetchChannel(m).transmit(_bits(32, 232), 1500),
        sessions,
    )


def test_redundant_ntp_channel(sessions):
    from repro.victims.noise import NoiseConfig

    _assert_twins(
        lambda: Machine.skylake(seed=165),
        lambda m: RedundantNTPChannel(m, redundancy=3).transmit(
            _bits(24, 165), 2400, noise=NoiseConfig(target_bias=0.02)
        ),
        sessions,
    )


# ---------------------------------------------------------------------------
# Session lifetime


def test_program_raising_mid_run_leaves_same_synced_state(sessions):
    class Boom(Exception):
        pass

    def experiment(machine):
        space = machine.address_space("p")
        lines = machine.llc_eviction_set(space, space.alloc_pages(1)[0], size=20)

        def walker():
            for line in lines:
                yield Load(line)
                yield Sleep(7)

        def failing():
            for line in lines[:9]:
                yield PrefetchNTA(line)
            raise Boom()

        scheduler = Scheduler(machine)
        walk = scheduler.spawn("walker", 0, walker(), start_time=machine.clock)
        scheduler.spawn("failing", 1, failing(), start_time=machine.clock)
        with pytest.raises(Boom):
            scheduler.run()
        return walk.time

    _assert_twins(lambda: Machine.skylake(seed=11), experiment, sessions)


def test_hooked_scheduler_runs_on_object_hierarchy(sessions):
    """An execute hook reads object state between ops, so no session opens."""
    machine = Machine.skylake(seed=1)
    target = machine.address_space("p").alloc_pages(1)[0]

    def program():
        yield Load(target)
        yield PrefetchNTA(target)

    scheduler = Scheduler(machine)
    with TraceRecorder(machine, watch=[target]).attach(scheduler) as recorder:
        scheduler.spawn("p", 0, program(), start_time=machine.clock)
        scheduler.run()
    assert not sessions
    assert len(recorder.events) == 2
    # Detached, the scheduler is back on the planes.
    scheduler.spawn("q", 1, program(), start_time=machine.clock)
    scheduler.run()
    assert sessions == [machine]


def test_close_rebuilds_only_changed_sets():
    """close() writes back the sets the session changed and leaves every
    other live set's ``CacheLine`` objects in place."""

    def build():
        machine = Machine.skylake(seed=2)
        page = machine.address_space("p").alloc_pages(1)[0]
        kept, flushed = page, page + 64  # distinct sets at every level
        machine.cores[0].load(kept)
        machine.cores[0].load(flushed)
        return machine, kept, flushed

    planes, kept, flushed = build()
    hierarchy = planes.hierarchy
    levels = [hierarchy.l1s[0], hierarchy.l2s[0], hierarchy.llc]
    kept_lines = [list(level.peek_set(kept).ways) for level in levels]
    step, close = soa.open_session(planes)
    tag, b1, b2, b3 = routes(planes)[1](flushed)
    step(OP_FLUSH, 0, tag, b1, b2, b3, planes.clock)
    close()
    for level, lines in zip(levels, kept_lines):
        assert all(a is b for a, b in zip(level.peek_set(kept).ways, lines))
        assert not level.peek_set(flushed).contains(flushed)

    objects, _, _ = build()
    objects.cores[0].clflush(flushed, at=objects.clock)
    assert _state(planes) == _state(objects)
