"""Backend selection, compiled traces, checkpoints, and the SoA views.

The differential suite (``test_soa_differential.py``) proves the two
backends compute the same thing; this file covers the *plumbing* around
them: how a backend is chosen (argument > machine preference > env var),
what happens when the SoA engine cannot serve a machine, that compiled
traces replay on either backend, that checkpoints round-trip across
backends, and that the NumPy state views mirror the object hierarchy.
"""

import random

import numpy as np
import pytest

from repro.cache.lru import TrueLRU
from repro.cache.plru import TreePLRU
from repro.config import CacheGeometry, PlatformConfig
from repro.engine import (
    BACKENDS,
    ENGINE_ENV_VAR,
    OP_NAMES,
    compile_trace,
    default_backend,
    hierarchy_arrays,
    pmu_vectors,
    resolve_backend,
)
from repro.engine.soa import _plru_tables, supports
from repro.errors import AddressError, ConfigurationError, SimulationError
from repro.sim.machine import Machine
from repro.sim.process import Load
from repro.sim.scheduler import Scheduler

TINY = PlatformConfig(
    name="tiny-backend",
    microarchitecture="test",
    cores=2,
    frequency_hz=1e9,
    l1=CacheGeometry(sets=4, ways=2),
    l2=CacheGeometry(sets=8, ways=2),
    llc=CacheGeometry(sets=8, ways=4, slices=2),
)

OPS = ("load", "prefetchnta", "prefetcht0", "prefetcht1", "prefetcht2", "clflush")


def mixed_trace(seed, length, n_lines=64):
    rng = random.Random(seed)
    return [
        (rng.choice(OPS), rng.randrange(TINY.cores), rng.randrange(n_lines) * 64)
        for _ in range(length)
    ]


class _ExoticLRU(TrueLRU):
    """A policy the SoA engine does not recognise (subclass != stock type)."""


# ---------------------------------------------------------------------------
# Backend resolution


class TestResolution:
    def test_default_is_object(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert default_backend() == "object"
        assert resolve_backend(None) == "object"

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "soa")
        assert default_backend() == "soa"
        assert Machine(TINY, seed=0).backend == "soa"

    def test_empty_env_var_means_object(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "")
        assert default_backend() == "object"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("simd")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "simd")
        with pytest.raises(ConfigurationError):
            Machine(TINY, seed=0)

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "soa")
        assert Machine(TINY, seed=0, backend="object").backend == "object"

    def test_backends_tuple(self):
        assert BACKENDS == ("object", "soa", "batch")
        assert len(OP_NAMES) == 6

    def test_batch_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "batch")
        assert default_backend() == "batch"
        assert Machine(TINY, seed=0).backend == "batch"

    def test_bad_env_value_names_the_source(self, monkeypatch):
        """The eager ConfigurationError points at REPRO_ENGINE, not the
        argument, when the bad name came from the environment."""
        monkeypatch.setenv(ENGINE_ENV_VAR, "simd")
        with pytest.raises(ConfigurationError, match=ENGINE_ENV_VAR):
            Machine(TINY, seed=0)
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend("simd")
        assert ENGINE_ENV_VAR not in str(excinfo.value)
        for name in BACKENDS:
            assert name in str(excinfo.value)

    def test_machine_construction_rejects_bad_argument_eagerly(self):
        """An unknown backend= argument fails at Machine construction,
        before any run_trace, listing the valid backends."""
        with pytest.raises(ConfigurationError, match="object.*soa.*batch"):
            Machine(TINY, seed=0, backend="simd")


# ---------------------------------------------------------------------------
# Unsupported-policy behaviour


class TestUnsupportedPolicies:
    def test_supports_stock_and_rejects_exotic(self):
        assert supports(Machine(TINY, seed=0))
        assert not supports(Machine(TINY, seed=0, llc_policy_factory=_ExoticLRU))

    @pytest.mark.parametrize("backend", ["soa", "batch"])
    def test_explicit_compiled_backend_call_raises(self, backend):
        machine = Machine(TINY, seed=0, llc_policy_factory=_ExoticLRU)
        with pytest.raises(SimulationError):
            machine.run_trace(mixed_trace(1, 10), backend=backend)

    @pytest.mark.parametrize("backend", ["soa", "batch"])
    def test_machine_preference_falls_back_silently(self, backend):
        preferred = Machine(
            TINY, seed=0, llc_policy_factory=_ExoticLRU, backend=backend
        )
        plain = Machine(TINY, seed=0, llc_policy_factory=_ExoticLRU)
        trace = mixed_trace(2, 400)
        assert preferred.run_trace(trace, record=True) == plain.run_trace(
            trace, record=True
        )
        assert preferred.hierarchy.snapshot() == plain.hierarchy.snapshot()


# ---------------------------------------------------------------------------
# Compiled traces


class TestCompiledTrace:
    def test_replays_on_both_backends(self):
        trace = mixed_trace(3, 1500)
        compiled = compile_trace(Machine(TINY, seed=0), trace)
        machines = {
            backend: Machine(TINY, seed=0, backend=backend)
            for backend in BACKENDS
        }
        results = {
            backend: machine.run_trace(compiled, record=True)
            for backend, machine in machines.items()
        }
        assert results["object"] == results["soa"] == results["batch"]
        assert (
            machines["object"].hierarchy.snapshot()
            == machines["soa"].hierarchy.snapshot()
            == machines["batch"].hierarchy.snapshot()
        )
        # Replaying the compiled form == replaying the original tuples.
        fresh = Machine(TINY, seed=0)
        assert fresh.run_trace(trace, record=True) == results["object"]

    def test_ops_round_trip(self):
        trace = mixed_trace(4, 300)
        compiled = compile_trace(Machine(TINY, seed=0), trace)
        assert list(compiled.ops()) == trace
        assert len(compiled) == len(trace)
        assert sum(compiled.op_counts) == len(trace)

    def test_rows_are_cached(self):
        compiled = compile_trace(Machine(TINY, seed=0), mixed_trace(5, 100))
        assert compiled.rows() is compiled.rows()
        assert len(compiled.rows()) == len(compiled)

    def test_compile_validates_up_front(self):
        machine = Machine(TINY, seed=0)
        with pytest.raises(SimulationError):
            compile_trace(machine, [("movnti", 0, 0)])
        with pytest.raises(SimulationError):
            compile_trace(machine, [("load", TINY.cores, 0)])

    def test_soa_bad_op_raises_before_any_state_change(self):
        machine = Machine(TINY, seed=0, backend="soa")
        trace = [("load", 0, 0), ("movnti", 0, 64)]
        with pytest.raises(SimulationError):
            machine.run_trace(trace)
        # Compile-time validation: the valid prefix did NOT execute.
        assert machine.clock == 0
        assert machine.cores[0].memory_references == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [64.0, True], ids=["float", "bool"])
    def test_memoised_route_does_not_admit_non_int_address(self, backend, bad):
        """``64.0 == 64`` and ``True == 1``: a route memoised for the int
        must not let the look-alike skip validation."""
        machine = Machine(TINY, seed=0)
        compile_trace(machine, [("load", 0, int(bad))])
        machine.run_trace([("load", 0, int(bad))], backend=backend)
        expected = f"address must be an int, got {type(bad).__name__}"
        with pytest.raises(AddressError, match=expected):
            machine.run_trace([("load", 0, bad)], backend=backend)

    @pytest.mark.parametrize("planes", [True, False], ids=["planes", "object"])
    @pytest.mark.parametrize(
        "bad, message",
        [(64.0, "address must be an int, got float"), (-64, "negative")],
        ids=["float", "negative"],
    )
    def test_scheduled_load_rejects_bad_address(self, planes, bad, message):
        """Both scheduled paths reject the address and count only the op
        that executed: a rejected op leaves the PMU counters alone."""
        machine = Machine(TINY, seed=0)
        if not planes:
            machine._soa_supported = False

        def program():
            yield Load(64)
            yield Load(bad)

        scheduler = Scheduler(machine)
        scheduler.spawn("p", 0, program())
        with pytest.raises(AddressError, match=message):
            scheduler.run()
        core = machine.cores[0]
        assert (
            core.memory_references, core.flushes,
            core.llc_references, core.llc_misses,
        ) == (1, 0, 1, 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op", ["load", "prefetchnta", "clflush"])
    def test_rejected_address_counts_nothing(self, backend, op):
        machine = Machine(TINY, seed=0)
        with pytest.raises(AddressError):
            machine.run_trace([(op, 0, -64)], backend=backend)
        with pytest.raises(AddressError):
            getattr(machine.cores[0], op)(-64)
        assert not any(v.any() for v in pmu_vectors(machine).values())


# ---------------------------------------------------------------------------
# Checkpoints across backends


class TestCrossBackendCheckpoints:
    def test_round_trip_between_backends(self):
        """A checkpoint taken under one backend restores under the other,
        and both continuations remain bit-identical."""
        prefix = mixed_trace(6, 800)
        suffix = mixed_trace(7, 800)
        soa = Machine(TINY, seed=9, backend="soa")
        soa.run_trace(prefix)
        checkpoint = soa.checkpoint()

        obj = Machine(TINY, seed=9, backend="object")
        obj.restore(checkpoint)
        assert obj.checkpoint().digest() == checkpoint.digest()

        assert obj.run_trace(suffix, record=True) == soa.run_trace(
            suffix, record=True
        )
        assert obj.checkpoint().digest() == soa.checkpoint().digest()

    def test_restore_rewinds_soa_planes(self):
        """State mutated by a SoA batch after the checkpoint must not leak
        through a restore (the planes sync from the object hierarchy)."""
        machine = Machine(TINY, seed=1, backend="soa")
        machine.run_trace(mixed_trace(8, 500))
        checkpoint = machine.checkpoint()
        digest = checkpoint.digest()
        machine.run_trace(mixed_trace(9, 500))
        assert machine.checkpoint().digest() != digest
        machine.restore(checkpoint)
        assert machine.checkpoint().digest() == digest
        # Post-restore execution matches a machine that never diverged.
        twin = Machine(TINY, seed=1, backend="soa")
        twin.run_trace(mixed_trace(8, 500))
        tail = mixed_trace(10, 500)
        assert machine.run_trace(tail, record=True) == twin.run_trace(
            tail, record=True
        )


# ---------------------------------------------------------------------------
# NumPy state views


class TestStateViews:
    def test_hierarchy_arrays_match_across_backends(self):
        trace = mixed_trace(11, 1000)
        obj = Machine(TINY, seed=0, backend="object")
        soa = Machine(TINY, seed=0, backend="soa")
        obj.run_trace(trace)
        soa.run_trace(trace)
        obj_arrays = hierarchy_arrays(obj)
        soa_arrays = hierarchy_arrays(soa)
        assert obj_arrays.keys() == soa_arrays.keys()
        for name, planes in obj_arrays.items():
            for field, plane in planes.items():
                np.testing.assert_array_equal(
                    plane, soa_arrays[name][field], err_msg=f"{name}.{field}"
                )

    def test_hierarchy_arrays_shapes_and_contents(self):
        machine = Machine(TINY, seed=0, backend="soa")
        machine.run_trace([("load", 0, 0), ("load", 1, 64)])
        arrays = hierarchy_arrays(machine)
        llc = arrays["LLC"]
        geo = TINY.llc
        assert llc["tags"].shape == (geo.slices * geo.sets, geo.ways)
        assert llc["valid"].dtype == bool
        # Both loads missed everywhere, so both lines now sit in the LLC.
        assert llc["valid"].sum() == 2
        assert set(llc["tags"][llc["valid"]]) == {0, 64}
        # Invalid slots keep the -1 sentinel.
        assert (llc["tags"][~llc["valid"]] == -1).all()

    def test_pmu_vectors_match_core_counters(self):
        machine = Machine(TINY, seed=0, backend="soa")
        machine.run_trace(mixed_trace(12, 600))
        vectors = pmu_vectors(machine)
        for field, vector in vectors.items():
            assert vector.tolist() == [
                getattr(core, field) for core in machine.cores
            ]
        assert vectors["memory_references"].sum() > 0


# ---------------------------------------------------------------------------
# Packed Tree-PLRU tables


class TestPlruTables:
    @pytest.mark.parametrize("ways", [2, 4, 8, 16])
    def test_tables_match_tree_plru(self, ways):
        """The packed-int transition tables replicate TreePLRU exactly:
        pack the reference bits into an int after every touch and compare
        state and victim choice over a long random access sequence."""
        and_masks, or_masks, victims = _plru_tables(ways)
        reference = TreePLRU(ways)
        state = 0
        rng = random.Random(ways)
        for _ in range(500):
            way = rng.randrange(ways)
            reference._touch(way)
            state = state & and_masks[way] | or_masks[way]
            packed = 0
            for i, bit in enumerate(reference._bits):
                if bit:
                    packed |= 1 << i
            assert state == packed
            assert victims[state] == reference._follow()

    def test_tables_are_memoized(self):
        assert _plru_tables(8) is _plru_tables(8)
