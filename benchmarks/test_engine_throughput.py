"""Engine hot-path throughput: production fast path vs the frozen seed engine.

The sharded sweep runner buys wall-clock time across points; this benchmark
guards the speedup *within* a point.  Both engines replay one identical
mixed trace (the channel workloads' op mix: demand loads, PREFETCHNTA, and
CLFLUSH over LLC-conflicting addresses); the production engine must sustain
at least twice the reference's ops/sec while the differential tests pin its
outputs to bit-identical.
"""

import gc
import random
import time

import pytest
from conftest import artifact, report

from repro.cache.reference import ReferenceHierarchy
from repro.config import SKYLAKE
from repro.sim.machine import Machine

TRACE_LENGTH = 120_000
OPS = ("load", "prefetchnta", "clflush")


def _mixed_trace(seed: int, length: int) -> list:
    """The channels' op mix over addresses that collide in the LLC."""
    rng = random.Random(seed)
    lines = [i * 64 for i in range(768)]
    return [
        (rng.choice(OPS), rng.randrange(SKYLAKE.cores), rng.choice(lines))
        for _ in range(length)
    ]


def _reference_ops_per_sec(trace) -> float:
    hierarchy = ReferenceHierarchy(SKYLAKE)
    start = time.perf_counter()
    now = 0
    for op, core, addr in trace:
        if op == "clflush":
            result = hierarchy.clflush(addr, now)
        else:
            result = getattr(hierarchy, op)(core, addr, now)
        now += result.latency
    return len(trace) / (time.perf_counter() - start)


def _fast_ops_per_sec(trace, metrics=None, backend=None) -> float:
    machine = Machine(SKYLAKE, seed=0, metrics=metrics, backend=backend)
    start = time.perf_counter()
    machine.run_trace(trace)
    return len(trace) / (time.perf_counter() - start)


def _fast_elapsed(trace, metrics=None, backend=None, repeats=1) -> float:
    """One timed sample (``repeats`` batches) from a normalized GC state.

    Collecting first and disabling the collector during the run keeps
    generation thresholds from firing inside an arbitrary subset of runs —
    without this, GC pauses alternate between measurement modes and swamp
    the sub-5% effect under test.
    """
    machine = Machine(SKYLAKE, seed=0, metrics=metrics, backend=backend)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            machine.run_trace(trace)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _compare() -> dict:
    trace = _mixed_trace(3, TRACE_LENGTH)
    # Warm-up passes absorb set-allocation and memo-fill costs for every
    # engine, then the timed passes measure steady-state throughput.
    _reference_ops_per_sec(trace[:5000])
    _fast_ops_per_sec(trace[:5000])
    _fast_ops_per_sec(trace[:5000], backend="soa")
    _fast_ops_per_sec(trace[:5000], backend="batch")
    reference = _reference_ops_per_sec(trace)
    fast = _fast_ops_per_sec(trace)
    soa = _fast_ops_per_sec(trace, backend="soa")
    batch = _fast_ops_per_sec(trace, backend="batch")
    return {
        "trace_length": TRACE_LENGTH,
        "reference_ops_per_sec": reference,
        "fast_ops_per_sec": fast,
        "soa_ops_per_sec": soa,
        "batch_ops_per_sec": batch,
        "speedup": fast / reference,
        "soa_speedup_vs_reference": soa / reference,
        "soa_speedup_vs_object": soa / fast,
        "batch_speedup_vs_reference": batch / reference,
    }


def _instrumentation_overhead(backend=None) -> dict:
    """Engine throughput with metrics enabled vs the default null sink.

    The obs layer must be free when disabled and near-free when enabled:
    ``run_trace`` accumulates into batch-local tallies and flushes counters
    once per batch — and MachineMetrics-style publishing reuses cached
    instrument handles — so the enabled/disabled ratio stays above 0.95
    under either trace-execution backend.
    """
    from repro.obs import MetricsRegistry

    # The SoA backend clears a 40k-op batch several times faster than the
    # object engine, so a single batch per sample sits too close to the
    # timer-noise floor for a 5% gate; batch more runs per sample (and take
    # more samples) to keep every sample's duration comparable.
    repeats = 1 if backend in (None, "object") else 4
    rounds = 12 if backend in (None, "object") else 16
    slice_length = 40_000
    trace = _mixed_trace(7, slice_length)
    _fast_elapsed(trace[:5000], backend=backend)
    _fast_elapsed(trace[:5000], metrics=MetricsRegistry(), backend=backend)
    # Shared-box throughput drifts far more than the instrumentation costs,
    # so one long back-to-back pair is dominated by whichever mode ran in
    # the slow moment.  Interleave many short runs instead (swapping the
    # in-pair order each round) and gate on the per-mode *minimum* times:
    # noise and drift only ever add time, so the minima are each mode's
    # cleanest measurement of the actual work.
    null_times = []
    inst_times = []
    for round_index in range(rounds):
        if round_index % 2:
            inst_times.append(
                _fast_elapsed(
                    trace, metrics=MetricsRegistry(),
                    backend=backend, repeats=repeats,
                )
            )
            null_times.append(
                _fast_elapsed(trace, backend=backend, repeats=repeats)
            )
        else:
            null_times.append(
                _fast_elapsed(trace, backend=backend, repeats=repeats)
            )
            inst_times.append(
                _fast_elapsed(
                    trace, metrics=MetricsRegistry(),
                    backend=backend, repeats=repeats,
                )
            )
    null_best = min(null_times)
    inst_best = min(inst_times)
    ops_per_sample = slice_length * repeats
    return {
        "backend": backend or "object",
        "trace_length": slice_length,
        "rounds": rounds,
        "repeats": repeats,
        "null_sink_ops_per_sec": ops_per_sample / null_best,
        "instrumented_ops_per_sec": ops_per_sample / inst_best,
        "null_sink_best_s": null_best,
        "instrumented_best_s": inst_best,
        "throughput_ratio": null_best / inst_best,
    }


def test_engine_throughput(once):
    result = once(_compare)
    artifact("engine_throughput", result)
    report(
        "Engine throughput — object and SoA backends vs frozen seed engine "
        "(identical outputs, see tests/cache/ and tests/engine/ differentials)",
        f"reference:   {result['reference_ops_per_sec']:,.0f} ops/s\n"
        f"object:      {result['fast_ops_per_sec']:,.0f} ops/s "
        f"({result['speedup']:.2f}x reference)\n"
        f"soa:         {result['soa_ops_per_sec']:,.0f} ops/s "
        f"({result['soa_speedup_vs_reference']:.2f}x reference, "
        f"{result['soa_speedup_vs_object']:.2f}x object)\n"
        f"batch (T=1): {result['batch_ops_per_sec']:,.0f} ops/s "
        f"({result['batch_speedup_vs_reference']:.2f}x reference)",
    )
    assert result["speedup"] >= 2.0
    assert result["soa_speedup_vs_reference"] >= 2.0
    assert result["batch_speedup_vs_reference"] >= 2.0


@pytest.mark.parametrize("backend", ["object", "soa", "batch"])
def test_instrumentation_overhead(once, backend):
    result = once(_instrumentation_overhead, backend)
    artifact(f"instrumentation_overhead_{backend}", result)
    report(
        f"Instrumentation overhead ({backend} backend) — metrics registry "
        "enabled vs null sink "
        "(gate: enabled must keep >= 95% of null-sink throughput)",
        f"null sink:    {result['null_sink_ops_per_sec']:,.0f} ops/s\n"
        f"instrumented: {result['instrumented_ops_per_sec']:,.0f} ops/s\n"
        f"ratio:        {result['throughput_ratio']:.3f} "
        f"(best-of-{result['rounds']} interleaved runs per mode)",
    )
    assert result["throughput_ratio"] >= 0.95, (
        f"{backend}: instrumented/null-sink throughput ratio "
        f"{result['throughput_ratio']:.3f} < 0.95 (best sample: null sink "
        f"{result['null_sink_best_s']:.4f} s, instrumented "
        f"{result['instrumented_best_s']:.4f} s, "
        f"{result['repeats']} x {result['trace_length']} ops each)"
    )
