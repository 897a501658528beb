"""Spec execution: the bridge from a :class:`JobSpec` to the experiment layer.

:func:`execute_job` calls the *same* experiment functions with the *same*
arguments the sweep CLI does — machine factory from the platform config,
one runner-kwargs mapping with the job's store and runtime passed
explicitly — so shard seeds, cache keys, warm-start digests, and store
``run_fingerprint``s are byte-identical to a direct ``python -m repro ...``
invocation of the same sweep.  This is the location-transparency contract:
the service adds scheduling around the computation, never inside it.

Progress flows out through a :class:`ForwardingTrace`, a plain
:class:`~repro.obs.EventTrace` that additionally hands every event to a
sink callable the moment it is emitted — the feed behind the server's SSE
streams and the subprocess worker's event messages.  Traces are purely
observational, so forwarding them cannot perturb results.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from ..errors import ServiceError
from ..obs import EventTrace, MetricsRegistry
from .spec import JobSpec


class ForwardingTrace(EventTrace):
    """An :class:`EventTrace` that also pushes each event to a sink.

    The sink receives the event's JSON dict (``{"name", "t", **fields}``)
    synchronously from the emitting thread; server code is responsible for
    hopping it onto the event loop.  Sink failures are swallowed — a slow
    or dead subscriber must never fail a sweep.
    """

    def __init__(self, sink: Optional[Callable[[Dict[str, Any]], None]] = None):
        super().__init__()
        self._sink = sink

    def emit(self, name: str, **fields: Any) -> None:
        super().emit(name, **fields)
        if self._sink is not None:
            try:
                self._sink(self.events[-1].as_dict())
            except Exception:
                pass


def _machine_factory(spec: JobSpec):
    """Mirror of the CLI's ``_machine_factory``: config + seed + engine."""
    from ..sim.machine import Machine

    config = spec.config()
    seed = spec.seed
    engine = spec.engine
    return lambda: Machine(config, seed=seed, backend=engine)


def _run_capacity(spec: JobSpec, runner: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.capacity_sweep import run_capacity_sweep

    params = spec.params
    intervals = params.get("intervals")
    sweep = run_capacity_sweep(
        _machine_factory(spec),
        params.get("channel", "ntp+ntp"),
        intervals=tuple(intervals) if intervals is not None else None,
        n_bits=params.get("n_bits", 256),
        seed=spec.seed,
        warm_start=spec.warm_start,
        **runner,
    )
    peak = sweep.peak
    return {
        "platform": sweep.platform,
        "peak_interval": peak.interval,
        "peak_capacity_kb_per_s": peak.capacity_kb_per_s,
        "peak_bit_error_rate": peak.bit_error_rate,
    }


def _run_insertion(spec: JobSpec, runner: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.insertion_sweep import run_insertion_sweep

    params = spec.params
    sweep = run_insertion_sweep(
        _machine_factory(spec),
        trials=params.get("trials", 32),
        seed=spec.seed,
        engine=spec.engine,
        batch_size=params.get("batch_size", 64),
        **runner,
    )
    return {
        "platform": sweep.platform,
        "engine": sweep.engine,
        "positions": len(sweep.evicted_fraction),
        "all_evicted": all(
            fraction == 1.0 for fraction in sweep.evicted_fraction.values()
        ),
    }


def _run_noise(spec: JobSpec, runner: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.noise_sweep import run_noise_sweep

    result = run_noise_sweep(
        _machine_factory(spec),
        n_bits=spec.params.get("n_bits", 192),
        seed=spec.seed,
        warm_start=spec.warm_start,
        **runner,
    )
    return {"rows": len(result.rows())}


def _run_detection(spec: JobSpec, runner: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.detection_sweep import run_detection_sweep

    result = run_detection_sweep(
        _machine_factory(spec),
        duration=spec.params.get("duration", 600_000),
        warm_start=spec.warm_start,
        **runner,
    )
    return {"rows": len(result.rows())}


def _run_sensitivity(spec: JobSpec, runner: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.sensitivity import run_sensitivity_experiment

    result = run_sensitivity_experiment(
        spec.config(),
        n_bits=spec.params.get("n_bits", 128),
        seed=spec.seed,
        engine=spec.engine,
        warm_start=spec.warm_start,
        **runner,
    )
    lo, hi = result.advantage_range()
    return {"points": len(result.points), "advantage_range": [lo, hi]}


def _run_comparison(spec: JobSpec, runner: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.channel_comparison import run_channel_comparison

    result = run_channel_comparison(
        _machine_factory(spec),
        n_bits=spec.params.get("n_bits", 128),
        seed=spec.seed,
        warm_start=spec.warm_start,
        engine=spec.engine,
        **runner,
    )
    return {"channels": len(result.profiles)}


def _run_search(spec: JobSpec, runner: Dict[str, Any]) -> Dict[str, Any]:
    from ..search import EvalContext, make_driver, make_objective

    params = spec.params
    objective = make_objective(
        params.get("objective", "toy-cliff"),
        config=spec.config(),
        engine=spec.engine,
    )
    driver = make_driver(
        params.get("strategy", "halving"), objective,
        budget=params.get("budget", 16),
    )
    # EvalContext names the result cache ``cache``.
    fields = {("cache" if k == "result_cache" else k): v for k, v in runner.items()}
    outcome = driver.run(EvalContext(seed=spec.seed, **fields))
    return {
        "winner": dict(sorted(outcome.winner.items())),
        "winner_score": outcome.winner_score,
        "search_fingerprint": outcome.fingerprint,
        "evaluations": outcome.evaluations_used,
    }


_RUNNERS: Dict[str, Callable] = {
    "capacity": _run_capacity,
    "insertion": _run_insertion,
    "noise": _run_noise,
    "detection": _run_detection,
    "sensitivity": _run_sensitivity,
    "comparison": _run_comparison,
    "search": _run_search,
}


def _run_summaries(store, trace: EventTrace) -> list:
    """The runs this job's sweeps recorded, from its ``runner.store`` events.

    Concurrent jobs share the store *file*, so scanning ids would pick up
    other jobs' runs; the job's own trace names exactly the runs it wrote.
    """
    run_ids = [e.fields["run"] for e in trace.events if e.name == "runner.store"]
    runs = []
    for run_id in sorted(run_ids):
        run = store.run(run_id)
        runs.append({
            "campaign": run.campaign,
            "run_id": run.id,
            "fingerprint": run.fingerprint,
            "shards_total": run.shards_total,
            "shards_computed": run.shards_computed,
            "shards_cached": run.shards_cached,
            "failures": run.failures,
        })
    return runs


def execute_job(
    spec: JobSpec,
    *,
    cache=None,
    store=None,
    runtime=None,
    sink: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run one spec and return its JSON result summary.

    ``cache`` is the node's shared :class:`~repro.runner.ResultCache`,
    ``store`` its :class:`~repro.store.CampaignStore` (None records
    nothing), ``runtime`` an optional persistent
    :class:`~repro.runner.Runtime`; all three are handed to the experiment
    layer explicitly.  Every job gets a fresh
    :class:`~repro.obs.MetricsRegistry` so summaries never mix jobs; trace
    events stream to ``sink`` as they happen.
    """
    run = _RUNNERS.get(spec.experiment)
    if run is None:
        raise ServiceError(f"unknown experiment {spec.experiment!r}")

    registry = MetricsRegistry()
    trace = ForwardingTrace(sink)
    started = time.time()
    runner = dict(
        jobs=spec.jobs, result_cache=cache, metrics=registry, trace=trace,
        faults=spec.fault_plan(), retries=spec.retries,
        store=store, runtime=runtime,
    )

    detail = run(spec, runner)

    summary = {
        "experiment": spec.experiment,
        "spec_fingerprint": spec.fingerprint(),
        "elapsed_seconds": time.time() - started,
        "shards": {
            "total": registry.counter("runner.shards.total").value,
            "computed": registry.counter("runner.shards.computed").value,
            "cached": registry.counter("runner.shards.cached").value,
            "retries": registry.counter("runner.retries").value,
            "failures": registry.counter("runner.failures").value,
        },
        "store_errors": registry.counter("runner.store.errors").value,
        "detail": detail,
    }
    if store is not None:
        summary["runs"] = _run_summaries(store, trace)
    return summary
