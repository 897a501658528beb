"""Command-line interface: regenerate any paper experiment from a shell.

Examples::

    python -m repro fig5                 # PREFETCHNTA timing bands
    python -m repro table2 --bits 256    # channel capacity peaks
    python -m repro send "hello world"   # ship a message over NTP+NTP
    python -m repro detect --duration 500000
    python -m repro evset --size 12 --platform kaby-lake
    python -m repro report --store runs.sqlite   # regression report

Every command accepts ``--platform`` (skylake / kaby-lake) and ``--seed``.
Sweep commands also take ``--store DB`` / ``--no-store`` to control which
campaign store records the run (default: ``$REPRO_STORE``); ``report`` and
``campaigns`` read that history back without re-running anything.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional, Sequence

from .analysis.reporting import format_table
from .attacks.ntp_ntp import NTPNTPChannel
from .attacks.prime_scope import PrimePrefetchScope, PrimeScope
from .channel.encoding import RepetitionEncoder
from .channel.framing import FrameCodec
from .config import KABY_LAKE, SKYLAKE, PlatformConfig
from .sim.machine import Machine
from .victims.noise import NoiseConfig

_PLATFORMS: Dict[str, PlatformConfig] = {
    "skylake": SKYLAKE,
    "kaby-lake": KABY_LAKE,
}


def _machine(args: argparse.Namespace) -> Machine:
    return Machine(_PLATFORMS[args.platform], seed=args.seed,
                   backend=getattr(args, "engine", None))


def _machine_factory(args: argparse.Namespace) -> Callable[[], Machine]:
    platform = _PLATFORMS[args.platform]
    seed = args.seed
    engine = getattr(args, "engine", None)
    return lambda: Machine(platform, seed=seed, backend=engine)


def _result_cache(args: argparse.Namespace):
    """The on-disk result cache for sweep commands (``--no-cache`` disables)."""
    if args.no_cache:
        return None
    from .runner import ResultCache

    return ResultCache()


def _fault_plan(args: argparse.Namespace):
    """The :class:`~repro.faults.FaultPlan` behind ``--faults``, if any."""
    if args.faults is None:
        return None
    from .faults import FaultPlan

    return FaultPlan.load(args.faults)


def _open_store(args: argparse.Namespace):
    """The store ``--store DB`` or else ``$REPRO_STORE`` names, or None."""
    from .store import CampaignStore, env_store_path

    path = args.store or env_store_path()
    return CampaignStore(path) if path else None


def _runner_kwargs(args: argparse.Namespace, stack: ExitStack) -> Dict[str, Any]:
    """The runner-kwargs mapping every sweep command and ``search`` pass down.

    Store and runtime are resolved here, once per command: ``--no-store``
    beats ``--store DB``, which beats ``$REPRO_STORE``; ``--runtime
    persistent`` (the default) opens one :class:`~repro.runner.Runtime`
    that every sweep of the command shares, ``fresh`` spawns a pool per
    sweep.  ``stack`` closes the store and runtime when the command ends.
    """
    from .obs import EventTrace, MetricsRegistry, NULL_TRACE
    from .runner import FRESH, Runtime

    store = None if args.no_store else _open_store(args)
    if store is not None:
        stack.enter_context(store)
    if args.runtime == "fresh":
        runtime = FRESH
    else:
        runtime = stack.enter_context(Runtime(name="cli"))
    return dict(
        jobs=args.jobs,
        result_cache=_result_cache(args),
        metrics=MetricsRegistry(),
        trace=EventTrace() if args.trace else NULL_TRACE,
        faults=_fault_plan(args),
        retries=args.retries,
        store=store,
        runtime=runtime,
    )


def _finish_sweep_obs(args: argparse.Namespace) -> None:
    """Print the runner summary and export the trace, if one was recorded.

    Both lines go to stderr: stdout carries only the result tables, which
    are bit-identical for any ``--jobs`` value, while this telemetry is
    wall-clock and varies run to run.
    """
    from .analysis.reporting import runner_summary

    print(runner_summary(args.runner["metrics"]), file=sys.stderr)
    if args.trace:
        written = args.runner["trace"].to_jsonl(args.trace)
        print(f"[trace] {written} event(s) -> {args.trace}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_fig2(args: argparse.Namespace) -> int:
    from .experiments.insertion import run_insertion_experiment

    result = run_insertion_experiment(_machine(args), repetitions=args.repetitions)
    rows = [
        (a, f"{result.summary(a).p50:.0f}", f"{result.evicted_fraction[a]*100:.0f}%")
        for a in sorted(result.latencies)
    ]
    print(format_table(("a", "reload p50 (cyc)", "evicted"), rows,
                       title="Figure 2 — insertion policy (paper: >200 cyc, 100%)"))
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    from .experiments.insertion import run_insertion_age_experiment

    result = run_insertion_age_experiment(_machine(args))
    print(f"Figure 3 — eviction order in-order fraction: "
          f"{result.in_order_fraction():.2f} (paper: 1.00)")
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    from .experiments.updating import run_updating_experiment

    result = run_updating_experiment(_machine(args), repetitions=args.repetitions)
    print(f"Figure 4 — candidate evicted despite prefetch hit: "
          f"{result.evicted_fraction*100:.0f}% (paper: 100%)")
    print(f"           ages preserved on prefetch hits: {result.age_preserved}")
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    from .experiments.timing_variance import run_timing_variance_experiment

    result = run_timing_variance_experiment(_machine(args), repetitions=args.repetitions)
    rows = []
    paper = {"l1_hit": "~70", "llc_hit": "90-100", "dram": ">200"}
    for scenario in ("l1_hit", "llc_hit", "dram"):
        summary = result.summary(scenario)
        rows.append((scenario, paper[scenario], f"{summary.p50:.0f}"))
    print(format_table(("scenario", "paper (cyc)", "measured p50"), rows,
                       title="Figure 5 — PREFETCHNTA timing bands"))
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    from .experiments.protocol_walkthrough import run_protocol_walkthrough

    result = run_protocol_walkthrough(_machine(args))
    print("Figure 6 — NTP+NTP state walkthrough (executed live)")
    print(result.render())
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    from .experiments.capacity_sweep import run_capacity_sweep

    rows = []
    for channel in ("ntp+ntp", "prime+probe"):
        sweep = run_capacity_sweep(
            _machine_factory(args), channel, n_bits=args.bits, seed=args.seed,
            warm_start=not args.cold_start, **args.runner,
        )
        peak = sweep.peak
        rows.append(
            (channel, sweep.platform, f"{peak.raw_rate_kb_per_s:.0f}",
             f"{peak.bit_error_rate*100:.2f}%", f"{peak.capacity_kb_per_s:.0f}")
        )
    print(format_table(
        ("channel", "platform", "raw KB/s", "BER", "capacity KB/s"), rows,
        title="Table II — peak channel capacities "
              "(paper: NTP+NTP 302/275, Prime+Probe 86/81)",
    ))
    _finish_sweep_obs(args)
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    from .experiments.capacity_sweep import run_capacity_sweep

    sweep = run_capacity_sweep(
        _machine_factory(args), args.channel, n_bits=args.bits, seed=args.seed,
        warm_start=not args.cold_start, **args.runner,
    )
    print(format_table(
        ("interval", "raw KB/s", "BER", "capacity KB/s"), sweep.rows(),
        title=f"Figure 8 — {args.channel} on {sweep.platform}",
    ))
    _finish_sweep_obs(args)
    return 0


def cmd_fig2_sweep(args: argparse.Namespace) -> int:
    from .experiments.insertion_sweep import run_insertion_sweep

    sweep = run_insertion_sweep(
        _machine_factory(args), trials=args.trials, seed=args.seed,
        engine=args.engine, batch_size=args.batch_size, **args.runner,
    )
    rows = [
        (str(a), f"{sweep.evicted_fraction[a]*100:.0f}%")
        for a in sorted(sweep.evicted_fraction)
    ]
    print(format_table(
        ("position", "evicted"), rows,
        title=f"Figure 2 sweep — {sweep.platform} via {sweep.engine} engine "
              "(paper: evicted at every position)",
    ))
    _finish_sweep_obs(args)
    return 0


def cmd_fig11(args: argparse.Namespace) -> int:
    from .experiments.prep_latency import run_prep_latency_experiment

    result = run_prep_latency_experiment(_machine(args), rounds=args.repetitions)
    ps, pps = result.summaries()
    rows = [
        ("Prime+Scope", PrimeScope.PREP_REFERENCES, f"{ps.mean:.0f}"),
        ("Prime+Prefetch+Scope", PrimePrefetchScope.PREP_REFERENCES, f"{pps.mean:.0f}"),
    ]
    print(format_table(("attack", "references", "prep mean (cyc)"), rows,
                       title="Figure 11 — preparation latency "
                             "(paper: 1906 vs 1043 on Skylake)"))
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    from .experiments.detection import run_detection_comparison

    results = run_detection_comparison(
        _machine_factory(args), victim_period=args.period, duration=args.duration
    )
    rows = [
        (r.attack, len(r.victim_accesses), len(r.detections),
         f"{r.false_negative_rate*100:.1f}%")
        for r in results
    ]
    print(format_table(("attack", "events", "detections", "FN rate"), rows,
                       title="Section V-A3 — detection false negatives "
                             "(paper: ~50% vs <2%)"))
    return 0


def cmd_fig12(args: argparse.Namespace) -> int:
    from .experiments.iteration_latency import run_iteration_latency_experiment

    result = run_iteration_latency_experiment(
        _machine_factory(args), iterations=args.repetitions
    )
    rows = []
    for name in ("reload+refresh", "prefetch+refresh_v1", "prefetch+refresh_v2"):
        summary = result.summary(name)
        costs = result.revert_costs[name]
        rows.append(
            (name, f"{summary.mean:.0f}",
             f"{costs.flushes}/{costs.dram_accesses}/{costs.llc_accesses}",
             f"{result.accuracy[name]*100:.0f}%")
        )
    print(format_table(
        ("attack", "iter mean (cyc)", "revert f/d/l", "accuracy"), rows,
        title="Figure 12 + Table III (paper: 1601/1165/873; 2-2-14/2-2-0/1-1-0)",
    ))
    return 0


def cmd_evset(args: argparse.Namespace) -> int:
    from .attacks.evset import (
        build_eviction_set_prefetch,
        hugepage_candidates,
        verify_eviction_set,
    )
    from .experiments.evset_speed import run_evset_speed_experiment

    result = run_evset_speed_experiment(
        _machine_factory(args), size=args.size, seed=args.seed
    )
    rows = [
        ("baseline", result.baseline.memory_references, f"{result.baseline_ms:.2f}",
         f"{result.baseline_accuracy*100:.0f}%"),
        ("prefetch (Alg. 2)", result.prefetch.memory_references,
         f"{result.prefetch_ms:.2f}", f"{result.prefetch_accuracy*100:.0f}%"),
    ]
    if args.huge_pages:
        machine = _machine(args)
        target = machine.address_space("victim").alloc_pages(1)[0]
        space = machine.address_space("attacker")
        huge = build_eviction_set_prefetch(
            machine, machine.cores[0], target,
            hugepage_candidates(machine, space, target), size=args.size,
        )
        accuracy = verify_eviction_set(machine, target, huge.lines)
        rows.append(
            ("prefetch + huge pages", huge.memory_references,
             f"{huge.execution_time_ms(machine.config.frequency_hz):.2f}",
             f"{accuracy*100:.0f}%")
        )
    print(format_table(("method", "references", "time (ms)", "accuracy"), rows,
                       title="Figure 13 — eviction set construction"))
    print(f"reference ratio: {result.reference_ratio:.2f}x (paper: 7.25x)")
    return 0


def cmd_noise(args: argparse.Namespace) -> int:
    from .experiments.noise_sweep import run_noise_sweep

    result = run_noise_sweep(
        _machine_factory(args), n_bits=args.bits, seed=args.seed,
        warm_start=not args.cold_start, **args.runner,
    )
    print(format_table(result.header(), result.rows(),
                       title="Section IV-B3 — BER vs noise intensity"))
    _finish_sweep_obs(args)
    return 0


def cmd_detect_sweep(args: argparse.Namespace) -> int:
    from .experiments.detection_sweep import run_detection_sweep

    result = run_detection_sweep(
        _machine_factory(args), duration=args.duration,
        warm_start=not args.cold_start, **args.runner,
    )
    print(format_table(result.header(), result.rows(),
                       title="Section V-A3 — FN rate vs victim period"))
    for attack in sorted(result.curves):
        try:
            period = result.usable_period(attack)
            print(f"{attack}: usable down to ~{period}-cycle periods")
        except Exception:
            print(f"{attack}: no tested period reached FN <= 10%")
    _finish_sweep_obs(args)
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    from .experiments.sensitivity import run_sensitivity_experiment

    result = run_sensitivity_experiment(
        _PLATFORMS[args.platform], n_bits=args.bits, seed=args.seed,
        engine=args.engine, warm_start=not args.cold_start, **args.runner,
    )
    rows = [
        (f"{p.sync_scale:.2f}", f"{p.ntp_capacity:.0f}",
         f"{p.prime_probe_capacity:.0f}", f"{p.advantage:.1f}x")
        for p in result.points
    ]
    print(format_table(
        ("sync scale", "NTP+NTP KB/s", "Prime+Probe KB/s", "advantage"), rows,
        title="Calibration sensitivity — NTP+NTP advantage vs sync budget",
    ))
    lo, hi = result.advantage_range()
    print(f"advantage range over perturbation: {lo:.1f}x - {hi:.1f}x")
    _finish_sweep_obs(args)
    return 0


def cmd_spy(args: argparse.Namespace) -> int:
    import random as random_module

    from .experiments.end_to_end_spy import run_end_to_end_spy

    rng = random_module.Random(args.seed)
    key = [rng.randint(0, 1) for _ in range(args.bits)]
    result = run_end_to_end_spy(_machine(args), key, traces=args.traces)
    print(f"concurrent spy: {result.accuracy * 100:.1f}% of {args.bits} key bits "
          f"recovered over {args.traces} trace(s)")
    print("true key :", "".join(map(str, result.true_bits)))
    print("recovered:", "".join(map(str, result.recovered_bits)))
    return 0


def cmd_countermeasure(args: argparse.Namespace) -> int:
    from .experiments.countermeasure import run_countermeasure_experiment

    result = run_countermeasure_experiment(
        _PLATFORMS[args.platform], size=args.size,
        check_channel=not args.no_channel, seed=args.seed,
    )
    print(f"Section VI-D — ref ratio: Intel policy {result.original_ratio:.2f}x "
          f"(paper 7.25x), modified {result.modified_ratio:.2f}x (paper 1.26x)")
    if result.protected_channel_ber is not None:
        print(f"NTP+NTP BER on protected machine: "
              f"{result.protected_channel_ber*100:.0f}%")
    return 0


def cmd_directory(args: argparse.Namespace) -> int:
    from .directory.hierarchy import DirectoryConfig
    from .directory.ntp import run_directory_ntp_exchange

    bits = [1, 0, 1, 1, 0, 0, 1, 0] * 8
    vulnerable = run_directory_ntp_exchange(bits, seed=args.seed)
    safe = run_directory_ntp_exchange(
        bits, config=DirectoryConfig(directory_prefetch_insert_age=2), seed=args.seed
    )
    rows = [
        ("age-3 insertion (vulnerable hypothesis)",
         f"{vulnerable.bit_error_rate*100:.1f}%", vulnerable.works),
        ("age-2 insertion (safe)", f"{safe.bit_error_rate*100:.1f}%", safe.works),
    ]
    print(format_table(("directory policy", "BER", "channel works"), rows,
                       title="Section VI-B — directory NTP+NTP hypothesis"))
    return 0


def cmd_resolution(args: argparse.Namespace) -> int:
    from .experiments.resolution import (
        measure_prime_probe_granularity,
        measure_scope_granularity,
    )

    pps = measure_scope_granularity(_machine(args), PrimePrefetchScope)
    ps = measure_scope_granularity(_machine(args), PrimeScope)
    pp = measure_prime_probe_granularity(_machine(args))
    rows = [
        ("Prime+Prefetch+Scope check", "~70", f"{pps:.0f}"),
        ("Prime+Scope check", "~70", f"{ps:.0f}"),
        ("Prime+Probe round", ">2000", f"{pp:.0f}"),
    ]
    print(format_table(("attack", "paper (cyc)", "measured"), rows,
                       title="Section V-A1 — temporal resolution"))
    return 0


def cmd_pollution(args: argparse.Namespace) -> int:
    from .countermeasures.insertion_policy import machine_with_modified_insertion
    from .experiments.pollution import run_pollution_experiment

    stock = run_pollution_experiment(_machine(args))
    modified = run_pollution_experiment(
        machine_with_modified_insertion(_PLATFORMS[args.platform], seed=args.seed)
    )
    rows = [
        ("Intel policy", "1 (the 1/w bound)", stock.peak_prefetched_ways),
        ("modified policy", "bound lost", modified.peak_prefetched_ways),
    ]
    print(format_table(("policy", "paper", "peak prefetched ways"), rows,
                       title="Section VI-D — LLC pollution bound"))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if not args.json:
        machine = _machine(args)
        channel = NTPNTPChannel(machine, seed=args.seed)
        channel.transmit([1, 0] * 32, 1500)
        print(machine.stats_report())
        return 0

    # --json: one instrumented channel run plus a tiny sweep, every layer's
    # counters published into a single registry and dumped as JSON.
    import json

    from .channel.transport import ReliableTransport
    from .experiments.capacity_sweep import run_capacity_sweep
    from .obs import MachineMetrics, MetricsRegistry

    registry = MetricsRegistry()
    machine = Machine(_PLATFORMS[args.platform], seed=args.seed,
                      metrics=registry)
    channel = NTPNTPChannel(machine, seed=args.seed)
    transport = ReliableTransport(channel, metrics=registry)
    transport.send(b"stats", interval=1500)
    # The channel drives cores op-by-op; one batched replay exercises the
    # engine.ops.* / engine.served.* accumulation path too.
    lines = [i * 64 for i in range(64)]
    machine.run_trace(
        [("load", 0, a) for a in lines]
        + [("prefetchnta", 1, a) for a in lines]
        + [("clflush", 0, a) for a in lines[:8]]
    )
    run_capacity_sweep(
        _machine_factory(args), "ntp+ntp", intervals=(1500, 2100),
        n_bits=32, seed=args.seed, jobs=1, result_cache=None,
        metrics=registry,
    )
    MachineMetrics(machine, registry).publish()
    print(json.dumps(registry.as_dict(), indent=2, sort_keys=True))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .experiments.channel_comparison import (
        ComparisonResult,
        run_channel_comparison,
    )

    result = run_channel_comparison(
        _machine_factory(args), n_bits=args.bits,
        warm_start=not args.cold_start, **args.runner,
    )
    print(format_table(ComparisonResult.HEADER, result.rows(),
                       title="Covert-channel design space"))
    _finish_sweep_obs(args)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments.chaos_sweep import run_chaos_sweep

    runner = args.runner
    result = run_chaos_sweep(
        _machine_factory(args), n_bits=args.bits,
        crash_probability=args.crash, retries=args.retries,
        seed=args.seed, jobs=args.jobs, result_cache=runner["result_cache"],
        metrics=runner["metrics"], trace=runner["trace"], plan=runner["faults"],
        store=runner["store"], runtime=runner["runtime"],
    )
    print(format_table(result.header(), result.rows(),
                       title="Chaos — channel BER/delivery vs fault rate"))
    verdict = "bit-identical" if result.runner_identical else "DIVERGED"
    print(f"runner chaos (crash p={result.crash_probability}, "
          f"retries={result.retries}): {verdict}, "
          f"{result.runner_retries} retried attempt(s), "
          f"{result.runner_failures} unrecovered shard(s)")
    _finish_sweep_obs(args)
    return 0 if result.ok else 1


def cmd_search(args: argparse.Namespace) -> int:
    from .search import EvalContext, make_driver, make_objective

    objective = make_objective(
        args.objective, config=_PLATFORMS[args.platform],
        engine=args.engine,
    )
    driver = make_driver(args.strategy, objective, budget=args.budget)
    # EvalContext names the result cache ``cache``.
    fields = {("cache" if k == "result_cache" else k): v for k, v in args.runner.items()}
    outcome = driver.run(EvalContext(seed=args.seed, **fields))
    rows = [
        (
            row["round"], row["fidelity"], row["evaluations"],
            f"{row['best']:.4f}", f"{row['best_so_far']:.4f}",
        )
        for row in outcome.trajectory()
    ]
    print(format_table(
        ("round", "fidelity", "evals", "round best", "best so far"), rows,
        title=f"Search — {outcome.objective} via {outcome.strategy} "
              f"(budget {outcome.budget})",
    ))
    winner = ", ".join(f"{k}={v}" for k, v in sorted(outcome.winner.items()))
    print(f"winner: {winner} (score {outcome.winner_score:.4f})")
    print(f"evaluations: {outcome.evaluations_used} of {outcome.grid_size} "
          f"grid points ({outcome.evaluations_used / outcome.grid_size:.0%})")
    print(f"fingerprint: {outcome.fingerprint}")
    _finish_sweep_obs(args)
    return 0


def cmd_campaigns(args: argparse.Namespace) -> int:
    import time as time_module

    store = _open_store(args)
    if store is None:
        print("no campaign store: pass --store DB or set $REPRO_STORE",
              file=sys.stderr)
        return 2
    summaries = store.campaigns()
    rows = [
        (
            s.name, s.runs, s.last_run_id,
            time_module.strftime("%Y-%m-%d %H:%M",
                                 time_module.localtime(s.last_started_at)),
            s.last_fingerprint[:12],
        )
        for s in summaries
    ]
    print(format_table(
        ("campaign", "runs", "last run", "when", "fingerprint"), rows,
        title=f"Campaign store {store.path}",
    ))
    names = store.artifact_names()
    if names:
        print(f"{len(names)} benchmark artifact serie(s): {', '.join(names)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis.reports import generate_report

    store = _open_store(args)
    if store is None:
        print("no campaign store: pass --store DB or set $REPRO_STORE",
              file=sys.stderr)
        return 2
    report = generate_report(store)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(report.text)
        print(f"[report] -> {args.output}", file=sys.stderr)
    else:
        print(report.text)
    if report.regressions:
        for regression in report.regressions:
            print(f"[regression] {regression}", file=sys.stderr)
        if not args.no_gate:
            return 1
    return 0


def cmd_send(args: argparse.Namespace) -> int:
    machine = _machine(args)
    channel = NTPNTPChannel(
        machine, seed=args.seed,
        maintenance_period=96 if args.noise else None,
    )
    codec = FrameCodec()
    encoder = RepetitionEncoder(args.repetition)
    bits = encoder.encode(codec.encode(args.message.encode()))
    noise = NoiseConfig() if args.noise else None
    result = channel.transmit(bits, args.interval, noise=noise)
    frame = codec.decode(encoder.decode(result.received_bits))
    print(result.summary())
    if frame is None:
        print("decode: no frame found")
        return 1
    status = "CRC OK" if frame.crc_ok else "CRC MISMATCH"
    print(f"decode: {frame.payload!r} [{status}]")
    return 0 if frame.crc_ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .runner.cache import default_cache_root
    from .service import JobQueue, LocalBackend, run_service
    from .store import env_store_path

    cache_root = (
        None if args.no_cache
        else (args.cache_dir or str(default_cache_root()))
    )
    queue = JobQueue(args.queue, max_depth=args.max_depth)
    backend = LocalBackend(
        cache_root=cache_root, store_path=args.store or env_store_path(),
    )

    def ready(service) -> None:
        print(
            f"[serve] http://{service.host}:{service.port} "
            f"workers={args.workers} queue={args.queue} "
            f"depth<={args.max_depth}",
            file=sys.stderr, flush=True,
        )

    try:
        asyncio.run(run_service(
            queue, backend, host=args.host, port=args.port,
            workers=args.workers, ready=ready,
        ))
    except KeyboardInterrupt:
        print("[serve] shutting down", file=sys.stderr)
    finally:
        queue.close()
    return 0


def _watch_job(client, job_id: int) -> int:
    """Tail one job's SSE stream, one line per event, Ctrl-C to detach."""
    from .analysis.reporting import event_line
    from .errors import ServiceError

    try:
        for event in client.watch(job_id):
            print(event_line(event), flush=True)
            if event.get("name") == "service.job.failed":
                return 1
    except KeyboardInterrupt:
        print(f"[jobs] detached from job {job_id} (still running server-side)",
              file=sys.stderr)
        return 0
    except ServiceError as error:
        print(f"[jobs] {error}", file=sys.stderr)
        return 2
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import dataclasses
    from pathlib import Path

    from .errors import QueueFullError, ServiceError
    from .service import JobSpec, ServiceClient

    text = args.spec
    if not text.lstrip().startswith("{"):
        try:
            text = Path(text).read_text()
        except OSError as error:
            print(f"[submit] cannot read spec file: {error}", file=sys.stderr)
            return 2
    try:
        spec = JobSpec.from_json(text)
        if args.priority is not None:
            spec = dataclasses.replace(spec, priority=args.priority)
    except ServiceError as error:
        print(f"[submit] invalid spec: {error}", file=sys.stderr)
        return 2

    client = ServiceClient(args.host, args.port)
    try:
        job = client.submit(spec)
    except QueueFullError as error:
        print(f"[submit] queue full, retry after {error.retry_after:g}s: "
              f"{error}", file=sys.stderr)
        return 3
    except ServiceError as error:
        print(f"[submit] {error}", file=sys.stderr)
        return 2
    print(f"job {job['id']} submitted "
          f"(priority {job['priority']}, fingerprint {job['fingerprint'][:12]})")
    if args.watch:
        return _watch_job(client, job["id"])
    if args.wait:
        try:
            done = client.wait(job["id"])
        except ServiceError as error:
            print(f"[submit] {error}", file=sys.stderr)
            return 1
        result = done.get("result") or {}
        shards = result.get("shards", {})
        print(f"job {job['id']} done: {shards.get('total', '?')} shard(s), "
              f"{shards.get('cached', '?')} cached, "
              f"{shards.get('computed', '?')} computed")
        for run in result.get("runs", []):
            print(f"  run {run['run_id']} [{run['campaign']}] "
                  f"fingerprint {run['fingerprint'][:12]}")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    from .errors import ServiceError
    from .service import ServiceClient

    client = ServiceClient(args.host, args.port)
    if args.watch is not None:
        return _watch_job(client, args.watch)
    try:
        jobs = client.jobs(args.state)
    except ServiceError as error:
        print(f"[jobs] {error}", file=sys.stderr)
        return 2
    rows = [
        (
            job["id"], job["state"], job["priority"],
            job["spec"]["experiment"], job["attempts"],
            job["fingerprint"][:12],
        )
        for job in jobs
    ]
    print(format_table(
        ("id", "state", "priority", "experiment", "attempts", "fingerprint"),
        rows, title=f"Jobs at {args.host}:{args.port}",
    ))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Leaky Way (MICRO 2022) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, repetitions: Optional[int] = None,
               runner: bool = False):
        p.add_argument("--platform", choices=sorted(_PLATFORMS), default="skylake")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--engine", choices=("object", "soa", "batch"),
                       default=None,
                       help="Machine.run_trace backend (default: REPRO_ENGINE "
                            "env var, else object; results are bit-identical). "
                            "Scheduled channel programs run on the SoA planes "
                            "whatever this is")
        if repetitions is not None:
            p.add_argument("--repetitions", type=int, default=repetitions)
        if runner:
            p.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes for sweep points "
                                "(output is identical for any N)")
            p.add_argument("--no-cache", action="store_true",
                           help="recompute sweep points instead of reusing "
                                "the on-disk result cache")
            p.add_argument("--trace", metavar="FILE", default=None,
                           help="export a JSONL event trace of the sweep "
                                "(shard timings, cache hits/misses)")
            p.add_argument("--faults", metavar="PLAN.json", default=None,
                           help="inject deterministic faults from this "
                                "FaultPlan file (see docs/robustness.md)")
            p.add_argument("--retries", type=int, default=0, metavar="N",
                           help="retry budget per shard when faults strike "
                                "(recoverable runs stay bit-identical)")
            p.add_argument("--cold-start", action="store_true",
                           help="rebuild the machine for every sweep point "
                                "instead of warm-starting from a shared "
                                "prefix checkpoint (same results, slower)")
            p.add_argument("--store", metavar="DB", default=None,
                           help="record the run into this campaign store "
                                "sqlite file (default: $REPRO_STORE)")
            p.add_argument("--no-store", action="store_true",
                           help="record the run in no campaign store, even "
                                "if $REPRO_STORE is set")
            p.add_argument("--runtime", choices=("persistent", "fresh"),
                           default="persistent",
                           help="worker provisioning for --jobs > 1: "
                                "'persistent' (default) reuses one pool and "
                                "shared-memory transfer across this "
                                "command's sweeps; 'fresh' spawns a pool "
                                "per sweep (same output either way)")

    p = sub.add_parser("fig2", help="insertion policy (Property #1)")
    common(p, repetitions=100)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="insertion age (eviction order)")
    common(p)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", help="updating policy (Property #2)")
    common(p, repetitions=100)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("fig5", help="PREFETCHNTA timing bands (Property #3)")
    common(p, repetitions=200)
    p.set_defaults(func=cmd_fig5)

    p = sub.add_parser("fig6", help="NTP+NTP protocol state walkthrough")
    common(p)
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("table2", help="peak channel capacities")
    common(p, runner=True)
    p.add_argument("--bits", type=int, default=256)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("fig8", help="capacity/BER sweep for one channel")
    common(p, runner=True)
    p.add_argument("--channel", choices=("ntp+ntp", "prime+probe"), default="ntp+ntp")
    p.add_argument("--bits", type=int, default=256)
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("fig2-sweep", help="insertion sweep, trial-batched")
    common(p, runner=True)
    p.add_argument("--trials", type=int, default=32,
                   help="trials per insertion position")
    p.add_argument("--batch-size", type=int, default=64, metavar="N",
                   help="trials per array program under --engine batch")
    p.set_defaults(func=cmd_fig2_sweep)

    p = sub.add_parser("fig11", help="Prime+Scope prep latency")
    common(p, repetitions=200)
    p.set_defaults(func=cmd_fig11)

    p = sub.add_parser("detect", help="Section V-A3 false negatives")
    common(p)
    p.add_argument("--period", type=int, default=1500)
    p.add_argument("--duration", type=int, default=1_000_000)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("fig12", help="Reload+Refresh iteration latency + Table III")
    common(p, repetitions=200)
    p.set_defaults(func=cmd_fig12)

    p = sub.add_parser("evset", help="eviction set construction (Figure 13)")
    common(p)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--huge-pages", action="store_true",
                   help="also build with 2 MiB pages (slice-only search)")
    p.set_defaults(func=cmd_evset)

    p = sub.add_parser("noise", help="BER vs third-party noise sweep")
    common(p, runner=True)
    p.add_argument("--bits", type=int, default=128)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("detect-sweep", help="FN rate vs victim period sweep")
    common(p, runner=True)
    p.add_argument("--duration", type=int, default=600_000)
    p.set_defaults(func=cmd_detect_sweep)

    p = sub.add_parser("sensitivity", help="capacity vs sync-budget perturbation")
    common(p, runner=True)
    p.add_argument("--bits", type=int, default=128)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("compare", help="all channels on one table")
    common(p, runner=True)
    p.add_argument("--bits", type=int, default=96)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("spy", help="concurrent RSA key extraction")
    common(p)
    p.add_argument("--bits", type=int, default=64)
    p.add_argument("--traces", type=int, default=4)
    p.set_defaults(func=cmd_spy)

    p = sub.add_parser("countermeasure", help="Section VI-D modified insertion")
    common(p)
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--no-channel", action="store_true")
    p.set_defaults(func=cmd_countermeasure)

    p = sub.add_parser("directory", help="Section VI-B directory hypothesis")
    common(p)
    p.set_defaults(func=cmd_directory)

    p = sub.add_parser("resolution", help="Section V-A1 temporal resolution")
    common(p)
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("pollution", help="Section VI-D LLC pollution bound")
    common(p)
    p.set_defaults(func=cmd_pollution)

    p = sub.add_parser("stats", help="cache statistics of a channel run")
    common(p)
    p.add_argument("--json", action="store_true",
                   help="emit cache / runner / channel obs counters as JSON "
                        "instead of the plain-text cache report")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("chaos", help="fault-injected sweep + robustness curve")
    common(p, runner=True)
    p.add_argument("--bits", type=int, default=48)
    p.add_argument("--crash", type=float, default=0.2, metavar="P",
                   help="per-attempt worker crash probability for the "
                        "runner-determinism act")
    p.set_defaults(func=cmd_chaos, retries=3)

    p = sub.add_parser(
        "search",
        help="adaptive search over a sweep space (seeded, deterministic)",
    )
    common(p, runner=True)
    p.add_argument("--objective",
                   choices=("toy-cliff", "capacity-cliff", "detection-knee"),
                   default="toy-cliff",
                   help="what to optimize (see docs/search.md)")
    p.add_argument("--strategy", choices=("mutate", "halving", "bandit"),
                   default="mutate",
                   help="how to spend the budget: mutation loop, successive "
                        "halving over fidelity rungs, or UCB over regions")
    p.add_argument("--budget", type=int, default=32, metavar="N",
                   help="computed-evaluation cap (memoized repeats are free)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("campaigns", help="list recorded sweep campaigns")
    p.add_argument("--store", metavar="DB", default=None,
                   help="campaign store to read (default: $REPRO_STORE)")
    p.set_defaults(func=cmd_campaigns)

    p = sub.add_parser(
        "report",
        help="regenerate result tables + regression diff from the store",
    )
    p.add_argument("--store", metavar="DB", default=None,
                   help="campaign store to read (default: $REPRO_STORE)")
    p.add_argument("-o", "--output", metavar="FILE", default=None,
                   help="write the markdown report here instead of stdout")
    p.add_argument("--no-gate", action="store_true",
                   help="exit 0 even when gated regressions are found")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("serve", help="run the sweep job service (HTTP + queue)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8766)
    p.add_argument("--queue", metavar="DB", default="service-queue.sqlite",
                   help="persistent job queue sqlite file (jobs survive "
                        "restarts); ':memory:' for a throwaway queue")
    p.add_argument("--max-depth", type=int, default=64, metavar="N",
                   help="pending-job ceiling before submissions get 429")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="concurrent dispatcher slots (jobs run at once)")
    p.add_argument("--store", metavar="DB", default=None,
                   help="campaign store recording every job's runs "
                        "(default: $REPRO_STORE)")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="result cache root shared by all jobs "
                        "(default: $REPRO_CACHE_DIR, else the user cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="run jobs without a result cache (no dedupe)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a job spec to the sweep service")
    p.add_argument("spec",
                   help="path to a JSON job spec file, or inline JSON "
                        '(e.g. \'{"experiment": "capacity"}\')')
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8766)
    p.add_argument("--priority", type=int, default=None, metavar="N",
                   help="override the spec's queue priority (higher first)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job settles, then print its summary")
    p.add_argument("--watch", action="store_true",
                   help="tail the job's progress events until it finishes")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list service jobs / tail one job's events")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8766)
    p.add_argument("--state",
                   choices=("pending", "running", "done", "failed", "cancelled"),
                   default=None, help="only list jobs in this state")
    p.add_argument("--watch", type=int, metavar="ID", default=None,
                   help="tail job ID's progress stream (Ctrl-C detaches)")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("send", help="ship a text message over NTP+NTP")
    common(p)
    p.add_argument("message")
    p.add_argument("--interval", type=int, default=1500)
    p.add_argument("--repetition", type=int, default=3)
    p.add_argument("--noise", action="store_true",
                   help="run background LLC noise during the transfer")
    p.set_defaults(func=cmd_send)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with ExitStack() as stack:
        if hasattr(args, "runtime"):  # a runner command
            args.runner = _runner_kwargs(args, stack)
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
