"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2_batch --seed 0 --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed or built.  One run sets the workload up ``SETUP_REPEATS`` times
(``setup_s`` is the median of a fresh interpreter's import time plus one
set-up), then repeats the workload's iteration until ``--seconds`` of
measured time have passed and reports medians over iterations.  Every iteration's outputs are checked against
``golden.json``, pinned from the program's own runs; each mismatching
value counts as one failed operation, as does every shard that ended in
an error record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations, prints the per-layer metrics (medians over
the traced iterations) plus ``trace.overhead_frac``, and writes every span
to ``.perfbench/trace-<workload>.jsonl``.  The last line of standard
output is the result as one JSON object.

All files the run writes stay under ``.perfbench/`` in the checkout; its
per-run scratch directory is removed before exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

#: Process-default selectors the program would otherwise read.
CLEARED_ENV = ("REPRO_ENGINE", "REPRO_RUNTIME", "REPRO_STORE", "REPRO_CACHE_DIR")

WORKLOAD_NAMES = ("table2", "fig2_batch", "fig2_replay", "search_jobs2")

SETUP_REPEATS = 3
#: Iterations every run makes at least (per kind, when tracing).
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "shards_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Program registry counters reported per layer, by metric name.
REGISTRY_COUNTERS = {
    "runner.shards.computed": "runner.shards.computed",
    "runner.shards.cached": "runner.shards.cached",
    "runner.retries": "runner.retries",
    "runner.failures": "runner.failures",
    "runner.checkpoint.captures": "runner.checkpoint.captures",
    "runner.runtime.chunks": "runner.runtime.chunks",
    "runner.runtime.spawns": "runner.runtime.spawns",
    "runner.runtime.reuses": "runner.runtime.reuses",
    "runner.runtime.shm.bytes": "runner.runtime.shm.bytes",
    "store.errors": "runner.store.errors",
    "search.rounds": "search.rounds",
    "search.evaluations": "search.evaluations",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    import spans

    units: Dict[str, str] = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in spans.COUNTER_NAMES:
        units[name] = "count"
    for name in spans.EXTRA_NAMES:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units["engine.us_per_op"] = "us"
    units["runner.cache.hit_ratio"] = "ratio"
    for name in REGISTRY_COUNTERS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units["runner.pool.utilization"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sizes", choices=("full", "tiny"), default="full",
        help="work per iteration; 'tiny' is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checkout's commit from ``.git`` files, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> Dict[str, Any]:
    return {
        "commit": git_commit(ROOT),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


@contextmanager
def hermetic_workdir(prefix: str) -> Iterator[Path]:
    """A scratch directory under ``.perfbench/``, removed on exit.

    Clears the environment variables that pick process defaults, and points
    the temporary-file directory into the scratch directory, so a run reads
    no configuration from outside and writes nothing outside the checkout.
    """
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        yield workdir / "run"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker process a runtime started."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def import_program() -> float:
    """Import the checkout's program; returns the seconds it took."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import repro
    import workloads  # noqa: F401  (imports the experiment layers)

    elapsed = time.perf_counter() - start
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
    return elapsed


_IMPORT_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
print(time.perf_counter() - start)
"""


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program's layers."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def load_golden(path: Path = GOLDEN) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def expected_outputs(golden: Dict[str, Any], profile: str, workload: str, slot: int):
    """The pinned outputs one iteration of ``workload`` must reproduce."""
    source = "fig2_batch" if workload == "fig2_replay" else workload
    expected = golden[profile][source][str(slot)]
    if workload == "fig2_replay":
        expected = dict(expected, all_cached=True)
    return expected


def mismatches(actual: Any, expected: Any, path: str = "") -> List[str]:
    """Paths of every value in ``expected`` that ``actual`` does not reproduce."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [path or "/"]
        found: List[str] = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual or key not in expected:
                found.append(f"{path}/{key}")
            else:
                found.extend(mismatches(actual[key], expected[key], f"{path}/{key}"))
        return found
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [path or "/"]
        found = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            found.extend(mismatches(a, e, f"{path}/{i}"))
        return found
    return [] if actual == expected else [path or "/"]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def layer_metrics(recorder, registry) -> Dict[str, float]:
    """One traced iteration's per-layer numbers, all but ``trace.overhead_frac``."""
    import spans

    out: Dict[str, float] = dict(spans.aggregate(recorder.spans))
    for name in spans.COUNTER_NAMES:
        out[name] = recorder.counts[name]
    for name in spans.EXTRA_NAMES:
        out[name] = recorder.extras[name]
    ops = out["engine.compile.ops"]
    out["engine.us_per_op"] = out["engine.batch.s"] * 1e6 / ops if ops else 0.0
    hits = registry.counter("runner.cache.hits").value
    misses = registry.counter("runner.cache.misses").value
    out["runner.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for metric, counter in REGISTRY_COUNTERS.items():
        out[metric] = registry.counter(counter).value
    out["runner.pool.utilization"] = registry.gauge("runner.pool.utilization").value
    return out


class Tally:
    """Iteration results accumulated over one run."""

    def __init__(self, expected: Dict[str, Any]):
        self.expected = expected
        self.walls: List[float] = []
        self.traced_walls: List[float] = []
        self.rates: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatched: List[str] = []

    def add(self, outcome, wall: float, traced: bool) -> None:
        (self.traced_walls if traced else self.walls).append(wall)
        if not traced:
            self.rates.append(outcome.shards / wall)
        bad = mismatches(outcome.outputs, self.expected)
        self.mismatched.extend(bad)
        self.attempted += outcome.shards
        self.failed += outcome.error_shards + len(bad)


def iterate_once(workload, tally: Tally, recorder=None) -> None:
    """One iteration on fresh scratch files; traced when given a recorder."""
    import spans
    from repro.runner import clear_warm_states

    clear_warm_states()
    gc.collect()
    scratch = workload.scratch()
    try:
        with spans.installed(recorder) if recorder is not None else nullcontext():
            start = time.perf_counter()
            outcome = workload.iterate(scratch)
            wall = time.perf_counter() - start
        tally.add(outcome, wall, traced=recorder is not None)
        if recorder is not None:
            tally.layers.append(layer_metrics(recorder, scratch.registry))
    finally:
        scratch.close()
        # Deleting the files at once, before the kernel writes them back,
        # keeps one iteration's disk traffic out of the next one's timing.
        shutil.rmtree(scratch.root, ignore_errors=True)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    sizes: str = "full",
    golden: Optional[Dict[str, Any]] = None,
    trace_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Set up and run one workload; returns the result object and extras."""
    import spans

    stamp = environment_stamp()
    import_s = import_program()
    import numpy
    import workloads as wl

    stamp["numpy"] = numpy.__version__
    golden = golden if golden is not None else load_golden()
    slot = wl.slot_of(seed)
    expected = expected_outputs(golden, sizes, workload_name, slot)
    workload = wl.WORKLOADS[workload_name](wl.PROFILES[sizes], slot, workdir)
    tally = Tally(expected)
    recorders = []
    worker_rss = 0
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload.discard_setup()
        import_seconds = fresh_import_seconds()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(import_seconds + time.perf_counter() - start)

    # Tracing alternates untraced and traced iterations, so both medians
    # see the same drift in the host's load.  ``seconds`` counts measured
    # time only, not the set-up and clean-up between iterations.
    need_untraced = MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS
    need_traced = MIN_TRACED_ITERATIONS if trace else 0
    while (
        len(tally.walls) < need_untraced
        or len(tally.traced_walls) < need_traced
        or sum(tally.walls) + sum(tally.traced_walls) < seconds
    ):
        traced = trace and len(tally.walls) > len(tally.traced_walls)
        recorder = spans.Recorder() if traced else None
        iterate_once(workload, tally, recorder)
        if recorder is not None:
            recorders.append(recorder)
        worker_rss = max(worker_rss, workload.worker_rss)

    if trace:
        layers = {
            name: _median([layer[name] for layer in tally.layers])
            for name in tally.layers[0]
        }
        layers["trace.overhead_frac"] = (
            _median(tally.traced_walls) / _median(tally.walls) - 1.0
        )
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            with open(trace_path, "w") as out:
                for i, recorder in enumerate(recorders):
                    recorder.write_jsonl(out, f"{workload_name}/{seed}/{i}")
    else:
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        values = {
            "wall_s": _median(tally.walls),
            "shards_per_s": _median(tally.rates),
            "setup_s": _median(setup_times),
            "peak_rss_mb": (own_rss + worker_rss) / 2**20,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload_name,
        "seed": seed,
        "slot": slot,
        "sizes": sizes,
        "env": stamp,
        "import_s": import_s,
        "setup_times": setup_times,
        "walls": tally.walls,
        "traced_walls": tally.traced_walls,
        "mismatched": tally.mismatched,
    }
    return {"result": result, "details": details}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    with hermetic_workdir(args.workload) as workdir:
        report = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, sizes=args.sizes,
            trace_path=WORK / f"trace-{args.workload}.jsonl" if args.trace else None,
        )
        stop_resource_tracker()
    result, details = report["result"], report["details"]
    with open(WORK / f"last-{args.workload}-trace{args.trace}.json", "w") as out:
        json.dump(dict(details, result=result), out, indent=1)
    print("env " + json.dumps(details["env"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    if details["mismatched"]:
        print("mismatched outputs: " + ", ".join(details["mismatched"][:20]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
