"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: it measures a layer by temporarily
replacing that layer's public functions and methods with timing wrappers,
installed by :func:`installed` and removed again when the block exits.
Untraced runs therefore execute the program's own, unpatched code.

A span is ``(id, parent, name, start, end)`` with ``parent`` the span that
was open when it started (0 at top level).  Spans stay in memory until
:meth:`Recorder.write_jsonl` writes them out at the end of a run.  A
span's self time is its duration minus the time its child spans cover;
children never overlap each other, because every wrapped call runs on the
benchmark's single thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_MARK = "__perfbench_wrapper__"


@dataclass(frozen=True)
class Target:
    """One wrapped layer entry point.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``.  A
    module-level function is replaced in every loaded ``repro`` module that
    bound it by name, so ``from .shard import canonical_json`` call sites
    see the wrapper too.  ``counter`` targets only count calls: they sit on
    per-op paths whose timing would cost more than the op itself.
    ``extra`` adds a quantity per call, computed from the call's arguments
    and result after the span has closed.
    """

    name: str
    where: str
    counter: bool = False
    extra: Optional[Tuple[str, Callable]] = None


def _checkpoint_bytes(args, result) -> float:
    return result.approx_bytes


def _compiled_ops(args, result) -> float:
    return len(result)


def _batch_trials(args, result) -> float:
    return len(args[1])


#: Every wrapped entry point, named ``<layer>.<fn>``.
TARGETS: Tuple[Target, ...] = (
    Target("attacks.transmit", "repro.attacks.ntp_ntp:NTPNTPChannel.transmit"),
    Target("attacks.transmit", "repro.attacks.prime_probe:PrimeProbeChannel.transmit"),
    Target("attacks.channel_build", "repro.attacks.ntp_ntp:NTPNTPChannel.__init__"),
    Target("attacks.channel_build",
           "repro.attacks.prime_probe:PrimeProbeChannel.__init__"),
    Target("sim.machine_build", "repro.sim.machine:Machine.__init__"),
    Target("sim.scheduler", "repro.sim.scheduler:Scheduler.run"),
    Target("sim.checkpoint", "repro.sim.machine:Machine.checkpoint",
           extra=("bytes", _checkpoint_bytes)),
    Target("sim.restore", "repro.sim.machine:Machine.restore"),
    Target("cache.loads", "repro.cache.hierarchy:CacheHierarchy.load", counter=True),
    Target("engine.compile", "repro.engine.compile:compile_trace",
           extra=("ops", _compiled_ops)),
    Target("engine.batch", "repro.engine.batch:run_trace_batch",
           extra=("trials", _batch_trials)),
    Target("engine.apply", "repro.engine.batch:BatchResult.apply"),
    Target("engine.run_trace", "repro.sim.machine:Machine.run_trace"),
    Target("runner.canonical_json", "repro.runner.shard:canonical_json"),
    Target("runner.cache.key", "repro.runner.cache:ResultCache.key"),
    Target("runner.cache.put", "repro.runner.cache:ResultCache.put"),
    Target("runner.cache.get", "repro.runner.cache:ResultCache.get"),
    Target("runner.runtime.map", "repro.runner.runtime:Runtime.map"),
    Target("runner.runtime.put_payload", "repro.runner.runtime:Runtime.put_payload"),
    Target("store.record_run", "repro.store.db:CampaignStore.record_run"),
    Target("store.fingerprint", "repro.store.db:run_fingerprint"),
    Target("search.evaluate",
           "repro.search.objectives:CapacityCliffObjective.evaluate_shards"),
)

#: Names of the timed spans (each reports ``.calls``, ``.s`` and ``.self_s``).
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(t.name for t in TARGETS if not t.counter)
)
COUNTER_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(t.name for t in TARGETS if t.counter)
)
EXTRA_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(f"{t.name}.{t.extra[0]}" for t in TARGETS if t.extra)
)


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.extras: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 1

    def timed(self, target: Target, fn: Callable) -> Callable:
        recorder = self
        name = target.name
        extra_key, extra_fn = (
            (f"{name}.{target.extra[0]}", target.extra[1]) if target.extra else (None, None)
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id += 1
            stack = recorder._stack
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, name, start, end))
            if extra_fn is not None:
                recorder.extras[extra_key] += extra_fn(args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def counted(self, target: Target, fn: Callable) -> Callable:
        counts = self.counts
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def write_jsonl(self, out, run_id: str) -> None:
        """Write every span to the open file ``out``, one JSON object a line."""
        for span_id, parent, name, start, end in self.spans:
            out.write(json.dumps({
                "run": run_id, "id": span_id, "parent": parent,
                "name": name, "start": start, "end": end,
            }) + "\n")


def aggregate(spans) -> Dict[str, float]:
    """``<name>.calls``, ``<name>.s`` and ``<name>.self_s`` for every span name.

    Names in :data:`SPAN_NAMES` are always present, at 0 when never called.
    """
    child_time: Dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for span_id, _, name, start, end in spans:
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        duration = end - start
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time.get(span_id, 0.0)
    out: Dict[str, float] = {}
    for name, (calls, total, self_total) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_total
    return out


def _resolve(where: str):
    """``(owner, attribute, original)`` for a target's defining site."""
    module_name, _, qualname = where.partition(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _sites(where: str) -> List[Tuple[object, str, Callable]]:
    """Every ``(owner, attribute, original)`` binding a target must replace."""
    owner, attr, original = _resolve(where)
    if isinstance(owner, type):
        return [(owner, attr, original)]
    return [
        (module, name, original)
        for module in _repro_modules()
        for name, value in list(vars(module).items())
        if value is original
    ]


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block, then restore.

    On exit every original binding is put back and :func:`check_restored`
    verifies that no wrapper survives, so code run after the block is the
    program's own.
    """
    patches: List[Tuple[object, str, Callable]] = []
    try:
        for target in TARGETS:
            sites = _sites(target.where)
            wrapper = (recorder.counted if target.counter else recorder.timed)(
                target, sites[0][2]
            )
            for owner, attr, original in sites:
                setattr(owner, attr, wrapper)
                patches.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        check_restored(patches)


def check_restored(patches) -> None:
    """Raise unless every patched binding holds its original object again."""
    for owner, attr, original in patches:
        current = vars(owner).get(attr)
        if current is not original:
            raise RuntimeError(f"{owner!r}.{attr} was not restored")
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                raise RuntimeError(f"wrapper left on {module.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if getattr(member, _MARK, False):
                        raise RuntimeError(
                            f"wrapper left on {module.__name__}.{name}.{attr}"
                        )
