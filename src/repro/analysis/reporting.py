"""Plain-text table rendering for benchmark output.

Every benchmark regenerating a paper table/figure prints its rows through
these helpers so ``pytest benchmarks/ --benchmark-only -s`` reads like the
paper's evaluation section.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ReproError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    if not headers:
        raise ReproError("a table needs headers")
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row width {len(row)} does not match headers {len(headers)}"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()

    sep = "  ".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(sep)
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def comparison_table(
    title: str,
    metric: str,
    entries: Sequence[tuple],
) -> str:
    """A paper-vs-measured table; entries are (label, paper, measured)."""
    rows = []
    for label, paper_value, measured in entries:
        rows.append((label, paper_value, f"{measured}"))
    return format_table(
        headers=("case", f"paper {metric}", f"measured {metric}"),
        rows=rows,
        title=title,
    )


# -- observability hooks ------------------------------------------------------


def runner_summary(registry) -> str:
    """One-line sweep-runner summary from a run's obs counters.

    The sweep commands print this under their result tables so cache
    effectiveness and pool utilization are visible without a profiler, and
    a sweep whose result-cache or campaign-store storage failed says so.
    ``registry`` is any :class:`repro.obs.MetricsRegistry`.
    """
    total = registry.counter("runner.shards.total").value
    cached = registry.counter("runner.shards.cached").value
    computed = registry.counter("runner.shards.computed").value
    corrupt = registry.counter("runner.cache.corrupt").value
    retries = registry.counter("runner.retries").value
    failures = registry.counter("runner.failures").value
    jobs = int(registry.gauge("runner.pool.jobs").value) or 1
    utilization = registry.gauge("runner.pool.utilization").value
    seconds = registry.histogram("runner.shard.seconds")
    store_errors = registry.counter("runner.store.errors").value
    cache_errors = registry.counter("runner.cache.errors").value
    parts = [
        f"[runner] {total} shard(s): {cached} cached, {computed} computed"
        + (f" ({corrupt} corrupt entries evicted)" if corrupt else "")
    ]
    if retries or failures:
        parts.append(f"{retries} retried attempt(s), {failures} failed shard(s)")
    if computed:
        parts.append(f"mean {seconds.mean:.2f}s/shard")
        parts.append(f"pool {utilization:.0%} busy over {jobs} job(s)")
    if cache_errors:
        parts.append(f"cache write failed ({cache_errors})")
    if store_errors:
        parts.append(f"store write failed, run not recorded ({store_errors})")
    return "; ".join(parts)


def event_line(event: dict) -> str:
    """One-line rendering of a trace-event dict (``repro jobs --watch``).

    ``event`` is the JSON shape of :class:`repro.obs.trace.TraceEvent`
    (``{"name", "t", **fields}``): timestamp, event name, then the fields
    in sorted order.  Compound field values are compacted to canonical
    JSON and elided past 60 characters so the tail stays one line per
    event.
    """
    import json
    import time as time_module

    name = event.get("name", "event")
    t = event.get("t")
    stamp = (
        time_module.strftime("%H:%M:%S", time_module.localtime(t))
        if isinstance(t, (int, float))
        else "--:--:--"
    )
    parts = [f"[{stamp}]", str(name)]
    for key in sorted(k for k in event if k not in ("name", "t")):
        value = event[key]
        if isinstance(value, float):
            text = f"{value:g}"
        elif isinstance(value, (dict, list)):
            text = json.dumps(value, sort_keys=True, separators=(",", ":"))
        else:
            text = str(value)
        if len(text) > 60:
            text = text[:57] + "..."
        parts.append(f"{key}={text}")
    return " ".join(parts)


def metrics_table(registry, prefix: str = "", title: Optional[str] = None) -> str:
    """Counters and gauges of ``registry`` as an aligned table.

    ``prefix`` filters by dotted-name prefix (``"cache."``, ``"channel."``).
    """
    snapshot = registry.as_dict(prefix)
    rows: List[tuple] = [
        (name, "counter", value) for name, value in snapshot["counters"].items()
    ]
    rows += [
        (name, "gauge", f"{value:g}") for name, value in snapshot["gauges"].items()
    ]
    rows += [
        (name, "histogram", f"n={h['count']} mean={h['mean']:g}")
        for name, h in snapshot["histograms"].items()
    ]
    rows.sort()
    return format_table(("metric", "kind", "value"), rows, title=title)
