"""Pin the outputs the benchmark checks, into ``golden.json``.

Run from the root of a checkout whose simulated results are the reference::

    python3 perfbench/pin_golden.py --sizes full --slots 16
    python3 perfbench/pin_golden.py --sizes tiny --slots 1

Each workload with outputs of its own (``fig2_replay`` reuses
``fig2_batch``'s) runs one iteration per input slot; the outputs replace
that profile's entry in ``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Any, Dict

import run

PINNED_WORKLOADS = ("table2", "fig2_batch", "search_jobs2")


def pin(sizes: str, slots: int, workdir: Path) -> Dict[str, Any]:
    """``{workload: {slot: outputs}}`` from one iteration per slot."""
    run.import_program()
    import workloads as wl
    from repro.runner import clear_warm_states

    pinned: Dict[str, Any] = {}
    for name in PINNED_WORKLOADS:
        pinned[name] = {}
        for slot in range(slots):
            workload = wl.WORKLOADS[name](wl.PROFILES[sizes], slot, workdir)
            workload.setup()
            clear_warm_states()
            scratch = workload.scratch()
            try:
                outcome = workload.iterate(scratch)
            finally:
                scratch.close()
                shutil.rmtree(scratch.root, ignore_errors=True)
            if outcome.error_shards:
                raise RuntimeError(f"{name} slot {slot}: {outcome.error_shards} error shards")
            pinned[name][str(slot)] = outcome.outputs
            print(f"pinned {sizes} {name} slot {slot}", file=sys.stderr)
    return pinned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full")
    parser.add_argument("--slots", type=int, default=16)
    args = parser.parse_args()
    golden = run.load_golden() if run.GOLDEN.exists() else {}
    with run.hermetic_workdir("pin") as workdir:
        golden[args.sizes] = pin(args.sizes, args.slots, workdir)
    with open(run.GOLDEN, "w") as out:
        json.dump(golden, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
