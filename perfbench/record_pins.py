"""Record the program's (m, beta, alpha, p) for the benchmark's large instances.

    python3 perfbench/record_pins.py --seeds 0-63

Writes ``perfbench/pins.json``; the benchmark then rejects any answer for
those seeds that differs from the recorded one.  Run it only at a commit
whose answers are trusted, and say so when the file changes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

PINNED_WORKLOADS = ("erdos-sparse", "structured-design")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads
    from structctrl.fileio import parse_pattern
    from structctrl.graph_core import build_digraph
    from structctrl.placement import min_dedicated_inputs

    pins_path = Path(__file__).parent / "pins.json"
    pins = json.loads(pins_path.read_text())
    work = root / ".perfbench_out" / "pins-work"
    for name in PINNED_WORKLOADS:
        for seed in range(lo, hi + 1):
            work.mkdir(parents=True, exist_ok=True)
            try:
                builder = workloads.Builder(name, seed, work, pins={})
                workloads.WORKLOADS[name](builder)
                row = {}
                for label, inst in builder.instances.items():
                    s = min_dedicated_inputs(build_digraph(parse_pattern(inst.path)))
                    row[label] = [s.m, s.beta, s.alpha, s.p]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            pins.setdefault(name, {})[str(seed)] = row
            print(name, seed, row, flush=True)
    pins_path.write_text(dumps(pins))
    return 0


def dumps(pins: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name, seeds in sorted(pins.items()):
        rows = sorted(seeds.items(), key=lambda kv: int(kv[0]))
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(row, sort_keys=True)}" for seed, row in rows)
        blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
