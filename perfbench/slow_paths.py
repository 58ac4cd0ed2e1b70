"""Time the program's known slow paths, each under a time limit.

    python3 perfbench/slow_paths.py --limit 60

Run from the repository root.  Each case prints its wall time, or that it
was stopped at the limit.  See SLOW_PATHS.md for what the cases show.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import sys
from pathlib import Path

import gen
from run import _alarm, run_op
from workloads import cli_call

SEED = 1  # the seed the figures in SLOW_PATHS.md were measured with


class _Call:
    def __init__(self, argv: list[str]):
        self.run = lambda: cli_call(argv)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=float, default=60.0, help="seconds per operation")
    args = ap.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_out" / "slow-paths"
    work.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)

    def instance(name: str, n: int, entries) -> str:
        path = work / f"{name}.el"
        gen.write_edgelist(path, n, entries)
        return str(path)

    def timed(what: str, argv: list[str]):
        seconds, out, err = run_op(_Call(argv), args.limit)
        print(f"{what:<44} {seconds:8.2f} s  {err or 'ok'}", flush=True)
        return out

    try:
        for n in (500, 1000, 2000):
            path = instance(f"banded-{n}", *gen.banded(n, 2, 0.5, random.Random(SEED)))
            timed(f"design-inputs banded n={n}", ["design-inputs", path, "--format", "json"])
        path = str(work / "banded-500.el")
        timed("enumerate --limit 10 banded n=500", ["enumerate", path, "--limit", "10", "--format", "json"])
        path = str(Path(__file__).parent / "banded-100-backtrack.el")
        timed("enumerate --limit 1 banded-100-backtrack.el", ["enumerate", path, "--limit", "1", "--format", "json"])
        # The second n=1250 pattern drawn after an n=5*10^4 one from the
        # stream "erdos-sparse/55": enumeration backtracks on it too.
        rng = random.Random("erdos-sparse/55")
        for n in (50_000, 1_250):
            gen.erdos(n, 5.0, rng)
        path = instance("erdos-1250-backtrack", *gen.erdos(1_250, 5.0, rng))
        timed("enumerate --limit 3 erdos-1250-backtrack", ["enumerate", path, "--limit", "3", "--format", "json"])
        for n in (5000, 20000):
            a = instance(f"erdos-{n}", *gen.erdos(n, 5.0, random.Random(SEED)))
            out = timed(f"design-inputs --emit-b erdos n={n}",
                        ["design-inputs", a, "--emit-b", "--format", "json"])
            if out is None:
                continue
            b = json.loads(out[1])["matrices"][0]
            b_path = work / f"erdos-{n}.B.el"
            b_path.write_text(f"shape {b['n_rows']} {b['n_cols']}\n"
                              + "".join(f"{i} {j}\n" for i, j in b["nonzeros"]))
            timed(f"verify (oracle) erdos n={n}", ["verify", a, str(b_path), "--format", "json"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
