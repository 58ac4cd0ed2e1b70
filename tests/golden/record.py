"""Record the golden CLI reports that tests/test_golden.py replays.

Run from the repository root with the package importable:

    PYTHONPATH=src python tests/golden/record.py

The instance files are committed and never regenerated, so a change to the
generator cannot shift them.  ``sync6.el`` is the 6-agent synchronization
example; the others were written once by ``structctrl gen <model> <n>
--seed 0 -o <model>-<n>.el`` (``--band 2`` for banded), with default
parameters otherwise, as each file's header records.

For every instance the script runs, with ``--format json``: ``analyze``,
``design-inputs --all --emit-b --limit 20`` and ``enumerate --limit 20``;
on instances of at most 50 states also ``design-outputs --all --emit-c
--limit 20`` and ``verify`` of the first emitted B (``<name>.b.el``) and
of that B minus its last column (``<name>.b-short.el``).  The reports,
without ``timings_ms``, go to ``<name>.golden.json`` together with each
command's arguments and exit code.  The default single placement (no
``--all``) is not pinned: any valid minimum placement may be printed there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from structctrl import StructPattern, write_pattern
from structctrl.cli import run_cli

GOLDEN = Path(__file__).resolve().parent
INSTANCES = ["sync6"] + [
    f"{model}-{n}" for model in ("erdos", "scalefree", "banded") for n in (8, 50, 500)
]
SMALL = 50  # largest instance that also gets design-outputs and verify


def run(args: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(args + ["--format", "json"])
    report = json.loads(out.getvalue())
    report.pop("timings_ms", None)
    return {"args": args, "exit": code, "report": report}


def record(name: str) -> list[dict]:
    el = f"{name}.el"
    cases = [
        run(["analyze", el]),
        run(["design-inputs", el, "--all", "--emit-b", "--limit", "20"]),
        run(["enumerate", el, "--limit", "20"]),
    ]
    if cases[0]["report"]["instance"]["n"] > SMALL:
        return cases
    cases.append(run(["design-outputs", el, "--all", "--emit-c", "--limit", "20"]))
    first = cases[1]["report"]["matrices"][0]
    b = StructPattern(
        first["n_rows"], first["n_cols"], {(i - 1, j - 1) for i, j in first["nonzeros"]}
    )
    short = StructPattern(
        b.n_rows, b.n_cols - 1, {(i, j) for i, j in b.nonzeros if j < b.n_cols - 1}
    )
    for suffix, mat in (("b", b), ("b-short", short)):
        write_pattern(mat, GOLDEN / f"{name}.{suffix}.el")
        cases.append(run(["verify", el, f"{name}.{suffix}.el"]))
    return cases


def main() -> None:
    os.chdir(GOLDEN)
    for name in INSTANCES:
        cases = record(name)
        lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
        (GOLDEN / f"{name}.golden.json").write_text(f"[\n{lines}\n]\n")
        print(f"{name}: {len(cases)} reports", file=sys.stderr)


if __name__ == "__main__":
    main()
