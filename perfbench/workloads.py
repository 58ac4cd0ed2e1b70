"""The benchmark's workloads: seeded inputs, the operations run on them, and
how each operation's output is checked.

Every workload writes its instances as edgelist files during set-up and
hands the program nothing else.  An operation is one user-facing command
run in-process through ``structctrl.cli.run_cli`` with ``--format json``,
or, on tiny-sweep, one pattern sent through the library's
``design_inputs`` and ``design_outputs``.  Operations are grouped by the
command they time; a pass runs every operation once, in order.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen


@dataclass
class Op:
    command: str  # metric family: analyze, design, verify, enumerate, batch
    label: str  # instance or file the operation reads
    run: Callable[[], object]  # returns a hashable output
    check: Callable[[object], str | None]  # None if the answer is right, else why not
    after: Callable[[object], None] | None = None  # untimed follow-up (writes B files)
    # Untimed reduction of the output to the answer that is kept and checked.
    answer: Callable[[object], object] | None = None


@dataclass
class Instance:
    """A generated pattern; its entries live only in its edgelist file."""

    label: str
    n: int
    path: Path
    counts: tuple[int, int, int, int] | None = None  # checker's (m, beta, alpha, p)
    pinned: list[int] | None = None


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, stdout)."""
    from structctrl import cli  # looked up per call so tracing wrappers apply

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run_cli(argv)
    return rc, out.getvalue()


def cli_answer(out: tuple[int, str]) -> tuple[int, str]:
    """Exit code and JSON report without ``timings_ms``, which differs on
    every call, so that equal answers compare equal."""
    rc, text = out
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return out
    if isinstance(report, dict):
        report.pop("timings_ms", None)
    return rc, json.dumps(report, sort_keys=True)


class Builder:
    """Collects instances and operations for one workload.

    ``checker`` is the check module; the caller sets it only after timing,
    so that scipy's import stays out of the measurements.
    """

    def __init__(self, name: str, seed: int, work: Path, pins: dict):
        self.ops: list[Op] = []
        self.instances: dict[str, Instance] = {}
        self.rng = random.Random(f"{name}/{seed}")
        self.work = work
        self.checker = None
        self.pins = pins.get(name, {}).get(str(seed), {})
        self._patterns: dict[str, object] = {}

    def instance(self, label: str, n: int, entries) -> Instance:
        path = self.work / f"{label}.el"
        gen.write_edgelist(path, n, entries)
        inst = Instance(label, n, path, pinned=self.pins.get(label))
        self.instances[label] = inst
        return inst

    # -- checks ------------------------------------------------------------

    def _pattern(self, inst: Instance):
        if inst.label not in self._patterns:
            self._patterns[inst.label] = self.checker.Pattern(*gen.read_edgelist(inst.path))
        return self._patterns[inst.label]

    def _counts(self, inst: Instance) -> tuple[int, int, int, int]:
        if inst.counts is None:
            inst.counts = self._pattern(inst).counts()
        return inst.counts

    def _summary_problem(self, inst: Instance, report: dict) -> str | None:
        s = report["summary"]
        got = (s["m"], s["beta"], s["alpha"], s["p"])
        want = self._counts(inst)
        if got != want:
            return f"(m, beta, alpha, p) = {got}, checker says {want}"
        if inst.pinned is not None and list(got) != inst.pinned:
            return f"(m, beta, alpha, p) = {got}, pinned {tuple(inst.pinned)}"
        return None

    def _placement_problem(self, inst: Instance, states: list[int]) -> str | None:
        p = self._counts(inst)[3]
        zero_based = [s - 1 for s in states]
        if len(set(states)) != p:
            return f"placement has {len(set(states))} states, p = {p}"
        if not self._pattern(inst).controllable(zero_based):
            return f"placement {states[:8]}... is not structurally controllable"
        return None

    @staticmethod
    def _report(out, expect_rc: int) -> tuple[dict | None, str | None]:
        rc, text = out
        if rc != expect_rc:
            return None, f"exit code {rc}, expected {expect_rc}"
        try:
            return json.loads(text), None
        except json.JSONDecodeError as exc:
            return None, f"output is not JSON: {exc}"

    # -- operations --------------------------------------------------------

    def analyze(self, inst: Instance) -> None:
        def check(out):
            report, err = self._report(out, 0)
            return err or self._summary_problem(inst, report)

        argv = ["analyze", str(inst.path), "--format", "json"]
        self.ops.append(Op("analyze", inst.label, lambda: cli_call(argv), check,
                           answer=cli_answer))

    def design_and_verify(self, inst: Instance) -> None:
        """design-inputs --emit-b, then verify of its B and of B minus one column."""
        b_full = self.work / f"{inst.label}.B.el"
        b_short = self.work / f"{inst.label}.B-1.el"

        def check(out):
            report, err = self._report(out, 0)
            if err or (err := self._summary_problem(inst, report)):
                return err
            configs, mats = report["configurations"], report.get("matrices", [])
            if len(configs) != 1 or len(mats) != 1:
                return "expected one configuration and one B matrix"
            b = mats[0]
            cols = sorted(j for _, j in b["nonzeros"])
            if b["n_rows"] != inst.n or cols != list(range(1, len(configs[0]) + 1)):
                return "B is not one dedicated column per chosen state"
            if sorted(i for i, _ in b["nonzeros"]) != sorted(configs[0]):
                return "B does not actuate the chosen states"
            return self._placement_problem(inst, configs[0])

        def write_b(out):
            if b_full.exists():
                return
            rc, text = out
            if rc != 0:
                return
            b = json.loads(text)["matrices"][0]
            entries = sorted(b["nonzeros"], key=lambda e: e[1])
            for path, keep in ((b_full, entries), (b_short, entries[:-1])):
                lines = [f"shape {b['n_rows']} {len(keep)}"]
                lines.extend(f"{i} {j}" for i, j in keep)
                path.write_text("\n".join(lines) + "\n")

        argv = ["design-inputs", str(inst.path), "--emit-b", "--format", "json"]
        self.ops.append(Op("design", inst.label, lambda: cli_call(argv), check, write_b,
                           cli_answer))

        def verify_check(expect_rc: int):
            def check(out):
                report, err = self._report(out, expect_rc)
                if err:
                    return err
                if report["controllable"] != (expect_rc == 0):
                    return f"controllable = {report['controllable']} with exit code {expect_rc}"
                if expect_rc == 1:
                    # Independent confirmation that the shortened design fails.
                    rest = [s - 1 for s in self._design_states(b_short)]
                    if self._pattern(inst).controllable(rest):
                        return "checker finds B minus one column controllable"
                return None
            return check

        for path, rc in ((b_full, 0), (b_short, 1)):
            argv_v = ["verify", str(inst.path), str(path), "--format", "json"]
            self.ops.append(
                Op("verify", path.name, lambda a=argv_v: cli_call(a), verify_check(rc),
                   answer=cli_answer)
            )

    @staticmethod
    def _design_states(path: Path) -> list[int]:
        lines = path.read_text().splitlines()[1:]
        return [int(line.split()[0]) for line in lines]

    def enumerate(self, inst: Instance, limit: int) -> None:
        def check(out):
            report, err = self._report(out, 0)
            if err or (err := self._summary_problem(inst, report)):
                return err
            configs = report["configurations"]
            if not configs or len(configs) > limit:
                return f"{len(configs)} configurations for limit {limit}"
            if report["truncated"] and len(configs) != limit:
                return "truncated with fewer configurations than the limit"
            if len({tuple(c) for c in configs}) != len(configs):
                return "duplicate configurations"
            for c in configs:
                if err := self._placement_problem(inst, c):
                    return err
            return None

        argv = ["enumerate", str(inst.path), "--limit", str(limit), "--format", "json"]
        self.ops.append(Op("enumerate", inst.label, lambda: cli_call(argv), check,
                           answer=cli_answer))

    def batch(self, inst: Instance) -> None:
        """design_inputs and design_outputs on one parsed tiny pattern."""
        from structctrl import fileio, placement

        pattern = fileio.parse_pattern(inst.path)

        def run():
            summary = []
            for design in (placement.design_inputs(pattern), placement.design_outputs(pattern)):
                enum = design.enumeration
                summary.append((design.summary.p, frozenset(enum.state_sets()),
                                enum.truncated, enum.oracle_rejections))
            return tuple(summary)

        def check(out):
            n, entries = gen.read_edgelist(inst.path)
            transposed = [(j, i) for i, j in entries]
            for side, side_entries, (p, sets, truncated, rejections) in zip(
                ("inputs", "outputs"), (entries, transposed), out
            ):
                if truncated or rejections:
                    return f"design_{side}: truncated={truncated} oracle_rejections={rejections}"
                want_p, want_sets = self.checker.exhaustive_placements(n, side_entries)
                if p != want_p or sets != want_sets:
                    return f"design_{side}: p={p} with {len(sets)} placements, " \
                           f"search gives p={want_p} with {len(want_sets)}"
            return None

        self.ops.append(Op("batch", inst.label, run, check))


def erdos_sparse(b: Builder) -> None:
    big = b.instance("erdos-50000", *gen.erdos(50_000, 5.0, b.rng))
    b.analyze(big)
    for k in range(2):
        mid = b.instance(f"erdos-2500-{k}", *gen.erdos(2_500, 5.0, b.rng))
        b.design_and_verify(mid)
        b.enumerate(mid, 3)


def structured_design(b: Builder) -> None:
    for k in range(3):
        sf = b.instance(f"scalefree-1200-{k}", *gen.scalefree_dag(1_200, 2, b.rng))
        b.design_and_verify(sf)
        b.enumerate(sf, 3)
    for k in range(4):
        band = b.instance(f"banded-250-{k}", *gen.banded(250, 2, 0.5, b.rng))
        b.design_and_verify(band)


TINY_COUNT = 2000


def tiny_sweep(b: Builder) -> None:
    for k in range(TINY_COUNT):
        b.batch(b.instance(f"tiny-{k}", *gen.tiny(b.rng)))


WORKLOADS = {
    "erdos-sparse": erdos_sparse,
    "structured-design": structured_design,
    "tiny-sweep": tiny_sweep,
}

# Commands each workload times, in report order.
COMMANDS = {
    "erdos-sparse": ("analyze", "design", "verify", "enumerate"),
    "structured-design": ("design", "verify", "enumerate"),
    "tiny-sweep": ("batch",),
}
