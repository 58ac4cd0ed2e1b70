"""structctrl benchmark: end-to-end command latency on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload erdos-sparse --seed 1 --seconds 36 --trace 0

Set-up writes the workload's instances under ``.perfbench_out/`` and times
a fresh interpreter importing structctrl (``setup_s``).  The run then
repeats passes over the workload's operations, in one process and one
thread, until the next pass would overrun ``--seconds``; every pass runs at
least once.  Each operation has a time limit; one that runs past it is
stopped, counted as failed, and charged the limit.  After timing, every
distinct output is checked by ``check.py``, which shares no code with the
program.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
wrap the program's public functions (see ``tracer.py``) and give the
per-layer metrics plus ``trace.overhead_frac``.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# An operation may run up to OP_LIMIT_S; none starts later than OVERRUN_S past
# --seconds.  Together with set-up and checking, a run stays under 180 s.
OP_LIMIT_S = 60.0
OVERRUN_S = 60.0
SETUP_REPEATS = 9
MAX_SHOWN = 20  # failing operations listed on stdout
# Largest share of a traced pass that may fall outside the program's traced
# functions; more means time the layer metrics cannot see.
HARNESS_MAX_SHARE = 0.05

COMMAND_UNITS = {
    "analyze_s": "s", "design_s": "s", "enumerate_s": "s", "verify_s": "s", "batch_per_s": "1/s",
}


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that ran past its limit.

    A BaseException, so no ``except Exception`` inside the program swallows it.
    """


def _alarm(signum, frame):
    raise OpTimeout


def run_op(op, limit: float = OP_LIMIT_S) -> tuple[float, object, str | None]:
    """Run one operation under a time limit: (seconds, output, error).

    Needs ``_alarm`` installed as the SIGALRM handler.
    """
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return time.perf_counter() - t0, None, f"stopped at the {limit:g} s limit"
    except Exception as exc:  # a crash is a failed operation, not a failed run
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def measure_setup(root: Path) -> float:
    """Median wall time of a fresh interpreter importing structctrl and
    returning from ``run_cli(["--version"])``."""
    env = dict(os.environ, PYTHONPATH="src")
    code = "from structctrl.cli import run_cli; run_cli(['--version'])"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_record(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "structctrl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_pass(ops, outputs, deadline, tracer=None):
    """One pass over ``ops``; returns seconds per command, the pass time,
    (op index, error) failures and seconds per operation.

    Each output is reduced to its answer (``Op.answer``) and counted per
    operation, so only one copy of each distinct answer is kept.
    """
    by_command: dict[str, float] = {}
    failures = []
    per_op = [0.0] * len(ops)
    total = 0.0
    for k, op in enumerate(ops):
        if time.perf_counter() > deadline:
            failures.append((k, "not started: run overran its time budget"))
            continue
        if tracer is not None:
            root = tracer.open(f"bench.{op.command}")
        try:
            seconds, out, err = run_op(op)
        finally:
            if tracer is not None:
                tracer.close(root)
        by_command[op.command] = by_command.get(op.command, 0.0) + seconds
        per_op[k] = seconds
        total += seconds
        if err is not None:
            failures.append((k, err))
            continue
        if op.answer is not None:
            out = op.answer(out)
        outputs[k][out] = outputs[k].get(out, 0) + 1
        if op.after is not None:
            op.after(out)
    return by_command, total, failures, per_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "structctrl" / "__init__.py").is_file():
        print("error: run from the repository root; src/structctrl not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload == "all":
        return _run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import structctrl  # noqa: F401  (fails here, before any output, if the program is broken)

    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, root, out_dir, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, out_dir: Path, work: Path, workloads) -> int:
    pins = json.loads((Path(__file__).parent / "pins.json").read_text())
    setup_s = measure_setup(root)

    builder = workloads.Builder(args.workload, args.seed, work, pins)
    workloads.WORKLOADS[args.workload](builder)
    ops = builder.ops
    # High-water mark of set-up: the interpreter, the program's imports and
    # the instance generator; the part of peak_rss_mb that timing did not add.
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        from tracer import LAYER_METRICS, Tracer
        tracer = Tracer()

    signal.signal(signal.SIGALRM, _alarm)
    outputs: list[dict[object, int]] = [{} for _ in ops]
    errors: dict[int, list[str]] = {}
    # traced? -> (by_command, pass_s, layers, per_op) per pass
    samples = {False: [], True: []}
    attempted = failed = 0
    t_start = time.perf_counter()
    deadline = t_start + args.seconds + OVERRUN_S
    traced_next = False
    while True:
        layers = None
        if traced_next:
            tracer.install()
            tracer.begin_pass()
        try:
            by_command, pass_s, failures, per_op = run_pass(
                ops, outputs, deadline, tracer if traced_next else None
            )
        finally:
            if traced_next:
                tracer.uninstall()
        if traced_next:
            layers, roots, problems = tracer.end_pass()
            harness = layers["bench.harness_s"]
            if harness > HARNESS_MAX_SHARE * roots:
                problems.append(f"{harness:.4f} s of {roots:.4f} s traced is outside "
                                f"the program's traced functions")
            if problems:
                errors.setdefault(-1, []).extend(problems)
        samples[traced_next].append((by_command, pass_s, layers, per_op))
        attempted += len(ops)
        failed += len(failures)
        for k, err in failures:
            errors.setdefault(k, []).append(err)
        if tracer is not None:
            traced_next = not traced_next
        elapsed = time.perf_counter() - t_start
        need_more = tracer is not None and not samples[True]
        if not need_more and elapsed + pass_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Check every distinct answer; a rejected answer fails each pass that gave it.
    # The checker, and with it scipy, is imported only now, after timing.
    import check
    builder.checker = check
    for k, op in enumerate(ops):
        for out, times in outputs[k].items():
            try:
                problem = op.check(out)
            except Exception as exc:  # a malformed report is a wrong answer
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                errors.setdefault(k, []).append(problem)
                failed += times
    untraced = samples[False]
    correct = failed == 0 and -1 not in errors

    # Each operation's median over the untraced passes; sums give the
    # per-command times and the pass time.
    n_untraced = len(untraced)
    op_median = _op_medians(untraced)
    per_command = {}
    for cmd in workloads.COMMANDS[args.workload]:
        secs = sum(t for t, op in zip(op_median, ops) if op.command == cmd)
        if cmd == "batch":
            per_command["batch_per_s"] = workloads.TINY_COUNT / secs
        else:
            per_command[f"{cmd}_s"] = secs
    pass_med = sum(op_median)
    fail_frac = failed / attempted

    if args.trace:
        traced = samples[True]
        metrics = {
            name: {"value": statistics.median(s[2][name] for s in traced), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
        metrics["trace.overhead_frac"] = {
            "value": sum(_op_medians(traced)) / pass_med - 1.0, "unit": "ratio"
        }
    else:
        metrics = {
            "pass_s": {"value": pass_med, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    machine = machine_record(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"untraced passes {n_untraced}  traced passes {len(samples[True])}")
    for name, value in per_command.items():
        print(f"  {name:<16} {value:12.4f} {COMMAND_UNITS[name]:<4} from per-operation medians of {n_untraced} passes")
    print(f"  {'pass_s':<16} {pass_med:12.4f} s    from per-operation medians of {n_untraced} passes")
    print(f"  {'peak_rss_mb':<16} {peak_rss_mb:12.1f} MB   of which set-up reached {setup_rss_mb:.1f} MB")
    print(f"  {'setup_s':<16} {setup_s:12.4f} s    median of {SETUP_REPEATS} interpreters")
    print(f"  {'fail_frac':<16} {fail_frac:12.4f}      {failed} of {attempted} operations")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:12.6g} {m['unit']}")
    shown = sorted(errors.items())
    for k, errs in shown[:MAX_SHOWN]:
        where = "trace" if k < 0 else f"{ops[k].command} {ops[k].label}"
        print(f"  FAILED {where}: {errs[0]}" + (f" (+{len(errs) - 1} more)" if len(errs) > 1 else ""))
    if len(shown) > MAX_SHOWN:
        print(f"  ... {len(shown) - MAX_SHOWN} more operations failed; see the result file")
    print("machine " + json.dumps(machine))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": machine, "per_command": per_command, "fail_frac": fail_frac,
        "setup_rss_mb": setup_rss_mb,
        "passes": [{"traced": t, "pass_s": s[1], "by_command": s[0]}
                   for t in (False, True) for s in samples[t]],
        "ops": [{"command": op.command, "label": op.label, "median_s": t}
                for op, t in zip(ops, op_median)],
        "errors": {str(k): v for k, v in errors.items()},
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.json", {"workload": args.workload, "seed": args.seed})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _run_all(args, names: list[str]) -> int:
    """Run every workload in its own process, one after another.

    Prints each workload's report, then one JSON line that sums attempted
    and failed operations and prefixes each metric with its workload.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def _op_medians(samples) -> list[float]:
    """Each operation's median latency over the given passes."""
    return [statistics.median(col) for col in zip(*(s[3] for s in samples))]


if __name__ == "__main__":
    sys.exit(main())
