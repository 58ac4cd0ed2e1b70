"""Command-line interface.

Subcommands: analyze, design-inputs, design-outputs, enumerate, verify,
gen, bench.  Reports print as text by default or as a versioned JSON
document with ``--format json``.  All vertex indices in files and reports
are one-based; exit codes: 0 success, 1 verify found the pair
uncontrollable, 2 bad input or usage, 3 internal error (a broken
invariant, reported on stderr as ``internal error: ...``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from . import __version__
from .fileio import (
    FORMATS, MAX_STATES, PatternFormatError, gen_random, parse_pattern, write_pattern,
)
from .graph_core import StructPattern, build_digraph
from .oracle import is_structurally_controllable
from .placement import (
    design_inputs,
    emit_input_matrix,
    emit_output_matrix,
    enumerate_configurations,
    generate_configuration,
    min_dedicated_inputs,
    natural_partitions,
)

SCHEMA_VERSION = 1


def _one_based(states) -> list[int]:
    return [s + 1 for s in sorted(states)]


def _pattern_dict(p: StructPattern) -> dict:
    return {
        "n_rows": p.n_rows,
        "n_cols": p.n_cols,
        "nonzeros": sorted([i + 1, j + 1] for i, j in p.nonzeros),
    }


def _instance_dict(pattern: StructPattern, cond) -> dict:
    return {
        "n": pattern.n_rows,
        "edge_count": pattern.nnz,
        "scc_count": cond.n_sccs,
        "non_top_linked_count": cond.beta,
    }


def _summary_dict(summary) -> dict:
    return {
        "m": summary.m,
        "beta": summary.beta,
        "alpha": summary.alpha,
        "p": summary.p,
        "assignable_vertices": _one_based(summary.assignable_vertices),
        "assignment_edges": sorted([i + 1, j + 1] for i, j in summary.assignment_edges),
    }


def _print_report(report: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _summary_line(summary) -> str:
    return f"m={summary.m} beta={summary.beta} alpha={summary.alpha} p={summary.p}"


def _cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    pattern = parse_pattern(args.file, args.input_format)
    t1 = time.perf_counter()
    g = build_digraph(pattern)
    summary = min_dedicated_inputs(g)
    t2 = time.perf_counter()
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "instance": _instance_dict(pattern, summary.condensation),
        "summary": _summary_dict(summary),
        "timings_ms": {
            "parse": round(1000 * (t1 - t0), 3),
            "analyze": round(1000 * (t2 - t1), 3),
        },
    }
    text = [
        f"instance: n={pattern.n_rows} edges={pattern.nnz} "
        f"sccs={summary.condensation.n_sccs}",
        _summary_line(summary),
    ]
    _print_report(report, args.format, text)
    return 0


def _design_report(args, dual: bool) -> int:
    t0 = time.perf_counter()
    pattern = parse_pattern(args.file, args.input_format)
    t1 = time.perf_counter()
    if dual and not pattern.is_square:
        raise ValueError(
            f"state pattern must be square, got {pattern.n_rows}x{pattern.n_cols}"
        )
    work_pattern = pattern.transpose() if dual else pattern
    g = build_digraph(work_pattern)
    summary = min_dedicated_inputs(g)
    partitions = natural_partitions(g, summary)
    truncated = False
    if args.all:
        enum = enumerate_configurations(g, summary, partitions, limit=args.limit)
        configs = sorted(enum.configurations, key=lambda c: c.sorted_states())
        truncated = enum.truncated
    else:
        configs = [generate_configuration(g, summary)]
    t2 = time.perf_counter()

    kind = "outputs" if dual else "inputs"
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": f"design-{kind}",
        "instance": _instance_dict(pattern, summary.condensation),
        "summary": _summary_dict(summary),
        "partitions": [_one_based(t) for t in partitions.thetas],
        "configurations": [_one_based(c.states) for c in configs],
        "truncated": truncated,
        "timings_ms": {
            "parse": round(1000 * (t1 - t0), 3),
            "design": round(1000 * (t2 - t1), 3),
        },
    }
    text = [_summary_line(summary)]
    for c in configs:
        text.append("configuration: " + " ".join(str(s) for s in _one_based(c.states)))
    if truncated:
        print(
            f"warning: configuration list truncated at limit={args.limit}",
            file=sys.stderr,
        )
        text.append(f"truncated: true (limit={args.limit})")
    emit_flag = args.emit_b if not dual else args.emit_c
    if emit_flag:
        matrices = []
        for c in configs:
            mat = (
                emit_output_matrix(c, pattern.n_rows)
                if dual
                else emit_input_matrix(c, pattern.n_rows)
            )
            matrices.append(_pattern_dict(mat))
            name = "C" if dual else "B"
            text.append(f"{name} pattern ({mat.n_rows}x{mat.n_cols}): " + " ".join(
                f"({i},{j})" for i, j in sorted(
                    (i + 1, j + 1) for i, j in mat.nonzeros
                )
            ))
        report["matrices"] = matrices
    _print_report(report, args.format, text)
    return 0


def _cmd_design_inputs(args) -> int:
    return _design_report(args, dual=False)


def _cmd_design_outputs(args) -> int:
    return _design_report(args, dual=True)


def _cmd_enumerate(args) -> int:
    pattern = parse_pattern(args.file, args.input_format)
    design = design_inputs(pattern, limit=args.limit)
    summary, enum = design.summary, design.enumeration
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "enumerate",
        "instance": _instance_dict(pattern, summary.condensation),
        "summary": _summary_dict(summary),
        "configurations": sorted(_one_based(c.states) for c in enum),
        "truncated": enum.truncated,
    }
    text = [_summary_line(summary)]
    for c in sorted(enum, key=lambda c: c.sorted_states()):
        text.append("configuration: " + " ".join(str(s) for s in _one_based(c.states)))
    text.append(f"count: {len(enum)}")
    if enum.truncated:
        text.append(f"truncated: true (limit={args.limit})")
    _print_report(report, args.format, text)
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    a = parse_pattern(args.a_file, args.input_format)
    b = parse_pattern(args.b_file, args.input_format)
    verdict = is_structurally_controllable(a, b, trials=args.trials, seed=args.seed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "controllable": verdict.controllable,
        "accessibility_ok": verdict.accessibility_ok,
        "dilation_free": verdict.dilation_free,
        "numeric_rank": verdict.numeric_rank,
    }
    text = [
        f"controllable: {str(verdict.controllable).lower()}",
        f"accessibility: {str(verdict.accessibility_ok).lower()}",
        f"dilation-free: {str(verdict.dilation_free).lower()}",
    ]
    if verdict.numeric_rank is not None:
        text.append(f"numeric rank: {verdict.numeric_rank} / {a.n_rows}")
    _print_report(report, args.format, text)
    return 0 if verdict.controllable else 1


def _cmd_gen(args) -> int:
    pattern, provenance = gen_random(
        args.n,
        args.model,
        seed=args.seed,
        p_edge=args.p_edge,
        attach=args.attach,
        band=args.band,
        fill=args.fill,
    )
    if args.output:
        write_pattern(pattern, args.output, args.output_format, header_lines=(provenance,))
        print(f"wrote {pattern.n_rows}x{pattern.n_cols} pattern "
              f"({pattern.nnz} nonzeros) to {args.output}")
    else:
        print(f"# {provenance}")
        print(f"n {pattern.n_rows}")
        for i, j in sorted((i + 1, j + 1) for i, j in pattern.nonzeros):
            print(f"{i} {j}")
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes or any(s < 2 for s in sizes):
        raise ValueError(f"--sizes needs integers >= 2, got {args.sizes!r}")
    if max(sizes) > MAX_STATES:
        raise ValueError(f"--sizes: n={max(sizes)} exceeds the limit of {MAX_STATES} states")
    rows = []
    for k, n in enumerate(sizes):
        pattern, _ = gen_random(n, "erdos", seed=args.seed + k, p_edge=args.degree / n)
        g = build_digraph(pattern)
        t0 = time.perf_counter()
        summary = min_dedicated_inputs(g)
        elapsed = time.perf_counter() - t0
        rows.append({
            "n": n,
            "edges": pattern.nnz,
            "seconds": round(elapsed, 4),
            "m": summary.m,
            "beta": summary.beta,
            "alpha": summary.alpha,
            "p": summary.p,
        })
    exponent = None
    if len({r["n"] for r in rows}) >= 2:
        xs = [math.log10(r["n"]) for r in rows]
        ys = [math.log10(max(r["seconds"], 1e-9)) for r in rows]
        exponent = round(statistics.linear_regression(xs, ys).slope, 3)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "bench",
        "average_degree": args.degree,
        "runs": rows,
        "fitted_exponent": exponent,
    }
    text = [f"{'n':>8} {'edges':>9} {'seconds':>9}  m/beta/alpha/p"]
    for r in rows:
        text.append(
            f"{r['n']:>8} {r['edges']:>9} {r['seconds']:>9.4f}  "
            f"{r['m']}/{r['beta']}/{r['alpha']}/{r['p']}"
        )
    if exponent is not None:
        text.append(f"fitted runtime exponent vs n: {exponent}")
    _print_report(report, args.format, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structctrl",
        description="Minimal dedicated input/output placement for structural controllability.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_limit=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--input-format", choices=FORMATS, default=None,
            help="override extension-based file format detection",
        )
        if with_limit:
            p.add_argument("--limit", type=int, default=10_000)

    p = sub.add_parser("analyze", help="report m, beta, alpha and p for a state pattern")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("design-inputs", help="place a minimum set of dedicated inputs")
    p.add_argument("file")
    p.add_argument("--all", action="store_true", help="list every minimal configuration")
    p.add_argument("--emit-b", action="store_true", help="print the canonical input patterns")
    common(p, with_limit=True)
    p.set_defaults(func=_cmd_design_inputs)

    p = sub.add_parser("design-outputs", help="place a minimum set of dedicated outputs")
    p.add_argument("file")
    p.add_argument("--all", action="store_true")
    p.add_argument("--emit-c", action="store_true", help="print the canonical output patterns")
    common(p, with_limit=True)
    p.set_defaults(func=_cmd_design_outputs)

    p = sub.add_parser("enumerate", help="list minimal input configurations")
    p.add_argument("file")
    common(p, with_limit=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="oracle check of an (A, B) pattern pair")
    p.add_argument("a_file")
    p.add_argument("b_file")
    p.add_argument("--trials", type=int, default=0,
                   help="also compute the exact Kalman rank over GF(2^61-1) of up to "
                        "this many random realizations, stopping at the first of full rank")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random pattern")
    p.add_argument("model", choices=("erdos", "scalefree", "banded"))
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-edge", type=float, default=None, dest="p_edge")
    p.add_argument("--attach", type=int, default=None)
    p.add_argument("--band", type=int, default=None)
    p.add_argument("--fill", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--output-format", choices=FORMATS, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time analyze across sizes and fit the exponent")
    p.add_argument("--sizes", default="1000,10000,50000")
    p.add_argument("--degree", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def run_cli(argv=None) -> int:
    """Parse arguments and run one subcommand; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PatternFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
