"""Command-line interface.

Subcommands: analyze, design-inputs, design-outputs, enumerate, verify,
gen, bench.  Reports print as text by default or, with ``--format json``,
as a versioned JSON document on one compact line (sorted keys, no
indentation, so that the C encoder writes it); each command builds only
the output it prints.  analyze, design-* and enumerate share one front
end, which parses the file, builds the digraph (turned round for
design-outputs, whose problem is the input problem on the transpose),
keeps only ``n`` and the entry count of the pattern and analyzes; bench
drops each pattern the same way.  The argument parser is built once per
process and reused by every ``run_cli`` call.  All vertex indices in
files and reports are one-based; exit codes: 0 success, 1 verify found
the pair uncontrollable, 2 bad input or usage, 3 internal error (a
broken invariant, reported on stderr as ``internal error: ...``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings

from . import __version__
from .fileio import (
    FORMATS, MAX_STATES, PatternFormatError, _json_document, _short, gen_random, parse_pattern,
    write_pattern,
)
from .graph_core import build_digraph
from .oracle import is_structurally_controllable
from .placement import (
    emit_input_matrix,
    emit_output_matrix,
    enumerate_configurations,
    generate_configuration,
    min_dedicated_inputs,
    natural_partitions,
)

SCHEMA_VERSION = 1

# Bounds on ``verify --trials``.  One exact Kalman-rank trial is O(n^3)
# arithmetic on Python integers and keeps an n x n basis: about 8 s at
# n = 400 on a 2-core machine, so by the cubic growth about 2 minutes at
# the state limit.  A controllable pair misses full rank with probability
# about n^2 / 2^61 per trial, so a few trials are already conclusive.
MAX_TRIAL_STATES = 1_000
MAX_TRIALS = 20


def _int(text: str) -> int:
    """``int`` for an option value; an over-long value is shortened in the error."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_short(text)!r}") from None


def _one_based(states) -> list[int]:
    return [s + 1 for s in sorted(states)]


def _summary_dict(summary) -> dict:
    # Schema v1 lists the assignment graph edge by edge, expanded here until
    # schema v2 (ROADMAP item 1): slot i, the i-th smallest assignable
    # vertex, serves its own source SCC and every open one.
    scc_of = summary.condensation.scc_of
    slots = enumerate(sorted(summary.assignable_vertices))
    edges = {(i, j) for i, v in slots for j in (scc_of[v], *summary.open_sccs)}
    return {
        "m": summary.m,
        "beta": summary.beta,
        "alpha": summary.alpha,
        "p": summary.p,
        "assignable_vertices": _one_based(summary.assignable_vertices),
        "assignment_edges": sorted([i + 1, j + 1] for i, j in edges),
    }


def _print_json(report: dict) -> None:
    # Any ``indent`` sends json.dumps to its pure-Python encoder.
    print(json.dumps(report, sort_keys=True))


def _summary_line(summary) -> str:
    return f"m={summary.m} beta={summary.beta} alpha={summary.alpha} p={summary.p}"


def _front_end(args, dual: bool = False):
    """Parse ``args.file``, build its digraph (turned round for
    design-outputs), drop the pattern and analyze.  Returns the digraph, the
    summary, the report's instance block, the parse time in ms and the
    moment parsing ended."""
    t0 = time.perf_counter()
    pattern = parse_pattern(args.file, args.input_format)
    t1 = time.perf_counter()
    instance = {"n": pattern.n_rows, "edge_count": pattern.nnz}
    g = build_digraph(pattern)
    del pattern  # the later stages read the digraph only
    if dual:
        g = g.reversed()
    summary = min_dedicated_inputs(g)
    instance.update(scc_count=summary.condensation.n_sccs, non_top_linked_count=summary.beta)
    return g, summary, instance, round(1000 * (t1 - t0), 3), t1


def _cmd_analyze(args) -> int:
    _, summary, instance, parse_ms, t1 = _front_end(args)
    t2 = time.perf_counter()
    if args.format == "text":
        print(f"instance: n={instance['n']} edges={instance['edge_count']} "
              f"sccs={instance['scc_count']}")
        print(_summary_line(summary))
        return 0
    _print_json({
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "instance": instance,
        "summary": _summary_dict(summary),
        "timings_ms": {"parse": parse_ms, "analyze": round(1000 * (t2 - t1), 3)},
    })
    return 0


def _design_report(args, dual: bool) -> int:
    g, summary, instance, parse_ms, t1 = _front_end(args, dual)
    # Only the JSON report holds the partitions, O(m*E) to compute.
    partitions = natural_partitions(g, summary) if args.format == "json" else None
    truncated = False
    if args.all:
        enum = enumerate_configurations(g, summary, limit=args.limit)
        configs = sorted(enum, key=sorted)
        truncated = enum.truncated
    else:
        configs = [generate_configuration(g, summary)]
    t2 = time.perf_counter()

    if truncated:
        print(
            f"warning: configuration list truncated at limit={args.limit}",
            file=sys.stderr,
        )
    emit = emit_output_matrix if dual else emit_input_matrix
    matrices = [emit(c, g.n) for c in configs] if args.emit else []
    if args.format == "text":
        print(_summary_line(summary))
        for c in configs:
            print("configuration: " + " ".join(str(s) for s in _one_based(c)))
        if truncated:
            print(f"truncated: true (limit={args.limit})")
        name = "C" if dual else "B"
        for mat in matrices:
            cells = sorted((i + 1, j + 1) for i, j in mat.nonzeros)
            print(f"{name} pattern ({mat.n_rows}x{mat.n_cols}): "
                  + " ".join(f"({i},{j})" for i, j in cells))
        return 0
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "instance": instance,
        "summary": _summary_dict(summary),
        "partitions": [_one_based(t) for t in partitions],
        "configurations": [_one_based(c) for c in configs],
        "truncated": truncated,
        "timings_ms": {"parse": parse_ms, "design": round(1000 * (t2 - t1), 3)},
    }
    if args.emit:
        report["matrices"] = [_json_document(mat) for mat in matrices]
    _print_json(report)
    return 0


def _cmd_enumerate(args) -> int:
    g, summary, instance, _, _ = _front_end(args)
    enum = enumerate_configurations(g, summary, limit=args.limit)
    if args.format == "text":
        print(_summary_line(summary))
        for c in sorted(enum, key=sorted):
            print("configuration: " + " ".join(str(s) for s in _one_based(c)))
        print(f"count: {len(enum)}")
        if enum.truncated:
            print(f"truncated: true (limit={args.limit})")
        return 0
    _print_json({
        "schema_version": SCHEMA_VERSION,
        "command": "enumerate",
        "instance": instance,
        "summary": _summary_dict(summary),
        "configurations": sorted(_one_based(c) for c in enum),
        "truncated": enum.truncated,
    })
    return 0


def _cmd_verify(args) -> int:
    if not 0 <= args.trials <= MAX_TRIALS:
        got = _short(str(args.trials))
        raise ValueError(f"--trials must be between 0 and {MAX_TRIALS}, got {got}")
    a = parse_pattern(args.a_file, args.input_format)
    if args.trials and a.n_rows > MAX_TRIAL_STATES:
        raise ValueError(
            f"--trials needs at most {MAX_TRIAL_STATES} states, got n={a.n_rows}; "
            "the graph verdict without --trials is exact at any size"
        )
    b = parse_pattern(args.b_file, args.input_format)
    verdict = is_structurally_controllable(a, b, trials=args.trials, seed=args.seed)
    if args.format == "text":
        print(f"controllable: {str(verdict.controllable).lower()}")
        print(f"accessibility: {str(verdict.accessibility_ok).lower()}")
        print(f"dilation-free: {str(verdict.dilation_free).lower()}")
        if verdict.numeric_rank is not None:
            print(f"numeric rank: {verdict.numeric_rank} / {a.n_rows}")
    else:
        _print_json({
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "controllable": verdict.controllable,
            "accessibility_ok": verdict.accessibility_ok,
            "dilation_free": verdict.dilation_free,
            "numeric_rank": verdict.numeric_rank,
        })
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
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes or any(s < 2 for s in sizes):
        got = ",".join(_short(s) for s in args.sizes.split(","))
        raise ValueError(f"--sizes needs integers >= 2, got {got!r}")
    if max(sizes) > MAX_STATES:
        n = _short(str(max(sizes)))
        raise ValueError(f"--sizes: n={n} exceeds the limit of {MAX_STATES} states")
    if not 0 <= args.degree <= min(sizes):  # the edge probability is degree / n
        raise ValueError(f"--degree must be between 0 and the smallest size, got {args.degree}")
    rows = []
    for k, n in enumerate(sizes):
        pattern, _ = gen_random(n, "erdos", seed=args.seed + k, p_edge=args.degree / n)
        nnz = pattern.nnz
        g = build_digraph(pattern)
        del pattern
        t0 = time.perf_counter()
        summary = min_dedicated_inputs(g)
        elapsed = time.perf_counter() - t0
        rows.append({
            "n": n,
            "edges": nnz,
            "seconds": round(elapsed, 4),
            "m": summary.m,
            "beta": summary.beta,
            "alpha": summary.alpha,
            "p": summary.p,
        })
    exponent = None
    if len({r["n"] for r in rows}) >= 2:
        import statistics  # only bench reads it, so other commands start without it

        xs = [math.log10(r["n"]) for r in rows]
        ys = [math.log10(max(r["seconds"], 1e-9)) for r in rows]
        exponent = round(statistics.linear_regression(xs, ys).slope, 3)
    if args.format == "text":
        print(f"{'n':>8} {'edges':>9} {'seconds':>9}  m/beta/alpha/p")
        for r in rows:
            print(
                f"{r['n']:>8} {r['edges']:>9} {r['seconds']:>9.4f}  "
                f"{r['m']}/{r['beta']}/{r['alpha']}/{r['p']}"
            )
        if exponent is not None:
            print(f"fitted runtime exponent vs n: {exponent}")
        return 0
    _print_json({
        "schema_version": SCHEMA_VERSION,
        "command": "bench",
        "average_degree": args.degree,
        "runs": rows,
        "fitted_exponent": exponent,
    })
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
            p.add_argument("--limit", type=_int, default=10_000)

    p = sub.add_parser("analyze", help="report m, beta, alpha and p for a state pattern")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("design-inputs", help="place a minimum set of dedicated inputs")
    p.add_argument("file")
    p.add_argument("--all", action="store_true", help="list every minimal configuration")
    p.add_argument("--emit-b", action="store_true", dest="emit",
                   help="print the canonical input patterns")
    common(p, with_limit=True)
    p.set_defaults(func=functools.partial(_design_report, dual=False))

    p = sub.add_parser("design-outputs", help="place a minimum set of dedicated outputs")
    p.add_argument("file")
    p.add_argument("--all", action="store_true")
    p.add_argument("--emit-c", action="store_true", dest="emit",
                   help="print the canonical output patterns")
    common(p, with_limit=True)
    p.set_defaults(func=functools.partial(_design_report, dual=True))

    p = sub.add_parser("enumerate", help="list minimal input configurations")
    p.add_argument("file")
    common(p, with_limit=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="oracle check of an (A, B) pattern pair")
    p.add_argument("a_file")
    p.add_argument("b_file")
    p.add_argument("--trials", type=_int, default=0,
                   help="also compute the exact Kalman rank over GF(2^61-1) of up to "
                        f"this many random realizations (at most {MAX_TRIALS}), stopping at "
                        f"the first of full rank; needs n <= {MAX_TRIAL_STATES}")
    p.add_argument("--seed", type=_int, default=0)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random pattern")
    p.add_argument("model", choices=("erdos", "scalefree", "banded"))
    p.add_argument("n", type=_int)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--p-edge", type=float, default=None, dest="p_edge")
    p.add_argument("--attach", type=_int, default=None)
    p.add_argument("--band", type=_int, default=None)
    p.add_argument("--fill", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--output-format", choices=FORMATS, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time analyze across sizes and fit the exponent")
    p.add_argument("--sizes", default="1000,10000,50000")
    p.add_argument("--degree", type=float, default=5.0)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; ``parse_args`` leaves it unchanged."""
    return build_parser()


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run_cli(argv=None) -> int:
    """Parse arguments and run one subcommand; returns the exit status.

    Library warnings print as one ``warning: <message>`` line each, on
    every call.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
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
