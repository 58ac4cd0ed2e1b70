"""In-memory span tracing of the program's layers, from outside the program.

``Tracer.install`` replaces the public functions of each module at every
module attribute that holds them (modules that imported a function by name
get the wrapper too), plus the graph classes' constructors, ``transpose``
and ``successors``.  ``uninstall`` restores the originals, so untraced
passes run the program exactly as shipped.  A span is (name, start, end,
parent); spans of one benchmark operation hang under that operation's root
span.  Spans of the last traced pass are kept and written out when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = ("fileio", "graph_core", "matching", "placement", "oracle", "cli")

# Public functions wrapped, by defining module.
FUNCTIONS = {
    "fileio": ("parse_pattern",),
    "graph_core": ("build_digraph", "pattern_of", "strongly_connected_components"),
    "matching": ("solve_matching",),
    "placement": (
        "min_dedicated_inputs", "max_assignability_index", "natural_partitions",
        "generate_configuration", "enumerate_configurations", "emit_input_matrix",
        "emit_output_matrix", "design_inputs", "design_outputs",
    ),
    "oracle": ("is_structurally_controllable",),
    "cli": ("run_cli",),
}
# Methods wrapped, by class in graph_core.
METHODS = {
    "StructPattern": ("__init__", "transpose"),
    "SystemDigraph": ("__init__", "successors"),
}

COLD = "matching.solve_matching.cold"  # unseeded solve_matching calls

# Layer each span name's self time is charged to; names not listed are
# charged to the benchmark harness.
SELF_BUCKET = {
    "fileio.parse_pattern": "fileio.parse_s",
    "graph_core.build_digraph": "graph_core.build_s",
    "graph_core.pattern_of": "graph_core.build_s",
    "graph_core.StructPattern.__init__": "graph_core.build_s",
    "graph_core.StructPattern.transpose": "graph_core.build_s",
    "graph_core.SystemDigraph.__init__": "graph_core.build_s",
    "graph_core.SystemDigraph.successors": "graph_core.successors_s",
    "graph_core.strongly_connected_components": "graph_core.scc_s",
    "matching.solve_matching": "matching.self_s",
    COLD: "matching.self_s",
    "placement.min_dedicated_inputs": "placement.min_dedicated_inputs_self_s",
    "placement.max_assignability_index": "placement.min_dedicated_inputs_self_s",
    "placement.natural_partitions": "placement.natural_partitions_s",
    "placement.generate_configuration": "placement.generate_configuration_self_s",
    "placement.enumerate_configurations": "placement.enumerate_self_s",
    "placement.emit_input_matrix": "placement.emit_s",
    "placement.emit_output_matrix": "placement.emit_s",
    "placement.design_inputs": "placement.design_s",
    "placement.design_outputs": "placement.design_s",
    "oracle.is_structurally_controllable": "oracle.self_s",
    "cli.run_cli": "cli.overhead_s",
}

# Per-layer metrics reported, with units.
LAYER_METRICS = {
    "fileio.parse_s": "s",
    "graph_core.build_s": "s",
    "graph_core.successors_calls": "count",
    "graph_core.successors_s": "s",
    "graph_core.scc_s": "s",
    "matching.cold_s": "s",
    "matching.calls": "count",
    "matching.busy_s": "s",
    "placement.min_dedicated_inputs_self_s": "s",
    "placement.natural_partitions_s": "s",
    "placement.generate_configuration_self_s": "s",
    "placement.enumerate_self_s": "s",
    "placement.enumerate_nodes_per_config": "ratio",
    "placement.enumerate_yield": "ratio",
    "placement.oracle_rejections": "count",
    "oracle.calls": "count",
    "oracle.busy_s": "s",
    "cli.overhead_s": "s",
    "bench.harness_s": "s",
}

SUCCESSORS = "graph_core.SystemDigraph.successors"
ENUMERATE = "placement.enumerate_configurations"
ORACLE = "oracle.is_structurally_controllable"
MIN_INPUTS = "placement.min_dedicated_inputs"


class Tracer:
    """Span recorder; the current pass's spans stay in memory until ``write``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._open: list[int] = []
        self.emitted = 0  # configurations returned by enumerate_configurations
        self.rejections = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "matching.solve_matching":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cold = len(args) < 3 and kwargs.get("match_l") is None
                idx = tracer.open(COLD if cold else name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        elif name == ENUMERATE:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.emitted += len(result)
                tracer.rejections += result.oracle_rejections
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a program module binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"structctrl.{m}") for m in MODULES}
        bindings = [importlib.import_module("structctrl"), *mods.values()]
        for mod_name, funcs in FUNCTIONS.items():
            for fname in funcs:
                original = getattr(mods[mod_name], fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for mod in bindings:
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        for cls_name, methods in METHODS.items():
            cls = getattr(mods["graph_core"], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"graph_core.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def begin_pass(self) -> None:
        """Drop the previous pass's spans; only the last traced pass is kept."""
        for col in (self.name_ids, self.parents, self.starts, self.ends):
            del col[:]
        self._open.clear()
        self.emitted = self.rejections = 0

    def end_pass(self) -> tuple[dict[str, float], float, list[str]]:
        """Per-layer metrics over the spans of the pass just traced, the
        summed duration of the root spans, and what is wrong with the spans:
        one left open, one that ends before it starts, or one whose children
        outlast it (a negative self time).
        """
        names, nids, parents = self.names, self.name_ids, self.parents
        problems = []
        if self._open:
            problems.append(f"{len(self._open)} spans left open, innermost "
                            f"{names[nids[self._open[-1]]]}")
        if not len(nids) == len(parents) == len(self.starts) == len(self.ends):
            problems.append("span columns differ in length")
            return dict.fromkeys(LAYER_METRICS, 0.0), 0.0, problems
        dur = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, par in enumerate(parents):
            if par >= 0:
                child[par] += dur[i]
        out = dict.fromkeys(LAYER_METRICS, 0.0)
        buckets: dict[str, float] = defaultdict(float)
        roots = 0.0
        bad_end = bad_self = 0
        enum_matchings = enum_oracle_calls = 0
        for i, par in enumerate(parents):
            name = names[nids[i]]
            own = dur[i] - child[i]
            bad_end += dur[i] < 0.0
            bad_self += own < -1e-9
            buckets[SELF_BUCKET.get(name, "bench.harness_s")] += own
            if par < 0:
                roots += dur[i]
            if name in (COLD, "matching.solve_matching"):
                out["matching.calls"] += 1
                out["matching.busy_s"] += dur[i]
                if name == COLD and par >= 0 and names[nids[par]] == MIN_INPUTS:
                    out["matching.cold_s"] += dur[i]
                enum_matchings += self._inside(i, ENUMERATE)
            elif name == ORACLE:
                out["oracle.calls"] += 1
                out["oracle.busy_s"] += dur[i]
                enum_oracle_calls += self._inside(i, ENUMERATE)
            elif name == SUCCESSORS:
                out["graph_core.successors_calls"] += 1
        if bad_end:
            problems.append(f"{bad_end} spans end before they start or were never closed")
        if bad_self:
            problems.append(f"{bad_self} spans have children that outlast them")
        for key in out:
            if key in buckets:
                out[key] = buckets[key]
        out["placement.enumerate_nodes_per_config"] = enum_matchings / max(self.emitted, 1)
        out["placement.enumerate_yield"] = self.emitted / max(enum_oracle_calls, 1)
        out["placement.oracle_rejections"] = float(self.rejections)
        return out, roots, problems

    def _inside(self, i: int, name: str) -> bool:
        par = self.parents[i]
        while par >= 0:
            if self.names[self.name_ids[par]] == name:
                return True
            par = self.parents[par]
        return False

    def write(self, path: Path, meta: dict) -> None:
        """Dump the last traced pass's spans as columns of one JSON document."""
        doc = dict(meta)
        doc["names"] = self.names
        doc["name_id"] = self.name_ids.tolist()
        doc["parent"] = self.parents.tolist()
        doc["start_s"] = self.starts.tolist()
        doc["end_s"] = self.ends.tolist()
        path.write_text(json.dumps(doc))
