"""Pattern file formats and random instance generation.

Three interchangeable on-disk formats, all one-based (matching the usual
textbook indexing so files can be checked by eye):

* edgelist -- lines ``i j`` meaning entry (i, j) is non-zero.  ``#`` starts
  a comment.  An optional directive line ``n N`` (square) or ``shape R C``
  fixes the dimensions; otherwise the smallest square hull of the entries
  is used.
* pattern-json -- ``{"n_rows": R, "n_cols": C, "nonzeros": [[i, j], ...]}``
  (or ``"n"`` for square patterns).
* mtx-pattern -- the Matrix Market coordinate subset.  Pattern, real and
  integer fields are accepted; values on entry lines are ignored.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from pathlib import Path

from .graph_core import StructPattern

FORMATS = ("edgelist", "pattern-json", "mtx-pattern")

_EXTENSIONS = {
    ".el": "edgelist",
    ".edges": "edgelist",
    ".txt": "edgelist",
    ".json": "pattern-json",
    ".mtx": "mtx-pattern",
}


class PatternFormatError(ValueError):
    """Malformed pattern file; the message carries the offending line."""


def detect_format(path: str | Path, text: str | None = None) -> str:
    ext = Path(path).suffix.lower()
    if ext in _EXTENSIONS:
        return _EXTENSIONS[ext]
    if text is not None:
        head = text.lstrip()
        if head.startswith("%%MatrixMarket"):
            return "mtx-pattern"
        if head.startswith("{"):
            return "pattern-json"
    return "edgelist"


def parse_pattern(path: str | Path, fmt: str | None = None) -> StructPattern:
    """Read a pattern file; ``fmt`` overrides extension-based detection."""
    text = Path(path).read_text()
    if fmt is None:
        fmt = detect_format(path, text)
    if fmt not in FORMATS:
        raise PatternFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "pattern-json":
        return _parse_json(text)
    return _parse_mtx(text)


def _dedup(entries: list[tuple[int, int, int]], what: str) -> set[tuple[int, int]]:
    seen: set[tuple[int, int]] = set()
    dupes = 0
    for _, i, j in entries:
        if (i, j) in seen:
            dupes += 1
        seen.add((i, j))
    if dupes:
        warnings.warn(f"{dupes} duplicate {what} entr{'y' if dupes == 1 else 'ies'} ignored")
    return seen


def _parse_edgelist(text: str) -> StructPattern:
    entries: list[tuple[int, int, int]] = []  # (line_no, row, col) one-based
    declared: tuple[int, int] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or not _is_size(parts[1]):
                raise PatternFormatError(f"line {line_no}: malformed size directive {raw!r}")
            declared = (int(parts[1]), int(parts[1]))
            continue
        if parts[0] == "shape":
            if len(parts) != 3 or not all(_is_size(p) for p in parts[1:]):
                raise PatternFormatError(f"line {line_no}: malformed shape directive {raw!r}")
            declared = (int(parts[1]), int(parts[2]))
            continue
        if len(parts) != 2:
            raise PatternFormatError(f"line {line_no}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise PatternFormatError(f"line {line_no}: non-integer index in {raw!r}") from None
        if i < 1 or j < 1:
            raise PatternFormatError(f"line {line_no}: indices are one-based, got ({i}, {j})")
        entries.append((line_no, i, j))

    if declared is None:
        size = max((max(i, j) for _, i, j in entries), default=0)
        declared = (size, size)
    n_rows, n_cols = declared
    for line_no, i, j in entries:
        if i > n_rows or j > n_cols:
            raise PatternFormatError(
                f"line {line_no}: entry ({i}, {j}) outside declared {n_rows}x{n_cols} pattern"
            )
    nonzeros = _dedup(entries, "edgelist")
    return StructPattern(n_rows, n_cols, frozenset((i - 1, j - 1) for i, j in nonzeros))


def _parse_json(text: str) -> StructPattern:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PatternFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise PatternFormatError("pattern JSON must be an object")
    keys = ("n", "n") if "n" in data and "n_rows" not in data else ("n_rows", "n_cols")
    for key in keys:
        if key not in data:
            raise PatternFormatError(f"pattern JSON missing key {key!r}")
        if not _is_json_int(data[key]) or data[key] < 0:
            raise PatternFormatError(f"{key}: expected a non-negative integer, got {data[key]!r}")
    n_rows, n_cols = data[keys[0]], data[keys[1]]
    raw = data.get("nonzeros", [])
    if not isinstance(raw, list):
        raise PatternFormatError(f"nonzeros: expected a list of pairs, got {raw!r}")
    entries = []
    for k, pair in enumerate(raw, start=1):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise PatternFormatError(f"nonzeros[{k - 1}]: expected a pair, got {pair!r}")
        i, j = pair
        if not (_is_json_int(i) and _is_json_int(j) and i >= 1 and j >= 1):
            raise PatternFormatError(f"nonzeros[{k - 1}]: indices are one-based integers")
        if i > n_rows or j > n_cols:
            raise PatternFormatError(
                f"nonzeros[{k - 1}]: entry ({i}, {j}) outside {n_rows}x{n_cols} pattern"
            )
        entries.append((k, i, j))
    nonzeros = _dedup(entries, "JSON")
    return StructPattern(n_rows, n_cols, frozenset((i - 1, j - 1) for i, j in nonzeros))


def _is_json_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_mtx(text: str) -> StructPattern:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise PatternFormatError("line 1: missing %%MatrixMarket header")
    header = lines[0].split()
    if len(header) < 4 or header[1].lower() != "matrix" or header[2].lower() != "coordinate":
        raise PatternFormatError(f"line 1: unsupported header {lines[0]!r}")
    field = header[3].lower()
    if field not in ("pattern", "real", "integer"):
        raise PatternFormatError(f"line 1: unsupported field {field!r}")
    symmetry = header[4].lower() if len(header) > 4 else "general"
    if symmetry not in ("general", "symmetric"):
        raise PatternFormatError(f"line 1: unsupported symmetry {symmetry!r}")

    dims: tuple[int, int, int] | None = None
    size_line = 0
    entries: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if dims is None:
            if len(parts) != 3 or not all(_is_size(p) for p in parts):
                raise PatternFormatError(f"line {line_no}: malformed size line {raw!r}")
            dims = (int(parts[0]), int(parts[1]), int(parts[2]))
            size_line = line_no
            continue
        if len(parts) < 2 or not _is_int(parts[0]) or not _is_int(parts[1]):
            raise PatternFormatError(f"line {line_no}: malformed entry {raw!r}")
        i, j = int(parts[0]), int(parts[1])  # trailing values ignored
        if not (1 <= i <= dims[0] and 1 <= j <= dims[1]):
            raise PatternFormatError(
                f"line {line_no}: entry ({i}, {j}) outside {dims[0]}x{dims[1]} matrix"
            )
        entries.append((line_no, i, j))
    if dims is None:
        raise PatternFormatError("missing size line")
    if len(entries) != dims[2]:
        raise PatternFormatError(
            f"line {size_line}: size line declares {dims[2]} entries, found {len(entries)}"
        )
    if symmetry == "symmetric":
        entries = entries + [(ln, j, i) for ln, i, j in entries if i != j]
    nonzeros = _dedup(entries, "matrix")
    return StructPattern(dims[0], dims[1], frozenset((i - 1, j - 1) for i, j in nonzeros))


def _is_size(token: str) -> bool:
    """A non-negative integer in ASCII digits (``str.isdigit`` also accepts '²')."""
    return token.isascii() and token.isdigit()


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def write_pattern(
    pattern: StructPattern,
    path: str | Path,
    fmt: str | None = None,
    header_lines: tuple[str, ...] = (),
) -> None:
    """Write ``pattern`` to ``path``; round-trips through parse_pattern."""
    if fmt is None:
        fmt = detect_format(path)
    entries = sorted((i + 1, j + 1) for i, j in pattern.nonzeros)
    out: list[str] = []
    if fmt == "edgelist":
        out.extend(f"# {h}" for h in header_lines)
        if pattern.is_square:
            out.append(f"n {pattern.n_rows}")
        else:
            out.append(f"shape {pattern.n_rows} {pattern.n_cols}")
        out.extend(f"{i} {j}" for i, j in entries)
    elif fmt == "pattern-json":
        payload = {
            "n_rows": pattern.n_rows,
            "n_cols": pattern.n_cols,
            "nonzeros": [list(e) for e in entries],
        }
        out.append(json.dumps(payload, indent=2))
    elif fmt == "mtx-pattern":
        out.append("%%MatrixMarket matrix coordinate pattern general")
        out.extend(f"% {h}" for h in header_lines)
        out.append(f"{pattern.n_rows} {pattern.n_cols} {len(entries)}")
        out.extend(f"{i} {j}" for i, j in entries)
    else:
        raise PatternFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    Path(path).write_text("\n".join(out) + "\n")


def gen_random(
    n: int,
    model: str,
    seed: int = 0,
    p_edge: float | None = None,
    attach: int | None = None,
    band: int | None = None,
    fill: float | None = None,
) -> tuple[StructPattern, str]:
    """Random square pattern plus a provenance line describing how it was made.

    Models: ``erdos`` (each entry present independently with probability
    ``p_edge``, diagonal included), ``scalefree`` (each new vertex sends
    ``attach`` edges to earlier vertices, preferring high in-degree), and
    ``banded`` (entries within ``band`` of the diagonal, present with
    probability ``fill``).  Fixed arguments give the same pattern forever.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(seed)
    if model == "erdos":
        p = 0.3 if p_edge is None else p_edge
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_edge must be in [0, 1], got {p}")
        nonzeros = _bernoulli_cells(n, p, rng)
        provenance = f"gen model=erdos n={n} p_edge={p} seed={seed}"
    elif model == "scalefree":
        k = 2 if attach is None else attach
        if k < 1:
            raise ValueError(f"attach must be at least 1, got {k}")
        nonzeros = set()
        indeg = [1] * n  # +1 smoothing so isolated vertices stay reachable
        for v in range(1, n):
            targets: set[int] = set()
            want = min(k, v)
            while len(targets) < want:
                t = rng.choices(range(v), weights=indeg[:v], k=1)[0]
                targets.add(t)
            for t in targets:
                nonzeros.add((t, v))  # v influences t: entry (t, v)
                indeg[t] += 1
        provenance = f"gen model=scalefree n={n} attach={k} seed={seed}"
    elif model == "banded":
        w = 1 if band is None else band
        f = 0.5 if fill is None else fill
        if w < 0:
            raise ValueError(f"band must be non-negative, got {w}")
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fill must be in [0, 1], got {f}")
        nonzeros = {
            (i, j)
            for i in range(n)
            for j in range(max(0, i - w), min(n, i + w + 1))
            if rng.random() < f
        }
        provenance = f"gen model=banded n={n} band={w} fill={f} seed={seed}"
    else:
        raise ValueError(f"unknown model {model!r}; expected erdos, scalefree or banded")
    return StructPattern(n, n, frozenset(nonzeros)), provenance


def _bernoulli_cells(n: int, p: float, rng: random.Random) -> set[tuple[int, int]]:
    """Bernoulli(p) over the n*n cells via geometric skips: O(expected hits)."""
    cells: set[tuple[int, int]] = set()
    total = n * n
    if p <= 0.0:
        return cells
    if p >= 1.0:
        return {(i, j) for i in range(n) for j in range(n)}
    log_q = math.log1p(-p)
    pos = -1
    while True:
        # Geometric skip: number of failures before the next success.
        u = rng.random()
        pos += 1 + int(math.log(1.0 - u) / log_q)
        if pos >= total:
            return cells
        cells.add(divmod(pos, n))
