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

Each parser reads its input in one pass and appends each entry's
zero-based row straight onto its column's list.  Every distinct index is
one shared int object, so the pattern and every adjacency tuple built from
it hold references, not fresh ints, and memory stays O(entries) however
large the declared size.  At the end each list is sorted, only a list that
repeats a row is deduplicated, one warning counts the repeats, and each
list becomes the tuple the pattern keeps: its one store of its entries.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings
from pathlib import Path

from .graph_core import StructPattern

FORMATS = ("edgelist", "pattern-json", "mtx-pattern")

# Largest dimension a pattern may declare.  A digraph holds two lists per
# state (128.9 MB per 10**6 states under tracemalloc, edges not counted),
# so larger inputs are refused before anything is allocated.
MAX_STATES = 10_000_000
_DIGITS = len(str(MAX_STATES))

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
    """Read a UTF-8 pattern file; ``fmt`` overrides extension-based detection."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # ``read_text`` decodes the whole file in one call, so ``exc.object``
        # holds every byte and the bytes before ``exc.start`` decode cleanly.
        # Lines are counted as the parsers count them; the appended character
        # starts the bad byte's line when a line break comes just before it.
        before = exc.object[:exc.start].decode("utf-8")
        line_no = len((before + "_").splitlines())
        bad = exc.object[exc.start]
        raise PatternFormatError(
            f"line {line_no}: byte 0x{bad:02x} is not UTF-8 ({exc.reason})"
        ) from None
    if fmt is None:
        fmt = detect_format(path, text)
    if fmt not in FORMATS:
        raise PatternFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "pattern-json":
        return _parse_json(text)
    return _parse_mtx(text)


def _pattern(n_rows: int, n_cols: int, columns: dict[int, list[int]], what: str) -> StructPattern:
    """The pattern of range-checked column lists, each sorted, deduplicated and made a tuple."""
    dupes = 0
    for j, rows in columns.items():
        if len(rows) > 1:
            rows.sort()
            prev = -1
            for i in rows:
                if i == prev:
                    unique = sorted(set(rows))
                    dupes += len(rows) - len(unique)
                    rows = unique
                    break
                prev = i
        columns[j] = tuple(rows)
    if dupes:
        warnings.warn(f"{dupes} duplicate {what} entr{'y' if dupes == 1 else 'ies'} ignored")
    return StructPattern._prechecked(n_rows, n_cols, columns)


def _parse_edgelist(text: str) -> StructPattern:
    # Two tokens on a line of an ASCII piece take the fast path: a row token
    # already read maps to its shared zero-based index, a column token to its
    # column's list, and a new token that is all digits, not all zeros and at
    # most _DIGITS long is read with int() and mapped.  Only when both pass is
    # any int() called; every other line, a comment too, gets the full checks
    # below.  The range check waits for the last size directive, and only a
    # failing check rescans the text for its line.
    index: dict[str, int] = {}
    rows_of: dict[str, list[int]] = {}
    share = {}.setdefault
    columns: dict[int, list[int]] = {}
    declared: tuple[int, int] | None = None
    line_no = start = 0
    while start < len(text):
        # A piece of about 64 KiB that ends right after a line feed, where a
        # line ends too: one piece's lines are alive at a time.
        end = text.find("\n", start + (1 << 16)) + 1 or len(text)
        piece, start = text[start:end], end
        plain = piece.isascii()
        for line_no, raw in enumerate(piece.splitlines(), line_no + 1):
            parts = raw.split()
            if len(parts) == 2 and plain:
                a, b = parts
                i = index.get(a)
                rows = rows_of.get(b)
                if (i is None or rows is None) and (
                    (i is not None or len(a) <= _DIGITS and a.isdigit() and a.strip("0"))
                    and (rows is not None or len(b) <= _DIGITS and b.isdigit() and b.strip("0"))
                ):
                    if i is None:
                        v = int(a) - 1
                        i = index[a] = share(v, v)
                    if rows is None:
                        v = int(b) - 1
                        v = index[b] = share(v, v)
                        rows = rows_of[b] = columns.setdefault(v, [])
                if rows is not None and i is not None:
                    rows.append(i)
                    continue
            line = raw.split("#", 1)[0]
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "n":
                if len(parts) != 2 or not _is_digits(parts[1]):
                    raise PatternFormatError(f"line {line_no}: malformed size directive {raw!r}")
                size = _check_size(_read_int(parts[1], line_no), f"line {line_no}")
                declared = (size, size)
                continue
            if parts[0] == "shape":
                if len(parts) != 3 or not all(_is_digits(p) for p in parts[1:]):
                    raise PatternFormatError(f"line {line_no}: malformed shape directive {raw!r}")
                declared = (
                    _check_size(_read_int(parts[1], line_no), f"line {line_no}"),
                    _check_size(_read_int(parts[2], line_no), f"line {line_no}"),
                )
                continue
            if len(parts) != 2:
                raise PatternFormatError(f"line {line_no}: expected 'i j', got {raw!r}")
            a, b = parts
            if not (line.strip().isascii() and a.isdigit() and b.isdigit()):
                raise PatternFormatError(
                    f"line {line_no}: indices must be ASCII digits, got {raw!r}")
            i, j = _read_int(a, line_no), _read_int(b, line_no)
            if i < 1 or j < 1:
                raise PatternFormatError(f"line {line_no}: indices are one-based, got ({i}, {j})")
            index[a], index[b] = share(i - 1, i - 1), share(j - 1, j - 1)
            columns.setdefault(index[b], []).append(index[a])

    top = max(index.values(), default=-1)  # index holds both indices of every entry
    if declared is None:
        if top >= MAX_STATES:
            line_no = next(ln for ln, i, j in _edgelist_entries(text) if max(i, j) == top + 1)
            _check_size(top + 1, f"line {line_no}")
        declared = (top + 1, top + 1)
    n_rows, n_cols = declared
    if top >= min(declared) and (
            max(columns) >= n_cols or max(map(max, columns.values())) >= n_rows):
        line_no, i, j = next(e for e in _edgelist_entries(text) if e[1] > n_rows or e[2] > n_cols)
        raise PatternFormatError(
            f"line {line_no}: entry ({i}, {j}) outside declared {n_rows}x{n_cols} pattern"
        )
    del index, rows_of  # so each column list is freed as its tuple replaces it
    return _pattern(n_rows, n_cols, columns, "edgelist")


def _edgelist_entries(text: str):
    """One-based ``(line, i, j)`` of each entry of an edgelist that parsed.

    Only the error paths rescan the text, to name the line at fault.
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if len(parts) == 2 and parts[0] != "n":
            yield line_no, int(parts[0]), int(parts[1])


def _parse_json(text: str) -> StructPattern:
    try:
        data = json.loads(text)
    except ValueError as exc:
        if not isinstance(exc, json.JSONDecodeError):
            # An integer past int()'s digit limit: json gives no position for it.
            run = max(re.finditer(r"\d+", text), key=lambda m: len(m[0]))
            line_no = text.count("\n", 0, run.start()) + 1
            exc = f"line {line_no}: integer of {len(run[0])} digits is too long"
        raise PatternFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise PatternFormatError("pattern JSON must be an object")
    keys = ("n", "n") if "n" in data and "n_rows" not in data else ("n_rows", "n_cols")
    for key in keys:
        if key not in data:
            raise PatternFormatError(f"pattern JSON missing key {key!r}")
        if not _is_json_int(data[key]) or data[key] < 0:
            raise PatternFormatError(f"{key}: expected a non-negative integer, got {data[key]!r}")
        _check_size(data[key], key)
    n_rows, n_cols = data[keys[0]], data[keys[1]]
    raw = data.get("nonzeros", [])
    if not isinstance(raw, list):
        raise PatternFormatError(f"nonzeros: expected a list of pairs, got {raw!r}")
    share = {}.setdefault
    columns: dict[int, list[int]] = {}
    for k, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise PatternFormatError(f"nonzeros[{k}]: expected a pair, got {pair!r}")
        i, j = pair
        if not (_is_json_int(i) and _is_json_int(j) and i >= 1 and j >= 1):
            raise PatternFormatError(f"nonzeros[{k}]: indices are one-based integers")
        if i > n_rows or j > n_cols:
            raise PatternFormatError(
                f"nonzeros[{k}]: entry ({i}, {j}) outside {n_rows}x{n_cols} pattern"
            )
        i -= 1
        j -= 1
        columns.setdefault(share(j, j), []).append(share(i, i))
        raw[k] = None  # the decoded pair is read: free it as the lists grow
    return _pattern(n_rows, n_cols, columns, "JSON")


def _is_json_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_mtx(text: str) -> StructPattern:
    lines = iter(text.splitlines())  # an exhausted iterator frees the lines before the sort
    first = next(lines, "")
    if not first.startswith("%%MatrixMarket"):
        raise PatternFormatError("line 1: missing %%MatrixMarket header")
    header = first.split()
    if len(header) < 4 or header[1].lower() != "matrix" or header[2].lower() != "coordinate":
        raise PatternFormatError(f"line 1: unsupported header {first!r}")
    field = header[3].lower()
    if field not in ("pattern", "real", "integer"):
        raise PatternFormatError(f"line 1: unsupported field {field!r}")
    symmetry = header[4].lower() if len(header) > 4 else "general"
    if symmetry not in ("general", "symmetric"):
        raise PatternFormatError(f"line 1: unsupported symmetry {symmetry!r}")

    dims: tuple[int, int, str] | None = None
    size_line = 0
    share = {}.setdefault
    columns: dict[int, list[int]] = {}
    count = 0
    for line_no, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if dims is None:
            if len(parts) != 3 or not all(_is_digits(p) for p in parts):
                raise PatternFormatError(f"line {line_no}: malformed size line {raw!r}")
            dims = (
                _check_size(_read_int(parts[0], line_no), f"line {line_no}"),
                _check_size(_read_int(parts[1], line_no), f"line {line_no}"),
                parts[2].lstrip("0") or "0",  # compared as text: any length is fine
            )
            if symmetry == "symmetric" and dims[0] != dims[1]:
                raise PatternFormatError(f"line {line_no}: symmetric matrix is not square: {raw!r}")
            size_line = line_no
            continue
        if len(parts) < 2 or not _is_digits(parts[0]) or not _is_digits(parts[1]):
            raise PatternFormatError(f"line {line_no}: malformed entry {raw!r}")
        i, j = _read_int(parts[0], line_no), _read_int(parts[1], line_no)  # values ignored
        if not (1 <= i <= dims[0] and 1 <= j <= dims[1]):
            raise PatternFormatError(
                f"line {line_no}: entry ({i}, {j}) outside {dims[0]}x{dims[1]} matrix"
            )
        i, j = i - 1, j - 1
        columns.setdefault(share(j, j), []).append(share(i, i))
        if i != j and symmetry == "symmetric":
            columns.setdefault(share(i, i), []).append(share(j, j))
        count += 1
    if dims is None:
        raise PatternFormatError("missing size line")
    if str(count) != dims[2]:
        raise PatternFormatError(
            f"line {size_line}: size line declares {dims[2]} entries, found {count}"
        )
    return _pattern(dims[0], dims[1], columns, "matrix")


def _check_size(value: int, where: str) -> int:
    if value > MAX_STATES:
        raise PatternFormatError(
            f"{where}: dimension {value} exceeds the limit of {MAX_STATES} states"
        )
    return value


def _read_int(token: str, line_no: int) -> int:
    """int() of an ASCII-digit token, refused with its line when it has more
    significant digits than MAX_STATES; past 4 300, int() would refuse it with no line."""
    digits = token.lstrip("0")
    if len(digits) > _DIGITS:
        raise PatternFormatError(
            f"line {line_no}: dimension {_short(digits)} exceeds the limit of {MAX_STATES} states"
        )
    return int(token)


def _short(text: str) -> str:
    """``text`` for a one-line message: past 20 characters, its first 12 and its length."""
    if len(text) <= 20:
        return text
    return f"{text[:12]}... ({len(text)} {'digits' if text.isdigit() else 'characters'})"


def _is_digits(token: str) -> bool:
    """A non-negative integer in ASCII digits only.

    ``str.isdigit`` alone also accepts '²', and ``int`` also accepts signs,
    underscores and non-ASCII digits such as '١'.
    """
    return token.isascii() and token.isdigit()


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
        out.append(json.dumps(_json_document(pattern), indent=2))
    elif fmt == "mtx-pattern":
        out.append("%%MatrixMarket matrix coordinate pattern general")
        out.extend(f"% {h}" for h in header_lines)
        out.append(f"{pattern.n_rows} {pattern.n_cols} {len(entries)}")
        out.extend(f"{i} {j}" for i, j in entries)
    else:
        raise PatternFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    Path(path).write_text("\n".join(out) + "\n")


def _json_document(pattern: StructPattern) -> dict:
    """``pattern`` as a pattern-json document, which the CLI's reports embed too."""
    return {
        "n_rows": pattern.n_rows,
        "n_cols": pattern.n_cols,
        "nonzeros": sorted([i + 1, j + 1] for i, j in pattern.nonzeros),
    }


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
    if n > MAX_STATES:
        raise ValueError(f"n={_short(str(n))} exceeds the limit of {MAX_STATES} states")
    rng = random.Random(seed)
    if model == "erdos":
        p = 0.3 if p_edge is None else p_edge
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_edge must be in [0, 1], got {p}")
        columns = _bernoulli_cells(n, p, rng)
        provenance = f"gen model=erdos n={n} p_edge={p} seed={seed}"
    elif model == "scalefree":
        k = 2 if attach is None else attach
        if k < 1:
            raise ValueError(f"attach must be at least 1, got {_short(str(k))}")
        # A target is what rng.choices(range(v), weights) draws from one
        # random(): the first vertex whose running weight exceeds it, at most
        # v - 1.  The weights (in-degree + 1, so isolated vertices stay
        # reachable) sit in a Fenwick tree (Fenwick, SP&E 24(3), 1994), where
        # tree[x] sums those of x - (x & -x) .. x - 1: O(log n) per draw.
        columns = {}
        tree = [x & -x for x in range(n + 1)]
        total = 0  # weight of the vertices before v
        for v in range(1, n):
            total += 1
            targets: set[int] = set()
            while len(targets) < min(k, v):
                u, t, acc, step = rng.random() * total, 0, 0, 1 << n.bit_length()
                while step := step >> 1:
                    if t + step <= n and acc + tree[t + step] <= u:
                        t += step
                        acc += tree[t]
                targets.add(min(t, v - 1))
            columns[v] = sorted(targets)  # v influences t: entry (t, v)
            total += len(targets)
            for t in targets:
                t += 1
                while t <= n:
                    tree[t] += 1
                    t += t & -t
        provenance = f"gen model=scalefree n={n} attach={k} seed={seed}"
    elif model == "banded":
        w = 1 if band is None else band
        f = 0.5 if fill is None else fill
        if w < 0:
            raise ValueError(f"band must be non-negative, got {_short(str(w))}")
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fill must be in [0, 1], got {f}")
        columns = {}
        for i in range(n):
            for j in range(max(0, i - w), min(n, i + w + 1)):
                if rng.random() < f:
                    columns.setdefault(j, []).append(i)
        provenance = f"gen model=banded n={n} band={w} fill={f} seed={seed}"
    else:
        raise ValueError(f"unknown model {model!r}; expected erdos, scalefree or banded")
    return StructPattern._prechecked(n, n, {j: tuple(r) for j, r in columns.items()}), provenance


def _bernoulli_cells(n: int, p: float, rng: random.Random) -> dict[int, list[int]]:
    """Column lists of Bernoulli(p) over the n*n cells via geometric skips: O(expected hits)."""
    columns: dict[int, list[int]] = {}
    total = n * n
    if p <= 0.0:
        return columns
    if p >= 1.0:
        return {j: list(range(n)) for j in range(n)}
    log_q = math.log1p(-p)
    pos = -1
    while True:
        # Geometric skip: number of failures before the next success.
        u = rng.random()
        pos += 1 + int(math.log(1.0 - u) / log_q)
        if pos >= total:
            return columns
        i, j = divmod(pos, n)
        columns.setdefault(j, []).append(i)
