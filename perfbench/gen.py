"""Seeded, linear-time instance generators for the benchmark.

The benchmark makes its own inputs so that changes to the program's
generator cannot shift them.  Every function takes a ``random.Random`` and
returns ``(n, entries)`` with zero-based ``(row, col)`` entries; an entry
(i, j) means state j influences state i, as in the program's file formats.
"""

from __future__ import annotations

import math
import random
from pathlib import Path


def erdos(n: int, mean_degree: float, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Each of the n*n cells present with probability mean_degree / n.

    Geometric skips visit only the cells that are drawn: O(n + nnz).
    """
    p = mean_degree / n
    if p >= 1.0:
        return n, [(i, j) for i in range(n) for j in range(n)]
    entries = []
    log_q = math.log1p(-p)
    pos = -1
    total = n * n
    while True:
        pos += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if pos >= total:
            return n, entries
        entries.append(divmod(pos, n))


def scalefree_dag(n: int, attach: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Preferential attachment: vertex v influences ``attach`` earlier vertices.

    Targets are drawn with weight 1 + in-degree from a pool that lists each
    vertex once plus once per edge it has received: O(n * attach).
    """
    entries = []
    pool = [0]
    for v in range(1, n):
        want = min(attach, v)
        targets: set[int] = set()
        while len(targets) < want:
            targets.add(pool[rng.randrange(len(pool))])
        for t in sorted(targets):
            entries.append((t, v))
            pool.append(t)
        pool.append(v)
    return n, entries


def banded(n: int, band: int, fill: float, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Cells within ``band`` of the diagonal, each present with probability ``fill``."""
    entries = []
    for i in range(n):
        for j in range(max(0, i - band), min(n, i + band + 1)):
            if rng.random() < fill:
                entries.append((i, j))
    return n, entries


def tiny(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """One small pattern: n in 3..10, cell density in [0.05, 0.6]."""
    n = rng.randint(3, 10)
    density = rng.uniform(0.05, 0.6)
    return n, [(i, j) for i in range(n) for j in range(n) if rng.random() < density]


def write_edgelist(path: Path, n: int, entries: list[tuple[int, int]]) -> None:
    """One-based edgelist with an explicit size directive."""
    lines = [f"n {n}"]
    lines.extend(f"{i + 1} {j + 1}" for i, j in sorted(entries))
    path.write_text("\n".join(lines) + "\n")


def read_edgelist(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of ``write_edgelist``: (n, zero-based entries)."""
    lines = path.read_text().split("\n")
    n = int(lines[0].split()[1])
    entries = []
    for line in lines[1:]:
        if line:
            i, j = line.split()
            entries.append((int(i) - 1, int(j) - 1))
    return n, entries
