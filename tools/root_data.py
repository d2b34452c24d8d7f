"""Write src/delcodes/_root_data.py, the stored root rows of the search.

Usage:
    python tools/root_data.py [--only N,T ...]

For every (n, t) inside SEARCH_CAPS, t < n, the rows come from the live
computations (computed_rows): the exhaustive pair scan gives the PRUNE row,
and the root simplex of the default flags, plus the two constant windows at
its unit, gives the DUALS row.  This module is the only home of the simplex
and of the subordinate scan: the package reads the rows and re-checks them
(delcodes/rows.py), and computes neither.  With --only, just those rows
are recomputed and the others are kept from the current module.  The
simplex is slow at the largest sizes: on a 2-CPU Xeon with Python 3.11.7,
t=1 n=11 takes about 50 s and t=1 n=12 about 16 minutes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

# this checkout's package first, whatever copy is installed: the rows
# written to OUT must come from the code beside it
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from delcodes import _root_data
from delcodes.dominance import _dominant_pairs_packed
from delcodes.rows import certify, encode
from delcodes.search import SEARCH_CAPS, _root_state, build_conflict_graph
from delcodes.words import Word, _ball_table, _images

OUT = SRC / "delcodes" / "_root_data.py"

_SCALE = 1 << 20
_EPS = 1e-9


def _orbit_index(words, length: int) -> tuple[dict[int, int], list[int]]:
    """Orbit number of each word under {id, complement, reverse, both}, and
    the size of each orbit."""
    index: dict[int, int] = {}
    sizes: list[int] = []
    for b in words:
        if b in index:
            continue
        orbit = set(_images(b, length))
        for x in orbit:
            index[x] = len(sizes)
        sizes.append(len(orbit))
    return index, sizes


def optimal_duals(graph, open_mask: int) -> list[float]:
    """Optimal dual weights, one per packed word of length n - t, of
    max sum z_X s.t. sum_X |D_t(x) & Y| z_X <= |Y|, z >= 0.

    X runs over the orbits of the open vertices of the conflict graph (a set
    closed under complement and reversal), Y over the orbits of the words in
    their balls, the keys of graph.windows whose masks meet the open set;
    words in no open ball get weight 0.  This is the packing LP
    of Kulkarni and Kashyap (IEEE Trans. IT 2013) over orbits under
    complement and reversal, solved by a dense float simplex whose
    right-hand side is nonnegative, so the slack basis is feasible from the
    start.  The duals need not be exact: certify recomputes c exactly from
    any integer weights, so the bound holds whatever the float error.
    """
    n, t = graph.word_length, graph.t
    m = n - t
    balls = _ball_table(n, t)
    vertices = [w.bits for i, w in enumerate(graph.vertices) if open_mask >> i & 1]
    x_orbit, x_sizes = _orbit_index(vertices, n)
    y_orbit, y_sizes = _orbit_index(
        sorted(y for y, mask in graph.windows.items() if mask & open_mask), m
    )
    k, r = len(x_sizes), len(y_sizes)
    width = k + r
    rows = [[0.0] * (width + 1) for _ in range(r)]
    seen = set()
    for x in vertices:
        col = x_orbit[x]
        if col in seen:
            continue
        seen.add(col)
        for y in balls[x]:
            rows[y_orbit[y]][col] += 1.0
    for i, row in enumerate(rows):
        row[k + i] = 1.0
        row[width] = float(y_sizes[i])
    # reduced profits c_j - z_j; the duals are minus those of the slacks
    obj = [1.0] * k + [0.0] * (r + 1)
    basis = list(range(k, width))
    bland = False
    while True:
        # Dantzig's rule, or Bland's after a degenerate pivot so that a run
        # of degenerate pivots cannot cycle
        if bland:
            enter = next((j for j in range(width) if obj[j] > _EPS), -1)
        else:
            enter = max(range(width), key=obj.__getitem__)
        if enter < 0 or obj[enter] <= _EPS:
            duals = [-obj[k + i] for i in range(r)] + [0.0]
            return [duals[y_orbit.get(y, r)] for y in range(1 << m)]
        leave = -1
        ratio = 0.0
        for i, row in enumerate(rows):
            a = row[enter]
            if a > _EPS:
                q = row[width] / a
                if leave < 0 or q < ratio - _EPS or (
                    q <= ratio + _EPS and basis[i] < basis[leave]
                ):
                    leave, ratio = i, q
        # every column has a positive entry, so the LP is bounded
        bland = ratio <= _EPS
        prow = rows[leave]
        p = prow[enter]
        prow = rows[leave] = [v / p for v in prow]
        for i, row in enumerate(rows):
            f = row[enter]
            if i != leave and f:
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        f = obj[enter]
        obj = [a - f * b for a, b in zip(obj, prow)]
        basis[leave] = enter


def integer_weights(duals: Sequence[float]) -> dict[int, int]:
    """The positive weights W_y of float duals on the integer scale of
    certify, keyed by packed word y."""
    weights = {}
    for y, w in enumerate(duals):
        w = round(w * _SCALE)
        if w > 0:
            weights[y] = w
    return weights


def basic_subordinates(n: int, t: int) -> dict[int, int]:
    """For each dominant word, its smallest subordinate that is not
    dominant, from the exhaustive pair scan."""
    pairs = _dominant_pairs_packed(n, t)
    dominant = {u for u, _ in pairs}
    out: dict[int, int] = {}
    for u, v in pairs:  # ascending in v
        if v not in dominant:
            out.setdefault(u, v)
    return out


def computed_rows(n: int, t: int) -> tuple[dict[int, int], dict[int, int]]:
    """The root weights and pruning pairs of (n, t) from the live
    computations: the rounded optimal duals at the root of the default
    flags, with the two constant windows at their unit c (1 when that root
    has no open word), and basic_subordinates."""
    prune = basic_subordinates(n, t)
    graph = build_conflict_graph(
        [Word.from_bits(b, n) for b in range(1 << n) if b not in prune], t
    )
    open0, _ = _root_state(graph, True)
    weights, unit = {}, 1
    if open0:
        weights = integer_weights(optimal_duals(graph, open0))
        unit, _ = certify(graph, open0, weights)
    weights[0] = weights[(1 << (n - t)) - 1] = unit
    return weights, prune


HEADER = '''"""Stored root rows of the search, one per (n, t) inside SEARCH_CAPS.

Generated by tools/root_data.py from the pair scan and the root simplex:
regenerate, do not edit.  Each row is a string of hex pairs, parsed when a
search needs it.  DUALS[(n, t)] holds "y:w" for each positive integer weight
W_y of the optimal root LP under the default flags (basic_only and
force_constants on), plus the two constant windows 0...0 and 1...1 at the
least ball weight c of that root (1 where it has no open word), so that
the one row bounds the root of every flag pair.  PRUNE[(n, t)] holds "u:v"
for each dominant word u and its least subordinate v that is not dominant.
The search re-checks both: certify derives a sound bound from any weights,
and every pair is checked against the ball table, so a stale row is weak,
never wrong.

Rows are strings, not dict literals, because a job that runs without a
bytecode cache compiles this module: strings compile many times faster.
"""
'''


def table(name: str, rows: dict[tuple[int, int], str]) -> str:
    # one line per row: fewer tokens compile faster than wrapped literals
    body = "".join(f"    {key!r}: {text!r},\n" for key, text in sorted(rows.items()))
    return f"{name} = {{\n{body}}}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", action="append", default=[], metavar="N,T",
        help="recompute only this row (repeatable); keep the others",
    )
    args = parser.parse_args(argv)
    keys = [
        (n, t) for t, cap in SEARCH_CAPS.items() for n in range(t + 1, cap + 1)
    ]
    only = {tuple(int(x) for x in spec.split(",")) for spec in args.only}
    if only - set(keys):
        parser.error(f"no row inside SEARCH_CAPS for {sorted(only - set(keys))}")
    duals = dict(_root_data.DUALS) if only else {}
    prune = dict(_root_data.PRUNE) if only else {}
    for key in sorted(only or keys, key=lambda k: (k[0] - k[1], k)):
        start = time.monotonic()
        weights, pairs = computed_rows(*key)
        duals[key] = encode(weights)
        prune[key] = encode(pairs)
        print(
            f"n={key[0]} t={key[1]}: {len(weights)} weights, {len(pairs)} pairs, "
            f"{time.monotonic() - start:.1f} s",
            file=sys.stderr, flush=True,
        )
    missing = set(keys) - set(duals)
    if missing:
        parser.error(f"rows missing from the current module: {sorted(missing)}")
    OUT.write_text(
        HEADER + "\n" + table("DUALS", duals) + "\n" + table("PRUNE", prune),
        encoding="ascii",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
