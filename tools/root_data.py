"""Write src/delcodes/_root_data.py, the stored root rows of the search.

Usage:
    PYTHONPATH=src python tools/root_data.py [--only N,T ...]

For every (n, t) inside SEARCH_CAPS, t < n, the rows come from the live
computations (rows.computed_rows): the exhaustive pair scan gives the
PRUNE row, and the root simplex of the default flags, plus the two
constant windows at its unit, gives the DUALS row.  This tool is the only
caller of the simplex.  With --only, just those rows are recomputed and
the others are kept from the current module.  The simplex is slow at the largest sizes: on a 2-CPU
Xeon with Python 3.11.7, t=1 n=11 takes about 50 s and t=1 n=12 about
16 minutes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from delcodes import _root_data, rows, search

OUT = Path(rows.__file__).with_name("_root_data.py")

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
        (n, t) for t, cap in search.SEARCH_CAPS.items() for n in range(t + 1, cap + 1)
    ]
    only = {tuple(int(x) for x in spec.split(",")) for spec in args.only}
    if only - set(keys):
        parser.error(f"no row inside SEARCH_CAPS for {sorted(only - set(keys))}")
    duals = dict(_root_data.DUALS) if only else {}
    prune = dict(_root_data.PRUNE) if only else {}
    for key in sorted(only or keys, key=lambda k: (k[0] - k[1], k)):
        start = time.monotonic()
        weights, pairs = rows.computed_rows(*key)
        duals[key] = rows.encode(weights)
        prune[key] = rows.encode(pairs)
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
