"""Throughput of the word primitives, measured in one fresh process.

Usage (from the repository root, with src on PYTHONPATH):

    python perfbench/micro.py PAIRS_FILE

PAIRS_FILE holds one pair of 0/1 words per line.  Prints one JSON object:
deletion_ball calls per second over every length-12 word at t = 1 and 2,
and lcs_length calls per second over the given pairs, each the median of
ROUNDS timed rounds, plus the sum of the ball sizes and of the LCS lengths
so that the caller can check the answers.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from delcodes.words import Word, deletion_ball, lcs_length

ROUNDS = 5


def _rate(calls: int, fn) -> float:
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return calls / statistics.median(times)


def main() -> int:
    with open(sys.argv[1], encoding="ascii") as fh:
        pairs = [tuple(Word(s) for s in line.split()) for line in fh if line.strip()]
    words = list(Word.all_of_length(12))

    def balls():
        return sum(len(deletion_ball(w, t)) for t in (1, 2) for w in words)

    def lcs():
        return sum(lcs_length(u, v) for u, v in pairs)

    print(
        json.dumps(
            {
                "ball_per_s": _rate(2 * len(words), balls),
                "lcs_per_s": _rate(len(pairs), lcs),
                "ball_size_sum": balls(),
                "lcs_sum": lcs(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
