"""Run one delcodes CLI command with timed spans around public calls.

Usage (from the repository root, with src on PYTHONPATH):

    python perfbench/tracer.py SPANS_FILE JOB_ID CLI_ARG...

Each function in TRACED is replaced, in every module that looks it up, by a
wrapper that records a span (name, start, end, parent, job) in memory.  The
program itself is unchanged.  Counts are read from the returned objects
after the command has finished, outside every span, and the spans go to
SPANS_FILE as JSON when the command ends.  Start and end are
time.perf_counter() readings, a clock shared by all processes of the machine.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _search_counts(args, result) -> dict:
    config = args[0]
    return {
        "nodes": result.node_count,
        "exhausted": result.exhausted,
        "optimum": result.optimum,
        "wall_time_ms": result.wall_time_ms,
        "budget_s": config.time_budget,
        "workers": config.workers,
    }


# span name -> (counts read from (args, result), modules that look the name up)
TRACED = {
    "search.max_code_size": (_search_counts, ("cli", "search")),
    "search.enumerate_optimal_codes": (lambda a, r: {"classes": len(r)}, ("cli",)),
    "search.build_candidates": (lambda a, r: {"candidates": len(r)}, ("search",)),
    "search.build_conflict_graph": (lambda a, r: {"edges": r.edge_count()}, ("search",)),
    "dominance.enumerate_dominant_pairs": (
        lambda a, r: {"pairs": len(r)},
        ("cli", "dominance"),
    ),
    "dominance.closed_form_generation": (
        lambda a, r: {"generated": len(r.pairs)},
        ("cli", "dominance"),
    ),
    "dominance.verify_characterization": (
        lambda a, r: {"pairs": r.brute_count},
        ("cli",),
    ),
    "codes.find_ball_collision": (None, ("cli", "codes")),
    "codes.dominant_codewords": (lambda a, r: {"dominant": len(r)}, ("cli",)),
    "codes.vt_code": (lambda a, r: {"words": len(r)}, ("cli", "search")),
}


def main() -> int:
    spans_file, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    spans: list[dict] = []
    open_spans: list[int] = []
    finished: list[tuple] = []

    def traced(name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "id": len(spans),
                "name": name,
                "job": job_id,
                "parent": open_spans[-1] if open_spans else None,
                "start": time.perf_counter(),
            }
            spans.append(rec)
            open_spans.append(rec["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                open_spans.pop()
            if counts is not None:
                finished.append((rec, counts, args, result))
            return result

        return wrapper

    start = time.perf_counter()
    from delcodes import cli, codes, dominance, search

    spans.append(
        {
            "id": 0,
            "name": "cli.import",
            "job": job_id,
            "parent": None,
            "start": start,
            "end": time.perf_counter(),
        }
    )
    modules = {"cli": cli, "codes": codes, "dominance": dominance, "search": search}
    for name, (counts, lookers) in TRACED.items():
        original = getattr(modules[name.split(".")[0]], name.split(".")[1])
        wrapper = traced(name, original, counts)
        for looker in lookers:
            setattr(modules[looker], original.__name__, wrapper)

    try:
        rc = traced("cli.main", cli.main, None)(argv)
    finally:
        sys.stdout.flush()
        for rec, counts, args, result in finished:
            rec["counts"] = counts(args, result)
        with open(spans_file, "w", encoding="ascii") as fh:
            json.dump(spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
