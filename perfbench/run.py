#!/usr/bin/env python3
"""Benchmark of the delcodes command line: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of CLI jobs, driven as a closed loop from this
one process: every job is one fresh `python -m delcodes.cli ... --json`
child, started after the previous one has exited.  Each job therefore pays
its own interpreter start and begins with cold lru_cache tables, as every
CLI user does.  At most two processes run at a time, in the one
`--threads 2` job.

--trace 0 cycles through the job list until --seconds have passed and
reports end-to-end metrics; wall_s and cpu_s are the sum over jobs of each
job's median.  Times are in reference seconds: each job's time is scaled by
REFERENCE_NOMINAL_S over the time a fixed pure-Python loop took on the same
CPU just before and after it, because the speed of a shared host drifts by
tens of percent within minutes.  Unadjusted times are printed too.

--trace 1 runs each job once untraced and once under perfbench/tracer.py,
which records spans around the public calls of each module, and reports
per-layer metrics built from the spans.

Every output is checked against perfbench/oracle.py.  Inputs, run records
and spans go to .perfbench/ in the repository root.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
PYTHON = sys.executable
ALL_CPUS = os.sched_getaffinity(0)
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
)
JOB_DEADLINE_S = 150.0  # leaves time for the checks inside the 180 s a run may take
SETUP_SPAWNS = 15
REFERENCE_ITERATIONS = 100_000
REFERENCE_NOMINAL_S = 0.011
GREEDY_LENGTHS = (10, 11, 12)
LCS_PAIRS = {12: 1000, 62: 600}


@dataclass(frozen=True)
class Job:
    kind: str  # which oracle.CHECKS entry judges the output
    n: int
    t: int
    args: tuple[str, ...]
    budget: float | None = None  # seconds, for budget-limited searches

    @property
    def key(self) -> str:
        return " ".join(self.args)


def search(n: int, t: int, *extra: str) -> Job:
    budget = float(extra[extra.index("--budget") + 1]) if "--budget" in extra else None
    kind = "classes" if "--enumerate" in extra else "search"
    return Job(kind, n, t, ("search", "--n", str(n), "--t", str(t), *extra), budget)


def verify(n: int, t: int) -> Job:
    return Job("verify", n, t, ("verify", "--n", str(n), "--t", str(t)))


WORKLOADS = {
    # Branch-and-bound to a proved optimum, sparse (t=1) to dense (t=3)
    # graphs, plus the canonical-witness and two-process modes.
    "exact": [
        search(6, 1),
        search(7, 1),
        search(8, 2),
        search(9, 2),
        search(9, 3),
        search(10, 3),
        search(7, 1, "--canonical"),
        search(7, 1, "--threads", "2"),
    ],
    # The same search layer collecting every optimal basic class.
    "enumerate": [
        search(6, 1, "--enumerate"),
        search(7, 1, "--enumerate"),
        search(6, 2, "--enumerate"),
        search(7, 2, "--enumerate"),
        search(7, 3, "--enumerate"),
    ],
    # Word balls, dominance tables and code predicates; no search at all.
    # main() appends one `check` job per seeded greedy code file.
    "tables": [
        verify(12, 1),
        verify(13, 1),
        verify(14, 1),
        verify(10, 2),
        verify(12, 2),
        verify(14, 2),
        Job("pairs", 12, 3, ("enumerate", "--n", "12", "--t", "3")),
    ],
    # The open cases under a deadline: only here do the budget and the
    # incumbent seed decide the answer.
    "frontier": [
        search(8, 1, "--budget", "3"),
        search(9, 1, "--budget", "3"),
        search(10, 2, "--budget", "3"),
    ],
}

# Traced runs only: the pair that gives search.parallel_speedup, and the
# worst known budget overrun (about 25 s over a 1 s budget), kept out of the
# gated runs so that it does not add half a minute to each of them.
SPEEDUP_JOBS = (search(7, 1), search(7, 1, "--threads", "2"))
TRACED_EXTRA = {"frontier": [search(12, 1, "--budget", "1")]}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# figures that can read 0 (settled, lower_bound, failed_ratio) are printed, not gated
REPORT_UNITS = {
    **END_TO_END_UNITS,
    "settled": "count",
    "lower_bound": "count",
    "failed_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "cli.overhead_s": "s",
    "search.candidates_s": "s",
    "search.candidates": "count",
    "search.graph_s": "s",
    "search.graph_edges": "count",
    "search.solve_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.enumerate_s": "s",
    "search.classes": "count",
    "search.budget_overrun_s": "s",
    "search.parallel_speedup": "ratio",
    "search.settled": "count",
    "search.lower_bound": "count",
    "dominance.pairs_s": "s",
    "dominance.pairs": "count",
    "dominance.closed_form_s": "s",
    "dominance.verify_s": "s",
    "codes.collision_s": "s",
    "codes.dominant_codewords_s": "s",
    "codes.vt_s": "s",
    "words.ball_per_s": "1/s",
    "words.lcs_per_s": "1/s",
    "trace.overhead_s": "s",
}
# per-layer time metric -> span whose self time it sums
SELF_TIME_SPANS = {
    "search.candidates_s": "search.build_candidates",
    "search.graph_s": "search.build_conflict_graph",
    "search.solve_s": "search.max_code_size",
    "search.enumerate_s": "search.enumerate_optimal_codes",
    "dominance.pairs_s": "dominance.enumerate_dominant_pairs",
    "dominance.closed_form_s": "dominance.closed_form_generation",
    "dominance.verify_s": "dominance.verify_characterization",
    "codes.collision_s": "codes.find_ball_collision",
    "codes.dominant_codewords_s": "codes.dominant_codewords",
    "codes.vt_s": "codes.vt_code",
}
# per-layer count metric -> (span, count) summed over the traced jobs
SPAN_COUNTS = {
    "search.candidates": ("search.build_candidates", "candidates"),
    "search.graph_edges": ("search.build_conflict_graph", "edges"),
    "search.nodes": ("search.max_code_size", "nodes"),
    "search.classes": ("search.enumerate_optimal_codes", "classes"),
    "dominance.pairs": ("dominance.enumerate_dominant_pairs", "pairs"),
}


@dataclass
class Proc:
    """One finished child process, timed and measured from outside."""

    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float  # user + sys of the child and every descendant it waited for
    rss_kb: int  # largest resident set of the child or one such descendant


@dataclass
class JobRun:
    job: Job
    proc: Proc
    spans: list[dict] = field(default_factory=list)
    problem: str | None = None
    outcome: dict = field(default_factory=dict)
    reference: float = 0.0  # reference_loop() seconds around this run


class Spawner:
    """Runs every child process through perfbench/spawner.py, a small helper
    process, so that the benchmark's own memory stays out of the children's
    peak resident set."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [PYTHON, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=ENV,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, cmd: list[str], deadline: float, cpus: set[int] | None = None) -> Proc:
        """Run cmd to completion; kill it and its session at deadline.
        cpus, if given, replaces the CPU set the child would inherit."""
        out, err = WORK / "job.out", WORK / "job.err"
        request = {
            "cmd": cmd,
            "seconds": max(deadline - time.perf_counter(), 0.0),
            "cpus": sorted(cpus) if cpus else None,
            "stdout": str(out),
            "stderr": str(err),
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench/spawner.py exited")
        result = json.loads(reply)
        return Proc(
            returncode=result["returncode"],
            stdout=out.read_text(encoding="utf-8", errors="replace"),
            stderr=err.read_text(encoding="utf-8", errors="replace"),
            wall=result["wall"],
            cpu=result["cpu"],
            rss_kb=result["rss_kb"],
        )


def run_job(
    spawner: Spawner, job: Job, deadline: float, spans_file: Path | None = None
) -> JobRun:
    """Run one job as a fresh CLI process, under the tracer if spans_file."""
    cpus = ALL_CPUS if "--threads" in job.args else None
    if spans_file is None:
        cmd = [PYTHON, "-m", "delcodes.cli", *job.args, "--json"]
        return JobRun(job, spawner.run(cmd, deadline, cpus))
    cmd = [PYTHON, str(BENCH / "tracer.py"), str(spans_file), job.key, *job.args, "--json"]
    run = JobRun(job, spawner.run(cmd, deadline, cpus))
    if spans_file.exists():
        run.spans = json.loads(spans_file.read_text(encoding="ascii"))
        spans_file.unlink()
    return run


# --- inputs --------------------------------------------------------------


def make_inputs(seed: int) -> tuple[list[Job], dict, dict, Path]:
    """Seeded inputs: greedy t=1 code files with their brute-force facts, and
    random word pairs for the LCS throughput run."""
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    check_jobs, facts, sizes = [], {}, {}
    for n in GREEDY_LENGTHS:
        words = oracle.greedy_code(n, 1, rng)
        path = inputs / f"greedy-n{n}-seed{seed}.txt"
        path.write_text(
            f"# random greedy 1-deletion-correcting code, seed {seed}\n"
            + "".join(w + "\n" for w in words),
            encoding="ascii",
        )
        rel = str(path.relative_to(ROOT))
        job = Job("check", n, 1, ("check", rel, "--t", "1", "--basic", "--perfect"))
        check_jobs.append(job)
        facts[job.key] = oracle.check_facts(words, n, 1)
        sizes[f"n={n}"] = len(words)
    pair_rng = random.Random(f"{seed}/lcs")
    pairs_file = inputs / f"lcs-seed{seed}.txt"
    lines = []
    for length, count in LCS_PAIRS.items():
        for _ in range(count):
            u, v = ("".join(pair_rng.choice("01") for _ in range(length)) for _ in "uv")
            lines.append(f"{u} {v}\n")
    pairs_file.write_text("".join(lines), encoding="ascii")
    return check_jobs, facts, sizes, pairs_file


# --- checking ------------------------------------------------------------


def check_runs(runs: list[JobRun], facts: dict, seen_counts: dict) -> None:
    """Judge every job run against the oracle and the counts seen before."""
    verdicts: dict[tuple[str, str], tuple] = {}
    for run in runs:
        job, proc = run.job, run.proc
        allowed = (0, 4) if job.budget is not None else (0,)
        if proc.returncode not in allowed:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            run.problem = f"exit code {proc.returncode} {tail[0]}".strip()
            continue
        cache_key = (job.key, proc.stdout)
        if cache_key not in verdicts:
            try:
                doc = json.loads(proc.stdout)
                verdicts[cache_key] = oracle.CHECKS[job.kind](
                    job.n, job.t, job.budget, doc, proc.returncode, facts.get(job.key)
                )
            except (ValueError, KeyError, TypeError) as e:
                verdicts[cache_key] = (f"malformed output: {e!r}", {})
        run.problem, run.outcome = verdicts[cache_key]
        counts = dict(run.outcome.get("counts", {}))
        for s in run.spans:
            for name, value in s.get("counts", {}).items():
                if name in ("candidates", "edges"):
                    counts[f"{s['name']}.{name}"] = value
        if run.problem or not counts:
            continue
        reference = seen_counts.setdefault(job.key, {})
        for name, value in counts.items():
            if reference.setdefault(name, value) != value:
                run.problem = f"{name} changed from {reference[name]} to {value}"


def counts_path() -> Path:
    """Where the counts of this exact program source are kept: counts must
    repeat across runs of one source, and may change with the source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return WORK / f"counts-{digest.hexdigest()[:16]}.json"


def load_counts() -> dict:
    path = counts_path()
    return json.loads(path.read_text(encoding="ascii")) if path.exists() else {}


def save_counts(counts: dict) -> None:
    path = counts_path()
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="ascii")
    tmp.replace(path)


# --- metrics -------------------------------------------------------------


def by_job(runs: list[JobRun]) -> dict[str, list[JobRun]]:
    grouped: dict[str, list[JobRun]] = defaultdict(list)
    for run in runs:
        grouped[run.job.key].append(run)
    return grouped


def job_list_total(runs: list[JobRun], value) -> float:
    """One pass over the job list: the sum over jobs of the median of value."""
    return sum(
        statistics.median(value(r) for r in group) for group in by_job(runs).values()
    )


def outcome_totals(runs: list[JobRun]) -> dict:
    """Jobs settled in every run, and the summed median size of the codes
    returned by budget-limited searches that did not settle."""
    groups = by_job(runs).values()
    bounded = [
        [r.outcome["lower_bound"] for r in group if "lower_bound" in r.outcome]
        for group in groups
    ]
    return {
        "settled": sum(all(r.outcome.get("settled") for r in g) for g in groups),
        "lower_bound": sum(statistics.median(b) for b in bounded if b),
    }


def setup_time(spawner: Spawner) -> float:
    """Interpreter start through `import delcodes.cli`, in a fresh process."""
    proc = spawner.run([PYTHON, "-c", "import delcodes.cli"], time.perf_counter() + 60)
    if proc.returncode != 0:
        raise RuntimeError(f"import delcodes.cli failed: {proc.stderr.strip()}")
    return proc.wall


def span_duration(s: dict) -> float:
    return s["end"] - s["start"]


def layer_totals(runs: list[JobRun]) -> tuple[dict, dict, float]:
    """Self time by span name, counts by (span, count), and CLI overhead:
    each job's wall time outside the library calls made under cli.main."""
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    overhead = 0.0
    for run in runs:
        children: dict[int, float] = defaultdict(float)
        for s in run.spans:
            if s["parent"] is not None:
                children[s["parent"]] += span_duration(s)
        for s in run.spans:
            self_time[s["name"]] += span_duration(s) - children[s["id"]]
            for name, value in s.get("counts", {}).items():
                if not isinstance(value, bool):
                    counts[(s["name"], name)] += value
        main = [s["id"] for s in run.spans if s["name"] == "cli.main"]
        in_library = sum(span_duration(s) for s in run.spans if s["parent"] in main)
        overhead += run.proc.wall - in_library
    return self_time, counts, overhead


def span_tree(run: JobRun) -> list[str]:
    """The job's spans as indented lines; repeated sibling calls of one
    function are folded into one line with their call count."""
    lines = [f"job `{run.job.key}`: wall {run.proc.wall:.4f} s"]
    children: dict[int | None, list[dict]] = defaultdict(list)
    for s in run.spans:
        children[s["parent"]].append(s)

    def walk(parent: int | None, depth: int) -> None:
        groups: dict[str, list[dict]] = defaultdict(list)
        for s in children[parent]:
            groups[s["name"]].append(s)
        for name, group in groups.items():
            total = sum(span_duration(s) for s in group)
            own = total - sum(span_duration(c) for s in group for c in children[s["id"]])
            calls = f" x{len(group)}" if len(group) > 1 else ""
            counts = " ".join(f"{k}={v}" for k, v in group[0].get("counts", {}).items())
            lines.append(
                f"{'  ' * depth}{name}{calls} {total:.4f} s (self {own:.4f} s)"
                f" {counts if len(group) == 1 else ''}".rstrip()
            )
            for s in group:
                walk(s["id"], depth + 1)

    walk(None, 1)
    return lines


def per_layer_metrics(pairs, extra: list[JobRun], micro: dict) -> dict:
    """Per-layer metrics from (untraced, traced) runs of each job of the
    workload, the traced-only extra jobs and the word-primitive run."""
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    self_time, counts, overhead = layer_totals(traced)
    found = {
        "cli.overhead_s": overhead,
        **{m: self_time.get(span, 0.0) for m, span in SELF_TIME_SPANS.items()},
        **{m: counts.get(key, 0) for m, key in SPAN_COUNTS.items()},
    }
    solve = found["search.solve_s"]
    found["search.nodes_per_s"] = found["search.nodes"] / solve if solve else 0.0
    searches = [
        (r, s)
        for r in traced + extra
        for s in r.spans
        if s["name"] == "search.max_code_size" and "counts" in s
    ]
    found["search.budget_overrun_s"] = max(
        (
            s["counts"]["wall_time_ms"] / 1000 - s["counts"]["budget_s"]
            for _, s in searches
            if s["counts"]["budget_s"] and not s["counts"]["exhausted"]
        ),
        default=0.0,
    )
    solve_time = {r.job.key: span_duration(s) for r, s in searches}
    one, two = (solve_time.get(j.key, 0.0) for j in SPEEDUP_JOBS)
    found["search.parallel_speedup"] = one / two if two else 0.0
    totals = outcome_totals(untraced)
    found["search.settled"] = totals["settled"]
    found["search.lower_bound"] = totals["lower_bound"]
    found["words.ball_per_s"] = micro.get("ball_per_s", 0.0)
    found["words.lcs_per_s"] = micro.get("lcs_per_s", 0.0)
    found["trace.overhead_s"] = sum(t.proc.wall - u.proc.wall for u, t in pairs)
    return {name: found[name] for name in PER_LAYER_UNITS}


def run_micro(
    spawner: Spawner, pairs_file: Path, deadline: float
) -> tuple[dict, str | None]:
    """Word-primitive rates from perfbench/micro.py, with its checksums checked."""
    proc = spawner.run([PYTHON, str(BENCH / "micro.py"), str(pairs_file)], deadline)
    if proc.returncode != 0:
        return {}, f"micro.py exit code {proc.returncode}"
    try:
        micro = json.loads(proc.stdout)
        sums = (micro["lcs_sum"], micro["ball_size_sum"])
    except (ValueError, KeyError) as e:
        return {}, f"micro.py output malformed: {e!r}"
    pairs = [line.split() for line in pairs_file.read_text(encoding="ascii").splitlines()]
    lcs_sum = sum(oracle.lcs_length(u, v) for u, v in pairs)
    balls = sum(len(oracle.ball(w, t)) for t in (1, 2) for w in oracle.all_words(12))
    if sums != (lcs_sum, balls):
        return micro, "word primitive checksums differ from the oracle"
    return micro, None


# --- main ----------------------------------------------------------------


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}


def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += (i ^ (i >> 3)) & 7
    return time.perf_counter() - start


def reference_sample() -> float:
    return statistics.median(reference_loop() for _ in range(3))


def measure(spawner: Spawner, jobs: list[Job], seconds: float, deadline: float):
    """Cycle through the job list, one job at a time, until `seconds` have
    passed; every job runs at least once.  A reference sample precedes each
    job and follows the last, and SETUP_SPAWNS set-up samples are spread over
    the same window.  Returns (job runs, set-up times, reference samples)."""
    runs: list[JobRun] = []
    refs: list[float] = []
    setup: list[float] = []
    setup_time(spawner)  # warm-up: writes the bytecode cache in a fresh checkout
    start = time.perf_counter()
    while len(runs) < len(jobs) or time.perf_counter() - start < seconds:
        longest = max((r.proc.wall for r in runs), default=0.0)
        if len(runs) >= len(jobs) and time.perf_counter() + longest > deadline:
            break
        if len(setup) * seconds <= SETUP_SPAWNS * (time.perf_counter() - start):
            setup.append(setup_time(spawner))
        refs.append(reference_sample())
        runs.append(run_job(spawner, jobs[len(runs) % len(jobs)], deadline))
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_time(spawner))
    refs.append(reference_sample())
    for i, run in enumerate(runs):
        run.reference = (refs[i] + refs[i + 1]) / 2
    return runs, setup, refs


def end_to_end_run(spawner, jobs, seconds, deadline, facts, seen_counts, record):
    """The gated run: end-to-end metrics, with times in reference seconds."""
    runs, setup, refs = measure(spawner, jobs, seconds, deadline)
    check_runs(runs, facts, seen_counts)

    def adjusted(value: float, run: JobRun) -> float:
        # time spent waiting out a budget does not depend on machine speed
        waited = run.job.budget if run.proc.returncode == 4 else 0.0
        return waited + (value - waited) * REFERENCE_NOMINAL_S / run.reference

    setup_raw = statistics.median(setup)
    metrics = {
        "setup_s": setup_raw * REFERENCE_NOMINAL_S / statistics.median(refs),
        "wall_s": job_list_total(runs, lambda r: adjusted(r.proc.wall, r)),
        "cpu_s": job_list_total(runs, lambda r: adjusted(r.proc.cpu, r)),
        "peak_rss_mb": max(r.proc.rss_kb for r in runs) / 1024,
    }
    raw = {
        "setup_s": setup_raw,
        "wall_s": job_list_total(runs, lambda r: r.proc.wall),
        "cpu_s": job_list_total(runs, lambda r: r.proc.cpu),
    }
    report = {
        **metrics,
        **outcome_totals(runs),
        "failed_ratio": sum(1 for r in runs if r.problem) / len(runs),
    }
    record.update(raw=raw, setup_spawns_s=setup, references_s=refs, report=report)
    lines = [
        f"{k} {v} {REPORT_UNITS[k]}" + (f" (unadjusted {raw[k]} s)" if k in raw else "")
        for k, v in report.items()
    ]
    lines.append(
        f"{len(runs)} job runs over {len(jobs)} jobs;"
        f" reference loop median {statistics.median(refs)} s,"
        f" nominal {REFERENCE_NOMINAL_S} s"
    )
    return runs, metrics, lines, []


def traced_run(spawner, workload, jobs, deadline, facts, seen_counts, pairs_file, record):
    """The traced run: each job once untraced and once traced, back to back,
    then the traced-only extra jobs and the word-primitive run."""
    span_dir = WORK / "spans"
    span_dir.mkdir(exist_ok=True)
    pairs = [
        (
            run_job(spawner, job, deadline),
            run_job(spawner, job, deadline, span_dir / f"{i}.json"),
        )
        for i, job in enumerate(jobs)
    ]
    keys = {j.key for j in jobs}
    extra_jobs = [j for j in SPEEDUP_JOBS if j.key not in keys]
    extra_jobs += TRACED_EXTRA.get(workload, [])
    extra = [
        run_job(spawner, job, deadline, span_dir / f"extra{i}.json")
        for i, job in enumerate(extra_jobs)
    ]
    micro, micro_problem = run_micro(spawner, pairs_file, deadline)
    runs = [r for pair in pairs for r in pair] + extra
    check_runs(runs, facts, seen_counts)
    metrics = per_layer_metrics(pairs, extra, micro)
    traced = [t for _, t in pairs]
    traced_wall = sum(r.proc.wall for r in traced)
    shares = {
        "search.solve_s / traced wall": metrics["search.solve_s"] / traced_wall,
        "(codes.dominant_codewords_s + dominance.pairs_s) / traced wall": (
            metrics["codes.dominant_codewords_s"] + metrics["dominance.pairs_s"]
        )
        / traced_wall,
    }
    record["shares"] = shares
    lines = [line for run in traced + extra for line in span_tree(run)]
    lines += [f"share {k} = {v:.4f}" for k, v in shares.items()]
    lines += [f"{k} {v} {PER_LAYER_UNITS[k]}" for k, v in metrics.items()]
    spans_out = [
        {"job": r.job.key, "wall": r.proc.wall, "spans": r.spans} for r in traced + extra
    ]
    (WORK / f"spans-{workload}-seed{record['seed']}.json").write_text(
        json.dumps(spans_out), encoding="ascii"
    )
    return runs, metrics, lines, [micro_problem] if micro_problem else []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "delcodes" / "cli.py").is_file():
        print(f"error: no delcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # The CPUs of a shared host slow down independently of each other, so the
    # jobs run on the same CPU as the reference loop that measures its speed.
    os.sched_setaffinity(0, {min(ALL_CPUS)})
    deadline = time.perf_counter() + JOB_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "loadavg_before": os.getloadavg(),
    }
    check_jobs, facts, sizes, pairs_file = make_inputs(args.seed)
    record["greedy_code_sizes"] = sizes
    jobs = WORKLOADS[args.workload] + (check_jobs if args.workload == "tables" else [])
    seen_counts = load_counts()
    with Spawner() as spawner:
        if args.trace:
            runs, metrics, lines, problems = traced_run(
                spawner, args.workload, jobs, deadline, facts, seen_counts, pairs_file, record
            )
            units = PER_LAYER_UNITS
        else:
            runs, metrics, lines, problems = end_to_end_run(
                spawner, jobs, args.seconds, deadline, facts, seen_counts, record
            )
            units = END_TO_END_UNITS
    save_counts(seen_counts)
    problems += [f"`{r.job.key}`: {r.problem}" for r in runs if r.problem]
    attempted = len(runs) + args.trace  # the traced run also checks micro.py
    record.update(
        jobs=[
            {
                "job": r.job.key,
                "traced": bool(r.spans),
                "returncode": r.proc.returncode,
                "wall_s": r.proc.wall,
                "cpu_s": r.proc.cpu,
                "rss_kb": r.proc.rss_kb,
                "reference_s": r.reference,
                "outcome": r.outcome,
                "problem": r.problem,
            }
            for r in runs
        ],
        problems=problems,
        metrics=metrics,
        loadavg_after=os.getloadavg(),
    )
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii"
    )
    print(f"workload {args.workload} seed {args.seed} machine {json.dumps(record['machine'])}")
    print(f"greedy code sizes {json.dumps(sizes)}")
    print(f"loadavg before {record['loadavg_before']} after {record['loadavg_after']}")
    for line in lines + [f"problem: {p}" for p in problems]:
        print(line)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
