"""Start the benchmark's child processes from a small helper process.

Usage: started by perfbench/run.py, which talks to it over stdin and stdout.

Each input line is one JSON request with the keys cmd, seconds, cpus, stdout
and stderr.  The helper runs cmd in a session of its own, with its output in
the two named files and on the given CPUs (or the helper's own when cpus is
null), and kills the session after `seconds`.  It answers with one JSON line:
the exit code, the wall seconds, the CPU seconds of the child and of every
descendant it waited for, and the largest resident set among them in KiB.

Linux counts the resident set of the forking process in a child's peak
resident set.  Forking from this small process, not from the benchmark
process, keeps the benchmark's own memory out of the jobs' peak.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        if request["cpus"]:
            os.sched_setaffinity(proc.pid, request["cpus"])
        timer = threading.Timer(request["seconds"], kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill_group(proc.pid)  # anything the child left behind in its session
    return {
        "returncode": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
