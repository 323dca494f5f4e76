"""Start benchmark children one at a time and report what each used.

Usage: python3 -I -S perfbench/launch.py MEM_CAP_BYTES CPU_CAP_SECONDS

Reads one JSON request per line on stdin, {"argv": [...], "stdout": path,
"stderr": path}, runs it to completion and answers with one JSON line:
start and end (time.perf_counter, which is CLOCK_MONOTONIC and so
comparable across processes), exit status, user+sys CPU and ru_maxrss.

The launcher exists because Linux carries a process's resident size from
before ``execve`` into its ``ru_maxrss``: a child forked straight from the
benchmark would report at least the benchmark's own size.  This process
stays small, so a child's ``ru_maxrss`` is its own peak.  The memory and CPU
caps are set on this process and are inherited by its children; they do not
apply to the benchmark that started it.
"""

import json
import os
import resource
import sys
import time

CALIBRATION_STEPS = 400000


def calibrate():
    """Seconds this CPU takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    counts = {}
    acc = 0
    for i in range(CALIBRATION_STEPS):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        acc += k * k % 13
    return time.perf_counter() - start


def main(mem_cap, cpu_cap):
    resource.setrlimit(resource.RLIMIT_AS, (mem_cap, mem_cap))
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_cap, cpu_cap + 5))
    for line in sys.stdin:
        req = json.loads(line)
        cal = calibrate()
        if req["argv"] is None:
            sys.stdout.write(json.dumps({"cal_s": cal}) + "\n")
            sys.stdout.flush()
            continue
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"],
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"],
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        sys.stdout.write(json.dumps({
            "cal_s": cal, "start": start, "end": end,
            "exit": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
