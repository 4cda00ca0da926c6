#!/usr/bin/env python3
"""Runs a command and prints what it cost the kernel: page faults, CPU
time, peak RSS and wall time.

Usage (from the repo root):

  python3 tools/rusage.py -- <cmd> [args...]

The command's stdout goes to this tool's stderr, so stdout carries one
JSON line, from getrusage(RUSAGE_CHILDREN) around the command (it and
every descendant it waited for):

  minflt      minor page faults (first touches of fresh memory)
  majflt      major page faults (pages read from disk)
  utime_s     user CPU seconds
  stime_s     system CPU seconds
  maxrss_mib  peak resident set of the largest process, MiB
  wall_s      wall-clock seconds
  returncode  the command's exit status, which is also this tool's

Anything the command builds first counts too: to count only a
perfbench run, build perfbench once before measuring, e.g.

  python3 perfbench/run.py --workload reclaim-1h --seconds 1
  python3 tools/rusage.py -- python3 perfbench/run.py --workload reclaim-1h

Stdlib only.
"""

import json
import resource
import subprocess
import sys
import time


def measure(cmd):
    """Runs cmd (its stdout to our stderr) and returns the usage dict."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "minflt": after.ru_minflt - before.ru_minflt,
        "majflt": after.ru_majflt - before.ru_majflt,
        "utime_s": round(after.ru_utime - before.ru_utime, 3),
        "stime_s": round(after.ru_stime - before.ru_stime, 3),
        # ru_maxrss is in KiB on Linux.
        "maxrss_mib": round(after.ru_maxrss / 1024, 1),
        "wall_s": round(wall, 3),
        "returncode": code,
    }


def main(argv):
    if not argv or argv[0] != "--" or len(argv) < 2:
        print("usage: rusage.py -- <cmd> [args...]", file=sys.stderr)
        return 2
    usage = measure(argv[1:])
    print(json.dumps(usage))
    return usage["returncode"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
