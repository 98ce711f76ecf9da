"""Runs the benchmark's subprocesses and reports each one's own peak RSS.

A child process starts as a copy of the process that spawns it, and the
peak resident set that ``wait4`` reports for the child includes that copy.
The benchmark holds the catalog, the oracle and the generated inputs, so it
starts children from this small process instead.  It reads one JSON request
per line on stdin (argv, cwd, env, stdout and stderr paths, deadline in
seconds) and answers each with one JSON line: exit code, wall time in
seconds and peak RSS in KiB.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"], stdout=out, stderr=err)
            watchdog = threading.Timer(request["deadline"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
