"""Runs CLI commands for the cli workload from a small process.

The peak RSS the kernel reports for a child includes the memory of the
process that spawned it, so a CLI spawned straight from the benchmark worker
would report the worker's own footprint.  This process imports nothing
heavy and stays smaller than any CLI run, so the peak RSS of its children is
that of the CLI.

Protocol, one JSON value per line: read an argv list, answer
[returncode, stdout]; read the string "rss", answer the largest peak RSS of
any child so far in KiB.  Ends at end of input.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        if request == "rss":
            answer = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "semiorders.cli", *request],
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                answer = [proc.returncode, proc.stdout]
            except subprocess.TimeoutExpired:
                answer = [None, ""]
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
