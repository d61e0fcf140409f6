"""Run a command and fail when its peak resident set is over a limit.

    python .github/peak_rss.py LIMIT_MB -- CMD [ARG...]

The command keeps this process's standard streams, so its output goes
where the caller sends it.  The peak comes from os.wait4 on the command's
process, which reports the larger of its own peak and those of the children
it waited for: "timeout 30 python ..." reports the python child's.  The peak
is printed on standard error.  The exit code is the command's, or 1 when
the command succeeds above the limit.
"""

import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: peak_rss.py LIMIT_MB -- CMD [ARG...]")
    limit = float(argv[0])
    child = subprocess.Popen(argv[2:])
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB", file=sys.stderr)
    if code == 0 and peak > limit:
        print(f"peak RSS above {argv[0]} MB", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
