"""Run one command and print its exit code, wall time, CPU time and peak RSS
as one JSON line.

    python3 -I -S bench/launch.py TIMEOUT STDOUT_FILE STDERR_FILE ARGV...

The command gets this process's environment, reads /dev/null and writes the
two files.  It is killed after TIMEOUT seconds.

Linux folds the memory high-water mark of the process that spawns a child
into the child's ``ru_maxrss``.  The benchmark process is larger than the
smallest fatcat child, so it spawns this small launcher, and the launcher
spawns the command.
"""

import json
import os
import signal
import sys
import time


def main():
    timeout, out, err = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, write, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, err, write, 0o600),
    ]
    killed = []

    def kill(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    # WNOWAIT leaves the child a zombie, so its pid cannot be reused while
    # the timer may still fire.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": bool(killed) and os.WIFSIGNALED(status),
    }))


if __name__ == "__main__":
    main()
