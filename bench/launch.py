"""Run one command and report its wall time and its own resource usage.

    python3 -I -S bench/launch.py TIMEOUT_S STDOUT STDERR -- PROGRAM [ARGS...]

Prints one line, "wall_s cpu_s maxrss_kb exit_code", for the command alone:
the time runs from spawning it to reaping it, and the usage comes from
os.wait4 of that child.  The command inherits this process's environment
and has its stdout and stderr sent to the given files.

Linux starts a new program's peak RSS at the peak RSS of the process that
spawned it, so a command spawned straight from bench/run.py, whose own peak
grows as it works, would report at least that.  This launcher is a fresh,
minimal interpreter (-I -S, no imports beyond os, sys, signal and time),
which keeps that floor below the size of any Python child it measures.
"""

import os
import signal
import sys
import time


def main(argv):
    timeout, out_path, err_path, sep, *cmd = argv
    if sep != "--" or not cmd:
        raise SystemExit(__doc__)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(out_path, flags, 0o644)
    err = os.open(err_path, flags, 0o644)
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ,
                          file_actions=[(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(float(timeout)))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    os.close(out)
    os.close(err)
    code = os.waitstatus_to_exitcode(status)
    print(f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
