"""Start the benchmark's jobs one at a time and report each one's wall time,
exit status and peak RSS.

    python3 -S bench/launcher.py

run.py sends this process one job at a time.  The peak RSS that ``wait4``
reports for a child counts the memory it shared with the process it was
forked from, up to the ``exec``, so a job forked from run.py would read at
least run.py's own resident size (tens of MiB once it has drawn the hosts
and computed the expected counts).  Forked from this small process, a job
reads its own peak.

One JSON request a line on stdin: ``{"argv", "env", "cwd", "out", "err",
"timeout"}``; ``argv[0]`` is a path.  One JSON reply a line on stdout:
``{"wall_s", "exit_code", "peak_rss_mb", "timed_out"}``.  End of input ends
the launcher; SIGTERM kills and reaps the running job first.
"""

import json
import os
import signal
import sys
import time

child = None      # pid of the running job, not yet reaped
timed_out = False


def on_alarm(_signum, _frame):
    global timed_out
    if child is not None:
        timed_out = True
        os.kill(child, signal.SIGKILL)


def on_term(signum, _frame):
    if child is not None:
        os.kill(child, signal.SIGKILL)
        try:
            os.waitpid(child, 0)
        except ChildProcessError:
            pass
    os._exit(128 + signum)


def run(req):
    """Fork and exec one job; the child is waited for without reaping first,
    so the timeout's kill can never hit a reused pid."""
    global child, timed_out
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(req["out"], flags, 0o644)
    err = os.open(req["err"], flags, 0o644)
    null = os.open(os.devnull, os.O_RDONLY)
    timed_out = False
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(null, 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.chdir(req["cwd"])
            os.execve(req["argv"][0], req["argv"], req["env"])
        finally:
            os._exit(127)
    child = pid
    for fd in (out, err, null):
        os.close(fd)
    signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.001))
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    child = None
    # a kill that came after the job had exited does not make it a timeout
    killed = timed_out and os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    return {"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status),
            "peak_rss_mb": usage.ru_maxrss / 1024, "timed_out": killed}


def main():
    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
