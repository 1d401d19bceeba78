"""Run jobs one at a time and report each one's wall time and peak RSS.

Usage: python3 -I -S spawn.py OUTDIR ENVFILE -- JOB [-- JOB ...]

Each JOB is an argv; job k's stdout and stderr go to OUTDIR/k.out and
OUTDIR/k.err.  ENVFILE holds the child environment, one NAME=VALUE per
line.  For every job one line "k exit_code wall_ns maxrss_kb" goes to
stdout, then a last line "spawner_hwm_kb N" with this process's own peak.

On Linux a child's ru_maxrss also counts the image of the process that
spawned it, as it stood before exec.  This script therefore stays small:
it imports nothing beyond os, sys and time, holds no job output in
memory, and is started with -I -S, so that every job's reported peak is
the job's own.
"""
import os
import sys
import time


def main(argv):
    # every job on one CPU, which they inherit: a job that migrates between
    # the CPUs of a shared machine picks up their different loads as noise
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    outdir, envfile = argv[0], argv[1]
    with open(envfile) as fh:
        env = dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)
    jobs, cur = [], None
    for arg in argv[2:]:
        if arg == "--":
            cur = []
            jobs.append(cur)
        else:
            cur.append(arg)
    for k, job in enumerate(jobs):
        out = os.open(os.path.join(outdir, f"{k}.out"),
                      os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(os.path.join(outdir, f"{k}.err"),
                      os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(job[0], job, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter_ns() - t0
        os.close(out)
        os.close(err)
        code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(f"{k} {code} {wall} {usage.ru_maxrss}\n")
        sys.stdout.flush()
    with open("/proc/self/status") as fh:
        hwm = next((line.split()[1] for line in fh
                    if line.startswith("VmHWM:")), "0")
    sys.stdout.write(f"spawner_hwm_kb {hwm}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
