"""vpshell benchmark: time the real CLI jobs a user of the checker waits for.

Usage:
  python3 perfbench/run.py --workload certify|verify|build|all
                           [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; the package is taken from ./src.  One
client runs the workload's jobs one at a time (a closed loop), each as a
fresh `python -m vpshell ...` process, so every job pays the cold import
and cold caches a command-line user pays.  The seed only permutes the job
order within a pass.  Passes fill --seconds (see fill()); each time is
a median over the passes, scaled by the run's reference.py time.  Every
job's output is checked against constants in workloads.py, and each
job's stdout must be byte-identical across the passes of a run.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it runs one untraced and one traced pass (see tracejob.py) and
reports the per-layer metrics.  A readable report goes to stderr, or to
stdout with --workload all.  NOTES.md defines every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
from tracejob import BOUNDARIES, SIZE_COUNTS
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PY = sys.executable
IMPORT = [PY, "-c", "import vpshell"]
REFERENCE = [PY, str(HERE / "reference.py")]
SETUP_IMPORTS = 10  # imports timed at the start of each pass, for setup_s
REFERENCE_S = 0.2  # reference.py's time on a quiet machine; see NOTES.md
DEADLINE_S = 170  # no workload run outlives this, whatever the jobs do

END_TO_END = {"wall_s": "s", "large_job_s": "s", "small_jobs_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer, names in BOUNDARIES.items():
        for name in names:
            units[f"{layer}.{name}.self_s"] = "s"
            units[f"{layer}.{name}.calls"] = "count"
    units.update({key: "count" for key in SIZE_COUNTS})
    units["labeling.intervals"] = "count"
    units["spherecount.filter.yield"] = "ratio"
    units["trace.unaccounted_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Runner:
    """Runs argv lists through spawn.py inside a private work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        # jobs run with default interpreter settings (bytecode cache on) and
        # the default budgets, whatever the caller's environment says
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("VPSHELL_", "PYTHON")) and "\n" not in v}
        env["PYTHONPATH"] = str(SRC)
        self.envfile = workdir / "env"
        self.envfile.write_text("".join(f"{k}={v}\n" for k, v in env.items()))
        self.spawner_mb = 0.0

    def spawn(self, argvs: list, outdir: Path) -> list:
        """Run argvs one at a time, the k-th one's output going to
        outdir/k.out; return (exit code, wall seconds, peak RSS in MB)."""
        cmd = [PY, "-I", "-S", str(HERE / "spawn.py"), str(outdir),
               str(self.envfile)]
        for argv in argvs:
            cmd += ["--", *argv]
        # own session, so a timeout can stop the jobs along with the spawner
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:  # deadline, SIGTERM or ^C: stop the jobs
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SystemExit(f"run passed its {DEADLINE_S}s deadline")
            raise
        if proc.returncode != 0:
            raise SystemExit(f"spawn.py exited {proc.returncode}")
        lines = out.split("\n")
        results = []
        for line in lines[:len(argvs)]:
            _, code, wall_ns, rss_kb = map(int, line.split())
            results.append((code, wall_ns / 1e9, rss_kb / 1024))
        self.spawner_mb = max(self.spawner_mb,
                              int(lines[len(argvs)].split()[1]) / 1024)
        return results


class JobRun:
    def __init__(self, job: Job, code: int, wall: float, rss: float,
                 stdout: bytes, spans: dict | None):
        self.job, self.wall, self.rss = job, wall, rss
        self.digest = hashlib.sha256(stdout).hexdigest()
        self.spans = spans
        try:
            self.problems = job.check(code, stdout.decode())
        except Exception as exc:  # unparsable output is a failed job too
            self.problems = [f"{type(exc).__name__}: {exc}"]


class Pass:
    """One pass over jobs, in the given order.  A timed pass first times
    SETUP_IMPORTS imports of vpshell, so that setup_s samples the whole
    run, and runs reference.py before every job."""

    def __init__(self, runner: Runner, jobs: list, traced=False, timed=False):
        outdir = Path(tempfile.mkdtemp(dir=runner.workdir))
        argvs = [IMPORT] * SETUP_IMPORTS if timed else []
        slots = []  # where each job sits in argvs
        for k, job in enumerate(jobs):
            if timed:
                argvs.append(REFERENCE)
            slots.append(len(argvs))
            argvs.append([PY, str(HERE / "tracejob.py"),
                          str(outdir / f"{k}.spans"), *job.args]
                         if traced else [PY, "-m", "vpshell", *job.args])
        results = runner.spawn(argvs, outdir)
        stdout = lambda i: (outdir / f"{i}.out").read_bytes()
        self.runs = [
            JobRun(job, *results[i], stdout(i),
                   json.loads((outdir / f"{k}.spans").read_text())
                   if traced else None)
            for k, (job, i) in enumerate(zip(jobs, slots))]
        self.imports, self.refs = [], []
        if timed:
            if any(code for code, _, _ in results[:SETUP_IMPORTS]):
                raise SystemExit("import vpshell failed")
            if any(results[i - 1][0] or int(stdout(i - 1)) != reference.EXPECTED
                   for i in slots):
                raise SystemExit("reference.py failed")
            self.imports = [wall for _, wall, _ in results[:SETUP_IMPORTS]]
            self.refs = [results[i - 1][1] for i in slots]
        shutil.rmtree(outdir)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)


def check_source(runner: Runner) -> None:
    """Fail unless vpshell imports from SRC; this also compiles its
    bytecode cache before anything is timed."""
    probe = "import sys, vpshell.cli; sys.stdout.write(vpshell.__file__)"
    outdir = Path(tempfile.mkdtemp(dir=runner.workdir))
    [(code, _, _)] = runner.spawn([[PY, "-c", probe]], outdir)
    where = (outdir / "0.out").read_text()
    if code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"vpshell does not import from {SRC}: "
                         + (outdir / "0.err").read_text()[-500:])
    shutil.rmtree(outdir)


def check_determinism(passes: list) -> None:
    """A job whose stdout differs from its first run in the run fails."""
    first = {}
    for p in passes:
        for r in p.runs:
            if r.digest != first.setdefault(r.job, r.digest):
                r.problems.append("stdout differs from the job's first run")


def job_medians(passes: list) -> dict:
    return {job: statistics.median(r.wall for p in passes for r in p.runs
                                   if r.job is job)
            for job in (r.job for r in passes[0].runs)}


def end_to_end(passes: list) -> dict:
    # Times are scaled to a machine on which reference.py takes REFERENCE_S.
    # Each job's median over the passes is summed, so one slow pass of one
    # job moves a sum by that job's share only.
    scale = REFERENCE_S / statistics.median(t for p in passes for t in p.refs)
    medians = job_medians(passes)
    large = scale * sum(t for job, t in medians.items() if job.large)
    small = scale * sum(t for job, t in medians.items() if not job.large)
    return {
        "wall_s": large + small,
        "large_job_s": large,
        "small_jobs_s": small,
        "setup_s": scale * statistics.median(
            t for p in passes for t in p.imports),
        "peak_rss_mb": statistics.median(
            max(r.rss for r in p.runs) for p in passes
            if any(r.job.large for r in p.runs)),
    }


def layers(plain: Pass, traced: Pass) -> dict:
    metrics = {name: 0.0 if unit == "s" else 0
               for name, unit in per_layer_units().items()}
    counts: dict = {}
    accounted = 0.0
    for r in traced.runs:
        for name, parent, calls, _, self_s in r.spans["spans"]:
            metrics[f"{name}.self_s"] += self_s
            metrics[f"{name}.calls"] += calls
            accounted += self_s
            if name == "poset.maximal_chains" and parent == "labeling.verify_el":
                metrics["labeling.intervals"] += calls
        for key, value in r.spans["counts"].items():
            counts[key] = counts.get(key, 0) + value
    for key in SIZE_COUNTS:
        metrics[key] = counts.get(key, 0)
    candidates = counts.get("spherecount.filter.chains", 0)
    metrics["spherecount.filter.yield"] = (
        counts.get("spherecount.decreasing", 0) / candidates
        if candidates else 0.0)
    metrics["trace.unaccounted_s"] = traced.wall - accounted
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    return metrics


def fill(runner: Runner, jobs: list, rng: random.Random, seconds: float) -> list:
    """Timed passes over all jobs while another one should fit in the time
    given, then passes over the small jobs alone while one fits.  Short
    jobs are the ones whose times swing most from one pass to the next, so
    the rest of the time buys them more samples."""
    small = [job for job in jobs if not job.large]
    passes, start = [], time.monotonic()
    full_cost = small_cost = 0.0  # seconds the last pass of each kind took
    while True:
        left = seconds - (time.monotonic() - start)
        if not passes or full_cost <= left:
            chosen = jobs
        elif small_cost <= left:
            chosen = small
        else:
            return passes
        begun = time.monotonic()
        p = Pass(runner, rng.sample(chosen, len(chosen)), timed=True)
        passes.append(p)
        took = time.monotonic() - begun
        if chosen is jobs:
            full_cost = took
            # until a small pass has run, estimate one from this pass
            small_cost = small_cost or took * sum(
                r.wall for r in p.runs if not r.job.large) / p.wall
        else:
            small_cost = took


def run_workload(workdir: Path, name: str, seed: int, seconds: float,
                 trace: bool, report) -> tuple[dict, int, int]:
    runner = Runner(workdir)
    check_source(runner)
    jobs = list(WORKLOADS[name])
    rng = random.Random(seed)
    if trace:
        order = rng.sample(jobs, len(jobs))
        passes = [Pass(runner, order), Pass(runner, order, traced=True)]
    else:
        passes = fill(runner, jobs, rng, seconds)
    check_determinism(passes)
    attempted = sum(len(p.runs) for p in passes)
    failed = sum(1 for p in passes for r in p.runs if r.problems)
    if trace:
        metrics, units = layers(*passes), per_layer_units()
    else:
        metrics, units = end_to_end(passes), END_TO_END
    print_report(report, name, passes, metrics, units, attempted, failed,
                 runner.spawner_mb)
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            attempted, failed)


def print_report(out, name, passes, metrics, units, attempted, failed,
                 spawner_mb) -> None:
    p = lambda *a: print(*a, file=out)
    p(f"== {name}: {len(passes)} passes")
    for k, v in metrics.items():
        p(f"  {k:46s} {v:14.6g} {units[k]}")
    p(f"  {'failed_jobs':46s} {failed:>14d} of {attempted}")
    refs = [t for ps in passes for t in ps.refs]
    if refs:
        p(f"  reference.py: median {statistics.median(refs):.4f} s over"
          f" {len(refs)} runs; times above are scaled to {REFERENCE_S} s")
    p("  per job, unscaled: median [min max] over the passes, peak RSS;"
      " * = large job")
    medians = job_medians(passes)
    for job, med in medians.items():
        walls = [r.wall for ps in passes for r in ps.runs if r.job is job]
        rss = max(r.rss for ps in passes for r in ps.runs if r.job is job)
        p(f"    {med:9.4f} s [{min(walls):.4f} {max(walls):.4f}]"
          f" {rss:8.1f} MB{' *' if job.large else '  '} {job.label}")
        for ps in passes:
            for r in ps.runs:
                if r.job is job and r.problems:
                    p(f"      FAILED: {'; '.join(r.problems)}")
    p(f"  spawner peak {spawner_mb:.1f} MB (every job's peak must exceed it)")
    if passes[-1].runs[0].spans is not None:
        for r in passes[-1].runs:
            spans = sorted(r.spans["spans"], key=lambda s: -s[4])[:3]
            p(f"  top self time in: {r.job.label}")
            for n, parent, calls, total, self_s in spans:
                p(f"    {self_s:9.4f} s self {total:9.4f} s total"
                  f" {calls:8d} calls  {n} <- {parent}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "vpshell" / "cli.py").is_file():
        print(f"error: no vpshell sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    report = sys.stdout if args.workload == "all" else sys.stderr
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            m, a, f = run_workload(workdir, name, args.seed, args.seconds,
                                   bool(args.trace), report)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
