"""Seeded end-to-end benchmark of the ``subcount`` command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-expected

One benchmark process runs one job at a time (a closed loop with one client);
every job is a fresh ``subcount`` process, started by the small launcher.py
process so that its peak RSS is its own, and its wall time includes
interpreter start, import and file parsing.  Every count is checked against
an expected count from another route (see workloads.py).  With ``--trace 0``
the last stdout line carries the end-to-end metrics, with times scaled to a
reference host speed (see ``end_to_end``); with ``--trace 1`` it
carries the per-layer metrics of a traced pass (tracer.py), alternated with
untraced passes to measure the trace overhead.  A record of every job, every
pass's wall time and the run environment goes to bench/_work/results/.

``--write-expected`` rewrites the table of expected counts for the default
seed, expected_seed1.json.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
RUN_DIR = os.path.join(WORK, "run")
DEFAULT_SEED = 1
EXPECTED_TABLE = os.path.join(BENCH, f"expected_seed{DEFAULT_SEED}.json")
SETUP_REPEATS = 5
HELP_REPEATS = 5
JOB_TIMEOUT_S = 60
# no child is started or left running later than this after start, so a run
# ends well within three minutes even when every job hangs
DEADLINE_S = 150
START = time.perf_counter()
# The host's speed is measured with a fixed pure-Python loop between jobs;
# REFERENCE_CALIBRATION_S is the loop's median time on the 2-vCPU host the
# benchmark was defined on, so scaled times read as seconds at that speed.
CALIBRATION_LOOPS = 300_000
REFERENCE_CALIBRATION_S = 0.019


def remaining():
    return DEADLINE_S - (time.perf_counter() - START)


def calibrate():
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i & 7
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# child processes


def child_env(pycache):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=pycache,
               PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def python_cmd(*args):
    # -S: the host interpreter's site-packages start-up hooks are not part of
    # subcount (which has no third-party dependencies) and would add a fixed
    # cost of their own to every job
    return [sys.executable, "-S", *args]


class Launcher:
    """Client of launcher.py, which forks every job from a small process so
    that a job's peak RSS is its own (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(python_cmd(os.path.join(BENCH, "launcher.py")),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv, env, timeout, tag):
        """Run argv to completion; kill it after ``timeout`` seconds.

        Returns (wall seconds, exit code, peak RSS in MiB, stdout, timed out).
        """
        out_path = os.path.join(RUN_DIR, f"{tag}.out")
        request = {"argv": argv, "env": env, "cwd": ROOT, "out": out_path,
                   "err": os.path.join(RUN_DIR, f"{tag}.err"), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return (reply["wall_s"], reply["exit_code"], reply["peak_rss_mb"], stdout,
                reply["timed_out"])

    def close(self):
        """Stop the launcher; it kills and reaps a job that is still running."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Runner:
    def __init__(self, launcher, jobs, expected, seconds):
        self.launcher = launcher
        self.jobs = jobs
        self.expected = expected
        self.seconds = seconds
        self.env = child_env(os.path.join(WORK, "pycache"))
        self.records = []

    def cli_argv(self, job, traced, trace_path):
        args = [os.path.join(RUN_DIR, a[1:] + ".graph") if a.startswith("@") else a
                for a in job.args]
        if traced:
            return python_cmd(os.path.join(BENCH, "tracer.py"), trace_path, "--", *args)
        return python_cmd("-m", "subcount.cli", *args)

    def run_pass(self, index, traced):
        """One pass over the job list; returns its records and wall time (the
        sum of the job times).  Calibrations bracket every job."""
        recs = []
        before = calibrate()
        for job in self.jobs:
            tag = f"p{index}-{'t' if traced else 'u'}-{job.name}"
            trace_path = os.path.join(RUN_DIR, tag + ".trace.json")
            rec = {"pass": index, "traced": traced, "job": job.name,
                   "expected": str(self.expected[job.name])}
            timeout = min(JOB_TIMEOUT_S, remaining())
            if timeout <= 0:
                rec.update(wall_s=0.0, exit_code=None, timed_out=True, ok=False,
                           calibration_s=before)
                recs.append(rec)
                continue
            wall, code, rss, stdout, killed = self.launcher.run(
                self.cli_argv(job, traced, trace_path), self.env, timeout, tag)
            rec.update(wall_s=wall, exit_code=code, peak_rss_mb=rss, timed_out=killed)
            try:
                line = json.loads(stdout.strip().splitlines()[-1])
                rec.update(count=line["count"], algorithm=line.get("algorithm"),
                           oracle_calls=line.get("oracle_calls"))
            except (IndexError, ValueError, KeyError, TypeError):
                rec["count"] = None
            rec["ok"] = code == 0 and not killed and rec["count"] == rec["expected"]
            after = calibrate()
            rec["calibration_s"] = (before + after) / 2
            before = after
            if traced and code == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    rec["trace"] = json.load(fh)
            recs.append(rec)
        self.records.extend(recs)
        return recs, sum(rec["wall_s"] for rec in recs)

    def passes(self, kinds):
        """Cycle through pass kinds (False untraced, True traced) until the
        next full cycle would overrun ``seconds``; at least one cycle."""
        t0 = time.perf_counter()
        done = {kind: [] for kind in kinds}
        longest = 0.0
        index = 0
        while True:
            c0 = time.perf_counter()
            for kind in kinds:
                done[kind].append(self.run_pass(index, kind))
                index += 1
            longest = max(longest, time.perf_counter() - c0)
            elapsed = time.perf_counter() - t0
            if elapsed + longest > self.seconds or remaining() < longest:
                return done


# ---------------------------------------------------------------------------
# set-up and expected counts


def set_up(launcher, workloads, seed, jobs):
    """Generate and write the instances, then warm the bytecode cache with one
    untimed CLI call.  Returns the generated files by @-name."""
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    files = workloads.make_files(seed, workloads.files_of(jobs))
    for name, graph in files.items():
        with open(os.path.join(RUN_DIR, name + ".graph"), "w", encoding="utf-8") as fh:
            fh.write(workloads.graph_text(graph))
    pycache = os.path.join(WORK, "pycache")
    shutil.rmtree(pycache, ignore_errors=True)
    code = launcher.run(python_cmd("-m", "subcount.cli", "--help"), child_env(pycache),
                        min(JOB_TIMEOUT_S, remaining()), "warm-up")[1]
    if code != 0:
        print(f"bench: warm-up call `subcount --help` exited {code}", file=sys.stderr)
    return files


def expected_counts(jobs, files):
    return {job.name: job.expect(files) for job in jobs}


def check_table(workloads, seed, jobs, files):
    """Expected counts for the jobs.  At the default seed they come from the
    committed table, and the counts computed now must agree with it."""
    computed = expected_counts(jobs, files)
    if seed != DEFAULT_SEED:
        return computed, []
    with open(EXPECTED_TABLE, encoding="utf-8") as fh:
        table = {k: int(v) for k, v in json.load(fh)["counts"].items()}
    drift = [name for name in computed if table.get(name) != computed[name]]
    return {name: table.get(name, computed[name]) for name in computed}, drift


def write_expected(workloads):
    table = {}
    for jobs in workloads.WORKLOADS.values():
        files = workloads.make_files(DEFAULT_SEED, workloads.files_of(jobs))
        table.update({k: str(v) for k, v in expected_counts(jobs, files).items()})
    with open(EXPECTED_TABLE, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "counts": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics


def scaled(seconds, calibration):
    """A time scaled to the reference speed by the calibration around it."""
    return seconds * REFERENCE_CALIBRATION_S / calibration


def end_to_end(untraced, setups):
    """Job times scaled to the reference speed, each job at its median over
    the passes; set-up at its median over the set-ups.

    On a shared host the same job runs up to 1.6x slower while a neighbour
    is busy, in spells of seconds to many minutes: raw medians of the same
    code moved by a fifth between two sets of runs.  Each job is therefore
    bracketed by calibrations and its time scaled by their mean; the raw
    times stay in the run record.
    """
    per_job = {}
    for recs, _ in untraced:
        for r in recs:
            per_job.setdefault(r["job"], []).append(scaled(r["wall_s"], r["calibration_s"]))
    times = [statistics.median(v) for v in per_job.values()]
    return {
        "wall_s": (sum(times), "s"),
        "job_geomean_s": (math.exp(statistics.fmean(math.log(max(t, 1e-9)) for t in times)), "s"),
        "peak_rss_mb": (max(r.get("peak_rss_mb", 0.0) for recs, _ in untraced for r in recs),
                        "MiB"),
        "setup_s": (statistics.median(scaled(t, c) for t, c in setups), "s"),
    }


def layer_metrics(recs):
    """Per-layer metrics of one traced pass: span sums over its jobs."""
    calls, secs, nonzero, counters = {}, {}, {}, {}
    for rec in recs:
        tr = rec.get("trace") or {}
        for total, part in ((calls, tr.get("calls", {})), (secs, tr.get("secs", {})),
                            (nonzero, tr.get("nonzero", {})),
                            (counters, tr.get("counters", {}))):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
    c = lambda k: calls.get(k, 0)
    s = lambda k: secs.get(k, 0.0)
    imports = [rec["trace"]["import_s"] for rec in recs if rec.get("trace")]
    m = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.main_s": sum(rec["trace"]["main_s"] for rec in recs if rec.get("trace")),
        "fileio.read_graph.s": s("fileio.read_graph"),
        "fileio.read_graph.calls": c("fileio.read_graph"),
        "graphs.min_vertex_cover.s": s("graphs.min_vertex_cover"),
        "graphs.min_vertex_cover.calls": c("graphs.min_vertex_cover"),
        "vc.s": s("vc"),
        "vc.count_emb_vc.s": s("vc.count_emb_vc"),
        "vc.count_emb_vc.calls": c("vc.count_emb_vc"),
        "vc.anchors": c("vc.placement"),
        "vc.anchors_useful_frac": nonzero.get("vc.placement", 0) / max(c("vc.placement"), 1),
        "vc.placement_s": s("vc.placement"),
        "vc.anchor_loop_s": s("vc.count_emb_vc") - s("vc.placement"),
        "brute.s": s("brute"),
        "brute.calls": c("brute"),
    }
    for fn in ("count_embeddings", "count_matchings", "count_colorful_matchings",
               "count_walk_patterns", "automorphism_count"):
        m[f"brute.{fn}.s"] = s(f"brute.{fn}")
        m[f"brute.{fn}.calls"] = c(f"brute.{fn}")
    m.update({
        "iex.s": s("iex"),
        "iex.oracle_calls": c("iex.oracle"),
        "iex.self_s": s("iex") - s("iex.oracle"),
        "gadgets.s": s("gadgets"),
        "gadgets.check_s": s("gadgets.check"),
        "gadgets.T_ell_s": s("gadgets.T_ell"),
        "gadgets.T_ell.calls": c("gadgets.T_ell"),
        "gadgets.oracle_calls": c("gadgets.oracle"),
        "gadgets.oracle_s": s("gadgets.oracle"),
        "gadgets.T_ell_self_s": s("gadgets.T_ell") - s("gadgets.oracle"),
        "gadgets.interpolate_s": s("gadgets.reduce>polynomials.interpolate"),
        "gadgets.alpha_s": s("gadgets.alpha"),
        "hardness.s": s("hardness"),
        "hardness.pst_s": s("hardness.pst"),
        "hardness.pst_builds": counters.get("hardness.pst.misses", 0),
        "hardness.census_s": s("hardness.census"),
        "hardness.census_types": counters.get("hardness.census_types", 0),
        "hardness.census_size": counters.get("hardness.census_size", 0),
        "hardness.queries": c("hardness.query"),
        "hardness.query_s": s("hardness.query"),
        "hardness.query_loop_self_s": (s("hardness.colmatch") - s("hardness.colmatch>hardness.build")
                                       - s("hardness.colmatch>hardness.solve")
                                       - s("hardness.query")),
        "hardness.solve_s": s("hardness.solve"),
        "hardness.cycles_s": s("hardness.cycles"),
        "polynomials.s": s("polynomials"),
        "polynomials.interpolate_s": s("polynomials.interpolate"),
        "polynomials.solve_s": s("polynomials.solve"),
        "polynomials.det_s": s("polynomials.det"),
    })
    return m


# the modules at the time the benchmark was defined; a later module is
# counted in src.loc only, a deleted one reads 0
MODULES = ("__init__", "brute", "cli", "fileio", "gadgets", "graphs", "hardness",
           "iex", "polynomials", "structural", "vc")


def line_counts():
    pkg = os.path.join(SRC, "subcount")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    counts = {f"{m.strip('_')}.loc": lines.get(m, 0) for m in MODULES}
    counts["src.loc"] = sum(lines.values())
    return counts


def per_layer(untraced, traced, startup):
    """Medians over the traced passes of the per-pass layer metrics."""
    per_pass = [layer_metrics(recs) for recs, _ in traced]
    m = {}
    for key in per_pass[0]:
        unit = ("s" if key.endswith(("_s", ".s")) else "1" if key.endswith("_frac")
                else "count")
        m[key] = (statistics.median(p[key] for p in per_pass), unit)
    m["cli.startup_s"] = (statistics.median(startup), "s")
    m.update((key, (value, "lines")) for key, value in line_counts().items())
    # pass times scaled like the end-to-end ones, so host speed cancels out
    plain, slow = (statistics.median(sum(scaled(r["wall_s"], r["calibration_s"]) for r in recs)
                                     for recs, _ in passes)
                   for passes in (untraced, traced))
    m["bench.trace_overhead_frac"] = ((slow - plain) / plain, "1")
    return m


# ---------------------------------------------------------------------------


def environment(args):
    head = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or head
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "git_head": head, "started": time.strftime("%Y-%m-%dT%H:%M:%S")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help=f"rewrite the expected counts for seed {DEFAULT_SEED} and exit")
    args = parser.parse_args()
    # a terminated run still stops the launcher, which kills and reaps the
    # job it is running
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    # this process, its calibrations and every child share one CPU, so a
    # calibration measures the speed the jobs around it ran at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "subcount", "cli.py")):
        sys.exit(f"bench: no subcount sources under {SRC}")
    os.makedirs(WORK, exist_ok=True)
    if args.write_expected:
        write_expected(load_workloads())
        return
    launcher = Launcher()
    try:
        run(parser, args, launcher)
    finally:
        launcher.close()


def load_workloads():
    sys.pycache_prefix = os.path.join(WORK, "pycache-bench")
    sys.path.insert(0, SRC)
    import workloads
    return workloads


def run(parser, args, launcher):
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    meta = environment(args)
    jobs = workloads.WORKLOADS[args.workload]

    setups = []   # (seconds, mean calibration around them)
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        files = set_up(launcher, workloads, args.seed, jobs)
        seconds = time.perf_counter() - t0
        after = calibrate()
        setups.append((seconds, (before + after) / 2))
        before = after
    expected, drift = check_table(workloads, args.seed, jobs, files)

    runner = Runner(launcher, jobs, expected, args.seconds)
    if args.trace:
        startup = [launcher.run(python_cmd("-m", "subcount.cli", "--help"), runner.env,
                                min(JOB_TIMEOUT_S, remaining()), f"help{i}")[0]
                   for i in range(HELP_REPEATS)]
        done = runner.passes([False, True])
        metrics = per_layer(done[False], done[True], startup)
        # the trace must not change an answer
        counts = {}
        for rec in runner.records:
            counts.setdefault(rec["job"], set()).add(rec.get("count"))
        unstable = sorted(job for job, seen in counts.items() if len(seen) > 1)
    else:
        done = runner.passes([False])
        metrics = end_to_end(done[False], setups)
        unstable = []

    failed = sum(not rec["ok"] for rec in runner.records)
    correct = failed == 0 and not drift and not unstable
    summary = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record = dict(meta, correct=correct, attempted=len(runner.records), failed=failed,
                  failed_frac=failed / max(len(runner.records), 1),
                  table_drift=drift, traced_count_mismatch=unstable, metrics=summary,
                  setups=setups, pass_walls={
                      "traced" if kind else "untraced": [wall for _, wall in passes]
                      for kind, passes in done.items()},
                  jobs=[{k: v for k, v in rec.items() if k != "trace"}
                        for rec in runner.records])
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                 f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for rec in runner.records:
        if not rec["ok"]:
            print(f"bench: FAILED {rec['job']} (pass {rec['pass']}): exit {rec['exit_code']}, "
                  f"count {rec.get('count')}, expected {rec['expected']}", file=sys.stderr)
    for name in drift:
        print(f"bench: {name}: computed count differs from {EXPECTED_TABLE}", file=sys.stderr)
    for name in unstable:
        print(f"bench: {name}: traced and untraced counts differ", file=sys.stderr)
    print(f"bench: record written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(runner.records), "failed": failed,
                      "metrics": summary}))


if __name__ == "__main__":
    main()
