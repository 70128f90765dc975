"""fatcat benchmark: CLI time to a checked verdict, peak memory and set-up
time on four named workloads, plus a layer trace taken from outside.

    python3 bench/run.py --workload stage-ladder --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark generates the workload's inputs
from ``--seed`` (``bench/workloads.py``), then runs the workload's ``fatcat``
command lines as child processes, one at a time (closed loop, concurrency
1), in passes until ``--seconds`` have elapsed.  Every output is checked
against an expectation computed without the program (``bench/checks.py``);
a failed check, a wrong exit code or a timeout fails the case and the pass
goes on.

With ``--trace 0`` it reports:

* ``wall_s``: wall time of one pass, summed over its child processes, where
  each case counts with its fastest pass of the run;
* ``peak_rss_mb``: the median over passes of the largest peak RSS of any
  child of the pass, read with ``wait4`` by ``bench/launch.py``;
* ``setup_s``: the median wall time of ``fatcat nerve --input <first input>
  --D 0``, the fixed cost of every CLI call, sampled before and between
  the passes.

``failed_frac`` (failed cases / attempted cases) is printed by name and
given in the result's ``failed`` and ``attempted`` fields.  With
``--trace 1`` every case runs twice, untraced and under ``bench/tracer.py``,
and the run reports the per-layer metrics of ``tracer.PER_LAYER``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs the four
workloads in turn and prints each one's metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stage-ladder", "fiber-sweep", "classify-sweep", "report-all")
SETUP_SAMPLES = 5
# No child may outlive this many seconds after the benchmark started, so a
# run ends within its 180 s limit even when cases hang.
RUN_DEADLINE_S = 170.0

# The child environment is built from these alone, so the caller's shell
# cannot change which cases are refused or how hashing orders sets.
PINNED_ENV = {
    "FATCAT_MAX_CELLS": "20000",
    "PYTHONHASHSEED": "0",
    "PYTHONNOUSERSITE": "1",
    "PYTHONPATH": "src",
}

Child = namedtuple("Child", "code wall cpu rss_mb stdout stderr timed_out")


class Runner:
    """Runs children with the pinned environment inside one work directory,
    enforcing per-case timeouts and the run deadline."""

    def __init__(self, work, started):
        self.work = work
        self.deadline = started + RUN_DEADLINE_S
        self.env = dict(PINNED_ENV, PYTHONPATH=os.path.join(ROOT, "src"))

    def run(self, args, timeout):
        """Run ``python ARGS`` through ``launch.py`` and collect the result."""
        timeout = min(timeout, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Child(None, 0.0, 0.0, 0.0, "", "", True)
        out, err, result = (
            os.path.join(self.work, name) for name in ("stdout", "stderr", "result")
        )
        launcher = [sys.executable, "-I", "-S", os.path.join(HERE, "launch.py"),
                    str(timeout), out, err, sys.executable] + args
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        pid = os.posix_spawn(
            sys.executable, launcher, self.env,
            file_actions=[(os.POSIX_SPAWN_OPEN, 1, result, write, 0o600)],
            setpgroup=0,
        )
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.killpg(pid, signal.SIGKILL)  # the launcher and its child
            os.waitpid(pid, 0)
            raise
        if status:
            raise RuntimeError(f"launch.py failed with wait status {status}")
        with open(result, encoding="utf-8") as fh:
            done = json.load(fh)
        with open(out, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Child(done["code"], done["wall"], done["cpu"], done["maxrss_kb"] / 1024.0,
                     stdout, stderr, done["timed_out"])

    def cli(self, case):
        return self.run(["-m", "fatcat.cli"] + case["argv"], case["timeout"])

    def traced(self, case, spans):
        script = os.path.join(HERE, "tracer.py")
        return self.run([script, spans] + case["argv"], case["timeout"])


def failure(case, child):
    """Why a finished case failed, or None."""
    if child.timed_out:
        return f"timeout after {case['timeout']} s"
    return checks.check(case["expect"], child.code, child.stdout, child.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Tally:
    """Attempted and failed cases of a run, with the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, reason):
        self.attempted += 1
        if reason:
            self.failures.append(f"{name}: {reason}")
            print(f"# FAILED {name}: {reason}", flush=True)


def untraced_pass(runner, cases, tally):
    walls = {}
    peak = 0.0
    for case in cases:
        child = runner.cli(case)
        tally.record(case["name"], failure(case, child))
        walls[case["name"]] = child.wall
        peak = max(peak, child.rss_mb)
    return {"wall_s": sum(walls.values()), "peak_rss_mb": peak, "cases": walls}


def traced_pass(runner, cases, tally):
    children = []
    spans = os.path.join(runner.work, "spans.json")
    for case in cases:
        plain = runner.cli(case)
        tally.record(case["name"], failure(case, plain))
        traced = runner.traced(case, spans)
        reason = failure(case, traced)
        if not reason and traced.stdout != plain.stdout:
            reason = "traced stdout differs from untraced stdout"
        tally.record(case["name"] + " (traced)", reason)
        if reason:
            continue
        meta, span_list = tracer.read_spans(spans)
        totals = tracer.child_totals(meta, span_list, traced.wall)
        children.append((totals, traced.wall, plain.wall, plain.cpu))
    return tracer.layer_metrics(children)


def run_workload(workload, seed, seconds, trace, work):
    """One run: generate inputs, time set-up, then passes until ``seconds``
    have elapsed.  Returns (tally, metrics as name -> (value, unit))."""
    started = time.perf_counter()
    runner = Runner(work, started)
    gen = runner.run(
        [os.path.join(HERE, "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", work],
        120,
    )
    if gen.code != 0:
        raise SystemExit(f"input generation failed:\n{gen.stderr}")
    with open(os.path.join(work, "cases.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    tally = Tally()
    setup = plan["setup"]
    setup_walls = []

    def sample_setup():
        child = runner.cli(setup)
        tally.record("setup", failure(setup, child))
        setup_walls.append(child.wall)

    runner.cli(setup)  # fills the bytecode cache; users pay that once
    for _ in range(SETUP_SAMPLES):
        sample_setup()
    passes = []
    measure_start = time.perf_counter()
    while not passes or time.perf_counter() - measure_start < seconds:
        one = traced_pass if trace else untraced_pass
        passes.append(one(runner, plan["cases"], tally))
        sample_setup()  # spread over the run, so no single slow spell decides
    print(f"# {workload}: seed {seed}, {len(passes)} passes of "
          f"{len(plan['cases'])} cases, trace {int(trace)}", flush=True)

    metrics = {}
    if trace:
        for name, unit in tracer.PER_LAYER:
            metrics[name] = (statistics.median(p[name] for p in passes), unit)
        return tally, metrics
    # A case's fastest pass is its time with the least interference from
    # other tenants of the machine; wall_s sums these over the cases.
    best = {c["name"]: min(p["cases"][c["name"]] for p in passes) for c in plan["cases"]}
    for name, wall in best.items():
        print(f"# case {name}: best wall {wall:.4f} s of {len(passes)} passes", flush=True)
    pass_walls = [p["wall_s"] for p in passes]
    q1, median, q3 = quartiles(pass_walls)
    print(f"{workload:15s} {'pass_wall':12s} {median:10.4f} s     "
          f"q1 {q1:.4f}  q3 {q3:.4f}  n {len(pass_walls)}", flush=True)
    metrics["wall_s"] = (sum(best.values()), "s")
    print(f"{workload:15s} {'wall_s':12s} {metrics['wall_s'][0]:10.4f} s     "
          f"(sum of the best pass of each case)", flush=True)
    for name, unit, values in (
        ("peak_rss_mb", "MB", [p["peak_rss_mb"] for p in passes]),
        ("setup_s", "s", setup_walls),
    ):
        q1, median, q3 = quartiles(values)
        metrics[name] = (median, unit)
        print(f"{workload:15s} {name:12s} {median:10.4f} {unit:5s} "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}", flush=True)
    frac = len(tally.failures) / tally.attempted
    print(f"{workload:15s} {'failed_frac':12s} {frac:10.4f} ratio "
          f"({len(tally.failures)} failed of {tally.attempted} attempted)", flush=True)
    return tally, metrics


def describe(workload, seed, seconds, trace):
    """What a result was measured on."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fatcat")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "env": PINNED_ENV,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fatcat", "cli.py")):
        print("bench: src/fatcat is missing; run from a fatcat checkout",
              file=sys.stderr)
        return 2
    print("# meta " + json.dumps(
        describe(args.workload, args.seed, args.seconds, args.trace),
        sort_keys=True), flush=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = os.path.join(ROOT, ".fatbench")
    os.makedirs(scratch, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        work = tempfile.mkdtemp(prefix=workload + "-", dir=scratch)
        try:
            tally, found = run_workload(
                workload, args.seed, args.seconds, args.trace, work
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += tally.attempted
        failed += len(tally.failures)
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, (value, unit) in found.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    try:
        os.rmdir(scratch)
    except OSError:
        pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
