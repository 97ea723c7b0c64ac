#!/usr/bin/env python3
"""Host-performance benchmark of the Bumblebee simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call builds perfbench/ (and with it
the simulator sources in src/) into .bench_build/. One run then repeats the
workload in fresh processes for about S seconds and prints every metric by
name with its unit. With --trace 0 the last line carries the end-to-end
metrics of the untraced repetitions: times are the fastest repetition, set-up
and memory the median. With --trace 1 it carries the per-layer metrics of one
extra run with the bb::prof phase timers on. See perfbench/README.md for the
workloads, metrics and checks.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "bb_perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
# Compilers and children keep their temporary files inside the checkout, and
# no BB_* override (such as BB_SIM_SCALE) reaches the simulator.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict({k: v for k, v in os.environ.items() if not k.startswith("BB_")},
           TMPDIR=TMP_DIR)

# Cells per repetition of each workload.
WORKLOADS = {"paper_matrix": 224, "dramonly_replay": 1}
# Untraced rounds of a single-cell workload start this many copies at once,
# one per CPU (fewer if fewer are available), for four times the samples
# per run. paper_matrix already keeps four workers busy and runs alone.
MAX_COPIES = 4
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
# With --trace 1 this share of --seconds goes to untraced repetitions (the
# overhead baseline); the traced run takes the rest.
TRACE_REP_SHARE = 0.5

END_TO_END = [
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("sim_mips", "Minst/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_frac", "ratio", "higher"),
]

_FIG7 = ["C-Only", "M-Only", "25pct-C", "50pct-C", "No-Multi", "Meta-H",
         "Alloc-D", "Alloc-H", "No-HMF", "Bumblebee"]
_LEN = "len2pct"  # kMatrixLenPct in perfbench.cpp

PER_LAYER = [
    # Host time and work counts from the traced run.
    ("trace.self_s", "s", "lower"),
    ("trace.records", "count", "lower"),
    ("trace.ns_per_record", "ns", "lower"),
    ("trace.validate_s", "s", "lower"),
    ("hmm.self_s", "s", "lower"),
    ("hmm.requests", "count", "lower"),
    ("hmm.ns_per_request", "ns", "lower"),
    ("hmm.paging_s", "s", "lower"),
    ("hmm.paging_ns_per_touch", "ns", "lower"),
    ("policy.self_s", "s", "lower"),
    ("mem.self_s", "s", "lower"),
    ("mem.accesses", "count", "lower"),
    ("mem.ns_per_access", "ns", "lower"),
    ("sim.core_self_s", "s", "lower"),
    ("sim.stats_commit_s", "s", "lower"),
    ("matrix.cells", "count", "higher"),
    ("matrix.cpu_util", "ratio", "higher"),
    ("setup.design_s", "s", "lower"),
    ("setup.trace_s", "s", "lower"),
    ("prof.overhead_frac", "ratio", "lower"),
    # Exact simulated statistics (checked, never scored).
    ("sim.requests", "count", "higher"),
    ("sim.ipc", "inst/cycle", "higher"),
    ("hmm.hbm_serve_rate", "ratio", "higher"),
    ("hmm.overfetch", "ratio", "lower"),
    ("hmm.page_faults", "count", "lower"),
    ("hmm.migrations", "count", "lower"),
    ("hmm.evictions", "count", "lower"),
    ("hmm.mode_switches", "count", "lower"),
    ("hmm.swaps", "count", "lower"),
    ("mem.beats", "count", "lower"),
    ("mem.hbm_bytes", "B", "lower"),
    ("mem.dram_bytes", "B", "lower"),
    ("mem.fill_bytes", "B", "lower"),
    ("mem.writeback_bytes", "B", "lower"),
    ("mem.migration_bytes", "B", "lower"),
    ("mem.metadata_bytes", "B", "lower"),
    ("mem.hbm_row_hit_rate", "ratio", "higher"),
    ("mem.dram_row_hit_rate", "ratio", "higher"),
]
# Paper comparison at the reduced run length (paper_matrix only).
for _d in _FIG7:
    _k = "paper.fig7_%s.%s" % (_LEN, _d)
    PER_LAYER += [(_k + ".speedup", "x", "higher"),
                  (_k + ".ref", "x", "higher"),
                  (_k + ".err", "ratio", "lower")]
_k = "paper.fig8a_%s.Bumblebee" % _LEN
PER_LAYER += [(_k + ".all_speedup", "x", "higher"),
              (_k + ".all_speedup_ref", "x", "higher"),
              (_k + ".margin", "ratio", "higher"),
              (_k + ".margin_ref", "ratio", "higher")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; exits 2 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=ENV).returncode != 0:
                break
        else:
            return
    # A failed configure must not leave a cache that skips it next time.
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        os.remove(cache)
    with open(log_path) as f:
        log("perfbench: build failed:\n" + "".join(f.readlines()[-30:]))
    sys.exit(2)


def finish(proc, mode, deadline):
    """Waits for one bb_perfbench process; returns (returncode, report or
    None). Kills it at the deadline."""
    try:
        out, err = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s timed out" % mode)
        return 1, None
    if proc.returncode != 0:
        log("perfbench: %s exited %d: %s" % (mode, proc.returncode,
                                             err.strip()[-2000:]))
        return proc.returncode, None
    lines = out.strip().splitlines()
    try:
        return 0, json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: %s printed no report" % mode)
        return 1, None


def children(mode, workload, seed, work, copies, *extra):
    """Runs `copies` bb_perfbench processes at once; returns one
    (returncode, report or None) per process. None outlives the call."""
    cmd = [BINARY, mode, "--workload=" + workload, "--seed=%d" % seed,
           "--work=" + work] + list(extra)
    procs = []
    try:
        for _ in range(copies):
            procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE, text=True,
                                          env=ENV))
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        return [finish(p, mode, deadline) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def child(mode, workload, seed, work, *extra):
    return children(mode, workload, seed, work, 1, *extra)[0]


def run_reps(workload, seed, work, budget_s, copies):
    """Untraced rounds of `copies` repetitions for about budget_s seconds
    (at least MIN_ROUNDS)."""
    reps, codes = [], []
    start = time.monotonic()
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or time.monotonic() - start + last <= budget_s:
        t0 = time.monotonic()
        for code, rep in children("rep", workload, seed, work, copies):
            codes.append(code)
            if rep is not None:
                reps.append(rep)
        rounds += 1
        last = time.monotonic() - t0
    return reps, codes


def cell_failures(report, reference_digest, cells):
    """Failed cells of one report: a failed output check fails the cells it
    names, a digest mismatch or a short matrix fails them all."""
    if report["sim_digest"] != reference_digest or report["cells"] != cells:
        return cells
    return min(cells, len(report["failures"]))


def assess(workload, reps, codes, traced=None):
    """Counts attempted and failed cells; returns (attempted, failed, notes)."""
    cells = WORKLOADS[workload]
    runs = len(codes) + (traced is not None)
    attempted = cells * runs
    failed = cells * sum(1 for c in codes if c != 0)
    notes = []
    reports = reps + ([traced] if traced and "sim_digest" in traced else [])
    if traced is not None and "sim_digest" not in traced:
        failed += cells
        notes.append("traced run failed")
    if reports:
        digests = [r["sim_digest"] for r in reports]
        reference = statistics.mode(digests)
        if len(set(digests)) > 1:
            notes.append("sim_digest differs across runs: %s" %
                         sorted(set(digests)))
        for r in reports:
            failed += cell_failures(r, reference, cells)
            notes.extend(r["failures"])
    return attempted, failed, notes


def end_to_end(reps, ok_frac):
    """Times come from the fastest repetition, because a busy shared host
    only ever slows a repetition down; set-up and memory are medians."""
    m = {
        "wall_s": min(r["wall_s"] for r in reps),
        "cpu_s": min(r["cpu_s"] for r in reps),
        "sim_mips": max(r["sim_instructions"] / r["wall_s"] / 1e6
                        for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": ok_frac,
    }
    return {n: {"value": m[n], "unit": u} for n, u, _ in END_TO_END}


def per_layer(workload, reps, traced):
    m = dict(traced["metrics"])
    fastest = min(reps, key=lambda r: r["wall_s"])
    m["prof.overhead_frac"] = traced["traced_run_s"] / fastest["wall_s"] - 1.0
    workers = fastest["build"]["workers"]
    m["matrix.cpu_util"] = (fastest["cpu_s"] / (workers * fastest["wall_s"])
                            if workload == "paper_matrix" else 0.0)
    for k in [k for k in m if k.endswith(".err")]:
        m[k] = abs(m[k])
    missing = [n for n, _, _ in PER_LAYER if n not in m]
    if missing:
        raise KeyError("traced run lacks metrics %s" % missing)
    return {n: {"value": m[n], "unit": u} for n, u, _ in PER_LAYER}


def print_table(title, metrics):
    print(title)
    for name, v in metrics.items():
        print("  %-44s %20.6f %s" % (name, v["value"], v["unit"]))


def measure(args):
    build()
    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        extra = ["--probe-streams"] if args.trace else []
        code, _ = child("prepare", args.workload, args.seed, work, *extra)
        if code != 0:
            return 1
        rep_budget = args.seconds * (TRACE_REP_SHARE if args.trace else 1.0)
        # The overhead baseline runs alone, like the traced run it is for.
        copies = 1
        if not args.trace and WORKLOADS[args.workload] == 1:
            copies = min(MAX_COPIES, len(os.sched_getaffinity(0)))
        reps, codes = run_reps(args.workload, args.seed, work, rep_budget,
                               copies)
        traced = None
        if args.trace:
            _, traced = child("traced", args.workload, args.seed, work)
            traced = traced or {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not reps:
        log("perfbench: no repetition completed")
        return 1

    attempted, failed, notes = assess(args.workload, reps, codes, traced)
    for n in notes:
        log("perfbench: check failed: " + n)
    build_info = reps[0]["build"]
    print("workload %s seed %d: %d repetitions (%d at once), %d cells "
          "attempted, %d failed (failed_frac %.6f), sim_digest %s" %
          (args.workload, args.seed, len(codes), copies, attempted, failed,
           failed / attempted, reps[0]["sim_digest"]))
    print("build " + json.dumps(build_info, sort_keys=True))
    if args.trace:
        metrics = per_layer(args.workload, reps, traced) if traced else {}
        print_table("per-layer (traced run; paper.* at 2% of Fig 8 length, "
                    "unscored):", metrics)
    else:
        metrics = end_to_end(reps, 1.0 - failed / attempted)
        print_table("end-to-end (untraced; of %d repetitions, times are the "
                    "fastest, set-up and memory the median):" % len(reps),
                    metrics)
    result = {"correct": failed == 0 and not notes and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def self_test():
    """Every check trips on a seeded bad result."""
    build()
    proc = subprocess.run([BINARY, "self-test"], stdout=subprocess.PIPE,
                          text=True, env=ENV)
    print(proc.stdout, end="")
    bad = int(proc.returncode != 0)

    def expect(ok, what):
        nonlocal bad
        print(("ok    " if ok else "FAIL  ") + what)
        bad += not ok

    good = {"sim_digest": "aa", "cells": 224, "failures": []}
    reps = [dict(good) for _ in range(3)]
    expect(assess("paper_matrix", reps, [0, 0, 0]) == (672, 0, []),
           "three agreeing repetitions pass")
    odd = [dict(good), dict(good), dict(good, sim_digest="bb")]
    att, failed, notes = assess("paper_matrix", odd, [0, 0, 0])
    expect(failed == 224 and notes, "a digest mismatch fails that run's cells")
    _, failed, notes = assess("paper_matrix", reps, [0, 0, 0],
                              dict(good, sim_digest="bb"))
    expect(failed == 224 and notes, "a traced digest mismatch fails its cells")
    short = [dict(good), dict(good, cells=223)]
    expect(assess("paper_matrix", short, [0, 0])[1] == 224,
           "a short matrix fails its cells")
    flagged = [dict(good, failures=["x/y: no requests served"])]
    expect(assess("paper_matrix", flagged, [0])[1] == 1,
           "a failed output check fails its cell")
    expect(assess("dramonly_replay", [], [4, 4, 4])[1] == 3,
           "a crashed repetition fails its cells")
    _, failed, notes = assess("dramonly_replay", [dict(good, cells=1)], [0],
                              {})
    expect(failed == 1 and notes, "a crashed traced run fails its cells")
    closure = dict(good, cells=1,
                   failures=["layer accounting exceeds its reference by 0.1 s"])
    expect(assess("dramonly_replay", [dict(good, cells=1)], [0],
                  closure)[1] == 1,
           "a negative layer remainder fails the traced run")

    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            declared = json.load(f)
        expect([(m["name"], m["unit"], m["better"])
                for m in declared["end_to_end"]] == END_TO_END and
               [(m["name"], m["unit"], m["better"])
                for m in declared["per_layer"]] == PER_LAYER and
               sorted(w["name"] for w in declared["workloads"]) ==
               sorted(WORKLOADS),
               "BENCHMARK.json declares exactly the metrics run.py prints")
    print("self-test: %s" % ("ok" if bad == 0 else "%d failed" % bad))
    return 0 if bad == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
