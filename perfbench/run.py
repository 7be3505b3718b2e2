#!/usr/bin/env python3
"""Sparsepipe repository benchmark.

    python3 perfbench/run.py --workload grid_cold|sweep_warm|serve_closed \
        --seed N --seconds S --trace 0|1

Builds the workload program (perfbench/CMakeLists.txt) into .bench_build/
at the checkout root, then:

--trace 0  starts fresh workload processes one after another until
           --seconds have passed (at least MIN_PROCESSES), and reports
           every end-to-end metric of BENCHMARK.json: medians across the
           processes for the times and memory, percentiles of the pooled
           per-operation latencies, and the paper-fidelity errors.
--trace 1  runs MIN_PROCESSES untraced processes and one traced one and
           reports every per-layer metric of BENCHMARK.json from the
           traced one; trace_overhead_pct compares its timed phase with
           the untraced median.

Once the workload processes have run, the last line of stdout is one
JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A failed check, a declared metric the run did not produce among them,
makes "correct" false.  The exit code is 0 only when every check
passed; a build failure, crash or timeout exits 1 with no result
line.  Output files (the metrics-v1 dumps of every simulated counter
and the Chrome traces) go to .bench_out/.  perfbench/README.md has the
details.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_BIN = os.path.join(BUILD_DIR, "perfbench_workload")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("grid_cold", "sweep_warm", "serve_closed")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
MIN_PROCESSES = 3
MAX_PROCESSES = 15
PROCESS_TIMEOUT_S = 150
# Workers of the untimed grid process that gives the non-grid
# workloads their fid_* values.
FIDELITY_JOBS = 4

# The per-layer metrics each workload reaches: its traced record's
# layer times and simulated counters, and the ones layer_values derives.
# Every other per-layer name of BENCHMARK.json reads 0 for it; a reached
# one that a run does not report fails the run.
PREPARE_LAYERS = ("sparse.generate_ms", "prep.reorder_ms",
                  "apps.prepare_ms", "sparse.csc_twin_ms", "prep.blocked_ms")
SIMULATE_LAYERS = ("lang.bind_ms", "core.sim_ms", "core.host_ns_per_elem",
                   "core.cycles", "obs.attr.compute",
                   "obs.attr.dram_read_stall", "obs.attr.dram_write_drain",
                   "obs.attr.buffer_swap_wait", "mem.read_bytes",
                   "mem.write_bytes", "buffer.reload_bytes",
                   "buffer.prefetch_bytes", "backend.gamma_cycles")
PREPARED_CACHE = ("api.prepared.hits", "api.prepared.misses",
                  "api.prepared.evictions")
ACCOUNTING = ("other_ms", "trace_overhead_pct")
REACHED = {
    "grid_cold": PREPARE_LAYERS + SIMULATE_LAYERS + PREPARED_CACHE +
    ACCOUNTING + ("baseline.models_ms", "runner.queue_wait_ms"),
    "sweep_warm": PREPARE_LAYERS + SIMULATE_LAYERS + PREPARED_CACHE +
    ACCOUNTING + ("backend.gamma_sim_ms", "explore.other_ms"),
    "serve_closed": PREPARE_LAYERS + SIMULATE_LAYERS + PREPARED_CACHE +
    ACCOUNTING + ("serve.server_ms_p50", "serve.transport_ms_p50",
                  "serve.sim_runs", "serve.coalesced_pct",
                  "serve.shed_total"),
}


class BenchError(Exception):
    """The benchmark itself could not run (build, crash, timeout)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks.

    Matches statistics.quantiles(..., method="inclusive") at its cut
    points; a single value is its own every percentile.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def check_names(emitted, spec, key):
    """Problems with the emitted metric names against BENCHMARK.json[key]:
    each name must be declared there, well formed, and every declared
    name must be emitted."""
    declared = [m["name"] for m in spec[key]]
    problems = []
    for name in sorted(set(emitted) - set(declared)):
        problems.append("emitted %s is not in BENCHMARK.json %s" % (name, key))
    for name in declared:
        if name not in emitted:
            problems.append("BENCHMARK.json %s %s was not emitted"
                            % (key, name))
        if not NAME_RE.match(name):
            problems.append("metric name %r is malformed" % name)
    return problems


def build():
    os.makedirs(OUT_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                  "--target", "perfbench_workload"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


def run_process(workload, seed, traced=False, jobs=None):
    """One fresh workload process; returns its JSON record."""
    cmd = [WORKLOAD_BIN, "--workload", workload, "--seed", str(seed),
           "--out-dir", OUT_DIR]
    if traced:
        cmd.append("--trace")
    if jobs:
        cmd += ["--jobs", str(jobs)]
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s process timed out" % workload)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError("%s process exited %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s process printed nothing" % workload)
    return json.loads(lines[-1])


class Tally:
    """Operations attempted / passed and the failures behind them."""

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.problems = []

    def add_record(self, record):
        self.attempted += record["attempted"]
        self.passed += record["passed"]
        self.problems += record["failures"]

    def require(self, ok, problem):
        """A consistency check of the run as a whole; counts as one
        operation."""
        self.attempted += 1
        if ok:
            self.passed += 1
        else:
            self.problems.append(problem)

    @property
    def correct(self):
        return self.passed == self.attempted


def same_across(records, key):
    return len({json.dumps(r[key], sort_keys=True) for r in records}) == 1


def fidelity_of(workload, seed, records, tally):
    """fid_* for a run: from the grid processes themselves on grid_cold,
    else from one untimed grid process at the same seed."""
    if workload != "grid_cold":
        grid = run_process("grid_cold", seed, jobs=FIDELITY_JOBS)
        tally.add_record(grid)
        records = [grid]
    tally.require(same_across(records, "fidelity"),
                  "fidelity differs between processes of one seed")
    return records[0]["fidelity"], records[0]["headlines"]


def end_to_end(workload, seed, seconds, tally):
    records = []
    started = time.monotonic()
    while len(records) < MIN_PROCESSES or (
            len(records) < MAX_PROCESSES and
            time.monotonic() - started +
            (time.monotonic() - started) / len(records) <= seconds):
        records.append(run_process(workload, seed))
    for r in records:
        tally.add_record(r)
    tally.require(same_across(records, "sim_digest"),
                  "simulated-stats digest differs between processes")
    fidelity, headlines = fidelity_of(workload, seed, records, tally)

    lat = [x for r in records for x in r["lat_ms"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "cpu_s": statistics.median(r["cpu_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "ok_pct": 100.0 * tally.passed / max(tally.attempted, 1),
        "lat_p50_ms": percentile(lat, 50) if lat else 0.0,
        "lat_p90_ms": percentile(lat, 90) if lat else 0.0,
    }
    values.update(fidelity)

    log("%s seed %s: %d processes, %d operations, %d latency samples "
        "(%d beyond p90), sim digest %s"
        % (workload, seed, len(records), tally.attempted, len(lat),
           len(lat) - int(0.9 * len(lat)), records[0]["sim_digest"]))
    for key in ("setup_s", "wall_s", "cpu_s", "user_s", "sys_s",
                "peak_rss_mb"):
        log("  %-12s per process: %s"
            % (key, " ".join("%.4g" % r.get(key, r["info"].get(key, 0))
                             for r in records)))
    for fig, measured in sorted(headlines.items()):
        log("  %s headline %.2f, %.2f%% from the paper"
            % (fig, measured, fidelity["fid_%s_err_pct" % fig]))
    return values, "end_to_end"


def layer_values(untraced_runs, traced):
    """The per-layer metrics a traced run produced: the traced record's
    layer times and simulated counters, plus those derived from it and
    the untraced runs beside it.  A metric whose source is missing is
    left out, not zeroed."""
    values = dict(traced["layers"])
    elems = traced["info"].get("core.elems")
    if elems and "core.sim_ms" in values:
        values["core.host_ns_per_elem"] = 1e6 * values["core.sim_ms"] / elems
    for key in PREPARED_CACHE:
        if key in untraced_runs[0]["info"]:
            values[key] = untraced_runs[0]["info"][key]
    for name in ("serve.server_ms", "serve.transport_ms"):
        samples = traced["samples"].get(name)
        if samples:
            values[name + "_p50"] = percentile(samples, 50)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced_runs)
    values["trace_overhead_pct"] = (
        100.0 * (traced["wall_s"] - untraced_wall) / untraced_wall)
    return values


def fill_unreached(values, workload, spec):
    """Set every per-layer metric the workload does not reach to 0."""
    for m in spec["per_layer"]:
        if m["name"] not in REACHED[workload]:
            values.setdefault(m["name"], 0.0)
    return values


def per_layer(workload, seed, spec, tally):
    untraced_runs = [run_process(workload, seed)
                     for _ in range(MIN_PROCESSES)]
    traced = run_process(workload, seed, traced=True)
    for r in untraced_runs + [traced]:
        tally.add_record(r)
    tally.require(same_across(untraced_runs + [traced], "sim_digest"),
                  "simulated-stats digest differs between the untraced "
                  "and traced runs")
    values = fill_unreached(layer_values(untraced_runs, traced), workload,
                            spec)

    busy = traced["info"]["busy_ms"]
    covered = traced["info"]["accounted_ms"]
    tally.require(abs(covered - busy) <= 0.01 * busy,
                  "layer self times + other_ms = %.1f ms, busy time %.1f ms"
                  % (covered, busy))
    log("%s seed %s traced: busy %.1f ms = layers + other_ms %.1f ms; "
        "trace in %s" % (workload, seed, busy, covered,
                         os.path.join(OUT_DIR, workload + ".trace.json")))
    return values, "per_layer"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        spec = load_spec()
        build()
        tally = Tally()
        if args.trace:
            values, key = per_layer(args.workload, args.seed, spec, tally)
        else:
            values, key = end_to_end(args.workload, args.seed, args.seconds,
                                     tally)
    except (BenchError, OSError, ValueError, KeyError) as err:
        log("perfbench: %s" % err)
        return 1

    # A declared metric the run did not produce (a failed grid case
    # leaves no fid_* values) fails the run like any other check; the
    # result line still follows, with the metrics that were produced.
    for problem in check_names(values, spec, key):
        tally.require(False, problem)
    units = {m["name"]: m["unit"] for m in spec[key] if m["name"] in values}
    for name in units:
        log("  %-28s %14.6g %s" % (name, values[name], units[name]))
    for problem in tally.problems:
        log("CHECK FAILED: " + problem)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.passed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
