#!/usr/bin/env python3
"""Build the annoc benchmark, run its workloads, check and report them.

    python3 benchmark/run.py [--workload W] [--seed N] [--trace 0|1]
                             [--smoke] [--runs N] [--out FILE]
                             [--regen [--force]]

Every run of a workload is one process of its own
(build/benchmark/annoc_benchmark). An untraced run measures for
BENCHMARK.json's run_seconds; `--seconds S` is accepted only with that
value. Every metric is printed as
`workload metric value unit`, all runs are written to
build/benchmark/results.json (or --out), and the last line of standard
output is one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
per-layer metrics. A process that aborts (a checker violation does),
fails or times out counts all its jobs as failed; the other workloads
still run. The exit code is non-zero when a correctness gate fails.
benchmark/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build", "benchmark")
BINARY = os.path.join(BUILD_DIR, "annoc_benchmark")
INPUTS = os.path.join(BENCH_DIR, "workloads")
EXPECTED = os.path.join(BENCH_DIR, "expected")
WORKLOADS = ("paper_tables", "fabric_16x16", "frame_idle", "sweep_dse")
PINNED_SEED = 42
# A run's process that is still going after this long is killed, and
# the run counts as failed.
RUN_TIMEOUT_S = 170
# The end-to-end timings: (unit, better). A timed pass gives one
# `wall_s`, `sim_cycles_per_s` and `jobs_per_s` sample, a set-up one
# `setup_s` sample.
TIMINGS = {
    "wall_s": ("s", "lower"),
    "sim_cycles_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
}


class BenchmarkError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build annoc_benchmark; output to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "annoc_benchmark", "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_process(workload, seed, seconds, trace, smoke, inject_abort=False):
    """Run one annoc_benchmark process for at most RUN_TIMEOUT_S.
    Returns (result, jobs): result is None when the process aborted,
    failed or ran out of time; jobs is the job count from its first
    line (1 when it printed none)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--inputs", INPUTS, "--out", BUILD_DIR]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if inject_abort:
        cmd.append("--inject-abort")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        out, why = proc.stdout, f"exited with {proc.returncode}"
        done = proc.returncode == 0
    except subprocess.TimeoutExpired as e:
        out, why, done = e.stdout or "", "killed: out of time", False
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    lines = out.strip().splitlines()
    jobs = 1
    if lines and lines[0].startswith('{"jobs_per_pass"'):
        jobs = json.loads(lines[0])["jobs_per_pass"]
    if done and len(lines) >= 2:
        result = json.loads(lines[-1])
        result["jobs_per_pass"] = jobs
        return result, jobs
    log(f"{workload}: annoc_benchmark {why}")
    return None, jobs


def failed_record(workload, seed, trace, smoke, jobs):
    """The record of a run whose process did not complete: every job of
    it counts as failed."""
    return {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "correct": False, "gates": {"completed": False},
        "attempted": jobs, "failed": jobs, "metrics": {},
        "exact": {"failed_runs": {"value": jobs, "unit": "count"}},
        "extra": {}, "self_seconds": {}, "trace_file": None,
    }


def pooled(passes, key, scaled):
    """One pass's time from all timed passes: the sum over its segments
    of each segment's median over the passes, scaled to the reference
    host's speed or as measured."""
    return sum(statistics.median(p[key][i] * (p["scale"][i] if scaled else 1)
                                 for p in passes)
               for i in range(len(passes[0][key])))


def timing_metrics(raw):
    """The end-to-end metrics of an untraced run. A pass's wall time and
    time in Simulator::run are pooled over the timed passes segment by
    segment (`pooled`); the rates divide a pass's simulated cycles and
    jobs by them; setup_s is the median set-up sample. All are scaled to
    the reference host's speed. Beside each go the same statistic as
    measured, the worst and best single pass (or set-up sample), and the
    sample count; beside them the probe's median time and the host's
    slowdown against the reference (probe / reference). peak_rss_mb is
    read after the warm-up pass."""
    passes, setups = raw["passes"], raw["setups"]
    cycles, jobs = raw["cycles_per_pass"], raw["jobs_per_pass"]

    def rate(n, seconds):
        return n / seconds if seconds else 0.0

    def of_passes(of, scaled):
        """(wall_s, sim_cycles_per_s, jobs_per_s) pooled over `of`."""
        wall = pooled(of, "wall_s", scaled)
        return (wall, rate(cycles, pooled(of, "run_s", scaled)),
                rate(jobs, wall))

    scaled, measured = of_passes(passes, True), of_passes(passes, False)
    singles = [of_passes([p], True) for p in passes]
    setup = [s * k for s, k in zip(setups["setup_s"], setups["scale"])]
    values = {"setup_s": (statistics.median(setup),
                          statistics.median(setups["setup_s"]), setup)}
    for i, name in enumerate(("wall_s", "sim_cycles_per_s", "jobs_per_s")):
        values[name] = (scaled[i], measured[i], [s[i] for s in singles])
    metrics, extra = {}, {}
    for name, (unit, better) in TIMINGS.items():
        value, measured, samples = values[name]
        worst, best = (max, min) if better == "lower" else (min, max)
        metrics[name] = {"value": value, "unit": unit}
        extra[name + ".measured"] = {"value": measured, "unit": unit}
        extra[name + ".worst"] = {"value": worst(samples), "unit": unit}
        extra[name + ".best"] = {"value": best(samples), "unit": unit}
        extra[name + ".samples"] = {"value": len(samples), "unit": "count"}
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
    probe = statistics.median(raw["probe_s"])
    extra["host.probe_s"] = {"value": probe, "unit": "s"}
    extra["host.slowdown"] = {"value": probe / raw["reference_probe_s"],
                              "unit": "x"}
    return metrics, extra


def run_leg(workload, seed, seconds, trace, smoke, inject_abort=False):
    """One run of one workload, in one process, as a record."""
    raw, jobs = run_process(workload, seed, seconds, trace, smoke,
                            inject_abort)
    if raw is None:
        return failed_record(workload, seed, trace, smoke, jobs)
    if not trace:
        raw["metrics"], raw["extra"] = timing_metrics(raw)
    return evaluate(raw, smoke)


def digest_path(workload, smoke):
    suffix = ".smoke.digest" if smoke else ".digest"
    return os.path.join(EXPECTED, workload + suffix)


def read_digest(workload, smoke):
    """{"all": hex, "jobs": {index: hex}} from a pinned digest file."""
    path = digest_path(workload, smoke)
    if not os.path.exists(path):
        return None
    pinned = {"all": None, "jobs": {}}
    with open(path) as f:
        for line in f:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if fields[0] == "all":
                pinned["all"] = fields[1]
            elif fields[0] == "job":
                pinned["jobs"][int(fields[1])] = fields[2]
    return pinned


def write_digest(raw, smoke, force):
    path = digest_path(raw["workload"], smoke)
    if not all(raw["gates"].values()):
        raise BenchmarkError(f"{raw['workload']}: a gate failed; not pinning")
    if os.path.exists(path) and not force:
        raise BenchmarkError(f"{path} exists; add --force to overwrite it")
    length = "smoke length" if smoke else "full length"
    lines = [f"# annoc benchmark digest: {raw['workload']}, seed "
             f"{raw['seed']}, {length}. Regenerate with run.py --regen.",
             f"all {raw['digests']['all']}"]
    for i, d in enumerate(raw["digests"]["jobs"]):
        lines.append(f"job {i} {d}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    log(f"wrote {os.path.relpath(path, ROOT)}")


def digest_mismatches(raw, pinned):
    """Runs whose result differs from the pinned digest."""
    digests = raw["digests"]
    if not pinned["jobs"]:
        # sweep_dse: one digest over the sweep's merged outputs.
        return 0 if digests["all"] == pinned["all"] else raw["jobs_per_pass"]
    jobs = digests["jobs"]
    # The traced pass reports a subset of the jobs, keyed by index.
    items = jobs.items() if isinstance(jobs, dict) else enumerate(jobs)
    return sum(1 for i, d in items if pinned["jobs"].get(int(i)) != d)


def paper_errors(job_metrics):
    """Mean absolute relative error (%) against Table I/II cells."""
    with open(os.path.join(INPUTS, "paper_tables.json")) as f:
        jobs = json.load(f)["jobs"]
    with open(os.path.join(EXPECTED, "paper_reference.json")) as f:
        ref = json.load(f)
    util, lat = [], []
    for table in ref["tables"]:
        for r, (app, ddr, mhz) in enumerate(ref["rows"]):
            for d, design in enumerate(table["designs"]):
                point = {"design": design, "app": app, "ddr": ddr,
                         "clock_mhz": mhz, "priority": table["priority"]}
                index = next(i for i, j in enumerate(jobs)
                             if j["point"] == point)
                sim = job_metrics[index]
                util.append(abs(sim["utilization"] /
                                table["utilization"][r][d] - 1))
                for column in ("latency_all", table["latency_class"]):
                    lat.append(abs(sim[column] / table[column][r][d] - 1))
    return (100 * sum(util) / len(util), 100 * sum(lat) / len(lat))


def evaluate(raw, smoke):
    """Apply the digest gate and derive the reported metrics of one
    completed run."""
    gates = dict(raw["gates"], completed=True)
    exact = dict(raw.get("exact", {}))
    if raw["seed"] == PINNED_SEED:
        pinned = read_digest(raw["workload"], smoke)
        if pinned is None:
            mismatched = raw["jobs_per_pass"]
            log(f"{raw['workload']}: no pinned digest "
                f"{os.path.relpath(digest_path(raw['workload'], smoke), ROOT)}")
        else:
            mismatched = digest_mismatches(raw, pinned)
        gates["digest"] = mismatched == 0
    else:
        mismatched = 0
    if not raw["trace"]:
        exact["mismatched_runs"] = {"value": mismatched, "unit": "count"}
        if raw["workload"] == "paper_tables" and not smoke:
            u, l = paper_errors(raw["job_metrics"])
            exact["paper_util_err_pct"] = {"value": u, "unit": "%"}
            exact["paper_latency_err_pct"] = {"value": l, "unit": "%"}
    return {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "trace": raw["trace"],
        "smoke": smoke,
        "correct": all(gates.values()),
        "gates": gates,
        "attempted": raw["attempted"],
        "failed": raw["failed"] + mismatched,
        "metrics": raw["metrics"],
        "exact": exact,
        "extra": raw.get("extra", {}),
        "self_seconds": raw.get("self_seconds", {}),
        "trace_file": raw.get("trace_file"),
    }


def print_record(rec):
    w = rec["workload"]
    for section in ("metrics", "exact", "extra"):
        for name, m in rec[section].items():
            print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    for name, s in sorted(rec["self_seconds"].items(),
                          key=lambda kv: -kv[1]):
        print(f"{w} self.{name} {s:.6g} s")
    failed_gates = [g for g, ok in rec["gates"].items() if not ok]
    status = "ok" if rec["correct"] else "FAILED " + ",".join(failed_gates)
    print(f"{w} gates {status}")
    if rec["trace_file"]:
        print(f"{w} trace_file {os.path.relpath(rec['trace_file'], ROOT)}")


def host_info():
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [path, "--version"], stdout=subprocess.PIPE,
                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "compiler": compiler}


def summary_line(records, names):
    """The final JSON line over `records`, restricted to `names`: each
    metric's median over a workload's completed runs, keyed
    `workload/metric` when more than one workload ran. A run that did
    not complete adds its failures and no metrics."""
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    metrics, correct = {}, all(r["correct"] for r in records)
    for w, recs in by_workload.items():
        prefix = "" if len(by_workload) == 1 else w + "/"
        completed = [r for r in recs if r["gates"]["completed"]]
        for name in names:
            have = [r["metrics"][name] for r in completed
                    if name in r["metrics"]]
            if len(have) < len(completed):
                log(f"{w}: no metric {name}")
                correct = False
            if have:
                metrics[prefix + name] = {
                    "value": statistics.median(m["value"] for m in have),
                    "unit": have[0]["unit"],
                }
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def abort_check(seed, names):
    """--smoke's check of the harness itself: a process that aborts the
    way a checker violation does must reach the final line as failed
    runs, with the run marked incorrect."""
    log("abort_check: the next frame_idle process aborts on purpose")
    rec = run_leg("frame_idle", seed, 0, False, True, inject_abort=True)
    line = summary_line([rec], names)
    ok = (not line["correct"] and line["failed"] >= 1
          and line["failed"] == line["attempted"]
          and rec["exact"]["failed_runs"]["value"] == line["failed"])
    print(f"harness abort_check {'ok' if ok else 'FAILED'}")
    return ok


def parse_args(bench):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all four)")
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="accepted only as BENCHMARK.json's run_seconds, "
                        "which every run measures for")
    p.add_argument("--trace", default="0", choices=("0", "1"),
                   help="1: report per-layer metrics from the traced pass")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at ~1/50 length, untraced and "
                        "traced, all gates on, plus a check that an "
                        "aborting process is reported; a harness check, "
                        "never a baseline")
    p.add_argument("--runs", type=int, default=1,
                   help="repeat each workload run this many times")
    p.add_argument("--out", default=os.path.join(BUILD_DIR, "results.json"))
    p.add_argument("--regen", action="store_true",
                   help=f"write the pinned digests (seed {PINNED_SEED})")
    p.add_argument("--force", action="store_true",
                   help="let --regen overwrite existing digests")
    args = p.parse_args()
    if args.seconds != bench["run_seconds"]:
        p.error(f"--seconds is fixed at BENCHMARK.json's run_seconds "
                f"({bench['run_seconds']}), so that runs compare")
    if args.regen and args.seed != PINNED_SEED:
        p.error(f"--regen pins seed {PINNED_SEED} only")
    if args.runs < 1 or args.seed < 0:
        p.error("--runs must be >= 1 and --seed >= 0")
    return args


def main():
    bench = load_benchmark_json()
    args = parse_args(bench)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.regen:
        try:
            for w in workloads:
                raw, _ = run_process(w, PINNED_SEED, 0, False, args.smoke)
                if raw is None:
                    raise BenchmarkError(f"{w}: no result; not pinning")
                write_digest(raw, args.smoke, args.force)
        except BenchmarkError as e:
            log(str(e))
            return 1
        return 0

    trace = args.trace == "1"
    # Smoke runs both passes at a fixed single pass; it is never timed.
    legs = [False, True] if args.smoke else [trace]
    seconds = 0 if args.smoke else bench["run_seconds"]
    records = []
    for w in workloads:
        for _ in range(args.runs):
            for traced in legs:
                rec = run_leg(w, args.seed, seconds, traced, args.smoke)
                print_record(rec)
                records.append(rec)
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    harness_ok = abort_check(args.seed, names) if args.smoke else True

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"host": host_info(), "runs": records}, f, indent=1)
    line = summary_line([r for r in records if r["trace"] == trace], names)
    line["correct"] = (line["correct"] and harness_ok
                       and all(r["correct"] for r in records))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
