#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 benchmark/compare.py A B
    python3 benchmark/compare.py --summary A

A and B are each a results file written by `run.py --out FILE`, or a
directory of them, holding at least 10 runs: A of the parent commit, B
of the change, measured with the same benchmark code and seed,
alternating which side runs first. For every
(workload, end-to-end metric) pair this prints both medians and
quartiles, the per-pair wins of B, and a verdict:

  unresolved  either side has fewer than 10 runs; or the run-to-run
              spread (either side's interquartile range) is wider than
              the bound, and not every run of B beats every run of A
  improved    B wins at least 9 of 10 pairs and the medians differ by
              more than A's interquartile range; or every run of B
              beats every run of A
  regressed   B's median is worse than A's by more than the bound
  unchanged   otherwise

The bound is BENCHMARK.json's share of A's median; setup_s may also
move by 5 ms, whichever is larger. The exact metrics (modelled results
and failure counts) must be equal run for run at each seed: any
difference is `changed`. The exit code is 1 when any pair is regressed,
unresolved or changed. --summary prints one set's medians and quartiles
as JSON (the form of benchmark/baseline.json).
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_FLOOR_S = 0.005
# Fewer runs than this on either side cannot support any verdict.
MIN_RUNS = 10
# Exact metrics that are bookkeeping, not results: the run count grows
# with speed.
NOT_COMPARED = {"runs"}


def load_runs(path):
    """The runs of a results file, or of every results file in a
    directory, in file name order."""
    files = ([os.path.join(path, n) for n in sorted(os.listdir(path))
              if n.endswith(".json")] if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        with open(name) as f:
            runs += json.load(f)["runs"]
    if any(r["smoke"] for r in runs):
        sys.exit(f"{path}: smoke runs are a harness check, never a baseline")
    return runs


def by_workload(runs, traced):
    groups = {}
    for r in runs:
        if r["trace"] == traced:
            groups.setdefault(r["workload"], []).append(r)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values):
    q1, _, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values)}


def spread_text(median, values):
    q1, _, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"


def verdict(a, b, better, allowed):
    """Verdict for B against A, both lists of one metric's values."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, _, q3a = quartiles(a)
    q1b, _, q3b = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    every_run_better = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
    worse_by = sign * (med_a - med_b)
    if min(len(a), len(b)) < MIN_RUNS:
        result = "unresolved"
    elif every_run_better:
        result = "improved"
    elif max(q3a - q1a, q3b - q1b) > allowed:
        result = "unresolved"
    elif worse_by > allowed:
        result = "regressed"
    elif (wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > 0
          and abs(med_b - med_a) > q3a - q1a):
        result = "improved"
    else:
        result = "unchanged"
    return result, wins, len(pairs)


def exact_values(runs, name):
    """{seed: value} for one exact metric; None when runs of one seed
    disagree (which is itself nondeterminism)."""
    out = {}
    for r in runs:
        if name not in r["exact"]:
            continue
        v = r["exact"][name]["value"]
        if out.setdefault(r["seed"], v) != v:
            return None
    return out


def compare(path_a, path_b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        e2e = json.load(f)["end_to_end"]
    a_runs = by_workload(load_runs(path_a), False)
    b_runs = by_workload(load_runs(path_b), False)
    bad = 0
    print(f"{'workload':<13} {'metric':<28} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'change':>8} {'wins':>6}  verdict")
    for w in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[w], b_runs[w]
        for m in e2e:
            name = m["name"]
            # A run whose process did not complete has no metrics.
            va = [r["metrics"][name]["value"] for r in a if r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if r["metrics"]]
            if not va or not vb:
                bad += 1
                print(f"{w:<13} {name:<28} no completed run on one side")
                continue
            med_a = statistics.median(va)
            allowed = m["bound"] * abs(med_a)
            if name == "setup_s":
                allowed = max(allowed, SETUP_FLOOR_S)
            result, wins, pairs = verdict(va, vb, m["better"], allowed)
            bad += result in ("regressed", "unresolved")
            med_b = statistics.median(vb)
            change = (med_b - med_a) / med_a if med_a else 0.0
            print(f"{w:<13} {name:<28} {spread_text(med_a, va):<32} "
                  f"{spread_text(med_b, vb):<32} {change:>+8.2%} "
                  f"{wins:>3}/{pairs:<2}  {result}")
        for name in sorted({k for r in a + b for k in r["exact"]} -
                           NOT_COMPARED):
            ea, eb = exact_values(a, name), exact_values(b, name)
            seeds = set(ea or {}) & set(eb or {})
            same = (ea is not None and eb is not None and seeds and
                    all(ea[s] == eb[s] for s in seeds))
            bad += not same
            if same:
                shown = f"equal at {len(seeds)} seed(s)"
            else:
                shown = ", ".join(f"{ea[s]:.6g} -> {eb[s]:.6g} (seed {s})"
                                  for s in sorted(seeds)
                                  if ea[s] != eb[s]) if seeds else (
                    "no seed in common")
            print(f"{w:<13} {name:<28} {shown:<82}  "
                  f"{'unchanged' if same else 'changed'}")
        for side, runs in (("A", a), ("B", b)):
            failing = [r["seed"] for r in runs if not r["correct"]]
            if failing:
                bad += 1
                print(f"{w:<13} {side} has failing correctness gates at "
                      f"seeds {failing}")
    return 1 if bad else 0


def summary(path):
    """One set's host, and per workload and pass (untraced / traced)
    each metric's median and quartiles, one metric per line."""
    first = (os.path.join(path, sorted(n for n in os.listdir(path)
                                       if n.endswith(".json"))[0])
             if os.path.isdir(path) else path)
    with open(first) as f:
        host = json.load(f)["host"]
    runs = load_runs(path)
    lines = ["{", f' "host": {json.dumps(host)},', ' "workloads": {']
    groups = [(w, traced, rs) for traced in (False, True)
              for w, rs in sorted(by_workload(runs, traced).items())]
    for g, (w, traced, rs) in enumerate(groups):
        lines.append(f'  "{w}/{"traced" if traced else "untraced"}": {{')
        names = [(part, name) for part in ("metrics", "exact", "extra")
                 for name in rs[0].get(part, {})]
        for i, (part, name) in enumerate(names):
            entry = summarize([r[part][name]["value"] for r in rs])
            entry = {k: float(f"{v:.6g}") if isinstance(v, float) else v
                     for k, v in entry.items()}
            entry["unit"] = rs[0][part][name]["unit"]
            comma = "," if i + 1 < len(names) else ""
            lines.append(f'   "{name}": {json.dumps(entry)}{comma}')
        lines.append("  }" + ("," if g + 1 < len(groups) else ""))
    lines += [" }", "}"]
    print("\n".join(lines))
    return 0


def main(argv):
    if len(argv) == 3 and argv[1] == "--summary":
        return summary(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
