#!/usr/bin/env python3
"""Summarise one set of recorded runs, or compare the sets of two commits.

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Run directories hold the files `perfbench/run.py --record DIR` writes.

For each workload and end-to-end metric, a summary prints the median,
the quartiles and the spread (distance between the quartiles over the
median) against the metric's bound. A comparison prints both sides'
medians and quartiles, the share of seed-paired runs the change wins,
and a verdict:

  improved    the change wins at least 9 in 10 pairs and the medians
              differ by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more
              than the bound;
  no worse    within the bound, and the parent's spread is within it;
  unresolved  the parent's spread is wider than the bound, and not
              every change run beats every parent run.

Next to each workload it prints the per-layer medians of the traced
runs and their change. Runs whose LPN kernel or prefetch choice (the
library's per-process calibration) differs from the rest of their set
are flagged: that is a source of spread to report, not to hide. So
are runs that lost much CPU time to other guests of a shared host.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(runs, trace):
    out = {}
    for r in runs:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    for w in out:
        out[w].sort(key=lambda r: r["seed"])
    return out


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def flag_kernels(label, runs):
    choice = lambda r: (r["host"].get("lpn_kernel"),
                        r["host"].get("lpn_prefetch"))
    counts = {}
    for r in runs:
        counts[choice(r)] = counts.get(choice(r), 0) + 1
    if len(counts) > 1:
        common = max(counts, key=counts.get)
        odd = [f'{r["workload"]}/seed {r["seed"]}/trace {r["trace"]}: '
               f'{choice(r)}' for r in runs if choice(r) != common]
        print(f"FLAG {label}: LPN calibration differs from the usual "
              f"{common} in {len(odd)} run(s):")
        for line in odd:
            print(f"  {line}")


# Share of CPU time the hypervisor gave to other guests during a run,
# above which the run is flagged as measured under host contention.
STEAL_FLAG_PCT = 5.0


def flag_steal(label, runs):
    busy = [r for r in runs
            if r["host"].get("steal_pct", 0) > STEAL_FLAG_PCT]
    if busy:
        print(f"FLAG {label}: {len(busy)} run(s) lost over "
              f"{STEAL_FLAG_PCT:.0f}% of CPU time to other guests:")
        for r in busy:
            print(f'  {r["workload"]}/seed {r["seed"]}/trace {r["trace"]}: '
                  f'{r["host"]["steal_pct"]:.1f}%')


def spread(q):
    return (q[2] - q[0]) / abs(q[1]) if q[1] else float("inf")


def worse_by(parent_med, change_med, better):
    """Relative worsening of the change's median (negative = better)."""
    if parent_med == 0:
        return 0.0
    d = (change_med - parent_med) / abs(parent_med)
    return d if better == "lower" else -d


def verdict(metric, parent, change):
    qp, qc = quartiles(parent), quartiles(change)
    sign = 1 if metric["better"] == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse = worse_by(qp[1], qc[1], metric["better"])
    if (win_share >= 0.9 and pairs and
            abs(qc[1] - qp[1]) > qp[2] - qp[0]):
        v = "improved"
    elif worse > metric["bound"]:
        v = "worse"
    elif spread(qp) <= metric["bound"]:
        v = "no worse"
    elif all(sign * (c - p) > 0 for c in change for p in parent):
        v = "no worse"
    else:
        v = "unresolved"
    return qp, qc, win_share, v


def layer_deltas(layer_decl, parent_t, change_t):
    for m in layer_decl:
        pv, cv = values(parent_t, m["name"]), values(change_t, m["name"])
        if not pv or not cv:
            continue
        pm, cm = statistics.median(pv), statistics.median(cv)
        if pm == 0 and cm == 0:
            continue
        rel = f"{(cm - pm) / abs(pm) * 100:+.1f}%" if pm else "n/a"
        print(f"    {m['name']:34s} {pm:14.4f} -> {cm:14.4f} "
              f"{m['unit']:10s} {rel}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load_runs(d) for d in argv[1:]]
    for label, runs in zip(argv[1:], sets):
        flag_kernels(label, runs)
        flag_steal(label, runs)

    if len(sets) == 1:
        runs = sets[0]
        for w, wr in sorted(by_workload(runs, 0).items()):
            print(f"\n{w}: {len(wr)} untraced runs")
            for m in bench["end_to_end"]:
                q = quartiles(values(wr, m["name"]))
                limit = m["bound"] / 3
                mark = "" if spread(q) < limit or m["name"] == "setup_s" \
                    else "  <-- spread above bound/3"
                print(f"  {m['name']:22s} median {q[1]:12.5g} "
                      f"q1 {q[0]:12.5g} q3 {q[2]:12.5g} "
                      f"spread {spread(q) * 100:6.2f}% "
                      f"(bound {m['bound'] * 100:.0f}%){mark}")
        for w, wr in sorted(by_workload(runs, 1).items()):
            print(f"\n{w}: {len(wr)} traced runs (per-layer medians)")
            for m in bench["per_layer"]:
                v = values(wr, m["name"])
                if v:
                    print(f"    {m['name']:34s} {statistics.median(v):14.4f}"
                          f" {m['unit']}")
        return 0

    parent, change = sets
    p0, c0 = by_workload(parent, 0), by_workload(change, 0)
    p1, c1 = by_workload(parent, 1), by_workload(change, 1)
    for w in sorted(set(p0) & set(c0)):
        # Pair runs by seed; a seed run on one side only is left out.
        seeds = sorted({r["seed"] for r in p0[w]} & {r["seed"] for r in c0[w]})
        pr = {r["seed"]: r for r in p0[w]}
        cr = {r["seed"]: r for r in c0[w]}
        print(f"\n{w}: {len(p0[w])} parent runs, {len(c0[w])} change runs, "
              f"{len(seeds)} seed pairs")
        for m in bench["end_to_end"]:
            pv = [pr[s]["result"]["metrics"][m["name"]]["value"] for s in seeds]
            cv = [cr[s]["result"]["metrics"][m["name"]]["value"] for s in seeds]
            qp, qc, share, v = verdict(m, pv, cv)
            print(f"  {m['name']:22s} parent {qp[1]:11.5g} [{qp[0]:.5g}, "
                  f"{qp[2]:.5g}]  change {qc[1]:11.5g} [{qc[0]:.5g}, "
                  f"{qc[2]:.5g}]  wins {share * 100:5.1f}%  {v}")
        if w in p1 and w in c1:
            print("  per-layer medians (traced runs):")
            layer_deltas(bench["per_layer"], p1[w], c1[w])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
