#!/usr/bin/env python3
"""Summarizes and checks the perfbench runs recorded under bench_history/.

Usage (from the repo root):

  python3 tools/bench_history.py bench_history/pr18.jsonl
  python3 tools/bench_history.py --check bench_history/*.jsonl

Without --check it prints, for each file, one row per workload and
end-to-end metric of BENCHMARK.json: each side's median and quartiles
over its timed runs, the change's wins out of the complete pairs (ties
count for neither), the parent's interquartile range against the
metric's bound (a fraction of the parent median) and a label:

  improved             at least 10 complete pairs, the change won at least
                       9 in 10 of them and its median is better by more
                       than the parent IQR;
  worse                the change median is worse by more than the bound;
  better in every run  the parent IQR is wider than the bound, but every
                       change run is better than every parent run;
  unresolved           the parent IQR is wider than the bound, so a move
                       inside the bound cannot be told from noise;
  within bound         none of these.

After the table it prints each workload's median `attempted` (the
simulated runs perfbench completed, which grow with the iterations that
fit in the fixed run time) per side: a metric that grows with the
iteration count, such as fleet-128's peak RSS, reads worse on the side
that ran more iterations, so a faster change can look bigger.

With --check it validates each file against bench_history/README.md:
the keys of every line, `side`, `trace`, complete alternating pairs and
one trace line per workload per side.  It exits 1 on any problem.
Stdlib only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
KEYS = {"pr", "side", "parent", "workload", "seed", "seconds", "trace", "result"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def read_lines(path):
    """Returns [(line number, object or None)] for the non-blank lines."""
    rows = []
    with open(path) as f:
        for n, text in enumerate(f, 1):
            if not text.strip():
                continue
            try:
                rows.append((n, json.loads(text)))
            except ValueError:
                rows.append((n, None))
    return rows


def check(path, spec):
    """Returns the format problems of one history file."""
    problems = []
    workloads = {w["name"] for w in spec["workloads"]}
    timed = {}   # (workload, pair) -> [side, ...] in file order
    traced = {}  # (workload, side) -> count
    firsts = {}  # key -> first value, for keys every line must share
    for n, row in read_lines(path):
        where = "%s:%d: " % (path, n)
        if not isinstance(row, dict):
            problems.append(where + "not a JSON object")
            continue
        # Timed lines carry their pair index; trace lines none, or null.
        want = KEYS | {"pair"} if row.get("trace") == 0 or "pair" in row else KEYS
        if set(row) != want:
            missing = sorted(want - set(row))
            extra = sorted(set(row) - want)
            problems.append(where + "keys: missing %s, unexpected %s" % (missing, extra))
            continue
        if row["side"] not in SIDES:
            problems.append(where + "side %r is not parent or change" % (row["side"],))
        if row["workload"] not in workloads:
            problems.append(where + "unknown workload %r" % (row["workload"],))
        if row["trace"] not in (0, 1):
            problems.append(where + "trace %r is not 0 or 1" % (row["trace"],))
        elif row["trace"] == 1 and row.get("pair") is not None:
            problems.append(where + "a trace line belongs to no pair")
        result = row["result"]
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            problems.append(where + "result is not a perfbench/run.py last line")
        for key in ("pr", "parent", "seed", "seconds"):
            first = firsts.setdefault(key, row[key])
            if row[key] != first:
                problems.append(where + "%s %r differs from the first line's %r"
                                % (key, row[key], first))
        if row["trace"] == 0:
            timed.setdefault((row["workload"], row["pair"]), []).append(row["side"])
        elif row["trace"] == 1:
            traced[(row["workload"], row["side"])] = traced.get(
                (row["workload"], row["side"]), 0) + 1
    for (workload, pair), sides in timed.items():
        if sorted(sides) != sorted(SIDES):
            problems.append("%s: %s pair %s has sides %s, not one parent and one change"
                            % (path, workload, pair, sides))
        elif isinstance(pair, int):
            # Pair i runs the parent first for odd i, the change first for even i.
            first = "parent" if pair % 2 == 1 else "change"
            if sides[0] != first:
                problems.append("%s: %s pair %d runs the %s first, not the %s"
                                % (path, workload, pair, sides[0], first))
        else:
            problems.append("%s: %s pair %r is not an integer" % (path, workload, pair))
    seen = {w for (w, _) in timed} | {w for (w, _) in traced}
    for workload in sorted(seen):
        for side in SIDES:
            count = traced.get((workload, side), 0)
            if count != 1:
                problems.append("%s: %s has %d trace lines for the %s, not 1"
                                % (path, workload, count, side))
    return problems


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


MIN_PAIRS = 10


def label(parent, change, wins, pairs, bound_abs, lower_better):
    """The row label of one workload x metric; see the module docstring."""
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = (pmed - cmed) if lower_better else (cmed - pmed)
    iqr = p3 - p1
    if pairs >= MIN_PAIRS and wins * 10 >= 9 * pairs and gain > iqr:
        return "improved"
    if -gain > bound_abs:
        return "worse"
    if iqr > bound_abs:
        separated = max(change) < min(parent) if lower_better else min(change) > max(parent)
        return "better in every run" if separated else "unresolved"
    return "within bound"


def summarize(path, spec, out):
    rows = [row for _, row in read_lines(path) if isinstance(row, dict)]
    timed = [r for r in rows if r.get("trace") == 0]
    workloads = [w["name"] for w in spec["workloads"]
                 if any(r["workload"] == w["name"] for r in timed)]
    header = ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
              "wins", "parent IQR / bound", "label")
    table = []
    for workload in workloads:
        runs = [r for r in timed if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            lower = metric["better"] == "lower"
            values = {side: {} for side in SIDES}
            for r in runs:
                m = r["result"]["metrics"].get(name)
                if m is not None:
                    values[r["side"]][r["pair"]] = m["value"]
            if not values["parent"] or not values["change"]:
                continue
            both = sorted(set(values["parent"]) & set(values["change"]))
            wins = sum(1 for i in both
                       if (values["change"][i] < values["parent"][i]) == lower
                       and values["change"][i] != values["parent"][i])
            parent = sorted(values["parent"].values())
            change = sorted(values["change"].values())
            p1, pmed, p3 = quartiles(parent)
            c1, cmed, c3 = quartiles(change)
            bound_abs = metric["bound"] * pmed
            table.append((
                workload, "%s (%s)" % (name, metric["unit"]),
                "%.4g [%.4g, %.4g]" % (pmed, p1, p3),
                "%.4g [%.4g, %.4g]" % (cmed, c1, c3),
                "%d/%d" % (wins, len(both)),
                "%.3g / %.3g" % (p3 - p1, bound_abs),
                label(parent, change, wins, len(both), bound_abs, lower)))
    widths = [max(len(str(row[i])) for row in table + [header]) for i in range(len(header))]
    out.write("%s\n" % path)
    for row in [header] + table:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    out.write("\nmedian attempted per side (more iterations, more runs):\n")
    for workload in workloads:
        runs = [r for r in timed if r["workload"] == workload]
        medians = ["%s %g" % (side, statistics.median(
            r["result"]["attempted"] for r in runs if r["side"] == side))
            for side in SIDES if any(r["side"] == side for r in runs)]
        out.write("  %s: %s\n" % (workload, ", ".join(medians)))
    failed = [r for r in rows if r.get("result", {}).get("failed")]
    if failed:
        out.write("%d run(s) reported failures\n" % len(failed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="bench_history/*.jsonl files")
    parser.add_argument("--check", action="store_true",
                        help="validate the format instead of summarizing")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="the BENCHMARK.json naming workloads, metrics and bounds")
    args = parser.parse_args(argv)
    spec = load_spec(args.benchmark)
    if args.check:
        problems = []
        for path in args.files:
            problems += check(path, spec)
        for p in problems:
            print(p)
        print("%d file(s) checked, %d problem(s)" % (len(args.files), len(problems)))
        return 1 if problems else 0
    for path in args.files:
        summarize(path, spec, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
