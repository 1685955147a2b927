#!/usr/bin/env python3
"""Compares untraced benchmark results against BENCHMARK.json's bounds.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --same RUNS_A RUNS_B

Each directory holds result JSONs written by hetopt_benchmark (run.sh
--out=DIR); traced and --quick results are ignored. Runs of one workload are
paired in start order: run them as alternating parent/change pairs, at
least 10.

For each workload x end-to-end metric the default mode prints both sides'
median and quartiles, the share of pairs the change won (ties count for
neither side) and a verdict:
  improved    the change won at least 9/10 of the pairs and its median beats
              the parent's by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  the parent's own spread (IQR / median) is wider than the bound
              and not every change run beats every parent run;
  better      as unresolved, but every change run beats every parent run;
  unchanged   otherwise.
It exits 1 when any metric regressed.

--same checks that two sets of runs of one commit agree: every spread
except setup_s's within the bound, and the medians within the bound of
each other. It exits 1 when they do not.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def load_runs(directory):
    """{workload: [{metric: value}, ...]} in start order."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            result = json.load(f)
        if result.get("traced") or result.get("quick"):
            continue
        values = {name: m["value"] for name, m in result["end_to_end"].items()}
        runs.setdefault(result["workload"], []).append((result["started_unix"], values))
    return {w: [v for _, v in sorted(rs, key=lambda r: r[0])] for w, rs in runs.items()}


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def fmt(v):
    return f"{v:.4g}"


def compare(parent, change, metrics):
    regressed = False
    print(f"{'workload':15} {'metric':10} {'parent q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'won':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        pairs = min(len(p_runs), len(c_runs))
        if pairs < 10:
            print(f"warning: {workload} has {pairs} pairs; a claim needs at least 10",
                  file=sys.stderr)
        for m in metrics:
            name, better, bound = m["name"], m["better"], m["bound"]
            pv = [r[name] for r in p_runs]
            cv = [r[name] for r in c_runs]
            pq, cq = quartiles(pv), quartiles(cv)
            wins = sum(beats(c, p, better) for p, c in zip(pv[:pairs], cv[:pairs]))
            gain = (pq[1] - cq[1]) if better == "lower" else (cq[1] - pq[1])
            parent_iqr = pq[2] - pq[0]
            if wins >= 0.9 * pairs and gain > parent_iqr:
                verdict = "improved"
            elif -gain > bound * pq[1]:
                verdict = "regressed"
                regressed = True
            elif parent_iqr > bound * pq[1]:
                every = all(beats(c, p, better) for p in pv for c in cv)
                verdict = "better" if every else "unresolved"
            else:
                verdict = "unchanged"
            print(f"{workload:15} {name:10} {'/'.join(map(fmt, pq)):>26} "
                  f"{'/'.join(map(fmt, cq)):>26} {wins:>3}/{pairs:<3}  {verdict}")
    return 1 if regressed else 0


def same(a, b, metrics):
    failed = False
    print(f"{'workload':15} {'metric':10} {'spread A':>9} {'spread B':>9} {'med B/A-1':>10} "
          f"{'bound':>6}  verdict")
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload}: missing from one set")
            failed = True
            continue
        for m in metrics:
            name, bound = m["name"], m["bound"]
            qa = quartiles([r[name] for r in a[workload]])
            qb = quartiles([r[name] for r in b[workload]])
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            drift = qb[1] / qa[1] - 1.0
            ok = abs(drift) <= bound and (name == "setup_s" or
                                          max(spread_a, spread_b) <= bound)
            failed = failed or not ok
            print(f"{workload:15} {name:10} {spread_a:9.4f} {spread_b:9.4f} {drift:10.4f} "
                  f"{bound:6.2f}  {'agree' if ok else 'DISAGREE'}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--same", action="store_true",
                        help="check that two sets of runs of one commit agree")
    parser.add_argument("first", help="parent results (or set A with --same)")
    parser.add_argument("second", help="change results (or set B with --same)")
    args = parser.parse_args()
    metrics = load_metrics()
    first, second = load_runs(args.first), load_runs(args.second)
    if not first or not second:
        sys.exit("no untraced results in one of the directories")
    sys.exit(same(first, second, metrics) if args.same else compare(first, second, metrics))


if __name__ == "__main__":
    main()
