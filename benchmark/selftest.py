#!/usr/bin/env python3
"""benchmark_quick: the harness self-test (registered with ctest).

    python3 benchmark/selftest.py BINARY OUT_DIR

Runs every workload with --quick, untraced and traced, and checks that
  - the last stdout line is the result object and every operation was correct;
  - each metric BENCHMARK.json declares is in the result file with its unit
    and a sample count (end-to-end untraced, per-layer traced);
  - error_rate is 0;
  - each trace parses and every span's parent is present.
Quick runs are short and their numbers are not comparable with full runs.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check_trace(path, errors):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    if not events:
        errors.append(f"{path}: no spans")
    for e in events:
        parent = e["args"]["parent"]
        if parent != 0 and parent not in ids:
            errors.append(f"{path}: span {e['name']} has missing parent {parent}")
            return


def run_one(binary, out_dir, workload, trace, declared, errors):
    where = os.path.join(out_dir, f"{workload}-trace{trace}")
    shutil.rmtree(where, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "15",
           "--trace", str(trace), "--quick", "--out", where]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}")
        return
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{tag}: result line keys {sorted(last)}")
    if not last["correct"] or last["failed"] != 0 or last["attempted"] < 1:
        errors.append(f"{tag}: correct={last['correct']} attempted={last['attempted']} "
                      f"failed={last['failed']}")

    files = [f for f in os.listdir(where) if f.endswith(".json")]
    results = [f for f in files if not f.endswith(".trace.json")]
    if len(results) != 1:
        errors.append(f"{tag}: expected one result file, found {results}")
        return
    with open(os.path.join(where, results[0])) as f:
        result = json.load(f)
    if result["error_rate"] != 0:
        errors.append(f"{tag}: error_rate {result['error_rate']}")
    section = result["per_layer" if trace else "end_to_end"]
    for metric in declared:
        got = section.get(metric["name"])
        if got is None:
            errors.append(f"{tag}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got.get("n"), int):
            errors.append(f"{tag}: metric {metric['name']} has unit {got['unit']!r}, "
                          f"n {got.get('n')!r}")
        elif last["metrics"].get(metric["name"]) != {"value": got["value"],
                                                      "unit": got["unit"]}:
            errors.append(f"{tag}: metric {metric['name']} differs on the result line")
    if trace:
        traces = [f for f in files if f.endswith(".trace.json")]
        if len(traces) != 1:
            errors.append(f"{tag}: expected one trace, found {traces}")
        else:
            check_trace(os.path.join(where, traces[0]), errors)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, out_dir = sys.argv[1], sys.argv[2]
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            declared = bench["per_layer" if trace else "end_to_end"]
            run_one(binary, out_dir, workload, trace, declared, errors)
            print(f"checked {workload} --trace {trace}", flush=True)
    for e in errors:
        print("FAIL:", e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
