#!/usr/bin/env bash
# Builds the benchmark (benchmark/build) and runs it. See benchmark/README.md.
#
# One workload, as a harness drives it; the last stdout line is the result
# JSON:
#   bash benchmark/run.sh --workload scan_mem --seed 1 --seconds 15 --trace 0
#
# Every workload in its own process, printing "workload metric value unit n"
# lines; exits non-zero if any operation failed:
#   bash benchmark/run.sh [--seed=N] [--out=DIR] [--traced] [--quick]
#
# Result JSONs (and traces) go to benchmark/out unless --out says otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"
out="$here/out"
workloads=(scan_mem scan_paged tune_measured tune_predicted)

# Keep compiler and program scratch files inside the checkout.
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target hetopt_benchmark -j "$(nproc)" >&2
bin="$build/hetopt_benchmark"

commit=unknown
dirty=-1
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse HEAD)"
  dirty=0
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then dirty=1; fi
fi

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    # The first occurrence of a flag wins, so the caller's flags come first.
    exec "$bin" "$@" --out "$out" --commit "$commit" --dirty "$dirty"
  fi
done

seed=1
trace=0
quick=()
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed="${arg#*=}" ;;
    --out=*) out="${arg#*=}" ;;
    --traced) trace=1 ;;
    --quick) quick=(--quick) ;;
    *)
      echo "usage: $0 [--seed=N] [--out=DIR] [--traced] [--quick]" >&2
      echo "       $0 --workload NAME --seed N --seconds S --trace 0|1" >&2
      exit 2
      ;;
  esac
done
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")"

status=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" "${quick[@]}" \
    --out "$out" --commit "$commit" --dirty "$dirty" | grep -v '^{' || status=1
done
exit "$status"
