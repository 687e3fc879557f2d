#!/usr/bin/env bash
# Builds bench/e2e into build-e2e/ and runs the end-to-end benchmark, each
# workload in its own process.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--scale full|smoke] [--out rows.jsonl]
#
# Without --workload every workload runs in turn. Each prints its metrics as
# `workload metric value unit`, then a one-line JSON result. Build output
# goes to stderr. Exits non-zero if the build fails or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

workloads=()
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        args+=(--trace "$2"); shift 2
      else
        args+=(--trace 1); shift
      fi ;;
    --seed | --seconds | --scale | --out) args+=("$1" "$2"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(flat-week hier-200 tcp-diamond replay-ingest)
fi

cmake -S "$here" -B "$build" >&2
cmake --build "$build" -j "$(nproc)" --target spca_e2e >&2
sha="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"

status=0
for w in "${workloads[@]}"; do
  "$build/spca_e2e" --workload "$w" --work-dir "$build" --git-sha "$sha" \
    "${args[@]}" || status=1
done
exit "$status"
