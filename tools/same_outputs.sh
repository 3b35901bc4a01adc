#!/usr/bin/env bash
# Run every builtin scenario and the benchmark scenario three ways and fail
# unless all three write the same files, run_meta.json (timings) aside:
#   threads-1  one check thread
#   threads-2  two check threads
#   one-core   two check threads pinned to one core (taskset -c 0), where
#              every 2D block evolution runs in one Chebyshev lane
# BLAS runs on one thread, since radial-shell-2d-metric's report.json differs
# between threaded BLAS runs.  An exit code of 0, 2 or 3 is a verdict (the
# benchmark scenario reads Violated); 1, an error, fails the script.
#
#     tools/same_outputs.sh OUT_DIR [REFERENCE_DIR]
#
# writes OUT_DIR/{threads-1,threads-2,one-core}/<scenario>/, and each run's
# exit codes to OUT_DIR/<run>/exit-codes.txt.  Given REFERENCE_DIR, an
# OUT_DIR that this script wrote at another commit, it also fails unless the
# two threads-1 trees hold the same files and exit codes.  It runs
# `python -m degenlab.cli`: the installed package, or PYTHONPATH=src in a
# checkout.
set -euo pipefail

out=${1:?usage: tools/same_outputs.sh OUT_DIR [REFERENCE_DIR]}
reference=${2:-}
root=$(cd "$(dirname "$0")/.." && pwd)
degenlab=(python -m degenlab.cli)
export OPENBLAS_NUM_THREADS=1

for run in threads-1 threads-2 one-core; do
  case "$run" in
    threads-1) pin=(); threads=1 ;;
    threads-2) pin=(); threads=2 ;;
    one-core) pin=(taskset -c 0); threads=2 ;;
  esac
  mkdir -p "$out/$run"
  : > "$out/$run/exit-codes.txt"
  for scenario in $("${degenlab[@]}" list | grep -v '^ ') "$root/perfbench/scenarios/radial-shell-2d-metric.json"; do
    rc=0
    "${pin[@]}" "${degenlab[@]}" run "$scenario" --threads "$threads" \
      --out "$out/$run/$(basename "$scenario" .json)" > /dev/null || rc=$?
    echo "$(basename "$scenario" .json) $rc" >> "$out/$run/exit-codes.txt"
    if [ "$rc" -eq 1 ]; then
      echo "error: $run $scenario exited 1" >&2
      exit 1
    fi
  done
done
diff -r -x run_meta.json "$out/threads-1" "$out/threads-2"
diff -r -x run_meta.json "$out/threads-1" "$out/one-core"
echo "same files on threads-1, threads-2 and one-core"
if [ -n "$reference" ]; then
  diff -r -x run_meta.json "$reference/threads-1" "$out/threads-1"
  echo "same files as $reference/threads-1"
fi
