#!/usr/bin/env bash
# The Sec. 6 tables are deterministic: build the thirteen E-benches (E1-E13)
# in BUILD_DIR, run each, and diff its stdout against ci/golden/<bench>.txt.
# Any byte of difference fails.  Run from the repository root:
#
#   ci/bench_golden.sh build
#
# A change that is meant to move a table regenerates its golden file with
# `build/bench/<bench> > ci/golden/<bench>.txt` and says why in CHANGES.md.
set -uo pipefail

BENCHES="bench_admin_cost bench_state_size bench_transfer_cost bench_forwarding
         bench_link_update bench_delivery_modes bench_fs_migration bench_load_balance
         bench_server_migration bench_pending_queue bench_fault_recovery
         bench_perturbation bench_gc"
build_dir=${1:?usage: ci/bench_golden.sh BUILD_DIR}

# shellcheck disable=SC2086  # the list is meant to split
cmake --build "$build_dir" -j "$(nproc)" --target $BENCHES || exit 1
status=0
for bench in $BENCHES; do
  if "$build_dir/bench/$bench" | diff -u "ci/golden/$bench.txt" -; then
    echo "$bench: matches ci/golden/$bench.txt"
  else
    echo "$bench: stdout differs from ci/golden/$bench.txt"
    status=1
  fi
done
exit $status
