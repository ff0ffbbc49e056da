#!/usr/bin/env bash
# The Sec. 6 tables are deterministic: build the thirteen E-benches (E1-E13)
# in BUILD_DIR, run each, and diff its stdout against ci/golden/<bench>.txt.
# The two examples that print the counter and histogram dumps are held to
# the same rule: quickstart's stdout, and migration_timeline's stdout and
# Chrome trace.  So is the chaos sweep's per-seed verdict: `chaos_fuzz
# --seeds=100 --verbose` stdout in the four sequential modes (plain,
# permadeath, churn, churn+permadeath) against ci/golden/chaos_<mode>.txt;
# its stderr log lines are not compared.  Any byte of difference fails.  Run
# from the repository root:
#
#   ci/bench_golden.sh build
#
# A change that is meant to move a table regenerates its golden file with
# `build/bench/<bench> > ci/golden/<bench>.txt` (for the examples and the
# chaos sweeps, run them as below) and says why in CHANGES.md.
set -uo pipefail

BENCHES="bench_admin_cost bench_state_size bench_transfer_cost bench_forwarding
         bench_link_update bench_delivery_modes bench_fs_migration bench_load_balance
         bench_server_migration bench_pending_queue bench_fault_recovery
         bench_perturbation bench_gc"
EXAMPLES="quickstart migration_timeline"
CHAOS_MODES="plain permadeath churn churn_permadeath"
build_dir=${1:?usage: ci/bench_golden.sh BUILD_DIR}

# shellcheck disable=SC2086  # the lists are meant to split
cmake --build "$build_dir" -j "$(nproc)" --target $BENCHES $EXAMPLES chaos_fuzz || exit 1
golden=ci/golden
status=0
# check NAME GOLDEN_FILE ACTUAL_FILE
check() {
  if diff -u "$2" "$3"; then
    echo "$1: matches $2"
  else
    echo "$1: differs from $2"
    status=1
  fi
}

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
for bench in $BENCHES; do
  "$build_dir/bench/$bench" > "$scratch/$bench.txt"
  check "$bench" "$golden/$bench.txt" "$scratch/$bench.txt"
done

# migration_timeline prints the trace path it writes, so it runs in the
# scratch directory with a fixed relative path.
examples=$(cd "$build_dir/examples" && pwd)
"$examples/quickstart" > "$scratch/quickstart.txt"
check quickstart "$golden/quickstart.txt" "$scratch/quickstart.txt"
(cd "$scratch" && "$examples/migration_timeline" migration_timeline.trace.json) \
  > "$scratch/migration_timeline.txt"
check migration_timeline "$golden/migration_timeline.txt" "$scratch/migration_timeline.txt"
check "migration_timeline trace" "$golden/migration_timeline_trace.json" \
  "$scratch/migration_timeline.trace.json"

# chaos_<mode>: the mode name spells its flags, "plain" none.
for mode in $CHAOS_MODES; do
  flags=""
  [[ $mode == *churn* ]] && flags+=" --churn"
  [[ $mode == *permadeath* ]] && flags+=" --permadeath"
  # shellcheck disable=SC2086  # the flags are meant to split
  "$build_dir/tools/chaos_fuzz" --seeds=100 --verbose $flags \
    > "$scratch/chaos_$mode.txt" 2> /dev/null
  check "chaos_fuzz $mode" "$golden/chaos_$mode.txt" "$scratch/chaos_$mode.txt"
done
exit $status
