#!/bin/sh
# Run the experiments that drive the live TCP grid (E20-E28), each with the
# arguments its CI smoke uses, from the repository root. Every one of them
# runs even when an earlier one fails, and every one writes its
# BENCH_<name>.json whether it passes or not; the script exits non-zero at
# the end if any did not pass.
#   scripts/run-experiments.sh --smoke    the CI shapes (the only mode)
cd "$(dirname "$0")/.." || exit 1
[ "$1" = "--smoke" ] || { echo "usage: $0 --smoke" >&2; exit 2; }

failed=""
run() {
    echo "=== $*"
    cargo run --release -p faucets-bench --bin "$@" || failed="$failed $1"
}
run exp_observability
run exp_durability
run exp_overload -- --arm-ms 1500
run exp_rpc_throughput -- --arm-ms 700
run exp_pipelined_rpc -- --smoke
run exp_replication -- --burst 1500 --records 1500
run exp_load -- --smoke
run exp_federation -- --smoke
run exp_selfheal -- --smoke

[ -z "$failed" ] || { echo "FAILED:$failed" >&2; exit 1; }
