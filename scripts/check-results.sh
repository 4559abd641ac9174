#!/bin/sh
# Rerun every simulation experiment that has a committed results/exp_<name>.txt
# and byte-compare its stdout with that file, from the repository root. The
# simulations are seeded, so any difference is a change in behaviour: either
# a bug, or a change to commit together with the regenerated file
# (EXPERIMENTS.md, "How to regenerate everything"). Left out of the
# comparison, because they are not functions of the seed:
#   - exp_architecture (E1): it drives the live TCP services, so ports and
#     heartbeat counts vary;
#   - the last column of exp_scalability's table (E9): broker wall time;
#   - each file's closing "E<n> PASS — wrote BENCH_<name>.json" line (a
#     FAIL is caught by the binary's exit status instead).
cd "$(dirname "$0")/.." || exit 1
cargo build --release -p faucets-bench || exit 1

# The comparable part of one experiment's stdout.
comparable() {
    grep -v '^E[0-9a-z]* [A-Z]* — wrote ' |
        if [ "$1" = exp_scalability ]; then
            sed -E 's/^( +[0-9]+ .*[0-9]) +[0-9.]+$/\1/'
        else
            cat
        fi
}

failed=""
for file in results/exp_*.txt; do
    name=$(basename "$file" .txt)
    [ "$name" = exp_architecture ] && continue
    if out=$(cargo run --release --quiet -p faucets-bench --bin "$name") &&
        [ "$(echo "$out" | comparable "$name")" = "$(comparable "$name" <"$file")" ]; then
        echo "same     $file"
    else
        echo "DIFFERS  $file"
        failed="$failed $name"
    fi
done

[ -z "$failed" ] || { echo "FAILED:$failed" >&2; exit 1; }
