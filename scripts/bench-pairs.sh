#!/bin/sh
# Alternating parent/change pairs of the frozen benchmark, as one command:
#
#   scripts/bench-pairs.sh [--pairs N] [--seed0 S] [--claim WORKLOAD/METRIC] \
#       PARENT_REV [WORKLOAD...]
#
# Builds the benchmark twice, --offline, each with its own CARGO_TARGET_DIR:
# PARENT_REV from a `git archive` export, and the working tree (tracked and
# untracked files, as they are now) from a copy, so the tree may change while
# the pairs run. Pair i runs every workload (default: all of BENCHMARK.json)
# at seed S+i (S defaults to 1, N to 10) on both sides, the parent first in
# even pairs and the change first in odd ones, with --out outside
# benchmark/. A run that is not `correct` or has `failed` > 0 stops the
# script. Then, from each run's final JSON line, for every workload and
# end-to-end metric: median [q1, q3] per side (Python's statistics.median
# and exclusive quantiles), the change of the median, and in how many pairs
# the change was better; then `compare` on the two sets of reports.
#
# With --claim, the claim rule is checked too: of at least 10 pairs, the
# change is better in at least 9 of every 10, and its median is better than
# the parent's by more than the parent's interquartile range. Exit status 1
# if the claim fails, `compare` finds a metric worse, or a run is refused.
#
# Everything goes to $BENCH_PAIRS_DIR (default: a new `mktemp -d`), which
# is kept: the build trees, the reports (res-parent/, res-change/) and
# runs.txt, one line per run and metric. POSIX sh and awk; nothing is
# written under benchmark/.
set -eu
cd "$(dirname "$0")/.."

die() {
    echo "bench-pairs: $*" >&2
    exit 1
}
usage() {
    die "usage: $0 [--pairs N] [--seed0 S] [--claim WORKLOAD/METRIC] PARENT_REV [WORKLOAD...]"
}

pairs=10
seed0=1
claim=
while [ $# -gt 0 ]; do
    case $1 in
    --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    --seed0) [ $# -ge 2 ] || usage; seed0=$2; shift 2 ;;
    --claim) [ $# -ge 2 ] || usage; claim=$2; shift 2 ;;
    -*) usage ;;
    *) break ;;
    esac
done
[ $# -ge 1 ] || usage
parent=$(git rev-parse --verify "$1^{commit}") || die "no commit $1"
shift
# `name`/`better` of the end-to-end metrics, and the workload names.
spec=$(awk '
    /"workloads"/ { part = "workload" }
    /"end_to_end"/ { part = "metric" }
    /"per_layer"/ { part = "" }
    part != "" && $1 == "\"name\":" { gsub(/[",]/, "", $2); name = $2 }
    part == "workload" && $1 == "\"name\":" { print "workload", name }
    part == "metric" && $1 == "\"better\":" { gsub(/[",]/, "", $2); print "metric", name, $2 }
' BENCHMARK.json)
workloads=${*:-$(echo "$spec" | awk '$1 == "workload" { print $2 }')}

work=${BENCH_PAIRS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")}
mkdir -p "$work/parent" "$work/change" "$work/res-parent" "$work/res-change"
: > "$work/runs.txt"
echo "bench-pairs: parent $parent, $pairs pairs from seed $seed0, in $work" >&2

git archive "$parent" | tar -xf - -C "$work/parent"
git ls-files --cached --others --exclude-standard |
    while IFS= read -r f; do [ -e "$f" ] && printf '%s\n' "$f"; done |
    tar -cf - -T - | tar -xf - -C "$work/change"
for side in parent change; do
    echo "bench-pairs: building the $side" >&2
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" || die "the $side does not build"
done

# run SIDE WORKLOAD SEED: one run; its final JSON line, one line per metric,
# goes to runs.txt as "side workload seed metric value".
run() {
    line=$(cd "$work" && "$work/target-$1/release/faucets-benchmark" --workload "$2" \
        --seed "$3" --trace 0 --out "$work/res-$1" | tail -n 1) || true
    echo "$line" | awk -v side="$1" -v w="$2" -v seed="$3" '
        {
            if ($0 !~ /"correct":true/) exit 1
            if (!match($0, /"failed":[0-9]+/) || substr($0, RSTART + 9, RLENGTH - 9) + 0 > 0) exit 1
            rest = $0
            while (match(rest, /"[a-z0-9_]+":\{"value":[-0-9.eE+]+/)) {
                m = substr(rest, RSTART + 1, RLENGTH - 1)
                rest = substr(rest, RSTART + RLENGTH)
                split(m, kv, /":\{"value":/)
                print side, w, seed, kv[1], kv[2]
            }
        }' >> "$work/runs.txt" || die "refused: $1 $2 seed $3 is not correct with 0 failed: $line"
    echo "bench-pairs: $1 $2 seed $3 done" >&2
}

i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    order="parent change"
    [ $((i % 2)) -eq 0 ] || order="change parent"
    for w in $workloads; do
        for side in $order; do
            run "$side" "$w" "$seed"
        done
    done
    i=$((i + 1))
done

verdict=0
{ echo "$spec"; cat "$work/runs.txt"; } | awk -v claim="$claim" '
    function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Exclusive-method quantile (position p(n+1), 1-based, clamped).
    function q(a, n, p,   pos, lo) {
        pos = p * (n + 1)
        if (pos < 1) pos = 1
        if (pos > n) pos = n
        lo = int(pos)
        return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    function med(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
    function fmt(v) {
        if (v < 0) return "-" fmt(-v)
        return v >= 1000 ? sprintf("%.0f", v) : v >= 1 ? sprintf("%.3f", v) : sprintf("%.4g", v)
    }
    $1 == "workload" { wl[++nw] = $2; next }
    $1 == "metric" { ml[++nm] = $2; better[$2] = $3; next }
    { v[$1, $2, $4, $3] = $5; seen[$2, $4, $3] = 1 }
    END {
        print "| workload | metric | parent | change | Δ median | change better |"
        print "|---|---|---:|---:|---:|---:|"
        for (i = 1; i <= nw; i++) for (j = 1; j <= nm; j++) {
            w = wl[i]; m = ml[j]; n = 0; wins = 0
            for (k in seen) {
                split(k, key, SUBSEP)
                if (key[1] != w || key[2] != m) continue
                p[++n] = v["parent", w, m, key[3]]; c[n] = v["change", w, m, key[3]]
                d = c[n] - p[n]
                wins += better[m] == "higher" ? d > 0 : d < 0
            }
            if (n == 0) continue
            sort(p, n); sort(c, n)
            mp = med(p, n); mc = med(c, n); iqr = q(p, n, 0.75) - q(p, n, 0.25)
            printf "| `%s` | `%s` | %s [%s, %s] | %s [%s, %s] | %+.1f %% | %d/%d |\n", w, m,
                fmt(mp), fmt(q(p, n, 0.25)), fmt(q(p, n, 0.75)),
                fmt(mc), fmt(q(c, n, 0.25)), fmt(q(c, n, 0.75)),
                mp == 0 ? 0 : (mc - mp) / mp * 100, wins, n
            if (claim == w "/" m) {
                gain = better[m] == "higher" ? mc - mp : mp - mc
                held = n >= 10 && wins * 10 >= 9 * n && gain > iqr
                verdict = sprintf("claim %s: %s — better in %d/%d pairs (need 9 in 10, of 10 or more), medians %s apart, parent IQR %s",
                    claim, held ? "HOLDS" : "FAILS", wins, n, fmt(gain), fmt(iqr))
                failed = !held
            }
        }
        if (claim != "" && verdict == "") { verdict = "claim " claim ": no such workload/metric"; failed = 1 }
        if (verdict != "") print "\n" verdict
        exit failed
    }' || verdict=1

echo
"$work/target-change/release/faucets-benchmark" compare "$work/res-parent" "$work/res-change" ||
    verdict=1
exit "$verdict"
