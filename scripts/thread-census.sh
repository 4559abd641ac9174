#!/bin/sh
# CPU time and voluntary context switches per completed job, per thread
# group, of one run of the frozen benchmark:
#
#   scripts/thread-census.sh [--seed N] [--seconds S] WORKLOAD
#   scripts/thread-census.sh --pid PID --log FILE
#
# The first form builds the benchmark (--offline, into $CENSUS_TARGET_DIR,
# default target/census) and runs WORKLOAD at seed N (default 1) for S
# seconds (default BENCHMARK.json's run_seconds) with --trace 0, its
# output in $CENSUS_DIR (default: a new `mktemp -d`, kept). The second
# samples a run already started, whose stdout goes to FILE.
#
# Every 10 ms, until the run exits, it reads /proc/PID/task/*/stat (utime
# + stime) and status (name, voluntary_ctxt_switches); a thread's last
# sample is its total. The benchmark pins itself to the lowest-numbered
# CPU it may use, so the sampler moves itself (taskset) to the highest.
# Threads are grouped by name less a trailing worker number: the services'
# workers (`faucets-fd`, `faucets-fs`, `faucets-appspec` — the name is cut
# at 15 bytes — and any other service), the reference echo, and `callers`:
# the threads that kept the process's own name (the main thread and the
# load generator's scoped callers). The idle spinner is left out. The job
# count is the sum of the run's "completed per FD [...]" line.
#
# A thread that exits between two samples loses the time and switches of
# its last 10 ms, and one that lives less than 10 ms may never be seen:
# short-lived caller threads are undercounted. CPU time is read in clock
# ticks (getconf CLK_TCK, 10 ms at 100 Hz), exact only in sum over a run.
# POSIX sh and awk.
set -eu
cd "$(dirname "$0")/.."

die() {
    echo "thread-census: $*" >&2
    exit 1
}
usage() {
    die "usage: $0 [--seed N] [--seconds S] WORKLOAD | $0 --pid PID --log FILE"
}

seed=1
seconds=$(awk '$1 == "\"run_seconds\":" { gsub(/,/, "", $2); print $2 }' BENCHMARK.json)
pid=
log=
while [ $# -gt 0 ]; do
    case $1 in
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --pid) [ $# -ge 2 ] || usage; pid=$2; shift 2 ;;
    --log) [ $# -ge 2 ] || usage; log=$2; shift 2 ;;
    -*) usage ;;
    *) break ;;
    esac
done

# Sample from the last CPU this process may use, away from the run's,
# which is started on all of them and pins itself to the first.
run_on=
if command -v taskset > /dev/null; then
    allowed=$(taskset -cp $$ | awk '{ print $NF }')
    last=$(echo "$allowed" | awk '{ n = split($1, r, /[,-]/); print r[n] }')
    taskset -cp "$last" $$ > /dev/null || true
    run_on="taskset -c $allowed"
fi

work=${CENSUS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/thread-census.XXXXXX")}
mkdir -p "$work"
if [ -z "$pid" ]; then
    [ $# -eq 1 ] || usage
    target=${CENSUS_TARGET_DIR:-target/census}
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml || die "the benchmark does not build"
    log="$work/run.txt"
    $run_on "$target/release/faucets-benchmark" --workload "$1" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$work/res" > "$log" 2>&1 &
    pid=$!
    echo "thread-census: $1 seed $seed, pid $pid, in $work" >&2
else
    [ $# -eq 0 ] && [ -n "$log" ] || usage
fi

samples="$work/samples.txt"
: > "$samples"
# Until the run exits (a child of this script stays a zombie until waited).
running() {
    state=$(awk '{ sub(/^.*\) /, ""); print $1 }' "/proc/$pid/stat" 2> /dev/null) || return 1
    [ -n "$state" ] && [ "$state" != Z ]
}
while running; do
    # One line per thread: tid, name, ticks, voluntary switches.
    awk '
        FNR == 1 {
            n = split(FILENAME, p, "/")
            tid = p[n - 1]
        }
        FILENAME ~ /\/stat$/ {
            sub(/^.*\) /, "")
            split($0, f, " ")
            ticks[tid] = f[12] + f[13]
        }
        FILENAME ~ /\/status$/ && $1 == "Name:" { name[tid] = $2 }
        FILENAME ~ /\/status$/ && $1 == "voluntary_ctxt_switches:" { vol[tid] = $2 }
        END {
            for (t in ticks) if (t in vol) print t, name[t], ticks[t], vol[t]
        }
    ' /proc/"$pid"/task/*/stat /proc/"$pid"/task/*/status 2> /dev/null >> "$samples" || true
    sleep 0.01
done
wait "$pid" 2> /dev/null || true

jobs=$(awk '/completed per FD \[/ {
    s = $0
    sub(/.*completed per FD \[/, "", s)
    sub(/\].*/, "", s)
    n = split(s, c, /, */)
    for (i = 1; i <= n; i++) total += c[i]
    print total
    exit
}' "$log")
[ -n "$jobs" ] && [ "$jobs" -gt 0 ] || die "no \"completed per FD\" line in $log"

echo "thread-census: $jobs jobs; per completed job:"
printf '  %-18s %8s %12s %12s\n' group threads cpu_us/job vol_sw/job
awk -v jobs="$jobs" -v pid="$pid" -v hz="$(getconf CLK_TCK)" '
    # A thread is its last sample: its totals only grow.
    { ticks[$1] = $3; vol[$1] = $4; name[$1] = $2 }
    END {
        main = name[pid]
        for (t in ticks) {
            g = name[t]
            if (g == "idle-spinner") continue
            if (g == main) g = "callers"
            sub(/-[0-9]+$/, "", g)
            cpu[g] += ticks[t]; sw[g] += vol[t]; threads[g]++
        }
        for (g in cpu)
            printf "  %-18s %8d %12.1f %12.3f\n", g, threads[g], cpu[g] * 1e6 / hz / jobs, sw[g] / jobs
    }
' "$samples" | sort
