#!/bin/sh
# The counts ROADMAP items 3, 4 and 9 track, for a PR description or the
# CI job summary:
#   1. non-test lines: the lines before a file's first `#[cfg(test)]`, for
#      every file of crates/*/src (the whole workspace), for every file of
#      crates/net/src, for crates/store/src/replicate.rs, and for the
#      market's two runtimes, crates/net/src/client.rs +
#      crates/grid/src/world.rs (ROADMAP item 7);
#   2. option fields: the `pub` fields of the option structs a caller fills
#      in, plus FaucetsClient's configuration fields (its `pub` fields less
#      the session state: token, user, last_trace);
#   3. thread-spawn sites: `thread::{spawn,Builder,scope}` in the non-test
#      lines of crates/net/src and crates/store/src, and client dial sites:
#      `connect_timeout` in the non-test lines of crates/net/src;
#   4. panic sites: `.unwrap()` / `.expect(` in the non-test lines of
#      crates/net/src (ROADMAP item 9 audits each for remote reachability),
#      and wall-clock reads: `Instant::now` / `SystemTime::now` in the
#      non-test lines of crates/net/src and crates/store/src (what ROADMAP
#      item 3's clock seam has to route);
#   5. the experiment crate: all lines of crates/bench/src, and how often a
#      result is still serialized by hand (`json!` sites) or an arm result
#      declared (`struct ArmResult`): one report writer, one driver;
#   6. hand-built daemons: `FaucetsDaemon::new(` call sites in crates/,
#      tests/ and examples/ outside the daemon's own crate (crates/core/src),
#      the one grid description (crates/grid/src/scenario.rs, whose
#      `ScenarioBuilder::node` builds a cluster for both runtimes) and
#      crates/net/src (the CLI's one-FD `faucets fd`, the FD's unit tests):
#      a live grid is launched from a scenario (ROADMAP item 15).
# With `--check` the script is a ratchet, not a report: it prints only what
# is over its ceiling and fails if anything is. A PR that grows one of
# these on purpose raises the ceiling here, in the open; a PR that shrinks
# one lowers it.
cd "$(dirname "$0")/.." || exit 1

MAX_WORKSPACE_LINES=26603  # non-test lines of every crates/*/src
MAX_NET_LINES=7450   # non-test lines of crates/net/src
MAX_POOL_LINES=438  # of crates/net/src/pool.rs
MAX_REPLICATE_LINES=893  # of crates/store/src/replicate.rs
MAX_MARKET_LINES=1734  # of crates/net/src/client.rs + crates/grid/src/world.rs
MAX_OPTION_FIELDS=47
MAX_SPAWN_SITES=2
MAX_DIAL_SITES=1
MAX_PANIC_SITES=6
MAX_CLOCK_READS=25
MAX_DAEMON_BUILDS=1

non_test() { awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }
market_lines=$(($(non_test crates/net/src/client.rs) + $(non_test crates/grid/src/world.rs)))

# Non-test lines of every file in the directories given.
lines_in() {
    n=0
    for f in $(find "$@" -name '*.rs'); do
        n=$((n + $(non_test "$f")))
    done
    echo "$n"
}
workspace_lines=$(lines_in crates/*/src)
net_lines=$(lines_in crates/net/src)

# Every `pub name:` line between `pub struct $1 {` and its closing brace.
fields() {
    cat crates/net/src/*.rs crates/net/src/*/*.rs | awk -v s="$1" '
        $0 ~ "^pub struct " s " \\{" { on = 1; next }
        on && /^}/ { on = 0 }
        on && /^    pub [a-z_]+:/ && $2 !~ /^(token|user|last_trace):$/ { n++ }
        END { print n + 0 }'
}
STRUCTS="FdOptions FsOptions ServeOptions CallOptions PoolConfig BreakerConfig
    GateConfig ReplicationConfig ReplicaOptions SentinelOptions FaucetsClient"
option_fields=0
for s in $STRUCTS; do
    option_fields=$((option_fields + $(fields "$s")))
done

# Non-test lines matching $1 in every file of the directories that follow.
sites() {
    pattern=$1
    shift
    for f in $(find "$@" -name '*.rs'); do
        awk -v p="$pattern" '/#\[cfg\(test\)\]/ { exit } $0 ~ p { print }' "$f"
    done | wc -l
}
spawn_sites=$(sites 'thread::(spawn|Builder|scope)' crates/net/src crates/store/src)
dial_sites=$(sites 'connect_timeout' crates/net/src)
panic_sites=$(sites '\.(unwrap|expect)\(' crates/net/src)
clock_reads=$(sites '(Instant|SystemTime)::now' crates/net/src crates/store/src)
daemon_builds=$(grep -rn --include='*.rs' 'FaucetsDaemon::new(' crates tests examples |
    grep -cv -e '^crates/core/src/' -e '^crates/grid/src/scenario\.rs:' -e '^crates/net/src/')

if [ "$1" = "--check" ]; then
    over=0
    ceiling() {
        if [ "$2" -gt "$3" ]; then
            echo "over its ceiling: $1 is $2, ceiling $3 (scripts/count-surface.sh)"
            over=1
        fi
    }
    ceiling "non-test lines of crates/*/src" "$workspace_lines" "$MAX_WORKSPACE_LINES"
    ceiling "non-test lines of crates/net/src" "$net_lines" "$MAX_NET_LINES"
    ceiling "non-test lines of crates/net/src/pool.rs" \
        "$(non_test crates/net/src/pool.rs)" "$MAX_POOL_LINES"
    ceiling "non-test lines of crates/store/src/replicate.rs" \
        "$(non_test crates/store/src/replicate.rs)" "$MAX_REPLICATE_LINES"
    ceiling "non-test lines of client.rs + world.rs" "$market_lines" "$MAX_MARKET_LINES"
    ceiling "settable option fields" "$option_fields" "$MAX_OPTION_FIELDS"
    ceiling "thread-spawn sites in crates/net/src + crates/store/src" \
        "$spawn_sites" "$MAX_SPAWN_SITES"
    ceiling "client dial sites in crates/net/src" "$dial_sites" "$MAX_DIAL_SITES"
    ceiling "unwrap/expect sites in crates/net/src" "$panic_sites" "$MAX_PANIC_SITES"
    ceiling "wall-clock reads in crates/net/src + crates/store/src" \
        "$clock_reads" "$MAX_CLOCK_READS"
    ceiling "FaucetsDaemon::new( sites outside core, scenario.rs and net/src" \
        "$daemon_builds" "$MAX_DAEMON_BUILDS"
    exit $over
fi

echo "| file | non-test lines |"
echo "|---|---:|"
for f in $(find crates/net/src -name '*.rs' | sort); do
    echo "| $f | $(non_test "$f") |"
done
echo "| **crates/net/src** | **$net_lines** |"
echo "| **crates/\*/src** (the workspace) | **$workspace_lines** |"
echo "| crates/store/src/replicate.rs | $(non_test crates/store/src/replicate.rs) |"
echo "| crates/net/src/client.rs + crates/grid/src/world.rs | $market_lines |"
echo

echo "| struct | settable fields |"
echo "|---|---:|"
for s in $STRUCTS; do
    echo "| $s | $(fields "$s") |"
done
echo "| **total** | **$option_fields** |"
echo

echo "| sites, non-test | count |"
echo "|---|---:|"
echo "| thread spawns, crates/net/src + crates/store/src | $spawn_sites |"
echo "| client dials (\`connect_timeout\`), crates/net/src | $dial_sites |"
echo "| \`unwrap\`/\`expect\`, crates/net/src | $panic_sites |"
echo "| wall-clock reads (\`Instant::now\`/\`SystemTime::now\`), crates/net/src + crates/store/src | $clock_reads |"
echo "| \`FaucetsDaemon::new(\` outside crates/core/src, scenario.rs, crates/net/src | $daemon_builds |"
echo

bench=$(find crates/bench/src -name '*.rs' | sort)
echo "| crates/bench/src | count |"
echo "|---|---:|"
echo "| total lines | $(cat $bench | wc -l) |"
echo "| \`json!\` sites | $(cat $bench | grep -c 'json!') |"
echo "| \`ArmResult\` declarations | $(cat $bench | grep -c 'struct ArmResult') |"
