#!/bin/sh
# The counts ROADMAP items 3 and 4 track, for a PR description or the CI job
# summary. Report only: nothing here fails a build.
#   1. non-test lines: the lines before a file's first `#[cfg(test)]`, for
#      every file of crates/net/src and for crates/store/src/replicate.rs;
#   2. option fields: the `pub` fields of the option structs a caller fills
#      in, plus FaucetsClient's configuration fields (its `pub` fields less
#      the session state: token, user, last_trace);
#   3. the experiment crate: all lines of crates/bench/src, and how often a
#      result is still serialized by hand (`json!` sites) or an arm result
#      declared (`struct ArmResult`): one report writer, one driver.
cd "$(dirname "$0")/.." || exit 1

non_test() { awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }

echo "| file | non-test lines |"
echo "|---|---:|"
total=0
for f in $(find crates/net/src -name '*.rs' | sort); do
    n=$(non_test "$f")
    total=$((total + n))
    echo "| $f | $n |"
done
echo "| **crates/net/src** | **$total** |"
echo "| crates/store/src/replicate.rs | $(non_test crates/store/src/replicate.rs) |"
echo

# Every `pub name:` line between `pub struct $1 {` and its closing brace.
fields() {
    cat crates/net/src/*.rs crates/net/src/*/*.rs | awk -v s="$1" '
        $0 ~ "^pub struct " s " \\{" { on = 1; next }
        on && /^}/ { on = 0 }
        on && /^    pub [a-z_]+:/ && $2 !~ /^(token|user|last_trace):$/ { n++ }
        END { print n + 0 }'
}

echo "| struct | settable fields |"
echo "|---|---:|"
total=0
for s in FdOptions FsOptions ServeOptions CallOptions PoolConfig MuxConfig \
    BreakerConfig GateConfig ReplicationConfig ReplicaOptions SentinelOptions \
    FederationOptions FaucetsClient; do
    n=$(fields "$s")
    total=$((total + n))
    echo "| $s | $n |"
done
echo "| **total** | **$total** |"
echo

bench=$(find crates/bench/src -name '*.rs' | sort)
echo "| crates/bench/src | count |"
echo "|---|---:|"
echo "| total lines | $(cat $bench | wc -l) |"
echo "| \`json!\` sites | $(cat $bench | grep -c 'json!') |"
echo "| \`ArmResult\` declarations | $(cat $bench | grep -c 'struct ArmResult') |"
