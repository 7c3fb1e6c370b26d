#!/usr/bin/env bash
# Event logs of two trees, side by side: the "event logs unchanged" proof.
#
#   scripts/world_hashes.sh [REV]     REV defaults to HEAD
#
# Exports REV (`git archive`) into target/world-hashes/<sha>/tree and runs
# the ignored `world_hashes` test of crates/simtest/tests/sweep.rs there and
# on the working tree, each with its own CARGO_TARGET_DIR: REV builds into
# target/world-hashes/<sha>/target, kept between runs (an archive stamps
# every file with the commit's time, so one target dir per commit keeps
# cargo from taking another commit's build as fresh), the working tree into
# target/. Each line is one world: a hash of every event log over its full
# seed range, and one of logs + summaries. Prints REV's column and the
# working tree's, and exits 1 if any line differs. Not a ci.sh stage: a
# change may move a hash on purpose, and then says which and why.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_NET_OFFLINE=true
rev=${1:-HEAD}
sha=$(git rev-parse --verify "$rev^{commit}")
root=$PWD/target/world-hashes/$sha
rm -rf "$root/tree"
mkdir -p "$root/tree"
git archive "$sha" | tar -x -C "$root/tree"

# The hash lines of the tree at $1, built into the target dir $2.
hashes() {
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo test -q -p simtest --release --test sweep world_hashes \
        -- --ignored --nocapture) | grep -E '^[a-z]+ +seeds ' || true
}
old=$(hashes "$root/tree" "$root/target")
new=$(hashes "$PWD" "$PWD/target")
mapfile -t old <<<"$old"
mapfile -t new <<<"$new"

printf '%-74s %s\n' "$rev (${sha:0:12})" "working tree"
status=0
for ((i = 0; i < ${#old[@]} || i < ${#new[@]}; i++)); do
    mark=
    if [[ -z ${old[i]:-} || ${old[i]:-} != "${new[i]:-}" ]]; then
        mark='  <- differs'
        status=1
    fi
    printf '%-74s %s%s\n' "${old[i]:-(none)}" "${new[i]:-(none)}" "$mark"
done
exit $status
