#!/usr/bin/env bash
# Alternating benchmark pairs: two checkouts, one or more workloads,
# untraced runs.
#
#   scripts/bench_pairs.sh <parent-tree> <change-tree> <workload>[,<workload>...] [pairs] [seed]
#
# Runs `pairs` (default 10) pairs of untraced runs of each workload on
# `seed` (default 1), each at the benchmark's own run length (`run_seconds`
# in the change tree's BENCHMARK.json), one workload's series after the
# other. Pair i runs the parent first when i is odd and the change first
# when it is even. Each tree runs its own benchmark/run.sh, so each builds
# and uses its own benchmark/target.
#
# Prints, per workload, a header line, one row per run (pair, side,
# correct, failed and every end-to-end metric), then per metric each
# side's median and quartiles, the pairs the change won (ties count for
# neither side), whether the gain rule holds (the change wins at least
# nine tenths of the pairs and the medians differ by more than the
# parent's interquartile range), and the no-regression verdict against
# the metric's `bound` in BENCHMARK.json:
#   within bound        the change's median is worse than the parent's by
#                       at most `bound` (a share of the parent's median)
#   worse beyond bound  it is worse by more
#   unresolved          the parent's own spread (interquartile range over
#                       median, as benchmark/README.md defines it) exceeds
#                       the bound, and not every change run beats every
#                       parent run
# Needs `jq`.
set -euo pipefail
if [[ $# -lt 3 ]]; then
    echo "usage: $0 <parent-tree> <change-tree> <workload>[,<workload>...] [pairs] [seed]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
IFS=, read -ra workloads <<<"$3"
pairs=${4:-10}
seed=${5:-1}
seconds=$(jq -r .run_seconds "$change/BENCHMARK.json")
metrics=$(jq -c '[.end_to_end[] | {name, better, bound}]' "$change/BENCHMARK.json")
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run of `tree`; appends its result line, tagged with pair and side.
run() {
    local pair=$1 side=$2 tree=$3 line
    line=$(env -u CARGO_TARGET_DIR "$tree/benchmark/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    jq -c --argjson pair "$pair" --arg side "$side" '{pair: $pair, side: $side} + .' <<<"$line" >>"$runs" \
        || jq -nc --argjson pair "$pair" --arg side "$side" '{pair: $pair, side: $side, correct: false}' >>"$runs"
    jq -r --argjson m "$metrics" '
        [.pair, .side, "correct=\(.correct)", "failed=\(.failed // "-")"]
        + [$m[].name as $k | "\($k)=\(.metrics[$k].value // "-")"] | join("  ")' <<<"$(tail -n 1 "$runs")"
}

# One workload's series: its header, a row per run, its summary block.
series() {
    local workload=$1 i
    : >"$runs"
    echo "# $workload seed=$seed seconds=$seconds pairs=$pairs parent=$parent change=$change"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run "$i" parent "$parent"
            run "$i" change "$change"
        else
            run "$i" change "$change"
            run "$i" parent "$parent"
        fi
    done
    jq -rs --argjson m "$metrics" --argjson pairs "$pairs" '
        def q(p): sort as $v | ($v | length) as $n | (($n - 1) * p) as $h | ($h | floor) as $i
            | if $n == 0 then null elif $i + 1 >= $n then $v[$i] else $v[$i] + ($h - $i) * ($v[$i + 1] - $v[$i]) end;
        def r: if . == null then null else (. * 1000 | round) / 1000 end;
        def stats: "median \(q(0.5) | r) [q1 \(q(0.25) | r), q3 \(q(0.75) | r)]";
        def pct: if . == null then "-" else "\(. * 1000 | round / 10) %" end;
        . as $runs
        | "# runs correct: \([$runs[] | select(.correct == true)] | length) of \($runs | length); failed ops: parent \([$runs[] | select(.side == "parent") | .failed // 0] | add), change \([$runs[] | select(.side == "change") | .failed // 0] | add)",
          ($m[] | .name as $k | .better as $better | .bound as $bound
            | [$runs[] | select(.side == "parent") | .metrics[$k].value // empty] as $p
            | [$runs[] | select(.side == "change") | .metrics[$k].value // empty] as $c
            | [range(1; $pairs + 1) as $i
                | ([$runs[] | select(.pair == $i and .side == "parent") | .metrics[$k].value][0]) as $a
                | ([$runs[] | select(.pair == $i and .side == "change") | .metrics[$k].value][0]) as $b
                | select($a != null and $b != null and $a != $b)
                | if ($better == "lower") == ($b < $a) then 1 else 0 end] as $won
            | (($c | q(0.5)) - ($p | q(0.5))) as $delta
            | (($p | q(0.75)) - ($p | q(0.25))) as $iqr
            | ($p | q(0.5)) as $pm
            | (if $pm == null or $pm == 0 then null else $iqr / ($pm | fabs) end) as $spread
            | (if $pm == null or $pm == 0 or $delta == null then null
               else (if $better == "lower" then $delta else -$delta end) / ($pm | fabs) end) as $worse
            | (if ($p | length) == 0 or ($c | length) == 0 then false
               elif $better == "lower" then ($c | max) < ($p | min)
               else ($c | min) > ($p | max) end) as $beats_all
            | (if $worse == null then "unresolved"
               elif ($spread // 0) > $bound and ($beats_all | not) then "unresolved"
               elif $worse <= $bound then "within bound"
               else "worse beyond bound" end) as $verdict
            | "\($k) (\($better) is better): parent \($p | stats) | change \($c | stats) | change won \($won | add // 0) of \($pairs) pairs | median delta \($delta | r), parent IQR \($iqr | r) | gain rule "
              + (if ($won | add // 0) * 10 >= 9 * $pairs and ($delta | fabs) > $iqr
                    and (($better == "lower") == ($delta < 0)) then "holds" else "not met" end)
              + " | no-regression \($verdict) (change worse by \($worse | pct), parent spread \($spread | pct), bound \($bound | pct))")
    ' "$runs"
}

for workload in "${workloads[@]}"; do
    series "$workload"
done
