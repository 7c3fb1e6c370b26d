#!/usr/bin/env bash
# Slurm's own share of a traced `sched-deep` submission, seeds 1-3, and
# what the scheduler decided on each.
#
#   scripts/sched_share.sh [seconds]        default 16, the benchmark's run length
#
# The benchmark's traced run refuses a `sched-deep` submission that spends
# 85 % or less in the scheduler (`layer_share_checks`, benchmark/src/main.rs).
# This prints, per seed, `correct`, `slurm.submit_self_ns` and that share,
# recomputed from the JSON result line the way the check computes it:
# self time over the accounted layers scaled back up by
# `submit.accounted_ratio`. Exits 1 if any run is incorrect or any share is
# under 90 % - five points above the floor, so a faster pass is stopped
# here and not by a failed benchmark run.
#
# It also exits 1 if a seed's oracle moved: `slurm.jobs_completed`,
# `slurm.makespan_sim_s`, `slurm.ticks` and `slurm.energy_mj` against the
# literals below, which a change that only makes the scheduler cheaper
# must reproduce. The first three are compared exactly. `energy_mj` is a
# mean over the run's rounds, so its last digit follows the round count
# (seed 1 reads 0.6688531648902644 at 2 s, 0.668853164890264 at 16 s);
# it is compared to within 1e-12 of its value, far below what one moved
# job start changes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seconds=${1:-16}
# per seed: [jobs_completed, makespan_sim_s, ticks, energy_mj], at 16 s
oracle=(
    [1]='[256, 366, 366, 0.668853164890264]'
    [2]='[256, 353, 353, 0.6627455390974253]'
    [3]='[256, 365, 365, 0.6631354515004895]'
)
status=0
for seed in 1 2 3; do
    # the binary exits 1 on `correct: false`; its result line says so too
    result=$(benchmark/run.sh --workload sched-deep --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1) || true
    line=$(jq -r --arg seed "$seed" --argjson want "${oracle[$seed]}" '
        .metrics as $m | def v(k): $m[k].value;
        ((v("slurm.submit_self_ns") + v("slurm.parse_script_ns") + v("eco-plugin.self_ns")
            + v("core.storage.load_settings_ns")) / v("submit.accounted_ratio")) as $submission_ns
        | (1000 * v("slurm.submit_self_ns") / $submission_ns | round / 10) as $share
        | [v("slurm.jobs_completed"), v("slurm.makespan_sim_s"), v("slurm.ticks"), v("slurm.energy_mj")] as $got
        | ($got[:3] == $want[:3] and ($got[3] - $want[3] | if . < 0 then -. else . end) <= 1e-12 * $want[3]) as $same
        | "sched-deep seed \($seed): correct=\(.correct) slurm.submit_self_ns=\(v("slurm.submit_self_ns")) share=\($share) % "
          + "oracle=\(if $same then "held" else "MOVED \($got) != \($want)" end) "
          + (if .correct and $share >= 90 and $same then "ok" else "REFUSED" end)
    ' <<<"$result") || line="sched-deep seed $seed: no result line REFUSED"
    echo "$line"
    [[ $line == *ok ]] || status=1
done
exit $status
