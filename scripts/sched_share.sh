#!/usr/bin/env bash
# Slurm's own share of a traced `sched-deep` submission, seeds 1-3.
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
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seconds=${1:-16}
status=0
for seed in 1 2 3; do
    # the binary exits 1 on `correct: false`; its result line says so too
    result=$(benchmark/run.sh --workload sched-deep --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1) || true
    line=$(jq -r --arg seed "$seed" '
        .metrics as $m | def v(k): $m[k].value;
        ((v("slurm.submit_self_ns") + v("slurm.parse_script_ns") + v("eco-plugin.self_ns")
            + v("core.storage.load_settings_ns")) / v("submit.accounted_ratio")) as $submission_ns
        | (1000 * v("slurm.submit_self_ns") / $submission_ns | round / 10) as $share
        | "sched-deep seed \($seed): correct=\(.correct) slurm.submit_self_ns=\(v("slurm.submit_self_ns")) share=\($share) % "
          + (if .correct and $share >= 90 then "ok" else "REFUSED" end)
    ' <<<"$result") || line="sched-deep seed $seed: no result line REFUSED"
    echo "$line"
    [[ $line == *ok ]] || status=1
done
exit $status
