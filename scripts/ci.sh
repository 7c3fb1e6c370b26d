#!/usr/bin/env bash
# The CI jobs, runnable on any box: every stage below is one job of
# .github/workflows/ci.yml, which only checks out, restores a cache and
# calls this script with the stage's name.
#
#   scripts/ci.sh                     every stage, in the order listed
#   scripts/ci.sh fmt clippy          just those stages
#   scripts/ci.sh simtest shm         one simtest world (no world = all seven)
#
# Stages: fmt clippy tier1 workspace docs simtest benchmark-builds campaign.
# Needs no network (every dependency is a path under vendor/); the
# benchmark-builds stage needs `jq`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_NET_OFFLINE=true

stages=(fmt clippy tier1 workspace docs simtest benchmark-builds campaign)
worlds=(pipeline fleet store batch cluster adapt shm)

run() {
    echo "+ $*" >&2
    "$@"
}

stage_fmt() { run cargo fmt --check; }

stage_clippy() { run cargo clippy --workspace --all-targets -- -D warnings; }

# ROADMAP's Tier-1 verify, word for word.
stage_tier1() {
    run cargo build --release
    run cargo test -q
}

stage_workspace() { run cargo test -q --workspace; }

stage_docs() { RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps; }

# One world: its full seed sweep through the one driver
# (crates/simtest/src/sweep.rs), then the tests that check the same
# semantics over real sockets, ring files and processes. The package's
# scenario and unit tests run once, in the workspace stage. A failing run
# prints the line that replays exactly it,
#   SIMTEST_SEED=<world>:<seed>[:<case>] cargo test -p simtest replay -- --nocapture
# and dumps its telemetry export and event log into $SIMTEST_TRACE_DIR.
# Not a gate, but the proof a change that must not move a simulated run
# owes: one log-only and one log+summary hash per world over its full
# seed range — run on the parent tree and on the change, compare lines:
#   cargo test -q -p simtest --release --test sweep world_hashes -- --ignored --nocapture
simtest_world() {
    run cargo test -q -p simtest --release --test sweep "$1"
    case $1 in
    fleet) # kill mid-load with zero lost predictions, rejoin + re-preload
        run cargo test -q -p chronusd --release --test fleet_failover ;;
    store) # catch-up with zero Preload RPCs, misses resolved from the store, fleet-wide rollback; the CLI as separate processes
        run cargo test -q -p chronusd --release --test store_durability --test cli_binary --test cli_table ;;
    batch) # concurrent callers of one RemotePrediction over real TCP
        run cargo test -q -p chronusd --release --test e2e_remote concurrent_callers_are_serialised ;;
    cluster) # cap conservation, partition isolation and drain as properties
        run cargo test -q -p eco-slurm-sim --release --test properties ;;
    adapt) # drift hysteresis, reservoir eviction, refit, canary verdicts
        run cargo test -q -p eco-adapt --release ;;
    shm) # a real daemon on a real ring file; codec + endpoint proptests
        run cargo test -q -p chronusd --release --test shm_daemon
        run cargo test -q -p chronus --release --test shm_proptest --test endpoint_proptest ;;
    esac
}

# benchmark/ is its own workspace with path dependencies on crates/ and
# vendor/, so no other stage compiles it: a crates/ API change that breaks
# it must fail here, not in the benchmark run. The short runs have the
# correctness oracle on (cap never crossed, every job terminal, every
# rewrite the model's answer) and the binary exits 1 on `correct: false`.
# Traced runs add the layer-share check: `sched-deep` must spend over 85 %
# of a submission in the scheduler (scripts/sched_share.sh is red already
# under 90 %), `submit-tcp` under 25 % — so a pass, or a submit path, that
# got much cheaper is red here and not a failed benchmark run.
stage_benchmark-builds() {
    run cargo build --release --offline --manifest-path benchmark/Cargo.toml
    run cargo test --offline --manifest-path benchmark/Cargo.toml
    run benchmark/run.sh --workload sched-deep --seed 1 --seconds 2 --trace 0
    run benchmark/run.sh --workload submit-tcp --seed 1 --seconds 2 --trace 0
    run scripts/sched_share.sh 2
    run benchmark/run.sh --workload submit-tcp --seed 1 --seconds 2 --trace 1
    # the only workload that drives Preload -> model source -> republish
    run benchmark/run.sh --workload refresh-mix --seed 1 --seconds 2 --trace 0
}

# The campaign E2E suite (adaptive-vs-brute optimum, crash/resume, storage
# faults) plus the multi-seed fault sweep, then campaign → model →
# live-daemon rollout over real TCP. A failing sweep seed dumps its trial
# journal into $CAMPAIGN_JOURNAL_DIR and is reproducible with
#   CAMPAIGN_SEED=<seed> cargo test -p eco-campaign --test fault_sweep -- --nocapture
stage_campaign() {
    run cargo test -q -p eco-campaign --release
    run cargo test -q -p chronusd --release --test campaign_rollout
}

[[ $# -gt 0 ]] || set -- "${stages[@]}"
while [[ $# -gt 0 ]]; do
    stage=$1
    shift
    echo "== ci.sh: $stage" >&2
    if [[ $stage == simtest ]]; then
        if [[ " ${worlds[*]} " == *" ${1:-} "* ]]; then
            simtest_world "$1"
            shift
        else
            for world in "${worlds[@]}"; do simtest_world "$world"; done
        fi
    elif [[ " ${stages[*]} " == *" $stage "* ]]; then
        "stage_$stage"
    else
        echo "ci.sh: unknown stage '$stage' (stages: ${stages[*]}; simtest worlds: ${worlds[*]})" >&2
        exit 2
    fi
done
echo "== ci.sh: green" >&2
