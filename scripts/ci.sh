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
# Two simtest proofs are not stages (see simtest_world): the event-log
# hashes of two trees (scripts/world_hashes.sh) and the seed-odds scan
# (the ignored `seed_odds` test of crates/simtest/tests/sweep.rs).
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
# seed range, on a parent revision and on the working tree, side by side
# (exits 1 if a line differs; not a stage, since a change may move a
# hash on purpose):
#   scripts/world_hashes.sh [REV]
# Nor is the seed-odds scan beside it, which prints each plan cell's
# failed/N over N seeds past the sweep's own (how thin a cell is):
#   SIMTEST_SCAN=[<world>:]<N>|<from>..<to> cargo test -q -p simtest --release --test sweep seed_odds -- --ignored --nocapture
simtest_world() {
    run cargo test -q -p simtest --release --test sweep "$1"
    case $1 in
    pipeline) # the daemon's counter table, which every world's ledger audit reads, optimised; the submit-budget audit's real-socket side: the plugin's production source against a warm daemon serving the model store the staged model was committed to, a dead and a silent daemon; the accept loop, the Busy bounce, a slow store refresh and the connection threads over real sockets, optimised
        run cargo test -q -p chronusd --release --lib service
        run cargo test -q -p chronusd --release --test e2e_remote --test daemon ;;
    fleet) # the client's routing and failover over Scripted transports (endpoint order, a whole batch to the first replica, probes), optimised; kill the first replica mid-load with zero lost predictions; a restarted replica comes back warm from its store, rejoins and answers
        run cargo test -q -p chronus --release --lib remote::client
        run cargo test -q -p chronusd --release --test fleet_failover ;;
    store) # the store world's coverage pins, optimised; the journal codec (chronus::integrations::codec) and fold proptests; catch-up with zero Preload RPCs, every serving key held from boot, a key rolled back past answering Miss, fleet-wide rollback; the CLI as separate processes: load-model commits to the home store, and a daemon over it answers what the local slurm-config does
        run cargo test -q -p simtest --release --test scenarios store
        run cargo test -q -p eco-store --release
        run cargo test -q -p chronusd --release --test store_durability --test cli_binary --test cli_table ;;
    batch) # concurrent callers of one RemotePrediction over real TCP; the answer table's one map under one lock: readers racing a stream of refreshes, and concurrent writers, optimised
        run cargo test -q -p chronusd --release --test e2e_remote concurrent_callers_are_serialised
        run cargo test -q -p chronusd --release --lib registry ;;
    cluster) # cap conservation, partition isolation and drain as properties
        run cargo test -q -p eco-slurm-sim --release --test properties ;;
    adapt) # drift hysteresis, reservoir eviction, refit, canary verdicts
        run cargo test -q -p eco-adapt --release ;;
    shm) # the mailbox's own tests optimised; a real daemon on a real ring file; codec + endpoint proptests
        run cargo test -q -p chronus --release --lib remote::shm
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
# got much cheaper is red here and not a failed benchmark run — and the
# transport arm: TCP workloads wait on TCP only, `submit-shm` on the ring.
stage_benchmark-builds() {
    run cargo build --release --offline --manifest-path benchmark/Cargo.toml
    run cargo test --offline --manifest-path benchmark/Cargo.toml
    run benchmark/run.sh --workload sched-deep --seed 1 --seconds 2 --trace 0
    run benchmark/run.sh --workload submit-tcp --seed 1 --seconds 2 --trace 0
    run scripts/sched_share.sh 2
    run benchmark/run.sh --workload submit-tcp --seed 1 --seconds 2 --trace 1
    # the ring workload's layer checks: waits on the ring, never on TCP, no ticks
    run benchmark/run.sh --workload submit-shm --seed 1 --seconds 2 --trace 1
    # the only workload that drives Preload -> model source -> republish
    run benchmark/run.sh --workload refresh-mix --seed 1 --seconds 2 --trace 0
}

# The campaign E2E suite (adaptive-vs-brute optimum, crash/resume, storage
# faults) plus the multi-seed fault sweep, whose every seed tears the
# journal's last append before resuming, then the record store's own
# torn-append tests (the journal's file format), then campaign → model →
# store commit → live-daemon rollout over real TCP, the daemon serving
# that store, then the model path's own suites optimised (eco-ml, serde,
# serde_json; the workspace stage runs them unoptimised), then the fit
# pins (each fit's bytes, R² and choice; the golden blobs) in the release
# build the benchmark ships, which Tier-1 checks only in debug. A failing
# sweep seed dumps its trial journal into $CAMPAIGN_JOURNAL_DIR and is
# reproducible with
#   CAMPAIGN_SEED=<seed> cargo test -p eco-campaign --test fault_sweep -- --nocapture
stage_campaign() {
    run cargo test -q -p eco-campaign --release
    run cargo test -q -p chronus --release --lib integrations::record_store
    run cargo test -q -p chronusd --release --test campaign_rollout
    # the `chronus campaign` CLI: run interrupted, status, resume + commit to the home store + rollout
    run cargo test -q -p chronusd --release --test cli_binary campaign
    # the model path optimised: the forest against its bit-for-bit oracle
    # (growth, lockstep scoring, the fit's one scoring pass), and the JSON
    # codec every blob and journal frame is written and read with
    run cargo test -q -p eco-ml --release
    run cargo test -q -p serde -p serde_json --release
    # the fit pins optimised: forest bytes, R² bits and argmax per fit
    run cargo test -q --release --test forest_fit_pinned
    run cargo test -q -p chronus --release --test golden
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
