#!/usr/bin/env bash
# The one command: builds the benchmark offline (a no-op when it is
# built) and runs it. With no arguments it runs every workload, tracing
# off and then on, and prints every metric by name with its unit.
#
#   benchmark/run.sh                                   the whole suite
#   benchmark/run.sh --workload submit-tcp --seed 1 --seconds 16 --trace 0
#   benchmark/run.sh --repeat 5                        spread self-check
#
# Temp files go to benchmark/out/ unless BENCH_TMPDIR says otherwise.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/eco-benchmark" "$@"
