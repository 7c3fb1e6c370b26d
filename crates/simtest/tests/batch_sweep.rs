//! The batched seed sweep: 120 seeds cycling through every fault plan,
//! each driving mixed-size `PredictMany` batches through the
//! three-replica batch world. Failing seeds are
//! reported by number so they can be replayed locally via
//! `SIMTEST_BATCH_SEED=<seed> cargo test -p simtest batch_replay -- --nocapture`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simtest::{run_batch_seed, FaultPlan};

const SEEDS: u64 = 120;

#[test]
fn batch_sweep_across_all_fault_plans() {
    let mut failures = Vec::new();
    for seed in 0..SEEDS {
        let plan = FaultPlan::for_seed(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| run_batch_seed(seed, &plan))) {
            let detail = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            eprintln!("batch seed {seed} (plan '{}') FAILED:\n{detail}\n", plan.name);
            failures.push(seed);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {SEEDS} batched seeds violated invariants: {failures:?} — replay with SIMTEST_BATCH_SEED=<seed> \
         cargo test -p simtest batch_replay -- --nocapture",
        failures.len()
    );
}

/// On a clean network every key is answered correctly and the daemons'
/// own counters show batched traffic (frames and keys move separately).
#[test]
fn clean_batches_answer_every_key_and_count_keys_not_frames() {
    for seed in [0, 3, 39] {
        let report = run_batch_seed(seed, &FaultPlan::none());
        assert_eq!(report.keys_failed, 0, "seed {seed} lost keys on a perfect network");
        assert_eq!(report.keys_ok, report.keys_asked, "seed {seed}: every asked key answered");
        assert!(report.batch_calls >= 20, "seed {seed}: choreography ran all phases");
        assert!(report.daemon_batches > 0, "seed {seed}: daemons saw no accepted batches");
    }
}

/// The batch world is as deterministic as the others: the same seed
/// yields a byte-identical virtual-time event log.
#[test]
fn batch_world_is_deterministic() {
    let a = run_batch_seed(42, &FaultPlan::chaos());
    let b = run_batch_seed(42, &FaultPlan::chaos());
    assert_eq!(a.log, b.log, "same seed, same batched history");
    assert_eq!(a.keys_asked, b.keys_asked);
}

/// Replay hook: `SIMTEST_BATCH_SEED=<seed> cargo test -p simtest
/// batch_replay -- --nocapture` re-runs one seed under its sweep plan
/// and dumps the full event log.
#[test]
fn batch_replay() {
    let Some(seed) = simtest::replay_seed("SIMTEST_BATCH_SEED") else { return };
    let plan = FaultPlan::for_seed(seed);
    println!("replaying batch seed {seed} under plan '{}'", plan.name);
    let report = run_batch_seed(seed, &plan);
    for line in &report.log {
        println!("{line}");
    }
    println!(
        "seed {seed}: {} batched calls, {} keys asked, {} ok, {} failed",
        report.batch_calls, report.keys_asked, report.keys_ok, report.keys_failed
    );
}
