//! What the sweeps cannot say: a sweep proves "no invariant broke", these
//! prove the runs did what the worlds exist to show — and that every
//! fault family is survivable on its own, so a regression report names
//! the family that broke instead of just "the sweep failed". Every
//! `run_*_seed` panics internally on any invariant violation, with the
//! `SIMTEST_SEED=<world>:<seed>:<case>` line that replays it.

use simtest::sweep::world;
use simtest::{
    adapt_plans, cluster_worlds, run_adapt_seed, run_batch_seed, run_cluster_seed, run_fleet_seed, run_seed,
    run_shm_seed, run_store_seed, FaultPlan, CLUSTER_SUBMISSIONS, FLEET_REPLICAS, STORE_ROUNDS,
};

/// One fault family at a time through the pipeline world, three seeds
/// each (a failure names the plan in its replay line).
#[test]
fn every_fault_family_is_survivable_on_its_own() {
    for plan in FaultPlan::all() {
        for seed in [7, 1001, 424242] {
            run_seed(seed, &plan);
        }
    }
}

#[test]
fn different_seeds_explore_different_interleavings() {
    let plan = FaultPlan::chaos();
    assert_ne!(run_seed(1, &plan).log, run_seed(2, &plan).log);
}

#[test]
fn fault_free_runs_actually_rewrite_jobs() {
    let report = run_seed(5, &FaultPlan::none());
    assert!(report.applied_remote > 0, "with a healthy daemon some opted-in jobs must be rewritten remotely");
}

#[test]
fn blackout_degrades_to_vanilla_slurm_but_keeps_the_local_path() {
    let report = run_seed(9, &FaultPlan::blackout());
    assert_eq!(report.applied_remote, 0, "no daemon, no remote rewrites");
    // Deadline selection reads staged rows from disk; daemon loss must
    // not take it down with it.
    assert!(
        report.applied_deadline + report.untouched == report.submissions,
        "every blackout submission is either deadline-rewritten locally or untouched"
    );
}

/// Outside `blackout`, a fleet run must lose zero predictions and end
/// with the killed replica back on the ring.
#[test]
fn fleet_runs_converge_and_lose_nothing() {
    for (seed, plan) in [(1, FaultPlan::none()), (7, FaultPlan::crashes()), (11, FaultPlan::partitions())] {
        let report = run_fleet_seed(seed, &plan);
        assert_eq!(report.failed_predictions, 0, "seed {seed} plan '{}' lost predictions", plan.name);
        assert!(report.converged, "seed {seed} plan '{}' never restored all {FLEET_REPLICAS} replicas", plan.name);
        assert!(report.predictions >= 36, "choreography ran all phases");
    }
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

/// On a clean network the ring carries everything while it is up, TCP
/// picks up the moment it is torn down, and not one key is lost to the
/// fallback — the zero-loss claim, asserted per phase inside the world
/// and summarized here.
#[test]
fn clean_runs_prefer_the_ring_and_lose_nothing_to_fallback() {
    for seed in [0, 13, 39] {
        let report = run_shm_seed(seed, &FaultPlan::none());
        assert_eq!(report.keys_failed, 0, "seed {seed} lost keys on a perfect network");
        assert_eq!(report.keys_ok, report.keys_asked, "seed {seed}: every asked key answered exactly once");
        assert!(report.shm_exchanges > 0, "seed {seed}: the ring carried no traffic");
        assert!(report.tcp_exchanges > 0, "seed {seed}: the teardown phase never exercised TCP fallback");
        assert!(report.batch_calls >= 30, "seed {seed}: choreography ran all phases");
    }
}

/// Every run exercises the whole fault menu: with the round budget and
/// action mix fixed, a seed that somehow dodged crashes *and*
/// corruption *and* rollbacks would mean the choreography regressed.
#[test]
fn store_runs_cover_the_fault_menu() {
    let mut crashes = 0;
    let mut corruptions = 0;
    let mut rollbacks = 0;
    let mut rejections = 0;
    let mut miss_path_refusals = 0;
    for seed in 0..8 {
        let report = run_store_seed(seed);
        assert_eq!(report.log.len(), STORE_ROUNDS, "seed {seed} skipped rounds");
        assert!(report.commits_acked > 0, "seed {seed} never committed a model");
        crashes += report.crashes;
        corruptions += report.corruptions;
        rollbacks += report.rollbacks;
        rejections += report.catchup_rejections;
        miss_path_refusals += report.miss_path_refusals;
    }
    assert!(crashes > 0, "no seed tore a journal append");
    assert!(corruptions > 0, "no seed corrupted a blob");
    assert!(rollbacks > 0, "no seed exercised rollback");
    assert!(rejections > 0, "no catch-up ever rejected a corrupt blob — the never-serve-bad-hash path went untested");
    assert!(miss_path_refusals > 0, "no replica ever evicted while serving — the miss path went unaudited");
}

/// The headline demo the extension promises: a two-class cluster under a
/// facility cap dispatches every job, never crosses the cap at any
/// audited tick, co-schedules at least one complementary pair, and ends
/// more energy-efficient than the cap-unaware baseline of the same mix.
#[test]
fn two_class_capped_cluster_beats_the_baseline() {
    let worlds = cluster_worlds();
    let balanced = &worlds[0];
    assert_eq!(balanced.name, "balanced");
    let report = run_cluster_seed(1, balanced);
    assert_eq!(report.submissions, CLUSTER_SUBMISSIONS, "every submission accepted");
    assert!(report.peak_power_w <= report.cap_w, "peak {} over cap {}", report.peak_power_w, report.cap_w);
    assert!(report.peak_power_w > 0.0, "the audit actually sampled a live cluster");
    assert!(
        report.eco_gflops_per_w > report.baseline_gflops_per_w,
        "eco {} <= baseline {}",
        report.eco_gflops_per_w,
        report.baseline_gflops_per_w
    );
}

/// The legacy world runs entirely on pre-class `(system, binary)` keys:
/// an unclassed plugin against models staged under the bare system hash
/// still rewrites every submission (the migration guarantee).
#[test]
fn classless_world_still_resolves_legacy_keys() {
    let worlds = cluster_worlds();
    let legacy = worlds.iter().find(|w| w.classless).expect("a classless world is in the sweep");
    let report = run_cluster_seed(11, legacy);
    assert_eq!(report.submissions, CLUSTER_SUBMISSIONS);
    assert!(report.eco_gflops_per_w > report.baseline_gflops_per_w);
}

/// One fault-free run, inspected end to end: the loop must genuinely
/// close — drift detected, poison rolled back, the clean re-fit
/// promoted, efficiency recovered — not merely avoid violations.
/// (`SIMTEST_SEED=adapt:100:none` replays exactly this run.)
#[test]
fn adapt_scenario_closes_the_loop() {
    let report = run_adapt_seed(100, &FaultPlan::none());
    assert_eq!(report.wrong_generation_serves, 0);
    assert!(
        report.aged_config.frequency_khz < report.fresh_config.frequency_khz,
        "the promoted model must sit lower on the V/f curve than the calibrated one: {:?} vs {:?}",
        report.aged_config,
        report.fresh_config
    );
    assert!(
        report.rollback_means.0 < report.rollback_means.1,
        "the poisoned canary arm must underperform control: {:?}",
        report.rollback_means
    );
    assert!(
        report.promote_means.0 > report.promote_means.1,
        "the clean canary arm must beat the stale control arm outright: {:?}",
        report.promote_means
    );
    assert!(
        report.adapted_gflops_per_w > report.stale_gflops_per_w * 1.05,
        "steady state must recover: adapted {:.4} vs stale {:.4} GFLOPS/W",
        report.adapted_gflops_per_w,
        report.stale_gflops_per_w
    );
    assert!(report.outcomes_reported > 0, "the outcome feed never fired");
    assert!(!report.log.is_empty());
}

/// The sweep's plan menu must stay crash-free (canary membership is
/// pinned; see the module docs) while the seed→plan mapping still
/// covers every listed plan.
#[test]
fn adapt_plans_cover_the_menu_without_crashes() {
    let plans = adapt_plans();
    let names: Vec<&str> = plans.iter().map(|p| p.name).collect();
    for banned in ["crashes", "partitions", "disconnects", "blackout", "chaos"] {
        assert!(!names.contains(&banned), "plan '{banned}' breaks pinned canary membership");
    }
    let adapt = world("adapt").expect("the adapt world");
    let covered: std::collections::BTreeSet<&str> = (0..adapt.seeds).map(|seed| adapt.case_for(seed)).collect();
    assert_eq!(covered.len(), names.len(), "the sweep's seed range misses plans: {covered:?}");
}
