//! Hot model rollout: after a campaign produces fresh benchmarks and the
//! Chronus application layer rebuilds the model from them (`init_model`,
//! then `load_model`), commit it to the durable store and push it into
//! running prediction daemons with the versioned `Preload` flow.
//!
//! The daemon side guarantees atomicity (a `Preload` refreshes the
//! daemon's table to the store's serving fold in one step, and a record
//! whose blob does not verify is never served); this module's job is
//! only to drive the sequence and surface typed failures the campaign
//! CLI can retry.

use crate::engine::CampaignOutcome;
use crate::error::{CampaignError, Result};
use crate::spec::CampaignSpec;
use chronus::remote::{CallOptions, PredictClient};
use chronus::LoadedModel;
use eco_store::{ModelBlob, ModelRecord, ModelStore, Provenance, ProvenanceSource, StoreError};

/// Acknowledgement of a committed rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutAck {
    /// The model now serving predictions.
    pub model_id: i64,
    /// Its optimizer type.
    pub model_type: String,
    /// The ledger generation of the serving record the daemon answered
    /// with.
    pub generation: u64,
}

/// Anything a freshly built model can be hot-rolled into. The production
/// implementation is [`PredictClient`] speaking to chronusd (one daemon or
/// a fleet); the fault-injection tests substitute unreachable or failing
/// targets.
pub trait RolloutTarget {
    /// Asks every replica behind the target to stage and commit
    /// `model_id`, reporting each one's outcome as
    /// `(endpoint, ack-or-error)`. An ack means the replica committed the
    /// generation.
    fn preload_all(&mut self, model_id: i64) -> Vec<(String, std::result::Result<RolloutAck, String>)>;
}

impl RolloutTarget for PredictClient {
    fn preload_all(&mut self, model_id: i64) -> Vec<(String, std::result::Result<RolloutAck, String>)> {
        let fleet = self.preload_detailed(model_id, &CallOptions::default());
        let mut out: Vec<(String, std::result::Result<RolloutAck, String>)> = fleet
            .acks
            .into_iter()
            .map(|(ep, a)| {
                (ep, Ok(RolloutAck { model_id: a.model_id, model_type: a.model_type, generation: a.generation }))
            })
            .collect();
        out.extend(fleet.failures.into_iter().map(|(ep, e)| (ep, Err(e.to_string()))));
        out
    }
}

/// Commits a staged model to the durable store *before* any replica is
/// asked to serve it: the blob (benchmark rows + winning configuration)
/// lands atomically under its content address, then the metadata record
/// — with full build provenance (campaign, seed, plan, trial economics,
/// best calibration) and lineage — is appended to the ledger. A model
/// that was never durably committed is a model the fleet never rolls
/// out, so a crashed rollout can always be replayed from the store.
pub fn commit_to_store(
    store: &mut ModelStore,
    staged: &LoadedModel,
    spec: &CampaignSpec,
    outcome: &CampaignOutcome,
) -> std::result::Result<ModelRecord, StoreError> {
    let blob = ModelBlob {
        model_type: staged.model_type.clone(),
        system_hash: staged.system_hash,
        binary_hash: staged.binary_hash,
        config: outcome.best,
        benchmarks: outcome.benchmarks.clone(),
    };
    let provenance = Provenance {
        campaign: spec.name.clone(),
        seed: spec.seed,
        plan: spec.plan.name().to_string(),
        trials_run: outcome.trials_run as u64,
        trials_skipped: outcome.trials_skipped as u64,
        trial_seconds: outcome.trial_seconds,
        best_gflops_per_watt: chronus::domain::best_gflops_per_watt(&outcome.benchmarks),
        node_class: spec.node_class.clone(),
        source: ProvenanceSource::Campaign,
        refit_of: 0,
    };
    store.commit(&blob, staged.model_id, provenance)
}

/// Drives a staged model into a live daemon: [`roll_into_fleet`] at
/// quorum 1, answering the highest-generation acknowledgement.
pub fn roll_into(
    target: &mut dyn RolloutTarget,
    model_id: i64,
    previous_generation: Option<u64>,
) -> Result<RolloutAck> {
    let report = roll_into_fleet(target, model_id, previous_generation, 1)?;
    Ok(report.acks.into_iter().map(|(_, ack)| ack).max_by_key(|a| a.generation).expect("a met quorum has an ack"))
}

/// Per-replica outcome of a fleet-wide rollout, plus the quorum it was
/// judged against.
#[derive(Debug)]
pub struct FleetRolloutReport {
    /// Replicas that committed the model.
    pub acks: Vec<(String, RolloutAck)>,
    /// Replicas that failed, with the error each one reported.
    pub failures: Vec<(String, String)>,
    /// The quorum the rollout had to meet.
    pub quorum: usize,
}

impl FleetRolloutReport {
    /// The highest generation any replica committed.
    pub fn committed_generation(&self) -> u64 {
        self.acks.iter().map(|(_, a)| a.generation).max().unwrap_or(0)
    }
}

/// Fans a staged model out to every replica behind `target` and demands
/// at least `quorum` of them commit it. Each committing replica's
/// generation is checked for monotonicity against
/// `previous_generation`; a committed generation at or below it is an
/// error, 0 included. Generations are the store's ledger generations,
/// not per-daemon counters: every replica over one store acks the
/// generation its serving record was committed at, so one previous
/// value covers all replicas, and re-rolling an unchanged model acks the
/// same generation, which is refused as not newer. Failures below
/// quorum leave the fleet mixed (committed replicas keep the new model;
/// that is safe because committed generations are never rolled back)
/// and surface as [`CampaignError::Rollout`].
pub fn roll_into_fleet(
    target: &mut dyn RolloutTarget,
    model_id: i64,
    previous_generation: Option<u64>,
    quorum: usize,
) -> Result<FleetRolloutReport> {
    let mut acks = Vec::new();
    let mut failures = Vec::new();
    for (endpoint, outcome) in target.preload_all(model_id) {
        match outcome {
            Ok(ack) => acks.push((endpoint, ack)),
            Err(e) => failures.push((endpoint, e)),
        }
    }
    if acks.len() < quorum.max(1) {
        let detail = failures.iter().map(|(ep, e)| format!("{ep}: {e}")).collect::<Vec<_>>().join("; ");
        return Err(CampaignError::Rollout(format!(
            "rollout quorum not met: {}/{} replicas committed (need {}): {detail}",
            acks.len(),
            acks.len() + failures.len(),
            quorum.max(1),
        )));
    }
    if let Some(prev) = previous_generation {
        for (endpoint, ack) in &acks {
            if ack.generation <= prev {
                return Err(CampaignError::Rollout(format!(
                    "replica {endpoint} committed generation {} but {} was already committed",
                    ack.generation, prev
                )));
            }
        }
    }
    Ok(FleetRolloutReport { acks, failures, quorum: quorum.max(1) })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon that acks every preload with one fixed generation.
    struct FixedAck(u64);

    impl RolloutTarget for FixedAck {
        fn preload_all(&mut self, model_id: i64) -> Vec<(String, std::result::Result<RolloutAck, String>)> {
            vec![("fixed".into(), Ok(RolloutAck { model_id, model_type: "brute-force".into(), generation: self.0 }))]
        }
    }

    /// A fake fleet: per-replica generations, some replicas down.
    struct FakeFleet {
        gens: Vec<u64>,
        down: Vec<bool>,
    }

    /// One live daemon whose last committed generation is `gen`.
    fn daemon(gen: u64) -> FakeFleet {
        FakeFleet { gens: vec![gen], down: vec![false] }
    }

    impl RolloutTarget for FakeFleet {
        fn preload_all(&mut self, model_id: i64) -> Vec<(String, std::result::Result<RolloutAck, String>)> {
            (0..self.gens.len())
                .map(|i| {
                    let ep = format!("r{i}");
                    if self.down[i] {
                        (ep, Err("connection refused".to_string()))
                    } else {
                        self.gens[i] += 1;
                        (ep, Ok(RolloutAck { model_id, model_type: "brute-force".into(), generation: self.gens[i] }))
                    }
                })
                .collect()
        }
    }

    #[test]
    fn fleet_rollout_meets_quorum_with_one_replica_down() {
        let mut fleet = FakeFleet { gens: vec![4, 4, 4], down: vec![false, true, false] };
        let report = roll_into_fleet(&mut fleet, 11, Some(4), 2).unwrap();
        assert_eq!(report.acks.len(), 2);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].0, "r1");
        assert_eq!(report.committed_generation(), 5);
    }

    #[test]
    fn fleet_rollout_below_quorum_is_a_typed_error() {
        let mut fleet = FakeFleet { gens: vec![0, 0, 0], down: vec![true, true, false] };
        let err = roll_into_fleet(&mut fleet, 11, None, 2).unwrap_err();
        assert!(matches!(err, CampaignError::Rollout(_)), "{err}");
        assert!(err.to_string().contains("1/3"), "{err}");
    }

    #[test]
    fn fleet_rollout_checks_monotonicity_per_replica() {
        // one replica regressed its generation counter (restarted daemon)
        let mut fleet = FakeFleet { gens: vec![9, 1, 9], down: vec![false, false, false] };
        let err = roll_into_fleet(&mut fleet, 11, Some(9), 2).unwrap_err();
        assert!(err.to_string().contains("r1"), "{err}");
        // a zero ack is a regression too, not a daemon to excuse
        let err = roll_into_fleet(&mut FixedAck(0), 11, Some(3), 1).unwrap_err();
        assert!(err.to_string().contains("generation 0 but 3"), "{err}");
    }

    #[test]
    fn roll_into_is_the_fleet_rollout_at_quorum_one() {
        let report = roll_into_fleet(&mut daemon(0), 5, None, 1).unwrap();
        assert_eq!(report.acks.len(), 1);
        assert_eq!(report.committed_generation(), 1);
        // one live replica of three meets quorum 1; the highest ack answers
        let mut fleet = FakeFleet { gens: vec![4, 7, 2], down: vec![true, false, false] };
        assert_eq!(roll_into(&mut fleet, 5, None).unwrap().generation, 8);
        let mut dark = FakeFleet { gens: vec![0, 0], down: vec![true, true] };
        assert!(roll_into(&mut dark, 5, None).unwrap_err().to_string().contains("0/2"));
    }

    #[test]
    fn roll_into_checks_generation_monotonicity() {
        let ack = roll_into(&mut daemon(5), 7, Some(5)).unwrap();
        assert_eq!(ack.generation, 6);
        assert_eq!(ack.model_id, 7);
        // a daemon that regressed its generation is reported
        let err = roll_into(&mut daemon(2), 7, Some(9)).unwrap_err();
        assert!(matches!(err, CampaignError::Rollout(_)), "{err}");
        let err = roll_into(&mut FixedAck(0), 7, Some(3)).unwrap_err();
        assert!(err.to_string().contains("generation 0 but 3"), "{err}");
    }

    #[test]
    fn commit_to_store_lands_before_rollout_with_full_provenance() {
        use crate::plan::PlanSpec;
        use chronus::domain::Benchmark;
        use eco_sim_node::cpu::CpuConfig;
        use eco_sim_node::sysinfo::SystemFacts;
        use eco_store::MemBackend;

        let best = CpuConfig::new(16, 2_200_000, 1);
        let staged = LoadedModel {
            model_id: 7,
            model_type: "brute-force".into(),
            local_path: "/opt/chronus/optimizer".into(),
            system_hash: 42,
            binary_hash: 77,
            facts: SystemFacts {
                cpu_name: "EPYC 7502P".into(),
                cores: 32,
                threads_per_core: 2,
                frequencies_khz: vec![1_500_000, 2_200_000, 2_500_000],
                ram_gb: 256,
            },
            benchmarks_path: None,
        };
        let bench = Benchmark {
            id: 1,
            system_id: 1,
            binary_hash: 77,
            config: best,
            gflops: 30.0,
            runtime_s: 60.0,
            avg_system_w: 200.0,
            avg_cpu_w: 120.0,
            avg_cpu_temp_c: 55.0,
            system_energy_j: 12_000.0,
            cpu_energy_j: 7_200.0,
            sample_count: 30,
        };
        let spec = CampaignSpec {
            name: "nightly".into(),
            configs: vec![best],
            plan: PlanSpec::BruteForce,
            seed: 9,
            sample_interval_ms: 2_000,
            full_work_gflop: 1_000.0,
            nx: 104,
            node_class: "dense64".into(),
        };
        let outcome = CampaignOutcome {
            plan: "brute-force".into(),
            rounds: 1,
            trials_run: 3,
            trials_skipped: 1,
            trials_failed: 0,
            trial_seconds: 55.5,
            best,
            benchmarks: vec![bench],
            system_id: 1,
            binary_hash: 77,
        };

        let mut store = ModelStore::open(Box::new(MemBackend::new())).unwrap();
        let record = commit_to_store(&mut store, &staged, &spec, &outcome).unwrap();
        assert_eq!(record.generation, 1);
        assert_eq!(record.model_id, 7);
        assert_eq!((record.system_hash, record.binary_hash), (42, 77));
        assert_eq!(record.config, best);
        assert_eq!(record.provenance.campaign, "nightly");
        assert_eq!(record.provenance.seed, 9);
        assert_eq!(record.provenance.plan, "brute-force");
        assert_eq!(record.provenance.trials_run, 3);
        assert!((record.provenance.best_gflops_per_watt - 0.15).abs() < 1e-9);
        assert_eq!(record.provenance.node_class, "dense64", "store provenance records the class");
        // the blob is durably readable and hash-verified before any
        // replica is asked to serve the model
        let blob = store.load_blob(&record).unwrap();
        assert_eq!(blob.benchmarks.len(), 1);
        assert_eq!(blob.config, best);
    }

    #[test]
    fn unreachable_target_surfaces_typed_error_and_retry_works() {
        let mut t = FakeFleet { gens: vec![0], down: vec![true] };
        let err = roll_into(&mut t, 3, None).unwrap_err();
        assert!(err.to_string().contains("connection refused"), "{err}");
        t.down[0] = false;
        assert_eq!(roll_into(&mut t, 3, None).unwrap().generation, 1);
    }
}
