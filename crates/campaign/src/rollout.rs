//! Hot model rollout: after a campaign round produces fresh benchmarks,
//! rebuild the model through the Chronus application layer and push it
//! into a running prediction daemon with the versioned `Preload` flow.
//!
//! The daemon side guarantees atomicity (a rollout generation is either
//! fully committed or rolled back, and stale-generation entries are never
//! served); this module's job is only to drive the sequence and surface
//! typed failures the campaign CLI can retry.

use crate::engine::CampaignOutcome;
use crate::error::{CampaignError, Result};
use crate::spec::CampaignSpec;
use chronus::remote::{CallOptions, PredictClient};
use chronus::{Chronus, LoadedModel};
use eco_store::{ModelBlob, ModelRecord, ModelStore, Provenance, ProvenanceSource, StoreError};

/// Acknowledgement of a committed rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutAck {
    /// The model now serving predictions.
    pub model_id: i64,
    /// Its optimizer type.
    pub model_type: String,
    /// The rollout generation the daemon committed it under.
    pub generation: u64,
}

/// Anything a freshly built model can be hot-rolled into. The production
/// implementation is [`PredictClient`] speaking to chronusd over TCP; the
/// fault-injection tests substitute unreachable or failing targets.
pub trait RolloutTarget {
    /// Asks the daemon to stage and commit `model_id`; returns only after
    /// the daemon has committed the generation.
    fn preload(&mut self, model_id: i64) -> Result<RolloutAck>;

    /// Fans the preload out to every replica behind the target,
    /// reporting each one's outcome as `(endpoint, ack-or-error)`.
    /// Single-daemon targets have exactly one replica, which is what
    /// the default implementation reports.
    fn preload_all(&mut self, model_id: i64) -> Vec<(String, std::result::Result<RolloutAck, String>)> {
        vec![("target".to_string(), self.preload(model_id).map_err(|e| e.to_string()))]
    }
}

impl RolloutTarget for PredictClient {
    fn preload(&mut self, model_id: i64) -> Result<RolloutAck> {
        let ack = PredictClient::preload(self, model_id, &CallOptions::default())
            .map_err(|e| CampaignError::Rollout(e.to_string()))?;
        Ok(RolloutAck { model_id: ack.model_id, model_type: ack.model_type, generation: ack.generation })
    }

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

/// Rebuilds a model from the repository's benchmarks (which the campaign
/// just extended) and stages it for serving: fit, persist to blob
/// storage, pre-load into local settings. Returns the staged model.
pub fn rebuild_model(
    app: &mut Chronus,
    model_type: &str,
    system_id: i64,
    binary_hash: u64,
    now_ms: u64,
) -> chronus::Result<LoadedModel> {
    let meta = app.init_model(model_type, system_id, binary_hash, now_ms)?;
    app.load_model(meta.id)
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
    let best_gflops_per_watt = outcome
        .benchmarks
        .iter()
        .filter(|b| b.avg_system_w > 0.0)
        .map(|b| b.gflops / b.avg_system_w)
        .fold(0.0f64, f64::max);
    let provenance = Provenance {
        campaign: spec.name.clone(),
        seed: spec.seed,
        plan: spec.plan.name().to_string(),
        trials_run: outcome.trials_run as u64,
        trials_skipped: outcome.trials_skipped as u64,
        trial_seconds: outcome.trial_seconds,
        best_gflops_per_watt,
        node_class: spec.node_class.clone(),
        source: ProvenanceSource::Campaign,
        refit_of: 0,
    };
    store.commit(&blob, staged.model_id, provenance)
}

/// Drives a staged model into a live daemon, verifying the committed
/// generation advanced monotonically if the caller knows the previous one.
pub fn roll_into(
    target: &mut dyn RolloutTarget,
    model_id: i64,
    previous_generation: Option<u64>,
) -> Result<RolloutAck> {
    let ack = target.preload(model_id)?;
    if let Some(prev) = previous_generation {
        if ack.generation <= prev {
            return Err(CampaignError::Rollout(format!(
                "daemon committed generation {} but {} was already committed",
                ack.generation, prev
            )));
        }
    }
    Ok(ack)
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
/// `previous_generation`, exactly as in [`roll_into`] — generations are
/// per-daemon counters, so in a fleet driven through one client they
/// advance in lockstep and one previous value covers all replicas.
/// Failures below quorum leave the fleet mixed (committed replicas keep
/// the new model; that is safe because committed generations are never
/// rolled back) and surface as [`CampaignError::Rollout`].
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

    struct FakeTarget {
        gen: u64,
        fail: bool,
    }

    impl RolloutTarget for FakeTarget {
        fn preload(&mut self, model_id: i64) -> Result<RolloutAck> {
            if self.fail {
                return Err(CampaignError::Rollout("daemon unreachable".into()));
            }
            self.gen += 1;
            Ok(RolloutAck { model_id, model_type: "brute-force".into(), generation: self.gen })
        }
    }

    /// A daemon that acks every preload with one fixed generation.
    struct FixedAck(u64);

    impl RolloutTarget for FixedAck {
        fn preload(&mut self, model_id: i64) -> Result<RolloutAck> {
            Ok(RolloutAck { model_id, model_type: "brute-force".into(), generation: self.0 })
        }
    }

    /// A fake fleet: per-replica generations, some replicas down.
    struct FakeFleet {
        gens: Vec<u64>,
        down: Vec<bool>,
    }

    impl RolloutTarget for FakeFleet {
        fn preload(&mut self, model_id: i64) -> Result<RolloutAck> {
            match self.preload_all(model_id).into_iter().find(|(_, o)| o.is_ok()) {
                Some((_, Ok(ack))) => Ok(ack),
                _ => Err(CampaignError::Rollout("no replica reachable".into())),
            }
        }

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
    fn single_target_default_fans_out_to_itself() {
        let mut t = FakeTarget { gen: 0, fail: false };
        let report = roll_into_fleet(&mut t, 5, None, 1).unwrap();
        assert_eq!(report.acks.len(), 1);
        assert_eq!(report.committed_generation(), 1);
    }

    #[test]
    fn roll_into_checks_generation_monotonicity() {
        let mut t = FakeTarget { gen: 5, fail: false };
        let ack = roll_into(&mut t, 7, Some(5)).unwrap();
        assert_eq!(ack.generation, 6);
        assert_eq!(ack.model_id, 7);
        // a daemon that regressed its generation is reported
        let mut stale = FakeTarget { gen: 2, fail: false };
        let err = roll_into(&mut stale, 7, Some(9)).unwrap_err();
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
        let mut t = FakeTarget { gen: 0, fail: true };
        let err = roll_into(&mut t, 3, None).unwrap_err();
        assert!(err.to_string().contains("unreachable"));
        t.fail = false;
        assert_eq!(roll_into(&mut t, 3, None).unwrap().generation, 1);
    }
}
