//! # eco-plugin — `job_submit_eco`
//!
//! The Slurm side of the paper's eco plugin: a job-submit plugin that asks
//! Chronus for the most energy-efficient configuration of the submitted
//! binary on this system and rewrites the job description accordingly
//! (§4.2: `num_tasks`, `threads_per_cpu`, `min/max_frequency`).
//!
//! Activation mirrors §3.3: in the default `user` state only jobs that opt
//! in with `#SBATCH --comment "chronus"` are touched; `active` rewrites
//! every job; `deactivated` rewrites none. Prediction errors never break a
//! submission — the job simply runs unmodified, as a production plugin
//! must behave.
//!
//! [`deadline`], [`market`] and [`gpu_tuning`] implement the paper's
//! §6.2.1, §6.2.4 and §6.2.2 future-work extensions (deadline-constrained
//! configuration choice, green-energy window scheduling, and GPU clock
//! tuning).

pub mod deadline;
pub mod gpu_tuning;
pub mod market;

use chronus::domain::PluginState;
use chronus::hash::{binary_hash, classed_system_hash, system_hash};
use chronus::interfaces::LocalStorage;
use chronus::remote::{LocalPrediction, ObservedOutcome, PredictionSource};
use chronus::telemetry::{Counter, Telemetry, TraceContext};
pub use deadline::DeadlineSelector;
use eco_sim_node::cpu::CpuSpec;
use eco_slurm_sim::plugin::{JobSubmitPlugin, PluginRejection};
use eco_slurm_sim::JobDescriptor;
pub use gpu_tuning::GpuFrequencyTuner;
pub use market::{EnergyMarket, GreenWindowPlugin};

use std::collections::HashMap;
use std::sync::Arc;

/// Counters the plugin keeps for observability (exposed for tests and the
/// experiment harness). Since the telemetry refactor this is a *view*: a
/// point-in-time copy of the plugin's `plugin.*` telemetry counters, with
/// the same fields and conservation law as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PluginStats {
    /// Jobs whose descriptor was rewritten.
    pub applied: usize,
    /// Jobs skipped because they did not opt in / plugin deactivated.
    pub skipped: usize,
    /// Jobs left unmodified because prediction failed.
    pub errors: usize,
}

impl PluginStats {
    /// Total submissions the plugin has seen. Every call lands in exactly
    /// one counter, so this always equals the number of `job_submit`
    /// invocations — the conservation law the simulation harness checks.
    pub fn total(&self) -> usize {
        self.applied + self.skipped + self.errors
    }
}

/// The plugin's telemetry handles: one counter per [`PluginStats`] field,
/// resolved once so the submit path only bumps atomics.
struct PluginTelemetry {
    telemetry: Arc<Telemetry>,
    applied: Counter,
    skipped: Counter,
    errors: Counter,
}

impl PluginTelemetry {
    fn over(telemetry: Arc<Telemetry>) -> PluginTelemetry {
        PluginTelemetry {
            applied: telemetry.counter("plugin.applied"),
            skipped: telemetry.counter("plugin.skipped"),
            errors: telemetry.counter("plugin.errors"),
            telemetry,
        }
    }
}

/// A node class beside its `plugin.class.<name>.{hit,miss}` counters,
/// resolved when the class is registered so a submission only bumps an
/// atomic; the unnamed legacy class reports as `default`.
struct NodeClass {
    name: String,
    hit: Counter,
    miss: Counter,
}

impl NodeClass {
    fn resolve(name: &str, telemetry: &Telemetry) -> NodeClass {
        let label = if name.is_empty() { "default" } else { name };
        NodeClass {
            name: name.to_string(),
            hit: telemetry.counter(&format!("plugin.class.{label}.hit")),
            miss: telemetry.counter(&format!("plugin.class.{label}.miss")),
        }
    }
}

/// How one submission was handled — drives both the counters and the
/// span outcome.
enum Verdict {
    Applied,
    Skipped,
    Error(String),
}

/// The `job_submit_eco` plugin.
pub struct JobSubmitEco {
    storage: Arc<dyn LocalStorage + Send + Sync>,
    source: Arc<dyn PredictionSource>,
    system_hash: u64,
    binaries: HashMap<String, u64>,
    /// Partition name → node class: how the plugin learns which hardware
    /// a submission targets on a heterogeneous cluster. The class widens
    /// the prediction key so one fleet serves per-class models.
    classes: HashMap<String, NodeClass>,
    /// Class assumed for jobs whose partition has no mapping (and for
    /// `--partition`-less jobs). Empty means the pre-class key space —
    /// the migration default that keeps old models resolving.
    default_class: NodeClass,
    tel: PluginTelemetry,
    strict: bool,
}

impl JobSubmitEco {
    /// Creates the plugin for the head node of a cluster whose nodes match
    /// `spec`/`ram_gb`. `storage` locates `settings.json` and the
    /// pre-loaded model, like the real plugin shelling out to
    /// `chronus slurm-config`. Predictions come from the in-process
    /// [`LocalPrediction`] source by default; see [`Self::set_source`].
    pub fn new(storage: Arc<dyn LocalStorage + Send + Sync>, spec: &CpuSpec, ram_gb: u32) -> Self {
        let source = Arc::new(LocalPrediction::new(Arc::clone(&storage)));
        let tel = PluginTelemetry::over(Arc::new(Telemetry::wall()));
        JobSubmitEco {
            storage,
            source,
            system_hash: system_hash(spec, ram_gb),
            binaries: HashMap::new(),
            classes: HashMap::new(),
            default_class: NodeClass::resolve("", &tel.telemetry),
            tel,
            strict: false,
        }
    }

    /// Swaps the prediction source, e.g. for a
    /// [`chronus::remote::RemotePrediction`] talking to a chronusd
    /// daemon — built with `RemotePrediction::from_endpoints` when the
    /// configuration carries an endpoint list, so a same-host daemon's
    /// `shm://` ring is preferred and TCP entries stay as failover.
    /// Activation gating and deadline selection still read the local
    /// settings file; only the best-config query is redirected.
    pub fn set_source(&mut self, source: Arc<dyn PredictionSource>) {
        self.source = source;
    }

    /// Rehomes the plugin's counters and spans onto a shared [`Telemetry`]
    /// (the simulation harness and daemonised deployments pass one shared
    /// across the whole pipeline). Call before traffic: counters restart
    /// at zero on the new instance.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.tel = PluginTelemetry::over(telemetry);
        for class in self.classes.values_mut().chain([&mut self.default_class]) {
            *class = NodeClass::resolve(&class.name, &self.tel.telemetry);
        }
    }

    /// Describes where predictions come from (for logs and tests).
    pub fn source_description(&self) -> String {
        self.source.describe()
    }

    /// Registers an executable's contents so the plugin can hash it
    /// (stands in for reading the file at `path`). Unregistered paths
    /// fall back to hashing the path string — the paper's §6.1.2
    /// "constant string" limitation, kept as the fallback.
    pub fn register_binary(&mut self, path: &str, contents: &str) {
        self.binaries.insert(path.to_string(), binary_hash(contents));
    }

    /// Maps a partition to its node class: submissions targeting this
    /// partition predict under the `(system, class, binary)` key. On a
    /// cluster built from [`eco_slurm_sim::Cluster::heterogeneous`], feed
    /// every partition's `node_class` through here at plugin load.
    pub fn map_partition_class(&mut self, partition: &str, class: &str) {
        self.classes.insert(partition.to_string(), NodeClass::resolve(class, &self.tel.telemetry));
    }

    /// Sets the class assumed for unmapped or partition-less submissions.
    /// Defaults to the empty class — the pre-class key space, so staged
    /// legacy models keep resolving unchanged.
    pub fn set_default_class(&mut self, class: &str) {
        self.default_class = NodeClass::resolve(class, &self.tel.telemetry);
    }

    /// The node class a partition resolves to.
    fn class_for(&self, partition: Option<&str>) -> &NodeClass {
        partition.and_then(|p| self.classes.get(p)).unwrap_or(&self.default_class)
    }

    /// Warms the prediction path for every registered binary in one
    /// batched query: all `(system_hash, binary_hash)` keys go through
    /// the source's `predict_many` (a single `PredictMany` round trip
    /// on a daemon-backed source), so the first real submission of each
    /// binary is a cache hit. On a classed plugin the batch covers every
    /// configured class (default plus each mapped class) per binary.
    /// Returns how many keys answered with a config; failures are
    /// warm-up misses, never submission errors.
    pub fn prefetch_predictions(&self) -> usize {
        let mut class_hashes: Vec<u64> = std::iter::once(&self.default_class)
            .chain(self.classes.values())
            .map(|c| classed_system_hash(self.system_hash, &c.name))
            .collect();
        class_hashes.sort_unstable();
        class_hashes.dedup();
        let keys: Vec<(u64, u64)> =
            class_hashes.iter().flat_map(|&s| self.binaries.values().map(move |&b| (s, b))).collect();
        if keys.is_empty() {
            return 0;
        }
        self.source.predict_many(&keys).iter().filter(|r| r.is_ok()).count()
    }

    /// Reports a completed job's observed (GFLOPS, watts, duration)
    /// back to the prediction source — the outcome feed that closes the
    /// adaptation loop. The key is the same `(classed system, binary)`
    /// the prediction was served under, so the daemon's drift detector
    /// judges the exact model that configured the job. Returns whether
    /// the source accepted the outcome; failures are soft and only
    /// counted (`plugin.outcomes.*`) — a source with nowhere to report
    /// to counts as `unsupported`, a dead daemon or one that answers
    /// an error as `failed`, neither of which may disturb the scheduler.
    pub fn report_outcome(&self, binary_path: &str, partition: Option<&str>, outcome: &ObservedOutcome) -> bool {
        let bin_hash = self.binary_hash_for(binary_path);
        let classed_system = classed_system_hash(self.system_hash, &self.class_for(partition).name);
        self.tel.telemetry.counter("plugin.outcomes.reported").bump();
        match self.source.report_outcome(classed_system, bin_hash, outcome) {
            Ok(true) => {
                self.tel.telemetry.counter("plugin.outcomes.accepted").bump();
                true
            }
            Ok(false) => {
                self.tel.telemetry.counter("plugin.outcomes.unsupported").bump();
                false
            }
            Err(_) => {
                self.tel.telemetry.counter("plugin.outcomes.failed").bump();
                false
            }
        }
    }

    /// In strict mode prediction failures reject the job instead of
    /// passing it through (useful in tests).
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Counters so far — a view over the `plugin.*` telemetry counters.
    pub fn stats(&self) -> PluginStats {
        PluginStats {
            applied: self.tel.applied.get() as usize,
            skipped: self.tel.skipped.get() as usize,
            errors: self.tel.errors.get() as usize,
        }
    }

    /// The system hash the plugin computed at load time.
    pub fn system_hash(&self) -> u64 {
        self.system_hash
    }

    fn binary_hash_for(&self, path: &str) -> u64 {
        self.binaries.get(path).copied().unwrap_or_else(|| binary_hash(path))
    }

    fn opted_in(comment: &str) -> bool {
        comment.split_whitespace().any(|w| w == "chronus")
    }
}

impl JobSubmitPlugin for JobSubmitEco {
    fn name(&self) -> &'static str {
        "eco"
    }

    fn job_submit(&mut self, job: &mut JobDescriptor, submit_uid: u32) -> Result<(), PluginRejection> {
        self.job_submit_traced(job, submit_uid, None)
    }

    fn job_submit_traced(
        &mut self,
        job: &mut JobDescriptor,
        _submit_uid: u32,
        ctx: Option<TraceContext>,
    ) -> Result<(), PluginRejection> {
        let mut span = self.tel.telemetry.span_maybe_under(ctx, "plugin", "job_submit");
        span.attr("binary", &job.binary_path);
        let verdict = self.decide(job, span.context());
        match verdict {
            Verdict::Applied => {
                self.tel.applied.bump();
                span.attr("outcome", "applied");
                Ok(())
            }
            Verdict::Skipped => {
                self.tel.skipped.bump();
                span.attr("outcome", "skipped");
                Ok(())
            }
            Verdict::Error(reason) => {
                self.tel.errors.bump();
                span.fail(reason.clone());
                if self.strict {
                    Err(PluginRejection { reason })
                } else {
                    // production behaviour: the job runs unmodified
                    Ok(())
                }
            }
        }
    }
}

impl JobSubmitEco {
    /// The rewrite decision for one submission: gate on plugin state,
    /// then either the deadline-bounded selection (local) or the
    /// configured prediction source (possibly a remote daemon, which the
    /// trace context follows onto the wire).
    fn decide(&self, job: &mut JobDescriptor, ctx: TraceContext) -> Verdict {
        let settings = match self.storage.load_settings() {
            Ok(s) => s,
            Err(e) => return Verdict::Error(format!("cannot read chronus settings: {e}")),
        };

        let enabled = match settings.state {
            PluginState::Deactivated => false,
            PluginState::Active => true,
            PluginState::User => Self::opted_in(&job.comment),
        };
        if !enabled {
            return Verdict::Skipped;
        }

        let bin_hash = self.binary_hash_for(&job.binary_path);
        // the job's partition decides which hardware class it runs on,
        // and the class widens the system half of the prediction key
        let class = self.class_for(job.partition.as_deref());
        let classed_system = classed_system_hash(self.system_hash, &class.name);

        // §6.2.1 extension: `--comment "chronus deadline=<seconds>"` bounds
        // the choice to configurations whose measured runtime fits.
        if let Some(deadline_s) = deadline::parse_deadline(&job.comment) {
            let mut span = self.tel.telemetry.span_under(ctx, "plugin", "deadline_select");
            span.attr("deadline_s", deadline_s);
            return match self.deadline_config(&settings, classed_system, bin_hash, deadline_s) {
                Ok(config) => {
                    job.apply_config(&config);
                    Verdict::Applied
                }
                Err(e) => {
                    let reason = format!("deadline selection failed: {e}");
                    span.fail(reason.clone());
                    Verdict::Error(reason)
                }
            };
        }

        let mut span = self.tel.telemetry.span_under(ctx, "plugin", "predict");
        if !class.name.is_empty() {
            span.attr("node_class", &class.name);
        }
        let predict_ctx = span.context();
        match self.source.predict_traced(classed_system, bin_hash, Some(predict_ctx)) {
            Ok(config) => {
                class.hit.bump();
                job.apply_config(&config);
                Verdict::Applied
            }
            Err(e) => {
                class.miss.bump();
                let reason = format!("chronus slurm-config failed: {e}");
                span.fail(reason.clone());
                Verdict::Error(reason)
            }
        }
    }
}

impl JobSubmitEco {
    /// Resolves the deadline-constrained configuration from the staged
    /// benchmark rows: the most efficient configuration that finishes in
    /// time, or the fastest measured one when nothing fits (finishing as
    /// soon as possible is the best remaining service for a deadline job).
    fn deadline_config(
        &self,
        settings: &chronus::domain::Settings,
        system_hash_v: u64,
        bin_hash: u64,
        deadline_s: f64,
    ) -> Result<eco_sim_node::cpu::CpuConfig, String> {
        let loaded = settings.loaded_model.as_ref().ok_or("no model pre-loaded")?;
        if loaded.system_hash != system_hash_v || loaded.binary_hash != bin_hash {
            return Err("staged model does not match this (system, binary)".into());
        }
        let path = loaded.benchmarks_path.as_ref().ok_or("no benchmark rows staged; re-run load-model")?;
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read staged benchmarks: {e}"))?;
        let benchmarks: Vec<chronus::Benchmark> =
            serde_json::from_slice(&bytes).map_err(|e| format!("corrupt staged benchmarks: {e}"))?;
        let selector = deadline::DeadlineSelector::from_benchmarks(&benchmarks);
        selector
            .best_within(deadline_s, 1.0)
            .or_else(|| selector.fastest())
            .ok_or_else(|| "no benchmarks available for deadline selection".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus::domain::{LoadedModel, Settings};
    use chronus::integrations::storage::EtcStorage;
    use chronus::interfaces::Optimizer;
    use chronus::optimizers::BruteForceOptimizer;
    use chronus::Benchmark;
    use eco_sim_node::cpu::CpuConfig;
    use eco_sim_node::sysinfo::SystemFacts;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("eco-plugin-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn facts() -> SystemFacts {
        SystemFacts {
            cpu_name: "AMD EPYC 7502P 32-Core Processor".into(),
            cores: 32,
            threads_per_core: 2,
            frequencies_khz: vec![1_500_000, 2_200_000, 2_500_000],
            ram_gb: 256,
        }
    }

    fn bench(config: CpuConfig, gpw: f64) -> Benchmark {
        Benchmark {
            id: -1,
            system_id: 1,
            binary_hash: 0,
            config,
            gflops: gpw * 200.0,
            runtime_s: 100.0,
            avg_system_w: 200.0,
            avg_cpu_w: 100.0,
            avg_cpu_temp_c: 55.0,
            system_energy_j: 20_000.0,
            cpu_energy_j: 10_000.0,
            sample_count: 50,
        }
    }

    /// Stages a fitted brute-force model + settings on disk, returning
    /// the storage root and binary contents string.
    fn stage(root: &PathBuf, state: PluginState) -> (Arc<EtcStorage>, &'static str) {
        let spec = CpuSpec::epyc_7502p();
        let contents = "xhpcg-3.1-nx104-ny104-nz104";
        let mut opt = BruteForceOptimizer::new();
        opt.fit(&[
            bench(CpuConfig::new(32, 2_500_000, 1), 0.0432),
            bench(CpuConfig::new(32, 2_200_000, 1), 0.0488),
            bench(CpuConfig::new(16, 1_500_000, 2), 0.0280),
        ])
        .unwrap();
        let model_path = root.join("opt/chronus/optimizers/model-1.json");
        std::fs::create_dir_all(model_path.parent().unwrap()).unwrap();
        std::fs::write(&model_path, opt.to_bytes().unwrap()).unwrap();

        let storage = Arc::new(EtcStorage::new(root));
        let settings = Settings {
            state,
            loaded_model: Some(LoadedModel {
                model_id: 1,
                model_type: "brute-force".into(),
                local_path: model_path.to_string_lossy().into_owned(),
                system_hash: system_hash(&spec, 256),
                binary_hash: binary_hash(contents),
                facts: facts(),
                benchmarks_path: None,
            }),
            ..Settings::default()
        };
        storage.save_settings(&settings).unwrap();
        (storage, contents)
    }

    fn job(comment: &str) -> JobDescriptor {
        let mut d = JobDescriptor::new("hpcg-job", "alice", "/opt/hpcg/bin/xhpcg");
        d.comment = comment.to_string();
        d.num_tasks = 32; // user asked for everything
        d
    }

    fn plugin(storage: Arc<EtcStorage>, contents: &str) -> JobSubmitEco {
        let mut p = JobSubmitEco::new(storage, &CpuSpec::epyc_7502p(), 256);
        p.register_binary("/opt/hpcg/bin/xhpcg", contents);
        p
    }

    #[test]
    fn user_state_requires_opt_in() {
        let root = tmpdir("optin");
        let (storage, contents) = stage(&root, PluginState::User);
        let mut p = plugin(storage, contents);

        let mut plain = job("");
        p.job_submit(&mut plain, 1000).unwrap();
        assert_eq!(plain.max_frequency_khz, None, "no opt-in, no rewrite");

        let mut opted = job("chronus");
        p.job_submit(&mut opted, 1000).unwrap();
        assert_eq!(opted.max_frequency_khz, Some(2_200_000), "opted-in job rewritten to the best config");
        assert_eq!(opted.num_tasks, 32);
        assert_eq!(opted.threads_per_cpu, 1);
        assert_eq!(p.stats(), PluginStats { applied: 1, skipped: 1, errors: 0 });
        assert_eq!(p.stats().total(), 2, "every submission lands in exactly one counter");
    }

    #[test]
    fn comment_matching_is_word_based() {
        assert!(JobSubmitEco::opted_in("chronus"));
        assert!(JobSubmitEco::opted_in("please chronus now"));
        assert!(!JobSubmitEco::opted_in("chronused"));
        assert!(!JobSubmitEco::opted_in(""));
    }

    #[test]
    fn active_state_rewrites_everything() {
        let root = tmpdir("active");
        let (storage, contents) = stage(&root, PluginState::Active);
        let mut p = plugin(storage, contents);
        let mut plain = job("");
        p.job_submit(&mut plain, 1000).unwrap();
        assert_eq!(plain.max_frequency_khz, Some(2_200_000));
    }

    #[test]
    fn deactivated_state_touches_nothing() {
        let root = tmpdir("deactivated");
        let (storage, contents) = stage(&root, PluginState::Deactivated);
        let mut p = plugin(storage, contents);
        let mut opted = job("chronus");
        p.job_submit(&mut opted, 1000).unwrap();
        assert_eq!(opted.max_frequency_khz, None);
        assert_eq!(p.stats().skipped, 1);
    }

    #[test]
    fn unknown_binary_falls_back_to_path_hash_and_errors_soft() {
        let root = tmpdir("unknownbin");
        let (storage, contents) = stage(&root, PluginState::User);
        let mut p = plugin(storage, contents);
        let mut other = JobDescriptor::new("j", "u", "/bin/other-app");
        other.comment = "chronus".into();
        // hash mismatch -> prediction error -> job passes through unmodified
        p.job_submit(&mut other, 1000).unwrap();
        assert_eq!(other.max_frequency_khz, None);
        assert_eq!(p.stats().errors, 1);
    }

    #[test]
    fn strict_mode_rejects_on_error() {
        let root = tmpdir("strict");
        let (storage, contents) = stage(&root, PluginState::User);
        let mut p = plugin(storage, contents);
        p.set_strict(true);
        let mut other = JobDescriptor::new("j", "u", "/bin/other-app");
        other.comment = "chronus".into();
        let err = p.job_submit(&mut other, 1000).unwrap_err();
        assert!(err.reason.contains("chronus"), "{}", err.reason);
    }

    #[test]
    fn no_loaded_model_passes_job_through() {
        let root = tmpdir("nomodel");
        let storage = Arc::new(EtcStorage::new(&root));
        storage.save_settings(&Settings { state: PluginState::Active, ..Settings::default() }).unwrap();
        let mut p = JobSubmitEco::new(storage, &CpuSpec::epyc_7502p(), 256);
        let mut j = job("chronus");
        p.job_submit(&mut j, 1000).unwrap();
        assert_eq!(j.max_frequency_khz, None);
        assert_eq!(p.stats().errors, 1);
    }

    /// A prediction source that always fails, standing in for a dead
    /// or timed-out chronusd daemon.
    struct DeadSource;
    impl PredictionSource for DeadSource {
        fn predict(&self, _s: u64, _b: u64) -> chronus::Result<CpuConfig> {
            Err(chronus::ChronusError::Model("remote prediction failed: connect refused".into()))
        }
        fn describe(&self) -> String {
            "dead daemon".into()
        }
    }

    /// A source that answers a fixed configuration, proving the plugin
    /// really routes through its source.
    struct FixedSource(CpuConfig);
    impl PredictionSource for FixedSource {
        fn predict(&self, _s: u64, _b: u64) -> chronus::Result<CpuConfig> {
            Ok(self.0)
        }
        fn describe(&self) -> String {
            "fixed".into()
        }
    }

    /// A source that records how `predict_many` is called, proving the
    /// plugin's prefetch batches keys instead of looping singles.
    struct BatchRecorder {
        calls: std::sync::Mutex<Vec<Vec<(u64, u64)>>>,
    }
    impl PredictionSource for BatchRecorder {
        fn predict(&self, _s: u64, _b: u64) -> chronus::Result<CpuConfig> {
            panic!("prefetch must use the batched path, not per-key predict");
        }
        fn predict_many(&self, keys: &[(u64, u64)]) -> Vec<chronus::Result<CpuConfig>> {
            self.calls.lock().unwrap().push(keys.to_vec());
            keys.iter()
                .enumerate()
                .map(|(i, _)| {
                    if i % 3 == 2 {
                        Err(chronus::ChronusError::Model("no model for that binary".into()))
                    } else {
                        Ok(CpuConfig::new(16, 1_500_000, 1))
                    }
                })
                .collect()
        }
        fn describe(&self) -> String {
            "batch recorder".into()
        }
    }

    #[test]
    fn prefetch_batches_every_registered_binary_into_one_call() {
        let root = tmpdir("prefetch");
        let (storage, contents) = stage(&root, PluginState::User);
        let mut p = plugin(storage, contents);
        p.register_binary("/opt/solver/bin/a", "solver-a");
        p.register_binary("/opt/solver/bin/b", "solver-b");
        let source = Arc::new(BatchRecorder { calls: std::sync::Mutex::new(Vec::new()) });
        p.set_source(Arc::clone(&source) as Arc<dyn PredictionSource>);

        let warmed = p.prefetch_predictions();
        let calls = source.calls.lock().unwrap();
        assert_eq!(calls.len(), 1, "one batched call, not one per binary");
        assert_eq!(calls[0].len(), 3, "every registered binary in the batch");
        assert!(calls[0].iter().all(|&(s, _)| s == p.system_hash()), "keys carry the plugin's system hash");
        assert_eq!(warmed, 2, "per-key failures are warm-up misses, not errors");
        assert_eq!(p.stats().errors, 0, "prefetch failures never count as submission errors");
    }

    #[test]
    fn prefetch_with_no_registered_binaries_is_a_no_op() {
        let root = tmpdir("prefetch-empty");
        let storage = Arc::new(EtcStorage::new(&root));
        let p = JobSubmitEco::new(storage, &CpuSpec::epyc_7502p(), 256);
        assert_eq!(p.prefetch_predictions(), 0);
    }

    #[test]
    fn dead_source_soft_passes_the_job() {
        let root = tmpdir("deadsource");
        let (storage, contents) = stage(&root, PluginState::User);
        let mut p = plugin(storage, contents);
        p.set_source(Arc::new(DeadSource));
        assert_eq!(p.source_description(), "dead daemon");

        let mut opted = job("chronus");
        p.job_submit(&mut opted, 1000).unwrap();
        assert_eq!(opted.max_frequency_khz, None, "no prediction, job untouched");
        assert_eq!(p.stats(), PluginStats { applied: 0, skipped: 0, errors: 1 });
    }

    #[test]
    fn dead_source_rejects_only_in_strict_mode() {
        let root = tmpdir("deadstrict");
        let (storage, contents) = stage(&root, PluginState::User);
        let mut p = plugin(storage, contents);
        p.set_source(Arc::new(DeadSource));
        p.set_strict(true);
        let err = p.job_submit(&mut job("chronus"), 1000).unwrap_err();
        assert!(err.reason.contains("remote prediction failed"), "{}", err.reason);
    }

    #[test]
    fn predictions_route_through_the_configured_source() {
        let root = tmpdir("fixedsource");
        let (storage, contents) = stage(&root, PluginState::User);
        let mut p = plugin(storage, contents);
        // the staged model would answer 2.2 GHz; the source overrides it
        p.set_source(Arc::new(FixedSource(CpuConfig::new(8, 1_500_000, 2))));
        let mut opted = job("chronus");
        p.job_submit(&mut opted, 1000).unwrap();
        assert_eq!(opted.max_frequency_khz, Some(1_500_000));
        assert_eq!(opted.num_tasks, 8);
        assert_eq!(opted.threads_per_cpu, 2);
    }

    #[test]
    fn default_source_is_the_local_staged_model() {
        let root = tmpdir("localsource");
        let (storage, contents) = stage(&root, PluginState::User);
        let p = plugin(storage, contents);
        assert!(p.source_description().contains("local"), "{}", p.source_description());
    }

    #[test]
    fn traced_submit_chains_job_submit_and_predict_spans() {
        let root_dir = tmpdir("traced");
        let (storage, contents) = stage(&root_dir, PluginState::User);
        let mut p = plugin(storage, contents);
        let telemetry = Arc::new(Telemetry::wall());
        p.set_telemetry(Arc::clone(&telemetry));

        let root = telemetry.root_span("slurm", "plugin_call");
        let parent = root.context();
        let mut opted = job("chronus");
        p.job_submit_traced(&mut opted, 1000, Some(parent)).unwrap();
        drop(root);

        let events = telemetry.recorder().events();
        let submit = events.iter().find(|e| e.name == "job_submit").expect("job_submit span");
        assert_eq!(submit.layer, "plugin");
        assert_eq!(submit.parent, Some(parent.span.0), "plugin span chains under the caller");
        assert!(submit.attrs.iter().any(|a| a == "outcome=applied"), "{:?}", submit.attrs);
        let predict = events.iter().find(|e| e.name == "predict").expect("predict span");
        assert_eq!(predict.parent, Some(submit.span));
        assert_eq!(predict.trace, parent.trace.0, "one connected trace");
        // the stats view reads the same counters the spans sit beside
        assert_eq!(p.stats(), PluginStats { applied: 1, skipped: 0, errors: 0 });
        assert_eq!(telemetry.counter("plugin.applied").get(), 1);
    }

    #[test]
    fn stats_view_conserves_total_across_outcomes() {
        let root_dir = tmpdir("viewtotal");
        let (storage, contents) = stage(&root_dir, PluginState::User);
        let mut p = plugin(storage, contents);
        p.job_submit(&mut job("chronus"), 1000).unwrap(); // applied
        p.job_submit(&mut job(""), 1000).unwrap(); // skipped
        p.set_source(Arc::new(DeadSource));
        p.job_submit(&mut job("chronus"), 1000).unwrap(); // error
        assert_eq!(p.stats(), PluginStats { applied: 1, skipped: 1, errors: 1 });
        assert_eq!(p.stats().total(), 3, "every submission lands in exactly one counter");
    }

    /// Records every key predicted, answering a fixed config — proves
    /// which `(system, binary)` key the plugin put on the wire.
    struct KeyRecorder {
        keys: std::sync::Mutex<Vec<(u64, u64)>>,
    }
    impl PredictionSource for KeyRecorder {
        fn predict(&self, s: u64, b: u64) -> chronus::Result<CpuConfig> {
            self.keys.lock().unwrap().push((s, b));
            Ok(CpuConfig::new(16, 2_200_000, 1))
        }
        fn describe(&self) -> String {
            "key recorder".into()
        }
    }

    #[test]
    fn partition_class_widens_the_prediction_key() {
        let root = tmpdir("classkey");
        let (storage, contents) = stage(&root, PluginState::Active);
        let mut p = plugin(storage, contents);
        p.map_partition_class("dense", "dense64");
        let source = Arc::new(KeyRecorder { keys: std::sync::Mutex::new(Vec::new()) });
        p.set_source(Arc::clone(&source) as Arc<dyn PredictionSource>);
        let telemetry = Arc::new(Telemetry::wall());
        p.set_telemetry(Arc::clone(&telemetry));

        // partition-less job: the legacy identity key
        p.job_submit(&mut job(""), 1000).unwrap();
        // dense-partition job: the classed key
        let mut d = job("");
        d.partition = Some("dense".into());
        p.job_submit(&mut d, 1000).unwrap();
        // unmapped partition falls back to the default class
        let mut u = job("");
        u.partition = Some("batch".into());
        p.job_submit(&mut u, 1000).unwrap();

        let keys = source.keys.lock().unwrap();
        assert_eq!(keys[0].0, p.system_hash(), "no class = pre-class key, PR6/PR7 compatible");
        assert_eq!(keys[1].0, classed_system_hash(p.system_hash(), "dense64"));
        assert_ne!(keys[1].0, keys[0].0, "classes partition the key space");
        assert_eq!(keys[2].0, p.system_hash(), "unmapped partition uses the default class");
        assert_eq!(telemetry.counter("plugin.class.default.hit").get(), 2);
        assert_eq!(telemetry.counter("plugin.class.dense64.hit").get(), 1);
    }

    #[test]
    fn class_misses_are_counted_per_class() {
        let root = tmpdir("classmiss");
        let (storage, contents) = stage(&root, PluginState::Active);
        let mut p = plugin(storage, contents);
        p.map_partition_class("dense", "dense64");
        p.set_source(Arc::new(DeadSource));
        let telemetry = Arc::new(Telemetry::wall());
        p.set_telemetry(Arc::clone(&telemetry));
        let mut d = job("");
        d.partition = Some("dense".into());
        p.job_submit(&mut d, 1000).unwrap();
        assert_eq!(telemetry.counter("plugin.class.dense64.miss").get(), 1);
        assert_eq!(telemetry.counter("plugin.class.dense64.hit").get(), 0);
        assert_eq!(p.stats().errors, 1);
    }

    #[test]
    fn prefetch_covers_every_configured_class() {
        let root = tmpdir("classprefetch");
        let (storage, contents) = stage(&root, PluginState::User);
        let mut p = plugin(storage, contents);
        p.register_binary("/opt/solver/bin/a", "solver-a");
        p.map_partition_class("dense", "dense64");
        p.map_partition_class("fast", "dense64"); // same class twice: deduped
        let source = Arc::new(BatchRecorder { calls: std::sync::Mutex::new(Vec::new()) });
        p.set_source(Arc::clone(&source) as Arc<dyn PredictionSource>);
        p.prefetch_predictions();
        let calls = source.calls.lock().unwrap();
        assert_eq!(calls.len(), 1, "still one batched call");
        assert_eq!(calls[0].len(), 4, "2 binaries x 2 distinct classes (default + dense64)");
        let classed = classed_system_hash(p.system_hash(), "dense64");
        assert!(calls[0].iter().any(|&(s, _)| s == p.system_hash()));
        assert!(calls[0].iter().any(|&(s, _)| s == classed));
    }

    /// Records reported outcomes, accepting them — stands in for an
    /// adaptation-aware daemon.
    struct OutcomeRecorder {
        reports: std::sync::Mutex<Vec<(u64, u64, ObservedOutcome)>>,
    }
    impl PredictionSource for OutcomeRecorder {
        fn predict(&self, _s: u64, _b: u64) -> chronus::Result<CpuConfig> {
            Ok(CpuConfig::new(16, 2_200_000, 1))
        }
        fn report_outcome(&self, s: u64, b: u64, outcome: &ObservedOutcome) -> chronus::Result<bool> {
            self.reports.lock().unwrap().push((s, b, outcome.clone()));
            Ok(true)
        }
        fn describe(&self) -> String {
            "outcome recorder".into()
        }
    }

    fn observed() -> ObservedOutcome {
        ObservedOutcome {
            config: CpuConfig::new(16, 2_200_000, 1),
            gflops: 30.0,
            watts: 200.0,
            duration_s: 60.0,
            node_class: String::new(),
        }
    }

    #[test]
    fn outcomes_report_under_the_prediction_key() {
        let root = tmpdir("outcomekey");
        let (storage, contents) = stage(&root, PluginState::Active);
        let mut p = plugin(storage, contents);
        p.map_partition_class("dense", "dense64");
        let source = Arc::new(OutcomeRecorder { reports: std::sync::Mutex::new(Vec::new()) });
        p.set_source(Arc::clone(&source) as Arc<dyn PredictionSource>);
        let telemetry = Arc::new(Telemetry::wall());
        p.set_telemetry(Arc::clone(&telemetry));

        assert!(p.report_outcome("/opt/hpcg/bin/xhpcg", None, &observed()));
        assert!(p.report_outcome("/opt/hpcg/bin/xhpcg", Some("dense"), &observed()));
        let reports = source.reports.lock().unwrap();
        assert_eq!(reports[0].0, p.system_hash(), "partition-less outcome uses the legacy key");
        assert_eq!(reports[1].0, classed_system_hash(p.system_hash(), "dense64"));
        assert_eq!(reports[0].1, binary_hash(contents), "registered binary hashes by contents");
        assert_eq!(telemetry.counter("plugin.outcomes.reported").get(), 2);
        assert_eq!(telemetry.counter("plugin.outcomes.accepted").get(), 2);
    }

    #[test]
    fn sources_with_nowhere_to_report_count_as_unsupported_not_failed() {
        let root = tmpdir("outcomeold");
        let (storage, contents) = stage(&root, PluginState::Active);
        let mut p = plugin(storage, contents);
        // FixedSource does not override report_outcome: the trait
        // default answers Ok(false), as every local source does
        p.set_source(Arc::new(FixedSource(CpuConfig::new(8, 1_500_000, 2))));
        let telemetry = Arc::new(Telemetry::wall());
        p.set_telemetry(Arc::clone(&telemetry));
        assert!(!p.report_outcome("/opt/hpcg/bin/xhpcg", None, &observed()));
        assert_eq!(telemetry.counter("plugin.outcomes.unsupported").get(), 1);
        assert_eq!(telemetry.counter("plugin.outcomes.failed").get(), 0);
        assert_eq!(p.stats().errors, 0, "an unsupported outcome verb is not a submission error");
    }

    /// A source whose outcome path fails outright (dead daemon).
    struct DeadOutcomeSource;
    impl PredictionSource for DeadOutcomeSource {
        fn predict(&self, _s: u64, _b: u64) -> chronus::Result<CpuConfig> {
            Ok(CpuConfig::new(16, 2_200_000, 1))
        }
        fn report_outcome(&self, _s: u64, _b: u64, _o: &ObservedOutcome) -> chronus::Result<bool> {
            Err(chronus::ChronusError::Model("connect refused".into()))
        }
        fn describe(&self) -> String {
            "dead outcome path".into()
        }
    }

    #[test]
    fn dead_outcome_path_is_soft_and_counted() {
        let root = tmpdir("outcomedead");
        let (storage, contents) = stage(&root, PluginState::Active);
        let mut p = plugin(storage, contents);
        p.set_source(Arc::new(DeadOutcomeSource));
        let telemetry = Arc::new(Telemetry::wall());
        p.set_telemetry(Arc::clone(&telemetry));
        assert!(!p.report_outcome("/opt/hpcg/bin/xhpcg", None, &observed()));
        assert_eq!(telemetry.counter("plugin.outcomes.failed").get(), 1);
    }

    #[test]
    fn plugin_name_is_eco() {
        let root = tmpdir("name");
        let (storage, contents) = stage(&root, PluginState::User);
        let p = plugin(storage, contents);
        assert_eq!(p.name(), "eco");
        assert!(p.system_hash() != 0);
    }
}
