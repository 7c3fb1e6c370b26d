//! The application layer — Chronus's four functions (§3.1.2) plus
//! settings management, behind the [`Chronus`] container that wires the
//! integration interfaces together (the paper's `main.py` entry point).
//!
//! 1. **Benchmarking** — [`Chronus::benchmark`]
//! 2. **Model building** — [`Chronus::init_model`]
//! 3. **Pre-load model** — [`Chronus::load_model`]
//! 4. **Predict energy-efficient configuration** — [`Chronus::slurm_config`]
//! 5. **Settings** — [`Chronus::set_state`] and friends (`chronus set`)

use crate::domain::{
    Benchmark, EnergySample, LoadedModel, ModelMetadata, PluginState, SampleIntervalMs, Settings, SystemEntry,
};
use crate::error::{ChronusError, Result};
use crate::integrations::storage::publish;
use crate::interfaces::{
    ApplicationRunner, FileRepository, LocalStorage, Repository, SystemInfoProvider, SystemService,
};
use crate::logging::ChronusLog;
use crate::optimizers::ModelFactory;
use crate::telemetry::{Span, Telemetry};
use eco_sim_node::clock::SimDuration;
use eco_sim_node::cpu::{CpuConfig, CpuSpec};
use eco_slurm_sim::Cluster;
use std::sync::Arc;

/// The assembled Chronus application.
pub struct Chronus {
    repository: Box<dyn Repository + Send>,
    blob: Box<dyn FileRepository + Send>,
    local: Box<dyn LocalStorage + Send>,
    log: ChronusLog,
    telemetry: Arc<Telemetry>,
}

/// The paper samples the BMC "at a 2-second interval" (§3.1.2 step 2).
pub const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration(2000);

impl Chronus {
    /// Wires the application from its three storage integrations.
    pub fn new(
        repository: Box<dyn Repository + Send>,
        blob: Box<dyn FileRepository + Send>,
        local: Box<dyn LocalStorage + Send>,
    ) -> Self {
        Chronus { repository, blob, local, log: ChronusLog::new(), telemetry: Arc::new(Telemetry::wall()) }
    }

    /// Mirrors every log line to a file (the paper's
    /// `/var/log/chronus.log`).
    pub fn with_log_file(mut self, path: impl AsRef<std::path::Path>) -> Self {
        self.log = ChronusLog::with_file(path);
        self
    }

    /// Emits application spans through an externally owned [`Telemetry`]
    /// (so `benchmark`/`init_model`/… traces land in the same timeline
    /// as the submit path and the daemon).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry the application functions trace through.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The captured log (what the terminal showed).
    pub fn log(&self) -> &ChronusLog {
        &self.log
    }

    /// Read access to the repository.
    pub fn repository(&self) -> &dyn Repository {
        self.repository.as_ref()
    }

    /// The current settings.
    pub fn settings(&self) -> Result<Settings> {
        self.local.load_settings()
    }

    // ------------------------------------------------------ benchmarking

    /// Runs the benchmark sweep (`chronus benchmark`): registers the
    /// system, then for each configuration submits a job, samples the BMC
    /// at `sample_interval` while the job runs, and saves a [`Benchmark`].
    /// `configs = None` sweeps "all configurations based on the system
    /// CPU".
    pub fn benchmark(
        &mut self,
        cluster: &mut Cluster,
        runner: &dyn ApplicationRunner,
        sampler: &mut dyn SystemService,
        system_info: &dyn SystemInfoProvider,
        configs: Option<&[CpuConfig]>,
        sample_interval: SimDuration,
    ) -> Result<Vec<Benchmark>> {
        assert!(!sample_interval.is_zero(), "sampling interval must be positive");
        let telemetry = Arc::clone(&self.telemetry);
        let mut span = telemetry.root_span("app", "benchmark");
        match self.benchmark_under(&span, cluster, runner, sampler, system_info, configs, sample_interval) {
            Ok(out) => {
                span.attr("benchmarks", out.len());
                Ok(out)
            }
            Err(e) => {
                span.set_error(e.to_string());
                Err(e)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn benchmark_under(
        &mut self,
        span: &Span,
        cluster: &mut Cluster,
        runner: &dyn ApplicationRunner,
        sampler: &mut dyn SystemService,
        system_info: &dyn SystemInfoProvider,
        configs: Option<&[CpuConfig]>,
        sample_interval: SimDuration,
    ) -> Result<Vec<Benchmark>> {
        let facts = system_info.facts(cluster);
        let hash = system_info.system_hash(cluster);
        let system_id =
            self.repository.save_system(&SystemEntry { id: -1, facts: facts.clone(), system_hash: hash })?;

        let spec = cluster.node(0).spec().clone();
        let sweep: Vec<CpuConfig> = match configs {
            Some(c) => c.to_vec(),
            None => spec.all_configurations(),
        };

        let mut out = Vec::with_capacity(sweep.len());
        for config in &sweep {
            spec.validate(config).map_err(|e| ChronusError::InvalidInput(e.to_string()))?;
            let mut trial = span.child("app", "trial");
            trial.attr("config", config);
            match self.run_one(cluster, runner, sampler, system_id, config, sample_interval) {
                Ok(benchmark) => {
                    trial.attr("gflops", format!("{:.3}", benchmark.gflops));
                    trial.attr("samples", benchmark.sample_count);
                    out.push(benchmark);
                }
                Err(e) => {
                    trial.set_error(e.to_string());
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    fn run_one(
        &mut self,
        cluster: &mut Cluster,
        runner: &dyn ApplicationRunner,
        sampler: &mut dyn SystemService,
        system_id: i64,
        config: &CpuConfig,
        sample_interval: SimDuration,
    ) -> Result<Benchmark> {
        let job_id = runner.submit(cluster, config)?;
        self.log.info(cluster.now(), "benchmark_service.rs:run", format!("Job started with id: {job_id} ({config})"));
        let mut samples = Vec::new();
        samples.push(sampler.sample(cluster));
        // Sample while the job runs. The final partial interval is not
        // sampled — once the job terminates the node is idle and a reading
        // there would pollute the averages (at most one interval of energy
        // is left out of the integral, as with the real Chronus sampler).
        let max_iters = 10_000_000u64;
        let mut iters = 0;
        loop {
            cluster.advance(sample_interval);
            if cluster.job(job_id)?.state.is_terminal() {
                break;
            }
            samples.push(sampler.sample(cluster));
            iters += 1;
            if iters > max_iters {
                return Err(ChronusError::Model("benchmark job never finished".into()));
            }
        }
        let record = cluster
            .accounting()
            .get(job_id)
            .ok_or_else(|| ChronusError::NotFound(format!("accounting record for job {job_id}")))?
            .clone();
        let gflops = runner.gflops_from_record(&record);
        let runtime_s = match (record.start_time, record.end_time) {
            (Some(s), Some(e)) => (e - s).as_secs_f64(),
            _ => 0.0,
        };

        let benchmark = Benchmark {
            id: -1,
            system_id,
            binary_hash: runner.binary_hash(),
            config: *config,
            gflops,
            runtime_s,
            avg_system_w: mean(&samples, |s| s.system_w),
            avg_cpu_w: mean(&samples, |s| s.cpu_w),
            avg_cpu_temp_c: mean(&samples, |s| s.cpu_temp_c),
            system_energy_j: trapezoid(&samples, |s| s.system_w),
            cpu_energy_j: trapezoid(&samples, |s| s.cpu_w),
            sample_count: samples.len(),
        };
        self.log.info(cluster.now(), "hpcg.rs:rating", format!("GFLOP/s rating found: {gflops:.5}"));
        let id = self.repository.save_benchmark(&benchmark)?;
        self.log.info(cluster.now(), "sqlite_repository.rs:save", "Run data has been saved to the database.");
        Ok(Benchmark { id, ..benchmark })
    }

    /// Like [`Chronus::benchmark`], but skips configurations already
    /// benchmarked for this (system, binary) — so an interrupted sweep
    /// ("the benchmarking process can take a while", §3.3) resumes where
    /// it stopped. Returns only the newly measured benchmarks.
    pub fn benchmark_missing(
        &mut self,
        cluster: &mut Cluster,
        runner: &dyn ApplicationRunner,
        sampler: &mut dyn SystemService,
        system_info: &dyn SystemInfoProvider,
        configs: Option<&[CpuConfig]>,
        sample_interval: SimDuration,
    ) -> Result<Vec<Benchmark>> {
        let facts = system_info.facts(cluster);
        let hash = system_info.system_hash(cluster);
        let system_id = self.repository.save_system(&SystemEntry { id: -1, facts, system_hash: hash })?;
        let done: std::collections::HashSet<CpuConfig> =
            self.repository.benchmarks(system_id, runner.binary_hash())?.into_iter().map(|b| b.config).collect();
        let spec = cluster.node(0).spec().clone();
        let sweep: Vec<CpuConfig> = match configs {
            Some(c) => c.to_vec(),
            None => spec.all_configurations(),
        };
        let todo: Vec<CpuConfig> = sweep.into_iter().filter(|c| !done.contains(c)).collect();
        if !done.is_empty() {
            self.log.info(
                cluster.now(),
                "benchmark_service.rs:resume",
                format!("resuming sweep: {} configuration(s) already benchmarked, {} to go", done.len(), todo.len()),
            );
        }
        self.benchmark(cluster, runner, sampler, system_info, Some(&todo), sample_interval)
    }

    // --------------------------------------------------- model building

    /// Builds a prediction model (`chronus init-model`): loads the
    /// system's benchmarks, fits the requested optimizer, uploads the
    /// serialized model to blob storage and saves its metadata.
    pub fn init_model(
        &mut self,
        model_type: &str,
        system_id: i64,
        binary_hash: u64,
        now_ms: u64,
    ) -> Result<ModelMetadata> {
        let telemetry = Arc::clone(&self.telemetry);
        let mut span = telemetry.root_span("app", "init_model");
        span.attr("model_type", model_type);
        span.attr("system_id", system_id);
        match self.init_model_inner(model_type, system_id, binary_hash, now_ms) {
            Ok(meta) => {
                span.attr("model_id", meta.id);
                span.attr("resolved_type", &meta.model_type);
                Ok(meta)
            }
            Err(e) => {
                span.set_error(e.to_string());
                Err(e)
            }
        }
    }

    fn init_model_inner(
        &mut self,
        model_type: &str,
        system_id: i64,
        binary_hash: u64,
        now_ms: u64,
    ) -> Result<ModelMetadata> {
        let benchmarks = self.repository.benchmarks(system_id, binary_hash)?;
        if benchmarks.is_empty() {
            return Err(ChronusError::NotFound(format!("benchmarks for system {system_id} / binary {binary_hash}")));
        }
        // `auto` cross-validates the families and picks the best
        let model_type: &str = if model_type == crate::optimizers::AUTO {
            crate::optimizers::select_model_type(&benchmarks, 4.min(benchmarks.len()).max(2), 0xc5)?.0
        } else {
            model_type
        };
        let mut optimizer = ModelFactory::create(model_type)?;
        let report = optimizer.fit(&benchmarks)?;
        let blob_path = format!("models/{system_id}/{model_type}-{binary_hash}-{now_ms}.json");
        self.blob.put(&blob_path, &optimizer.to_bytes()?)?;
        let meta = ModelMetadata {
            id: -1,
            model_type: model_type.to_string(),
            system_id,
            binary_hash,
            blob_path,
            created_at_ms: now_ms,
            train_rows: report.train_rows,
            fit_r2: report.r2,
        };
        let id = self.repository.save_model(&meta)?;
        Ok(ModelMetadata { id, ..meta })
    }

    // ------------------------------------------------------- pre-load

    /// Pre-loads a model (`chronus load-model`): fetches the blob, writes
    /// it to local disk on the head node (the paper's
    /// `/opt/chronus/optimizer`) and records it in the settings, so the
    /// submit-time prediction never touches the database or blob storage.
    pub fn load_model(&mut self, model_id: i64) -> Result<LoadedModel> {
        let telemetry = Arc::clone(&self.telemetry);
        let mut span = telemetry.root_span("app", "load_model");
        span.attr("model_id", model_id);
        match self.load_model_inner(model_id) {
            Ok(loaded) => {
                span.attr("model_type", &loaded.model_type);
                Ok(loaded)
            }
            Err(e) => {
                span.set_error(e.to_string());
                Err(e)
            }
        }
    }

    fn load_model_inner(&mut self, model_id: i64) -> Result<LoadedModel> {
        let meta =
            self.repository.model(model_id)?.ok_or_else(|| ChronusError::NotFound(format!("model {model_id}")))?;
        let system = self
            .repository
            .systems()?
            .into_iter()
            .find(|s| s.id == meta.system_id)
            .ok_or_else(|| ChronusError::NotFound(format!("system {}", meta.system_id)))?;

        let bytes = self.blob.get(&meta.blob_path)?;
        let local_path = self.local.resolve(&format!("opt/chronus/optimizers/model-{model_id}.json"));
        if let Some(parent) = local_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // re-staging under the same id lands on the same path: published
        // whole and under a fresh stamp, like settings.json, so a plugin
        // holding the previous model's answer sees the file move
        publish(&local_path, &bytes, false)?;

        // also stage the benchmark rows: the deadline-aware extension
        // (§6.2.1) needs measured runtimes on the submit path
        let benchmarks = self.repository.benchmarks(meta.system_id, meta.binary_hash)?;
        let benchmarks_path = self.local.resolve(&format!("opt/chronus/optimizers/benchmarks-{model_id}.json"));
        std::fs::write(&benchmarks_path, serde_json::to_vec(&benchmarks)?)?;

        let loaded = LoadedModel {
            model_id,
            model_type: meta.model_type.clone(),
            local_path: local_path.to_string_lossy().into_owned(),
            system_hash: system.system_hash,
            binary_hash: meta.binary_hash,
            facts: system.facts.clone(),
            benchmarks_path: Some(benchmarks_path.to_string_lossy().into_owned()),
        };
        let mut settings = self.local.load_settings()?;
        settings.loaded_model = Some(loaded.clone());
        self.local.save_settings(&settings)?;
        Ok(loaded)
    }

    // ------------------------------------------------------- predict

    /// Predicts the energy-efficient configuration
    /// (`chronus slurm-config SYSTEM_HASH BINARY_HASH`). Only reads the
    /// pre-loaded model from local disk — this is the call on Slurm's
    /// submit path.
    pub fn slurm_config(&self, system_hash: u64, binary_hash: u64) -> Result<CpuConfig> {
        let mut span = self.telemetry.root_span("app", "slurm_config");
        span.attr("system_hash", format!("{system_hash:#x}"));
        span.attr("binary_hash", format!("{binary_hash:#x}"));
        let result = self.local.load_settings().and_then(|s| predict_from_settings(&s, system_hash, binary_hash));
        match &result {
            Ok(config) => span.attr("config", config),
            Err(e) => span.set_error(e.to_string()),
        }
        result
    }

    // ------------------------------------------------------- settings

    /// `chronus set database PATH`.
    pub fn set_database(&mut self, path: &str) -> Result<()> {
        let mut s = self.local.load_settings()?;
        s.database = path.to_string();
        self.local.save_settings(&s)
    }

    /// `chronus set blob-storage PATH`.
    pub fn set_blob_storage(&mut self, path: &str) -> Result<()> {
        let mut s = self.local.load_settings()?;
        s.blob_storage = path.to_string();
        self.local.save_settings(&s)
    }

    /// `chronus set state {active|user|deactivated}`.
    pub fn set_state(&mut self, state: PluginState) -> Result<()> {
        let mut s = self.local.load_settings()?;
        s.state = state;
        self.local.save_settings(&s)
    }

    /// `chronus set sample-interval MS` — the benchmark sampler's IPMI
    /// polling cadence. Zero and negative values are rejected.
    pub fn set_sample_interval(&mut self, ms: i64) -> Result<()> {
        let interval = SampleIntervalMs::try_from_millis(ms).map_err(ChronusError::InvalidInput)?;
        let mut s = self.local.load_settings()?;
        s.sample_interval = interval;
        self.local.save_settings(&s)
    }

    /// The configured IPMI sample interval (the paper's 2 s unless
    /// `chronus set sample-interval` changed it).
    pub fn sample_interval(&self) -> Result<SampleIntervalMs> {
        Ok(self.local.load_settings()?.sample_interval)
    }
}

/// The submit-path prediction, standalone so the eco plugin can run it
/// against a settings snapshot without owning a [`Chronus`] instance.
pub fn predict_from_settings(settings: &Settings, system_hash: u64, binary_hash: u64) -> Result<CpuConfig> {
    let loaded = settings
        .loaded_model
        .as_ref()
        .ok_or_else(|| ChronusError::Model("no model is pre-loaded; run `chronus load-model`".into()))?;
    if loaded.system_hash != system_hash {
        return Err(ChronusError::Model(format!(
            "pre-loaded model is for system {:#x}, job is on system {:#x}",
            loaded.system_hash, system_hash
        )));
    }
    if loaded.binary_hash != binary_hash {
        return Err(ChronusError::Model(format!(
            "pre-loaded model is for binary {:#x}, job runs binary {:#x}",
            loaded.binary_hash, binary_hash
        )));
    }
    let bytes = std::fs::read(&loaded.local_path)?;
    let optimizer = ModelFactory::from_bytes(&loaded.model_type, &bytes)?;
    let spec = CpuSpec {
        name: loaded.facts.cpu_name.clone(),
        cores: loaded.facts.cores,
        threads_per_core: loaded.facts.threads_per_core,
        frequencies_khz: loaded.facts.frequencies_khz.clone(),
    };
    optimizer.best_config(&spec.all_configurations())
}

fn mean(samples: &[EnergySample], f: impl Fn(&EnergySample) -> f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(f).sum::<f64>() / samples.len() as f64
}

fn trapezoid(samples: &[EnergySample], f: impl Fn(&EnergySample) -> f64) -> f64 {
    samples.windows(2).map(|w| (w[1].t_s - w[0].t_s) * (f(&w[0]) + f(&w[1])) / 2.0).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrations::hpcg_runner::HpcgRunner;
    use crate::integrations::monitoring::{IpmiService, LscpuInfo};
    use crate::integrations::record_store::RecordStore;
    use crate::integrations::storage::{EtcStorage, LocalBlobStore};
    use eco_hpcg::perf_model::PerfModel;
    use eco_hpcg::workload::HpcgWorkload;
    use eco_sim_node::SimNode;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("eco-chronus-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn chronus(root: &PathBuf) -> Chronus {
        Chronus::new(
            Box::new(RecordStore::open(root.join("database/data.db")).unwrap()),
            Box::new(LocalBlobStore::new(root.join("blobs")).unwrap()),
            Box::new(EtcStorage::new(root)),
        )
    }

    fn setup(root: &PathBuf) -> (Chronus, Cluster, HpcgRunner, IpmiService, LscpuInfo) {
        let mut cluster = Cluster::single_node(SimNode::sr650());
        let perf = Arc::new(PerfModel::sr650());
        // small work so each benchmark takes ~20-30 simulated seconds
        let work = perf.gflops(&perf.standard_config()) * 25.0;
        let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
        let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload);
        (chronus(root), cluster, runner, IpmiService::new(0, 42), LscpuInfo::new(0))
    }

    fn small_sweep() -> Vec<CpuConfig> {
        vec![
            CpuConfig::new(32, 2_500_000, 1),
            CpuConfig::new(32, 2_200_000, 1),
            CpuConfig::new(32, 1_500_000, 1),
            CpuConfig::new(16, 2_200_000, 1),
            CpuConfig::new(16, 2_200_000, 2),
            CpuConfig::new(8, 2_500_000, 2),
        ]
    }

    #[test]
    fn benchmark_sweep_produces_saved_benchmarks() {
        let root = tmpdir("sweep");
        let (mut app, mut cluster, runner, mut sampler, info) = setup(&root);
        let benches = app
            .benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&small_sweep()), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        assert_eq!(benches.len(), 6);
        for b in &benches {
            assert!(b.id > 0, "saved with an id");
            assert!(b.gflops > 0.0);
            assert!(b.avg_system_w > 100.0);
            assert!(b.system_energy_j > 0.0);
            assert!(b.sample_count >= 2);
            assert!(b.gflops_per_watt() > 0.0);
        }
        // persisted
        assert_eq!(app.repository().all_benchmarks().unwrap().len(), 6);
        assert_eq!(app.repository().systems().unwrap().len(), 1);
    }

    #[test]
    fn benchmark_reproduces_headline_ordering() {
        let root = tmpdir("ordering");
        let (mut app, mut cluster, runner, mut sampler, info) = setup(&root);
        let configs = vec![CpuConfig::new(32, 2_500_000, 1), CpuConfig::new(32, 2_200_000, 1)];
        let benches = app
            .benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&configs), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        let std_gpw = benches[0].gflops_per_watt();
        let best_gpw = benches[1].gflops_per_watt();
        let gain = best_gpw / std_gpw;
        assert!(gain > 1.05 && gain < 1.22, "measured gain {gain} should be near the paper's 1.13");
    }

    #[test]
    fn full_pipeline_benchmark_model_load_predict() {
        let root = tmpdir("pipeline");
        let (mut app, mut cluster, runner, mut sampler, info) = setup(&root);
        app.benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&small_sweep()), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();

        let meta = app.init_model("brute-force", 1, runner.binary_hash(), 1_000).unwrap();
        assert!(meta.id > 0);
        assert_eq!(meta.train_rows, 6);

        let loaded = app.load_model(meta.id).unwrap();
        assert!(std::path::Path::new(&loaded.local_path).exists());

        let sys_hash = info.system_hash(&cluster);
        let predicted = app.slurm_config(sys_hash, runner.binary_hash()).unwrap();
        // with the small sweep the measured best is 32c @ 2.2 GHz no-HT
        assert_eq!(predicted, CpuConfig::new(32, 2_200_000, 1));
    }

    #[test]
    fn init_model_auto_selects_a_family() {
        let root = tmpdir("auto");
        let (mut app, mut cluster, runner, mut sampler, info) = setup(&root);
        app.benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&small_sweep()), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        let meta = app.init_model("auto", 1, runner.binary_hash(), 5).unwrap();
        assert_ne!(meta.model_type, "auto", "auto resolves to a concrete family");
        assert!(crate::optimizers::ModelFactory::model_types().contains(&meta.model_type.as_str()));
        // the stored model loads and predicts
        let loaded = app.load_model(meta.id).unwrap();
        assert_eq!(loaded.model_type, meta.model_type);
    }

    #[test]
    fn init_model_without_benchmarks_errors() {
        let root = tmpdir("nobench");
        let mut app = chronus(&root);
        assert!(matches!(app.init_model("brute-force", 1, 7, 0), Err(ChronusError::NotFound(_))));
    }

    #[test]
    fn load_model_unknown_id_errors() {
        let root = tmpdir("nomodel");
        let mut app = chronus(&root);
        assert!(matches!(app.load_model(42), Err(ChronusError::NotFound(_))));
    }

    #[test]
    fn slurm_config_without_loaded_model_errors() {
        let root = tmpdir("nopredict");
        let app = chronus(&root);
        let err = app.slurm_config(1, 2).unwrap_err();
        assert!(err.to_string().contains("load-model"), "{err}");
    }

    #[test]
    fn slurm_config_wrong_hashes_error() {
        let root = tmpdir("wronghash");
        let (mut app, mut cluster, runner, mut sampler, info) = setup(&root);
        app.benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&small_sweep()[..2]), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        let meta = app.init_model("brute-force", 1, runner.binary_hash(), 0).unwrap();
        app.load_model(meta.id).unwrap();
        let sys_hash = info.system_hash(&cluster);
        assert!(app.slurm_config(sys_hash + 1, runner.binary_hash()).is_err());
        assert!(app.slurm_config(sys_hash, runner.binary_hash() + 1).is_err());
        assert!(app.slurm_config(sys_hash, runner.binary_hash()).is_ok());
    }

    #[test]
    fn benchmark_missing_resumes_a_sweep() {
        let root = tmpdir("resume");
        let (mut app, mut cluster, runner, mut sampler, info) = setup(&root);
        let sweep = small_sweep();
        // first pass: only two configs measured (simulating an interrupt)
        app.benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&sweep[..2]), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        // resume over the full list: only the remaining four run
        let new = app
            .benchmark_missing(&mut cluster, &runner, &mut sampler, &info, Some(&sweep), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        assert_eq!(new.len(), sweep.len() - 2);
        assert_eq!(app.repository().all_benchmarks().unwrap().len(), sweep.len());
        // resuming again is a no-op
        let again = app
            .benchmark_missing(&mut cluster, &runner, &mut sampler, &info, Some(&sweep), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        assert!(again.is_empty());
        // the resume was logged
        assert!(app.log().render().contains("resuming sweep"), "{}", app.log().render());
    }

    #[test]
    fn benchmark_run_logs_figure_1_lines() {
        let root = tmpdir("logs");
        let (mut app, mut cluster, runner, mut sampler, info) = setup(&root);
        app.benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&small_sweep()[..1]), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        let text = app.log().render();
        assert!(text.contains("Job started with id:"), "{text}");
        assert!(text.contains("GFLOP/s rating found:"), "{text}");
        assert!(text.contains("Run data has been saved"), "{text}");
    }

    #[test]
    fn log_file_mirrors_entries() {
        let root = tmpdir("logfile");
        let log_path = root.join("var/log/chronus.log");
        let (app, mut cluster, runner, mut sampler, info) = setup(&root);
        let mut app = app.with_log_file(&log_path);
        app.benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&small_sweep()[..1]), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        let content = std::fs::read_to_string(&log_path).unwrap();
        assert!(content.contains("GFLOP/s rating found:"), "{content}");
    }

    #[test]
    fn settings_commands_persist() {
        let root = tmpdir("set");
        let mut app = chronus(&root);
        app.set_database("/var/db/x.db").unwrap();
        app.set_blob_storage("/blobs").unwrap();
        app.set_state(PluginState::Active).unwrap();
        let s = app.settings().unwrap();
        assert_eq!(s.database, "/var/db/x.db");
        assert_eq!(s.blob_storage, "/blobs");
        assert_eq!(s.state, PluginState::Active);
    }

    #[test]
    fn sample_interval_setting_persists_and_rejects_nonpositive() {
        let root = tmpdir("interval");
        let mut app = chronus(&root);
        assert_eq!(app.sample_interval().unwrap().as_millis(), 2000, "paper default");
        app.set_sample_interval(500).unwrap();
        assert_eq!(app.sample_interval().unwrap().as_millis(), 500);
        assert!(matches!(app.set_sample_interval(0), Err(ChronusError::InvalidInput(_))));
        assert!(matches!(app.set_sample_interval(-3), Err(ChronusError::InvalidInput(_))));
        // rejected values must not clobber the stored setting
        assert_eq!(app.sample_interval().unwrap().as_millis(), 500);
    }

    #[test]
    fn application_functions_record_telemetry_spans() {
        use crate::telemetry::Telemetry;

        let root = tmpdir("appspans");
        let telemetry = Arc::new(Telemetry::wall());
        let (app, mut cluster, runner, mut sampler, info) = setup(&root);
        let mut app = app.with_telemetry(Arc::clone(&telemetry));
        app.benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&small_sweep()[..2]), DEFAULT_SAMPLE_INTERVAL)
            .unwrap();
        let meta = app.init_model("brute-force", 1, runner.binary_hash(), 0).unwrap();
        app.load_model(meta.id).unwrap();
        let sys_hash = info.system_hash(&cluster);
        app.slurm_config(sys_hash, runner.binary_hash()).unwrap();

        let spans = telemetry.recorder().events();
        let names: Vec<&str> = spans.iter().map(|s| &*s.name).collect();
        for expect in ["benchmark", "trial", "init_model", "load_model", "slurm_config"] {
            assert!(names.contains(&expect), "missing app span {expect}: {names:?}");
        }
        // one trial span per configuration, parented under the sweep span
        let bench = spans.iter().find(|s| s.name == "benchmark").unwrap();
        let trials: Vec<_> = spans.iter().filter(|s| s.name == "trial").collect();
        assert_eq!(trials.len(), 2);
        for t in &trials {
            assert_eq!(t.trace, bench.trace, "trials share the benchmark trace");
            assert_eq!(t.parent, Some(bench.span), "trials parent under the sweep span");
            assert!(t.is_ok(), "trial succeeded: {}", t.outcome);
        }
        // failures mark the span
        app.load_model(9999).unwrap_err();
        let spans = telemetry.recorder().events();
        let failed = spans.iter().rev().find(|s| s.name == "load_model").unwrap();
        assert!(!failed.is_ok(), "error spans record set_error");
    }

    #[test]
    fn energy_integral_matches_runtime_times_power() {
        let root = tmpdir("energy");
        let (mut app, mut cluster, runner, mut sampler, info) = setup(&root);
        let configs = vec![CpuConfig::new(32, 2_500_000, 1)];
        let b = &app
            .benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&configs), DEFAULT_SAMPLE_INTERVAL)
            .unwrap()[0];
        let approx = b.avg_system_w * b.runtime_s;
        let rel = (b.system_energy_j - approx).abs() / approx;
        assert!(rel < 0.15, "integral {} vs avg*t {approx}", b.system_energy_j);
    }

    #[test]
    fn trapezoid_and_mean_helpers() {
        let samples = vec![
            EnergySample { t_s: 0.0, system_w: 100.0, cpu_w: 50.0, cpu_temp_c: 40.0 },
            EnergySample { t_s: 2.0, system_w: 200.0, cpu_w: 100.0, cpu_temp_c: 60.0 },
        ];
        assert_eq!(trapezoid(&samples, |s| s.system_w), 300.0);
        assert_eq!(mean(&samples, |s| s.cpu_temp_c), 50.0);
        assert_eq!(mean(&[], |s: &EnergySample| s.cpu_w), 0.0);
    }
}
