//! The cold start every workload performs before it measures anything —
//! what a site does after a head-node reboot: fit the models, commit
//! them to the durable store, boot the daemon from the store
//! (hash-verified catch-up), load the plugin, connect, prefetch. It is
//! real work on purpose (about a second): a set-up of a few milliseconds
//! cannot repeat, and work a later change moves out of the hot path and
//! into set-up has to show up somewhere.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronus::domain::{LoadedModel, PluginState, Settings};
use chronus::integrations::storage::EtcStorage;
use chronus::interfaces::LocalStorage;
use chronus::remote::{Endpoint, LocalPrediction, PredictClient, PredictionSource, RemotePrediction};
use chronus::telemetry::Telemetry;
use chronus::ModelFactory;
use chronusd::{PredictServer, ServerConfig};
use eco_campaign::{commit_to_store, fit_best_config, CampaignOutcome, CampaignSpec, PlanSpec};
use eco_plugin::JobSubmitEco;
use eco_sim_node::cpu::CpuConfig;
use eco_sim_node::sysinfo::SystemFacts;
use eco_slurm_sim::{Cluster, CoSchedulePolicy};
use eco_store::{DiskBackend, ModelBlob, ModelRecord, ModelStore};
use parking_lot::Mutex;

use crate::gen::{self, Catalog, KEYS, STAGED_KEY};
use crate::host::Placement;
use crate::layers::{CountingStore, StoreModelBackend, TimedPlugin, TimedSource, TimedStorage, TimedTransport};
use crate::probe::{Probe, SpanName, Wire};

/// How the plugin reaches its predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `tcp://127.0.0.1:<ephemeral>` to an in-process `PredictServer`.
    Tcp,
    /// `shm://<ring>,tcp://…`: the ring preferred, TCP as failover.
    Shm,
    /// No daemon: `LocalPrediction` over the staged model (`sched-deep`).
    Staged,
}

/// A directory removed when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn create(root: &Path, tag: &str) -> std::io::Result<TempDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = root.join(format!("eco-bench-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The generation of one key that is serving right now.
pub struct ServingModel {
    pub blob: ModelBlob,
    pub record: ModelRecord,
}

/// Where the cold start's time went, per key (per-layer metrics; ns).
#[derive(Debug, Default, Clone)]
pub struct SetupTimings {
    pub fit_ns: Vec<f64>,
    pub commit_ns: Vec<f64>,
}

/// Everything a workload runs against.
pub struct Stack {
    pub catalog: Catalog,
    pub route: Route,
    pub probe: Arc<Probe>,
    pub telemetry: Arc<Telemetry>,
    pub store: ModelStore,
    pub server: Option<PredictServer>,
    pub plugin: Arc<Mutex<JobSubmitEco>>,
    pub storage: Arc<TimedStorage<EtcStorage>>,
    /// Per key index: the generation serving now. The oracle compares
    /// every rewritten job with `models[key].record.config`.
    pub models: Vec<ServingModel>,
    /// Per key index: refits committed so far (picks the next outcome
    /// feed, so no two refits of a key claim the same optimum).
    pub refits: Vec<usize>,
    pub candidates: Vec<CpuConfig>,
    pub timings: SetupTimings,
    /// Dropped last: the daemon and the store live in it.
    pub tmp: TempDir,
}

/// The optimizer family key `k` is fit with. Every key is a random
/// forest, except the one `sched-deep` stages to local storage: the
/// paper's staged path deserializes the model on every opted-in
/// submission, which costs 15 ms for a forest and 0.2 ms for the
/// brute-force table, and `sched-deep` exists to measure the scheduler.
fn model_type(route: Route, k: usize) -> &'static str {
    if route == Route::Staged && k == STAGED_KEY {
        chronus::optimizers::BRUTE_FORCE
    } else {
        chronus::optimizers::RANDOM_TREE
    }
}

fn facts(catalog: &Catalog) -> SystemFacts {
    let head = &catalog.classes[0];
    SystemFacts {
        cpu_name: head.spec.name.clone(),
        cores: head.spec.cores,
        threads_per_core: head.spec.threads_per_core,
        frequencies_khz: head.spec.frequencies_khz.clone(),
        ram_gb: head.ram_gb,
    }
}

/// Commits a fitted model the way the campaign does: blob first, then
/// the ledger record with full provenance.
fn commit(
    store: &mut ModelStore,
    catalog: &Catalog,
    seed: u64,
    k: usize,
    blob: &ModelBlob,
) -> Result<ModelRecord, String> {
    let staged = LoadedModel {
        model_id: 1 + k as i64,
        model_type: blob.model_type.clone(),
        local_path: String::new(),
        system_hash: blob.system_hash,
        binary_hash: blob.binary_hash,
        facts: facts(catalog),
        benchmarks_path: None,
    };
    let spec = CampaignSpec {
        name: "bench-cold-start".to_string(),
        configs: Vec::new(),
        plan: PlanSpec::BruteForce,
        seed,
        sample_interval_ms: 2_000,
        full_work_gflop: 4_000.0,
        nx: 104,
        node_class: catalog.key_class(k).to_string(),
    };
    let outcome = CampaignOutcome {
        plan: "brute-force".to_string(),
        rounds: 1,
        trials_run: blob.benchmarks.len(),
        trials_skipped: 0,
        trials_failed: 0,
        trial_seconds: blob.benchmarks.iter().map(|b| b.runtime_s).sum(),
        best: blob.config,
        benchmarks: blob.benchmarks.clone(),
        system_id: 1,
        binary_hash: blob.binary_hash,
    };
    commit_to_store(store, &staged, &spec, &outcome).map_err(|e| format!("commit key {k}: {e}"))
}

/// Stages `blob` for the paper's local path, as `chronus load-model`
/// does: the serialized optimizer on local disk, `settings.json`
/// pointing at it.
pub fn stage_locally(stack: &Stack, k: usize, blob: &ModelBlob) -> Result<(), String> {
    let mut optimizer = ModelFactory::create(&blob.model_type).map_err(|e| e.to_string())?;
    optimizer.fit(&blob.benchmarks).map_err(|e| e.to_string())?;
    let path = stack.tmp.0.join("head/opt/chronus/optimizers").join(format!("model-{}.json", 1 + k));
    std::fs::create_dir_all(path.parent().expect("model path has a parent")).map_err(|e| e.to_string())?;
    std::fs::write(&path, optimizer.to_bytes().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let settings = Settings {
        state: PluginState::User,
        loaded_model: Some(LoadedModel {
            model_id: 1 + k as i64,
            model_type: blob.model_type.clone(),
            local_path: path.to_string_lossy().into_owned(),
            system_hash: blob.system_hash,
            binary_hash: blob.binary_hash,
            facts: facts(&stack.catalog),
            benchmarks_path: None,
        }),
        ..Settings::default()
    };
    stack.storage.save_settings(&settings).map_err(|e| e.to_string())
}

/// One cold start in a fresh directory under `tmp_root`.
pub fn cold_start(
    route: Route,
    seed: u64,
    probe: Arc<Probe>,
    tmp_root: &Path,
    placement: Option<Placement>,
) -> Result<Stack, String> {
    let catalog = if route == Route::Staged { Catalog::two_class() } else { Catalog::four_class() };
    let tmp =
        TempDir::create(tmp_root, "stack").map_err(|e| format!("temp dir under {}: {e}", tmp_root.display()))?;
    let store_dir = tmp.0.join("store");
    let disk = DiskBackend::open(&store_dir).map_err(|e| e.to_string())?;
    let mut store = ModelStore::open(Box::new(CountingStore { inner: disk, probe: Arc::clone(&probe) }))
        .map_err(|e| e.to_string())?;
    let candidates = gen::candidates();
    let mut timings = SetupTimings::default();

    // fit and commit all K models
    let mut models = Vec::with_capacity(KEYS);
    for k in 0..KEYS {
        let (system_hash, binary_hash) = catalog.key(k);
        let rows = gen::benchmark_rows(seed, k, binary_hash);
        let model_type = model_type(route, k);
        let t = Instant::now();
        let fitted = fit_best_config(model_type, &rows, &candidates).map_err(|e| format!("fit key {k}: {e}"))?;
        timings.fit_ns.push(t.elapsed().as_nanos() as f64);
        let blob = ModelBlob {
            model_type: model_type.to_string(),
            system_hash,
            binary_hash,
            config: fitted.best,
            benchmarks: rows,
        };
        let t = Instant::now();
        let record = commit(&mut store, &catalog, seed, k, &blob)?;
        timings.commit_ns.push(t.elapsed().as_nanos() as f64);
        models.push(ServingModel { blob, record });
    }

    // boot the daemon from the store; its threads inherit the CPU they
    // are spawned on, and the load thread then moves to its own
    if let Some(p) = placement {
        p.enter_daemon()?;
    }
    let server = if route == Route::Staged {
        None
    } else {
        let backend = Arc::new(StoreModelBackend::open(&store_dir).map_err(|e| e.to_string())?);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // Default knobs, except a registry sized for the working set:
            // capacity is budgeted per shard (64 / 8 = 8), so with 64 keys
            // any uneven hash split would thrash one shard through the
            // backend, and the benchmark would time that by accident.
            cache_cap: 4 * KEYS,
            store_dir: Some(store_dir.to_string_lossy().into_owned()),
            shm_path: (route == Route::Shm).then(|| tmp.0.join("chronusd.ring").to_string_lossy().into_owned()),
            ..ServerConfig::default()
        };
        let server = PredictServer::start(cfg, backend).map_err(|e| format!("daemon boot: {e}"))?;
        let boot = server.boot_recovery();
        if boot.store.installed != KEYS || !boot.store.rejected.is_empty() {
            return Err(format!(
                "daemon caught up {} of {KEYS} models: {:?}",
                boot.store.installed, boot.store.rejected
            ));
        }
        Some(server)
    };

    if let Some(p) = placement {
        p.enter_client()?;
    }

    // load the plugin on the head node
    let telemetry = Arc::new(Telemetry::wall());
    let storage = Arc::new(TimedStorage { inner: EtcStorage::new(tmp.0.join("head")), probe: Arc::clone(&probe) });
    storage
        .save_settings(&Settings { state: PluginState::User, ..Settings::default() })
        .map_err(|e| format!("settings.json: {e}"))?;
    let head = &catalog.classes[0];
    let mut eco =
        JobSubmitEco::new(Arc::clone(&storage) as Arc<dyn LocalStorage + Send + Sync>, &head.spec, head.ram_gb);
    for (install, b) in &catalog.installs {
        eco.register_binary(install, &catalog.binaries[*b].contents);
    }
    for class in &catalog.classes {
        eco.map_partition_class(&class.name, &class.name);
    }
    eco.set_default_class(&head.name);
    eco.set_telemetry(Arc::clone(&telemetry));
    let source: Arc<dyn PredictionSource> = match &server {
        None => Arc::new(LocalPrediction::new(Arc::clone(&storage) as Arc<dyn LocalStorage + Send + Sync>)),
        Some(server) => {
            // the client's own default timeouts
            let (connect, io) = (Duration::from_millis(200), Duration::from_millis(500));
            let mut endpoints = vec![(format!("tcp://{}", server.addr()), Wire::Tcp)];
            if let Some(ring) = server.shm_path() {
                endpoints.insert(0, (format!("shm://{ring}"), Wire::Shm));
            }
            let mut builder = PredictClient::builder();
            for (spec, wire) in endpoints {
                let inner = Endpoint::parse(&spec).map_err(|e| e.to_string())?.transport(connect, io);
                builder = builder.transport(Box::new(TimedTransport { inner, wire, probe: Arc::clone(&probe) }));
            }
            let remote = RemotePrediction::from_client(builder.build().map_err(|e| e.to_string())?);
            remote.set_telemetry(Arc::clone(&telemetry));
            Arc::new(remote)
        }
    };
    eco.set_source(Arc::new(TimedSource { inner: source, probe: Arc::clone(&probe) }));

    let stack = Stack {
        catalog,
        route,
        probe,
        telemetry,
        store,
        server,
        plugin: Arc::new(Mutex::new(eco)),
        storage,
        models,
        refits: vec![0; KEYS],
        candidates,
        timings,
        tmp,
    };
    if route == Route::Staged {
        stage_locally(&stack, STAGED_KEY, &stack.models[STAGED_KEY].blob)?;
    }

    // connect and warm every key in one batch
    let answered = stack.prefetch();
    let expected = stack.prefetch_expected();
    if answered != expected {
        return Err(format!("prefetch answered {answered} keys, expected {expected}"));
    }
    Ok(stack)
}

impl Stack {
    /// `JobSubmitEco::prefetch_predictions()`, under a span.
    pub fn prefetch(&self) -> usize {
        self.probe.span(SpanName::PluginPrefetch, || self.plugin.lock().prefetch_predictions())
    }

    /// Keys one prefetch asks for: every distinct class × every install.
    pub fn prefetch_keys(&self) -> usize {
        self.catalog.classes.len() * self.catalog.installs.len()
    }

    /// Keys one prefetch must answer: all of them from a daemon that
    /// holds every model; only the staged key's installs on the local
    /// path, which holds one.
    pub fn prefetch_expected(&self) -> usize {
        match self.route {
            Route::Staged => self.catalog.installs.iter().filter(|(_, b)| *b == STAGED_KEY).count(),
            _ => self.prefetch_keys(),
        }
    }

    /// A fresh cluster with the plugin loaded — built between rounds,
    /// untimed, like a controller that has purged its finished jobs.
    pub fn build_cluster(&self) -> Cluster {
        let classes: Vec<_> =
            self.catalog.classes.iter().map(|c| (c.clone(), self.catalog.nodes_per_class)).collect();
        let mut cluster = Cluster::heterogeneous(&classes);
        let deep = self.route == Route::Staged;
        for (install, b) in &self.catalog.installs {
            cluster.register_binary(install, gen::job_workload(*b, deep));
        }
        if deep {
            let (cap_w, headroom_w) = self.power_budget();
            cluster.set_power_cap(Some(cap_w));
            cluster.set_power_headroom(headroom_w);
            cluster.set_co_schedule(CoSchedulePolicy::Pack);
            cluster.set_backfill(true);
            cluster.set_starvation_guard(Some(eco_sim_node::clock::SimDuration::from_secs(120)));
        }
        cluster.set_telemetry(Arc::clone(&self.telemetry));
        cluster.register_plugin(Box::new(TimedPlugin {
            inner: Arc::clone(&self.plugin),
            probe: Arc::clone(&self.probe),
        }));
        cluster
    }

    /// `sched-deep`'s facility budget as `(cap, headroom)` watts: the cap
    /// is idle draw plus the fan headroom plus half of the dynamic range;
    /// the headroom is the fleet's worst-case fan ramp, held back at
    /// admission so the instantaneous draw never crosses the cap.
    pub fn power_budget(&self) -> (f64, f64) {
        let n = self.catalog.nodes_per_class as f64;
        let (mut idle_w, mut max_w, mut fan_w) = (0.0, 0.0, 0.0);
        for class in &self.catalog.classes {
            idle_w += class.idle_system_w() * n;
            max_w += class.max_system_w() * n;
            fan_w += class.max_fan_w() * n;
        }
        (idle_w + fan_w + 0.5 * (max_w - idle_w), fan_w)
    }
}
