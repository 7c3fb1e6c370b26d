//! End to end over the daemon: the paper's Figure 4 sequence with
//! prediction served by chronusd instead of the in-process staged
//! model — benchmark, train, pre-load into the daemon, submit an
//! opted-in job through the cluster, and verify the rewritten
//! descriptor. Plus the failure half of the design: a dead or slow
//! daemon degrades to vanilla Slurm without rejecting the job or
//! blowing the scheduler's plugin budget. The plugin's source is always
//! the production one, `RemotePrediction::from_endpoints`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronus::application::{Chronus, DEFAULT_SAMPLE_INTERVAL};
use chronus::integrations::hpcg_runner::HpcgRunner;
use chronus::integrations::monitoring::{IpmiService, LscpuInfo};
use chronus::integrations::record_store::RecordStore;
use chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use chronus::interfaces::ApplicationRunner;
use chronus::remote::{CallOptions, PredictClient, RemotePrediction};
use chronusd::store::{ModelBlob, ModelStore, Provenance};
use chronusd::{PredictServer, PreparedModel, ServerConfig, StaticBackend};
use eco_hpcg::perf_model::PerfModel;
use eco_hpcg::workload::{HpcgWorkload, Workload};
use eco_plugin::JobSubmitEco;
use eco_sim_node::cpu::CpuConfig;
use eco_sim_node::SimNode;
use eco_slurm_sim::plugin::DEFAULT_PLUGIN_BUDGET_MS;
use eco_slurm_sim::{Cluster, PluginHost};

const SCRIPT_OPTED_IN: &str = "#!/bin/bash\n\
    #SBATCH --nodes=1\n\
    #SBATCH --ntasks=32\n\
    #SBATCH --comment \"chronus\"\n\
    \n\
    srun --mpi=pmix_v4 --ntasks-per-core=1 /opt/hpcg/bin/xhpcg\n";

struct World {
    root: PathBuf,
    cluster: Cluster,
    app: Chronus,
    runner: HpcgRunner,
    sampler: IpmiService,
    info: LscpuInfo,
    workload: Arc<HpcgWorkload>,
}

fn world(tag: &str) -> World {
    let root = std::env::temp_dir().join(format!("eco-e2e-remote-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let mut cluster = Cluster::single_node(SimNode::sr650());
    // The default 100ms plugin budget is wall-clock and shared with the
    // network round trip; on a loaded CI host it can expire spuriously.
    // The timing property these tests actually care about — the
    // submission fits the default budget — is asserted explicitly per
    // test, so the host itself just needs headroom.
    cluster.set_plugin_host(PluginHost::new().with_budget_ms(10_000));
    let perf = Arc::new(PerfModel::sr650());
    let work = perf.gflops(&perf.standard_config()) * 20.0;
    let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
    let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload.clone());
    let app = Chronus::new(
        Box::new(RecordStore::open(root.join("database/data.db")).unwrap()),
        Box::new(LocalBlobStore::new(root.join("blobs")).unwrap()),
        Box::new(EtcStorage::new(&root)),
    );
    World { root, cluster, app, runner, sampler: IpmiService::new(0, 23), info: LscpuInfo::new(0), workload }
}

/// Benchmarks, trains and stages a brute-force model in `w.root`, and
/// commits it to the store under `w.root` as `chronus load-model` does;
/// returns its repository id.
fn stage_model(w: &mut World) -> i64 {
    let configs =
        vec![CpuConfig::new(32, 2_500_000, 1), CpuConfig::new(32, 2_200_000, 1), CpuConfig::new(16, 1_500_000, 2)];
    let benchmarks = w
        .app
        .benchmark(&mut w.cluster, &w.runner, &mut w.sampler, &w.info, Some(&configs), DEFAULT_SAMPLE_INTERVAL)
        .unwrap();
    let meta = w.app.init_model("brute-force", 1, w.runner.binary_hash(), 7).unwrap();
    let staged = w.app.load_model(meta.id).unwrap();
    let blob = ModelBlob {
        model_type: staged.model_type.clone(),
        system_hash: staged.system_hash,
        binary_hash: staged.binary_hash,
        config: w.app.slurm_config(staged.system_hash, staged.binary_hash).unwrap(),
        benchmarks,
    };
    let provenance = Provenance { campaign: "load-model".into(), plan: staged.model_type, ..Provenance::default() };
    ModelStore::open_dir(store_dir(w)).unwrap().commit(&blob, meta.id, provenance).unwrap();
    meta.id
}

fn store_dir(w: &World) -> String {
    w.root.join("store").to_string_lossy().into_owned()
}

fn eco_plugin(w: &World) -> JobSubmitEco {
    let mut plugin =
        JobSubmitEco::new(Arc::new(EtcStorage::new(&w.root)), w.cluster.node(0).spec(), w.cluster.node(0).ram_gb());
    plugin.register_binary("/opt/hpcg/bin/xhpcg", w.workload.binary_id());
    plugin
}

#[test]
fn submission_is_rewritten_through_the_daemon() {
    let mut w = world("happy");
    let model_id = stage_model(&mut w);

    // serve the store the model was committed to on an ephemeral port
    let server = PredictServer::start(
        ServerConfig { addr: "127.0.0.1:0".to_string(), store_dir: Some(store_dir(&w)), ..ServerConfig::default() },
        Arc::new(StaticBackend::new(Vec::new())),
    )
    .unwrap();
    let addr = server.addr().to_string();

    // pre-load so the submit path is a pure cache hit
    let mut admin = PredictClient::builder().endpoint(addr.clone()).build().unwrap();
    let ack = admin.preload(model_id, &CallOptions::default()).unwrap();
    assert_eq!(ack.model_type, "brute-force");
    assert_eq!(ack.generation, 2, "the boot catch-up installed the committed model as generation 1");

    // the plugin predicts via the daemon, through the production source
    let mut plugin = eco_plugin(&w);
    plugin.set_source(Arc::new(RemotePrediction::from_endpoints(&addr).unwrap()));
    assert!(plugin.source_description().contains("chronusd"));
    w.cluster.register_plugin(Box::new(plugin));

    let submitted = Instant::now();
    let job = w.cluster.sbatch(SCRIPT_OPTED_IN, "alice").unwrap();
    let submit_latency = submitted.elapsed();

    let desc = &w.cluster.job(job).unwrap().descriptor;
    assert_eq!(desc.num_tasks, 32, "paper's most efficient config: 32 cores");
    assert_eq!(desc.max_frequency_khz, Some(2_200_000), "… at 2.2 GHz");
    assert_eq!(desc.min_frequency_khz, Some(2_200_000));
    assert_eq!(desc.threads_per_cpu, 1, "… one thread per core");
    // One preloaded cache hit over loopback, one dial included.
    assert!(
        submit_latency < Duration::from_millis(DEFAULT_PLUGIN_BUDGET_MS),
        "submit path took {submit_latency:?}, past the plugin budget, for a preloaded cache hit over loopback"
    );

    let stats = admin.stats().unwrap();
    assert!(stats.predictions >= 1, "{stats:?}");
    assert_eq!(stats.cache_misses, 0, "preload made the submit a pure hit: {stats:?}");
    assert_eq!(
        (ack.system_hash, ack.binary_hash),
        (stats_key(&w)),
        "daemon served the identity the plugin asked for"
    );
}

fn stats_key(w: &World) -> (u64, u64) {
    use chronus::interfaces::SystemInfoProvider;
    (w.info.system_hash(&w.cluster), w.runner.binary_hash())
}

#[test]
fn dead_daemon_falls_back_to_untouched_submission() {
    let mut w = world("dead");
    stage_model(&mut w);

    // a port that was just closed: connections are refused immediately
    let dead_port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let mut plugin = eco_plugin(&w);
    plugin.set_source(Arc::new(RemotePrediction::from_endpoints(&format!("127.0.0.1:{dead_port}")).unwrap()));
    w.cluster.register_plugin(Box::new(plugin));

    // the job is accepted (not rejected, not timed out) and untouched
    let submitted = Instant::now();
    let job = w.cluster.sbatch(SCRIPT_OPTED_IN, "alice").expect("dead daemon must not reject submissions");
    let elapsed = submitted.elapsed();
    assert!(
        elapsed < Duration::from_millis(DEFAULT_PLUGIN_BUDGET_MS),
        "refused connections must fail fast, not hang the submit path ({elapsed:?} elapsed; three refused dials \
         and 10 + 20ms of backoff)"
    );
    let desc = &w.cluster.job(job).unwrap().descriptor;
    assert_eq!(desc.max_frequency_khz, None, "no prediction, no rewrite");
    assert_eq!(desc.min_frequency_khz, None, "descriptor left as submitted");
}

#[test]
fn slow_daemon_times_out_and_falls_back() {
    let mut w = world("slow");
    stage_model(&mut w);
    let (sys, bin) = stats_key(&w);

    // a daemon whose model source takes far longer than the client waits
    let laggard = StaticBackend::with_delay(
        vec![PreparedModel {
            model_id: 1,
            model_type: "brute-force".into(),
            system_hash: sys,
            binary_hash: bin,
            config: CpuConfig::new(32, 2_200_000, 1),
        }],
        Duration::from_millis(1200),
    );
    let server = PredictServer::start(
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() },
        Arc::new(laggard),
    )
    .unwrap();

    let mut plugin = eco_plugin(&w);
    plugin.set_source(Arc::new(RemotePrediction::from_endpoints(&server.addr().to_string()).unwrap()));
    w.cluster.register_plugin(Box::new(plugin));

    let submitted = Instant::now();
    let job = w.cluster.sbatch(SCRIPT_OPTED_IN, "alice").expect("slow daemon must not reject submissions");
    let elapsed = submitted.elapsed();
    // The client's whole budget is half the plugin's: it gives up on
    // the 1200ms stall long before the scheduler would.
    assert!(
        elapsed < Duration::from_millis(DEFAULT_PLUGIN_BUDGET_MS),
        "submit took {elapsed:?}: the client must abandon a 1200ms-slow backend inside the plugin budget"
    );
    assert_eq!(w.cluster.job(job).unwrap().descriptor.max_frequency_khz, None, "timed out, so no rewrite");
}

#[test]
fn concurrent_callers_are_serialised_and_never_cross_wired() {
    // Many threads sharing one RemotePrediction take turns on the
    // client lock: each call is its own round trip. Every caller must
    // get its own key's config back, and the daemon's counters must
    // show every key predicted exactly once, none of them in a batch.
    const THREADS: usize = 6;
    const PREDICTS_PER_THREAD: usize = 200;

    let keys: Vec<(u64, u64)> = (0..8u64).map(|i| (0x5eed_0000 + i, 0xb1a5_0000 + i)).collect();
    let configs: Vec<CpuConfig> = (0..8u32).map(|i| CpuConfig::new(4 + i * 4, 1_500_000, 1)).collect();
    let models: Vec<PreparedModel> = keys
        .iter()
        .zip(&configs)
        .enumerate()
        .map(|(i, (&(system_hash, binary_hash), &config))| PreparedModel {
            model_id: 1 + i as i64,
            model_type: "brute-force".into(),
            system_hash,
            binary_hash,
            config,
        })
        .collect();
    let server = PredictServer::start(
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() },
        Arc::new(StaticBackend::new(models)),
    )
    .unwrap();
    let addr = server.addr().to_string();

    let telemetry = Arc::new(chronus::telemetry::Telemetry::wall());
    let client = PredictClient::builder().endpoint(&addr).build().unwrap();
    let source = Arc::new(RemotePrediction::from_client(client));
    source.set_telemetry(Arc::clone(&telemetry));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let source = Arc::clone(&source);
            let keys = &keys;
            let configs = &configs;
            s.spawn(move || {
                use chronus::remote::PredictionSource;
                for i in 0..PREDICTS_PER_THREAD {
                    let pick = (t + i) % keys.len();
                    let (sys, bin) = keys[pick];
                    let cfg = source.predict(sys, bin).expect("warm predict through the shared source");
                    assert_eq!(cfg, configs[pick], "thread {t} predict {i} got another caller's answer");
                }
            });
        }
    });

    let stats = PredictClient::builder().endpoint(addr).build().unwrap().stats().unwrap();
    assert_eq!(
        stats.predictions,
        (THREADS * PREDICTS_PER_THREAD) as u64,
        "every submitted key predicted exactly once: {stats:?}"
    );
    assert_eq!(stats.batches, 0, "single predicts are never merged into batched frames: {stats:?}");
    let requests = telemetry.counter("client.requests").get();
    assert_eq!(requests, (THREADS * PREDICTS_PER_THREAD) as u64, "one client request per call");
    let attempts = telemetry.counter("client.attempts").get();
    assert!(attempts >= requests, "a retry may add an attempt, a batch may not remove one: {attempts}");
}
