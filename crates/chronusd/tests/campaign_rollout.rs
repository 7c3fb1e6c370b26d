//! Campaign → model → daemon, end to end: an adaptive campaign on a
//! simulated multi-node cluster produces benchmarks, the Chronus
//! application layer rebuilds and stages a model from them, and the
//! campaign hot-rolls it into a live chronusd through the versioned
//! `Preload` flow — after which the daemon predicts the paper's optimum
//! for the eco plugin's hash pair.

use chronus::application::Chronus;
use chronus::integrations::record_store::RecordStore;
use chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use chronus::remote::{CallOptions, PredictClient};
use chronusd::campaign::{roll_into, CampaignEngine, CampaignSpec, PlanSpec, RecordJournal, RunOptions};
use chronusd::{PredictServer, ServerConfig, StorageBackend};
use eco_hpcg::PerfModel;
use eco_sim_node::cpu::{CpuConfig, CpuSpec};
use eco_sim_node::SimNode;
use eco_slurm_sim::Cluster;
use std::path::PathBuf;
use std::sync::Arc;

fn home(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("eco-campaign-rollout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    root
}

#[test]
fn campaign_model_rolls_hot_into_a_live_daemon() {
    let root = home("hot");
    let perf = Arc::new(PerfModel::sr650());
    let full_work = perf.gflops(&perf.standard_config()) * 25.0;
    let spec = CampaignSpec {
        name: "hpcg-rollout".into(),
        configs: CpuSpec::epyc_7502p().all_configurations(),
        plan: PlanSpec::default_halving(),
        seed: 3,
        sample_interval_ms: 2000,
        full_work_gflop: full_work,
        nx: 104,
        node_class: String::new(),
    };

    // 1. the campaign produces final-round benchmarks in the repository
    let mut cluster = Cluster::new((0..4).map(|_| SimNode::sr650()).collect());
    let system_hash = chronus::system_hash(cluster.node(0).spec(), cluster.node(0).ram_gb());
    let outcome = {
        let mut journal = RecordJournal::open(root.join("campaign/journal.db")).unwrap();
        let mut repo = RecordStore::open(root.join("database/data.db")).unwrap();
        CampaignEngine::new(&mut cluster, &mut journal, &mut repo, Arc::clone(&perf), spec)
            .run(RunOptions::default())
            .unwrap()
    };
    assert_eq!(outcome.best, CpuConfig::new(32, 2_200_000, 1), "paper Table 2 optimum");

    // 2. rebuild and stage a model from them (the repository handle above
    //    is closed; the app opens its own)
    let mut app = Chronus::new(
        Box::new(RecordStore::open(root.join("database/data.db")).unwrap()),
        Box::new(LocalBlobStore::new(root.join("optimizers")).unwrap()),
        Box::new(EtcStorage::new(&root)),
    );
    let meta = app.init_model("brute-force", outcome.system_id, outcome.binary_hash, 1).unwrap();
    let staged = app.load_model(meta.id).unwrap();
    assert_eq!(staged.system_hash, system_hash);

    // 3. hot-roll into a live daemon over TCP
    let server = PredictServer::start(
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() },
        Arc::new(StorageBackend::new(Box::new(EtcStorage::new(&root)))),
    )
    .unwrap();
    let mut client = PredictClient::builder().endpoint(server.addr().to_string()).build().unwrap();
    let ack = roll_into(&mut client, staged.model_id, None).unwrap();
    assert_eq!(ack.model_id, staged.model_id);
    assert_eq!(ack.model_type, "brute-force");
    assert_eq!(ack.generation, 1, "first committed rollout generation");

    // 4. the daemon now serves the campaign's optimum
    let predicted = client.predict(system_hash, outcome.binary_hash, &CallOptions::default()).unwrap();
    assert_eq!(predicted, outcome.best);

    // generation accounting is visible in stats, and the rollout was
    // served from the registry
    let stats = client.stats().unwrap();
    assert_eq!((stats.model_generation, stats.cache_hits, stats.errors), (1, 1, 0));

    // 5. a second campaign-driven rollout advances the generation
    let ack2 = roll_into(&mut client, staged.model_id, Some(ack.generation)).unwrap();
    assert_eq!(ack2.generation, 2);
    server.shutdown();
}

#[test]
fn rollout_against_a_dead_daemon_is_a_typed_error_and_retry_succeeds() {
    let root = home("dead");
    // a model staged but nothing listening yet
    let mut dead = PredictClient::builder().endpoint("127.0.0.1:1").build().unwrap();
    let err = roll_into(&mut dead, 1, None).unwrap_err();
    assert!(
        matches!(err, chronusd::campaign::CampaignError::Rollout(_)),
        "unreachable daemon surfaces a typed rollout error: {err}"
    );

    // bring a daemon up with a staged model; the retry then commits
    let perf = Arc::new(PerfModel::sr650());
    let spec = CampaignSpec {
        name: "retry".into(),
        configs: CpuSpec::epyc_7502p().all_configurations().into_iter().step_by(24).collect(),
        plan: PlanSpec::BruteForce,
        seed: 9,
        sample_interval_ms: 2000,
        full_work_gflop: perf.gflops(&perf.standard_config()) * 25.0,
        nx: 104,
        node_class: String::new(),
    };
    let mut cluster = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
    let outcome = {
        let mut journal = RecordJournal::open(root.join("campaign/journal.db")).unwrap();
        let mut repo = RecordStore::open(root.join("database/data.db")).unwrap();
        CampaignEngine::new(&mut cluster, &mut journal, &mut repo, perf, spec).run(RunOptions::default()).unwrap()
    };
    let mut app = Chronus::new(
        Box::new(RecordStore::open(root.join("database/data.db")).unwrap()),
        Box::new(LocalBlobStore::new(root.join("optimizers")).unwrap()),
        Box::new(EtcStorage::new(&root)),
    );
    let meta = app.init_model("brute-force", outcome.system_id, outcome.binary_hash, 2).unwrap();
    let staged = app.load_model(meta.id).unwrap();
    let server = PredictServer::start(
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() },
        Arc::new(StorageBackend::new(Box::new(EtcStorage::new(&root)))),
    )
    .unwrap();
    let mut client = PredictClient::builder().endpoint(server.addr().to_string()).build().unwrap();
    let ack = roll_into(&mut client, staged.model_id, None).unwrap();
    assert_eq!(ack.generation, 1);
    server.shutdown();
}
