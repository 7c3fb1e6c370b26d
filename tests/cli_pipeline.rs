//! Drives the paper's §3.3 workflow purely through the Chronus CLI
//! commands (the five commands, argv-style), asserting the user-visible
//! behaviour of Figures 6–10.

use eco_hpc::chronus::application::Chronus;
use eco_hpc::chronus::cli::{run_command, CliContext};
use eco_hpc::chronus::integrations::hpcg_runner::HpcgRunner;
use eco_hpc::chronus::integrations::monitoring::{IpmiService, LscpuInfo};
use eco_hpc::chronus::integrations::record_store::RecordStore;
use eco_hpc::chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use eco_hpc::chronus::interfaces::{ApplicationRunner, SystemInfoProvider};
use eco_hpc::hpcg::perf_model::PerfModel;
use eco_hpc::hpcg::workload::HpcgWorkload;
use eco_hpc::node::SimNode;
use eco_hpc::slurm::Cluster;
use std::sync::Arc;

mod support;
use support::TempRoot;

struct CliWorld {
    app: Chronus,
    cluster: Cluster,
    runner: HpcgRunner,
    sampler: IpmiService,
    info: LscpuInfo,
    root: TempRoot,
}

impl CliWorld {
    fn new(tag: &str) -> Self {
        let root = TempRoot::new(&format!("clip-{tag}"));
        let mut cluster = Cluster::single_node(SimNode::sr650());
        let perf = Arc::new(PerfModel::sr650());
        let work = perf.gflops(&perf.standard_config()) * 20.0;
        let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
        let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload);
        let app = Chronus::new(
            Box::new(RecordStore::open(root.join("database/data.db")).unwrap()),
            Box::new(LocalBlobStore::new(root.join("optimizers")).unwrap()),
            Box::new(EtcStorage::new(&root)),
        );
        CliWorld { app, cluster, runner, sampler: IpmiService::new(0, 3), info: LscpuInfo::new(0), root }
    }

    fn run(&mut self, args: &[&str]) -> Result<String, eco_hpc::chronus::ChronusError> {
        let mut ctx = CliContext {
            app: &mut self.app,
            cluster: &mut self.cluster,
            runner: &self.runner,
            sampler: &mut self.sampler,
            info: &self.info,
            now_ms: 777,
        };
        run_command(&mut ctx, args)
    }
}

#[test]
fn paper_workflow_through_the_cli() {
    let mut w = CliWorld::new("workflow");

    // chronus benchmark HPCG_PATH --configurations configurations.json
    let cfg_file = w.root.join("configurations.json");
    std::fs::write(
        &cfg_file,
        r#"[
            {"cores": 32, "threads_per_core": 2, "frequency": 2200000},
            {"cores": 32, "threads_per_core": 1, "frequency": 2200000},
            {"cores": 32, "threads_per_core": 1, "frequency": 2500000}
        ]"#,
    )
    .unwrap();
    let cfg_path = cfg_file.to_string_lossy().into_owned();
    let out = w.run(&["benchmark", "/opt/hpcg/bin/xhpcg", "--configurations", &cfg_path]).unwrap();
    assert!(out.contains("3 benchmark(s) complete"), "{out}");
    assert!(out.contains("Run data has been saved"), "{out}");

    // Figure 8: init-model with no system lists systems
    let out = w.run(&["init-model", "--model", "linear-regression"]).unwrap();
    assert!(out.contains("Available Systems"), "{out}");
    assert!(out.contains("AMD EPYC 7502P"), "{out}");

    // init-model with a system trains and uploads
    let out = w.run(&["init-model", "--model", "brute-force", "--system", "1"]).unwrap();
    assert!(out.contains("training model... done"), "{out}");
    assert!(out.contains("fit R2 1.0000"), "{out}");

    // Figure 9: load-model with no id lists models
    let out = w.run(&["load-model"]).unwrap();
    assert!(out.contains("Available Models"), "{out}");
    assert!(out.contains("brute-force"), "{out}");

    let out = w.run(&["load-model", "--model", "1"]).unwrap();
    assert!(out.contains("downloaded to"), "{out}");

    // slurm-config returns the plugin-protocol JSON
    let sys = w.info.system_hash(&w.cluster).to_string();
    let bin = w.runner.binary_hash().to_string();
    let json = w.run(&["slurm-config", &sys, &bin]).unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(v["cores"], 32);
    assert_eq!(v["frequency"], 2_200_000);
    assert_eq!(v["threads_per_core"], 1, "no-HT wins at 32 cores");

    // Figure 10: set --help lists the three settables
    let help = w.run(&["set", "--help"]).unwrap();
    assert!(help.contains("blob-storage"), "{help}");
    assert!(help.contains("database"), "{help}");
    assert!(help.contains("state"), "{help}");

    // set state persists to the settings file the plugin reads
    w.run(&["set", "state", "deactivated"]).unwrap();
    let settings = w.app.settings().unwrap();
    assert_eq!(settings.state, eco_hpc::chronus::PluginState::Deactivated);
    assert!(settings.loaded_model.is_some(), "load-model left the staged model in place");
}

#[test]
fn cli_benchmark_default_sweeps_all_configurations_guard() {
    // The full default sweep is 192 configurations; to keep CI fast we
    // assert only that the default path starts (invalid binary errors
    // first, proving the argument handling order).
    let mut w = CliWorld::new("default-sweep");
    let err = w.run(&["benchmark", "/wrong/binary"]).unwrap_err();
    assert!(err.to_string().contains("no application runner"), "{err}");
}

#[test]
fn cli_rejects_malformed_configuration_file() {
    let mut w = CliWorld::new("badfile");
    let bad = w.root.join("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    let bad_path = bad.to_string_lossy().into_owned();
    assert!(w.run(&["benchmark", "--configurations", &bad_path]).is_err());
    assert!(w.run(&["benchmark", "--configurations", "/no/such/file.json"]).is_err());
}
