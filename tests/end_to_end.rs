//! E8: the paper's Figure 4 sequence, end to end — benchmark with Chronus,
//! build and pre-load a model, enable `job_submit_eco`, submit an opted-in
//! job, and verify both the rewritten descriptor and the energy saving.

use eco_hpc::chronus::application::{Chronus, DEFAULT_SAMPLE_INTERVAL};
use eco_hpc::chronus::domain::PluginState;
use eco_hpc::chronus::integrations::hpcg_runner::HpcgRunner;
use eco_hpc::chronus::integrations::monitoring::{IpmiService, LscpuInfo};
use eco_hpc::chronus::integrations::record_store::RecordStore;
use eco_hpc::chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use eco_hpc::chronus::interfaces::ApplicationRunner;
use eco_hpc::eco_plugin::JobSubmitEco;
use eco_hpc::hpcg::perf_model::PerfModel;
use eco_hpc::hpcg::workload::{HpcgWorkload, Workload};
use eco_hpc::node::clock::SimDuration;
use eco_hpc::node::cpu::CpuConfig;
use eco_hpc::node::SimNode;
use eco_hpc::slurm::{Cluster, JobState};
use std::sync::Arc;

mod support;
use support::TempRoot;

struct World {
    cluster: Cluster,
    app: Chronus,
    runner: HpcgRunner,
    sampler: IpmiService,
    info: LscpuInfo,
    workload: Arc<HpcgWorkload>,
    root: TempRoot,
}

fn world(tag: &str) -> World {
    let root = TempRoot::new(&format!("e2e-{tag}"));
    let mut cluster = Cluster::single_node(SimNode::sr650());
    let perf = Arc::new(PerfModel::sr650());
    let work = perf.gflops(&perf.standard_config()) * 30.0;
    let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
    let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload.clone());
    let app = Chronus::new(
        Box::new(RecordStore::open(root.join("database/data.db")).unwrap()),
        Box::new(LocalBlobStore::new(root.join("blobs")).unwrap()),
        Box::new(EtcStorage::new(&root)),
    );
    World { root, cluster, app, runner, sampler: IpmiService::new(0, 17), info: LscpuInfo::new(0), workload }
}

const SCRIPT_OPTED_IN: &str = "#!/bin/bash\n\
    #SBATCH --nodes=1\n\
    #SBATCH --ntasks=32\n\
    #SBATCH --comment \"chronus\"\n\
    \n\
    srun --mpi=pmix_v4 --ntasks-per-core=1 /opt/hpcg/bin/xhpcg\n";

fn sweep_configs() -> Vec<CpuConfig> {
    vec![
        CpuConfig::new(32, 2_500_000, 1),
        CpuConfig::new(32, 2_200_000, 1),
        CpuConfig::new(32, 2_200_000, 2),
        CpuConfig::new(32, 1_500_000, 1),
        CpuConfig::new(16, 2_200_000, 1),
        CpuConfig::new(16, 2_500_000, 2),
    ]
}

#[test]
fn figure_4_sequence_reproduces_energy_saving() {
    let mut w = world("fig4");

    // 1. benchmark
    let benches = w
        .app
        .benchmark(
            &mut w.cluster,
            &w.runner,
            &mut w.sampler,
            &w.info,
            Some(&sweep_configs()),
            DEFAULT_SAMPLE_INTERVAL,
        )
        .unwrap();
    assert_eq!(benches.len(), 6);

    // 2. init-model  3. load-model  (brute force: deterministic winner —
    // model-family behaviour on the full sweep is covered in the chronus
    // optimizer tests)
    let meta = w.app.init_model("brute-force", 1, w.runner.binary_hash(), 99).unwrap();
    w.app.load_model(meta.id).unwrap();

    // 4. enable the plugin and submit an opted-in job
    let mut plugin =
        JobSubmitEco::new(Arc::new(EtcStorage::new(&w.root)), w.cluster.node(0).spec(), w.cluster.node(0).ram_gb());
    plugin.register_binary("/opt/hpcg/bin/xhpcg", w.workload.binary_id());
    w.cluster.register_plugin(Box::new(plugin));

    let eco_job = w.cluster.sbatch(SCRIPT_OPTED_IN, "alice").unwrap();
    let desc = &w.cluster.job(eco_job).unwrap().descriptor;
    assert_eq!(desc.max_frequency_khz, Some(2_200_000), "plugin pinned the efficient frequency");
    assert_eq!(desc.num_tasks, 32);
    assert_eq!(desc.threads_per_cpu, 1);

    // a job without the comment is untouched
    let plain_script = SCRIPT_OPTED_IN.replace("#SBATCH --comment \"chronus\"\n", "");
    let plain_job = w.cluster.sbatch(&plain_script, "bob").unwrap();
    assert_eq!(w.cluster.job(plain_job).unwrap().descriptor.max_frequency_khz, None);

    // 5. run both and compare the bill
    assert!(w.cluster.run_until_idle(SimDuration::from_mins(30)));
    let eco = w.cluster.accounting().get(eco_job).unwrap();
    let plain = w.cluster.accounting().get(plain_job).unwrap();
    assert_eq!(eco.state, JobState::Completed);
    assert_eq!(plain.state, JobState::Completed);

    let saving = 1.0 - eco.system_energy_j / plain.system_energy_j;
    assert!((0.07..0.16).contains(&saving), "system energy saving {saving} should be near the paper's 11%");
    let cpu_saving = 1.0 - eco.cpu_energy_j / plain.cpu_energy_j;
    assert!((0.13..0.24).contains(&cpu_saving), "CPU energy saving {cpu_saving} should be near the paper's 18%");

    // the eco job trades a little runtime for the saving (paper: ~2%)
    let eco_rt = (eco.end_time.unwrap() - eco.start_time.unwrap()).as_secs_f64();
    let plain_rt = (plain.end_time.unwrap() - plain.start_time.unwrap()).as_secs_f64();
    let slowdown = eco_rt / plain_rt - 1.0;
    assert!((0.0..0.06).contains(&slowdown), "slowdown {slowdown} should be small (~2%)");
}

#[test]
fn deactivated_state_disables_rewrites_cluster_wide() {
    let mut w = world("deactivated");
    w.app
        .benchmark(
            &mut w.cluster,
            &w.runner,
            &mut w.sampler,
            &w.info,
            Some(&sweep_configs()[..2]),
            DEFAULT_SAMPLE_INTERVAL,
        )
        .unwrap();
    let meta = w.app.init_model("brute-force", 1, w.runner.binary_hash(), 0).unwrap();
    w.app.load_model(meta.id).unwrap();
    // the admin flips the global switch (chronus set state deactivated)
    w.app.set_state(PluginState::Deactivated).unwrap();

    let mut plugin =
        JobSubmitEco::new(Arc::new(EtcStorage::new(&w.root)), w.cluster.node(0).spec(), w.cluster.node(0).ram_gb());
    plugin.register_binary("/opt/hpcg/bin/xhpcg", w.workload.binary_id());
    w.cluster.register_plugin(Box::new(plugin));

    let job = w.cluster.sbatch(SCRIPT_OPTED_IN, "alice").unwrap();
    assert_eq!(w.cluster.job(job).unwrap().descriptor.max_frequency_khz, None, "deactivated plugin is a no-op");
}

#[test]
fn active_state_rewrites_without_opt_in() {
    let mut w = world("active");
    w.app
        .benchmark(
            &mut w.cluster,
            &w.runner,
            &mut w.sampler,
            &w.info,
            Some(&sweep_configs()[..2]),
            DEFAULT_SAMPLE_INTERVAL,
        )
        .unwrap();
    let meta = w.app.init_model("linear-regression", 1, w.runner.binary_hash(), 0).unwrap();
    w.app.load_model(meta.id).unwrap();
    w.app.set_state(PluginState::Active).unwrap();

    let mut plugin =
        JobSubmitEco::new(Arc::new(EtcStorage::new(&w.root)), w.cluster.node(0).spec(), w.cluster.node(0).ram_gb());
    plugin.register_binary("/opt/hpcg/bin/xhpcg", w.workload.binary_id());
    w.cluster.register_plugin(Box::new(plugin));

    let plain_script = SCRIPT_OPTED_IN.replace("#SBATCH --comment \"chronus\"\n", "");
    let job = w.cluster.sbatch(&plain_script, "bob").unwrap();
    assert!(w.cluster.job(job).unwrap().descriptor.max_frequency_khz.is_some(), "active state rewrites everyone");
}

#[test]
fn plugin_survives_missing_model_and_jobs_still_run() {
    // no benchmark, no model: the plugin must not break submissions
    let mut w = world("nomodel");
    let mut plugin =
        JobSubmitEco::new(Arc::new(EtcStorage::new(&w.root)), w.cluster.node(0).spec(), w.cluster.node(0).ram_gb());
    plugin.register_binary("/opt/hpcg/bin/xhpcg", w.workload.binary_id());
    w.cluster.register_plugin(Box::new(plugin));

    let job = w.cluster.sbatch(SCRIPT_OPTED_IN, "alice").unwrap();
    assert!(w.cluster.run_until_idle(SimDuration::from_mins(10)));
    assert_eq!(w.cluster.accounting().get(job).unwrap().state, JobState::Completed);
}
