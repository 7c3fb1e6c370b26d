//! E11 end-to-end: the §6.2.1 deadline extension running through the full
//! pipeline — benchmark, load-model (which stages runtimes), then submit
//! jobs whose comments carry deadlines and watch the plugin's choices.

use eco_hpc::chronus::application::{Chronus, DEFAULT_SAMPLE_INTERVAL};
use eco_hpc::chronus::integrations::hpcg_runner::HpcgRunner;
use eco_hpc::chronus::integrations::monitoring::{IpmiService, LscpuInfo};
use eco_hpc::chronus::integrations::record_store::RecordStore;
use eco_hpc::chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use eco_hpc::chronus::interfaces::ApplicationRunner;
use eco_hpc::eco_plugin::JobSubmitEco;
use eco_hpc::hpcg::perf_model::PerfModel;
use eco_hpc::hpcg::workload::{HpcgWorkload, Workload};
use eco_hpc::node::cpu::CpuConfig;
use eco_hpc::node::SimNode;
use eco_hpc::slurm::Cluster;
use std::sync::Arc;

mod support;
use support::TempRoot;

struct World {
    cluster: Cluster,
    workload: Arc<HpcgWorkload>,
    /// Measured runtimes per config, for deadline arithmetic in asserts.
    runtimes: Vec<(CpuConfig, f64)>,
    root: TempRoot,
}

fn setup(tag: &str) -> World {
    let root = TempRoot::new(&format!("dlp-{tag}"));
    let mut cluster = Cluster::single_node(SimNode::sr650());
    let perf = Arc::new(PerfModel::sr650());
    let work = perf.gflops(&perf.standard_config()) * 60.0; // ~1 min at standard
    let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
    let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload.clone());
    let mut app = Chronus::new(
        Box::new(RecordStore::open(root.join("db/data.db")).unwrap()),
        Box::new(LocalBlobStore::new(root.join("blobs")).unwrap()),
        Box::new(EtcStorage::new(&root)),
    );
    let configs = vec![
        CpuConfig::new(32, 2_500_000, 1), // fastest
        CpuConfig::new(32, 2_200_000, 1), // most efficient
        CpuConfig::new(32, 1_500_000, 1), // slowest
    ];
    let benches = app
        .benchmark(
            &mut cluster,
            &runner,
            &mut IpmiService::new(0, 11),
            &LscpuInfo::new(0),
            Some(&configs),
            DEFAULT_SAMPLE_INTERVAL,
        )
        .unwrap();
    let runtimes = benches.iter().map(|b| (b.config, b.runtime_s)).collect();
    let meta = app.init_model("brute-force", 1, runner.binary_hash(), 0).unwrap();
    app.load_model(meta.id).unwrap();

    let mut plugin = JobSubmitEco::new(Arc::new(EtcStorage::new(&root)), cluster.node(0).spec(), 256);
    plugin.register_binary("/opt/hpcg/bin/xhpcg", workload.binary_id());
    cluster.register_plugin(Box::new(plugin));
    World { root, cluster, workload, runtimes }
}

fn submit_with_comment(w: &mut World, comment: &str) -> CpuConfig {
    let script = format!(
        "#!/bin/bash\n#SBATCH --ntasks=32\n#SBATCH --comment \"{comment}\"\n\nsrun --ntasks-per-core=1 /opt/hpcg/bin/xhpcg\n"
    );
    let id = w.cluster.sbatch(&script, "alice").unwrap();
    let desc = w.cluster.job(id).unwrap().descriptor.clone();
    // drain so the next submission sees a free node
    w.cluster.run_until_idle(eco_hpc::node::clock::SimDuration::from_mins(10));
    desc.resolve_config(w.cluster.node(0).spec())
}

#[test]
fn loose_deadline_takes_the_efficient_config() {
    let mut w = setup("loose");
    let config = submit_with_comment(&mut w, "chronus deadline=10000");
    assert_eq!(config, CpuConfig::new(32, 2_200_000, 1));
}

#[test]
fn tight_deadline_forces_the_fast_config() {
    let mut w = setup("tight");
    // deadline between the fast and efficient runtimes
    let fast_rt = w.runtimes.iter().find(|(c, _)| c.frequency_khz == 2_500_000).unwrap().1;
    let eff_rt = w.runtimes.iter().find(|(c, _)| c.frequency_khz == 2_200_000).unwrap().1;
    assert!(fast_rt < eff_rt);
    let deadline = (fast_rt + eff_rt) / 2.0;
    let config = submit_with_comment(&mut w, &format!("chronus deadline={deadline}"));
    assert_eq!(config, CpuConfig::new(32, 2_500_000, 1));
}

#[test]
fn impossible_deadline_falls_back_to_fastest() {
    let mut w = setup("impossible");
    let config = submit_with_comment(&mut w, "chronus deadline=1");
    assert_eq!(config, CpuConfig::new(32, 2_500_000, 1), "fastest measured configuration");
}

#[test]
fn deadline_jobs_complete_within_budget_in_simulation() {
    let mut w = setup("complete");
    let eff_rt = w.runtimes.iter().find(|(c, _)| c.frequency_khz == 2_200_000).unwrap().1;
    let deadline = eff_rt * 1.1;
    let script = format!(
        "#!/bin/bash\n#SBATCH --ntasks=32\n#SBATCH --comment \"chronus deadline={deadline}\"\n\nsrun --ntasks-per-core=1 /opt/hpcg/bin/xhpcg\n"
    );
    let id = w.cluster.sbatch(&script, "alice").unwrap();
    w.cluster.run_until_idle(eco_hpc::node::clock::SimDuration::from_mins(10));
    let rec = w.cluster.accounting().get(id).unwrap();
    let runtime = (rec.end_time.unwrap() - rec.start_time.unwrap()).as_secs_f64();
    assert!(runtime <= deadline + 1.0, "runtime {runtime} vs deadline {deadline}");
    // the workload/world stay alive for the whole assertion window
    assert!(w.workload.total_gflop() > 0.0);
    assert!(w.root.exists());
}

#[test]
fn plain_opt_in_still_uses_the_model() {
    let mut w = setup("plain");
    let config = submit_with_comment(&mut w, "chronus");
    assert_eq!(config, CpuConfig::new(32, 2_200_000, 1));
}
