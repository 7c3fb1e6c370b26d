//! Shared experiment setup: builds the simulated SR650 cluster, installs
//! HPCG, wires a Chronus instance on temporary storage, and runs sweeps
//! through the full benchmark pipeline (sbatch → scheduler → node power →
//! IPMI sampling → repository).

use chronus::application::{Chronus, DEFAULT_SAMPLE_INTERVAL};
use chronus::domain::Benchmark;
use chronus::integrations::hpcg_runner::HpcgRunner;
use chronus::integrations::monitoring::{IpmiService, LscpuInfo};
use chronus::integrations::record_store::RecordStore;
use chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use chronus::interfaces::ApplicationRunner;
use eco_hpcg::paper_data;
use eco_hpcg::perf_model::PerfModel;
use eco_hpcg::workload::{HpcgWorkload, PAPER_STANDARD_RUNTIME_S};
use eco_sim_node::clock::SimDuration;
use eco_sim_node::cpu::{ghz_to_khz, CpuConfig};
use eco_sim_node::SimNode;
use eco_slurm_sim::Cluster;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A ready-to-run laboratory: one simulated SR650 node under Slurm with
/// HPCG installed and Chronus attached.
pub struct Lab {
    /// The Chronus application (repository, blob store, settings).
    pub app: Chronus,
    /// The simulated cluster.
    pub cluster: Cluster,
    /// The HPCG application runner.
    pub runner: HpcgRunner,
    /// The IPMI sampler.
    pub sampler: IpmiService,
    /// The system-identity provider.
    pub info: LscpuInfo,
    /// The calibrated performance model backing the workload.
    pub perf: Arc<PerfModel>,
    /// Storage root (temp directory).
    pub root: PathBuf,
}

/// The canonical path HPCG is installed at inside the lab cluster.
pub const HPCG_PATH: &str = "/opt/hpcg/bin/xhpcg";

impl Lab {
    /// Builds a lab whose HPCG run is `scale` times the paper's
    /// 18.5-minute job (1.0 = full length; experiments use smaller scales
    /// for quick runs).
    pub fn new(tag: &str, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        // a root of its own per lab: tests that share a tag run in
        // parallel, and one must not delete or rewrite another's store
        static LABS: AtomicU64 = AtomicU64::new(0);
        let n = LABS.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("eco-lab-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create lab root");

        let mut cluster = Cluster::single_node(SimNode::sr650());
        let perf = Arc::new(PerfModel::sr650());
        let work = perf.gflops(&perf.standard_config()) * PAPER_STANDARD_RUNTIME_S * scale;
        let workload = Arc::new(HpcgWorkload::with_work(perf.clone(), work, 104));
        let runner = HpcgRunner::install(&mut cluster, HPCG_PATH, workload);

        let app = Chronus::new(
            Box::new(RecordStore::open(root.join("database/data.db")).expect("open record store")),
            Box::new(LocalBlobStore::new(root.join("blobs")).expect("open blob store")),
            Box::new(EtcStorage::new(&root)),
        );
        Lab { app, cluster, runner, sampler: IpmiService::new(0, 0xeca), info: LscpuInfo::new(0), perf, root }
    }

    /// The paper's 138 swept configurations, in Tables 4–6 order.
    pub fn paper_sweep_configs() -> Vec<CpuConfig> {
        paper_data::GFLOPS_PER_WATT
            .iter()
            .map(|&(cores, ghz, _, ht)| CpuConfig::new(cores, ghz_to_khz(ghz), if ht { 2 } else { 1 }))
            .collect()
    }

    /// Slurm's standard configuration on this node.
    pub fn standard_config(&self) -> CpuConfig {
        self.perf.standard_config()
    }

    /// The paper's best configuration (Table 1 row 1).
    pub fn best_config() -> CpuConfig {
        CpuConfig::new(32, 2_200_000, 1)
    }

    /// Warms the node up with one discarded HPCG run at the standard
    /// configuration, so the first measured run does not pay the thermal
    /// ramp from ambient (the paper's 18.5-minute runs make warm-up
    /// negligible; short scaled runs do not).
    pub fn warm_up(&mut self) {
        let config = self.standard_config();
        let job = self.runner.submit(&mut self.cluster, &config).expect("warm-up submit");
        while !self.cluster.job(job).expect("warm-up job").state.is_terminal() {
            self.cluster.advance(SimDuration::from_secs(5));
        }
    }

    /// Runs the full benchmark pipeline over `configs` at the given IPMI
    /// sampling interval, returning the stored benchmarks.
    pub fn run_sweep(&mut self, configs: &[CpuConfig], interval: SimDuration) -> Vec<Benchmark> {
        self.app
            .benchmark(&mut self.cluster, &self.runner, &mut self.sampler, &self.info, Some(configs), interval)
            .expect("benchmark sweep")
    }

    /// Runs the paper's complete 138-configuration sweep at the paper's
    /// 2-second sampling interval.
    pub fn run_paper_sweep(&mut self) -> Vec<Benchmark> {
        let configs = Self::paper_sweep_configs();
        self.run_sweep(&configs, DEFAULT_SAMPLE_INTERVAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_and_runs_a_small_sweep() {
        let mut lab = Lab::new("labtest", 0.01);
        let configs = vec![lab.standard_config(), Lab::best_config()];
        let benches = lab.run_sweep(&configs, DEFAULT_SAMPLE_INTERVAL);
        assert_eq!(benches.len(), 2);
        assert!(benches.iter().all(|b| b.gflops > 0.0 && b.avg_system_w > 0.0));
    }

    #[test]
    fn paper_sweep_configs_count() {
        assert_eq!(Lab::paper_sweep_configs().len(), 138);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        Lab::new("zeroscale", 0.0);
    }
}
