//! The full pipeline with the CSV repository backend — the paper's point
//! that the Repository interface is swappable without touching the
//! application layer (Clean Architecture, §4.1).

use eco_hpc::chronus::application::{Chronus, DEFAULT_SAMPLE_INTERVAL};
use eco_hpc::chronus::integrations::csv_repo::CsvRepository;
use eco_hpc::chronus::integrations::hpcg_runner::HpcgRunner;
use eco_hpc::chronus::integrations::monitoring::{IpmiService, LscpuInfo};
use eco_hpc::chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use eco_hpc::chronus::interfaces::{ApplicationRunner, SystemInfoProvider};
use eco_hpc::hpcg::perf_model::PerfModel;
use eco_hpc::hpcg::workload::HpcgWorkload;
use eco_hpc::node::cpu::CpuConfig;
use eco_hpc::node::SimNode;
use eco_hpc::slurm::Cluster;
use std::sync::Arc;

mod support;
use support::TempRoot;

#[test]
fn csv_backend_runs_the_whole_pipeline() {
    let root = TempRoot::new("csvpipe");

    let mut cluster = Cluster::single_node(SimNode::sr650());
    let perf = Arc::new(PerfModel::sr650());
    let work = perf.gflops(&perf.standard_config()) * 25.0;
    let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
    let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload);

    // the only line that changes versus the record-store pipeline:
    let mut app = Chronus::new(
        Box::new(CsvRepository::open(root.join("csv")).unwrap()),
        Box::new(LocalBlobStore::new(root.join("blobs")).unwrap()),
        Box::new(EtcStorage::new(&root)),
    );

    let configs =
        vec![CpuConfig::new(32, 2_500_000, 1), CpuConfig::new(32, 2_200_000, 1), CpuConfig::new(16, 1_500_000, 2)];
    let mut sampler = IpmiService::new(0, 21);
    let info = LscpuInfo::new(0);
    app.benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&configs), DEFAULT_SAMPLE_INTERVAL).unwrap();

    // human-readable CSV artefacts exist
    let csv = std::fs::read_to_string(root.join("csv/benchmarks.csv")).unwrap();
    assert_eq!(csv.lines().count(), 4, "header + 3 rows:\n{csv}");
    assert!(std::fs::read_to_string(root.join("csv/systems.csv")).unwrap().contains("EPYC"));

    // model building, staging and prediction all work over CSV
    let meta = app.init_model("brute-force", 1, runner.binary_hash(), 9).unwrap();
    app.load_model(meta.id).unwrap();
    let predicted = app.slurm_config(info.system_hash(&cluster), runner.binary_hash()).unwrap();
    assert_eq!(predicted, CpuConfig::new(32, 2_200_000, 1));
    assert!(std::fs::read_to_string(root.join("csv/models.csv")).unwrap().contains("brute-force"));

    // a fresh Chronus over the same directory sees the same data
    let app2 = Chronus::new(
        Box::new(CsvRepository::open(root.join("csv")).unwrap()),
        Box::new(LocalBlobStore::new(root.join("blobs")).unwrap()),
        Box::new(EtcStorage::new(&root)),
    );
    assert_eq!(app2.repository().all_benchmarks().unwrap().len(), 3);
    assert_eq!(app2.repository().models().unwrap().len(), 1);
}
