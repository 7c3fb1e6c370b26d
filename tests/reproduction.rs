//! Reproduction gates: the paper's headline numbers, measured through the
//! full simulated pipeline (sbatch → scheduler → power model → IPMI
//! sampling), not read off the analytic model.

use eco_hpc::chronus::application::Chronus;
use eco_hpc::chronus::domain::Benchmark;
use eco_hpc::chronus::integrations::hpcg_runner::HpcgRunner;
use eco_hpc::chronus::integrations::monitoring::{IpmiService, LscpuInfo};
use eco_hpc::chronus::integrations::record_store::RecordStore;
use eco_hpc::chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use eco_hpc::hpcg::paper_data;
use eco_hpc::hpcg::perf_model::PerfModel;
use eco_hpc::hpcg::workload::{HpcgWorkload, PAPER_STANDARD_RUNTIME_S};
use eco_hpc::ml::spearman;
use eco_hpc::node::clock::SimDuration;
use eco_hpc::node::cpu::{ghz_to_khz, CpuConfig};
use eco_hpc::node::SimNode;
use eco_hpc::slurm::Cluster;
use std::sync::Arc;

mod support;
use support::TempRoot;

/// Runs configurations through the full pipeline at `scale` of the
/// paper's run length.
fn measure(tag: &str, configs: &[CpuConfig], scale: f64, interval_s: u64) -> Vec<Benchmark> {
    let root = TempRoot::new(&format!("repro-{tag}"));
    let mut cluster = Cluster::single_node(SimNode::sr650());
    let perf = Arc::new(PerfModel::sr650());
    let work = perf.gflops(&perf.standard_config()) * PAPER_STANDARD_RUNTIME_S * scale;
    let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
    let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload);
    let mut app = Chronus::new(
        Box::new(RecordStore::open(root.join("db/data.db")).unwrap()),
        Box::new(LocalBlobStore::new(root.join("blobs")).unwrap()),
        Box::new(EtcStorage::new(&root)),
    );
    let mut sampler = IpmiService::new(0, 1234);
    let info = LscpuInfo::new(0);
    // Prepend a discarded warm-up run so the first measured configuration
    // does not pay the thermal ramp from ambient (negligible in the
    // paper's 18.5-minute runs, material in these scaled-down ones).
    let mut all = vec![standard()];
    all.extend_from_slice(configs);
    let mut out = app
        .benchmark(&mut cluster, &runner, &mut sampler, &info, Some(&all), SimDuration::from_secs(interval_s))
        .unwrap();
    out.remove(0);
    out
}

fn standard() -> CpuConfig {
    CpuConfig::new(32, 2_500_000, 1)
}

fn best() -> CpuConfig {
    CpuConfig::new(32, 2_200_000, 1)
}

/// Table 1 row 1: +13% GFLOPS/W at 98% performance.
#[test]
fn headline_13_percent_efficiency_at_98_percent_performance() {
    let b = measure("headline", &[standard(), best()], 0.10, 2);
    let gain = b[1].gflops_per_watt() / b[0].gflops_per_watt();
    let perf = b[1].gflops / b[0].gflops;
    assert!((gain - 1.13).abs() < 0.025, "efficiency gain {gain} (paper 1.13)");
    assert!((perf - 0.98).abs() < 0.015, "relative performance {perf} (paper 0.98)");
}

/// Table 2: powers, temperature and the energy reductions.
#[test]
fn table2_operating_points() {
    let b = measure("table2", &[standard(), best()], 0.10, 3);
    let (std_run, best_run) = (&b[0], &b[1]);

    assert!((std_run.avg_system_w - 216.6).abs() < 6.0, "std sys W {}", std_run.avg_system_w);
    assert!((std_run.avg_cpu_w - 120.4).abs() < 4.0, "std cpu W {}", std_run.avg_cpu_w);
    assert!((best_run.avg_system_w - 190.1).abs() < 6.0, "best sys W {}", best_run.avg_system_w);
    assert!((best_run.avg_cpu_w - 97.4).abs() < 4.0, "best cpu W {}", best_run.avg_cpu_w);
    // temperatures (paper: 62.8 / 53.8 °C); warm-up from ambient drags the
    // short-run average down a little, so allow a generous band
    assert!(std_run.avg_cpu_temp_c > best_run.avg_cpu_temp_c, "best runs cooler");
    assert!((std_run.avg_cpu_temp_c - 62.8).abs() < 8.0, "std temp {}", std_run.avg_cpu_temp_c);

    let sys_red = 1.0 - best_run.system_energy_j / std_run.system_energy_j;
    let cpu_red = 1.0 - best_run.cpu_energy_j / std_run.cpu_energy_j;
    assert!((sys_red - 0.11).abs() < 0.025, "system energy reduction {sys_red} (paper 0.11)");
    assert!((cpu_red - 0.18).abs() < 0.035, "CPU energy reduction {cpu_red} (paper 0.18)");
}

/// Figure 1: the standard configuration rates ≈ 9.348 GFLOP/s.
#[test]
fn standard_gflops_rating() {
    let b = measure("gflops", &[standard()], 0.10, 2);
    let g = b[0].gflops;
    assert!(
        (g - paper_data::STANDARD_GFLOPS).abs() / paper_data::STANDARD_GFLOPS < 0.03,
        "GFLOP/s {g} (paper {})",
        paper_data::STANDARD_GFLOPS
    );
}

/// Tables 4–6 on a representative subset: measured GFLOPS/W tracks the
/// paper's values pointwise and in rank order.
#[test]
fn sweep_subset_tracks_paper() {
    let subset: Vec<(u32, f64, bool)> = vec![
        (32, 2.5, false),
        (32, 2.2, false),
        (32, 2.2, true),
        (32, 1.5, false),
        (30, 2.2, true),
        (28, 2.2, false),
        (24, 2.5, false),
        (20, 1.5, true),
        (16, 2.2, false),
        (12, 2.5, true),
        (8, 2.2, false),
        (7, 2.2, true),
        (7, 2.2, false),
        (4, 2.5, true),
        (2, 1.5, false),
        (1, 1.5, true),
    ];
    let configs: Vec<CpuConfig> =
        subset.iter().map(|&(c, g, h)| CpuConfig::new(c, ghz_to_khz(g), if h { 2 } else { 1 })).collect();
    let benches = measure("subset", &configs, 0.05, 2);

    let mut measured = Vec::new();
    let mut paper = Vec::new();
    for (b, &(c, g, h)) in benches.iter().zip(&subset) {
        let p = paper_data::paper_gpw(c, g, h).unwrap();
        let rel_err = (b.gflops_per_watt() - p).abs() / p;
        assert!(rel_err < 0.06, "({c},{g},{h}): measured {} vs paper {p}", b.gflops_per_watt());
        measured.push(b.gflops_per_watt());
        paper.push(p);
    }
    let rho = spearman(&measured, &paper);
    assert!(rho > 0.97, "rank correlation {rho}");
}

/// §5.2.1 observation 3: hyper-threading wins at 7 cores, loses at 32.
#[test]
fn ht_crossover_reproduces() {
    let configs = vec![
        CpuConfig::new(7, 2_200_000, 1),
        CpuConfig::new(7, 2_200_000, 2),
        CpuConfig::new(32, 2_200_000, 1),
        CpuConfig::new(32, 2_200_000, 2),
    ];
    let b = measure("htcross", &configs, 0.05, 2);
    assert!(
        b[1].gflops_per_watt() > b[0].gflops_per_watt(),
        "HT should win at 7 cores: {} vs {}",
        b[1].gflops_per_watt(),
        b[0].gflops_per_watt()
    );
    assert!(
        b[2].gflops_per_watt() > b[3].gflops_per_watt(),
        "no-HT should win at 32 cores: {} vs {}",
        b[2].gflops_per_watt(),
        b[3].gflops_per_watt()
    );
}

/// §5.2.2: the best configuration's power draw is more stable than the
/// standard configuration's.
#[test]
fn power_stability_contrast() {
    use eco_hpc::chronus::interfaces::{ApplicationRunner, SystemService};
    let sd_of = |config: CpuConfig, tag: &str| -> f64 {
        let mut cluster = Cluster::single_node(SimNode::sr650());
        let perf = Arc::new(PerfModel::sr650());
        let work = perf.gflops(&perf.standard_config()) * 120.0;
        let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
        let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload);
        let mut sampler = IpmiService::new(0, 5);
        let _ = tag;
        // warm up first, then trace the measured job
        let warm = runner.submit(&mut cluster, &config).unwrap();
        while !cluster.job(warm).unwrap().state.is_terminal() {
            cluster.advance(SimDuration::from_secs(5));
        }
        let job = runner.submit(&mut cluster, &config).unwrap();
        let mut vals = Vec::new();
        loop {
            cluster.advance(SimDuration::from_secs(3));
            if cluster.job(job).unwrap().state.is_terminal() {
                break;
            }
            vals.push(sampler.sample(&cluster).system_w);
        }
        let tail = &vals[vals.len() / 4..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        (tail.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / tail.len() as f64).sqrt()
    };
    let sd_std = sd_of(standard(), "std");
    let sd_best = sd_of(best(), "best");
    assert!(sd_best * 3.0 < sd_std, "best sd {sd_best} should be far below standard sd {sd_std}");
}

/// Abstract: "a potential energy saving of 11%".
#[test]
fn abstract_11_percent_saving() {
    let b = measure("abstract", &[standard(), best()], 0.08, 2);
    let saving = 1.0 - b[1].system_energy_j / b[0].system_energy_j;
    assert!((saving - 0.11).abs() < 0.025, "saving {saving}");
}
