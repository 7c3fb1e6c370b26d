//! Model and settings bytes, pinned as literals printed before the JSON
//! writer streamed and the forest scored from packed tables.

use chronus::domain::{Benchmark, Settings};
use chronus::interfaces::Optimizer;
use chronus::optimizers::RandomTreeOptimizer;
use eco_sim_node::cpu::CpuConfig;

/// A 24-row sweep over (cores, GHz, HT) with a concave GFLOPS/W surface.
fn sweep() -> Vec<Benchmark> {
    let mut rows = Vec::new();
    for (i, cores) in [4u32, 8, 16, 24, 28, 32].into_iter().enumerate() {
        for (j, khz) in [1_500_000u64, 2_200_000].into_iter().enumerate() {
            for tpc in [1u32, 2] {
                let c = cores as f64;
                let gpw =
                    c / (c + 6.0) * (1.0 - 0.05 * j as f64) * if tpc == 2 { 0.97 } else { 1.0 } + 0.001 * i as f64;
                let watts = 150.0 + c;
                rows.push(Benchmark {
                    id: -1,
                    system_id: 1,
                    binary_hash: 7,
                    config: CpuConfig::new(cores, khz, tpc),
                    gflops: gpw * watts,
                    runtime_s: 1000.0,
                    avg_system_w: watts,
                    avg_cpu_w: watts / 2.0,
                    avg_cpu_temp_c: 50.0,
                    system_energy_j: watts * 1000.0,
                    cpu_energy_j: watts * 500.0,
                    sample_count: 500,
                });
            }
        }
    }
    rows
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// `to_string_pretty(&Settings::default())`: what `settings.json` holds
/// before the first `chronus set`.
const DEFAULT_SETTINGS: &str = r#"{
  "database": "./database/data.db",
  "blob_storage": "./optimizers",
  "state": "user",
  "loaded_model": null,
  "sample_interval": 2000
}"#;

/// `RandomTreeOptimizer::to_bytes` after fitting `sweep()`: length,
/// FNV-1a, the first 400 and the last 200 bytes, and the fit's R² bits.
const FOREST_LEN: usize = 131_650;
const FOREST_FNV: u64 = 0x1cd6_ec6a_dc13_4590;
const FOREST_HEAD: &str = r#"{"params":{"n_trees":96,"tree":{"max_depth":10,"min_leaf":1,"max_features":2},"seed":3776},"model":{"trees":[{"nodes":[{"Split":{"feature":0,"threshold":12.0,"left":1,"right":6}},{"Split":{"feature":0,"threshold":6.0,"left":2,"right":5}},{"Split":{"feature":1,"threshold":1.85,"left":3,"right":4}},{"Leaf":{"value":0.394,"n_samples":2}},{"Leaf":{"value":0.38,"n_samples":2}},{"Leaf":{"value":0.535714"#;
const FOREST_TAIL: &str = r#"s":1}},{"Leaf":{"value":0.7863529411764705,"n_samples":3}}],"input_width":3}],"params":{"n_trees":96,"tree":{"max_depth":10,"min_leaf":1,"max_features":2},"seed":3776},"oob_rmse":0.04394948883894192}}"#;
const FOREST_R2_BITS: u64 = 0x3fef_85d3_f5bd_0f38;

#[test]
fn default_settings_render_as_pinned() {
    let pretty = serde_json::to_string_pretty(&Settings::default()).unwrap();
    assert_eq!(pretty, DEFAULT_SETTINGS);
    assert_eq!(serde_json::from_str::<Settings>(&pretty).unwrap(), Settings::default());
}

#[test]
fn a_fixed_forest_fit_serializes_as_pinned() {
    let mut opt = RandomTreeOptimizer::new();
    let report = opt.fit(&sweep()).unwrap();
    assert_eq!(report.r2.to_bits(), FOREST_R2_BITS);
    let bytes = opt.to_bytes().unwrap();
    assert_eq!(bytes.len(), FOREST_LEN);
    assert_eq!(fnv1a(&bytes), FOREST_FNV);
    assert_eq!(&bytes[..FOREST_HEAD.len()], FOREST_HEAD.as_bytes());
    assert_eq!(&bytes[bytes.len() - FOREST_TAIL.len()..], FOREST_TAIL.as_bytes());

    // what a plugin loads scores and re-serializes exactly as what was fit
    let loaded = chronus::ModelFactory::from_bytes("random-tree", &bytes).unwrap();
    assert_eq!(loaded.to_bytes().unwrap(), bytes);
    for b in sweep() {
        assert_eq!(loaded.predict_gpw(&b.config).unwrap().to_bits(), opt.predict_gpw(&b.config).unwrap().to_bits());
    }
}
