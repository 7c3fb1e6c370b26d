//! What a random-forest fit produces, pinned: the serialized model, the
//! best configuration over the EPYC 7502P's 192 candidates and the
//! training R² of `RandomTreeOptimizer` on the paper's sweep and 15
//! seeded ±15 % perturbations of it, plus `select_model_type`'s choice on
//! two of them; `fit_best` (fit and argmax in one) must agree with the
//! same pins. A fit's bytes are a function of its rows and its seed
//! only: a change to how trees grow or score that moves one float
//! operation turns this red.

use eco_hpc::chronus::domain::Benchmark;
use eco_hpc::chronus::interfaces::Optimizer;
use eco_hpc::chronus::optimizers::{select_model_type, RandomTreeOptimizer};
use eco_hpc::hpcg::paper_data::GFLOPS_PER_WATT;
use eco_hpc::node::cpu::{ghz_to_khz, CpuConfig, CpuSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per set: FNV-1a of `to_bytes()`, best (cores, kHz, threads per core),
/// `FitReport::r2` bits.
const FITS: [(u64, (u32, u64, u32), u64); 16] = [
    (0x7b9a9943b1534a9e, (32, 2200000, 1), 0x3fefdbc7ee301dd0),
    (0xbebb7bcc8b66490b, (32, 1500000, 1), 0x3fef0f0f3fd38fb9),
    (0x86451fc1a8090278, (32, 2200000, 2), 0x3fef3d34c3078cad),
    (0x6d6a6770f13c751a, (32, 2200000, 2), 0x3fef1d7d3de8980f),
    (0xa9e67794b417c8f9, (32, 2200000, 2), 0x3fef16a25e731acd),
    (0x4ebf905fe6c24269, (32, 2200000, 2), 0x3fef05182a9162e0),
    (0xd27c6c1d58eadcba, (32, 2200000, 1), 0x3fef21e4f67fbd97),
    (0x69c7794ef033f483, (32, 1500000, 1), 0x3feee6843b675374),
    (0xfc8c71044b984ab3, (32, 2200000, 2), 0x3fef0916a676b773),
    (0xed2f6d46b525ae6d, (32, 2200000, 2), 0x3fef145c72151919),
    (0xcdca56909461c9a3, (32, 2200000, 2), 0x3fef09e3007a0cfe),
    (0xdea40b76073e4437, (28, 2200000, 2), 0x3fef059e084dd71e),
    (0x4748a61a55f0a996, (32, 2200000, 2), 0x3fef39484233936a),
    (0xd2d4b12e5376fdd9, (32, 2200000, 1), 0x3feef89780a60478),
    (0x3c129ad60e01a6b5, (30, 1500000, 1), 0x3fef01929eb5409b),
    (0x7b63aa870a92df35, (32, 2200000, 1), 0x3fef0a064a2b41a8),
];

/// `select_model_type(set, 4, 0xc5)`: set, family, cross-validated R² bits.
const SELECTIONS: [(u64, &str, u64); 2] =
    [(0, "random-tree", 0x3fef22582017ad9c), (9, "random-tree", 0x3fec4fccd84b26b2)];

/// Set 0 is the paper's sweep; set `s > 0` scales each GFLOPS/W by a
/// factor in [0.85, 1.15) drawn from seed `s`.
fn sweep(set: u64) -> Vec<Benchmark> {
    let mut rng = StdRng::seed_from_u64(set);
    GFLOPS_PER_WATT
        .iter()
        .map(|&(cores, ghz, gpw, ht)| {
            let gpw = if set == 0 { gpw } else { gpw * (1.0 + rng.gen_range(-0.15..0.15)) };
            let watts = 150.0 + cores as f64;
            Benchmark {
                id: -1,
                system_id: 1,
                binary_hash: 7,
                config: CpuConfig::new(cores, ghz_to_khz(ghz), if ht { 2 } else { 1 }),
                gflops: gpw * watts,
                runtime_s: 1000.0,
                avg_system_w: watts,
                avg_cpu_w: watts / 2.0,
                avg_cpu_temp_c: 50.0,
                system_energy_j: watts * 1000.0,
                cpu_energy_j: watts * 500.0,
                sample_count: 500,
            }
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn every_fit_serializes_scores_and_chooses_as_pinned() {
    let candidates = CpuSpec::epyc_7502p().all_configurations();
    assert_eq!(candidates.len(), 192);
    for (set, &(digest, (cores, khz, tpc), r2_bits)) in FITS.iter().enumerate() {
        let mut opt = RandomTreeOptimizer::new();
        let report = opt.fit(&sweep(set as u64)).unwrap();
        assert_eq!(report.train_rows, GFLOPS_PER_WATT.len());
        assert_eq!(fnv1a(&opt.to_bytes().unwrap()), digest, "set {set}: model bytes");
        assert_eq!(opt.best_config(&candidates).unwrap(), CpuConfig::new(cores, khz, tpc), "set {set}: best");
        assert_eq!(report.r2.to_bits(), r2_bits, "set {set}: r2 {}", report.r2);
        // fit and argmax in one, the training configurations scored by the fit
        let mut together = RandomTreeOptimizer::new();
        let (report, best) = together.fit_best(&sweep(set as u64), &candidates).unwrap();
        assert_eq!(fnv1a(&together.to_bytes().unwrap()), digest, "set {set}: fit_best bytes");
        assert_eq!((best, report.r2.to_bits()), (CpuConfig::new(cores, khz, tpc), r2_bits), "set {set}: fit_best");
    }
}

#[test]
fn auto_selection_is_pinned() {
    for (set, family, score_bits) in SELECTIONS {
        let (chosen, score) = select_model_type(&sweep(set), 4, 0xc5).unwrap();
        assert_eq!((chosen, score.to_bits()), (family, score_bits), "set {set}: score {score}");
    }
}
