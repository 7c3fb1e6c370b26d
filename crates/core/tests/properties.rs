//! Property-based tests for Chronus: storage round-trips, hashing, and
//! optimizer serialization over arbitrary benchmark data.

use chronus::domain::{Benchmark, ModelMetadata, SystemEntry};
use chronus::hash::simple_hash;
use chronus::integrations::csv_repo::CsvRepository;
use chronus::integrations::record_store::RecordStore;
use chronus::interfaces::Repository;
use chronus::optimizers::ModelFactory;
use eco_sim_node::cpu::CpuConfig;
use eco_sim_node::sysinfo::SystemFacts;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// One proptest case's own empty directory: removed when the case ends,
/// kept for inspection when it panicked.
struct TmpDir(PathBuf);

impl std::ops::Deref for TmpDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TmpDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn tmpdir(tag: &str) -> TmpDir {
    let d = std::env::temp_dir().join(format!(
        "eco-props-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    TmpDir(d)
}

fn arb_config() -> impl Strategy<Value = CpuConfig> {
    (1u32..=32, prop::sample::select(vec![1_500_000u64, 2_200_000, 2_500_000]), 1u32..=2)
        .prop_map(|(c, f, t)| CpuConfig::new(c, f, t))
}

fn arb_benchmark() -> impl Strategy<Value = Benchmark> {
    (arb_config(), 0.1f64..20.0, 10.0f64..5000.0, 100.0f64..300.0, 30.0f64..150.0, 25.0f64..90.0, 1usize..5000)
        .prop_map(|(config, gflops, runtime_s, sys_w, cpu_w, temp, samples)| Benchmark {
            id: -1,
            system_id: 1,
            binary_hash: 42,
            config,
            gflops,
            runtime_s,
            avg_system_w: sys_w,
            avg_cpu_w: cpu_w,
            avg_cpu_temp_c: temp,
            system_energy_j: sys_w * runtime_s,
            cpu_energy_j: cpu_w * runtime_s,
            sample_count: samples,
        })
}

fn facts() -> SystemFacts {
    SystemFacts {
        cpu_name: "AMD EPYC 7502P 32-Core Processor".into(),
        cores: 32,
        threads_per_core: 2,
        frequencies_khz: vec![1_500_000, 2_200_000, 2_500_000],
        ram_gb: 256,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record store persists arbitrary benchmarks byte-exactly across
    /// reopen.
    #[test]
    fn record_store_roundtrip(benches in prop::collection::vec(arb_benchmark(), 1..10)) {
        let dir = tmpdir("rs");
        let path = dir.join("data.db");
        let mut stored = Vec::new();
        {
            let mut db = RecordStore::open(&path).unwrap();
            for b in &benches {
                let id = db.save_benchmark(b).unwrap();
                stored.push(Benchmark { id, ..b.clone() });
            }
        }
        let db = RecordStore::open(&path).unwrap();
        let loaded = db.all_benchmarks().unwrap();
        prop_assert_eq!(loaded, stored);
    }

    /// CSV repository round-trips arbitrary benchmarks through text files
    /// with full numeric fidelity.
    #[test]
    fn csv_repo_roundtrip(benches in prop::collection::vec(arb_benchmark(), 1..8)) {
        let dir = tmpdir("csv");
        let mut stored = Vec::new();
        {
            let mut repo = CsvRepository::open(&dir).unwrap();
            for b in &benches {
                let id = repo.save_benchmark(b).unwrap();
                stored.push(Benchmark { id, ..b.clone() });
            }
        }
        let repo = CsvRepository::open(&dir).unwrap();
        let loaded = repo.all_benchmarks().unwrap();
        prop_assert_eq!(loaded.len(), stored.len());
        for (l, s) in loaded.iter().zip(&stored) {
            prop_assert_eq!(l.id, s.id);
            prop_assert_eq!(l.config, s.config);
            prop_assert!((l.gflops - s.gflops).abs() < 1e-12);
            prop_assert!((l.system_energy_j - s.system_energy_j).abs() < 1e-9);
            prop_assert_eq!(l.sample_count, s.sample_count);
        }
    }

    /// Both repository backends agree on system dedup semantics.
    #[test]
    fn system_dedup_both_backends(hashes in prop::collection::vec(0u64..5, 1..12)) {
        let dir = tmpdir("dedup");
        let mut rs = RecordStore::open(dir.join("d.db")).unwrap();
        let mut csv = CsvRepository::open(dir.join("csv")).unwrap();
        for &h in &hashes {
            let e = SystemEntry { id: -1, facts: facts(), system_hash: h };
            let a = rs.save_system(&e).unwrap();
            let b = csv.save_system(&e).unwrap();
            prop_assert_eq!(a, b, "backends disagree for hash {}", h);
        }
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        prop_assert_eq!(rs.systems().unwrap().len(), distinct.len());
        prop_assert_eq!(csv.systems().unwrap().len(), distinct.len());
    }

    /// simple_hash is deterministic and order-sensitive.
    #[test]
    fn simple_hash_properties(a in ".{0,64}", b in ".{0,64}") {
        prop_assert_eq!(simple_hash(&a), simple_hash(&a));
        if a != b {
            // collisions are possible in principle but astronomically
            // unlikely for short random strings; treat one as a failure
            prop_assert_ne!(simple_hash(&a), simple_hash(&b), "collision: {:?} vs {:?}", a, b);
        }
    }

    /// Every optimizer family serializes and deserializes to identical
    /// predictions over arbitrary training data.
    #[test]
    fn optimizer_serde_roundtrip(benches in prop::collection::vec(arb_benchmark(), 4..20)) {
        for model_type in ModelFactory::model_types() {
            let mut opt = ModelFactory::create(model_type).unwrap();
            opt.fit(&benches).unwrap();
            let bytes = opt.to_bytes().unwrap();
            let loaded = ModelFactory::from_bytes(model_type, &bytes).unwrap();
            for b in benches.iter().take(5) {
                prop_assert_eq!(
                    opt.predict_gpw(&b.config).unwrap(),
                    loaded.predict_gpw(&b.config).unwrap(),
                    "{} diverged after roundtrip", model_type
                );
            }
        }
    }

    /// `fit_best` is `fit` followed by `best_config` for every family: the
    /// same configuration, R² bits and fitted bytes, or the same error.
    /// Candidates are exactly the training configurations, a shuffled
    /// subset of them, off-grid ones alone, both with each one twice, or
    /// none; the training set repeats configurations with other targets.
    #[test]
    fn fit_best_is_fit_then_best_config(
        benches in prop::collection::vec(arb_benchmark(), 1..24),
        repeats in 0usize..8,
        off_grid in prop::collection::vec(arb_config(), 2..8),
        shape in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let again = benches.iter().take(repeats).map(|b| Benchmark { gflops: b.gflops * 1.1, ..b.clone() });
        let benches: Vec<Benchmark> = benches.iter().cloned().chain(again).collect();
        let trained: Vec<CpuConfig> = benches.iter().map(|b| b.config).collect();
        let candidates: Vec<CpuConfig> = match shape {
            0 => trained,
            1 => {
                // a Fisher-Yates shuffle of every first, second or third row
                let mut subset: Vec<CpuConfig> = trained.into_iter().step_by(1 + seed as usize % 3).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                (1..subset.len()).rev().for_each(|i| subset.swap(i, rng.gen_range(0..=i)));
                subset
            }
            2 => off_grid,
            3 => [trained.clone(), off_grid.clone(), off_grid, trained].concat(),
            _ => Vec::new(),
        };
        for model_type in ModelFactory::model_types() {
            let mut separate = ModelFactory::create(model_type).unwrap();
            let expected = separate.fit(&benches).and_then(|report| Ok((report, separate.best_config(&candidates)?)));
            let mut together = ModelFactory::create(model_type).unwrap();
            let got = together.fit_best(&benches, &candidates);
            match (expected, got) {
                (Ok((report, best)), Ok((got_report, got_best))) => {
                    prop_assert_eq!(got_best, best, "{}", model_type);
                    prop_assert_eq!(got_report.train_rows, report.train_rows);
                    prop_assert_eq!(got_report.r2.to_bits(), report.r2.to_bits(), "{}", model_type);
                    prop_assert_eq!(together.to_bytes().unwrap(), separate.to_bytes().unwrap());
                }
                (Err(e), Err(got)) => prop_assert_eq!(format!("{got:?}"), format!("{e:?}")),
                (expected, got) => prop_assert!(false, "{model_type}: expected {expected:?}, got {got:?}"),
            }
        }
    }

    /// Model metadata survives both backends.
    #[test]
    fn model_metadata_roundtrip(n in 1usize..6, r2 in 0.0f64..1.0) {
        let dir = tmpdir("meta");
        let mut db = RecordStore::open(dir.join("d.db")).unwrap();
        for i in 0..n {
            let meta = ModelMetadata {
                id: -1,
                model_type: "random-tree".into(),
                system_id: 1,
                binary_hash: i as u64,
                blob_path: format!("models/{i}.json"),
                created_at_ms: i as u64 * 1000,
                train_rows: 138,
                fit_r2: r2,
            };
            db.save_model(&meta).unwrap();
        }
        prop_assert_eq!(db.models().unwrap().len(), n);
        for m in db.models().unwrap() {
            prop_assert!(db.model(m.id).unwrap().is_some());
        }
    }
}
