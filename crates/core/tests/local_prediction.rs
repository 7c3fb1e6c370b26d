//! `LocalPrediction` holds the staged model's answer; the one-shot
//! `predict_from_settings` never holds anything. Whatever happens to the
//! staged files between two calls, the two must say the same thing — and
//! the point of holding is that the second call is not the first again.

use chronus::application::predict_from_settings;
use chronus::domain::{Benchmark, LoadedModel, Settings};
use chronus::integrations::storage::EtcStorage;
use chronus::interfaces::LocalStorage;
use chronus::optimizers::{ModelFactory, BRUTE_FORCE, RANDOM_TREE};
use chronus::remote::{LocalPrediction, PredictionSource};
use eco_sim_node::cpu::{CpuConfig, CpuSpec};
use eco_sim_node::sysinfo::SystemFacts;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SYSTEM: u64 = 0x5e_ed;
const BINARY: u64 = 0xb1_4a;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("eco-local-prediction-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One measured row per configuration of the EPYC, `best` the most
/// efficient of them.
fn rows(best: CpuConfig) -> Vec<Benchmark> {
    CpuSpec::epyc_7502p()
        .all_configurations()
        .into_iter()
        .enumerate()
        .map(|(i, config)| {
            let gpw = if config == best { 0.060 } else { 0.020 + 0.0001 * (i % 97) as f64 };
            Benchmark {
                id: -1,
                system_id: 1,
                binary_hash: BINARY,
                config,
                gflops: gpw * 200.0,
                runtime_s: 100.0,
                avg_system_w: 200.0,
                avg_cpu_w: 100.0,
                avg_cpu_temp_c: 55.0,
                system_energy_j: 20_000.0,
                cpu_energy_j: 10_000.0,
                sample_count: 50,
            }
        })
        .collect()
}

/// Fits a model of `model_type` on `rows` and writes it to `path`, in
/// place: what any tool that is not `chronus load-model` does.
fn write_model(path: &Path, model_type: &str, rows: &[Benchmark]) {
    let mut model = ModelFactory::create(model_type).unwrap();
    model.fit(rows).unwrap();
    std::fs::write(path, model.to_bytes().unwrap()).unwrap();
}

fn entry(path: &Path, model_type: &str) -> LoadedModel {
    let spec = CpuSpec::epyc_7502p();
    LoadedModel {
        model_id: 1,
        model_type: model_type.to_string(),
        local_path: path.to_string_lossy().into_owned(),
        system_hash: SYSTEM,
        binary_hash: BINARY,
        facts: SystemFacts {
            cpu_name: spec.name.clone(),
            cores: spec.cores,
            threads_per_core: spec.threads_per_core,
            frequencies_khz: spec.frequencies_khz.clone(),
            ram_gb: 256,
        },
        benchmarks_path: None,
    }
}

#[test]
fn every_step_of_a_staging_history_answers_as_the_one_shot_path_does() {
    let root = tmpdir("differential");
    let storage = Arc::new(EtcStorage::new(&root));
    let source = LocalPrediction::new(Arc::clone(&storage) as Arc<dyn LocalStorage + Send + Sync>);
    // the reference: a fresh read of everything, nothing carried over
    let reference =
        |s: u64, b: u64| EtcStorage::new(&root).load_settings().and_then(|set| predict_from_settings(&set, s, b));
    let step = |what: &str, s: u64, b: u64| {
        let (held, fresh) = (source.predict(s, b), reference(s, b));
        assert_eq!(
            held.as_ref().map_err(|e| e.to_string()),
            fresh.as_ref().map_err(|e| e.to_string()),
            "{what}: the holding source and the one-shot path disagree"
        );
        held.map_err(|e| e.to_string())
    };

    let (a, b) = (CpuConfig::new(32, 2_200_000, 1), CpuConfig::new(16, 1_500_000, 2));
    let (first, second) = (root.join("model-1.json"), root.join("model-2.json"));

    assert!(step("nothing staged", SYSTEM, BINARY).unwrap_err().contains("no model is pre-loaded"));

    write_model(&first, BRUTE_FORCE, &rows(a));
    storage
        .save_settings(&Settings { loaded_model: Some(entry(&first, BRUTE_FORCE)), ..Settings::default() })
        .unwrap();
    assert_eq!(step("first call", SYSTEM, BINARY), Ok(a));
    assert_eq!(step("repeat", SYSTEM, BINARY), Ok(a));

    write_model(&second, BRUTE_FORCE, &rows(b));
    storage
        .save_settings(&Settings { loaded_model: Some(entry(&second, BRUTE_FORCE)), ..Settings::default() })
        .unwrap();
    assert_eq!(step("another model staged", SYSTEM, BINARY), Ok(b));

    // same path, same settings entry, other contents (and another length:
    // an in-place write inside one timestamp tick has nothing else to show)
    write_model(&second, BRUTE_FORCE, &rows(a)[..64]);
    let overwritten = step("same path overwritten", SYSTEM, BINARY).unwrap();
    assert_ne!(overwritten, b, "the answer held for the old contents is gone");

    assert!(step("wrong system", SYSTEM + 1, BINARY).unwrap_err().contains("is for system"));
    assert!(step("wrong binary", SYSTEM, BINARY + 1).unwrap_err().contains("is for binary"));
    assert_eq!(step("right key again", SYSTEM, BINARY), Ok(overwritten));

    std::fs::remove_file(&second).unwrap();
    assert!(step("model file deleted", SYSTEM, BINARY).is_err());
    assert!(step("still deleted", SYSTEM, BINARY).is_err());

    std::fs::write(&second, b"{ not a model").unwrap();
    assert!(step("model file corrupt", SYSTEM, BINARY).is_err());

    write_model(&second, BRUTE_FORCE, &rows(b));
    assert_eq!(step("restored", SYSTEM, BINARY), Ok(b));
    assert_eq!(step("and held again", SYSTEM, BINARY), Ok(b));
}

/// The paper stages the model because the plugin's budget is short
/// (§3.1.2). A 96-tree forest costs milliseconds to read, parse and score;
/// the tenth submission must not pay that again. A ratio, so a slow or
/// busy host scales both sides — and the cheapest of the tenth call and
/// the nine after it, so one preemption cannot fail it.
#[test]
fn the_tenth_forest_prediction_costs_under_a_hundredth_of_the_first() {
    let root = tmpdir("forest");
    let storage = Arc::new(EtcStorage::new(&root));
    let path = root.join("forest.json");
    write_model(&path, RANDOM_TREE, &rows(CpuConfig::new(32, 2_200_000, 1)));
    storage
        .save_settings(&Settings { loaded_model: Some(entry(&path, RANDOM_TREE)), ..Settings::default() })
        .unwrap();
    let source = LocalPrediction::new(Arc::clone(&storage) as Arc<dyn LocalStorage + Send + Sync>);

    let timed = || {
        let t = Instant::now();
        let config = source.predict(SYSTEM, BINARY).unwrap();
        (config, t.elapsed())
    };
    let (answer, first) = timed();
    let later: Vec<_> = (1..20).map(|_| timed()).collect();
    assert!(later.iter().all(|(config, _)| *config == answer));
    let reference = predict_from_settings(&storage.load_settings().unwrap(), SYSTEM, BINARY).unwrap();
    assert_eq!(answer, reference, "and what is repeated is what the one-shot path computes");
    let tenth = later[8..].iter().map(|(_, took)| *took).min().unwrap();
    assert!(tenth * 100 < first, "first prediction {first:?}, tenth {tenth:?}");
}
