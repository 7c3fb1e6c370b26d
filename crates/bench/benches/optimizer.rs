//! Optimizer micro-benchmarks: fit cost, predict cost, and the full
//! submit-path prediction (file read + deserialize + candidate argmax) —
//! the latency Slurm's plugin budget constrains (paper §3.1.2).

use chronus::application::predict_from_settings;
use chronus::domain::{Benchmark, LoadedModel, PluginState, Settings};
use chronus::hash::{binary_hash, system_hash};
use chronus::optimizers::{ModelFactory, RANDOM_TREE};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eco_campaign::fit_best_config;
use eco_hpcg::paper_data::GFLOPS_PER_WATT;
use eco_sim_node::cpu::{ghz_to_khz, CpuConfig, CpuSpec};
use eco_sim_node::sysinfo::SystemFacts;
use std::hint::black_box;

fn paper_benchmarks() -> Vec<Benchmark> {
    GFLOPS_PER_WATT
        .iter()
        .map(|&(cores, ghz, gpw, ht)| {
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

fn bench_fit(c: &mut Criterion) {
    let data = paper_benchmarks();
    let mut group = c.benchmark_group("optimizer_fit");
    for model_type in ModelFactory::model_types() {
        group.bench_with_input(BenchmarkId::from_parameter(model_type), &data, |b, data| {
            b.iter(|| {
                let mut opt = ModelFactory::create(model_type).unwrap();
                opt.fit(black_box(data)).unwrap();
                opt
            })
        });
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let data = paper_benchmarks();
    let candidates = CpuSpec::epyc_7502p().all_configurations();
    let mut group = c.benchmark_group("optimizer_best_config_192_candidates");
    for model_type in ModelFactory::model_types() {
        let mut opt = ModelFactory::create(model_type).unwrap();
        opt.fit(&data).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(model_type), &candidates, |b, cand| {
            b.iter(|| opt.best_config(black_box(cand)).unwrap())
        });
    }
    group.finish();
}

/// Model building as a campaign times it (`campaign.fit_ns`):
/// `fit_best_config`, a fresh fit plus the argmax over the 192 EPYC
/// candidates.
fn bench_fit_best_config(c: &mut Criterion) {
    let data = paper_benchmarks();
    let candidates = CpuSpec::epyc_7502p().all_configurations();
    let mut group = c.benchmark_group("fit_best_config");
    group.bench_with_input(BenchmarkId::from_parameter(RANDOM_TREE), &data, |b, data| {
        b.iter(|| fit_best_config(RANDOM_TREE, black_box(data), black_box(&candidates)).unwrap())
    });
    group.finish();
}

/// The complete submit-path prediction, exactly what `job_submit_eco`
/// triggers: read the pre-loaded model file, deserialize, enumerate and
/// score every candidate configuration.
fn bench_submit_path(c: &mut Criterion) {
    let data = paper_benchmarks();
    let spec = CpuSpec::epyc_7502p();
    let facts = SystemFacts {
        cpu_name: spec.name.clone(),
        cores: spec.cores,
        threads_per_core: spec.threads_per_core,
        frequencies_khz: spec.frequencies_khz.clone(),
        ram_gb: 256,
    };
    let dir = std::env::temp_dir().join(format!("eco-bench-submitpath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut group = c.benchmark_group("submit_path_prediction");
    for model_type in ModelFactory::model_types() {
        let mut opt = ModelFactory::create(model_type).unwrap();
        opt.fit(&data).unwrap();
        let path = dir.join(format!("{model_type}.json"));
        std::fs::write(&path, opt.to_bytes().unwrap()).unwrap();
        let settings = Settings {
            state: PluginState::User,
            loaded_model: Some(LoadedModel {
                model_id: 1,
                model_type: model_type.to_string(),
                local_path: path.to_string_lossy().into_owned(),
                system_hash: system_hash(&spec, 256),
                binary_hash: binary_hash("xhpcg"),
                facts: facts.clone(),
                benchmarks_path: None,
            }),
            ..Settings::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(model_type), &settings, |b, s| {
            b.iter(|| predict_from_settings(black_box(s), system_hash(&spec, 256), binary_hash("xhpcg")).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fit, bench_predict, bench_fit_best_config, bench_submit_path);
criterion_main!(benches);
