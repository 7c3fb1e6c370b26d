//! What a submission may hold on to, and what must make it let go.
//!
//! Since PR 20 `EtcStorage` holds the parsed `settings.json` and
//! `LocalPrediction` holds the staged model's answer, each beside the
//! stamp (one `stat`) of the file it came from. These tests drive the
//! whole submit path — `Cluster::sbatch` → `job_submit_eco` → a real
//! `EtcStorage` on disk — while a *second* `EtcStorage` over the same
//! root plays the `chronus` CLI, and check that whatever the CLI did is
//! what the very next submission sees.

use eco_hpc::chronus::domain::{Benchmark, LoadedModel, PluginState, Settings};
use eco_hpc::chronus::hash::{binary_hash, system_hash};
use eco_hpc::chronus::integrations::storage::EtcStorage;
use eco_hpc::chronus::interfaces::{LocalStorage, Optimizer};
use eco_hpc::chronus::optimizers::BruteForceOptimizer;
use eco_hpc::chronus::telemetry::Telemetry;
use eco_hpc::eco_plugin::JobSubmitEco;
use eco_hpc::hpcg::perf_model::PerfModel;
use eco_hpc::hpcg::workload::{HpcgWorkload, Workload};
use eco_hpc::node::cpu::CpuConfig;
use eco_hpc::node::sysinfo::SystemFacts;
use eco_hpc::node::SimNode;
use eco_hpc::slurm::Cluster;
use std::path::Path;
use std::sync::Arc;

mod support;
use support::TempRoot;

const BINARY: &str = "/opt/hpcg/bin/xhpcg";

const OPTED_IN: &str = "#!/bin/bash\n\
    #SBATCH --nodes=1\n\
    #SBATCH --ntasks=32\n\
    #SBATCH --comment \"chronus\"\n\
    \n\
    srun --mpi=pmix_v4 --ntasks-per-core=1 /opt/hpcg/bin/xhpcg\n";

/// The two answers a staged model can give here.
const EFFICIENT: CpuConfig = CpuConfig { cores: 32, frequency_khz: 2_200_000, threads_per_core: 1 };
const FRUGAL: CpuConfig = CpuConfig { cores: 16, frequency_khz: 1_500_000, threads_per_core: 2 };

/// A head node: the controller with the plugin loaded over one
/// `EtcStorage`, and the CLI's own `EtcStorage` over the same root.
struct Head {
    cluster: Cluster,
    cli: EtcStorage,
    telemetry: Arc<Telemetry>,
    binary_id: String,
    root: TempRoot,
}

fn head(tag: &str) -> Head {
    let root = TempRoot::new(&format!("freshness-{tag}"));
    let mut cluster = Cluster::single_node(SimNode::sr650());
    let workload = HpcgWorkload::paper_default(Arc::new(PerfModel::sr650()));
    let binary_id = workload.binary_id().to_string();
    cluster.register_binary(BINARY, Arc::new(workload));
    let telemetry = Arc::new(Telemetry::wall());
    let mut plugin =
        JobSubmitEco::new(Arc::new(EtcStorage::new(&root)), cluster.node(0).spec(), cluster.node(0).ram_gb());
    plugin.register_binary(BINARY, &binary_id);
    plugin.set_telemetry(Arc::clone(&telemetry));
    cluster.register_plugin(Box::new(plugin));
    Head { cli: EtcStorage::new(&root), root, cluster, telemetry, binary_id }
}

impl Head {
    /// Stages a model whose answer is `best` at `file`, the way
    /// `chronus load-model` does — written beside the target and renamed
    /// over it — and returns the `settings.json` entry that points at it.
    fn stage(&self, file: &str, best: CpuConfig) -> LoadedModel {
        let mut model = BruteForceOptimizer::new();
        model.fit(&[bench(EFFICIENT, 0.040), bench(FRUGAL, 0.040), bench(best, 0.049)]).unwrap();
        let path = self.root.join("opt/chronus/optimizers").join(file);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let beside = path.with_extension("staging");
        std::fs::write(&beside, model.to_bytes().unwrap()).unwrap();
        std::fs::rename(&beside, &path).unwrap();
        let spec = self.cluster.node(0).spec();
        LoadedModel {
            model_id: 1,
            model_type: "brute-force".into(),
            local_path: path.to_string_lossy().into_owned(),
            system_hash: system_hash(spec, self.cluster.node(0).ram_gb()),
            binary_hash: binary_hash(&self.binary_id),
            facts: SystemFacts {
                cpu_name: spec.name.clone(),
                cores: spec.cores,
                threads_per_core: spec.threads_per_core,
                frequencies_khz: spec.frequencies_khz.clone(),
                ram_gb: self.cluster.node(0).ram_gb(),
            },
            benchmarks_path: None,
        }
    }

    /// One `sbatch`; returns the configuration the plugin pinned, if it
    /// rewrote the job. The job is cancelled at once so the queue stays
    /// empty however many submissions a test makes.
    fn submit(&mut self, script: &str) -> Option<CpuConfig> {
        let id = self.cluster.sbatch(script, "alice").expect("a submission is always accepted");
        let d = self.cluster.job(id).unwrap().descriptor.clone();
        self.cluster.cancel(id).unwrap();
        d.max_frequency_khz.map(|khz| CpuConfig::new(d.num_tasks, khz, d.threads_per_cpu))
    }

    fn plugin_errors(&self) -> u64 {
        self.telemetry.counter("plugin.errors").get()
    }
}

fn bench(config: CpuConfig, gflops_per_watt: f64) -> Benchmark {
    Benchmark {
        id: -1,
        system_id: 1,
        binary_hash: 0,
        config,
        gflops: gflops_per_watt * 200.0,
        runtime_s: 100.0,
        avg_system_w: 200.0,
        avg_cpu_w: 100.0,
        avg_cpu_temp_c: 55.0,
        system_energy_j: 20_000.0,
        cpu_energy_j: 10_000.0,
        sample_count: 50,
    }
}

fn plain() -> String {
    OPTED_IN.replace("#SBATCH --comment \"chronus\"\n", "")
}

#[test]
fn a_state_flipped_by_another_process_changes_the_very_next_submission() {
    let mut h = head("flip");
    let staged = Settings { loaded_model: Some(h.stage("model-1.json", EFFICIENT)), ..Settings::default() };
    h.cli.save_settings(&staged).unwrap();
    assert_eq!(h.submit(&plain()), None, "user state: no opt-in, no rewrite");
    assert_eq!(h.submit(OPTED_IN), Some(EFFICIENT));

    // chronus set state active
    h.cli.save_settings(&Settings { state: PluginState::Active, ..staged.clone() }).unwrap();
    assert_eq!(h.submit(&plain()), Some(EFFICIENT), "the flip is seen by the submission right after it");

    // chronus set state deactivated
    h.cli.save_settings(&Settings { state: PluginState::Deactivated, ..staged.clone() }).unwrap();
    assert_eq!(h.submit(OPTED_IN), None, "and so is the next one");
    assert_eq!(h.plugin_errors(), 0);
}

/// Same length, same timestamp tick: the case a `(mtime, len)` stamp gets
/// wrong. With one save between submissions the published file is a new
/// inode beside the held one; with two, the filesystem is free to hand
/// the held version's inode number out again (ext4 does, every time).
#[test]
fn equal_length_settings_saved_back_to_back_are_never_served_stale() {
    let mut h = head("tight");
    let model = h.stage("model-1.json", EFFICIENT);
    let on = Settings {
        state: PluginState::Active,
        database: "./db/1234".into(),
        loaded_model: Some(model.clone()),
        ..Settings::default()
    };
    let off = Settings {
        state: PluginState::Deactivated,
        database: "./db".into(),
        loaded_model: Some(model),
        ..Settings::default()
    };
    let pretty = |s: &Settings| serde_json::to_string_pretty(s).unwrap();
    assert_eq!(pretty(&on).len(), pretty(&off).len(), "the two files differ in content only");

    for saves_between in [1, 2] {
        h.cli.save_settings(&off).unwrap();
        assert_eq!(h.submit(&plain()), None);
        for round in 0..1000 {
            let (held, next) = if round % 2 == 0 { (&off, &on) } else { (&on, &off) };
            // the last save is the one that counts; any before it re-save
            // what the plugin already holds
            for _ in 1..saves_between {
                h.cli.save_settings(held).unwrap();
            }
            h.cli.save_settings(next).unwrap();
            let expected = (next.state == PluginState::Active).then_some(EFFICIENT);
            assert_eq!(h.submit(&plain()), expected, "round {round}, {saves_between} save(s) between submissions");
        }
    }
    assert_eq!(h.plugin_errors(), 0);
}

#[test]
fn a_model_restaged_at_the_same_path_changes_the_next_rewrite() {
    let mut h = head("restage");
    let settings = Settings { loaded_model: Some(h.stage("model-1.json", EFFICIENT)), ..Settings::default() };
    h.cli.save_settings(&settings).unwrap();
    assert_eq!(h.submit(OPTED_IN), Some(EFFICIENT));
    assert_eq!(h.submit(OPTED_IN), Some(EFFICIENT));

    // chronus load-model, same id: same path, same settings entry
    assert_eq!(h.stage("model-1.json", FRUGAL), settings.loaded_model.clone().unwrap());
    h.cli.save_settings(&settings).unwrap();
    assert_eq!(h.submit(OPTED_IN), Some(FRUGAL), "the held answer went with the file it was derived from");
    assert_eq!(h.plugin_errors(), 0);
}

#[test]
fn a_deleted_model_file_is_the_error_path_not_a_stale_answer() {
    let mut h = head("deleted");
    let model = h.stage("model-1.json", EFFICIENT);
    h.cli.save_settings(&Settings { loaded_model: Some(model.clone()), ..Settings::default() }).unwrap();
    assert_eq!(h.submit(OPTED_IN), Some(EFFICIENT));

    std::fs::remove_file(Path::new(&model.local_path)).unwrap();
    assert_eq!(h.submit(OPTED_IN), None, "no model, no rewrite: the job runs as submitted");
    assert_eq!(h.plugin_errors(), 1);
    assert_eq!(h.submit(OPTED_IN), None, "the failure is not held either");
    assert_eq!(h.plugin_errors(), 2);

    h.stage("model-1.json", EFFICIENT);
    assert_eq!(h.submit(OPTED_IN), Some(EFFICIENT), "restored");
}

#[test]
fn a_missing_settings_file_reads_as_defaults_until_the_first_save() {
    let mut h = head("first-save");
    assert!(!h.cli.settings_path().exists());
    assert_eq!(h.submit(&plain()), None, "defaults: user state, opt-in only");
    assert_eq!(h.plugin_errors(), 0, "skipped, not failed");
    assert_eq!(h.submit(OPTED_IN), None, "defaults: nothing staged");
    assert_eq!(h.plugin_errors(), 1);

    let first = Settings {
        state: PluginState::Active,
        loaded_model: Some(h.stage("model-1.json", EFFICIENT)),
        ..Settings::default()
    };
    h.cli.save_settings(&first).unwrap();
    assert_eq!(h.submit(&plain()), Some(EFFICIENT), "the first save is seen like any other");
}
