//! Chronus domain entities — the innermost ring of the paper's Clean
//! Architecture (Figure 11). Pure data, no integration dependencies.

use eco_sim_node::cpu::CpuConfig;
use eco_sim_node::sysinfo::SystemFacts;
use serde::{Deserialize, Serialize};

/// A registered system (the paper's `SystemInfo` entity plus its identity
/// hash).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemEntry {
    /// Repository id (`-1` until saved, mirroring the CLI's default).
    pub id: i64,
    /// The facts `lscpu` gathered.
    pub facts: SystemFacts,
    /// The plugin's system hash (§4.2.1).
    pub system_hash: u64,
}

/// One energy sample taken during a benchmark (§3.1.2 step 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergySample {
    /// Seconds since the benchmark job started.
    pub t_s: f64,
    /// System power from the `Total_Power` sensor (W).
    pub system_w: f64,
    /// CPU package power (W).
    pub cpu_w: f64,
    /// CPU temperature (°C).
    pub cpu_temp_c: f64,
}

/// Mean of `f` over a benchmark's samples; 0 when there are none.
pub fn mean(samples: &[EnergySample], f: impl Fn(&EnergySample) -> f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(f).sum::<f64>() / samples.len() as f64
}

/// Trapezoidal integral of `f` over the samples' timestamps — a power
/// reading in W integrates to joules.
pub fn trapezoid(samples: &[EnergySample], f: impl Fn(&EnergySample) -> f64) -> f64 {
    samples.windows(2).map(|w| (w[1].t_s - w[0].t_s) * (f(&w[0]) + f(&w[1])) / 2.0).sum()
}

/// A completed benchmark of one configuration (§3.1.2 step 3: "saves the
/// energy usage and the results of the job to a benchmark in a database").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Benchmark {
    /// Repository id (`-1` until saved).
    pub id: i64,
    /// The system the benchmark ran on.
    pub system_id: i64,
    /// Hash of the benchmarked executable.
    pub binary_hash: u64,
    /// The configuration benchmarked.
    pub config: CpuConfig,
    /// Achieved GFLOP/s as the application reported it.
    pub gflops: f64,
    /// Wall runtime in seconds.
    pub runtime_s: f64,
    /// Average system power over the run (W).
    pub avg_system_w: f64,
    /// Average CPU power over the run (W).
    pub avg_cpu_w: f64,
    /// Average CPU temperature over the run (°C).
    pub avg_cpu_temp_c: f64,
    /// Integrated system energy (J).
    pub system_energy_j: f64,
    /// Integrated CPU energy (J).
    pub cpu_energy_j: f64,
    /// Number of IPMI samples the energy integral used.
    pub sample_count: usize,
}

impl Benchmark {
    /// The paper's headline metric: GFLOP/s per watt of average system
    /// power.
    pub fn gflops_per_watt(&self) -> f64 {
        if self.avg_system_w <= 0.0 {
            return 0.0;
        }
        self.gflops / self.avg_system_w
    }
}

/// Metadata for a trained model (§3.1.2 "Model building" step 3: "path in
/// blob storage, time on creation, etc.").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMetadata {
    /// Repository id (`-1` until saved).
    pub id: i64,
    /// The optimizer type string (the paper's `Model.type`):
    /// `brute-force`, `linear-regression` or `random-tree`.
    pub model_type: String,
    /// The system the model was trained for.
    pub system_id: i64,
    /// Hash of the executable the model predicts for.
    pub binary_hash: u64,
    /// Path of the serialized optimizer in blob storage.
    pub blob_path: String,
    /// Creation time (simulated milliseconds since epoch).
    pub created_at_ms: u64,
    /// Rows the model was fitted on.
    pub train_rows: usize,
    /// Fit quality (R² on the training data; 1.0 for brute force).
    pub fit_r2: f64,
}

/// Plugin activation state (the `chronus set state` command): `active`
/// applies to every job, `user` only to jobs that opt in with
/// `--comment "chronus"`, `deactivated` never.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "lowercase")]
pub enum PluginState {
    /// Rewrite every submitted job.
    Active,
    /// Rewrite only jobs that opt in via comment (the paper's default).
    #[default]
    User,
    /// Never rewrite.
    Deactivated,
}

/// A model staged on the head node's local disk for fast prediction
/// (§3.1.2 "Pre-load model").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadedModel {
    /// The repository id of the model.
    pub model_id: i64,
    /// The optimizer type string.
    pub model_type: String,
    /// Where on local disk the serialized optimizer sits
    /// (`/opt/chronus/optimizer` in the paper).
    pub local_path: String,
    /// The system hash the model belongs to.
    pub system_hash: u64,
    /// The binary hash the model predicts for.
    pub binary_hash: u64,
    /// The system's facts, kept local so prediction can enumerate the
    /// candidate configurations without a database round trip (the whole
    /// point of pre-loading, §3.1.2).
    pub facts: SystemFacts,
    /// Local path of the staged benchmark rows (JSON), used by the
    /// deadline-aware extension (§6.2.1) to bound runtimes at submit time.
    #[serde(default)]
    pub benchmarks_path: Option<String>,
}

/// The paper's IPMI sampling cadence: one reading every 2 seconds.
pub const DEFAULT_SAMPLE_INTERVAL_MS: u64 = 2000;

/// The benchmark sampler's IPMI polling interval, in milliseconds.
/// A newtype so settings files written before the field existed
/// deserialize to the paper's 2 s default rather than to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleIntervalMs(pub u64);

impl Default for SampleIntervalMs {
    fn default() -> Self {
        SampleIntervalMs(DEFAULT_SAMPLE_INTERVAL_MS)
    }
}

impl SampleIntervalMs {
    /// Validates a user-supplied interval: zero and negative values are
    /// rejected (a sampler that never ticks would hang the benchmark
    /// loop; the integral needs time to pass between readings).
    pub fn try_from_millis(ms: i64) -> Result<Self, String> {
        if ms <= 0 {
            return Err(format!("sample interval must be a positive number of milliseconds, got {ms}"));
        }
        Ok(SampleIntervalMs(ms as u64))
    }

    /// The interval in milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// The interval as a simulated duration.
    pub fn as_duration(self) -> eco_sim_node::clock::SimDuration {
        eco_sim_node::clock::SimDuration::from_millis(self.0)
    }
}

/// Chronus settings (`/etc/chronus/settings.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Settings {
    /// Path of the repository database.
    pub database: String,
    /// Path of the blob storage root.
    pub blob_storage: String,
    /// Plugin activation state.
    pub state: PluginState,
    /// The model currently pre-loaded for the plugin, if any.
    pub loaded_model: Option<LoadedModel>,
    /// IPMI sampling interval for benchmark runs
    /// (`chronus set sample-interval`; the paper samples every 2 s).
    #[serde(default)]
    pub sample_interval: SampleIntervalMs,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            database: "./database/data.db".to_string(),
            blob_storage: "./optimizers".to_string(),
            state: PluginState::User,
            loaded_model: None,
            sample_interval: SampleIntervalMs::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_and_mean_helpers() {
        let samples = vec![
            EnergySample { t_s: 0.0, system_w: 100.0, cpu_w: 50.0, cpu_temp_c: 40.0 },
            EnergySample { t_s: 2.0, system_w: 200.0, cpu_w: 100.0, cpu_temp_c: 60.0 },
        ];
        assert_eq!(trapezoid(&samples, |s| s.system_w), 300.0);
        assert_eq!(mean(&samples, |s| s.cpu_temp_c), 50.0);
        assert_eq!(mean(&[], |s: &EnergySample| s.cpu_w), 0.0);
    }

    fn bench(gflops: f64, watts: f64) -> Benchmark {
        Benchmark {
            id: -1,
            system_id: 1,
            binary_hash: 42,
            config: CpuConfig::new(32, 2_200_000, 1),
            gflops,
            runtime_s: 1100.0,
            avg_system_w: watts,
            avg_cpu_w: watts / 2.0,
            avg_cpu_temp_c: 55.0,
            system_energy_j: watts * 1100.0,
            cpu_energy_j: watts * 550.0,
            sample_count: 550,
        }
    }

    #[test]
    fn gflops_per_watt_math() {
        assert!((bench(9.26, 190.0).gflops_per_watt() - 0.048736).abs() < 1e-5);
        assert_eq!(bench(5.0, 0.0).gflops_per_watt(), 0.0, "degenerate power guards");
    }

    #[test]
    fn plugin_state_serde_lowercase() {
        assert_eq!(serde_json::to_string(&PluginState::Active).unwrap(), "\"active\"");
        assert_eq!(serde_json::from_str::<PluginState>("\"deactivated\"").unwrap(), PluginState::Deactivated);
    }

    #[test]
    fn default_settings_match_paper_paths() {
        let s = Settings::default();
        assert_eq!(s.database, "./database/data.db"); // paper Figure 1 log
        assert_eq!(s.blob_storage, "./optimizers"); // paper §3.2 File Repository
        assert_eq!(s.state, PluginState::User); // "by default it will not change any settings"
        assert!(s.loaded_model.is_none());
        assert_eq!(s.sample_interval.as_millis(), 2000); // the paper samples every 2 s
    }

    #[test]
    fn sample_interval_validates_and_converts() {
        assert!(SampleIntervalMs::try_from_millis(0).is_err());
        assert!(SampleIntervalMs::try_from_millis(-5).is_err());
        let i = SampleIntervalMs::try_from_millis(500).unwrap();
        assert_eq!(i.as_millis(), 500);
        assert_eq!(i.as_duration().as_millis(), 500);
    }

    #[test]
    fn settings_without_sample_interval_field_default_to_two_seconds() {
        // a settings file written before the field existed
        let legacy = r#"{"database":"db","blob_storage":"blobs","state":"user","loaded_model":null}"#;
        let s: Settings = serde_json::from_str(legacy).unwrap();
        assert_eq!(s.sample_interval, SampleIntervalMs(2000));
        // and the field round-trips as a bare number
        let json = serde_json::to_string(&Settings { sample_interval: SampleIntervalMs(750), ..Settings::default() })
            .unwrap();
        assert!(json.contains("\"sample_interval\":750"), "{json}");
        assert_eq!(serde_json::from_str::<Settings>(&json).unwrap().sample_interval, SampleIntervalMs(750));
    }

    #[test]
    fn settings_json_roundtrip() {
        let s = Settings {
            loaded_model: Some(LoadedModel {
                model_id: 3,
                model_type: "linear-regression".into(),
                local_path: "/opt/chronus/optimizer".into(),
                system_hash: 7,
                binary_hash: 9,
                facts: SystemFacts {
                    cpu_name: "AMD EPYC 7502P 32-Core Processor".into(),
                    cores: 32,
                    threads_per_core: 2,
                    frequencies_khz: vec![1_500_000, 2_200_000, 2_500_000],
                    ram_gb: 256,
                },
                benchmarks_path: None,
            }),
            ..Settings::default()
        };
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Settings = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn benchmark_serde_roundtrip() {
        let b = bench(9.0, 200.0);
        let json = serde_json::to_string(&b).unwrap();
        // the config uses the paper's JSON field name "frequency"
        assert!(json.contains("\"frequency\":2200000"), "{json}");
        let back: Benchmark = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
