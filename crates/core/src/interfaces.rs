//! Integration interfaces — the ports of the paper's Clean Architecture
//! (Figure 5 / §3.2). The application layer depends only on these traits;
//! concrete backends live in [`crate::integrations`], exactly mirroring
//! the Dependency Inversion structure of the paper's Listing 1.

use crate::domain::{Benchmark, EnergySample, ModelMetadata, Settings, SystemEntry};
use crate::error::Result;
use eco_sim_node::cpu::CpuConfig;
use eco_sim_node::sysinfo::SystemFacts;
use eco_slurm_sim::{Cluster, JobId, JobRecord};
use std::path::PathBuf;

/// **Repository** — "a bridge for remote storage … managing data in the
/// Chronus system". Implementations: CSV files, the embedded record store
/// (the SQLite stand-in).
pub trait Repository {
    /// Persists a system entry; returns the assigned id. Saving the same
    /// system hash again returns the existing id.
    fn save_system(&mut self, entry: &SystemEntry) -> Result<i64>;

    /// All registered systems.
    fn systems(&self) -> Result<Vec<SystemEntry>>;

    /// Looks a system up by its identity hash.
    fn system_by_hash(&self, hash: u64) -> Result<Option<SystemEntry>> {
        Ok(self.systems()?.into_iter().find(|s| s.system_hash == hash))
    }

    /// Persists a benchmark; returns the assigned id.
    fn save_benchmark(&mut self, benchmark: &Benchmark) -> Result<i64>;

    /// Benchmarks of one application on one system.
    fn benchmarks(&self, system_id: i64, binary_hash: u64) -> Result<Vec<Benchmark>>;

    /// Every stored benchmark.
    fn all_benchmarks(&self) -> Result<Vec<Benchmark>>;

    /// Persists model metadata; returns the assigned id.
    fn save_model(&mut self, meta: &ModelMetadata) -> Result<i64>;

    /// All model metadata entries.
    fn models(&self) -> Result<Vec<ModelMetadata>>;

    /// One model's metadata.
    fn model(&self, id: i64) -> Result<Option<ModelMetadata>>;
}

/// Outcome of fitting an optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// Rows used for fitting.
    pub train_rows: usize,
    /// R² of the fit on its training data (1.0 for brute force).
    pub r2: f64,
}

/// **Optimizer** — "fits different efficiency models that calculate the
/// optimal configuration for energy usage". Implementations: brute force,
/// linear regression, random forest ("random-tree").
pub trait Optimizer {
    /// The type string the CLI and the `ModelFactory` use.
    fn model_type(&self) -> &'static str;

    /// Fits the optimizer on benchmarks of one (system, application) pair.
    fn fit(&mut self, benchmarks: &[Benchmark]) -> Result<FitReport>;

    /// Predicted GFLOPS/W at a configuration.
    fn predict_gpw(&self, config: &CpuConfig) -> Result<f64>;

    /// The most energy-efficient configuration among the candidates,
    /// by predicted GFLOPS/W (ties break toward the earlier candidate).
    fn best_config(&self, candidates: &[CpuConfig]) -> Result<CpuConfig> {
        let mut best: Option<(CpuConfig, f64)> = None;
        for c in candidates {
            let gpw = self.predict_gpw(c)?;
            if best.as_ref().is_none_or(|&(_, b)| gpw > b) {
                best = Some((*c, gpw));
            }
        }
        best.map(|(c, _)| c).ok_or_else(|| crate::error::ChronusError::Model("no candidates".into()))
    }

    /// [`Self::fit`], then [`Self::best_config`] over `candidates`: the
    /// fit's report and the winner, or the first error of the two.
    fn fit_best(&mut self, benchmarks: &[Benchmark], candidates: &[CpuConfig]) -> Result<(FitReport, CpuConfig)> {
        let report = self.fit(benchmarks)?;
        Ok((report, self.best_config(candidates)?))
    }

    /// Serializes the fitted state for blob storage.
    fn to_bytes(&self) -> Result<Vec<u8>>;
}

/// **Application Runner** — "designed to run applications for benchmarking
/// the HPC system". The HPCG implementation submits an sbatch job per
/// configuration (paper Listing 5/6).
pub trait ApplicationRunner {
    /// The application's name (e.g. `"hpcg"`).
    fn name(&self) -> &str;

    /// Filesystem path of the executable inside the cluster.
    fn binary_path(&self) -> &str;

    /// The binary hash identifying the application (§4.2.1).
    fn binary_hash(&self) -> u64;

    /// Submits one benchmark job at the given configuration; returns the
    /// job id to watch.
    fn submit(&self, cluster: &mut Cluster, config: &CpuConfig) -> Result<JobId>;

    /// Extracts the achieved GFLOP/s from a finished job's accounting
    /// record (the application's own performance report).
    fn gflops_from_record(&self, record: &JobRecord) -> f64;
}

/// **System Service** — "the monitoring service … used for data sampling
/// while running benchmarks". Implementation: IPMI via the BMC.
pub trait SystemService {
    /// Takes one telemetry sample of the monitored node.
    fn sample(&mut self, cluster: &Cluster) -> EnergySample;
}

/// **System Info** — "gathers system information such as the number of
/// cores, threads, frequencies and RAM. This is what identifies the
/// system." Implementation: `lscpu`.
pub trait SystemInfoProvider {
    /// Gathers the facts of the monitored node.
    fn facts(&self, cluster: &Cluster) -> SystemFacts;

    /// The identity hash of the monitored node (§4.2.1).
    fn system_hash(&self, cluster: &Cluster) -> u64;
}

/// **Local Storage** — "managing local settings storage … saving and
/// retrieving of settings and conversion of relative paths into full file
/// paths". Implementation: etc-storage.
pub trait LocalStorage {
    /// Reads the settings file (defaults if absent).
    fn load_settings(&self) -> Result<Settings>;

    /// Writes the settings file.
    fn save_settings(&self, settings: &Settings) -> Result<()>;

    /// Converts a possibly-relative path into a full path.
    fn resolve(&self, path: &str) -> PathBuf;
}

/// **File Repository** — "storing optimizers in Chronus, providing a
/// consistent API for managing optimizers". Implementation: a local
/// directory (could equally be NFS or an S3 bucket, per the paper).
pub trait FileRepository {
    /// Stores a blob at a repository-relative path.
    fn put(&mut self, path: &str, bytes: &[u8]) -> Result<()>;

    /// Fetches a blob.
    fn get(&self, path: &str) -> Result<Vec<u8>>;

    /// Whether a blob exists.
    fn exists(&self, path: &str) -> bool;

    /// Lists stored blob paths.
    fn list(&self) -> Result<Vec<String>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ChronusError;

    /// A stub optimizer that scores configurations by core count.
    struct CoresAreBest;
    impl Optimizer for CoresAreBest {
        fn model_type(&self) -> &'static str {
            "stub"
        }
        fn fit(&mut self, _b: &[Benchmark]) -> Result<FitReport> {
            Ok(FitReport { train_rows: 0, r2: 1.0 })
        }
        fn predict_gpw(&self, config: &CpuConfig) -> Result<f64> {
            Ok(config.cores as f64)
        }
        fn to_bytes(&self) -> Result<Vec<u8>> {
            Ok(vec![])
        }
    }

    #[test]
    fn best_config_default_takes_argmax() {
        let opt = CoresAreBest;
        let candidates =
            vec![CpuConfig::new(4, 1_500_000, 1), CpuConfig::new(32, 2_200_000, 1), CpuConfig::new(16, 2_500_000, 2)];
        let best = opt.best_config(&candidates).unwrap();
        assert_eq!(best.cores, 32);
    }

    #[test]
    fn best_config_empty_candidates_errors() {
        let opt = CoresAreBest;
        assert!(matches!(opt.best_config(&[]), Err(ChronusError::Model(_))));
    }

    #[test]
    fn best_config_tie_breaks_to_first() {
        let opt = CoresAreBest;
        let a = CpuConfig::new(8, 1_500_000, 1);
        let b = CpuConfig::new(8, 2_500_000, 2);
        assert_eq!(opt.best_config(&[a, b]).unwrap(), a);
    }
}
