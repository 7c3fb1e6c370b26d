//! The one fit routine every model-producing path shares.
//!
//! A model is always built the same way — validate the training rows,
//! fit the named optimizer, pick the best configuration among the
//! candidates — whether the rows came from an offline benchmark
//! campaign (the PR 4 pipeline) or from the adaptation loop folding
//! production outcomes into a live generation's blob. Keeping the
//! routine here means the two paths cannot drift: an adaptation re-fit
//! is exactly a campaign fit over a different training set.

use chronus::domain::Benchmark;
use chronus::{FitReport, ModelFactory};
use eco_sim_node::cpu::CpuConfig;

/// A fitted model, reduced to what the serving path needs: the winning
/// configuration and the fit's calibration numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedModel {
    /// The most energy-efficient configuration among the candidates.
    pub best: CpuConfig,
    /// Rows used and training R².
    pub report: FitReport,
    /// Best observed GFLOPS/W across the training rows — the headline
    /// calibration number recorded in store provenance.
    pub best_gflops_per_watt: f64,
}

/// Fits a fresh optimizer of `model_type` on `benchmarks` (its fit
/// validates them) and answers the best configuration among
/// `candidates`. Errors exactly where the offline pipeline errors:
/// unknown model types, empty/degenerate training sets, or an empty
/// candidate list.
pub fn fit_best_config(
    model_type: &str,
    benchmarks: &[Benchmark],
    candidates: &[CpuConfig],
) -> chronus::Result<FittedModel> {
    let (report, best) = ModelFactory::create(model_type)?.fit_best(benchmarks, candidates)?;
    Ok(FittedModel { best, report, best_gflops_per_watt: chronus::domain::best_gflops_per_watt(benchmarks) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(id: i64, config: CpuConfig, gflops: f64, watts: f64) -> Benchmark {
        Benchmark {
            id,
            system_id: 1,
            binary_hash: 7,
            config,
            gflops,
            runtime_s: 60.0,
            avg_system_w: watts,
            avg_cpu_w: watts * 0.6,
            avg_cpu_temp_c: 55.0,
            system_energy_j: watts * 60.0,
            cpu_energy_j: watts * 36.0,
            sample_count: 30,
        }
    }

    #[test]
    fn fit_picks_the_most_efficient_candidate() {
        let low = CpuConfig::new(32, 1_500_000, 1);
        let high = CpuConfig::new(32, 2_500_000, 1);
        let rows = vec![bench(1, low, 24.0, 150.0), bench(2, high, 30.0, 260.0)];
        let fitted = fit_best_config("brute-force", &rows, &[low, high]).unwrap();
        assert_eq!(fitted.best, low, "0.16 GFLOPS/W beats 0.115");
        assert_eq!(fitted.report.train_rows, 2);
        assert!((fitted.best_gflops_per_watt - 0.16).abs() < 1e-12);
    }

    #[test]
    fn degenerate_training_sets_error_like_the_offline_pipeline() {
        let c = CpuConfig::new(32, 2_200_000, 1);
        assert!(fit_best_config("brute-force", &[], &[c]).is_err(), "empty set");
        let rows = vec![bench(1, c, 30.0, 200.0), bench(2, c, 31.0, 201.0)];
        assert!(fit_best_config("brute-force", &rows, &[c]).is_err(), "single-config surface");
    }

    #[test]
    fn unknown_model_type_is_a_typed_error() {
        let low = CpuConfig::new(32, 1_500_000, 1);
        let high = CpuConfig::new(32, 2_500_000, 1);
        let rows = vec![bench(1, low, 24.0, 150.0), bench(2, high, 30.0, 260.0)];
        assert!(fit_best_config("no-such-optimizer", &rows, &[low, high]).is_err());
    }
}
