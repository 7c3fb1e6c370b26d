//! The Optimizer implementations: brute force, linear regression and
//! random forest ("random-tree"), matching the paper's
//! `--model [brute-force|linear-regression|random-tree]` CLI options.
//!
//! All three map a [`CpuConfig`] feature vector `(cores, GHz, HT)` to
//! predicted GFLOPS/W and pick the argmax over candidate configurations.
//! [`ModelFactory`] is the paper's Listing 2 type-string dispatch.

use crate::domain::Benchmark;
use crate::error::{ChronusError, Result};
use crate::interfaces::{FitReport, Optimizer};
use eco_ml::{Dataset, Degree, ForestParams, LinearRegression, RandomForest, TreeParams};
use eco_sim_node::cpu::CpuConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Model-type string for brute force.
pub const BRUTE_FORCE: &str = "brute-force";
/// Model-type string for linear regression.
pub const LINEAR_REGRESSION: &str = "linear-regression";
/// Model-type string for the random forest (the paper's CLI calls it
/// `random-tree`).
pub const RANDOM_TREE: &str = "random-tree";

fn features(config: &CpuConfig) -> Vec<f64> {
    vec![config.cores as f64, config.ghz(), if config.hyper_threading() { 1.0 } else { 0.0 }]
}

/// Rejects training sets no optimizer can learn from. Without this gate
/// a degenerate sweep either panics downstream (zero rows) or fits a
/// flat surface whose argmax silently picks an arbitrary configuration.
pub fn validate_training_set(benchmarks: &[Benchmark]) -> Result<()> {
    if benchmarks.is_empty() {
        return Err(ChronusError::DegenerateData("cannot fit on zero benchmarks".into()));
    }
    let mut configs: Vec<CpuConfig> = benchmarks.iter().map(|b| b.config).collect();
    configs.sort_by_key(|c| (c.cores, c.frequency_khz, c.threads_per_core));
    configs.dedup();
    if configs.len() < 2 {
        return Err(ChronusError::DegenerateData(format!(
            "all {} benchmark(s) measure the single configuration {}; a sweep needs at least two distinct configurations",
            benchmarks.len(),
            configs[0],
        )));
    }
    let targets: Vec<f64> = benchmarks.iter().map(Benchmark::gflops_per_watt).collect();
    let (lo, hi) = targets.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    if !lo.is_finite() || !hi.is_finite() {
        return Err(ChronusError::DegenerateData("non-finite GFLOPS/W target in the training set".into()));
    }
    if (hi - lo).abs() <= 1e-12 * hi.abs().max(1.0) {
        return Err(ChronusError::DegenerateData(format!(
            "constant GFLOPS/W surface ({hi:.6} everywhere); every configuration ties and the argmax would be arbitrary"
        )));
    }
    Ok(())
}

fn dataset(benchmarks: &[Benchmark]) -> Result<Dataset> {
    validate_training_set(benchmarks)?;
    let rows: Vec<Vec<f64>> = benchmarks.iter().map(|b| features(&b.config)).collect();
    let targets: Vec<f64> = benchmarks.iter().map(Benchmark::gflops_per_watt).collect();
    Dataset::new(rows, targets)
        .map(|d| d.with_names(&["cores", "ghz", "ht"]))
        .map_err(|e| ChronusError::Model(e.to_string()))
}

fn training_r2(predict: impl Fn(&[f64]) -> f64, data: &Dataset) -> f64 {
    let preds: Vec<f64> = data.features().iter().map(|r| predict(r)).collect();
    eco_ml::r2(&preds, data.targets())
}

// ---------------------------------------------------------------- brute force

/// Brute force: remembers every measured configuration and answers
/// queries by nearest measured neighbour. Its "best configuration" is the
/// literal argmax of the measurements.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BruteForceOptimizer {
    table: Vec<(CpuConfig, f64)>,
}

impl BruteForceOptimizer {
    /// An unfitted optimizer.
    pub fn new() -> Self {
        Self::default()
    }

    fn distance(a: &CpuConfig, b: &CpuConfig) -> f64 {
        // normalised by the sweep's scales: 32 cores, 1 GHz span, HT flag
        let dc = (a.cores as f64 - b.cores as f64) / 32.0;
        let df = a.ghz() - b.ghz();
        let dh = (a.hyper_threading() as u8 as f64) - (b.hyper_threading() as u8 as f64);
        dc * dc + df * df + 0.25 * dh * dh
    }
}

impl Optimizer for BruteForceOptimizer {
    fn model_type(&self) -> &'static str {
        BRUTE_FORCE
    }

    fn fit(&mut self, benchmarks: &[Benchmark]) -> Result<FitReport> {
        validate_training_set(benchmarks)?;
        self.table = benchmarks.iter().map(|b| (b.config, b.gflops_per_watt())).collect();
        Ok(FitReport { train_rows: self.table.len(), r2: 1.0 })
    }

    fn predict_gpw(&self, config: &CpuConfig) -> Result<f64> {
        self.table
            .iter()
            .min_by(|a, b| {
                Self::distance(&a.0, config).partial_cmp(&Self::distance(&b.0, config)).expect("distances are finite")
            })
            .map(|&(_, gpw)| gpw)
            .ok_or_else(|| ChronusError::Model("brute-force optimizer is not fitted".into()))
    }

    /// Brute force answers with the best *measured* configuration: the
    /// candidate list only filters (an off-grid candidate can never win a
    /// measurement it never had).
    fn best_config(&self, candidates: &[CpuConfig]) -> Result<CpuConfig> {
        if self.table.is_empty() {
            return Err(ChronusError::Model("brute-force optimizer is not fitted".into()));
        }
        let measured_in_candidates = self
            .table
            .iter()
            .filter(|(c, _)| candidates.contains(c))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite gpw"));
        match measured_in_candidates {
            Some(&(c, _)) => Ok(c),
            // none of the candidates were measured: fall back to the
            // overall measured best
            None => Ok(self
                .table
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite gpw"))
                .expect("non-empty table")
                .0),
        }
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        Ok(serde_json::to_vec(self)?)
    }
}

// ---------------------------------------------------- linear regression

/// Quadratic-feature ridge regression over (cores, GHz, HT).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinearRegressionOptimizer {
    model: Option<LinearRegression>,
}

impl LinearRegressionOptimizer {
    /// An unfitted optimizer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Optimizer for LinearRegressionOptimizer {
    fn model_type(&self) -> &'static str {
        LINEAR_REGRESSION
    }

    fn fit(&mut self, benchmarks: &[Benchmark]) -> Result<FitReport> {
        let data = dataset(benchmarks)?;
        let model =
            LinearRegression::fit(&data, Degree::Quadratic, 1e-6).map_err(|e| ChronusError::Model(e.to_string()))?;
        let r2 = training_r2(|row| model.predict(row).unwrap_or(f64::NAN), &data);
        self.model = Some(model);
        Ok(FitReport { train_rows: data.len(), r2 })
    }

    fn predict_gpw(&self, config: &CpuConfig) -> Result<f64> {
        let model =
            self.model.as_ref().ok_or_else(|| ChronusError::Model("linear regression is not fitted".into()))?;
        model.predict(&features(config)).map_err(|e| ChronusError::Model(e.to_string()))
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        Ok(serde_json::to_vec(self)?)
    }
}

// ------------------------------------------------------- random forest

/// Bagged regression trees over (cores, GHz, HT) — the paper's
/// `RandomForestRegressor` integration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomTreeOptimizer {
    params: ForestParams,
    model: Option<RandomForest>,
}

impl Default for RandomTreeOptimizer {
    fn default() -> Self {
        RandomTreeOptimizer {
            params: ForestParams {
                n_trees: 96,
                tree: TreeParams { max_depth: 10, min_leaf: 1, max_features: Some(2) },
                seed: 0xec0,
            },
            model: None,
        }
    }
}

impl RandomTreeOptimizer {
    /// An unfitted optimizer with default hyperparameters.
    pub fn new() -> Self {
        Self::default()
    }

    fn forest(&self) -> Result<&RandomForest> {
        self.model.as_ref().ok_or_else(|| ChronusError::Model("random forest is not fitted".into()))
    }

    /// Fits the forest; returns the report and the training rows'
    /// predictions (`predict_batch`'s, bit for bit).
    fn fit_rows(&mut self, benchmarks: &[Benchmark]) -> Result<(FitReport, Vec<f64>)> {
        let data = dataset(benchmarks)?;
        let (model, predictions) = RandomForest::fit_predict(&data, &self.params);
        let r2 = eco_ml::r2(&predictions, data.targets());
        self.model = Some(model);
        Ok((FitReport { train_rows: data.len(), r2 }, predictions))
    }
}

/// The trait's argmax over scored candidates: the first strict maximum.
fn argmax(candidates: &[CpuConfig], gpw: &[f64]) -> Result<CpuConfig> {
    if candidates.is_empty() {
        return Err(ChronusError::Model("no candidates".into()));
    }
    Ok(candidates[(1..gpw.len()).fold(0, |best, i| if gpw[i] > gpw[best] { i } else { best })])
}

impl Optimizer for RandomTreeOptimizer {
    fn model_type(&self) -> &'static str {
        RANDOM_TREE
    }

    fn fit(&mut self, benchmarks: &[Benchmark]) -> Result<FitReport> {
        Ok(self.fit_rows(benchmarks)?.0)
    }

    fn predict_gpw(&self, config: &CpuConfig) -> Result<f64> {
        Ok(self.forest()?.predict(&features(config)))
    }

    /// The trait's argmax (first strict maximum, same errors), scored
    /// tree by tree.
    fn best_config(&self, candidates: &[CpuConfig]) -> Result<CpuConfig> {
        if candidates.is_empty() {
            return Err(ChronusError::Model("no candidates".into()));
        }
        let rows: Vec<Vec<f64>> = candidates.iter().map(features).collect();
        argmax(candidates, &self.forest()?.predict_batch(&rows))
    }

    /// `fit` then `best_config`, bit for bit: a candidate that is a
    /// training row's configuration takes that row's prediction from the
    /// fit's own scoring pass, and only the others are walked.
    fn fit_best(&mut self, benchmarks: &[Benchmark], candidates: &[CpuConfig]) -> Result<(FitReport, CpuConfig)> {
        let (report, predictions) = self.fit_rows(benchmarks)?;
        let trained: HashMap<CpuConfig, f64> = benchmarks.iter().map(|b| b.config).zip(predictions).collect();
        let off_grid: Vec<Vec<f64>> = candidates.iter().filter(|c| !trained.contains_key(c)).map(features).collect();
        let mut walked = self.forest()?.predict_batch(&off_grid).into_iter();
        let gpw: Vec<f64> = (candidates.iter())
            .map(|c| {
                trained.get(c).copied().unwrap_or_else(|| walked.next().expect("one walk per off-grid candidate"))
            })
            .collect();
        Ok((report, argmax(candidates, &gpw)?))
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        Ok(serde_json::to_vec(self)?)
    }
}

// ------------------------------------------------------------- factory

/// Pseudo model-type: cross-validates the three families and picks the
/// best (an extension beyond the paper's fixed `--model` choice).
pub const AUTO: &str = "auto";

/// Selects the best optimizer family for a benchmark set by k-fold
/// cross-validated R² (ties break toward the cheaper family in listing
/// order). A family that cannot fit some training fold is not eligible;
/// when none is, the error names the first refused fold. Used by
/// `init-model --model auto`.
pub fn select_model_type(benchmarks: &[Benchmark], folds: usize, seed: u64) -> Result<(&'static str, f64)> {
    if benchmarks.len() < folds {
        return Err(ChronusError::Model(format!(
            "auto selection needs at least {folds} benchmarks, have {}",
            benchmarks.len()
        )));
    }
    let data = dataset(benchmarks)?;
    let mut best: Option<(&'static str, f64)> = None;
    let mut refused = None;
    for model_type in ModelFactory::model_types() {
        let (mut fold, mut fits_every_fold) = (0, true);
        let score = eco_ml::cross_val_r2(&data, folds, seed, |train| {
            // rebuild a Benchmark view of the fold to reuse Optimizer::fit
            let rows: Vec<Benchmark> =
                train.features().iter().zip(train.targets()).map(|(f, &gpw)| synth_benchmark(f, gpw)).collect();
            let mut opt = ModelFactory::create(model_type).expect("known type");
            fold += 1;
            if let Err(e) = opt.fit(&rows) {
                fits_every_fold = false;
                refused
                    .get_or_insert_with(|| format!("{model_type} cannot fit training fold {fold} of {folds}: {e}"));
            }
            move |row: &[f64]| {
                let config = CpuConfig::new(
                    row[0].round() as u32,
                    (row[1] * 1_000_000.0).round() as u64,
                    if row[2] > 0.5 { 2 } else { 1 },
                );
                opt.predict_gpw(&config).unwrap_or(f64::NAN)
            }
        });
        if fits_every_fold && best.is_none_or(|(_, b)| score > b) {
            best = Some((model_type, score));
        }
    }
    let refused = refused.unwrap_or_default();
    best.ok_or_else(|| ChronusError::DegenerateData(format!("no model family fits every fold: {refused}")))
}

/// Reconstructs a minimal benchmark row from a feature vector + target
/// (only the fields `Optimizer::fit` consumes are meaningful).
fn synth_benchmark(features: &[f64], gpw: f64) -> Benchmark {
    let watts = 200.0;
    Benchmark {
        id: -1,
        system_id: 0,
        binary_hash: 0,
        config: CpuConfig::new(
            features[0].round() as u32,
            (features[1] * 1_000_000.0).round() as u64,
            if features[2] > 0.5 { 2 } else { 1 },
        ),
        gflops: gpw * watts,
        runtime_s: 1.0,
        avg_system_w: watts,
        avg_cpu_w: watts / 2.0,
        avg_cpu_temp_c: 50.0,
        system_energy_j: watts,
        cpu_energy_j: watts / 2.0,
        sample_count: 1,
    }
}

/// The paper's Listing 2 `ModelFactory`: maps the model-type string to an
/// optimizer instance.
pub struct ModelFactory;

impl ModelFactory {
    /// A fresh (unfitted) optimizer of the given type.
    pub fn create(model_type: &str) -> Result<Box<dyn Optimizer + Send>> {
        match model_type {
            BRUTE_FORCE => Ok(Box::new(BruteForceOptimizer::new())),
            LINEAR_REGRESSION => Ok(Box::new(LinearRegressionOptimizer::new())),
            RANDOM_TREE => Ok(Box::new(RandomTreeOptimizer::new())),
            other => Err(ChronusError::InvalidInput(format!("unknown optimizer type '{other}'"))),
        }
    }

    /// Deserializes a fitted optimizer previously written by
    /// [`Optimizer::to_bytes`].
    pub fn from_bytes(model_type: &str, bytes: &[u8]) -> Result<Box<dyn Optimizer + Send>> {
        match model_type {
            BRUTE_FORCE => Ok(Box::new(serde_json::from_slice::<BruteForceOptimizer>(bytes)?)),
            LINEAR_REGRESSION => Ok(Box::new(serde_json::from_slice::<LinearRegressionOptimizer>(bytes)?)),
            RANDOM_TREE => Ok(Box::new(serde_json::from_slice::<RandomTreeOptimizer>(bytes)?)),
            other => Err(ChronusError::InvalidInput(format!("unknown optimizer type '{other}'"))),
        }
    }

    /// The valid model-type strings, as the CLI `--help` lists them.
    pub fn model_types() -> [&'static str; 3] {
        [BRUTE_FORCE, LINEAR_REGRESSION, RANDOM_TREE]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_hpcg::paper_data::GFLOPS_PER_WATT;
    use eco_sim_node::cpu::ghz_to_khz;

    /// Benchmarks built straight from the paper's sweep (power fields are
    /// synthesised so gflops/avg_system_w reproduces the paper's GFLOPS/W).
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

    fn candidates() -> Vec<CpuConfig> {
        paper_benchmarks().iter().map(|b| b.config).collect()
    }

    #[test]
    fn brute_force_picks_the_papers_best() {
        let mut opt = BruteForceOptimizer::new();
        let report = opt.fit(&paper_benchmarks()).unwrap();
        assert_eq!(report.train_rows, 138);
        assert_eq!(report.r2, 1.0);
        let best = opt.best_config(&candidates()).unwrap();
        assert_eq!(best, CpuConfig::new(32, 2_200_000, 1), "paper Table 1 row 1");
    }

    #[test]
    fn brute_force_nearest_neighbour_off_grid() {
        let mut opt = BruteForceOptimizer::new();
        opt.fit(&paper_benchmarks()).unwrap();
        // 31 cores was not swept: nearest is 32 at the same freq/ht
        let near = opt.predict_gpw(&CpuConfig::new(31, 2_200_000, 1)).unwrap();
        let exact = opt.predict_gpw(&CpuConfig::new(32, 2_200_000, 1)).unwrap();
        assert_eq!(near, exact);
    }

    #[test]
    fn linear_regression_fits_surface_reasonably() {
        let mut opt = LinearRegressionOptimizer::new();
        let report = opt.fit(&paper_benchmarks()).unwrap();
        assert!(report.r2 > 0.85, "r2 {}", report.r2);
        // quadratic surface puts the optimum at high cores
        let best = opt.best_config(&candidates()).unwrap();
        assert!(best.cores >= 28, "best {best}");
    }

    #[test]
    fn random_tree_fits_surface_well() {
        let mut opt = RandomTreeOptimizer::new();
        let report = opt.fit(&paper_benchmarks()).unwrap();
        assert!(report.r2 > 0.95, "r2 {}", report.r2);
        let best = opt.best_config(&candidates()).unwrap();
        // the forest's best must be a top-4 paper configuration
        let top: Vec<CpuConfig> = candidates().into_iter().take(4).collect();
        assert!(top.contains(&best), "best {best} not in paper top-4");
    }

    #[test]
    fn all_optimizers_prefer_32c22_over_standard() {
        // the headline claim must survive every model family
        for model_type in ModelFactory::model_types() {
            let mut opt = ModelFactory::create(model_type).unwrap();
            opt.fit(&paper_benchmarks()).unwrap();
            let best = opt.predict_gpw(&CpuConfig::new(32, 2_200_000, 1)).unwrap();
            let standard = opt.predict_gpw(&CpuConfig::new(32, 2_500_000, 1)).unwrap();
            assert!(best > standard, "{model_type}: {best} !> {standard}");
        }
    }

    #[test]
    fn unfitted_optimizers_error() {
        for model_type in ModelFactory::model_types() {
            let opt = ModelFactory::create(model_type).unwrap();
            let err = opt.predict_gpw(&CpuConfig::new(1, 1_500_000, 1));
            assert!(matches!(err, Err(ChronusError::Model(_))), "{model_type}");
        }
    }

    #[test]
    fn fit_on_empty_errors() {
        for model_type in ModelFactory::model_types() {
            let mut opt = ModelFactory::create(model_type).unwrap();
            assert!(matches!(opt.fit(&[]), Err(ChronusError::DegenerateData(_))), "{model_type}");
        }
    }

    #[test]
    fn fit_on_a_single_configuration_errors() {
        // three repeats of one configuration is still a single-point sweep
        let one = vec![paper_benchmarks().remove(0); 3];
        for model_type in ModelFactory::model_types() {
            let mut opt = ModelFactory::create(model_type).unwrap();
            match opt.fit(&one) {
                Err(ChronusError::DegenerateData(m)) => {
                    assert!(m.contains("single configuration"), "{model_type}: {m}")
                }
                other => panic!("{model_type}: expected DegenerateData, got {other:?}"),
            }
        }
    }

    #[test]
    fn fit_on_a_constant_power_surface_errors() {
        // distinct configurations, but identical GFLOPS/W everywhere: no
        // argmax is better than any other, so fitting must refuse
        let flat: Vec<Benchmark> = paper_benchmarks()
            .into_iter()
            .map(|mut b| {
                b.gflops = 0.05 * b.avg_system_w;
                b
            })
            .collect();
        for model_type in ModelFactory::model_types() {
            let mut opt = ModelFactory::create(model_type).unwrap();
            match opt.fit(&flat) {
                Err(ChronusError::DegenerateData(m)) => {
                    assert!(m.contains("constant GFLOPS/W"), "{model_type}: {m}")
                }
                other => panic!("{model_type}: expected DegenerateData, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_training_set_accepts_real_sweeps() {
        validate_training_set(&paper_benchmarks()).unwrap();
        validate_training_set(&paper_benchmarks()[..2]).unwrap();
    }

    #[test]
    fn serialization_roundtrip_preserves_predictions() {
        let benches = paper_benchmarks();
        for model_type in ModelFactory::model_types() {
            let mut opt = ModelFactory::create(model_type).unwrap();
            opt.fit(&benches).unwrap();
            let bytes = opt.to_bytes().unwrap();
            let loaded = ModelFactory::from_bytes(model_type, &bytes).unwrap();
            for cfg in candidates().iter().take(10) {
                let a = opt.predict_gpw(cfg).unwrap();
                let b = loaded.predict_gpw(cfg).unwrap();
                assert_eq!(a, b, "{model_type} at {cfg}");
            }
        }
    }

    #[test]
    fn factory_rejects_unknown_type() {
        assert!(ModelFactory::create("neural-net").is_err());
        assert!(ModelFactory::from_bytes("neural-net", b"{}").is_err());
    }

    #[test]
    fn model_type_strings_match_paper_cli() {
        assert_eq!(ModelFactory::model_types(), ["brute-force", "linear-regression", "random-tree"]);
        assert_eq!(BruteForceOptimizer::new().model_type(), "brute-force");
        assert_eq!(LinearRegressionOptimizer::new().model_type(), "linear-regression");
        assert_eq!(RandomTreeOptimizer::new().model_type(), "random-tree");
    }

    #[test]
    fn auto_selection_picks_a_strong_family() {
        let benches = paper_benchmarks();
        let (chosen, score) = select_model_type(&benches, 4, 1).unwrap();
        assert!(ModelFactory::model_types().contains(&chosen), "{chosen}");
        assert!(score > 0.8, "cv score {score}");
        // on the full smooth sweep, the forest or brute force should beat
        // the quadratic surface
        assert_ne!(chosen, LINEAR_REGRESSION, "cv {score}");
    }

    #[test]
    fn auto_selection_refuses_a_fold_no_family_can_fit() {
        // the full set has two configurations, but the fold that holds out
        // the 32-core row trains on one configuration twice
        let at = |config: CpuConfig| paper_benchmarks().into_iter().find(|b| b.config == config).unwrap();
        let sixteen = at(CpuConfig::new(16, 2_200_000, 1));
        let benches = vec![sixteen.clone(), sixteen, at(CpuConfig::new(32, 2_200_000, 1))];
        validate_training_set(&benches).unwrap();
        match select_model_type(&benches, 3, 1) {
            Err(ChronusError::DegenerateData(m)) => assert!(m.contains("fold"), "{m}"),
            other => panic!("expected DegenerateData, got {other:?}"),
        }
    }

    #[test]
    fn auto_selection_needs_enough_rows() {
        let benches: Vec<Benchmark> = paper_benchmarks().into_iter().take(2).collect();
        assert!(select_model_type(&benches, 4, 1).is_err());
    }

    #[test]
    fn random_tree_deterministic_across_fits() {
        let benches = paper_benchmarks();
        let mut a = RandomTreeOptimizer::new();
        let mut b = RandomTreeOptimizer::new();
        a.fit(&benches).unwrap();
        b.fit(&benches).unwrap();
        let cfg = CpuConfig::new(30, 2_200_000, 1);
        assert_eq!(a.predict_gpw(&cfg).unwrap(), b.predict_gpw(&cfg).unwrap());
    }
}
