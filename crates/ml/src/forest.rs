//! Random forest regressor: bagged CART trees with per-split feature
//! subsampling. This is the `RandomForestRegressor` optimizer backend from
//! the paper's Optimizer integration interface (§3.2).

use crate::dataset::Dataset;
use crate::tree::{self, RegressionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyperparameters for the forest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth parameters. When `max_features` is `None`, a
    /// `ceil(sqrt(width))` default is applied at fit time.
    pub tree: TreeParams,
    /// Seed for the internal deterministic RNG.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 64,
            tree: TreeParams { max_depth: 12, min_leaf: 2, max_features: None },
            seed: 0x5eed,
        }
    }
}

/// A fitted random-forest regressor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    params: ForestParams,
    oob_rmse: Option<f64>,
}

impl RandomForest {
    /// Fits the forest: each tree trains on a bootstrap resample with
    /// feature subsampling at every split. Also computes the out-of-bag
    /// RMSE when enough trees leave rows out of bag. The dataset is ranked
    /// once for all trees (see [`crate::tree`]).
    ///
    /// # Panics
    /// Panics if `params.n_trees == 0`, or as [`RegressionTree::fit`] does.
    pub fn fit(data: &Dataset, params: &ForestParams) -> Self {
        Self::fit_predict(data, params).0
    }

    /// [`Self::fit`], plus the fitted forest's predictions for the
    /// training rows, `predict_batch(data.features())` bit for bit. An
    /// in-bag row takes the leaf its tree's growth put it in; only the
    /// out-of-bag rows are walked, once per tree, and every row's sum runs
    /// in tree order.
    ///
    /// # Panics
    /// As [`Self::fit`].
    pub fn fit_predict(data: &Dataset, params: &ForestParams) -> (Self, Vec<f64>) {
        assert!(params.n_trees > 0, "forest needs at least one tree");
        let mut params = *params;
        if params.tree.max_features.is_none() {
            let k = (data.width() as f64).sqrt().ceil() as usize;
            params.tree.max_features = Some(k.max(1));
        }
        let mut rng = StdRng::seed_from_u64(params.seed);
        let ranks = tree::ranks(data);

        let n = data.len();
        let mut trees = Vec::with_capacity(params.n_trees);
        // oob_sum[i] accumulates predictions from trees that did not see
        // row i; in_sample[i] from every tree, from -0.0 as predict_batch
        let mut oob_sum = vec![0.0f64; n];
        let mut oob_cnt = vec![0usize; n];
        let mut in_sample = vec![-0.0f64; n];

        // one working set for every tree
        let (mut workspace, mut in_bag, mut idx) =
            (tree::Workspace::default(), vec![false; n], Vec::with_capacity(n));
        let (mut landed, mut oob, mut oob_rows) = (vec![0.0; n], Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..params.n_trees {
            in_bag.fill(false);
            idx.clear();
            idx.extend((0..n).map(|_| {
                let i = rng.gen_range(0..n);
                in_bag[i] = true;
                i
            }));
            let tree = workspace.grow(data, &ranks, &idx, &params.tree, &mut rng);
            // an in-bag row's leaf is where growth put it; the others walk
            idx.iter().zip(&workspace.leaf).for_each(|(&i, &value)| landed[i] = value);
            oob.clear();
            oob.extend((0..n).filter(|&i| !in_bag[i]));
            oob_rows.clear();
            oob_rows.extend(oob.iter().map(|&i| data.row(i)));
            tree.score(&oob_rows, |j, p| {
                let i = oob[j];
                landed[i] = p;
                oob_sum[i] += p;
                oob_cnt[i] += 1;
            });
            in_sample.iter_mut().zip(&landed).for_each(|(sum, p)| *sum += p);
            trees.push(tree);
        }

        let mut se = 0.0;
        let mut covered = 0usize;
        for i in 0..n {
            if oob_cnt[i] > 0 {
                let p = oob_sum[i] / oob_cnt[i] as f64;
                se += (p - data.target(i)) * (p - data.target(i));
                covered += 1;
            }
        }
        let oob_rmse = if covered > 0 { Some((se / covered as f64).sqrt()) } else { None };

        let predictions = in_sample.into_iter().map(|sum| sum / params.n_trees as f64).collect();
        (RandomForest { trees, params, oob_rmse }, predictions)
    }

    /// Predicts the mean of all tree predictions.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(features)).sum();
        sum / self.trees.len() as f64
    }

    /// Predicts over many rows, tree by tree. Each row's sum runs in tree
    /// order from `-0.0`, as [`Self::predict`]'s `Iterator::sum` does, so
    /// every value equals `predict`'s bit for bit.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let mut sums = vec![-0.0; rows.len()];
        for tree in &self.trees {
            tree.score(rows, |r, p| sums[r] += p);
        }
        sums.into_iter().map(|sum| sum / self.trees.len() as f64).collect()
    }

    /// Out-of-bag RMSE estimated during fitting, when available.
    pub fn oob_rmse(&self) -> Option<f64> {
        self.oob_rmse
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The parameters the forest was fitted with (after defaulting).
    pub fn params(&self) -> &ForestParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    /// Noisy concave surface resembling GFLOPS/W over (cores, freq).
    fn surface_data(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for c in 1..=32 {
            for f in [1.5, 2.2, 2.5] {
                let c = c as f64;
                let y = (c / (c + 8.0)) / (1.0 + 0.3 * (f - 2.2) * (f - 2.2));
                let noise: f64 = rng.gen_range(-0.005..0.005);
                features.push(vec![c, f]);
                targets.push(y + noise);
            }
        }
        Dataset::new(features, targets).unwrap()
    }

    #[test]
    fn fits_nonlinear_surface_well() {
        let data = surface_data(1);
        let forest = RandomForest::fit(&data, &ForestParams::default());
        let pred = forest.predict_batch(data.features());
        let score = r2(&pred, data.targets());
        assert!(score > 0.95, "r2 = {score}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = surface_data(2);
        let a = RandomForest::fit(&data, &ForestParams::default());
        let b = RandomForest::fit(&data, &ForestParams::default());
        for row in data.features().iter().take(10) {
            assert_eq!(a.predict(row), b.predict(row));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let data = surface_data(3);
        let a = RandomForest::fit(&data, &ForestParams { seed: 1, ..Default::default() });
        let b = RandomForest::fit(&data, &ForestParams { seed: 2, ..Default::default() });
        let differs = data.features().iter().any(|r| a.predict(r) != b.predict(r));
        assert!(differs);
    }

    #[test]
    fn more_trees_do_not_hurt_much() {
        let data = surface_data(4);
        let small = RandomForest::fit(&data, &ForestParams { n_trees: 4, ..Default::default() });
        let large = RandomForest::fit(&data, &ForestParams { n_trees: 128, ..Default::default() });
        let r2_small = r2(&small.predict_batch(data.features()), data.targets());
        let r2_large = r2(&large.predict_batch(data.features()), data.targets());
        assert!(r2_large > r2_small - 0.02, "small {r2_small}, large {r2_large}");
    }

    #[test]
    fn oob_rmse_available_and_sane() {
        let data = surface_data(5);
        let forest = RandomForest::fit(&data, &ForestParams::default());
        let oob = forest.oob_rmse().expect("oob coverage with 64 trees");
        assert!(oob > 0.0);
        // targets are ~O(0.1-0.8); oob error should be small relative to range
        assert!(oob < 0.2, "oob rmse {oob}");
    }

    #[test]
    fn prediction_within_target_range() {
        // forest of averaged leaves can never extrapolate beyond observed targets
        let data = surface_data(6);
        let forest = RandomForest::fit(&data, &ForestParams::default());
        let min = data.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.targets().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for c in [0.5, 16.0, 64.0] {
            for f in [1.0, 2.0, 3.0] {
                let p = forest.predict(&[c, f]);
                assert!(p >= min - 1e-9 && p <= max + 1e-9, "pred {p} outside [{min}, {max}]");
            }
        }
    }

    #[test]
    fn default_max_features_is_sqrt_width() {
        let data = surface_data(7);
        let forest = RandomForest::fit(&data, &ForestParams::default());
        // width 2 => ceil(sqrt(2)) = 2
        assert_eq!(forest.params().tree.max_features, Some(2));
        assert_eq!(forest.n_trees(), 64);
    }
}
