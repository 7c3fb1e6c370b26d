//! Property-based tests for the ML substrate.

use eco_ml::tree::Node;
use eco_ml::{Dataset, Degree, ForestParams, LinearRegression, Matrix, RandomForest, RegressionTree, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn finite_f64(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |v| lo + (v.abs() % (hi - lo)))
}

proptest! {
    /// Gaussian elimination solves every well-conditioned random system:
    /// verify A·x = b by residual.
    #[test]
    fn solve_satisfies_residual(
        seed in 0u64..1000,
        n in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        // diagonally dominant => nonsingular and well conditioned
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                row[i] = n as f64 + rng.gen_range(0.0..1.0);
                row
            })
            .collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let a = Matrix::from_rows(&rows);
        let x = a.solve(&b).unwrap();
        for i in 0..n {
            let ax: f64 = (0..n).map(|j| rows[i][j] * x[j]).sum();
            prop_assert!((ax - b[i]).abs() < 1e-8, "row {i}: {ax} vs {}", b[i]);
        }
    }

    /// Cholesky agrees with Gaussian elimination on random SPD systems.
    #[test]
    fn cholesky_matches_gaussian(seed in 0u64..500, n in 2usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        // A = M^T M + n I is SPD
        let m: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = (0..n).map(|k| m[k][i] * m[k][j]).sum::<f64>() + if i == j { n as f64 } else { 0.0 };
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mat = Matrix::from_rows(&a);
        let x1 = mat.solve(&b).unwrap();
        let x2 = mat.solve_cholesky(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    /// Linear regression recovers arbitrary affine functions exactly.
    #[test]
    fn linreg_recovers_affine(
        a in finite_f64(-5.0, 5.0),
        b in finite_f64(-5.0, 5.0),
        c in finite_f64(-5.0, 5.0),
    ) {
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                features.push(vec![i as f64, j as f64]);
                targets.push(c + a * i as f64 + b * j as f64);
            }
        }
        let data = Dataset::new(features, targets).unwrap();
        let model = LinearRegression::fit(&data, Degree::Linear, 0.0).unwrap();
        let p = model.predict(&[2.5, 3.5]).unwrap();
        let truth = c + 2.5 * a + 3.5 * b;
        prop_assert!((p - truth).abs() < 1e-5 * (1.0 + truth.abs()), "{p} vs {truth}");
    }

    /// Tree predictions never leave the training-target range.
    #[test]
    fn tree_prediction_bounded(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let features: Vec<Vec<f64>> = (0..30).map(|_| vec![rng.gen_range(-10.0..10.0)]).collect();
        let targets: Vec<f64> = (0..30).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let data = Dataset::new(features, targets).unwrap();
        let tree = RegressionTree::fit(&data, &TreeParams::default(), &mut rng);
        for q in [-20.0, -1.0, 0.0, 3.7, 25.0] {
            let p = tree.predict(&[q]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }
    }

    /// Forest predictions are convex combinations of tree predictions, so
    /// they stay within the training-target range too.
    #[test]
    fn forest_prediction_bounded(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let features: Vec<Vec<f64>> = (0..25).map(|_| vec![rng.gen_range(0.0..32.0), rng.gen_range(1.5..2.5)]).collect();
        let targets: Vec<f64> = (0..25).map(|_| rng.gen_range(0.005..0.05)).collect();
        let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let data = Dataset::new(features, targets).unwrap();
        let forest = RandomForest::fit(&data, &ForestParams { n_trees: 8, seed, ..Default::default() });
        let p = forest.predict(&[16.0, 2.0]);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    }

    /// Dataset split always partitions the rows exactly.
    #[test]
    fn split_partitions(seed in 0u64..500, n in 2usize..50, frac in 0.05f64..0.95) {
        let features: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let data = Dataset::new(features, targets).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, test) = data.split(frac, &mut rng);
        prop_assert_eq!(train.len() + test.len(), n);
        prop_assert!(!train.is_empty());
        prop_assert!(!test.is_empty());
        let mut all: Vec<f64> = train.targets().to_vec();
        all.extend_from_slice(test.targets());
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(all, expected);
    }

    /// Metrics invariants: R² ≤ 1 always; Spearman within [-1, 1].
    #[test]
    fn metric_ranges(seed in 0u64..500, n in 2usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        prop_assert!(eco_ml::r2(&a, &b) <= 1.0 + 1e-12);
        let rho = eco_ml::spearman(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rho), "rho {rho}");
        prop_assert!(eco_ml::rmse(&a, &b) >= eco_ml::mae(&a, &b) - 1e-12, "rmse >= mae");
    }

    /// Transpose is an involution and preserves the Frobenius norm.
    #[test]
    fn transpose_involution(seed in 0u64..500, r in 1usize..6, c in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let rows: Vec<Vec<f64>> = (0..r).map(|_| (0..c).map(|_| rng.gen_range(-9.0..9.0)).collect()).collect();
        let m = Matrix::from_rows(&rows);
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        let norm = |x: &Matrix| x.as_slice().iter().map(|v| v * v).sum::<f64>();
        prop_assert!((norm(&m) - norm(&m.transpose())).abs() < 1e-9);
    }
}

/// The reference CART: every node collects its rows, sorts them once per
/// sampled feature and scans the prefix sums. `RegressionTree::fit` must
/// grow exactly this tree, float for float and draw for draw.
mod oracle {
    use super::*;

    pub fn fit<R: Rng>(data: &Dataset, params: &TreeParams, rng: &mut R) -> Vec<Node> {
        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..data.len()).collect();
        build(data, &indices, params, 0, &mut nodes, rng);
        nodes
    }

    pub fn predict(nodes: &[Node], features: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &nodes[i] {
                Node::Leaf { value, .. } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    i = if features[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// `RandomForest::fit`'s bootstrap loop over the reference trees:
    /// each tree's nodes and the out-of-bag RMSE.
    pub fn forest(data: &Dataset, params: &ForestParams) -> (Vec<Vec<Node>>, Option<f64>) {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = data.len();
        let (mut trees, mut oob_sum, mut oob_cnt) = (Vec::new(), vec![0.0f64; n], vec![0usize; n]);
        for _ in 0..params.n_trees {
            let mut in_bag = vec![false; n];
            let idx: Vec<usize> = (0..n)
                .map(|_| {
                    let i = rng.gen_range(0..n);
                    in_bag[i] = true;
                    i
                })
                .collect();
            let tree = fit(&data.subset(&idx), &params.tree, &mut rng);
            for i in (0..n).filter(|&i| !in_bag[i]) {
                oob_sum[i] += predict(&tree, data.row(i));
                oob_cnt[i] += 1;
            }
            trees.push(tree);
        }
        let (mut se, mut covered) = (0.0, 0usize);
        for i in (0..n).filter(|&i| oob_cnt[i] > 0) {
            let p = oob_sum[i] / oob_cnt[i] as f64;
            se += (p - data.target(i)) * (p - data.target(i));
            covered += 1;
        }
        (trees, if covered > 0 { Some((se / covered as f64).sqrt()) } else { None })
    }

    fn build<R: Rng>(
        data: &Dataset,
        indices: &[usize],
        params: &TreeParams,
        depth: usize,
        nodes: &mut Vec<Node>,
        rng: &mut R,
    ) -> usize {
        let mean: f64 = indices.iter().map(|&i| data.target(i)).sum::<f64>() / indices.len() as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean, n_samples: indices.len() });
            nodes.len() - 1
        };
        if depth >= params.max_depth || indices.len() < 2 * params.min_leaf {
            return make_leaf(nodes);
        }
        let Some((feature, threshold)) = best_split(data, indices, params, rng) else {
            return make_leaf(nodes);
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| data.row(i)[feature] <= threshold);
        if left_idx.len() < params.min_leaf || right_idx.len() < params.min_leaf {
            return make_leaf(nodes);
        }
        let me = nodes.len();
        nodes.push(Node::Leaf { value: mean, n_samples: indices.len() });
        let left = build(data, &left_idx, params, depth + 1, nodes, rng);
        let right = build(data, &right_idx, params, depth + 1, nodes, rng);
        nodes[me] = Node::Split { feature, threshold, left, right };
        me
    }

    fn best_split<R: Rng>(
        data: &Dataset,
        indices: &[usize],
        params: &TreeParams,
        rng: &mut R,
    ) -> Option<(usize, f64)> {
        let width = data.width();
        let candidates: Vec<usize> = match params.max_features {
            None => (0..width).collect(),
            Some(k) => {
                let mut pool: Vec<usize> = (0..width).collect();
                for i in 0..k.min(width).max(1) {
                    let j = rng.gen_range(i..width);
                    pool.swap(i, j);
                }
                pool.truncate(k.min(width).max(1));
                pool
            }
        };
        let n = indices.len() as f64;
        let sum: f64 = indices.iter().map(|&i| data.target(i)).sum();
        let sum_sq: f64 = indices.iter().map(|&i| data.target(i) * data.target(i)).sum();
        let parent_sse = sum_sq - sum * sum / n;
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &candidates {
            let mut sorted: Vec<(f64, f64)> = indices.iter().map(|&i| (data.row(i)[f], data.target(i))).collect();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature"));
            let (mut left_sum, mut left_sq) = (0.0, 0.0);
            for k in 0..sorted.len() - 1 {
                left_sum += sorted[k].1;
                left_sq += sorted[k].1 * sorted[k].1;
                if sorted[k].0 == sorted[k + 1].0 {
                    continue;
                }
                let nl = (k + 1) as f64;
                let nr = n - nl;
                if (nl as usize) < params.min_leaf || (nr as usize) < params.min_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let right_sq = sum_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.as_ref().is_none_or(|&(_, _, b)| sse < b) {
                    best = Some((f, (sorted[k].0 + sorted[k + 1].0) / 2.0, sse));
                }
            }
        }
        best.and_then(|(f, t, sse)| if sse < parent_sse - 1e-12 { Some((f, t)) } else { None })
    }
}

/// Nodes as comparable bits: floats by `to_bits`, so `-0.0 != 0.0`.
fn node_bits(nodes: &[Node]) -> Vec<(usize, u64, usize, usize)> {
    nodes
        .iter()
        .map(|node| match *node {
            Node::Split { feature, threshold, left, right } => (feature, threshold.to_bits(), left, right),
            Node::Leaf { value, n_samples } => (usize::MAX, value.to_bits(), n_samples, 0),
        })
        .collect()
}

/// A tie-heavy dataset: each feature takes at most 4 levels (drawn from a
/// pool holding `-0.0`, `0.0` and two adjacent floats, whose midpoint
/// rounds onto one of them), some features follow feature 0's level (so
/// different features offer the same split and only summation order
/// separates their SSEs), targets repeat and do not add exactly, and rows
/// are duplicated.
fn tie_heavy(seed: u64, rows: usize, width: usize) -> Dataset {
    const POOL: [f64; 8] = [-0.0, 0.0, 1.0, 1.0 + f64::EPSILON, -2.5, 3.0, 1e300, -7.25];
    const TARGETS: [f64; 7] = [-0.0, 0.0, 0.1, 0.7, 1.0 / 3.0, -2.9, 12_345.678];
    let mut rng = StdRng::seed_from_u64(seed);
    let levels: Vec<Vec<f64>> =
        (0..width).map(|_| (0..rng.gen_range(1..=4)).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect()).collect();
    let follows: Vec<bool> = (0..width).map(|f| f > 0 && rng.gen_range(0..2) == 0).collect();
    let mut features: Vec<Vec<f64>> = Vec::new();
    let mut targets = Vec::new();
    while features.len() < rows {
        if !features.is_empty() && rng.gen_range(0..4) == 0 {
            let i = rng.gen_range(0..features.len());
            features.push(features[i].clone());
            targets.push(targets[i]);
        } else {
            let first: usize = rng.gen_range(0..4);
            let row = (0..width).map(|f| {
                let k = if f == 0 || follows[f] { first } else { rng.gen_range(0..4) };
                levels[f][k % levels[f].len()]
            });
            features.push(row.collect());
            targets.push(TARGETS[rng.gen_range(0..TARGETS.len())]);
        }
    }
    Dataset::new(features, targets).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A tree grown over rank lists is the reference CART's, node for node
    /// and bit for bit, and leaves the RNG where the reference does.
    #[test]
    fn tree_fit_matches_the_per_node_sort_oracle(
        seed in 0u64..1_000_000,
        rows in 2usize..40,
        width in 1usize..4,
        max_features in 0usize..3,
        min_leaf in 1usize..6,
        max_depth in 0usize..12,
    ) {
        let data = tie_heavy(seed, rows, width);
        let params = TreeParams { max_depth, min_leaf, max_features: (max_features > 0).then_some(max_features) };
        let (mut rng, mut reference_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let tree = RegressionTree::fit(&data, &params, &mut rng);
        let reference = oracle::fit(&data, &params, &mut reference_rng);
        prop_assert_eq!(node_bits(tree.nodes()), node_bits(&reference));
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64(), "RNG out of step");
    }

    /// A forest ranks once and grows over bootstrap positions: each row's
    /// prediction and the out-of-bag RMSE are the reference forest's bit
    /// for bit, and `predict_batch` is `predict` row by row.
    #[test]
    fn forest_fit_matches_the_oracle_and_batches_bit_for_bit(
        seed in 0u64..1_000_000,
        rows in 2usize..30,
        width in 1usize..4,
        max_features in 0usize..3,
        min_leaf in 1usize..6,
    ) {
        let data = tie_heavy(seed, rows, width);
        let params = ForestParams {
            n_trees: 4,
            tree: TreeParams { max_depth: 8, min_leaf, max_features: (max_features > 0).then_some(max_features) },
            seed,
        };
        let forest = RandomForest::fit(&data, &params);
        let (trees, oob) = oracle::forest(&data, forest.params());
        prop_assert_eq!(forest.oob_rmse().map(f64::to_bits), oob.map(f64::to_bits));
        let batch = forest.predict_batch(data.features());
        for (row, &batched) in data.features().iter().zip(&batch) {
            let reference = trees.iter().map(|t| oracle::predict(t, row)).sum::<f64>() / trees.len() as f64;
            prop_assert_eq!(forest.predict(row).to_bits(), reference.to_bits());
            prop_assert_eq!(batched.to_bits(), forest.predict(row).to_bits());
        }
    }
}
