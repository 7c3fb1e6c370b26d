//! CART regression trees: greedy variance-reduction splitting with
//! configurable depth, minimum leaf size, and per-split feature subsampling
//! (the latter is what the random forest uses).
//!
//! # How a tree grows
//!
//! Nothing is sorted, copied or allocated per node. `ranks` ranks each
//! feature column once per dataset (a forest ranks once for all its trees).
//! A tree counting-sorts its sample positions by rank once per feature, into
//! (value, position) order; a node is the same `[lo, hi)` segment of each of
//! those lists and of the ascending one, and a split partitions every
//! segment stably in place. Sums, ties, thresholds and RNG draws are the
//! per-node-sort CART's in the same order, so the nodes are bit for bit its
//! own; `tests/properties.rs` keeps that algorithm as the oracle.
//!
//! # How a tree scores
//!
//! Once grown (or deserialized) a tree packs its arena into a flat table
//! of `{threshold, [right, left], feature}` in which a leaf's children are
//! the leaf itself and its threshold its value. A row walks the table for
//! exactly the tree's depth in steps, stepping to `children[(x <=
//! threshold) as usize]`: left when `x <= threshold`, right otherwise (so
//! a NaN goes right, as in the arena). It ends on its leaf wherever the
//! leaf sits. Rows walk in lockstep blocks of eight, whose independent
//! loads overlap. The table is never serialized.

use crate::dataset::Dataset;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};

/// Hyperparameters controlling tree growth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth of the tree (root is depth 0).
    pub max_depth: usize,
    /// Minimum number of samples a leaf may hold.
    pub min_leaf: usize,
    /// Number of features considered at each split; `None` means all.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 12, min_leaf: 2, max_features: None }
    }
}

/// A node in the fitted tree. Stored as a flat arena to keep the
/// serialised form simple and traversal allocation-free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Internal split: rows with `features[feature] <= threshold` go left.
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    /// Terminal node predicting the mean target of its training rows.
    Leaf { value: f64, n_samples: usize },
}

/// A fitted CART regression tree. It serializes as its arena
/// (`{"nodes":[…],"input_width":N}`); the scoring table is rebuilt from
/// the arena on deserialization.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    arena: Arena,
    /// The arena packed for scoring (see the module docs).
    table: Vec<Packed>,
    /// The longest root-to-leaf path: the steps every row walks.
    depth: usize,
}

/// What a tree serializes as.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Arena {
    nodes: Vec<Node>,
    input_width: usize,
}

/// One node of the scoring table.
#[derive(Debug, Clone, Copy)]
struct Packed {
    threshold: f64,
    /// `[right, left]`, indexed by `x <= threshold`.
    children: [u32; 2],
    feature: u32,
}

/// Rows per lockstep block.
const LANES: usize = 8;

impl Serialize for RegressionTree {
    fn write_json(&self, out: &mut String) {
        self.arena.write_json(out)
    }
}

impl<'de> Deserialize<'de> for RegressionTree {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        RegressionTree::pack(Arena::deserialize_value(v)?).map_err(DeError::custom)
    }
}

impl RegressionTree {
    /// Fits a tree on the dataset. Deterministic when `max_features` is
    /// `None`; otherwise the RNG drives feature subsampling.
    ///
    /// # Panics
    /// Panics if `min_leaf` is 0, or with "NaN feature" if a feature column
    /// of two or more rows holds a NaN.
    pub fn fit<R: Rng>(data: &Dataset, params: &TreeParams, rng: &mut R) -> Self {
        let sample: Vec<usize> = (0..data.len()).collect();
        grow(data, &ranks(data), &sample, params, rng)
    }

    /// Builds the scoring table of an arena whose every split names a
    /// feature below `input_width` and two children past itself (as
    /// growth lays nodes out), so every walk ends on a leaf.
    fn pack(arena: Arena) -> Result<Self, String> {
        let n = arena.nodes.len();
        if n == 0 || n > u32::MAX as usize {
            return Err(format!("a tree of {n} nodes"));
        }
        // a node's depth is settled before it is reached: its parents
        // all sit before it
        let mut depths = vec![0; n];
        let mut table = Vec::with_capacity(n);
        for (i, node) in arena.nodes.iter().enumerate() {
            table.push(match *node {
                Node::Leaf { value, .. } => Packed { threshold: value, children: [i as u32; 2], feature: 0 },
                Node::Split { feature, threshold, left, right } => {
                    if feature >= arena.input_width || !(i < left && left < n && i < right && right < n) {
                        return Err(format!("node {i} splits on feature {feature} into nodes {left} and {right}"));
                    }
                    for child in [left, right] {
                        depths[child] = depths[child].max(depths[i] + 1);
                    }
                    Packed { threshold, children: [right as u32, left as u32], feature: feature as u32 }
                }
            });
        }
        let depth = depths.into_iter().max().unwrap_or(0);
        Ok(RegressionTree { arena, table, depth })
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    /// Panics if the row width differs from the training width.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut value = 0.0;
        self.score(&[features], |_, v| value = v);
        value
    }

    /// Scores every row, handing `emit(r, prediction)` each row's value
    /// in row order. Each value is [`Self::predict`]'s for that row.
    ///
    /// # Panics
    /// Panics if a row's width differs from the training width.
    pub fn score<R: AsRef<[f64]>>(&self, rows: &[R], mut emit: impl FnMut(usize, f64)) {
        for (b, block) in rows.chunks(LANES).enumerate() {
            // a short last block walks its first row in the spare lanes,
            // so every walk is a full block
            let mut lanes: [&[f64]; LANES] = [block[0].as_ref(); LANES];
            for (lane, row) in lanes.iter_mut().zip(block) {
                *lane = row.as_ref();
                assert_eq!(lane.len(), self.arena.input_width, "feature width mismatch");
            }
            let mut at = [0u32; LANES];
            for _ in 0..self.depth {
                for (at, row) in at.iter_mut().zip(&lanes) {
                    let node = &self.table[*at as usize];
                    *at = node.children[(row[node.feature as usize] <= node.threshold) as usize];
                }
            }
            for (lane, &at) in at[..block.len()].iter().enumerate() {
                emit(b * LANES + lane, self.table[at as usize].threshold);
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.arena.nodes.len()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Borrow the node arena (root at index 0).
    pub fn nodes(&self) -> &[Node] {
        &self.arena.nodes
    }
}

/// Dense per-feature ranks of `data`'s rows (equal values share one):
/// `rank[f * data.len() + i]` is row `i`'s in feature `f`. Panics with
/// "NaN feature" if a column of two or more rows holds a NaN.
pub(crate) fn ranks(data: &Dataset) -> Vec<u32> {
    let rows = data.len();
    let mut rank = vec![0u32; data.width() * rows];
    let mut order: Vec<usize> = (0..rows).collect();
    for f in 0..data.width() {
        order.sort_by(|&a, &b| data.row(a)[f].partial_cmp(&data.row(b)[f]).expect("NaN feature"));
        for k in 1..rows {
            let tie = data.row(order[k])[f] == data.row(order[k - 1])[f];
            rank[f * rows + order[k]] = rank[f * rows + order[k - 1]] + !tie as u32;
        }
    }
    rank
}

/// Grows a tree on the rows of `data` that `sample` names (repeats
/// allowed); `rank` is `ranks(data)`.
pub(crate) fn grow<R: Rng>(
    data: &Dataset,
    rank: &[u32],
    sample: &[usize],
    params: &TreeParams,
    rng: &mut R,
) -> RegressionTree {
    assert!(params.min_leaf >= 1, "min_leaf must be at least 1");
    let (rows, n, width) = (data.len(), sample.len(), data.width());
    let mut x = Vec::with_capacity(width * n);
    let mut lists = Vec::with_capacity((width + 1) * n);
    let mut start = vec![0; rows + 1];
    for f in 0..width {
        x.extend(sample.iter().map(|&i| data.row(i)[f]));
        // counting sort: positions enter in ascending order, so ties keep it
        let rank_of = |p: usize| rank[f * rows + sample[p]] as usize;
        start.fill(0);
        (0..n).for_each(|p| start[rank_of(p) + 1] += 1);
        (1..=rows).for_each(|r| start[r] += start[r - 1]);
        lists.resize((f + 1) * n, 0);
        for p in 0..n {
            lists[f * n + start[rank_of(p)]] = p;
            start[rank_of(p)] += 1;
        }
    }
    lists.extend(0..n);
    let y = sample.iter().map(|&i| data.target(i)).collect();
    let (goes_left, scratch, pool, nodes) = (vec![false; n], vec![0; n], Vec::with_capacity(width), Vec::new());
    let mut grower = Grower { params, rng, n, width, x, y, lists, goes_left, scratch, pool, nodes };
    grower.build(0, n, 0);
    RegressionTree::pack(Arena { nodes: grower.nodes, input_width: width }).expect("a grown tree packs")
}

/// One tree's working set over its `n` sample positions.
struct Grower<'a, R> {
    params: &'a TreeParams,
    rng: &'a mut R,
    n: usize,
    width: usize,
    /// `x[f * n + p]` is feature `f` of position `p`; `y[p]` its target.
    x: Vec<f64>,
    y: Vec<f64>,
    /// `width + 1` lists of the positions: list `f < width` in (value,
    /// position) order of feature `f`, list `width` ascending.
    lists: Vec<usize>,
    goes_left: Vec<bool>,
    scratch: Vec<usize>,
    /// Feature indices, shuffled per split.
    pool: Vec<usize>,
    nodes: Vec<Node>,
}

impl<R: Rng> Grower<'_, R> {
    fn segment(&self, list: usize, lo: usize, hi: usize) -> &[usize] {
        &self.lists[list * self.n + lo..list * self.n + hi]
    }

    /// Builds the subtree over the segment `[lo, hi)`, returning its arena index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let len = hi - lo;
        let sum: f64 = self.segment(self.width, lo, hi).iter().map(|&p| self.y[p]).sum();
        let leaf = Node::Leaf { value: sum / len as f64, n_samples: len };
        let split = if depth >= self.params.max_depth || len < 2 * self.params.min_leaf {
            None
        } else {
            self.best_split(lo, hi, sum)
        };
        let Some((feature, threshold, n_left)) = split else {
            self.nodes.push(leaf);
            return self.nodes.len() - 1;
        };
        for list in 0..=self.width {
            // branch-free stable partition: each position is written to both
            // sides' next slot and only its own side's cursor advances
            let segment = &mut self.lists[list * self.n + lo..list * self.n + hi];
            let mut w = 0;
            for r in 0..len {
                let p = segment[r];
                segment[w] = p;
                self.scratch[r - w] = p;
                w += self.goes_left[p] as usize;
            }
            segment[w..].copy_from_slice(&self.scratch[..len - w]);
        }

        // reserve our slot before children so the root stays at index 0
        let me = self.nodes.len();
        self.nodes.push(leaf); // placeholder
        let left = self.build(lo, lo + n_left, depth + 1);
        let right = self.build(lo + n_left, hi, depth + 1);
        self.nodes[me] = Node::Split { feature, threshold, left, right };
        me
    }

    /// Finds the (feature, threshold) minimising the weighted child variance
    /// of the segment `[lo, hi)`, whose targets sum to `sum`, marks the rows
    /// going left and counts them. Returns `None` when no split reduces
    /// impurity (e.g. constant targets) or a child would be under `min_leaf`.
    fn best_split(&mut self, lo: usize, hi: usize, sum: f64) -> Option<(usize, f64, usize)> {
        // partial Fisher-Yates over all feature indices
        let (width, min_leaf) = (self.width, self.params.min_leaf);
        self.pool.clear();
        self.pool.extend(0..width);
        let candidates = self.params.max_features.map_or(width, |k| k.min(width).max(1));
        if self.params.max_features.is_some() {
            for i in 0..candidates {
                self.pool.swap(i, self.rng.gen_range(i..width));
            }
        }

        let y = &self.y;
        let n = (hi - lo) as f64;
        let sum_sq: f64 = self.segment(width, lo, hi).iter().map(|&p| y[p] * y[p]).sum();
        let parent_sse = sum_sq - sum * sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &f in &self.pool[..candidates] {
            let sorted = self.segment(f, lo, hi);
            let column = &self.x[f * self.n..(f + 1) * self.n];
            // prefix scan: evaluate split after each distinct feature value
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for k in 0..sorted.len() - 1 {
                let (p, q) = (sorted[k], sorted[k + 1]);
                left_sum += y[p];
                left_sq += y[p] * y[p];
                if column[p] == column[q] {
                    continue; // can't split between equal values
                }
                let nl = (k + 1) as f64;
                let nr = n - nl;
                if (nl as usize) < min_leaf || (nr as usize) < min_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let right_sq = sum_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.as_ref().is_none_or(|&(_, _, b)| sse < b) {
                    best = Some((f, (column[p] + column[q]) / 2.0, sse));
                }
            }
        }

        let (feature, threshold, _) = best.filter(|&(_, _, sse)| sse < parent_sse - 1e-12)?;
        let mut n_left = 0;
        for k in lo..hi {
            let p = self.lists[width * self.n + k];
            self.goes_left[p] = self.x[feature * self.n + p] <= threshold;
            n_left += self.goes_left[p] as usize;
        }
        (n_left >= min_leaf && hi - lo - n_left >= min_leaf).then_some((feature, threshold, n_left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn step_data() -> Dataset {
        // y = 10 if x < 5 else 20
        let features: Vec<Vec<f64>> = (0..10).map(|x| vec![x as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|x| if x < 5 { 10.0 } else { 20.0 }).collect();
        Dataset::new(features, targets).unwrap()
    }

    #[test]
    fn learns_step_function_exactly() {
        let tree = RegressionTree::fit(&step_data(), &TreeParams::default(), &mut rng());
        assert_eq!(tree.predict(&[2.0]), 10.0);
        assert_eq!(tree.predict(&[7.0]), 20.0);
        // boundary: split threshold is midway at 4.5
        assert_eq!(tree.predict(&[4.4]), 10.0);
        assert_eq!(tree.predict(&[4.6]), 20.0);
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![5.0, 5.0, 5.0]).unwrap();
        let tree = RegressionTree::fit(&data, &TreeParams::default(), &mut rng());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[9.0]), 5.0);
    }

    #[test]
    fn max_depth_zero_is_mean_predictor() {
        let data = step_data();
        let params = TreeParams { max_depth: 0, ..Default::default() };
        let tree = RegressionTree::fit(&data, &params, &mut rng());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[0.0]), 15.0);
    }

    #[test]
    fn min_leaf_respected() {
        let data = step_data();
        let params = TreeParams { min_leaf: 5, ..Default::default() };
        let tree = RegressionTree::fit(&data, &params, &mut rng());
        for node in tree.nodes() {
            if let Node::Leaf { n_samples, .. } = node {
                assert!(*n_samples >= 5, "leaf with {n_samples} samples");
            }
        }
    }

    #[test]
    fn deeper_tree_fits_finer_structure() {
        // y = floor(x / 4) — an 8-level staircase needs depth >= 3 to separate
        let features: Vec<Vec<f64>> = (0..32).map(|x| vec![x as f64]).collect();
        let targets: Vec<f64> = (0..32).map(|x| (x / 4) as f64).collect();
        let data = Dataset::new(features.clone(), targets.clone()).unwrap();
        let shallow =
            RegressionTree::fit(&data, &TreeParams { max_depth: 1, min_leaf: 1, max_features: None }, &mut rng());
        let deep =
            RegressionTree::fit(&data, &TreeParams { max_depth: 10, min_leaf: 1, max_features: None }, &mut rng());
        let err_shallow: f64 = features.iter().zip(&targets).map(|(f, t)| (shallow.predict(f) - t).abs()).sum();
        let err_deep: f64 = features.iter().zip(&targets).map(|(f, t)| (deep.predict(f) - t).abs()).sum();
        assert!(err_deep < err_shallow);
        assert_eq!(err_deep, 0.0);
    }

    #[test]
    fn two_feature_split_uses_informative_feature() {
        // feature 0 is noise-free signal, feature 1 is constant
        let features: Vec<Vec<f64>> = (0..20).map(|x| vec![x as f64, 1.0]).collect();
        let targets: Vec<f64> = (0..20).map(|x| if x < 10 { 0.0 } else { 1.0 }).collect();
        let data = Dataset::new(features, targets).unwrap();
        let tree = RegressionTree::fit(&data, &TreeParams::default(), &mut rng());
        match &tree.nodes()[0] {
            Node::Split { feature, .. } => assert_eq!(*feature, 0),
            Node::Leaf { .. } => panic!("expected a split at the root"),
        }
    }

    #[test]
    fn depth_reported_consistently() {
        let tree = RegressionTree::fit(&step_data(), &TreeParams::default(), &mut rng());
        assert!(tree.depth() >= 1);
        assert!(tree.depth() <= 12);
    }
}
