//! CART regression trees: greedy variance-reduction splitting with
//! configurable depth, minimum leaf size, and per-split feature subsampling
//! (the latter is what the random forest uses).
//!
//! # How a tree grows
//!
//! Nothing is sorted or allocated per node. `ranks` ranks each feature
//! column once per dataset; a forest ranks once and grows every tree in
//! one working set. A tree counting-sorts its sample positions by rank
//! once per feature, into (value, position) order; a node is the same
//! `[lo, hi)` segment of each of those lists and of the ascending one. A
//! node at depth `d` reads copy `d & 1` of the lists and partitions each
//! segment stably into the same `[lo, hi)` of the other copy, a select
//! picking each position's side (segments nest, so it overwrites only
//! dead entries). A split search scans a feature twice: a branch-free pass
//! keeps the prefix sums where the value changes, a second evaluates only
//! those boundaries. Sums, ties, thresholds and RNG draws are the
//! per-node-sort CART's in the same order, so the nodes are bit for bit
//! its own; `tests/properties.rs` keeps that algorithm as the oracle.
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
        Workspace::default().grow(data, &ranks(data), &sample, params, rng)
    }

    /// Checks that every split of `arena` names a feature below
    /// `input_width` and two children past itself (as growth lays nodes
    /// out), so every walk ends on a leaf, and packs it.
    fn pack(arena: Arena) -> Result<Self, String> {
        let n = arena.nodes.len();
        if n == 0 || n > u32::MAX as usize {
            return Err(format!("a tree of {n} nodes"));
        }
        // a node's depth is settled before it is reached: its parents
        // all sit before it
        let mut depths = vec![0; n];
        for (i, node) in arena.nodes.iter().enumerate() {
            if let Node::Split { feature, left, right, .. } = *node {
                if feature >= arena.input_width || !(i < left && left < n && i < right && right < n) {
                    return Err(format!("node {i} splits on feature {feature} into nodes {left} and {right}"));
                }
                for child in [left, right] {
                    depths[child] = depths[child].max(depths[i] + 1);
                }
            }
        }
        Ok(Self::packed(arena, depths.into_iter().max().unwrap_or(0)))
    }

    /// Builds the scoring table of a checked arena `depth` deep.
    fn packed(arena: Arena, depth: usize) -> Self {
        let table = (arena.nodes.iter().enumerate())
            .map(|(i, node)| match *node {
                Node::Leaf { value, .. } => Packed { threshold: value, children: [i as u32; 2], feature: 0 },
                Node::Split { feature, threshold, left, right } => {
                    Packed { threshold, children: [right as u32, left as u32], feature: feature as u32 }
                }
            })
            .collect();
        RegressionTree { arena, table, depth }
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

/// The working set trees grow in. A forest keeps one for all its trees:
/// every buffer is sized by the first tree and reused by the rest.
#[derive(Default)]
pub(crate) struct Workspace {
    /// `x[f * n + p]` is feature `f` of position `p`; `y[p]` its target.
    x: Vec<f64>,
    y: Vec<f64>,
    /// Two copies of `width + 1` lists of the positions: list `f < width`
    /// in (value, position) order of feature `f`, list `width` ascending.
    /// A node at depth `d` reads copy `d & 1` and partitions into the other.
    lists: [Vec<u32>; 2],
    start: Vec<u32>,
    goes_left: Vec<u8>,
    /// A split scan's boundaries: `(left_sum, left_sq, k)` when the value
    /// after sorted position `k` differs from the one at it.
    cuts: Vec<(f64, f64, u32)>,
    /// Feature indices, shuffled per split.
    pool: Vec<usize>,
    /// `leaf[p]`: the value of the leaf position `p` ended in.
    pub(crate) leaf: Vec<f64>,
}

impl Workspace {
    /// Grows a tree on the rows of `data` that `sample` names (repeats
    /// allowed); `rank` is `ranks(data)`.
    pub(crate) fn grow<R: Rng>(
        &mut self,
        data: &Dataset,
        rank: &[u32],
        sample: &[usize],
        params: &TreeParams,
        rng: &mut R,
    ) -> RegressionTree {
        assert!(params.min_leaf >= 1, "min_leaf must be at least 1");
        let (rows, n, width) = (data.len(), sample.len(), data.width());
        assert!(u32::try_from(n).is_ok(), "a sample of {n} rows");
        self.x.clear();
        self.y.clear();
        self.y.extend(sample.iter().map(|&i| data.target(i)));
        self.lists.iter_mut().for_each(|lists| lists.resize((width + 1) * n, 0));
        self.goes_left.resize(n, 0);
        self.leaf.resize(n, 0.0);
        self.cuts.resize(n, (0.0, 0.0, 0));
        for (f, rank) in rank.chunks_exact(rows).enumerate() {
            self.x.extend(sample.iter().map(|&i| data.row(i)[f]));
            // counting sort: positions enter in ascending order, so ties keep it
            self.start.clear();
            self.start.resize(rows + 1, 0);
            sample.iter().for_each(|&i| self.start[rank[i] as usize + 1] += 1);
            (1..=rows).for_each(|r| self.start[r] += self.start[r - 1]);
            for (&i, p) in sample.iter().zip(0..) {
                let slot = &mut self.start[rank[i] as usize];
                self.lists[0][f * n + *slot as usize] = p;
                *slot += 1;
            }
        }
        self.lists[0][width * n..].iter_mut().zip(0..).for_each(|(slot, p)| *slot = p);
        let mut grower = Grower { ws: self, params, rng, n, width, nodes: Vec::with_capacity(2 * n), deepest: 0 };
        grower.build(0, n, 0);
        RegressionTree::packed(Arena { nodes: grower.nodes, input_width: width }, grower.deepest)
    }
}

/// One tree's growth over its `n` sample positions.
struct Grower<'a, R> {
    ws: &'a mut Workspace,
    params: &'a TreeParams,
    rng: &'a mut R,
    n: usize,
    width: usize,
    nodes: Vec<Node>,
    deepest: usize,
}

impl<R: Rng> Grower<'_, R> {
    /// Builds the subtree over the segment `[lo, hi)`, returning its arena index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let (len, n) = (hi - lo, self.n);
        self.deepest = self.deepest.max(depth);
        let ascending = self.width * n + lo..self.width * n + hi;
        let (mut sum, mut sum_sq) = (-0.0, -0.0);
        for &p in &self.ws.lists[depth & 1][ascending.clone()] {
            let y = self.ws.y[p as usize];
            sum += y;
            sum_sq += y * y;
        }
        let leaf = Node::Leaf { value: sum / len as f64, n_samples: len };
        let split = if depth >= self.params.max_depth || len < 2 * self.params.min_leaf {
            None
        } else {
            self.best_split(lo, hi, depth, [sum, sum_sq])
        };
        let Some((feature, threshold, n_left)) = split else {
            self.ws.lists[depth & 1][ascending].iter().for_each(|&p| self.ws.leaf[p as usize] = sum / len as f64);
            self.nodes.push(leaf);
            return self.nodes.len() - 1;
        };
        // stable partition into the other copy: each position is stored
        // at its own side's cursor, picked by a select. The split
        // feature's own list is already left side first.
        let [even, odd] = &mut self.ws.lists;
        let (from, to) = if depth & 1 == 0 { (&*even, odd) } else { (&*odd, even) };
        for at in (0..=self.width).map(|list| list * n) {
            if at == feature * n {
                to[at + lo..at + hi].copy_from_slice(&from[at + lo..at + hi]);
                continue;
            }
            let (mut l, mut r) = (at + lo, at + lo + n_left);
            for &p in &from[at + lo..at + hi] {
                let left = self.ws.goes_left[p as usize] != 0;
                to[if left { l } else { r }] = p;
                l += left as usize;
                r += !left as usize;
            }
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
    /// of the segment `[lo, hi)` at `depth`, whose targets and their squares
    /// sum to `sums`, marks the rows going left and counts them.
    /// Returns `None` when no split reduces impurity (e.g. constant targets)
    /// or a child would be under `min_leaf`.
    fn best_split(&mut self, lo: usize, hi: usize, depth: usize, sums: [f64; 2]) -> Option<(usize, f64, usize)> {
        // partial Fisher-Yates over all feature indices
        let ([sum, sum_sq], width, min_leaf, stride) = (sums, self.width, self.params.min_leaf, self.n);
        let Workspace { x, y, lists, goes_left, cuts, pool, .. } = &mut *self.ws;
        pool.clear();
        pool.extend(0..width);
        let candidates = self.params.max_features.map_or(width, |k| k.min(width).max(1));
        if self.params.max_features.is_some() {
            for i in 0..candidates {
                pool.swap(i, self.rng.gen_range(i..width));
            }
        }

        let lists = &lists[depth & 1];
        let n = (hi - lo) as f64;
        let parent_sse = sum_sq - sum * sum / n;
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &f in &pool[..candidates] {
            let sorted = &lists[f * stride + lo..f * stride + hi];
            let column = &x[f * stride..(f + 1) * stride];
            // pass 1, branch-free: prefix sums in (value, position) order,
            // kept where the value changes (no split between equal values)
            let (mut left_sum, mut left_sq, mut m) = (0.0, 0.0, 0);
            let mut value = column[sorted[0] as usize];
            for (k, pair) in sorted.windows(2).enumerate() {
                let y = y[pair[0] as usize];
                left_sum += y;
                left_sq += y * y;
                let next = column[pair[1] as usize];
                cuts[m] = (left_sum, left_sq, k as u32);
                m += (next != value) as usize;
                value = next;
            }
            // pass 2: the split after each boundary
            for &(left_sum, left_sq, k) in &cuts[..m] {
                let nl = (k + 1) as f64;
                let nr = n - nl;
                if (nl as usize) < min_leaf || (nr as usize) < min_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let right_sq = sum_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.as_ref().is_none_or(|&(_, _, b)| sse < b) {
                    let (p, q) = (sorted[k as usize] as usize, sorted[k as usize + 1] as usize);
                    best = Some((f, (column[p] + column[q]) / 2.0, sse));
                }
            }
        }

        let (feature, threshold, _) = best.filter(|&(_, _, sse)| sse < parent_sse - 1e-12)?;
        let column = &x[feature * stride..(feature + 1) * stride];
        let mut n_left = 0;
        for &p in &lists[width * stride + lo..width * stride + hi] {
            let left = column[p as usize] <= threshold;
            goes_left[p as usize] = left as u8;
            n_left += left as usize;
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
