//! Flattened, batched, branchless inference for fitted tree ensembles.
//!
//! [`crate::tree::RegressionTree`] stores nodes as a per-tree enum vector
//! — fine for training, but batch prediction then chases a separate heap
//! allocation per tree, matches an enum discriminant per node and takes a
//! data-dependent branch at every level. [`CompiledEnsemble`] keeps two
//! views of a fitted ensemble:
//!
//! * The **raw node table**: every tree's `(feature, left, right,
//!   threshold)` records back-to-back, children addressed by global `u32`
//!   index. It is the serialized form (`servekit.model.v1`):
//!   [`CompiledEnsemble::nodes_raw`] writes it and
//!   [`CompiledEnsemble::from_raw`] reads and validates it.
//! * The **implicit complete-tree layout** derived from that table in
//!   O(nodes) when the ensemble is built or loaded, which is what
//!   prediction reads. A tree of height `h` becomes `2^h − 1` split slots
//!   in breadth-first order (slot `i` has children `2i + 1` and `2i + 2`)
//!   and `2^h` leaf values. A leaf shallower than `h` is padded with
//!   splits whose whole subtree carries its value, so every row descends
//!   exactly `h` levels and the next slot is arithmetic, not a load:
//!   `i = 2i + 2 − usize::from(x <= t)`, which sends NaN right. Heights
//!   are capped at [`MAX_DEPTH`], so one tree's layout is at most 511
//!   slots.
//!
//! The split slots are stored as two parallel arrays (`u32` feature, `f64`
//! threshold), which measured faster than packed records.
//! [`CompiledEnsemble::predict_into`] takes rows four at a time: the four
//! descend each tree in lockstep, level by level, so their independent
//! load chains overlap, and they stay hot in cache while the trees' slots
//! stream past in table order.
//!
//! Bit-identity contract: for every row, the result equals
//! `base + scale * Σ_t tree_t.predict_one(row)` with the tree outputs added
//! in tree order — the exact float sequence the per-row path produces — so
//! swapping in this engine can never move a reported metric. A padded
//! split sends a row to a subtree whose leaves all carry the leaf's value,
//! and a real split compares exactly as the pointer walk does (`<=` goes
//! left; NaN fails `<=` and goes right), so every row reaches the leaf
//! value it reached before. The differential suite pins this.

use crate::dataset::Matrix;
use crate::tree::RegressionTree;

/// Sentinel in a raw node's `feature` field marking a leaf (its
/// `threshold` field holds the leaf value).
pub const LEAF: u32 = u32::MAX;

/// Deepest tree (root = depth 0) an ensemble may hold. The implicit layout
/// spends `2^depth − 1` split slots and `2^depth` leaves per tree, so the
/// cap bounds what one loaded tree costs; fits use depth 3 or 4.
pub const MAX_DEPTH: usize = 8;

/// Rows that descend the trees in lockstep.
const LANES: usize = 4;

/// One raw node record, as serialized.
#[derive(Debug, Clone, Copy)]
struct RawNode {
    /// Split feature; [`LEAF`] marks a leaf.
    feature: u32,
    /// Left child index (global), valid for split nodes.
    left: u32,
    /// Right child index (global), valid for split nodes.
    right: u32,
    /// Split threshold (`<=` goes left); leaf value for leaves.
    threshold: f64,
}

/// Where one tree's implicit layout sits in the slot arrays.
#[derive(Debug, Clone, Copy)]
struct TreeSlots {
    /// Levels every row descends (the tree's depth).
    height: usize,
    /// First of the tree's `2^height − 1` split slots in `features` and
    /// `thresholds`.
    splits: usize,
    /// First of the tree's `2^height` entries in `leaves`.
    leaves: usize,
}

/// A fitted ensemble compiled for batched, branchless prediction.
#[derive(Debug, Clone, Default)]
pub struct CompiledEnsemble {
    /// Constant prediction offset (the training-target mean).
    base: f64,
    /// Shrinkage applied to the summed tree outputs.
    scale: f64,
    /// All trees' raw nodes, back-to-back in boosting-stage order.
    nodes: Vec<RawNode>,
    /// Root node index of each tree, in boosting-stage order.
    roots: Vec<u32>,
    /// Each tree's layout, in boosting-stage order.
    trees: Vec<TreeSlots>,
    /// Split feature of every split slot, breadth-first within a tree (0 in
    /// a padding split, whose two subtrees are equal).
    features: Vec<u32>,
    /// Split threshold of every split slot (`<=` goes left).
    thresholds: Vec<f64>,
    /// Leaf values of every tree, left to right within a tree.
    leaves: Vec<f64>,
}

impl CompiledEnsemble {
    /// Flatten `trees` (in boosting-stage order) into one node table.
    ///
    /// # Panics
    /// Panics if a tree is deeper than [`MAX_DEPTH`]
    /// (`GbrtRegressor::fit` never grows one).
    pub fn from_trees(base: f64, scale: f64, trees: &[RegressionTree]) -> CompiledEnsemble {
        use crate::tree::Node;
        let total: usize = trees.iter().map(|t| t.nodes().len()).sum();
        let mut nodes = Vec::with_capacity(total);
        let mut roots = Vec::with_capacity(trees.len());
        for tree in trees {
            let offset = nodes.len() as u32;
            roots.push(offset); // grow() always places the root at index 0
            nodes.extend(tree.nodes().iter().map(|node| match node {
                Node::Leaf { value } => RawNode {
                    feature: LEAF,
                    left: 0,
                    right: 0,
                    threshold: *value,
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => RawNode {
                    feature: *feature as u32,
                    left: offset + *left as u32,
                    right: offset + *right as u32,
                    threshold: *threshold,
                },
            }));
        }
        Self::assemble(base, scale, roots, nodes).expect("fitted trees respect MAX_DEPTH")
    }

    /// Rebuild an ensemble from its raw parts — the deserialization path
    /// for serialized model artifacts (`servekit.model.v1`). Unlike
    /// [`Self::from_trees`], the input is untrusted (a file on disk), so
    /// every structural invariant the layout derivation relies on is
    /// checked:
    ///
    /// * every root index is inside the node table;
    /// * every split node's children are inside the table **and** strictly
    ///   after the node itself (the push-order layout `from_trees`
    ///   produces), which also proves the table is acyclic; subtrees may be
    ///   shared;
    /// * every split feature is below `n_features`;
    /// * `base`/`scale` and all thresholds are finite;
    /// * no tree is deeper than [`MAX_DEPTH`], so the derived layout costs
    ///   at most 511 slots per tree whatever the file says.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn from_raw(
        base: f64,
        scale: f64,
        roots: Vec<u32>,
        nodes: Vec<(u32, u32, u32, f64)>,
        n_features: usize,
    ) -> Result<CompiledEnsemble, String> {
        if !base.is_finite() || !scale.is_finite() {
            return Err("base/scale must be finite".to_string());
        }
        let len = nodes.len();
        for (i, &root) in roots.iter().enumerate() {
            if root as usize >= len {
                return Err(format!(
                    "tree {i}: root {root} outside the {len}-node table"
                ));
            }
        }
        let nodes: Vec<RawNode> = nodes
            .iter()
            .map(|&(feature, left, right, threshold)| RawNode {
                feature,
                left,
                right,
                threshold,
            })
            .collect();
        for (i, n) in nodes.iter().enumerate() {
            if !n.threshold.is_finite() {
                return Err(format!("node {i}: non-finite threshold/leaf value"));
            }
            if n.feature == LEAF {
                continue;
            }
            if n.feature as usize >= n_features {
                return Err(format!(
                    "node {i}: split feature {} outside the {n_features}-feature space",
                    n.feature
                ));
            }
            for child in [n.left, n.right] {
                if child as usize >= len {
                    return Err(format!(
                        "node {i}: child {child} outside the {len}-node table"
                    ));
                }
                // Children strictly after parents is the layout from_trees
                // emits; enforcing it proves acyclicity in one pass.
                if child as usize <= i {
                    return Err(format!(
                        "node {i}: child {child} does not follow its parent (cycle risk)"
                    ));
                }
            }
        }
        Self::assemble(base, scale, roots, nodes)
    }

    /// Derive the implicit layout from a bounds-checked, acyclic raw table.
    ///
    /// # Errors
    /// Names the first tree deeper than [`MAX_DEPTH`].
    fn assemble(
        base: f64,
        scale: f64,
        roots: Vec<u32>,
        nodes: Vec<RawNode>,
    ) -> Result<CompiledEnsemble, String> {
        // Children follow their parents, so one backward pass sees every
        // child's depth before its parent's.
        let mut depth = vec![0usize; nodes.len()];
        for (i, n) in nodes.iter().enumerate().rev() {
            if n.feature != LEAF {
                depth[i] = 1 + depth[n.left as usize].max(depth[n.right as usize]);
            }
        }
        let mut trees = Vec::with_capacity(roots.len());
        let (mut n_splits, mut n_leaves) = (0usize, 0usize);
        for (t, &root) in roots.iter().enumerate() {
            let height = depth[root as usize];
            if height > MAX_DEPTH {
                return Err(format!(
                    "tree {t}: depth {height} exceeds the depth cap MAX_DEPTH = {MAX_DEPTH}"
                ));
            }
            trees.push(TreeSlots {
                height,
                splits: n_splits,
                leaves: n_leaves,
            });
            n_splits += (1 << height) - 1;
            n_leaves += 1 << height;
        }
        let mut features = Vec::with_capacity(n_splits);
        let mut thresholds = Vec::with_capacity(n_splits);
        let mut leaves = Vec::with_capacity(n_leaves);
        // slot[i] is the raw node that fills implicit slot i: the node
        // itself, or the shallower leaf whose value pads this subtree.
        let mut slot: Vec<u32> = Vec::with_capacity(2 << MAX_DEPTH);
        for (tree, &root) in trees.iter().zip(&roots) {
            let first_leaf = (1usize << tree.height) - 1;
            slot.clear();
            slot.push(root);
            for i in 0..first_leaf {
                let n = nodes[slot[i] as usize];
                if n.feature == LEAF {
                    features.push(0);
                    thresholds.push(0.0);
                    slot.extend([slot[i], slot[i]]);
                } else {
                    features.push(n.feature);
                    thresholds.push(n.threshold);
                    slot.extend([n.left, n.right]);
                }
            }
            // The tree's height bounds every path, so the bottom level is
            // all leaves.
            leaves.extend(slot[first_leaf..].iter().map(|&s| {
                let n = nodes[s as usize];
                debug_assert_eq!(n.feature, LEAF);
                n.threshold
            }));
        }
        Ok(CompiledEnsemble {
            base,
            scale,
            nodes,
            roots,
            trees,
            features,
            thresholds,
            leaves,
        })
    }

    /// Constant prediction offset (the training-target mean).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Shrinkage applied to the summed tree outputs.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Root node index of each tree, in boosting-stage order.
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The raw node table as `(feature, left, right, threshold)` rows, in
    /// table order. Leaves carry [`LEAF`] in the feature field and their
    /// value in the threshold field — the exact shape [`Self::from_raw`]
    /// accepts, so serialize/deserialize round-trips.
    pub fn nodes_raw(&self) -> impl Iterator<Item = (u32, u32, u32, f64)> + '_ {
        self.nodes
            .iter()
            .map(|n| (n.feature, n.left, n.right, n.threshold))
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes in the raw table.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Predict every row of `x` into `out`. Rows go four at a time: each
    /// group descends every tree in lockstep, with its rows hot in cache
    /// while the trees' slots stream past in table order, and each row
    /// adds its leaves in tree order.
    ///
    /// # Panics
    /// Panics if `out.len() != x.rows()`.
    pub fn predict_into(&self, x: &Matrix, out: &mut [f64]) {
        assert_eq!(out.len(), x.rows(), "output length mismatch");
        for (g, out) in out.chunks_mut(LANES).enumerate() {
            // A short last group repeats its last row in the spare lanes.
            let last = out.len() - 1;
            let rows = std::array::from_fn(|k| x.row(g * LANES + k.min(last)));
            let mut acc = [0.0f64; LANES];
            for tree in &self.trees {
                for (a, v) in acc.iter_mut().zip(self.leaf_values(tree, rows)) {
                    *a += v;
                }
            }
            for (o, a) in out.iter_mut().zip(acc) {
                *o = self.base + self.scale * a;
            }
        }
    }

    /// The leaf value `tree` gives each of `rows`. The rows descend level
    /// by level together, so their independent loads overlap, and each
    /// step is branch-free.
    #[inline(always)]
    fn leaf_values(&self, tree: &TreeSlots, rows: [&[f64]; LANES]) -> [f64; LANES] {
        let first_leaf = (1usize << tree.height) - 1;
        let features = &self.features[tree.splits..tree.splits + first_leaf];
        let thresholds = &self.thresholds[tree.splits..tree.splits + first_leaf];
        let leaves = &self.leaves[tree.leaves..tree.leaves + first_leaf + 1];
        let mut at = [0usize; LANES];
        for _ in 0..tree.height {
            for (i, row) in at.iter_mut().zip(rows) {
                // `x <= t` goes left to 2i + 1; anything else, NaN
                // included, goes right to 2i + 2.
                let x = row[features[*i] as usize];
                *i = 2 * *i + 2 - usize::from(x <= thresholds[*i]);
            }
        }
        at.map(|i| leaves[i - first_leaf])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinnedMatrix;
    use crate::tree::TreeOptions;

    fn wavy(n: usize, cols: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..cols)
                    .map(|j| (((i * 13 + j * 7) % 101) as f64) * 0.21)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (r[0] * 0.4).sin() * 8.0 + r[1] * 0.5)
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    fn fit_forest(x: &Matrix, y: &[f64], k: usize) -> Vec<RegressionTree> {
        let binned = BinnedMatrix::from_matrix(x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let features: Vec<usize> = (0..x.cols()).collect();
        (0..k)
            .map(|d| {
                RegressionTree::fit(
                    &binned,
                    y,
                    &samples,
                    &features,
                    &TreeOptions {
                        max_depth: 1 + d % 4,
                        min_samples_leaf: 2,
                    },
                )
            })
            .collect()
    }

    /// `base + scale * Σ_t tree_t.predict_one(row)` in tree order: the
    /// per-row reference every batched output must equal bit for bit.
    fn per_row(base: f64, scale: f64, trees: &[RegressionTree], row: &[f64]) -> f64 {
        base + scale * trees.iter().map(|t| t.predict_one(row)).sum::<f64>()
    }

    /// The same reference over a raw table: a pointer walk per tree.
    fn walk(c: &CompiledEnsemble, row: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &root in c.roots() {
            let mut n = c.nodes[root as usize];
            while n.feature != LEAF {
                let next = if row[n.feature as usize] <= n.threshold {
                    n.left
                } else {
                    n.right
                };
                n = c.nodes[next as usize];
            }
            acc += n.threshold;
        }
        c.base() + c.scale() * acc
    }

    #[test]
    fn batched_matches_per_row_bitwise() {
        let (x, y) = wavy(333, 5); // odd count: a partial block and a lane remainder
        let trees = fit_forest(&x, &y, 7);
        let c = CompiledEnsemble::from_trees(1.25, 0.1, &trees);
        let mut out = vec![0.0; x.rows()];
        c.predict_into(&x, &mut out);
        for (i, row) in x.iter_rows().enumerate() {
            let want = per_row(1.25, 0.1, &trees, row);
            assert_eq!(out[i].to_bits(), want.to_bits(), "row {i}");
        }
    }

    #[test]
    fn empty_ensemble_predicts_base() {
        let c = CompiledEnsemble::from_trees(3.5, 0.1, &[]);
        assert_eq!(c.n_trees(), 0);
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let mut out = vec![0.0; 2];
        c.predict_into(&x, &mut out);
        assert_eq!(out, vec![3.5, 3.5]);
    }

    #[test]
    fn node_table_is_contiguous_and_complete() {
        let (x, y) = wavy(120, 3);
        let trees = fit_forest(&x, &y, 4);
        let c = CompiledEnsemble::from_trees(0.0, 1.0, &trees);
        let expected: usize = trees.iter().map(|t| t.split_count() * 2 + 1).sum();
        // A binary tree with s splits has s+1 leaves => 2s+1 nodes.
        assert_eq!(c.n_nodes(), expected);
        assert_eq!(c.n_trees(), 4);
    }

    #[test]
    fn layout_pads_shallow_leaves_to_the_tree_height() {
        // Depth 2 on the left, a leaf at depth 1 on the right.
        let nodes = vec![
            (0, 1, 2, 0.5),
            (1, 3, 4, 0.0),
            (LEAF, 0, 0, 7.0),
            (LEAF, 0, 0, 1.0),
            (LEAF, 0, 0, 2.0),
        ];
        let c = CompiledEnsemble::from_raw(0.0, 1.0, vec![0], nodes, 2).unwrap();
        assert_eq!(c.trees[0].height, 2);
        assert_eq!(c.features, vec![0, 1, 0]);
        assert_eq!(c.leaves, vec![1.0, 2.0, 7.0, 7.0]);
        let x = Matrix::from_rows(&[
            vec![0.0, -1.0],
            vec![0.0, 1.0],
            vec![1.0, -1.0],
            vec![f64::NAN, 0.0],
            vec![0.5, f64::NAN],
        ]);
        let mut out = vec![0.0; x.rows()];
        c.predict_into(&x, &mut out);
        // NaN fails `<=` and goes right, as in the pointer walk.
        assert_eq!(out, vec![1.0, 2.0, 7.0, 7.0, 2.0]);
    }

    #[test]
    fn raw_round_trip_is_bitwise() {
        let (x, y) = wavy(150, 4);
        let trees = fit_forest(&x, &y, 5);
        let c = CompiledEnsemble::from_trees(0.7, 0.09, &trees);
        let back = CompiledEnsemble::from_raw(
            c.base(),
            c.scale(),
            c.roots().to_vec(),
            c.nodes_raw().collect(),
            x.cols(),
        )
        .unwrap();
        let (mut a, mut b) = (vec![0.0; x.rows()], vec![0.0; x.rows()]);
        c.predict_into(&x, &mut a);
        back.predict_into(&x, &mut b);
        for (i, row) in x.iter_rows().enumerate() {
            let want = per_row(0.7, 0.09, &trees, row);
            assert_eq!(a[i].to_bits(), want.to_bits(), "row {i}");
            assert_eq!(b[i].to_bits(), want.to_bits(), "row {i}");
        }
    }

    /// A chain of `depth` splits on feature 0 (each split's left child is
    /// a leaf) ending in a leaf: the shallowest table of that depth.
    fn chain(depth: usize) -> Vec<(u32, u32, u32, f64)> {
        let mut nodes = Vec::new();
        for d in 0..depth as u32 {
            let i = nodes.len() as u32;
            nodes.push((0, i + 1, i + 2, d as f64));
            nodes.push((LEAF, 0, 0, d as f64 * 10.0));
        }
        nodes.push((LEAF, 0, 0, -1.0));
        nodes
    }

    #[test]
    fn from_raw_rejects_corrupt_tables() {
        let split = |f: u32, l: u32, r: u32| (f, l, r, 0.5);
        let leaf = (LEAF, 0, 0, 1.0);
        // Root outside the table.
        let e = CompiledEnsemble::from_raw(0.0, 1.0, vec![3], vec![leaf], 4).unwrap_err();
        assert!(e.contains("root"), "{e}");
        // Child outside the table.
        let e = CompiledEnsemble::from_raw(0.0, 1.0, vec![0], vec![split(0, 1, 9)], 4).unwrap_err();
        assert!(e.contains("outside"), "{e}");
        // Self-referencing child (cycle).
        let e = CompiledEnsemble::from_raw(0.0, 1.0, vec![0], vec![split(0, 0, 0)], 4).unwrap_err();
        assert!(e.contains("cycle"), "{e}");
        // Split feature outside the feature space.
        let e = CompiledEnsemble::from_raw(0.0, 1.0, vec![0], vec![split(7, 1, 1), leaf], 4)
            .unwrap_err();
        assert!(e.contains("feature"), "{e}");
        // Non-finite leaf value.
        let e = CompiledEnsemble::from_raw(0.0, 1.0, vec![0], vec![(LEAF, 0, 0, f64::NAN)], 4)
            .unwrap_err();
        assert!(e.contains("finite"), "{e}");
        // Non-finite scale.
        let e = CompiledEnsemble::from_raw(0.0, f64::INFINITY, vec![], vec![], 4).unwrap_err();
        assert!(e.contains("finite"), "{e}");
        // A chain one level past the cap is rejected, naming tree, depth and cap.
        let deep = chain(MAX_DEPTH + 1);
        let e = CompiledEnsemble::from_raw(0.0, 1.0, vec![0, 0], deep, 1).unwrap_err();
        assert!(e.contains("tree 0"), "{e}");
        assert!(e.contains(&format!("depth {}", MAX_DEPTH + 1)), "{e}");
        assert!(e.contains(&format!("MAX_DEPTH = {MAX_DEPTH}")), "{e}");
        // A chain at the cap loads and predicts like the pointer walk: a
        // row leaves the chain at the first threshold it is <= to.
        let c = CompiledEnsemble::from_raw(0.5, 2.0, vec![0], chain(MAX_DEPTH), 1).unwrap();
        assert_eq!(c.trees[0].height, MAX_DEPTH);
        let x = Matrix::from_rows(&[vec![-5.0], vec![2.5], vec![100.0], vec![f64::NAN]]);
        let mut out = vec![0.0; x.rows()];
        c.predict_into(&x, &mut out);
        assert_eq!(out, vec![0.5, 0.5 + 2.0 * 30.0, 0.5 - 2.0, 0.5 - 2.0]);
        for (o, row) in out.iter().zip(x.iter_rows()) {
            assert_eq!(o.to_bits(), walk(&c, row).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn predict_into_checks_length() {
        let c = CompiledEnsemble::from_trees(0.0, 1.0, &[]);
        let x = Matrix::from_rows(&[vec![1.0]]);
        c.predict_into(&x, &mut []);
    }
}
