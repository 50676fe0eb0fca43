//! CART regression trees: histogram training engine + exact-split reference.
//!
//! Two fit kernels produce the same tree *type* (raw-value thresholds, so
//! prediction never needs the training-time representation):
//!
//! * [`RegressionTree::fit_hist`] — the production engine. Features are
//!   quantized once per ensemble ([`BinnedMatrix`]), per-node split search
//!   accumulates gradient/count histograms over bin codes, and each split
//!   only *scans* the smaller child — the larger child's histogram is
//!   derived with the parent-minus-sibling subtraction trick (LightGBM's
//!   scheme). A split whose children are leaves by depth or size builds
//!   no histogram for them. Rows are partitioned stably in one buffer per
//!   tree, which also tells the caller each in-bag row's leaf
//!   ([`RegressionTree::fit_hist_with_leaves`]). A node's histogram has
//!   one slot per bin of each candidate feature with more than one bin,
//!   at prefix-sum offsets of their bin counts; one-bin features can
//!   never split and are never scanned.
//!   Large nodes build it across feature chunks via `parkit`; every
//!   (feature, bin) accumulator sees its addends in sample order
//!   regardless of chunking, so the result is **bit-identical for any
//!   worker count**.
//! * [`RegressionTree::fit_exact`] — the reference kernel
//!   (`GbrtRegressor::fit_reference`): sorts the node's samples per feature
//!   and scans every boundary between distinct values. Slow, but the
//!   accuracy gold standard the differential suite compares against.

pub use crate::binning::BinnedMatrix;
use crate::dataset::Matrix;
use std::ops::Range;

/// Default bin budget, re-exported for backward compatibility.
pub const BINS: usize = crate::binning::DEFAULT_BINS;

/// Tree growth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeOptions {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions {
            max_depth: 3,
            min_samples_leaf: 5,
        }
    }
}

/// Work accounting for one histogram-kernel fit (summed over an ensemble by
/// [`crate::gbrt::GbrtRegressor`] into the `mlkit.gbrt.*` obskit counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeFitStats {
    /// Node histograms built by scanning rows: the root's, if it searches
    /// for a split, and the smaller child's at each subtraction.
    pub hist_scanned: u64,
    /// Of those, the scans that fanned out over the worker pool. The only
    /// counter that depends on the worker count: 0 at one worker.
    pub hist_pooled: u64,
    /// (count, sum) slots of every scanned histogram: one per bin of each
    /// candidate feature that can split.
    pub hist_slots: u64,
    /// Node histograms derived via parent-minus-sibling subtraction: one
    /// per split whose larger child searches. Splits whose children are
    /// both leaves by depth or size build no child histogram.
    pub hist_subtracted: u64,
    /// Nodes emitted (splits + leaves).
    pub nodes: u64,
    /// Split nodes emitted.
    pub splits: u64,
}

impl TreeFitStats {
    /// Accumulate another fit's counters.
    pub fn absorb(&mut self, other: &TreeFitStats) {
        self.hist_scanned += other.hist_scanned;
        self.hist_pooled += other.hist_pooled;
        self.hist_slots += other.hist_slots;
        self.hist_subtracted += other.hist_subtracted;
        self.nodes += other.nodes;
        self.splits += other.splits;
    }
}

/// A fitted tree node. `pub(crate)` so [`crate::compiled`] can flatten
/// ensembles into its SoA node table.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Values `<= threshold` go left.
        threshold: f64,
        left: usize,
        right: usize,
        /// Variance reduction achieved.
        gain: f64,
    },
}

impl Default for Node {
    fn default() -> Self {
        Node::Leaf { value: 0.0 }
    }
}

/// A CART regression tree.
#[derive(Debug, Clone, Default)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

/// Gains below this are noise, not structure; both kernels share the cutoff
/// so their "no split" decisions agree on flat targets.
const MIN_GAIN: f64 = 1e-12;

/// Minimum `samples × features` product (features that can split) before
/// a node's histogram fans out to parallel workers. On a 2-vCPU x86-64 VM
/// spawning and joining the scoped workers costs ~70 µs and a serial scan
/// ~1.35 ns per (sample, feature) cell, so two workers can win only well
/// above 100 k cells; whole fits of the train-bench data were slower with
/// two workers at 2^15 and at 2^17.
const PAR_THRESHOLD: usize = 1 << 18;

/// Per-node count/sum histograms, one slot per bin of each feature that
/// can split, laid out by [`HistCtx::offsets`].
struct Hist {
    counts: Vec<u32>,
    sums: Vec<f64>,
}

impl Hist {
    /// Derive this histogram minus `other` in place: the subtraction trick
    /// turning a parent histogram into the larger child's.
    fn subtract(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a -= b;
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a -= b;
        }
    }
}

/// Shared, immutable context of one histogram-kernel fit.
struct HistCtx<'a> {
    binned: &'a BinnedMatrix,
    y: &'a [f64],
    /// The caller's candidate features that have more than one bin, in the
    /// caller's order. A one-bin feature can never split, so it gets no
    /// slots and is never scanned.
    features: Vec<usize>,
    /// Prefix sums of the bin counts of `features`: feature `k` owns slots
    /// `offsets[k]..offsets[k + 1]`, and the last entry is the slot total.
    offsets: Vec<usize>,
    opts: TreeOptions,
    workers: usize,
}

impl HistCtx<'_> {
    /// Whether a node of `n` rows at `depth` searches for a split. A node
    /// that does not is a leaf whatever its rows hold, so it never reads
    /// a histogram.
    fn searches(&self, depth: usize, n: usize) -> bool {
        depth < self.opts.max_depth && n >= 2 * self.opts.min_samples_leaf
    }

    /// Build the count/sum histograms of one node by scanning its samples,
    /// and account the scan in `stats`.
    ///
    /// Large nodes fan out over contiguous feature chunks on `workers`
    /// parkit threads. Each (feature, bin) accumulator receives its addends
    /// in sample order no matter how features are chunked, and chunk
    /// results are concatenated in feature order (parkit's ordered map), so
    /// the result is bit-identical for any worker count.
    fn build_hist(&self, samples: &[usize], stats: &mut TreeFitStats) -> Hist {
        let nf = self.features.len();
        let total = self.offsets[nf];
        stats.hist_scanned += 1;
        stats.hist_slots += total as u64;
        if self.workers > 1 && nf > 1 && samples.len().saturating_mul(nf) >= PAR_THRESHOLD {
            stats.hist_pooled += 1;
            let chunk_len = nf.div_ceil(self.workers);
            let starts: Vec<usize> = (0..nf).step_by(chunk_len).collect();
            let parts = parkit::par_map_threads(self.workers, &starts, |&lo| {
                self.scan_chunk(lo..nf.min(lo + chunk_len), samples)
            });
            let mut hist = Hist {
                counts: Vec::with_capacity(total),
                sums: Vec::with_capacity(total),
            };
            for part in parts {
                hist.counts.extend_from_slice(&part.counts);
                hist.sums.extend_from_slice(&part.sums);
            }
            hist
        } else {
            self.scan_chunk(0..nf, samples)
        }
    }

    /// Histogram the candidate features `chunk` (indices into `features`)
    /// into slots numbered from the chunk's first. Row-major scan,
    /// cache-friendly on the bin-code matrix.
    ///
    /// Four rows per pass over the (column, first slot) plan: one load of
    /// each plan entry serves four cells. Within a pass the four rows add
    /// to a feature's slots in sample order, and every slot belongs to one
    /// feature, so each slot still gets its addends in sample order and
    /// its sum is the same float as a one-row-at-a-time scan's.
    fn scan_chunk(&self, chunk: Range<usize>, samples: &[usize]) -> Hist {
        let first = self.offsets[chunk.start];
        let len = self.offsets[chunk.end] - first;
        let plan: Vec<(usize, usize)> = self.features[chunk.clone()]
            .iter()
            .zip(&self.offsets[chunk])
            .map(|(&fj, &off)| (fj, off - first))
            .collect();
        let mut counts = vec![0u32; len];
        let mut sums = vec![0.0f64; len];
        let mut quads = samples.chunks_exact(4);
        for quad in &mut quads {
            let &[i0, i1, i2, i3] = quad else {
                unreachable!("chunks_exact(4) yields four rows")
            };
            let (y0, y1, y2, y3) = (self.y[i0], self.y[i1], self.y[i2], self.y[i3]);
            let (c0, c1, c2, c3) = (
                self.binned.row(i0),
                self.binned.row(i1),
                self.binned.row(i2),
                self.binned.row(i3),
            );
            for &(fj, slot) in &plan {
                let b0 = slot + c0[fj] as usize;
                let b1 = slot + c1[fj] as usize;
                let b2 = slot + c2[fj] as usize;
                let b3 = slot + c3[fj] as usize;
                counts[b0] += 1;
                sums[b0] += y0;
                counts[b1] += 1;
                sums[b1] += y1;
                counts[b2] += 1;
                sums[b2] += y2;
                counts[b3] += 1;
                sums[b3] += y3;
            }
        }
        for &i in quads.remainder() {
            let yi = self.y[i];
            let codes = self.binned.row(i);
            for &(fj, slot) in &plan {
                let b = slot + codes[fj] as usize;
                counts[b] += 1;
                sums[b] += yi;
            }
        }
        Hist { counts, sums }
    }
}

/// Mutable state of one histogram-kernel fit besides the node table.
struct Grow<'a> {
    /// Holds the right rows of a partition until they are copied back.
    scratch: Vec<usize>,
    /// The leaf value of each partitioned row, indexed by sample id.
    leaf_value: &'a mut [f64],
    stats: TreeFitStats,
}

/// Reorder `rows` so the rows `goes_left` accepts come first, and return
/// how many there are. Stable: both sides keep their rows in the order
/// they had, so a child's sums and histograms add in the same order as an
/// out-of-place partition. `scratch` must be at least as long as `rows`.
///
/// Branch-free: each row is written to both sides, and only the index of
/// the side it belongs to advances, so the next row overwrites the other
/// copy. The left write never passes the row being read (`n_left <= k`).
fn partition_stable(
    rows: &mut [usize],
    scratch: &mut [usize],
    goes_left: impl Fn(usize) -> bool,
) -> usize {
    let mut n_left = 0;
    for k in 0..rows.len() {
        let i = rows[k];
        let left = usize::from(goes_left(i));
        rows[n_left] = i;
        scratch[k - n_left] = i;
        n_left += left;
    }
    let n_right = rows.len() - n_left;
    rows[n_left..].copy_from_slice(&scratch[..n_right]);
    n_left
}

impl RegressionTree {
    /// Histogram-kernel fit on the given sample indices of a binned matrix
    /// against targets `y` (full-length array indexed by sample id),
    /// restricted to `features`. Serial; see [`Self::fit_hist`] for the
    /// parallel engine with work accounting.
    pub fn fit(
        binned: &BinnedMatrix,
        y: &[f64],
        samples: &[usize],
        features: &[usize],
        opts: &TreeOptions,
    ) -> RegressionTree {
        Self::fit_hist(binned, y, samples, features, opts, 1).0
    }

    /// Histogram-kernel fit with up to `workers` parkit threads building
    /// node histograms. Bit-identical output for any `workers` value.
    pub fn fit_hist(
        binned: &BinnedMatrix,
        y: &[f64],
        samples: &[usize],
        features: &[usize],
        opts: &TreeOptions,
        workers: usize,
    ) -> (RegressionTree, TreeFitStats) {
        let mut leaf_value = vec![0.0; y.len()];
        Self::fit_hist_with_leaves(binned, y, samples, features, opts, workers, &mut leaf_value)
    }

    /// [`Self::fit_hist`] that also writes, for each row `i` of `samples`,
    /// the value of the leaf the fit partitioned it into to
    /// `leaf_value[i]` (indexed like `y`; other entries are left as they
    /// are). That is the value [`Self::predict_one`] returns for the row:
    /// a split at bin `b` is the raw split `v <= thresholds[b]`, NaN
    /// included (see [`crate::binning`]).
    pub fn fit_hist_with_leaves(
        binned: &BinnedMatrix,
        y: &[f64],
        samples: &[usize],
        features: &[usize],
        opts: &TreeOptions,
        workers: usize,
        leaf_value: &mut [f64],
    ) -> (RegressionTree, TreeFitStats) {
        let features: Vec<usize> = features
            .iter()
            .copied()
            .filter(|&fj| binned.n_bins(fj) > 1)
            .collect();
        let mut offsets = Vec::with_capacity(features.len() + 1);
        let mut total = 0;
        offsets.push(total);
        for &fj in &features {
            total += binned.n_bins(fj);
            offsets.push(total);
        }
        let ctx = HistCtx {
            binned,
            y,
            features,
            offsets,
            opts: *opts,
            workers: workers.max(1),
        };
        let mut tree = RegressionTree { nodes: Vec::new() };
        let mut grow = Grow {
            scratch: vec![0; samples.len()],
            leaf_value,
            stats: TreeFitStats::default(),
        };
        let mut rows = samples.to_vec();
        let hist = ctx
            .searches(0, rows.len())
            .then(|| ctx.build_hist(&rows, &mut grow.stats));
        tree.grow_hist(&ctx, &mut grow, &mut rows, hist, 0);
        (tree, grow.stats)
    }

    /// Grow the subtree of the node holding `rows` at `depth`. `hist` is
    /// the node's histogram; only a node that [`HistCtx::searches`] has
    /// one.
    fn grow_hist(
        &mut self,
        ctx: &HistCtx<'_>,
        grow: &mut Grow<'_>,
        rows: &mut [usize],
        hist: Option<Hist>,
        depth: usize,
    ) -> usize {
        let n = rows.len();
        let sum: f64 = rows.iter().map(|&i| ctx.y[i]).sum();
        let mean = sum / n.max(1) as f64;

        let make_leaf = |nodes: &mut Vec<Node>, grow: &mut Grow<'_>| {
            for &i in rows.iter() {
                grow.leaf_value[i] = mean;
            }
            let id = nodes.len();
            nodes.push(Node::Leaf { value: mean });
            grow.stats.nodes += 1;
            id
        };

        if !ctx.searches(depth, n) {
            return make_leaf(&mut self.nodes, grow);
        }
        let hist = hist.expect("a node that searches has a histogram");

        // Best split over features × bins; ties resolve to the first
        // candidate in (feature, bin) order via strict `>`. No candidate
        // sits at a feature's last bin (everything would go left). A
        // column's NaNs have that bin to themselves, so every learned split
        // sends NaN right, as `predict_one` does. `left_cnt` only grows, so
        // once the right side is below `min_samples_leaf` no later bin of
        // the feature can split either.
        let min_leaf = ctx.opts.min_samples_leaf;
        let parent_score = sum * sum / n as f64;
        let mut best_gain = MIN_GAIN;
        let mut best: Option<(usize, usize)> = None; // (feature, bin)
        for (k, &fj) in ctx.features.iter().enumerate() {
            let slots = ctx.offsets[k]..ctx.offsets[k + 1] - 1;
            let counts = &hist.counts[slots.clone()];
            let sums = &hist.sums[slots];
            let mut left_cnt = 0usize;
            let mut left_sum = 0.0f64;
            for (b, (&count, &bin_sum)) in counts.iter().zip(sums).enumerate() {
                left_cnt += count as usize;
                left_sum += bin_sum;
                let right_cnt = n - left_cnt;
                if right_cnt < min_leaf {
                    break;
                }
                if left_cnt < min_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let score = left_sum * left_sum / left_cnt as f64
                    + right_sum * right_sum / right_cnt as f64;
                let gain = score - parent_score;
                if gain > best_gain {
                    best_gain = gain;
                    best = Some((fj, b));
                }
            }
        }

        let Some((feature, bin)) = best else {
            return make_leaf(&mut self.nodes, grow);
        };

        let n_left = partition_stable(rows, &mut grow.scratch, |i| {
            ctx.binned.bin(i, feature) <= bin
        });
        let (left_rows, right_rows) = rows.split_at_mut(n_left);

        // A child that will not search needs no histogram. If the larger
        // child searches, scan only the smaller child and derive the
        // larger as parent − sibling (the subtraction trick); scanning the
        // larger one directly would round its sums differently. If the
        // larger child does not search, neither does the smaller.
        let left_is_small = left_rows.len() <= right_rows.len();
        let n_large = left_rows.len().max(right_rows.len());
        let (left_hist, right_hist) = if ctx.searches(depth + 1, n_large) {
            let small = if left_is_small {
                &*left_rows
            } else {
                &*right_rows
            };
            let small_hist = ctx.build_hist(small, &mut grow.stats);
            let mut large_hist = hist;
            large_hist.subtract(&small_hist);
            grow.stats.hist_subtracted += 1;
            if left_is_small {
                (Some(small_hist), Some(large_hist))
            } else {
                (Some(large_hist), Some(small_hist))
            }
        } else {
            (None, None)
        };

        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder
        grow.stats.nodes += 1;
        grow.stats.splits += 1;
        let left = self.grow_hist(ctx, grow, left_rows, left_hist, depth + 1);
        let right = self.grow_hist(ctx, grow, right_rows, right_hist, depth + 1);
        self.nodes[id] = Node::Split {
            feature,
            threshold: ctx.binned.thresholds[feature][bin],
            left,
            right,
            gain: best_gain,
        };
        id
    }

    /// Exact-split reference fit: per node, sort the samples by each
    /// candidate feature and scan every boundary between distinct values.
    /// O(samples · log samples · features) per node — the accuracy gold
    /// standard (`GbrtRegressor::fit_reference`), not the production path.
    pub fn fit_exact(
        x: &Matrix,
        y: &[f64],
        samples: &[usize],
        features: &[usize],
        opts: &TreeOptions,
    ) -> RegressionTree {
        let mut tree = RegressionTree { nodes: Vec::new() };
        tree.grow_exact(x, y, samples.to_vec(), features, opts, 0);
        tree
    }

    fn grow_exact(
        &mut self,
        x: &Matrix,
        y: &[f64],
        samples: Vec<usize>,
        features: &[usize],
        opts: &TreeOptions,
        depth: usize,
    ) -> usize {
        let n = samples.len();
        let sum: f64 = samples.iter().map(|&i| y[i]).sum();
        let mean = sum / n.max(1) as f64;

        let make_leaf = |nodes: &mut Vec<Node>| {
            let id = nodes.len();
            nodes.push(Node::Leaf { value: mean });
            id
        };

        if depth >= opts.max_depth || n < 2 * opts.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &fj in features {
            pairs.clear();
            pairs.extend(samples.iter().map(|&i| (x.row(i)[fj], y[i])));
            // Stable sort: ties keep sample order, so prefix sums are
            // deterministic.
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut left_sum = 0.0f64;
            for (i, &(v, yi)) in pairs.iter().take(n - 1).enumerate() {
                left_sum += yi;
                if v == pairs[i + 1].0 {
                    continue; // not a boundary between distinct values
                }
                let left_cnt = i + 1;
                let right_cnt = n - left_cnt;
                if left_cnt < opts.min_samples_leaf || right_cnt < opts.min_samples_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let score = left_sum * left_sum / left_cnt as f64
                    + right_sum * right_sum / right_cnt as f64;
                let gain = score - sum * sum / n as f64;
                if gain > best.map(|(_, _, g)| g).unwrap_or(MIN_GAIN) {
                    best = Some((fj, v, gain));
                }
            }
        }

        let Some((feature, threshold, gain)) = best else {
            return make_leaf(&mut self.nodes);
        };

        let (left_samples, right_samples): (Vec<usize>, Vec<usize>) = samples
            .iter()
            .partition(|&&i| x.row(i)[feature] <= threshold);

        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder
        let left = self.grow_exact(x, y, left_samples, features, opts, depth + 1);
        let right = self.grow_exact(x, y, right_samples, features, opts, depth + 1);
        self.nodes[id] = Node::Split {
            feature,
            threshold,
            left,
            right,
            gain,
        };
        id
    }

    /// Predict one raw (un-binned) feature row.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Visit all splits: `(feature, gain)` per split node.
    pub fn for_each_split(&self, mut f: impl FnMut(usize, f64)) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                f(*feature, *gain);
            }
        }
    }

    /// Number of split nodes.
    pub fn split_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count()
    }

    /// The node table, for ensemble compilation.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        // y = 10 if x0 > 0.5 else 0
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let v = i as f64 / 100.0;
            rows.push(vec![v, 0.0]);
            y.push(if v > 0.5 { 10.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_step_function() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let features = vec![0, 1];
        let t = RegressionTree::fit(&binned, &y, &samples, &features, &TreeOptions::default());
        assert!(t.split_count() >= 1);
        assert!((t.predict_one(&[0.2, 0.0]) - 0.0).abs() < 1.0);
        assert!((t.predict_one(&[0.9, 0.0]) - 10.0).abs() < 1.0);
    }

    #[test]
    fn exact_kernel_learns_step_function() {
        let (x, y) = step_data();
        let samples: Vec<usize> = (0..x.rows()).collect();
        let t = RegressionTree::fit_exact(&x, &y, &samples, &[0, 1], &TreeOptions::default());
        assert!(t.split_count() >= 1);
        assert!((t.predict_one(&[0.2, 0.0]) - 0.0).abs() < 1.0);
        assert!((t.predict_one(&[0.9, 0.0]) - 10.0).abs() < 1.0);
    }

    #[test]
    fn hist_and_exact_agree_on_clean_step() {
        // With one distinct value per bin the kernels see the same split
        // candidates, so the fitted trees predict identically.
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let h = RegressionTree::fit(&binned, &y, &samples, &[0, 1], &TreeOptions::default());
        let e = RegressionTree::fit_exact(&x, &y, &samples, &[0, 1], &TreeOptions::default());
        for row in x.iter_rows() {
            assert_eq!(h.predict_one(row).to_bits(), e.predict_one(row).to_bits());
        }
    }

    #[test]
    fn splits_on_informative_feature() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let t = RegressionTree::fit(&binned, &y, &samples, &[0, 1], &TreeOptions::default());
        let mut feats = Vec::new();
        t.for_each_split(|f, _| feats.push(f));
        assert!(feats.contains(&0));
        assert!(!feats.contains(&1), "constant feature never split");
    }

    #[test]
    fn respects_max_depth_zero() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let t = RegressionTree::fit(
            &binned,
            &y,
            &samples,
            &[0, 1],
            &TreeOptions {
                max_depth: 0,
                min_samples_leaf: 1,
            },
        );
        assert_eq!(t.split_count(), 0);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((t.predict_one(&[0.9, 0.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let t = RegressionTree::fit(
            &binned,
            &y,
            &samples,
            &[0, 1],
            &TreeOptions {
                max_depth: 10,
                min_samples_leaf: 60,
            },
        );
        // Can't split 100 samples into two leaves of >= 60.
        assert_eq!(t.split_count(), 0);
    }

    #[test]
    fn worker_count_does_not_change_the_tree() {
        // Large enough that the pool engages at the root and below it.
        let n = 3000;
        let nf = 200;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..nf)
                    .map(|j| (((i * 31 + j * 17) % 251) as f64) * 0.37)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| rows[i][0] * 2.0 - rows[i][1] + (rows[i][2] * 0.1).sin())
            .collect();
        let x = Matrix::from_rows(&rows);
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..n).collect();
        let features: Vec<usize> = (0..nf).collect();
        let opts = TreeOptions {
            max_depth: 5,
            min_samples_leaf: 3,
        };
        let (serial, s1) = RegressionTree::fit_hist(&binned, &y, &samples, &features, &opts, 1);
        let (parallel, s8) = RegressionTree::fit_hist(&binned, &y, &samples, &features, &opts, 8);
        assert_eq!(s1.hist_pooled, 0, "one worker never pools");
        assert!(s8.hist_pooled > 1, "the pool runs below the root: {s8:?}");
        assert_eq!(
            s1,
            TreeFitStats {
                hist_pooled: 0,
                ..s8
            },
            "identical work accounting"
        );
        for row in x.iter_rows() {
            assert_eq!(
                serial.predict_one(row).to_bits(),
                parallel.predict_one(row).to_bits(),
                "1 vs 8 workers must agree to the bit"
            );
        }
    }

    #[test]
    fn nan_goes_right_in_training_as_in_prediction() {
        // Values 1..=9 (target 0) and three NaN rows (target 100), NaN of
        // either sign: the NaN bin sits after every number, so the one
        // split separates the NaNs, and `predict_one` routes them the
        // same way.
        for nan in [f64::NAN, f64::from_bits(0xfff8_0000_0000_0000)] {
            let mut rows: Vec<Vec<f64>> = (1..=9).map(|v| vec![v as f64]).collect();
            let mut y = vec![0.0; 9];
            for _ in 0..3 {
                rows.push(vec![nan]);
                y.push(100.0);
            }
            let x = Matrix::from_rows(&rows);
            let binned = BinnedMatrix::from_matrix(&x);
            let samples: Vec<usize> = (0..x.rows()).collect();
            let opts = TreeOptions {
                max_depth: 1,
                min_samples_leaf: 1,
            };
            let t = RegressionTree::fit(&binned, &y, &samples, &[0], &opts);
            assert_eq!(t.split_count(), 1);
            assert_eq!(
                t.predict_one(&[1.0]),
                0.0,
                "sign bit {}",
                nan.is_sign_negative()
            );
            assert_eq!(t.predict_one(&[9.0]), 0.0);
            assert_eq!(t.predict_one(&[nan]), 100.0);
        }
    }

    /// `(depth, rows of x reaching it)` of every node of `t`.
    fn node_depths_and_rows(t: &RegressionTree, x: &Matrix) -> Vec<(usize, usize)> {
        let mut out = vec![(0, 0); t.nodes.len()];
        for (id, node) in t.nodes.iter().enumerate() {
            if let Node::Split { left, right, .. } = node {
                out[*left].0 = out[id].0 + 1;
                out[*right].0 = out[id].0 + 1;
            }
        }
        for row in x.iter_rows() {
            let mut id = 0;
            loop {
                out[id].1 += 1;
                match &t.nodes[id] {
                    Node::Leaf { .. } => break,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        ..
                    } => {
                        id = if row[*feature] <= *threshold {
                            *left
                        } else {
                            *right
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn subtraction_trick_scans_fewer_histograms_than_nodes() {
        // A ramp splits its rows in halves: 100, 50, 25, then 12 and 13.
        // Nodes of 13 rows or fewer are leaves at min_samples_leaf 7, so
        // the four splits at depth 2 have leaf-only children and build no
        // histogram for them.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 0.0]).collect();
        let y: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let opts = TreeOptions {
            max_depth: 4,
            min_samples_leaf: 7,
        };
        let (t, stats) = RegressionTree::fit_hist(&binned, &y, &samples, &[0, 1], &opts, 1);
        assert_eq!(stats.splits, t.split_count() as u64);
        // One scanned histogram for the root, one for the smaller child of
        // each split whose larger child searches; that child's comes from
        // subtraction.
        let info = node_depths_and_rows(&t, &x);
        let searching_splits = t
            .nodes
            .iter()
            .enumerate()
            .filter(|(id, node)| match node {
                Node::Split { left, right, .. } => {
                    let large = info[*left].1.max(info[*right].1);
                    info[*id].0 + 1 < opts.max_depth && large >= 2 * opts.min_samples_leaf
                }
                Node::Leaf { .. } => false,
            })
            .count() as u64;
        assert_eq!(stats.hist_subtracted, searching_splits);
        assert_eq!(stats.hist_scanned, 1 + stats.hist_subtracted);
        assert_eq!((stats.splits, stats.hist_subtracted), (7, 3), "{stats:?}");
    }

    #[test]
    fn leaf_only_children_scan_nothing() {
        // At max_depth 1 both children of the root split are leaves: the
        // root's histogram is the only one, and nothing is subtracted.
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let opts = TreeOptions {
            max_depth: 1,
            min_samples_leaf: 2,
        };
        let (t, stats) = RegressionTree::fit_hist(&binned, &y, &samples, &[0, 1], &opts, 1);
        assert_eq!(t.split_count(), 1);
        assert_eq!(stats.splits, 1);
        assert_eq!(stats.hist_scanned, 1);
        assert_eq!(stats.hist_subtracted, 0);
        assert_eq!(stats.hist_slots, binned.n_bins(0) as u64);
    }

    #[test]
    fn partition_is_stable_on_both_sides() {
        let mut rows = vec![9, 2, 7, 4, 1, 8, 3];
        let mut scratch = vec![0; rows.len()];
        let n_left = partition_stable(&mut rows, &mut scratch, |i| i % 2 == 0);
        assert_eq!(n_left, 3);
        assert_eq!(rows, [2, 4, 8, 9, 7, 1, 3]);
    }

    proptest! {
        #[test]
        fn partition_keeps_both_sides_in_iterator_partition_order(
            rows in prop::collection::vec(0usize..64, 0..300),
            side in prop::collection::vec(any::<bool>(), 64),
            slack in 0usize..3,
        ) {
            let (left, right): (Vec<usize>, Vec<usize>) =
                rows.iter().partition(|&&i| side[i]);
            let mut got = rows.clone();
            let mut scratch = vec![usize::MAX; rows.len() + slack];
            let n_left = partition_stable(&mut got, &mut scratch, |i| side[i]);
            prop_assert_eq!(n_left, left.len());
            prop_assert_eq!(&got[..n_left], &left[..]);
            prop_assert_eq!(&got[n_left..], &right[..]);
        }
    }
}
