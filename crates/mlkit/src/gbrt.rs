//! Gradient-boosted regression trees.
//!
//! "GBRT builds the model in a stage-wise manner and introduces a weak
//! estimator in each stage based on the gradients of the existing weak
//! estimators" (paper §III-C2). With squared loss the gradient is the
//! residual, so each stage fits a small tree to the current residuals.
//! Feature importance follows the paper's definition: "averaging the number
//! of times that a feature is used as a split point" (§IV-B).
//!
//! Two training kernels sit behind the same options struct
//! ([`GbrtKernel`]): the production **histogram** engine (features binned
//! once per fit, per-node histograms with the parent-minus-sibling
//! subtraction trick, parallel feature chunks via `parkit`) and the
//! **exact-split reference** that scans every candidate threshold — kept,
//! like the placer's `PlaceKernel::ReferenceAnneal`, so the differential
//! suite can prove the fast kernel never silently changes the paper's
//! Table IV numbers. After fitting, the ensemble is compiled
//! into a [`CompiledEnsemble`] (implicit complete trees, branchless
//! descent); batched prediction ([`Regressor::predict`] /
//! [`Regressor::predict_into`]) runs on it and is bit-identical to per-row
//! [`Regressor::predict_one`].

use crate::binning::BinnedMatrix;
use crate::compiled::{CompiledEnsemble, MAX_DEPTH};
use crate::dataset::Matrix;
use crate::model::Regressor;
use crate::tree::{RegressionTree, TreeFitStats, TreeOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which split-search engine fits each boosting stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GbrtKernel {
    /// Histogram engine: binned features, subtraction trick, parallel
    /// histogram construction. The production default.
    #[default]
    Histogram,
    /// Exact-split reference: sorts samples per node and scans every
    /// boundary between distinct values. The accuracy gold standard.
    ReferenceExact,
}

impl GbrtKernel {
    /// Stable display name (used in metrics and kernel stamps).
    pub fn name(&self) -> &'static str {
        match self {
            GbrtKernel::Histogram => "histogram",
            GbrtKernel::ReferenceExact => "reference-exact",
        }
    }
}

/// GBRT hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GbrtOptions {
    /// Number of boosting stages.
    pub n_estimators: usize,
    /// Shrinkage applied to each stage.
    pub learning_rate: f64,
    /// Per-tree growth options. `tree.max_depth` may not exceed
    /// [`crate::compiled::MAX_DEPTH`]: the compiled inference layout
    /// spends `2^depth` leaves per tree, and a fit asserts the cap.
    pub tree: TreeOptions,
    /// Fraction of rows sampled per stage (stochastic gradient boosting).
    pub subsample: f64,
    /// Fraction of features considered per stage.
    pub feature_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Split-search engine. The histogram kernel bins every feature into
    /// at most [`crate::binning::DEFAULT_BINS`] buckets.
    pub kernel: GbrtKernel,
    /// Worker threads for histogram construction (1 = serial). Training is
    /// bit-identical for any value; CV/grid-search factories keep 1 to
    /// avoid nesting thread pools inside parallel folds.
    pub workers: usize,
}

impl Default for GbrtOptions {
    fn default() -> Self {
        GbrtOptions {
            n_estimators: 200,
            learning_rate: 0.08,
            tree: TreeOptions::default(),
            subsample: 0.8,
            feature_fraction: 0.4,
            seed: 11,
            kernel: GbrtKernel::Histogram,
            workers: 1,
        }
    }
}

/// The boosted ensemble.
#[derive(Debug, Clone)]
pub struct GbrtRegressor {
    /// Hyperparameters.
    pub options: GbrtOptions,
    base: f64,
    trees: Vec<RegressionTree>,
    compiled: CompiledEnsemble,
    n_features: usize,
}

impl GbrtRegressor {
    /// A regressor with the given options.
    pub fn new(options: GbrtOptions) -> Self {
        GbrtRegressor {
            options,
            base: 0.0,
            trees: Vec::new(),
            compiled: CompiledEnsemble::default(),
            n_features: 0,
        }
    }

    /// Split-count feature importance, normalized to sum to 1 (the paper's
    /// measure). Empty before fitting.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut counts = vec![0.0f64; self.n_features];
        for t in &self.trees {
            t.for_each_split(|f, _| counts[f] += 1.0);
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }

    /// Gain-weighted feature importance (sklearn-style alternative).
    pub fn feature_importance_gain(&self) -> Vec<f64> {
        let mut gains = vec![0.0f64; self.n_features];
        for t in &self.trees {
            t.for_each_split(|f, g| gains[f] += g.max(0.0));
        }
        let total: f64 = gains.iter().sum();
        if total > 0.0 {
            for g in &mut gains {
                *g /= total;
            }
        }
        gains
    }

    /// Number of fitted stages.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The flattened inference engine for the fitted ensemble.
    pub fn compiled(&self) -> &CompiledEnsemble {
        &self.compiled
    }

    /// [`Regressor::fit`] recording training telemetry into `obs`: the
    /// per-stage squared-loss curve (`train.gbrt.stage_loss` histogram —
    /// deterministic for a given seed), the `train.gbrt.stages` counter,
    /// and the `mlkit.gbrt.*` kernel work counters (histograms scanned vs
    /// derived by subtraction, the slots of the scanned ones, split count,
    /// fit wall-clock).
    pub fn fit_observed(&mut self, x: &Matrix, y: &[f64], obs: &obskit::Collector) {
        self.fit_inner(x, y, Some(obs));
    }

    fn fit_inner(&mut self, x: &Matrix, y: &[f64], obs: Option<&obskit::Collector>) {
        assert_eq!(x.rows(), y.len());
        assert!(!y.is_empty());
        assert!(
            self.options.tree.max_depth <= MAX_DEPTH,
            "tree.max_depth {} exceeds the depth cap MAX_DEPTH = {MAX_DEPTH}",
            self.options.tree.max_depth
        );
        let started = std::time::Instant::now();
        let n = x.rows();
        let p = x.cols();
        self.n_features = p;
        self.base = y.iter().sum::<f64>() / n as f64;
        self.trees.clear();

        // The histogram kernel quantizes features exactly once per fit.
        let binned =
            (self.options.kernel == GbrtKernel::Histogram).then(|| BinnedMatrix::from_matrix(x));
        let workers = self.options.workers.max(1);
        let mut stats = TreeFitStats::default();

        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let mut pred = vec![self.base; n];
        let mut residual = vec![0.0f64; n];
        // This stage's tree value of every row.
        let mut stage = vec![0.0f64; n];
        let mut all_rows: Vec<usize> = (0..n).collect();
        let mut all_feats: Vec<usize> = (0..p).collect();

        let n_rows = (((n as f64) * self.options.subsample).ceil() as usize).clamp(1, n);
        let n_feats = (((p as f64) * self.options.feature_fraction).ceil() as usize).clamp(1, p);

        let mut consecutive_empty = 0usize;
        for _ in 0..self.options.n_estimators {
            for i in 0..n {
                residual[i] = y[i] - pred[i];
            }
            all_rows.shuffle(&mut rng);
            let (rows, out_of_bag) = all_rows.split_at(n_rows);
            all_feats.shuffle(&mut rng);
            let mut feats: Vec<usize> = all_feats[..n_feats].to_vec();
            feats.sort_unstable();

            // The histogram kernel records the leaf of each in-bag row, so
            // only the out-of-bag rows walk the tree for their value.
            let (tree, walked) = match &binned {
                Some(binned) => {
                    let (tree, tree_stats) = RegressionTree::fit_hist_with_leaves(
                        binned,
                        &residual,
                        rows,
                        &feats,
                        &self.options.tree,
                        workers,
                        &mut stage,
                    );
                    stats.absorb(&tree_stats);
                    (tree, out_of_bag)
                }
                None => (
                    RegressionTree::fit_exact(x, &residual, rows, &feats, &self.options.tree),
                    &all_rows[..],
                ),
            };
            if tree.split_count() == 0 {
                // This stage's feature sample had no signal. A few empty
                // stages in a row means the residuals are exhausted.
                consecutive_empty += 1;
                if consecutive_empty >= 8 {
                    break;
                }
                continue;
            }
            consecutive_empty = 0;
            for &i in walked {
                stage[i] = tree.predict_one(x.row(i));
            }
            for (p, v) in pred.iter_mut().zip(&stage) {
                *p += self.options.learning_rate * v;
            }
            self.trees.push(tree);
            if let Some(obs) = obs {
                let loss = pred
                    .iter()
                    .zip(y)
                    .map(|(p, t)| (t - p) * (t - p))
                    .sum::<f64>()
                    / n as f64;
                obs.observe("train.gbrt.stage_loss", loss);
                obs.inc("train.gbrt.stages", 1);
            }
        }

        self.compiled =
            CompiledEnsemble::from_trees(self.base, self.options.learning_rate, &self.trees);

        if let Some(obs) = obs {
            let splits: u64 = self.trees.iter().map(|t| t.split_count() as u64).sum();
            obs.inc("mlkit.gbrt.splits", splits);
            obs.inc("mlkit.gbrt.hist.scanned", stats.hist_scanned);
            obs.inc("mlkit.gbrt.hist.subtracted", stats.hist_subtracted);
            obs.inc("mlkit.gbrt.hist.slots", stats.hist_slots);
            obs.inc(
                match self.options.kernel {
                    GbrtKernel::Histogram => "mlkit.gbrt.fits.histogram",
                    GbrtKernel::ReferenceExact => "mlkit.gbrt.fits.reference_exact",
                },
                1,
            );
            obs.observe("mlkit.gbrt.fit_ms", started.elapsed().as_secs_f64() * 1e3);
        }
    }
}

impl Default for GbrtRegressor {
    fn default() -> Self {
        GbrtRegressor::new(GbrtOptions::default())
    }
}

impl Regressor for GbrtRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        self.fit_inner(x, y, None);
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        self.base
            + self.options.learning_rate
                * self.trees.iter().map(|t| t.predict_one(row)).sum::<f64>()
    }

    /// Batched prediction on the compiled layout — bit-identical to
    /// mapping [`Self::predict_one`] over the rows, just branch-free.
    fn predict_into(&self, x: &Matrix, out: &mut [f64]) {
        self.compiled.predict_into(x, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mae;

    fn friedman_like(n: usize) -> (Matrix, Vec<f64>) {
        // y = 10 sin(x0) + 5 x1^2 + 2 x2, x3 irrelevant.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 31) as f64 / 31.0;
            let b = ((i * 7) % 23) as f64 / 23.0;
            let c = ((i * 13) % 17) as f64 / 17.0;
            let d = ((i * 5) % 11) as f64 / 11.0;
            rows.push(vec![a, b, c, d]);
            y.push(10.0 * (a * 3.0).sin() + 5.0 * b * b + 2.0 * c);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_nonlinear_target() {
        let (x, y) = friedman_like(500);
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: 150,
            ..Default::default()
        });
        m.fit(&x, &y);
        let err = mae(&y, &m.predict(&x));
        let spread =
            y.iter().cloned().fold(f64::MIN, f64::max) - y.iter().cloned().fold(f64::MAX, f64::min);
        assert!(err < spread * 0.08, "mae {err} vs spread {spread}");
    }

    #[test]
    fn reference_exact_kernel_fits_nonlinear_target() {
        let (x, y) = friedman_like(400);
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: 100,
            kernel: GbrtKernel::ReferenceExact,
            ..Default::default()
        });
        m.fit(&x, &y);
        let err = mae(&y, &m.predict(&x));
        let spread =
            y.iter().cloned().fold(f64::MIN, f64::max) - y.iter().cloned().fold(f64::MAX, f64::min);
        assert!(err < spread * 0.08, "mae {err} vs spread {spread}");
    }

    #[test]
    fn kernels_agree_within_tolerance() {
        let (x, y) = friedman_like(400);
        let fit_with = |kernel| {
            let mut m = GbrtRegressor::new(GbrtOptions {
                n_estimators: 80,
                kernel,
                ..Default::default()
            });
            m.fit(&x, &y);
            mae(&y, &m.predict(&x))
        };
        let hist = fit_with(GbrtKernel::Histogram);
        let exact = fit_with(GbrtKernel::ReferenceExact);
        assert!(
            (hist - exact).abs() <= exact.max(0.05) * 0.35,
            "hist {hist} vs exact {exact}"
        );
    }

    #[test]
    fn batched_predict_matches_per_row_bitwise() {
        let (x, y) = friedman_like(300);
        for kernel in [GbrtKernel::Histogram, GbrtKernel::ReferenceExact] {
            let mut m = GbrtRegressor::new(GbrtOptions {
                n_estimators: 40,
                kernel,
                ..Default::default()
            });
            m.fit(&x, &y);
            let batched = m.predict(&x);
            for (i, row) in x.iter_rows().enumerate() {
                assert_eq!(
                    batched[i].to_bits(),
                    m.predict_one(row).to_bits(),
                    "{kernel:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn importance_finds_informative_features() {
        let (x, y) = friedman_like(500);
        let mut m = GbrtRegressor::default();
        m.fit(&x, &y);
        let imp = m.feature_importance();
        assert_eq!(imp.len(), 4);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // x0 (the sine input) dominates the irrelevant x3.
        assert!(imp[0] > imp[3]);
        let gain = m.feature_importance_gain();
        assert!(gain[0] > gain[3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = friedman_like(200);
        let mut a = GbrtRegressor::default();
        a.fit(&x, &y);
        let mut b = GbrtRegressor::default();
        b.fit(&x, &y);
        assert_eq!(a.predict_one(x.row(5)), b.predict_one(x.row(5)));
    }

    #[test]
    fn worker_count_does_not_change_the_model() {
        let (x, y) = friedman_like(300);
        let fit_with = |workers| {
            let mut m = GbrtRegressor::new(GbrtOptions {
                n_estimators: 30,
                workers,
                ..Default::default()
            });
            m.fit(&x, &y);
            m.predict(&x)
        };
        let serial = fit_with(1);
        let parallel = fit_with(8);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn more_trees_fit_better() {
        let (x, y) = friedman_like(300);
        let mut small = GbrtRegressor::new(GbrtOptions {
            n_estimators: 5,
            ..Default::default()
        });
        small.fit(&x, &y);
        let mut big = GbrtRegressor::new(GbrtOptions {
            n_estimators: 200,
            ..Default::default()
        });
        big.fit(&x, &y);
        assert!(mae(&y, &big.predict(&x)) < mae(&y, &small.predict(&x)));
    }

    #[test]
    fn observed_fit_matches_plain_fit_and_records_loss_curve() {
        let (x, y) = friedman_like(200);
        let mut plain = GbrtRegressor::default();
        plain.fit(&x, &y);
        let obs = obskit::Collector::new();
        let mut observed = GbrtRegressor::default();
        observed.fit_observed(&x, &y, &obs);
        assert_eq!(
            plain.predict_one(x.row(3)),
            observed.predict_one(x.row(3)),
            "telemetry must not perturb training"
        );
        let rec = obs.finish();
        assert_eq!(
            rec.metrics.counters["train.gbrt.stages"],
            observed.n_trees() as u64
        );
        let h = &rec.metrics.histograms["train.gbrt.stage_loss"];
        assert_eq!(h.count(), observed.n_trees() as u64);
        assert!(h.sum().is_finite() && h.sum() >= 0.0);
    }

    #[test]
    fn observed_fit_records_kernel_work_counters() {
        let (x, y) = friedman_like(200);
        let obs = obskit::Collector::new();
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: 20,
            tree: TreeOptions {
                max_depth: 4,
                ..Default::default()
            },
            ..Default::default()
        });
        m.fit_observed(&x, &y, &obs);
        let rec = obs.finish();
        let scanned = rec.metrics.counters["mlkit.gbrt.hist.scanned"];
        let subtracted = rec.metrics.counters["mlkit.gbrt.hist.subtracted"];
        let splits = rec.metrics.counters["mlkit.gbrt.splits"];
        assert_eq!(m.n_trees(), 20, "every stage fits a tree");
        assert!(splits > 0);
        assert!(subtracted > 0, "subtraction trick engaged");
        // One scan per stage (the root) plus one per subtraction (the
        // smaller child); the larger child's histogram is derived, never
        // scanned.
        assert_eq!(scanned, m.n_trees() as u64 + subtracted);
        // Splits whose children are leaves (all of depth 3's) build no
        // child histogram.
        assert!(subtracted < splits, "{subtracted} of {splits} splits");
        assert_eq!(rec.metrics.counters["mlkit.gbrt.fits.histogram"], 1);
        assert_eq!(rec.metrics.histograms["mlkit.gbrt.fit_ms"].count(), 1);
    }

    #[test]
    fn scanned_histograms_hold_one_slot_per_bin_of_each_splittable_feature() {
        // Two constant columns and one 2-bin column beside friedman_like's
        // four: the constants get no slots.
        let (x, y) = friedman_like(200);
        let rows: Vec<Vec<f64>> = x
            .iter_rows()
            .enumerate()
            .map(|(i, r)| {
                let mut r = r.to_vec();
                r.extend([7.0, (i % 2) as f64, -1.0]);
                r
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let obs = obskit::Collector::new();
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: 20,
            feature_fraction: 1.0,
            ..Default::default()
        });
        m.fit_observed(&x, &y, &obs);
        let rec = obs.finish();
        let binned = BinnedMatrix::from_matrix(&x);
        let bins: u64 = (0..x.cols())
            .map(|j| binned.n_bins(j) as u64)
            .filter(|&nb| nb > 1)
            .sum();
        assert_eq!(binned.n_bins(4), 1);
        assert_eq!(binned.n_bins(5), 2);
        let scanned = rec.metrics.counters["mlkit.gbrt.hist.scanned"];
        assert!(scanned > 0);
        assert_eq!(
            rec.metrics.counters["mlkit.gbrt.hist.slots"],
            scanned * bins
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the depth cap")]
    fn fit_rejects_trees_deeper_than_the_cap() {
        let (x, y) = friedman_like(50);
        let mut m = GbrtRegressor::new(GbrtOptions {
            tree: TreeOptions {
                max_depth: MAX_DEPTH + 1,
                ..Default::default()
            },
            ..Default::default()
        });
        m.fit(&x, &y);
    }

    #[test]
    fn constant_target_stops_early() {
        let x = Matrix::from_rows(&(0..50).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let y = vec![3.5; 50];
        let mut m = GbrtRegressor::default();
        m.fit(&x, &y);
        assert_eq!(m.n_trees(), 0, "no residual structure to fit");
        assert!((m.predict_one(&[10.0]) - 3.5).abs() < 1e-9);
    }
}
