//! Congestion prediction models (paper §III-C2, §IV-A).
//!
//! Wraps the three regressors the paper compares — Lasso, ANN, GBRT — behind
//! one interface, with optional grid search over the paper's protocol
//! (k-fold cross-validation on the training set only).

use crate::dataset::{CongestionDataset, Target};
use crate::features::{ExtractCtx, FEATURE_COUNT};
use crate::graph::DepGraph;
use fpga_fabric::Device;
use hls_ir::{FuncId, OpId};
use hls_synth::SynthesizedDesign;
use mlkit::cv::cross_val_mae_observed;
use mlkit::metrics::{mae, medae};
use mlkit::tree::TreeOptions;
use mlkit::{GbrtOptions, GbrtRegressor, Lasso, LassoOptions, MlpOptions, MlpRegressor, Regressor};
use obskit::Collector;

/// Which model family to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Lasso linear regression.
    Linear,
    /// Multi-layer perceptron.
    Ann,
    /// Gradient-boosted regression trees.
    Gbrt,
}

impl ModelKind {
    /// All model kinds in the paper's row order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Linear, ModelKind::Ann, ModelKind::Gbrt];

    /// Display name (paper Table IV row labels).
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Linear => "Linear",
            ModelKind::Ann => "ANN",
            ModelKind::Gbrt => "GBRT",
        }
    }
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Run grid search (k-fold CV on the training set) before the final fit.
    pub grid_search: bool,
    /// Cross-validation folds (paper: 10).
    pub cv_folds: usize,
    /// Seed for CV shuffling.
    pub seed: u64,
    /// Effort multiplier in (0, 1]: scales epochs/estimators for fast tests.
    pub effort: f64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            grid_search: false,
            cv_folds: 10,
            seed: 5,
            effort: 1.0,
        }
    }
}

impl TrainOptions {
    /// Reduced effort for tests.
    pub fn fast() -> Self {
        TrainOptions {
            cv_folds: 3,
            effort: 0.15,
            ..Self::default()
        }
    }
}

/// Accuracy summary (paper Table IV cell pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Mean absolute error (percentage points of congestion).
    pub mae: f64,
    /// Median absolute error.
    pub medae: f64,
}

enum Model {
    Linear(Lasso),
    Ann(MlpRegressor),
    Gbrt(GbrtRegressor),
}

impl Model {
    fn as_regressor(&self) -> &dyn Regressor {
        match self {
            Model::Linear(m) => m,
            Model::Ann(m) => m,
            Model::Gbrt(m) => m,
        }
    }
}

/// A trained congestion predictor for one target metric.
pub struct CongestionPredictor {
    /// Model family.
    pub kind: ModelKind,
    /// Target metric.
    pub target: Target,
    model: Model,
}

impl CongestionPredictor {
    /// Train a model of `kind` on `data` for `target`.
    pub fn train(
        kind: ModelKind,
        target: Target,
        data: &CongestionDataset,
        opts: &TrainOptions,
    ) -> CongestionPredictor {
        // Telemetry never perturbs training, so a throwaway collector
        // keeps `train` and `train_observed` on one code path.
        Self::train_observed(kind, target, data, opts, &Collector::new())
    }

    /// [`Self::train`] recording training telemetry into `obs`: a `train`
    /// span (annotated with model and target), per-fold CV telemetry when
    /// grid-searching, and the model's convergence curve
    /// (`train.gbrt.stage_loss` / `train.ann.epoch_loss` histograms —
    /// deterministic, since training is seeded).
    pub fn train_observed(
        kind: ModelKind,
        target: Target,
        data: &CongestionDataset,
        opts: &TrainOptions,
        obs: &Collector,
    ) -> CongestionPredictor {
        let mut train_span = obs.span("train");
        train_span.arg("model", kind.name());
        train_span.arg("target", target.name());
        train_span.arg("samples", data.len().to_string());
        let ml = data.to_ml(target);
        let effort = opts.effort.clamp(0.01, 1.0);
        let model = match kind {
            ModelKind::Linear => {
                let alphas = [0.001, 0.01, 0.1, 1.0];
                let alpha = if opts.grid_search {
                    let mut ds = mlkit::Dataset::with_cols(FEATURE_COUNT);
                    ds.extend(&ml_to_dataset(&ml));
                    let (best, _) = mlkit::cv::grid_search_observed(
                        &ds,
                        opts.cv_folds,
                        opts.seed,
                        &alphas,
                        |&a| {
                            Lasso::new(LassoOptions {
                                alpha: a,
                                max_iter: (200.0 * effort).max(20.0) as usize,
                                ..Default::default()
                            })
                        },
                        obs,
                    );
                    alphas[best]
                } else {
                    0.01
                };
                let mut m = Lasso::new(LassoOptions {
                    alpha,
                    max_iter: (500.0 * effort).max(30.0) as usize,
                    ..Default::default()
                });
                {
                    let _fit = obs.span("train.fit");
                    m.fit(&ml.x, &ml.y);
                }
                Model::Linear(m)
            }
            ModelKind::Ann => {
                let grids = [vec![64, 32], vec![128]];
                let hidden = if opts.grid_search {
                    let ds = ml_to_dataset(&ml);
                    let mut best = (0usize, f64::INFINITY);
                    for (i, h) in grids.iter().enumerate() {
                        let score = cross_val_mae_observed(
                            &ds,
                            opts.cv_folds,
                            opts.seed,
                            || {
                                MlpRegressor::new(MlpOptions {
                                    hidden: h.clone(),
                                    epochs: (40.0 * effort).max(3.0) as usize,
                                    ..Default::default()
                                })
                            },
                            obs,
                        );
                        obs.inc("cv.grid.points", 1);
                        if score < best.1 {
                            best = (i, score);
                        }
                    }
                    grids[best.0].clone()
                } else {
                    grids[0].clone()
                };
                let mut m = MlpRegressor::new(MlpOptions {
                    hidden,
                    epochs: (120.0 * effort).max(5.0) as usize,
                    ..Default::default()
                });
                {
                    let _fit = obs.span("train.fit");
                    m.fit_observed(&ml.x, &ml.y, obs);
                }
                Model::Ann(m)
            }
            ModelKind::Gbrt => {
                let depths = [3usize, 4];
                let depth = if opts.grid_search {
                    let ds = ml_to_dataset(&ml);
                    let mut best = (0usize, f64::INFINITY);
                    for (i, &d) in depths.iter().enumerate() {
                        let score = cross_val_mae_observed(
                            &ds,
                            opts.cv_folds,
                            opts.seed,
                            || {
                                GbrtRegressor::new(GbrtOptions {
                                    n_estimators: (60.0 * effort).max(5.0) as usize,
                                    learning_rate: (0.08 / effort.sqrt()).min(0.3),
                                    feature_fraction: (0.4 / effort.sqrt()).min(1.0),
                                    tree: TreeOptions {
                                        max_depth: d,
                                        ..Default::default()
                                    },
                                    // CV folds already run on parallel
                                    // workers; keep each fit serial so the
                                    // pools don't nest.
                                    workers: 1,
                                    ..Default::default()
                                })
                            },
                            obs,
                        );
                        obs.inc("cv.grid.points", 1);
                        if score < best.1 {
                            best = (i, score);
                        }
                    }
                    depths[best.0]
                } else {
                    4
                };
                // At reduced effort the ensemble has few stages; compensate
                // with a larger step and a full feature view per tree.
                let mut m = GbrtRegressor::new(GbrtOptions {
                    n_estimators: (250.0 * effort).max(10.0) as usize,
                    learning_rate: (0.08 / effort.sqrt()).min(0.3),
                    feature_fraction: (0.4 / effort.sqrt()).min(1.0),
                    tree: TreeOptions {
                        max_depth: depth,
                        ..Default::default()
                    },
                    // The final fit is the only one on this thread, so it
                    // may use the full worker pool (training stays
                    // bit-identical for any worker count).
                    workers: parkit::num_threads(),
                    ..Default::default()
                });
                {
                    let _fit = obs.span("train.fit");
                    m.fit_observed(&ml.x, &ml.y, obs);
                }
                Model::Gbrt(m)
            }
        };
        CongestionPredictor {
            kind,
            target,
            model,
        }
    }

    /// Evaluate on held-out data.
    pub fn evaluate(&self, test: &CongestionDataset) -> Accuracy {
        let ml = test.to_ml(self.target);
        let pred = self.model.as_regressor().predict(&ml.x);
        Accuracy {
            mae: mae(&ml.y, &pred),
            medae: medae(&ml.y, &pred),
        }
    }

    /// Predict the congestion of one feature vector.
    pub fn predict_features(&self, features: &[f64]) -> f64 {
        self.model.as_regressor().predict_one(features)
    }

    /// Predict per-operation congestion for a synthesized design *without*
    /// implementing it — the paper's prediction phase. Features for every
    /// op are extracted with the SoA kernel into one reused row buffer, so
    /// prediction no longer allocates a `Vec<f64>` per op.
    pub fn predict_design(&self, design: &SynthesizedDesign, device: &Device) -> Vec<OpPrediction> {
        let mut out = Vec::new();
        let mut row = [0.0f64; FEATURE_COUNT];
        for fid in design.module.bottom_up_order() {
            let f = design.module.function(fid);
            let binding = &design.bindings[&fid];
            let graph = DepGraph::build(f, Some(binding), true);
            let ctx = ExtractCtx::new(&graph, design, fid, device);
            for (ni, node) in graph.nodes.iter().enumerate() {
                if node.is_port || node.ops.is_empty() {
                    continue;
                }
                ctx.extract_into(ni, &mut row);
                let value = self.predict_features(&row);
                for &op in &node.ops {
                    out.push(OpPrediction {
                        func: fid,
                        op,
                        line: f.op(op).loc.map(|l| l.line).unwrap_or(0),
                        predicted: value,
                    });
                }
            }
        }
        out
    }

    /// The flattened inference engine, when this predictor is a GBRT.
    /// Serving exports this into a `servekit` model artifact so `congestd`
    /// predicts without carrying the training-side ensemble.
    pub fn compiled_ensemble(&self) -> Option<&mlkit::CompiledEnsemble> {
        match &self.model {
            Model::Gbrt(m) => Some(m.compiled()),
            _ => None,
        }
    }

    /// GBRT split-count feature importance (None for other models).
    pub fn feature_importance(&self) -> Option<Vec<f64>> {
        match &self.model {
            Model::Gbrt(m) => Some(m.feature_importance()),
            _ => None,
        }
    }

    /// Model telemetry on `data` (typically the held-out split): split-gain
    /// importance for the GBRT, plus prediction/residual quantile sketches
    /// for any model family. Feeds the run ledger (`--ledger-out`).
    pub fn telemetry(&self, data: &CongestionDataset) -> mlkit::ModelTelemetry {
        let ml = data.to_ml(self.target);
        match &self.model {
            Model::Gbrt(m) => mlkit::ModelTelemetry::of_gbrt(m, &ml.x, &ml.y),
            other => mlkit::ModelTelemetry::of_regressor(other.as_regressor(), &ml.x, &ml.y),
        }
    }
}

/// Extract one feature row per operation of a synthesized design — the
/// serving-path twin of [`CongestionPredictor::predict_design`]: identical
/// extraction (same graph, same SoA kernel), but the raw rows come back
/// (paired with their source lines) instead of being pushed through a
/// model, so `congestd` can batch them through whatever artifact is
/// active.
pub fn extract_feature_rows(
    design: &SynthesizedDesign,
    device: &Device,
) -> (Vec<Vec<f64>>, Vec<u32>) {
    let mut rows = Vec::new();
    let mut lines = Vec::new();
    let mut row = [0.0f64; FEATURE_COUNT];
    for fid in design.module.bottom_up_order() {
        let f = design.module.function(fid);
        let binding = &design.bindings[&fid];
        let graph = DepGraph::build(f, Some(binding), true);
        let ctx = ExtractCtx::new(&graph, design, fid, device);
        for (ni, node) in graph.nodes.iter().enumerate() {
            if node.is_port || node.ops.is_empty() {
                continue;
            }
            ctx.extract_into(ni, &mut row);
            for &op in &node.ops {
                rows.push(row.to_vec());
                lines.push(f.op(op).loc.map(|l| l.line).unwrap_or(0));
            }
        }
    }
    (rows, lines)
}

/// The digest-keyed extraction entry point for serving-layer caches:
/// a stable 64-bit key over `(design name, source text)`, stamped with the
/// feature schema width and the active extract kernel so a schema or
/// kernel change can never alias a cache entry produced under different
/// extraction semantics. `congestd` wires this in as the feature-cache
/// key function; two processes (or two runs) computing the key for the
/// same source always agree.
pub fn source_digest(name: &str, text: &str) -> u64 {
    let width = FEATURE_COUNT.to_le_bytes();
    let kernel = crate::features::ExtractKernel::default().name();
    faultkit::fnv1a(&[
        b"congestion-core.source.v1",
        &width,
        kernel.as_bytes(),
        b"\0",
        name.as_bytes(),
        b"\0",
        text.as_bytes(),
    ])
}

/// A per-operation congestion prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPrediction {
    /// Function containing the op.
    pub func: FuncId,
    /// The op.
    pub op: OpId,
    /// Source line (0 = unknown).
    pub line: u32,
    /// Predicted congestion (%).
    pub predicted: f64,
}

fn ml_to_dataset(ml: &mlkit::Dataset) -> mlkit::Dataset {
    ml.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FEATURE_COUNT;
    use hls_ir::{FuncId, OpId};

    fn synthetic_dataset(n: usize) -> CongestionDataset {
        // Label depends on features 0 and 1.
        let mut ds = CongestionDataset::new();
        for i in 0..n {
            let a = (i % 13) as f64;
            let b = ((i * 5) % 7) as f64;
            let mut features = vec![0.0; FEATURE_COUNT];
            features[0] = a;
            features[1] = b;
            let label = 5.0 * a + 2.0 * b * b;
            ds.push(
                crate::dataset::Sample {
                    design: "synthetic".into(),
                    func: FuncId(0),
                    op: OpId(i as u32),
                    line: 1,
                    replica: None,
                    vertical: label,
                    horizontal: label / 2.0,
                },
                &features,
            );
        }
        ds
    }

    #[test]
    fn source_digest_is_stable_and_discriminating() {
        let a = source_digest("fir", "int32 f() { return 1; }");
        assert_eq!(
            a,
            source_digest("fir", "int32 f() { return 1; }"),
            "same inputs, same key — across calls and across processes"
        );
        assert_ne!(a, source_digest("fir2", "int32 f() { return 1; }"));
        assert_ne!(a, source_digest("fir", "int32 f() { return 2; }"));
        // Name/text boundary cannot alias.
        assert_ne!(source_digest("ab", "c"), source_digest("a", "bc"));
    }

    #[test]
    fn all_models_train_and_predict() {
        let ds = synthetic_dataset(300);
        let (train, test) = ds.split(0.2, 1);
        for kind in ModelKind::ALL {
            let p =
                CongestionPredictor::train(kind, Target::Vertical, &train, &TrainOptions::fast());
            let acc = p.evaluate(&test);
            assert!(acc.mae.is_finite());
            assert!(acc.medae <= acc.mae * 3.0 + 1.0);
        }
    }

    #[test]
    fn gbrt_beats_linear_on_nonlinear_labels() {
        let ds = synthetic_dataset(400);
        let (train, test) = ds.split(0.2, 1);
        let opts = TrainOptions {
            effort: 0.5,
            ..TrainOptions::fast()
        };
        let lin = CongestionPredictor::train(ModelKind::Linear, Target::Vertical, &train, &opts)
            .evaluate(&test);
        let gbrt = CongestionPredictor::train(ModelKind::Gbrt, Target::Vertical, &train, &opts)
            .evaluate(&test);
        assert!(
            gbrt.mae < lin.mae,
            "gbrt {} should beat linear {} on b^2 term",
            gbrt.mae,
            lin.mae
        );
    }

    #[test]
    fn importance_only_for_gbrt() {
        let ds = synthetic_dataset(200);
        let opts = TrainOptions::fast();
        let g = CongestionPredictor::train(ModelKind::Gbrt, Target::Vertical, &ds, &opts);
        let imp = g.feature_importance().unwrap();
        assert_eq!(imp.len(), FEATURE_COUNT);
        assert!(imp[0] > 0.0, "informative feature used for splits");
        let l = CongestionPredictor::train(ModelKind::Linear, Target::Vertical, &ds, &opts);
        assert!(l.feature_importance().is_none());
    }

    #[test]
    fn targets_change_labels() {
        let ds = synthetic_dataset(100);
        let opts = TrainOptions::fast();
        let v = CongestionPredictor::train(ModelKind::Linear, Target::Vertical, &ds, &opts);
        let h = CongestionPredictor::train(ModelKind::Linear, Target::Horizontal, &ds, &opts);
        let row = ds.features_of(0);
        let pv = v.predict_features(row);
        let ph = h.predict_features(row);
        assert!((pv - ph).abs() > 1e-6, "different targets, different fits");
    }
}
