//! Model telemetry: the quality signals a served model is monitored by.
//!
//! [`ModelTelemetry`] packages what the run ledger records per training
//! run: gain-weighted per-feature split importance from the GBRT, and
//! [`obskit::QuantileSketch`]es of the model's predictions and residuals
//! on an evaluation set. Everything here is a pure function of the fitted
//! model and the data, so telemetry inherits training's determinism —
//! identical runs produce byte-identical ledger content.

use crate::dataset::Matrix;
use crate::gbrt::GbrtRegressor;
use crate::model::Regressor;
use obskit::{HistSummary, QuantileSketch, RunRecord};

/// Distribution-level telemetry for one fitted model on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTelemetry {
    /// `(feature_index, gain_share)` sorted by descending share, ties by
    /// index; only features with nonzero share appear.
    pub importance: Vec<(usize, f64)>,
    /// Distribution of model predictions on the evaluation set.
    pub predictions: QuantileSketch,
    /// Distribution of residuals (`prediction - truth`).
    pub residuals: QuantileSketch,
}

impl ModelTelemetry {
    /// Telemetry for a fitted GBRT on `(x, y)`: split-gain importance plus
    /// prediction/residual sketches.
    pub fn of_gbrt(model: &GbrtRegressor, x: &Matrix, y: &[f64]) -> ModelTelemetry {
        let mut telemetry = Self::of_regressor(model, x, y);
        telemetry.importance = rank_importance(&model.feature_importance_gain());
        telemetry
    }

    /// Telemetry for any regressor (no split-gain importance): prediction
    /// and residual sketches on `(x, y)`.
    pub fn of_regressor<M: Regressor + ?Sized>(model: &M, x: &Matrix, y: &[f64]) -> ModelTelemetry {
        let pred = model.predict(x);
        let mut predictions = QuantileSketch::new();
        let mut residuals = QuantileSketch::new();
        for (p, t) in pred.iter().zip(y) {
            predictions.observe(*p);
            residuals.observe(p - t);
        }
        ModelTelemetry {
            importance: Vec::new(),
            predictions,
            residuals,
        }
    }

    /// Record this telemetry into a ledger record: the top `top_k`
    /// importances as gauges (`model.importance.f<idx>`, named via
    /// `names` when provided) and the two sketches as the
    /// `model.predictions` and `model.residuals` histogram summaries.
    pub fn record(&self, rec: &mut RunRecord, names: Option<&[String]>, top_k: usize) {
        for &(idx, share) in self.importance.iter().take(top_k) {
            let label = names
                .and_then(|n| n.get(idx))
                .map(|n| format!("model.importance.{n}"))
                .unwrap_or_else(|| format!("model.importance.f{idx}"));
            rec.gauges.insert(label, share);
        }
        for (name, sketch) in [
            ("model.predictions", &self.predictions),
            ("model.residuals", &self.residuals),
        ] {
            rec.hists.insert(name.to_string(), HistSummary::of(sketch));
        }
    }
}

/// Sort a dense importance vector into `(index, share)` pairs, descending
/// share with index tie-breaks, dropping zero entries.
fn rank_importance(dense: &[f64]) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = dense
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, v)| v > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbrt::GbrtOptions;

    /// y depends on feature 0 only; feature 1 is noise-free constant.
    fn fitted() -> (GbrtRegressor, Matrix, Vec<f64>) {
        let mut x = Matrix::with_cols(2);
        let mut y = Vec::new();
        for i in 0..120 {
            let v = (i % 40) as f64;
            x.push_row(&[v, 1.0]);
            y.push(3.0 * v);
        }
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: 30,
            ..Default::default()
        });
        m.fit(&x, &y);
        (m, x, y)
    }

    #[test]
    fn gbrt_telemetry_ranks_the_informative_feature_first() {
        let (m, x, y) = fitted();
        let t = ModelTelemetry::of_gbrt(&m, &x, &y);
        assert_eq!(t.importance[0].0, 0, "all gain must come from feature 0");
        assert!(t.importance[0].1 > 0.99);
        assert_eq!(t.predictions.count(), 120);
        assert_eq!(t.residuals.count(), 120);
        // Residuals of a well-fit model concentrate near zero.
        assert!(t.residuals.quantile(0.5).abs() < 5.0);
        // Determinism: telemetry of the same fit is identical.
        let again = ModelTelemetry::of_gbrt(&m, &x, &y);
        assert_eq!(t, again);
    }

    #[test]
    fn record_writes_ledger_gauges() {
        let (m, x, y) = fitted();
        let t = ModelTelemetry::of_gbrt(&m, &x, &y);
        let mut rec = RunRecord::new("test", "train", "0", "0");
        let names = vec!["informative".to_string(), "constant".to_string()];
        t.record(&mut rec, Some(&names), 5);
        assert!(rec.gauges.contains_key("model.importance.informative"));
        assert_eq!(rec.hists["model.residuals"], HistSummary::of(&t.residuals));
        assert_eq!(rec.hists["model.predictions"].count, 120);
        let line = rec.to_json_line();
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn regressor_telemetry_has_no_importance() {
        let (m, x, y) = fitted();
        let t = ModelTelemetry::of_regressor(&m, &x, &y);
        assert!(t.importance.is_empty());
        assert_eq!(t.predictions.count(), 120);
    }
}
