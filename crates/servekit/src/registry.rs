//! The hot-swap model registry: versioned artifacts, a golden-batch
//! validation gate, and last-good rollback.
//!
//! Swap protocol: a candidate artifact is loaded and structurally
//! validated (deserialization already proved the node tables sound), then
//! gated — its golden-batch MAE must sit inside the configured band for
//! both targets. Only then does it become active, with the previous active
//! model retained as *last-good*. A gate failure changes nothing except
//! the reject/rollback counters: the daemon keeps answering on the model
//! it already trusts, which **is** the rollback — the candidate never got
//! in. [`ModelRegistry::demote`] is the predict-path escape hatch: a
//! poisoned active model falls back to last-good, and past that the
//! caller degrades to the analytic estimator.

use crate::artifact::ModelArtifact;
use mlkit::Matrix;
use std::sync::Arc;

/// A small labelled batch pinning prediction quality at the swap gate.
#[derive(Debug, Clone)]
pub struct GoldenBatch {
    /// Feature rows.
    pub rows: Matrix,
    /// Vertical congestion labels, one per row.
    pub vertical: Vec<f64>,
    /// Horizontal congestion labels, one per row.
    pub horizontal: Vec<f64>,
}

impl GoldenBatch {
    /// A golden batch from parallel rows/labels, truncated to `cap` rows
    /// (gate latency must stay bounded — a swap holds the registry lock).
    pub fn new(rows: &Matrix, vertical: &[f64], horizontal: &[f64], cap: usize) -> GoldenBatch {
        let n = rows
            .rows()
            .min(vertical.len())
            .min(horizontal.len())
            .min(cap.max(1));
        GoldenBatch {
            rows: rows.select(&(0..n).collect::<Vec<_>>()),
            vertical: vertical[..n].to_vec(),
            horizontal: horizontal[..n].to_vec(),
        }
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.rows()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Gate measurements for a candidate that passed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GateOutcome {
    /// Golden-batch vertical MAE (0 with no golden batch configured).
    pub mae_v: f64,
    /// Golden-batch horizontal MAE.
    pub mae_h: f64,
}

/// The validation gate every candidate must pass before activation.
#[derive(Debug, Clone, Default)]
pub struct ValidationGate {
    /// Feature width the server extracts/accepts; a candidate trained on a
    /// different width is structurally incompatible.
    pub expected_features: usize,
    /// Maximum golden-batch MAE (percentage points) for either target.
    pub mae_band: f64,
    /// The golden batch; `None` skips the quality check (structural checks
    /// still apply).
    pub golden: Option<GoldenBatch>,
}

impl ValidationGate {
    /// Validate `candidate`.
    ///
    /// # Errors
    /// A human-readable reason the candidate must not go live.
    pub fn validate(&self, candidate: &ModelArtifact) -> Result<GateOutcome, String> {
        if self.expected_features != 0 && candidate.feature_count != self.expected_features {
            return Err(format!(
                "feature width {} does not match the server's {}",
                candidate.feature_count, self.expected_features
            ));
        }
        let Some(golden) = self.golden.as_ref().filter(|g| !g.is_empty()) else {
            return Ok(GateOutcome::default());
        };
        if golden.rows.cols() != candidate.feature_count {
            return Err(format!(
                "golden batch is {}-wide, candidate expects {}",
                golden.rows.cols(),
                candidate.feature_count
            ));
        }
        let mut v = vec![0.0; golden.len()];
        let mut h = vec![0.0; golden.len()];
        candidate.vertical.predict_into(&golden.rows, &mut v);
        candidate.horizontal.predict_into(&golden.rows, &mut h);
        let mae = |pred: &[f64], label: &[f64]| {
            pred.iter()
                .zip(label)
                .map(|(p, l)| (p - l).abs())
                .sum::<f64>()
                / pred.len() as f64
        };
        let out = GateOutcome {
            mae_v: mae(&v, &golden.vertical),
            mae_h: mae(&h, &golden.horizontal),
        };
        if !out.mae_v.is_finite() || !out.mae_h.is_finite() {
            return Err("non-finite golden-batch predictions".into());
        }
        if out.mae_v > self.mae_band || out.mae_h > self.mae_band {
            return Err(format!(
                "golden-batch MAE (V {:.3}, H {:.3}) outside the ±{:.3} band",
                out.mae_v, out.mae_h, self.mae_band
            ));
        }
        Ok(out)
    }
}

/// The registry: active + last-good artifacts plus swap accounting.
pub struct ModelRegistry {
    gate: ValidationGate,
    active: Option<Arc<ModelArtifact>>,
    last_good: Option<Arc<ModelArtifact>>,
    /// Committed swaps (including the initial install).
    pub swaps: u64,
    /// Candidates rejected by the gate.
    pub rejects: u64,
    /// Fallbacks to last-good (gate failures and predict-path demotions).
    pub rollbacks: u64,
    /// Monotonic model epoch: bumped on every change to the *active* slot
    /// (install commit, rollback, demotion). Gate rejects do **not** bump
    /// it — the active model is unchanged. The reply cache is cleared on
    /// every bump, so it only ever holds the active model's answers.
    pub generation: u64,
}

impl ModelRegistry {
    /// An empty registry behind `gate` (serves analytic until a model
    /// installs).
    pub fn new(gate: ValidationGate) -> ModelRegistry {
        ModelRegistry {
            gate,
            active: None,
            last_good: None,
            swaps: 0,
            rejects: 0,
            rollbacks: 0,
            generation: 0,
        }
    }

    /// The active model, if any.
    pub fn active(&self) -> Option<Arc<ModelArtifact>> {
        self.active.clone()
    }

    /// Display name of whatever currently answers (`analytic` when no
    /// model is active).
    pub fn active_name(&self) -> String {
        self.active
            .as_ref()
            .map(|m| m.display_name())
            .unwrap_or_else(|| crate::estimator::ANALYTIC_MODEL.to_string())
    }

    /// Gate and (on success) activate `candidate`, retaining the previous
    /// active model as last-good. On gate failure nothing changes except
    /// the counters: the reject *is* the rollback — the daemon stays on
    /// the model it already trusts.
    ///
    /// # Errors
    /// The gate's reason; the counters record one reject (plus one
    /// rollback when there was a model to stay on).
    pub fn install(&mut self, candidate: ModelArtifact) -> Result<GateOutcome, String> {
        match self.gate.validate(&candidate) {
            Ok(outcome) => {
                let incoming = Arc::new(candidate);
                self.last_good = self.active.take().or_else(|| Some(incoming.clone()));
                self.active = Some(incoming);
                self.swaps += 1;
                self.generation += 1;
                Ok(outcome)
            }
            Err(reason) => {
                self.rejects += 1;
                if self.active.is_some() {
                    self.rollbacks += 1;
                }
                Err(reason)
            }
        }
    }

    /// Explicit rollback to last-good. Returns the now-active model, or
    /// `None` when there is nothing to roll back to.
    pub fn rollback(&mut self) -> Option<Arc<ModelArtifact>> {
        let last = self.last_good.clone()?;
        self.active = Some(last.clone());
        self.rollbacks += 1;
        self.generation += 1;
        Some(last)
    }

    /// Demote a poisoned active model (terminal predict failure): fall
    /// back to last-good when it is a *different* artifact, else clear the
    /// active slot entirely (callers then degrade to analytic). Returns
    /// the replacement, if any.
    pub fn demote(&mut self) -> Option<Arc<ModelArtifact>> {
        let active_digest = self.active.as_ref().map(|m| m.digest());
        self.active = None;
        self.rollbacks += 1;
        self.generation += 1;
        match (&self.last_good, active_digest) {
            (Some(last), Some(d)) if last.digest() != d => {
                self.active = Some(last.clone());
                Some(last.clone())
            }
            _ => {
                self.last_good = None;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::LEAF;
    use mlkit::CompiledEnsemble;

    fn artifact(version: u64, leaf: f64) -> ModelArtifact {
        let nodes = vec![(LEAF, 0, 0, leaf)];
        ModelArtifact {
            name: "gbrt".into(),
            version,
            feature_count: 3,
            trained_on: "test".into(),
            vertical: CompiledEnsemble::from_raw(0.0, 1.0, vec![0], nodes.clone(), 3).unwrap(),
            horizontal: CompiledEnsemble::from_raw(0.0, 1.0, vec![0], nodes, 3).unwrap(),
        }
    }

    fn gate(band: f64, label: f64) -> ValidationGate {
        ValidationGate {
            expected_features: 3,
            mae_band: band,
            golden: Some(GoldenBatch::new(
                &Matrix::from_rows(&vec![vec![0.0; 3]; 4]),
                &[label; 4],
                &[label; 4],
                256,
            )),
        }
    }

    #[test]
    fn good_candidate_installs_and_tracks_last_good() {
        let mut r = ModelRegistry::new(gate(5.0, 50.0));
        assert_eq!(r.active_name(), "analytic");
        r.install(artifact(1, 50.0)).unwrap();
        assert_eq!(r.active_name(), "gbrt@v1");
        let out = r.install(artifact(2, 52.0)).unwrap();
        assert!(out.mae_v > 0.0 && out.mae_v <= 5.0);
        assert_eq!(r.active_name(), "gbrt@v2");
        assert_eq!(r.swaps, 2);
        // Rollback returns to v1.
        r.rollback().unwrap();
        assert_eq!(r.active_name(), "gbrt@v1");
        assert_eq!(r.rollbacks, 1);
    }

    #[test]
    fn gate_rejects_out_of_band_candidate_and_keeps_active() {
        let mut r = ModelRegistry::new(gate(5.0, 50.0));
        r.install(artifact(1, 50.0)).unwrap();
        let e = r.install(artifact(2, 90.0)).unwrap_err();
        assert!(e.contains("band"), "{e}");
        assert_eq!(r.active_name(), "gbrt@v1", "reject leaves active alone");
        assert_eq!(r.rejects, 1);
        assert_eq!(r.rollbacks, 1, "the reject is a rollback to last-good");
    }

    #[test]
    fn gate_rejects_wrong_feature_width() {
        let mut r = ModelRegistry::new(ValidationGate {
            expected_features: 302,
            ..Default::default()
        });
        let e = r.install(artifact(1, 10.0)).unwrap_err();
        assert!(e.contains("width"), "{e}");
        assert_eq!(r.rejects, 1);
        assert_eq!(r.rollbacks, 0, "nothing to roll back to");
    }

    #[test]
    fn demote_walks_the_degradation_ladder() {
        let mut r = ModelRegistry::new(gate(10.0, 50.0));
        r.install(artifact(1, 50.0)).unwrap();
        r.install(artifact(2, 55.0)).unwrap();
        // Active v2 poisoned → last-good v1 takes over.
        let next = r.demote().unwrap();
        assert_eq!(next.display_name(), "gbrt@v1");
        assert_eq!(r.active_name(), "gbrt@v1");
        // v1 poisoned too and it is its own last-good → analytic.
        assert!(r.demote().is_none());
        assert_eq!(r.active_name(), "analytic");
        assert_eq!(r.rollbacks, 2);
    }
}
