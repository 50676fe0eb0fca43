//! **Table IV** — congestion estimation accuracy: {Linear, ANN, GBRT} ×
//! {not filtering, filtering} × {Vertical, Horizontal, Avg} × {MAE, MedAE}.
//!
//! Protocol (paper §IV-A): 80/20 split, k-fold CV + grid search on the
//! training set only, metrics on the untouched test set.
//!
//! Expected shape: GBRT ≤ ANN ≤ Linear on every metric, and filtering
//! improves every model.

use crate::designs::Effort;
use congestion_core::dataset::Target;
use congestion_core::filter::{filter_marginal, FilterOptions};
use congestion_core::predict::{Accuracy, CongestionPredictor, ModelKind};
use congestion_core::CongestionDataset;
use std::fmt::Write;

/// One cell pair of the table.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Mean absolute error.
    pub mae: f64,
    /// Median absolute error.
    pub medae: f64,
}

/// Table IV result.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// `rows[filtering][model][target]`, with filtering 0 = off, 1 = on.
    pub rows: Vec<Vec<Vec<Cell>>>,
    /// Samples before / after filtering.
    pub samples: (usize, usize),
    /// Fraction removed by the filter.
    pub filtered_fraction: f64,
}

impl Table4 {
    /// The cell for (filtering, model, target).
    pub fn cell(&self, filtering: bool, model: ModelKind, target: Target) -> Cell {
        let f = filtering as usize;
        let m = ModelKind::ALL.iter().position(|&k| k == model).unwrap();
        let t = Target::ALL.iter().position(|&k| k == target).unwrap();
        self.rows[f][m][t]
    }

    /// Does GBRT win on every target (the paper's headline)?
    pub fn gbrt_wins(&self) -> bool {
        for f in 0..2 {
            for t in 0..Target::ALL.len() {
                let gbrt = self.rows[f][2][t].mae;
                if gbrt > self.rows[f][0][t].mae || gbrt > self.rows[f][1][t].mae {
                    return false;
                }
            }
        }
        true
    }

    /// Does filtering improve (or at least not hurt) every model on MAE?
    pub fn filtering_helps(&self) -> bool {
        for m in 0..ModelKind::ALL.len() {
            for t in 0..Target::ALL.len() {
                if self.rows[1][m][t].mae > self.rows[0][m][t].mae * 1.02 {
                    return false;
                }
            }
        }
        true
    }

    /// Render as the paper's table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "TABLE IV. CONGESTION ESTIMATION RESULTS ({} -> {} samples after filtering, {:.1}% removed)",
            self.samples.0,
            self.samples.1,
            self.filtered_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "{:<14} {:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "", "Model", "V MAE", "V MedAE", "H MAE", "H MedAE", "A MAE", "A MedAE"
        );
        for (fi, flabel) in [(0usize, "Not Filtering"), (1, "Filtering")] {
            for (mi, model) in ModelKind::ALL.iter().enumerate() {
                let r = &self.rows[fi][mi];
                let _ = writeln!(
                    out,
                    "{:<14} {:<8} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                    if mi == 0 { flabel } else { "" },
                    model.name(),
                    r[0].mae,
                    r[0].medae,
                    r[1].mae,
                    r[1].medae,
                    r[2].mae,
                    r[2].medae
                );
            }
        }
        out
    }
}

/// Run the Table IV experiment on a prebuilt dataset.
pub fn run_on(dataset: &CongestionDataset, effort: Effort, grid_search: bool) -> Table4 {
    let opts = effort.train(grid_search);
    let filtered = filter_marginal(dataset, &FilterOptions::default());
    let mut rows = Vec::new();
    for data in [dataset, &filtered.kept] {
        let (train, test) = data.split(0.2, 17);
        let mut per_model = Vec::new();
        for model in ModelKind::ALL {
            let mut per_target = Vec::new();
            for target in Target::ALL {
                let p = CongestionPredictor::train(model, target, &train, &opts);
                let Accuracy { mae, medae } = p.evaluate(&test);
                per_target.push(Cell { mae, medae });
            }
            per_model.push(per_target);
        }
        rows.push(per_model);
    }
    Table4 {
        rows,
        samples: (dataset.len(), filtered.kept.len()),
        filtered_fraction: filtered.removed_fraction,
    }
}

/// Build the dataset from the training suite and run Table IV.
pub fn run(effort: Effort, grid_search: bool) -> Table4 {
    let (_, ds) = crate::table3::run(effort);
    run_on(&ds, effort, grid_search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion_core::features::FEATURE_COUNT;
    use congestion_core::Sample;
    use hls_ir::{FuncId, OpId, ReplicaTag};

    /// A synthetic dataset with learnable structure + marginal outliers.
    fn synthetic() -> CongestionDataset {
        let mut ds = CongestionDataset::new();
        for i in 0..400usize {
            let a = (i % 11) as f64;
            let b = ((i * 3) % 17) as f64;
            let mut features = vec![0.0; FEATURE_COUNT];
            features[0] = a;
            features[2] = b;
            // A step term keeps the target far from linear — trees must win.
            let label = 40.0 + 4.0 * a + 0.3 * b * b + if b > 8.0 { 35.0 } else { 0.0 };
            let marginal = i % 29 == 0;
            ds.push(
                Sample {
                    design: "synthetic".into(),
                    func: FuncId(0),
                    op: OpId(i as u32),
                    line: 1,
                    replica: Some(ReplicaTag {
                        group: (i / 8) as u32,
                        index: (i % 8) as u32,
                        total: 8,
                    }),
                    vertical: if marginal { 4.0 } else { label },
                    horizontal: if marginal { 3.0 } else { label * 0.8 },
                },
                &features,
            );
        }
        ds
    }

    #[test]
    fn table4_shape_on_synthetic_data() {
        let t = run_on(&synthetic(), Effort::Fast, false);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].len(), 3);
        assert_eq!(t.rows[0][0].len(), 3);
        assert!(t.samples.1 < t.samples.0, "filter removes outliers");
        // GBRT must beat Linear on the quadratic term (vertical target,
        // filtered).
        let gbrt = t.cell(true, ModelKind::Gbrt, Target::Vertical).mae;
        let lin = t.cell(true, ModelKind::Linear, Target::Vertical).mae;
        assert!(gbrt < lin, "gbrt {gbrt} vs linear {lin}");
        // Filtering must help GBRT.
        let unfiltered = t.cell(false, ModelKind::Gbrt, Target::Vertical).mae;
        assert!(
            gbrt <= unfiltered,
            "filtering helps: {gbrt} vs {unfiltered}"
        );
        let text = t.render();
        assert!(text.contains("Not Filtering"));
        assert!(text.contains("GBRT"));
    }
}
