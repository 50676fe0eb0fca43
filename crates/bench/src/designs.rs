//! Shared design construction and flow configuration for all experiments.

use congestion_core::pipeline::CongestionFlow;
use congestion_core::predict::TrainOptions;
use fpga_fabric::par::ParOptions;
use hls_ir::Module;
use rosetta_gen::{face_detection::FdVariant, suite, Preset};

/// Experiment effort level: `Fast` for tests/benches, `Full` for the
/// numbers recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced placer effort and small models.
    Fast,
    /// Paper-protocol effort.
    Full,
}

impl Effort {
    /// Canonical meta/ledger spelling (`fast` | `full`).
    pub fn name(&self) -> &'static str {
        match self {
            Effort::Fast => "fast",
            Effort::Full => "full",
        }
    }

    /// The implementation flow for this effort.
    pub fn flow(&self) -> CongestionFlow {
        let mut flow = CongestionFlow::new();
        flow.par = match self {
            Effort::Fast => ParOptions::fast(),
            Effort::Full => ParOptions::default(),
        };
        flow
    }

    /// Training options for this effort, grid-searching each model's
    /// hyperparameters first when `grid_search` is set.
    pub fn train(&self, grid_search: bool) -> TrainOptions {
        let base = match self {
            Effort::Fast => TrainOptions::fast(),
            Effort::Full => TrainOptions::default(),
        };
        TrainOptions {
            grid_search,
            ..base
        }
    }
}

/// Compile a Face Detection variant.
///
/// # Panics
/// Panics if the generator emits invalid MiniHLS (a bug).
pub fn face_detection(variant: FdVariant) -> Module {
    rosetta_gen::face_detection::benchmark(variant)
        .build()
        .expect("face detection generator must compile")
}

/// The paper's three training-suite groups in the optimized configuration.
///
/// # Panics
/// Panics if a generator emits invalid MiniHLS (a bug).
pub fn training_suite() -> Vec<Module> {
    suite::groups(Preset::Optimized)
        .into_iter()
        .map(|b| b.build().expect("suite generator must compile"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_three_groups() {
        let s = training_suite();
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|m| m.total_ops() > 100));
    }

    #[test]
    fn both_efforts_keep_the_grid_search_switch() {
        for effort in [Effort::Fast, Effort::Full] {
            assert!(effort.train(true).grid_search, "{effort:?}");
            assert!(!effort.train(false).grid_search, "{effort:?}");
        }
        assert_eq!(Effort::Full.train(true).cv_folds, 10, "the paper's folds");
    }

    #[test]
    fn efforts_differ_in_placer_moves() {
        let fast = Effort::Fast.flow();
        let full = Effort::Full.flow();
        assert!(fast.par.placer.moves_per_cell < full.par.placer.moves_per_cell);
    }
}
