//! # fpga-hls-congestion
//!
//! A full reproduction of *Zhao, Liang, Sinha, Zhang — "Machine Learning
//! Based Routing Congestion Prediction in FPGA High-Level Synthesis"
//! (DATE 2019)* as a Rust workspace, including every substrate the paper
//! depends on:
//!
//! * [`hls_ir`] — HLS IR, the MiniHLS C-like frontend, directive transforms;
//! * [`hls_synth`] — scheduling, binding, RTL netlist generation, reports;
//! * [`fpga_fabric`] — device model, placement, routing, congestion, timing;
//! * [`mlkit`] — Lasso / MLP / GBRT regressors, CV, metrics;
//! * [`rosetta_gen`] — the six synthetic Rosetta-style benchmarks;
//! * [`congestion_core`] — the paper's contribution: back-tracing, the 302
//!   features, marginal filtering, prediction, source-level localization and
//!   congestion resolution;
//! * [`servekit`] — `congestd`, the crash-only, load-shedding prediction
//!   service: hot-swap model registry, bounded admission, degradation
//!   ladder, crash-recovery journal, and the fault plans its chaos tests
//!   arm.
//!
//! This facade crate re-exports all of them and hosts the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! ## Quickstart
//!
//! ```no_run
//! use fpga_hls_congestion::prelude::*;
//!
//! // Training phase: run the benchmark suite through HLS + simulated PAR.
//! let flow = CongestionFlow::new();
//! let modules: Vec<_> = rosetta_gen::suite::groups(rosetta_gen::Preset::Optimized)
//!     .into_iter()
//!     .map(|b| b.build())
//!     .collect::<Result<_, _>>()?;
//! let dataset = flow.build_dataset(&modules)?;
//!
//! // Filter marginal unroll replicas and train the paper's best model.
//! let filtered = filter_marginal(&dataset, &Default::default());
//! let (train, test) = filtered.kept.split(0.2, 42);
//! let model = CongestionPredictor::train(
//!     ModelKind::Gbrt,
//!     Target::Vertical,
//!     &train,
//!     &Default::default(),
//! );
//! println!("MAE = {:.2}%", model.evaluate(&test).mae);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use congestion_core;
pub use fpga_fabric;
pub use hls_ir;
pub use hls_synth;
pub use mlkit;
pub use obskit;
pub use rosetta_gen;
pub use servekit;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use congestion_core::filter::{filter_marginal, FilterOptions};
    pub use congestion_core::locate::{locate_congested, render_report};
    pub use congestion_core::pipeline::CongestionFlow;
    pub use congestion_core::predict::TrainOptions;
    pub use congestion_core::resolve::{suggest_fixes, ResolveOptions, Suggestion};
    pub use congestion_core::{CongestionPredictor, DesignFailure, ModelKind, Target};
    pub use fpga_fabric::{Device, ImplResult};
    pub use hls_ir::frontend::{compile, compile_named, compile_with_directives};
    pub use hls_ir::{Directives, Module, Partition};
    pub use hls_synth::{HlsFlow, HlsOptions};
    pub use obskit::{Collector, ObsRecord};
    pub use servekit::{FaultKind, FaultPlan, FaultRule};
}
