//! # congestion-core
//!
//! The paper's contribution: **machine-learning based routing congestion
//! prediction for FPGA high-level synthesis** (*Zhao et al., DATE 2019*).
//!
//! The crate glues the substrates together into the paper's two phases:
//!
//! * **Training** — run designs through HLS ([`hls_synth`]) and simulated
//!   place-and-route ([`fpga_fabric`]), [`backtrace`] per-CLB congestion
//!   metrics to IR operations, extract the **302 features in 7 categories**
//!   ([`features`]), [`filter`] marginal unroll replicas, and train
//!   Lasso/ANN/GBRT regressors ([`predict`]).
//! * **Prediction** — for a new design, stop after HLS, predict per-operation
//!   congestion, [`locate`] the hottest source lines, and propose fixes
//!   ([`resolve`]).
//!
//! ```
//! use congestion_core::pipeline::CongestionFlow;
//! use rosetta_gen::{face_detection, Preset, suite};
//!
//! let flow = CongestionFlow::fast(); // reduced effort for doc tests
//! let bench = suite::digit_spam_group(Preset::Plain);
//! let module = bench.build()?;
//! let (design, implres) = flow.implement(&module)?;
//! assert!(implres.congestion.max_any() >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod backtrace;
pub mod cli;
pub mod dataset;
pub mod features;
pub mod filter;
pub mod fingerprint;
pub mod graph;
pub mod locate;
pub mod persist;
pub mod pipeline;
pub mod predict;
pub mod resolve;
pub mod stats;

pub use backtrace::BacktraceError;
pub use dataset::{CongestionDataset, Sample, Target};
pub use features::{FeatureCategory, FEATURE_COUNT};
pub use fingerprint::{drift, DatasetFingerprint, DriftReport, FINGERPRINT_SCHEMA};
pub use graph::DepGraph;
pub use persist::PersistError;
pub use pipeline::{CongestionFlow, DatasetBuildReport, DesignFailure, DesignReport, StageTimings};
pub use predict::{
    extract_feature_rows, extract_source, source_digest, CongestionPredictor, ModelKind,
};
