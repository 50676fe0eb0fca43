//! # congestion-bench
//!
//! The experiment harness: one runner per table and figure of the paper's
//! evaluation, shared between the `experiments` CLI and the Criterion
//! benchmarks.
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`table1`] | Table I — Face Detection with vs without directives |
//! | [`fig1`] | Fig 1 — congestion maps of the two implementations |
//! | [`table3`] | Table III — benchmark property summary |
//! | [`table4`] | Table IV — model accuracy (filtered / not filtered) |
//! | [`table5`] | Table V — important feature categories |
//! | [`table6`] | Table VI — case study performance improvement |
//! | [`fig5`] | Fig 5 — spatial distribution of vertical congestion |
//! | [`fig6`] | Fig 6 — congestion maps of the case-study steps |
//! | [`ablation`] | design-choice ablations called out in DESIGN.md |
//! | [`place_bench`] | placement-kernel comparison recorded in BENCH_place.json |
//! | [`pipeline_bench`] | dataset-build stack comparison recorded in BENCH_pipeline.json |
//! | [`train_bench`] | GBRT training-kernel comparison recorded in BENCH_train.json |
//! | [`serve_bench`] | `congestd` latency/shed-rate run recorded in BENCH_serve.json |

pub mod ablation;
pub mod artifact;
pub mod designs;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod metrics;
pub mod pipeline_bench;
pub mod place_bench;
pub mod regress;
pub mod serve_bench;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod train_bench;

pub use designs::Effort;
pub use metrics::DesignMetrics;
