//! # obskit
//!
//! Zero-dependency structured observability for the HLS → PAR → ML
//! pipeline: hierarchical **spans** on monotonic clocks, a **metrics
//! registry** (counters, gauges, fixed-bucket histograms), and **sinks**
//! that export a Chrome trace-event file (`chrome://tracing` / Perfetto),
//! a flat JSON metrics snapshot, and a human-readable profile table.
//!
//! The container this workspace builds in has no network access (same
//! constraint that produced the `shims/` crates), so everything here is
//! `std`-only — no `tracing`, no `serde`.
//!
//! ## Determinism contract
//!
//! The pipeline fans work out across threads via `parkit`, whose rule is
//! *merge results in input order*. obskit follows the same rule: each unit
//! of work records into its own [`Collector`], finishes it into an
//! [`ObsRecord`], and the caller absorbs the records **in input order**.
//! Counters and histogram *counts* are therefore bit-identical for 1 vs N
//! workers whenever the workload itself is deterministic; wall-clock values
//! (span durations, `*_ms` metrics) are the only nondeterministic content
//! and are kept out of [`MetricsSnapshot::deterministic_digest`].
//!
//! ## Quickstart
//!
//! ```
//! use obskit::Collector;
//!
//! let obs = Collector::new();
//! {
//!     let _design = obs.span("design");
//!     {
//!         let _hls = obs.span("hls");
//!         obs.inc("hls.ops_scheduled", 42);
//!     }
//!     obs.observe("route.pass_overflow", 3.0);
//! }
//! let rec = obs.finish();
//! assert_eq!(rec.metrics.counters["hls.ops_scheduled"], 42);
//! let trace = obskit::sink::chrome_trace_json(&rec.events);
//! assert!(trace.contains("\"ph\":\"X\""));
//! ```

pub mod clock;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod sink;
pub mod sketch;
pub mod span;

pub use ledger::{read_jsonl, HistSummary, LedgerRead, RunRecord, RUN_SCHEMA};
pub use metrics::{
    is_timing_metric, HistogramSnapshot, MetricsSnapshot, Registry, DEFAULT_BUCKETS,
};
pub use sketch::QuantileSketch;
pub use span::{Collector, ObsRecord, SpanEvent, SpanGuard};
