//! servekit — the `congestd` serving layer for the congestion predictor.
//!
//! A crash-only, load-shedding prediction service: fitted ensembles load
//! once as [`ModelArtifact`]s (compiled via `mlkit::compiled`), requests
//! arrive over a length-prefixed socket protocol (with an HTTP fallback
//! for curl), and every admitted request receives exactly one typed reply
//! — `ok`, `degraded`, `overloaded`, `deadline_exceeded`, or `error` —
//! no matter what fails underneath.
//!
//! The crate deliberately depends only on `mlkit` (prediction), `faultkit`
//! (supervision + injection), and `obskit` (journal idiom + metrics): the
//! MiniHLS front-end for `source` requests is a callback the binary wires
//! in, keeping the serving layer reusable and the dependency graph
//! acyclic.
//!
//! Module map:
//! - [`proto`] — request/reply wire types (JSON).
//! - [`queue`] — bounded admission with deterministic shed-oldest,
//!   micro-batch coalescing, and the [`queue::WorkGate`] pacing gate.
//! - [`cache`] — digest-keyed feature cache with swap-aware invalidation.
//! - [`registry`] — hot-swap model registry, validation gate, rollback.
//! - [`artifact`] — versioned on-disk model artifacts.
//! - [`journal`] — append-only crash-recovery journal.
//! - [`estimator`] — the analytic degraded-path estimator.
//! - [`server`] — the request engine tying it together.
//! - [`net`] — TCP framing, the event-loop front-end, client helper.

#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod estimator;
pub mod journal;
pub mod net;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod server;

pub use artifact::{ModelArtifact, MODEL_SCHEMA};
pub use cache::{CacheStats, CachedFeatures, FeatureCache};
pub use estimator::{AnalyticEstimator, ANALYTIC_MODEL};
pub use journal::{Journal, JournalEvent, RecoveredState, JOURNAL_SCHEMA};
pub use net::{read_frame, request, serve_event_loop, write_frame, MAX_FRAME};
pub use proto::{Reply, ReplyStatus, Request, RequestBody};
pub use queue::{coalesce_plan, shed_plan, AdmissionQueue, Admit, TraceStep, WorkGate};
pub use registry::{GateOutcome, GoldenBatch, ModelRegistry, ValidationGate};
pub use server::{
    LedgerSink, ServeConfig, ServeMetrics, ServeSummary, Server, SourceExtractor, SourceKeyFn,
    StartReport,
};
