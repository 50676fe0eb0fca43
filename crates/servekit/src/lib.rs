//! servekit — the `congestd` serving layer for the congestion predictor.
//!
//! A crash-only, load-shedding prediction service: fitted ensembles load
//! once as [`ModelArtifact`]s (compiled via `mlkit::compiled`), requests
//! arrive over a length-prefixed socket protocol, and every admitted
//! request receives exactly one typed reply — `ok`, `degraded`,
//! `overloaded`, `deadline_exceeded`, or `error` — no matter what fails
//! underneath. Wire frames and artifacts are decoded with
//! `obskit::json`'s pull reader straight into their fields, and a reply
//! the reply cache answers is written from the text its miss encoded.
//!
//! The crate deliberately depends only on `mlkit` (prediction), `obskit`
//! (journal idiom + metrics) and `parkit` (panic rendering): the MiniHLS
//! front-end for `source` requests is a callback the binary wires in,
//! keeping the serving layer reusable and the dependency graph acyclic.
//!
//! Module map:
//! - [`proto`] — request/reply wire types (JSON), encoded and decoded
//!   field by field.
//! - [`queue`] — bounded admission with deterministic shed-oldest,
//!   micro-batch coalescing, and the [`queue::WorkGate`] pacing gate.
//! - [`cache`] — digest-keyed LRU reply cache; each entry keeps its
//!   reply's text.
//! - [`registry`] — hot-swap model registry (the model epoch), validation
//!   gate, rollback.
//! - [`artifact`] — versioned on-disk model artifacts.
//! - [`journal`] — append-only crash-recovery journal.
//! - [`estimator`] — the analytic degraded-path estimator.
//! - [`server`] — the request engine tying it together; it runs each
//!   serve stage once under `catch_unwind`, and keeps the registry, the
//!   cache, the counters and the journal behind one lock.
//! - [`plan`] — fault plans for chaos tests, and the faults they inject
//!   at the serve stages.
//! - [`net`] — TCP framing, the poll(2) event-loop front-end, client
//!   helper.

#![warn(missing_docs)]
// The only unsafe code is the poll(2) call in `net`, which opts back in.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod artifact;
pub mod cache;
pub mod estimator;
pub mod journal;
pub mod net;
pub mod plan;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod server;

pub use artifact::{ModelArtifact, MODEL_SCHEMA};
pub use cache::{CacheStats, CachedReply, ReplyCache};
pub use estimator::{AnalyticEstimator, ANALYTIC_MODEL};
pub use journal::{Journal, JournalEvent, RecoveredState, JOURNAL_SCHEMA};
pub use net::{read_frame, request, serve_event_loop, write_frame, MAX_FRAME};
pub use plan::{serve_stages, FaultKind, FaultPlan, FaultRule};
pub use proto::{Reply, ReplyStatus, Request, RequestBody};
pub use queue::{coalesce_plan, shed_plan, AdmissionQueue, Admit, TraceStep, WorkGate};
pub use registry::{GateOutcome, GoldenBatch, ModelRegistry, ValidationGate};
pub use server::{
    LedgerSink, PendingReply, ServeConfig, ServeMetrics, ServeSummary, Server, SourceExtractor,
    SourceKeyFn, StartReport,
};

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Take `mutex`. Every servekit `Mutex` is taken here, under one poisoning
/// rule: a lock that a panicking thread held is taken as it stands, so one
/// panic never turns into a panic in every thread that locks after it.
///
/// The rule is sound because no code under these locks changes state
/// before a call that can panic: a critical section bumps counters, swaps
/// `Arc`s, edits a map or a queue, or appends a journal line, and an I/O
/// failure comes back as an `Err`. A panic there finds the state as the
/// last section that completed left it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Block on `ready`, giving back `guard` under [`lock`]'s rule.
pub(crate) fn wait<'a, T>(ready: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    ready.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
