//! # faultkit
//!
//! Deterministic fault injection and stage supervision for the congestion
//! pipeline — the robustness substrate the dataset builder (and every
//! future scaling layer: sharding, remote workers, serving) runs on.
//!
//! Three pieces:
//!
//! * [`FaultPlan`] — a serializable chaos plan. Rules match
//!   `(design, stage, attempt)` and inject a panic, a typed transient
//!   error, or artificial latency. Every decision is a pure function of the
//!   plan seed and those three coordinates — no wall-clock, no global RNG —
//!   so chaos runs replay bit-identically from the plan file alone.
//! * [`inject`] / [`inject_abort`] — the injection points, compiled into
//!   `hls-synth` (stage `hls`), `fpga-fabric`'s router (stage `route`), and
//!   `congestion-core`'s back-trace/feature stages. No-ops (two loads) when
//!   no plan is armed.
//! * [`Supervisor`] — wraps each pipeline stage with `catch_unwind` panic
//!   isolation, bounded retries with deterministic exponential backoff, and
//!   per-stage attempt/time budgets, downgrading failures into per-design
//!   outcomes instead of aborting the batch.
//!
//! ```
//! use faultkit::{FaultKind, FaultPlan, FaultRule, Supervisor, SupervisorPolicy};
//! use std::sync::Arc;
//!
//! faultkit::silence_injected_panics();
//! // Panic at stage `route` of every design, first attempt only.
//! let plan = FaultPlan::new(7).with_rule(FaultRule::once("*", "route", FaultKind::Panic));
//! let sup = Supervisor::new(SupervisorPolicy::no_sleep(), Some(Arc::new(plan)), "my-design");
//! let run = sup.run_stage(
//!     "route",
//!     |_attempt| {
//!         faultkit::inject_abort("route"); // the instrumented stage body
//!         Ok::<_, String>("routed")
//!     },
//!     |_e| false,
//! );
//! assert_eq!(run.result.unwrap(), "routed"); // attempt 1 recovered it
//! assert_eq!(run.log.panics_caught(), 1);
//! ```

pub mod inject;
pub mod plan;
pub mod supervisor;

pub use inject::{
    arm, inject, inject_abort, silence_injected_panics, InjectedFault, InjectedPanic,
};
pub use plan::{fnv1a, serve_stages, FaultKind, FaultPlan, FaultRule, PlanParseError};
pub use supervisor::{
    AttemptOutcome, AttemptRecord, StageFailure, StageLog, StageRun, Supervisor, SupervisorPolicy,
};
