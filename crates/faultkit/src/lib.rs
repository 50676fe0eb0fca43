//! # faultkit
//!
//! Deterministic fault injection and stage supervision for the serving
//! daemon, `congestd`.
//!
//! Three pieces:
//!
//! * [`FaultPlan`] — a serializable chaos plan. Rules match
//!   `(design, stage, attempt)` and inject a panic, a typed transient
//!   error, or artificial latency. Every decision is a pure function of the
//!   plan seed and those three coordinates — no wall-clock, no global RNG —
//!   so chaos runs replay bit-identically from the plan file alone.
//! * [`inject()`] — the injection point, called by congestd's four serve
//!   stages ([`serve_stages::ALL`]). A no-op (two loads) when no plan is
//!   armed.
//! * [`Supervisor`] — wraps each serve stage with `catch_unwind` panic
//!   isolation and a bounded number of retries, downgrading failures into
//!   typed replies instead of killing a worker.
//!
//! ```
//! use faultkit::{serve_stages, FaultKind, FaultPlan, FaultRule, Supervisor, SupervisorPolicy};
//! use std::sync::Arc;
//!
//! faultkit::silence_injected_panics();
//! // Panic at `serve.predict` of every request, first attempt only.
//! let plan = FaultPlan::new(7).with_rule(FaultRule::once(
//!     "*",
//!     serve_stages::PREDICT,
//!     FaultKind::Panic,
//! ));
//! let sup = Supervisor::new(SupervisorPolicy::default(), Some(Arc::new(plan)), "req-1");
//! let run = sup.run_stage(
//!     serve_stages::PREDICT,
//!     |_attempt| {
//!         faultkit::inject(serve_stages::PREDICT).map_err(|f| f.to_string())?;
//!         Ok::<_, String>("predicted") // the instrumented stage body
//!     },
//!     |_e| false,
//! );
//! assert_eq!(run.result.unwrap(), "predicted"); // attempt 1 recovered it
//! assert_eq!(run.log.panics_caught(), 1);
//! ```

pub mod inject;
pub mod plan;
pub mod supervisor;

pub use inject::{arm, inject, silence_injected_panics, InjectedFault, InjectedPanic};
pub use plan::{serve_stages, FaultKind, FaultPlan, FaultRule, PlanParseError};
pub use supervisor::{
    AttemptOutcome, AttemptRecord, StageFailure, StageLog, StageRun, Supervisor, SupervisorPolicy,
};
