//! Stage supervision: panic isolation and bounded retries for congestd's
//! serve stages.
//!
//! A [`Supervisor`] wraps one request's trip through a serve stage.
//! [`Supervisor::run_stage`]:
//!
//! 1. arms the fault-injection scope for `(design, stage, attempt)`;
//! 2. catches panics at the stage boundary (`catch_unwind`), so one
//!    request's crash degrades into a typed reply instead of killing a
//!    worker;
//! 3. classifies each attempt — success, typed error (transient or
//!    permanent), or panic — and retries transient errors and panics up to
//!    the policy's attempt budget, with no sleep in between;
//! 4. returns the value *plus* a [`StageLog`] of every attempt, which the
//!    server folds into its counters.
//!
//! **Determinism.** Which attempts run is a pure function of the policy,
//! the plan and what each attempt returned — no wall-clock — so
//! `StageLog: PartialEq` lets tests compare logs across runs directly.

use crate::inject::{self, InjectedPanic};
use crate::plan::FaultPlan;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Retry policy applied to every supervised stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorPolicy {
    /// Retries allowed after the first attempt (attempt budget is
    /// `max_retries + 1` attempts per stage).
    pub max_retries: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy { max_retries: 2 }
    }
}

/// How one attempt of one stage ended. Carries no wall-clock, so attempt
/// logs compare equal across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The stage returned a value.
    Ok,
    /// The stage returned a typed error.
    Failed {
        /// Whether the error class is worth retrying.
        transient: bool,
        /// Rendered error.
        message: String,
    },
    /// The stage panicked and the supervisor caught it.
    Panicked {
        /// True when the panic was injected by a fault plan.
        injected: bool,
        /// Rendered panic payload.
        message: String,
    },
}

/// One attempt in a [`StageLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 0-based attempt number.
    pub attempt: u32,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// Everything the supervisor observed while running one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLog {
    /// Stage name.
    pub stage: String,
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Faults injected across all attempts of this stage.
    pub injected: u32,
}

impl StageLog {
    /// Retries performed (attempts beyond the first).
    pub fn retries(&self) -> u32 {
        (self.attempts.len() as u32).saturating_sub(1)
    }

    /// Panics caught across attempts.
    pub fn panics_caught(&self) -> u32 {
        self.attempts
            .iter()
            .filter(|a| matches!(a.outcome, AttemptOutcome::Panicked { .. }))
            .count() as u32
    }
}

/// Terminal failure of a supervised stage, after retries are exhausted.
#[derive(Debug)]
pub enum StageFailure<E> {
    /// The stage's own typed error (permanent, or transient with the
    /// attempt budget exhausted).
    Error(E),
    /// The stage panicked on its last allowed attempt.
    Panic {
        /// True when the panic was injected by a fault plan.
        injected: bool,
        /// Rendered panic payload.
        message: String,
    },
}

impl<E: fmt::Display> fmt::Display for StageFailure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageFailure::Error(e) => write!(f, "{e}"),
            StageFailure::Panic { message, .. } => write!(f, "panic: {message}"),
        }
    }
}

/// Result of a supervised stage: the value or terminal failure, plus the
/// full attempt log either way.
pub struct StageRun<T, E> {
    /// The stage's value, or why it ultimately failed.
    pub result: Result<T, StageFailure<E>>,
    /// Every attempt the supervisor made.
    pub log: StageLog,
}

/// Supervises one request's serve stages. See the module docs.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Retry policy.
    pub policy: SupervisorPolicy,
    /// Armed fault plan, if any.
    pub plan: Option<Arc<FaultPlan>>,
    /// Design (or request) under supervision; keys the injection scope.
    pub design: String,
}

impl Supervisor {
    /// A supervisor for one design or request.
    pub fn new(policy: SupervisorPolicy, plan: Option<Arc<FaultPlan>>, design: &str) -> Supervisor {
        Supervisor {
            policy,
            plan,
            design: design.to_string(),
        }
    }

    /// Run `stage` under supervision. `attempt_fn` receives the 0-based
    /// attempt number; `is_transient` classifies the stage's typed errors
    /// (transient errors are retried, permanent ones fail immediately).
    /// Panics are always retried.
    ///
    /// The closure runs behind an `AssertUnwindSafe` boundary: callers only
    /// ever pass values that are either consumed by the attempt or rebuilt
    /// on retry, so a half-mutated value can never leak across an unwind
    /// into another attempt.
    pub fn run_stage<T, E, F, C>(
        &self,
        stage: &str,
        mut attempt_fn: F,
        is_transient: C,
    ) -> StageRun<T, E>
    where
        F: FnMut(u32) -> Result<T, E>,
        C: Fn(&E) -> bool,
        E: fmt::Display,
    {
        let mut log = StageLog {
            stage: stage.to_string(),
            attempts: Vec::new(),
            injected: 0,
        };
        let mut attempt = 0;
        loop {
            let scope = self
                .plan
                .as_ref()
                .map(|p| inject::arm(p.clone(), &self.design, attempt));
            let caught = catch_unwind(AssertUnwindSafe(|| attempt_fn(attempt)));
            if let Some(scope) = scope {
                log.injected += scope.fired();
            }

            let (outcome, failure, retry) = match caught {
                Ok(Ok(value)) => {
                    log.attempts.push(AttemptRecord {
                        attempt,
                        outcome: AttemptOutcome::Ok,
                    });
                    return StageRun {
                        result: Ok(value),
                        log,
                    };
                }
                Ok(Err(e)) => {
                    let transient = is_transient(&e);
                    let message = e.to_string();
                    let outcome = AttemptOutcome::Failed { transient, message };
                    (outcome, StageFailure::Error(e), transient)
                }
                Err(payload) => {
                    let (injected, message) = describe_panic(payload);
                    let outcome = AttemptOutcome::Panicked {
                        injected,
                        message: message.clone(),
                    };
                    (outcome, StageFailure::Panic { injected, message }, true)
                }
            };
            log.attempts.push(AttemptRecord { attempt, outcome });
            if !retry || attempt >= self.policy.max_retries {
                return StageRun {
                    result: Err(failure),
                    log,
                };
            }
            attempt += 1;
        }
    }
}

/// Whether a caught panic was injected by a fault plan, and its message.
fn describe_panic(payload: Box<dyn Any + Send>) -> (bool, String) {
    if let Some(ip) = payload.downcast_ref::<InjectedPanic>() {
        (true, ip.message.clone())
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (false, (*s).to_string())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (false, s.clone())
    } else {
        (false, "non-string panic payload".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::silence_injected_panics;
    use crate::plan::{FaultKind, FaultPlan, FaultRule};

    fn sup(plan: Option<FaultPlan>) -> Supervisor {
        Supervisor::new(SupervisorPolicy::default(), plan.map(Arc::new), "d")
    }

    #[test]
    fn success_needs_one_attempt() {
        let run = sup(None).run_stage("s", |_| Ok::<_, String>(42), |_| false);
        assert_eq!(run.result.unwrap(), 42);
        assert_eq!(run.log.attempts.len(), 1);
        assert_eq!(run.log.attempts[0].outcome, AttemptOutcome::Ok);
        assert_eq!(run.log.retries(), 0);
    }

    #[test]
    fn permanent_error_is_not_retried() {
        let mut calls = 0;
        let run = sup(None).run_stage(
            "s",
            |_| -> Result<(), String> {
                calls += 1;
                Err("invalid IR".into())
            },
            |_| false,
        );
        assert!(matches!(run.result, Err(StageFailure::Error(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_error_retries_until_success() {
        let run = sup(None).run_stage(
            "s",
            |attempt| {
                if attempt < 2 {
                    Err(format!("flaky {attempt}"))
                } else {
                    Ok(attempt)
                }
            },
            |_| true,
        );
        assert_eq!(run.result.unwrap(), 2);
        assert_eq!(run.log.retries(), 2);
        assert_eq!(run.log.attempts[2].outcome, AttemptOutcome::Ok);
    }

    #[test]
    fn retries_are_bounded() {
        let mut calls = 0u32;
        let run = sup(None).run_stage(
            "s",
            |_| -> Result<(), String> {
                calls += 1;
                Err("always".into())
            },
            |_| true,
        );
        assert!(run.result.is_err());
        assert_eq!(calls, SupervisorPolicy::default().max_retries + 1);
    }

    #[test]
    fn panics_are_caught_and_retried() {
        silence_injected_panics();
        let run = sup(None).run_stage(
            "s",
            |attempt| -> Result<u32, String> {
                if attempt == 0 {
                    panic!("boom faultkit-test");
                }
                Ok(7)
            },
            |_| false,
        );
        assert_eq!(run.result.unwrap(), 7);
        assert_eq!(run.log.panics_caught(), 1);
        match &run.log.attempts[0].outcome {
            AttemptOutcome::Panicked { injected, message } => {
                assert!(!injected);
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic record, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_and_error_classified() {
        silence_injected_panics();
        let plan = FaultPlan::new(0)
            .with_rule(FaultRule::once("d", "p", FaultKind::Panic))
            .with_rule(FaultRule::once("d", "e", FaultKind::Error));
        let s = sup(Some(plan));

        let run = s.run_stage(
            "p",
            |_| -> Result<(), String> { crate::inject("p").map_err(|f| f.to_string()) },
            |_| true,
        );
        assert!(run.result.is_ok(), "retry recovers the injected panic");
        assert!(matches!(
            run.log.attempts[0].outcome,
            AttemptOutcome::Panicked { injected: true, .. }
        ));
        assert_eq!(run.log.injected, 1);

        let run = s.run_stage(
            "e",
            |_| -> Result<(), String> { crate::inject("e").map_err(|f| f.to_string()) },
            |_| true,
        );
        assert!(run.result.is_ok());
        assert!(matches!(
            run.log.attempts[0].outcome,
            AttemptOutcome::Failed {
                transient: true,
                ..
            }
        ));
    }

    #[test]
    fn attempt_logs_compare_equal_across_runs() {
        let plan = FaultPlan::new(3).with_rule(FaultRule::once("d", "s", FaultKind::Error));
        let go = || {
            sup(Some(plan.clone())).run_stage(
                "s",
                |_| crate::inject("s").map_err(|f| f.to_string()),
                |_| true,
            )
        };
        assert_eq!(go().log, go().log);
    }
}
