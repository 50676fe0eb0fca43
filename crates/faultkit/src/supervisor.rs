//! Stage supervision: panic isolation, bounded deterministic retries, and
//! per-stage attempt/time budgets.
//!
//! A [`Supervisor`] wraps one design's trip through the pipeline. Each stage
//! runs under [`Supervisor::run_stage`], which:
//!
//! 1. arms the fault-injection scope for `(design, stage, attempt)`;
//! 2. catches panics at the stage boundary (`catch_unwind`), so one design's
//!    crash degrades into a per-design failure instead of sinking the batch;
//! 3. classifies each attempt — success, typed error (transient or
//!    permanent), injected error, panic, or budget overrun — and retries
//!    transient outcomes up to the policy's attempt budget with
//!    deterministic exponential backoff;
//! 4. returns the value *plus* a [`StageLog`] of every attempt, which the
//!    pipeline folds into the design report and obskit counters.
//!
//! **Determinism.** The backoff *schedule* (which attempts run, and the
//! backoff recorded before each) is a pure function of
//! `(policy, design, stage, attempt)` — wall-clock only decides *timeout*
//! classification, which is driven by injected latency in chaos runs. The
//! schedule is therefore bit-identical across worker counts, which
//! `StageLog: PartialEq` lets tests assert directly.

use crate::inject::{self, InjectedPanic};
use crate::plan::FaultPlan;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry/budget policy applied to every supervised stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorPolicy {
    /// Retries allowed after the first attempt (attempt budget is
    /// `max_retries + 1` attempts per stage).
    pub max_retries: u32,
    /// Per-attempt wall-clock budget. Checked *after* the attempt returns
    /// (cooperative — the supervisor never kills a thread); an attempt that
    /// overran is discarded and classified [`AttemptOutcome::TimedOut`],
    /// even if it produced a value. `None` disables the check, which also
    /// keeps supervision wall-clock-free (fully deterministic).
    pub stage_timeout: Option<Duration>,
    /// First backoff; attempt `n` (1-based retry) backs off
    /// `base * 2^(n-1)` plus deterministic jitter, capped at `backoff_cap`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff.
    pub backoff_cap: Duration,
    /// Actually sleep the backoff before retrying. Chaos tests turn this
    /// off: the *schedule* is still computed and logged, just not slept.
    pub sleep_on_retry: bool,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_retries: 2,
            stage_timeout: None,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            sleep_on_retry: true,
        }
    }
}

impl SupervisorPolicy {
    /// Default policy without backoff sleeps (tests).
    pub fn no_sleep() -> Self {
        SupervisorPolicy {
            sleep_on_retry: false,
            ..Self::default()
        }
    }

    /// The backoff scheduled before `attempt` (0-based; attempt 0 has
    /// none). Deterministic: exponential in the attempt number with jitter
    /// hashed from `(design, stage, attempt)` — no wall-clock, no RNG — so
    /// two runs of the same plan produce the same schedule.
    pub fn backoff_for(&self, design: &str, stage: &str, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let base = self.backoff_base.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(20));
        // Jitter in [0, base/2], decided by hash — spreads synchronized
        // retries without sacrificing replayability.
        let jitter = if base == 0 {
            0
        } else {
            obskit::fnv1a(&[design.as_bytes(), stage.as_bytes(), &attempt.to_le_bytes()])
                % (base / 2 + 1)
        };
        Duration::from_millis(exp.saturating_add(jitter)).min(self.backoff_cap)
    }
}

/// How one attempt of one stage ended. Carries no wall-clock, so attempt
/// logs compare equal across runs and worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The stage returned a value within budget.
    Ok,
    /// The stage returned, but past the per-attempt budget; the value was
    /// discarded and the attempt retried.
    TimedOut,
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
    /// Backoff scheduled before this attempt (zero for the first).
    pub backoff: Duration,
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

    /// Attempts discarded for exceeding the per-attempt budget.
    pub fn timeouts(&self) -> u32 {
        self.attempts
            .iter()
            .filter(|a| a.outcome == AttemptOutcome::TimedOut)
            .count() as u32
    }
}

/// Terminal failure of a supervised stage, after retries are exhausted.
#[derive(Debug)]
pub enum StageFailure<E> {
    /// The stage's own typed error (permanent, or transient with the
    /// attempt budget exhausted).
    Error(E),
    /// An injected transient error at an infallible stage, retries
    /// exhausted.
    Injected {
        /// Rendered injected fault.
        message: String,
    },
    /// The stage panicked on its last allowed attempt.
    Panic {
        /// True when the panic was injected by a fault plan.
        injected: bool,
        /// Rendered panic payload.
        message: String,
    },
    /// Every allowed attempt overran the per-attempt budget.
    Timeout {
        /// The budget each attempt exceeded.
        budget: Duration,
    },
}

impl<E: fmt::Display> fmt::Display for StageFailure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageFailure::Error(e) => write!(f, "{e}"),
            StageFailure::Injected { message } => write!(f, "{message}"),
            StageFailure::Panic { message, .. } => write!(f, "panic: {message}"),
            StageFailure::Timeout { budget } => {
                write!(f, "exceeded stage budget of {budget:?}")
            }
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

/// Supervises one design's pipeline stages. See the module docs.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Retry/budget policy.
    pub policy: SupervisorPolicy,
    /// Armed fault plan, if any.
    pub plan: Option<Arc<FaultPlan>>,
    /// Design under supervision (keys the injection scope and backoff
    /// jitter).
    pub design: String,
}

impl Supervisor {
    /// A supervisor for one design.
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
    ///
    /// The closure runs behind an `AssertUnwindSafe` boundary: the pipeline
    /// only ever passes values that are either consumed by the attempt or
    /// rebuilt on retry, so a half-mutated value can never leak across an
    /// unwind into another attempt.
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
        let attempts_allowed = self.policy.max_retries + 1;
        let mut terminal: Option<StageFailure<E>> = None;

        for attempt in 0..attempts_allowed {
            let backoff = self.policy.backoff_for(&self.design, stage, attempt);
            if self.policy.sleep_on_retry && !backoff.is_zero() {
                std::thread::sleep(backoff);
            }

            let scope = self
                .plan
                .as_ref()
                .map(|p| inject::arm(p.clone(), &self.design, attempt));
            let started = Instant::now();
            let caught = catch_unwind(AssertUnwindSafe(|| attempt_fn(attempt)));
            let elapsed = started.elapsed();
            if let Some(scope) = scope {
                log.injected += scope.fired();
            }

            let record = |outcome: AttemptOutcome| AttemptRecord {
                attempt,
                backoff,
                outcome,
            };
            match caught {
                Ok(Ok(value)) => {
                    if let Some(budget) = self.policy.stage_timeout {
                        if elapsed > budget {
                            log.attempts.push(record(AttemptOutcome::TimedOut));
                            terminal = Some(StageFailure::Timeout { budget });
                            continue; // discard the late value, retry
                        }
                    }
                    log.attempts.push(record(AttemptOutcome::Ok));
                    return StageRun {
                        result: Ok(value),
                        log,
                    };
                }
                Ok(Err(e)) => {
                    let transient = is_transient(&e);
                    log.attempts.push(record(AttemptOutcome::Failed {
                        transient,
                        message: e.to_string(),
                    }));
                    terminal = Some(StageFailure::Error(e));
                    if !transient {
                        break;
                    }
                }
                Err(payload) => {
                    let panic = classify_panic(payload);
                    match panic {
                        PanicClass::AsError(message) => {
                            log.attempts.push(record(AttemptOutcome::Failed {
                                transient: true,
                                message: message.clone(),
                            }));
                            terminal = Some(StageFailure::Injected { message });
                        }
                        PanicClass::Panic { injected, message } => {
                            log.attempts.push(record(AttemptOutcome::Panicked {
                                injected,
                                message: message.clone(),
                            }));
                            terminal = Some(StageFailure::Panic { injected, message });
                        }
                    }
                }
            }
        }

        StageRun {
            result: Err(terminal.unwrap_or(StageFailure::Timeout {
                // Unreachable: attempts_allowed >= 1, so some attempt always
                // sets `terminal` before the loop ends without returning.
                budget: Duration::ZERO,
            })),
            log,
        }
    }
}

enum PanicClass {
    /// Injected `error` fault transported through an infallible stage.
    AsError(String),
    /// A real (or injected) panic.
    Panic { injected: bool, message: String },
}

fn classify_panic(payload: Box<dyn Any + Send>) -> PanicClass {
    if let Some(ip) = payload.downcast_ref::<InjectedPanic>() {
        if ip.as_error {
            PanicClass::AsError(ip.message.clone())
        } else {
            PanicClass::Panic {
                injected: true,
                message: ip.message.clone(),
            }
        }
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        PanicClass::Panic {
            injected: false,
            message: (*s).to_string(),
        }
    } else if let Some(s) = payload.downcast_ref::<String>() {
        PanicClass::Panic {
            injected: false,
            message: s.clone(),
        }
    } else {
        PanicClass::Panic {
            injected: false,
            message: "non-string panic payload".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::silence_injected_panics;
    use crate::plan::{FaultKind, FaultPlan, FaultRule};

    fn sup(plan: Option<FaultPlan>) -> Supervisor {
        Supervisor::new(SupervisorPolicy::no_sleep(), plan.map(Arc::new), "d")
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
            |_| -> Result<(), String> {
                crate::inject_abort("e");
                Ok(())
            },
            |_| false,
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
    fn late_values_are_discarded_as_timeouts() {
        let mut s = sup(Some(FaultPlan::new(0).with_rule(FaultRule::once(
            "d",
            "slow",
            FaultKind::Delay(Duration::from_millis(120)),
        ))));
        s.policy.stage_timeout = Some(Duration::from_millis(40));
        let run = s.run_stage(
            "slow",
            |attempt| {
                crate::inject("slow").map_err(|f| f.to_string())?;
                Ok::<_, String>(attempt)
            },
            |_| false,
        );
        // Attempt 0 slept 120ms > 40ms budget → discarded; attempt 1 clean.
        assert_eq!(run.result.unwrap(), 1);
        assert_eq!(run.log.timeouts(), 1);
        assert_eq!(run.log.attempts[0].outcome, AttemptOutcome::TimedOut);
    }

    #[test]
    fn timeout_every_attempt_is_terminal() {
        let mut s = sup(Some(
            FaultPlan::new(0).with_rule(
                FaultRule::once("d", "slow", FaultKind::Delay(Duration::from_millis(80)))
                    .for_attempts(u32::MAX),
            ),
        ));
        s.policy.stage_timeout = Some(Duration::from_millis(10));
        s.policy.max_retries = 1;
        let run = s.run_stage(
            "slow",
            |_| {
                crate::inject("slow").map_err(|f| f.to_string())?;
                Ok::<_, String>(())
            },
            |_| false,
        );
        assert!(matches!(run.result, Err(StageFailure::Timeout { .. })));
        assert_eq!(run.log.timeouts(), 2);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_exponential() {
        let p = SupervisorPolicy::default();
        let b1 = p.backoff_for("d", "s", 1);
        let b2 = p.backoff_for("d", "s", 2);
        let b3 = p.backoff_for("d", "s", 3);
        assert_eq!(b1, p.backoff_for("d", "s", 1), "same inputs, same backoff");
        assert!(b2 > b1 && b3 > b2, "{b1:?} {b2:?} {b3:?}");
        assert!(b3 <= p.backoff_cap);
        assert_ne!(
            p.backoff_for("d", "s", 1),
            p.backoff_for("other", "s", 1),
            "jitter separates designs"
        );
        assert_eq!(p.backoff_for("d", "s", 0), Duration::ZERO);
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
