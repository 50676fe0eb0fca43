//! Thread-local injection context and the injection point itself.
//!
//! The [`Supervisor`](crate::Supervisor) arms a scope —
//! `(plan, design, attempt)` — around each stage attempt; congestd's serve
//! stages call [`inject`] with their stage name. With no armed scope the
//! call is a two-instruction no-op, so production binaries pay nothing for
//! carrying the injection points.
//!
//! The context is thread-local on purpose: congestd's workers each
//! supervise their own request with its own attempt counter. A
//! process-global context would leak one request's faults into another's
//! stages.

use crate::plan::{FaultKind, FaultPlan};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// A typed, injected transient error. Stages wrap this into their own
/// error type (congestd's predict stage: `PredictErr::Injected`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Injection-point name.
    pub stage: String,
    /// Design being processed when the fault fired.
    pub design: String,
    /// Attempt number (0-based) the fault fired on.
    pub attempt: u32,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faultkit: injected transient error at `{}` (design `{}`, attempt {})",
            self.stage, self.design, self.attempt
        )
    }
}

impl std::error::Error for InjectedFault {}

/// The panic payload used for injected panics, so supervisors (and the
/// quiet panic hook) can tell injected panics from genuine bugs by
/// downcasting instead of string-matching.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// Human-readable description of the injection.
    pub message: String,
}

struct Ctx {
    plan: Arc<FaultPlan>,
    design: String,
    attempt: u32,
    fired: u32,
}

thread_local! {
    static STACK: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

/// An armed injection scope; disarms (pops) on drop. Returned by [`arm`].
pub struct InjectionScope {
    depth: usize,
}

impl InjectionScope {
    /// How many faults fired inside this scope so far. Survives a panic in
    /// the scoped code — read it *after* catching, *before* dropping.
    pub fn fired(&self) -> u32 {
        STACK.with(|s| {
            s.borrow()
                .get(self.depth)
                .map(|c| c.fired)
                .unwrap_or_default()
        })
    }
}

impl Drop for InjectionScope {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.len(), self.depth + 1, "injection scopes must nest");
            s.truncate(self.depth);
        });
    }
}

/// Arm fault injection on the current thread for one stage attempt.
pub fn arm(plan: Arc<FaultPlan>, design: &str, attempt: u32) -> InjectionScope {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Ctx {
            plan,
            design: design.to_string(),
            attempt,
            fired: 0,
        });
        InjectionScope { depth: s.len() - 1 }
    })
}

/// The fault decided for `stage` under the innermost armed scope, if any.
/// Marks the fault as fired.
fn decide(stage: &str) -> Option<(FaultKind, InjectedFault)> {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let ctx = s.last_mut()?;
        let rule = ctx.plan.fault_for(&ctx.design, stage, ctx.attempt)?;
        let fault = InjectedFault {
            stage: stage.to_string(),
            design: ctx.design.clone(),
            attempt: ctx.attempt,
        };
        let kind = rule.kind.clone();
        ctx.fired += 1;
        Some((kind, fault))
    })
}

/// The injection point. Returns `Err(InjectedFault)` for `error` faults
/// (wrap it into the stage's error type), panics with an [`InjectedPanic`]
/// payload for `panic` faults, sleeps for `delay_ms` faults, and is a
/// no-op when no scope is armed or no rule matches.
pub fn inject(stage: &str) -> Result<(), InjectedFault> {
    let Some((kind, fault)) = decide(stage) else {
        return Ok(());
    };
    match kind {
        FaultKind::Error => Err(fault),
        FaultKind::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        FaultKind::Panic => {
            std::panic::panic_any(InjectedPanic {
                message: format!(
                    "faultkit: injected panic at `{}` (design `{}`, attempt {})",
                    fault.stage, fault.design, fault.attempt
                ),
            });
        }
    }
}

/// Install a process-wide panic hook that suppresses the default
/// "thread panicked" stderr message for *injected* panics (payload is an
/// [`InjectedPanic`]) and delegates everything else to the previous hook.
/// Idempotent; call it from chaos tests and wherever a fault plan is
/// armed, so supervised chaos runs don't spray stderr.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultRule};

    fn plan(kind: FaultKind) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(0).with_rule(FaultRule::once("d", "s", kind)))
    }

    #[test]
    fn noop_without_scope() {
        assert!(inject("s").is_ok());
    }

    #[test]
    fn error_fault_is_typed_and_counted() {
        let scope = arm(plan(FaultKind::Error), "d", 0);
        let e = inject("s").unwrap_err();
        assert_eq!(e.stage, "s");
        assert_eq!(e.design, "d");
        assert_eq!(e.attempt, 0);
        // Second call fires again (the rule still matches this attempt).
        assert!(inject("s").is_err());
        assert!(inject("other").is_ok());
        assert_eq!(scope.fired(), 2);
    }

    #[test]
    fn panic_fault_carries_marker_payload() {
        silence_injected_panics();
        let scope = arm(plan(FaultKind::Panic), "d", 0);
        let caught = std::panic::catch_unwind(|| inject("s")).unwrap_err();
        let p = caught
            .downcast_ref::<InjectedPanic>()
            .expect("marker payload");
        assert!(p.message.contains("`s`"));
        assert_eq!(scope.fired(), 1);
    }

    #[test]
    fn attempt_gates_injection() {
        let p = plan(FaultKind::Error);
        {
            let _s = arm(p.clone(), "d", 0);
            assert!(inject("s").is_err());
        }
        {
            let _s = arm(p, "d", 1);
            assert!(inject("s").is_ok(), "attempts_below=1 spares attempt 1");
        }
    }

    #[test]
    fn scopes_nest_and_restore() {
        let p = plan(FaultKind::Error);
        let outer = arm(p.clone(), "d", 5);
        assert!(inject("s").is_ok(), "outer scope is attempt 5");
        {
            let inner = arm(p, "d", 0);
            assert!(inject("s").is_err());
            assert_eq!(inner.fired(), 1);
        }
        assert!(inject("s").is_ok(), "inner scope popped");
        assert_eq!(outer.fired(), 0);
    }
}
