//! # parkit
//!
//! Deterministic data parallelism over OS threads for the congestion
//! pipeline's hot paths (dataset construction, cross-validation folds,
//! grid-search points, experiment fan-out).
//!
//! The container this workspace builds in has no network access, so a
//! `rayon` dependency is off the table; this crate provides the small slice
//! of rayon the pipeline needs — an **ordered parallel map** — on top of
//! `std::thread::scope`. Three properties are guaranteed:
//!
//! 1. **Output order equals input order**, regardless of which worker
//!    finishes first, so parallel results are bit-identical to the serial
//!    path whenever the per-item function is itself deterministic.
//! 2. **Worker count is explicit and controllable**: [`num_threads`]
//!    honours the `RAYON_NUM_THREADS` environment variable (kept for
//!    ecosystem familiarity) and falls back to the machine's available
//!    parallelism.
//! 3. **Panics are isolated per item**: [`par_map_catch_threads`] catches a
//!    panicking closure at the item boundary and returns the payload as an
//!    error value in that item's slot, so one poisoned design cannot sink a
//!    whole dataset build. [`par_map_threads`] is built on top of it and
//!    re-raises the first (in input order) panic only after every other
//!    item has completed — deterministic for any worker count.
//!
//! Work is distributed dynamically (an atomic cursor over the item list),
//! so a single slow item — one large design, one expensive fold — does not
//! leave the other workers idle, which is exactly the workload shape of
//! HLS + place-and-route over a benchmark suite.
//!
//! The ordered map is the only executor. Designs are independent, so
//! mapping whole designs across workers already keeps every worker busy
//! on some stage; a cross-stage pipeline with per-stage pools was measured
//! against it and never won by a real margin (DESIGN.md §12).

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A captured panic from one item's closure invocation.
///
/// [`par_map_catch_threads`] turns a panicking item into `Err(Panicked)`
/// instead of letting the unwind cross the thread join and poison the whole
/// batch. The original payload is preserved, so callers that do want to die
/// can [`Panicked::resume`] with full fidelity (typed payloads like
/// servekit's injected-panic marker survive the round trip). Callers that
/// catch panics themselves wrap the payload with `Panicked::from` to
/// render it.
pub struct Panicked {
    payload: Box<dyn Any + Send + 'static>,
}

impl From<Box<dyn Any + Send + 'static>> for Panicked {
    fn from(payload: Box<dyn Any + Send + 'static>) -> Panicked {
        Panicked { payload }
    }
}

impl Panicked {
    /// Human-readable panic message (`&str`/`String` payloads; anything
    /// else renders as a placeholder).
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// The original panic payload.
    pub fn into_payload(self) -> Box<dyn Any + Send + 'static> {
        self.payload
    }

    /// Re-raise the captured panic on the current thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.payload)
    }
}

impl fmt::Debug for Panicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Panicked({:?})", self.message())
    }
}

impl fmt::Display for Panicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "panic: {}", self.message())
    }
}

/// The worker count used by [`par_map`]: `RAYON_NUM_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` with up to [`num_threads`] workers, preserving
/// input order in the output.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count. `threads == 1` runs inline on
/// the calling thread (the serial reference path).
///
/// # Panics
/// If `f` panics for any item, every other item still completes, and the
/// panic of the **first item in input order** is then re-raised with its
/// original payload — identical behaviour for 1 and N workers. (Before this
/// existed, a worker panic unwound across the scope join and poisoned the
/// whole batch, discarding every completed item.) Callers that want panics
/// as values instead use [`par_map_catch_threads`].
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let mut first_panic = None;
    for result in par_map_catch_threads(threads, items, f) {
        match result {
            Ok(v) => out.push(v),
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic {
        p.resume();
    }
    out
}

/// Map `f` over `items` with up to `threads` workers, catching panics **per
/// item**: a panicking closure yields `Err(`[`Panicked`]`)` in that item's
/// slot while every other item completes normally.
///
/// Output order equals input order, and the Ok/Err classification of every
/// slot is bit-identical for 1 vs N workers (the per-item function decides
/// it, not scheduling).
///
/// The closure runs behind an `AssertUnwindSafe` boundary. That is sound
/// here because the boundary is per *item*: `f` only borrows `items`
/// immutably, and an item whose invocation unwound contributes nothing but
/// the payload — no half-mutated state can be observed by other items.
/// Closures that mutate shared state through interior mutability must keep
/// that state consistent across unwinds themselves.
pub fn par_map_catch_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<Result<R, Panicked>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let call = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(Panicked::from);
    let workers = threads.clamp(1, items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(call).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, Panicked>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let value = call(item);
                *slots[i].lock().unwrap() = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every slot filled by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_threads(8, &items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_path() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map_threads(1, &items, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(13));
        let parallel = par_map_threads(7, &items, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(13));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<usize> = (0..103).collect();
        let out = par_map_threads(4, &items, |&x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 103);
        assert_eq!(out.len(), 103);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_threads(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_threads(4, &[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        par_map_threads(4, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            ids.lock().unwrap().insert(std::thread::current().id());
            x
        });
        assert!(ids.lock().unwrap().len() > 1, "expected >1 worker thread");
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    /// Marker in test panic messages so the quiet hook below can drop the
    /// default "thread panicked" stderr spam without hiding real failures.
    const TEST_PANIC: &str = "parkit-test-panic";

    fn quiet_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.contains(TEST_PANIC))
                    .or_else(|| {
                        info.payload()
                            .downcast_ref::<String>()
                            .map(|s| s.contains(TEST_PANIC))
                    })
                    .unwrap_or(false);
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn panics_are_caught_per_item_and_ordered() {
        quiet_panics();
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_catch_threads(8, &items, |&x| {
            if x % 10 == 3 {
                panic!("{TEST_PANIC} at {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i % 10 == 3 {
                let p = r.as_ref().unwrap_err();
                assert!(p.message().contains(&format!("at {i}")), "{p:?}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    fn catch_classification_identical_for_1_and_n_workers() {
        quiet_panics();
        let items: Vec<u32> = (0..97).collect();
        let f = |&x: &u32| {
            if x % 7 == 0 {
                panic!("{TEST_PANIC} {x}");
            }
            x + 1
        };
        let flatten = |v: Vec<Result<u32, Panicked>>| -> Vec<Result<u32, String>> {
            v.into_iter().map(|r| r.map_err(|p| p.message())).collect()
        };
        let serial = flatten(par_map_catch_threads(1, &items, f));
        let parallel = flatten(par_map_catch_threads(6, &items, f));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_reraises_first_panic_in_input_order_with_payload() {
        quiet_panics();
        let completed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_threads(4, &items, |&x| {
                // Two panicking items; the *lower index* must win
                // regardless of which worker hits one first.
                if x == 9 || x == 21 {
                    panic!("{TEST_PANIC} index {x}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            });
        }))
        .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .expect("string payload")
            .clone();
        assert!(msg.contains("index 9"), "first in input order wins: {msg}");
        // Every non-panicking item still ran — nothing was poisoned.
        assert_eq!(completed.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn typed_panic_payloads_survive_the_round_trip() {
        quiet_panics();
        #[derive(Debug, PartialEq)]
        struct Marker(u32);
        let items = [1u32];
        let out = par_map_catch_threads(1, &items, |_| {
            // Typed payloads must survive for supervisor downcasting; the
            // quiet hook can't match these, so silence via the marker-free
            // path is acceptable for this single case.
            std::panic::panic_any(Marker(5));
            #[allow(unreachable_code)]
            0u32
        });
        let payload = out.into_iter().next().unwrap().unwrap_err().into_payload();
        assert_eq!(payload.downcast_ref::<Marker>(), Some(&Marker(5)));
    }
}
