//! Hierarchical spans and the per-unit [`Collector`].
//!
//! A collector is single-threaded by design: each unit of parallel work
//! (one design, one CV fold, one grid point) owns its own collector,
//! finishes it into an [`ObsRecord`], and the coordinating thread absorbs
//! the records **in input order** — the same determinism rule as `parkit`.
//! Nesting needs no explicit parent ids: Chrome trace viewers reconstruct
//! the hierarchy from `ts`/`dur` containment on one `tid`, which guard
//! scoping guarantees.

use crate::clock;
use crate::metrics::{MetricsSnapshot, Registry};
use std::cell::RefCell;

/// One completed span, in Chrome trace-event terms.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (`design`, `hls`, `route`, …).
    pub name: String,
    /// Category shown by trace viewers (defaults to `pipeline`).
    pub cat: String,
    /// Start, microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Thread id the span ran on (see [`clock::thread_tid`]).
    pub tid: u64,
    /// Free-form key/value annotations (design name, error text, …).
    pub args: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<SpanEvent>,
    registry: Registry,
}

/// A per-unit span and metrics collector.
///
/// Interior mutability (single-threaded `RefCell`) lets nested [`SpanGuard`]s
/// and metric calls share one `&Collector` — a collector is moved across
/// threads (created in a worker, finished, returned), never shared.
#[derive(Debug, Default)]
pub struct Collector {
    inner: RefCell<Inner>,
}

impl Collector {
    /// A fresh, empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Open a span; it records itself when the guard drops (or on
    /// [`SpanGuard::end`]).
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        self.span_cat(name, "pipeline")
    }

    /// [`Collector::span`] with an explicit category.
    pub fn span_cat(&self, name: impl Into<String>, cat: impl Into<String>) -> SpanGuard<'_> {
        SpanGuard {
            collector: self,
            name: name.into(),
            cat: cat.into(),
            ts_us: clock::now_us(),
            args: Vec::new(),
            recorded: false,
        }
    }

    /// Add `delta` to counter `name`.
    pub fn inc(&self, name: &str, delta: u64) {
        self.inner.borrow_mut().registry.inc(name, delta);
    }

    /// Set gauge `name` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner.borrow_mut().registry.set_gauge(name, value);
    }

    /// Record `value` into histogram `name` (a non-finite value is
    /// dropped).
    pub fn observe(&self, name: &str, value: f64) {
        self.inner.borrow_mut().registry.observe(name, value);
    }

    /// Absorb a finished unit's record: events append (input order),
    /// metrics merge additively.
    pub fn absorb(&self, rec: ObsRecord) {
        let mut inner = self.inner.borrow_mut();
        inner.events.extend(rec.events);
        inner.registry.merge(&rec.metrics);
    }

    /// Current metrics snapshot (events stay in the collector).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.borrow().registry.snapshot()
    }

    /// Finish the collector into an immutable record.
    pub fn finish(self) -> ObsRecord {
        let inner = self.inner.into_inner();
        ObsRecord {
            events: inner.events,
            metrics: inner.registry.into_snapshot(),
        }
    }
}

/// An open span; records a [`SpanEvent`] into its collector on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    collector: &'a Collector,
    name: String,
    cat: String,
    ts_us: u64,
    args: Vec<(String, String)>,
    recorded: bool,
}

impl SpanGuard<'_> {
    /// Attach a key/value annotation to the span.
    pub fn arg(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.args.push((key.into(), value.into()));
    }

    /// Close the span now (otherwise the drop does).
    pub fn end(self) {}

    fn record(&mut self) {
        if self.recorded {
            return;
        }
        self.recorded = true;
        let event = SpanEvent {
            name: std::mem::take(&mut self.name),
            cat: std::mem::take(&mut self.cat),
            ts_us: self.ts_us,
            dur_us: clock::now_us().saturating_sub(self.ts_us),
            tid: clock::thread_tid(),
            args: std::mem::take(&mut self.args),
        };
        self.collector.inner.borrow_mut().events.push(event);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

/// A finished collector: the merge and export unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsRecord {
    /// Completed spans, in completion order within a unit and in absorb
    /// (input) order across units.
    pub events: Vec<SpanEvent>,
    /// The unit's metrics.
    pub metrics: MetricsSnapshot,
}

impl ObsRecord {
    /// An empty record.
    pub fn new() -> ObsRecord {
        ObsRecord::default()
    }

    /// Merge many unit records in iteration (= input) order.
    pub fn merged(units: impl IntoIterator<Item = ObsRecord>) -> ObsRecord {
        let out = Collector::new();
        for u in units {
            out.absorb(u);
        }
        out.finish()
    }

    /// Total duration of every span with the given name (µs).
    pub fn span_total_us(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us)
            .sum()
    }
}

// Collectors and records cross thread boundaries by move (worker → merge).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Collector>();
    assert_send::<ObsRecord>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_in_completion_order() {
        let obs = Collector::new();
        {
            let mut outer = obs.span("design");
            outer.arg("design", "d0");
            {
                let _inner = obs.span("hls");
            }
        }
        let rec = obs.finish();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].name, "hls");
        assert_eq!(rec.events[1].name, "design");
        assert_eq!(rec.events[1].args, vec![("design".into(), "d0".into())]);
        // The outer span contains the inner one on the timeline.
        assert!(rec.events[1].ts_us <= rec.events[0].ts_us);
        assert!(
            rec.events[1].ts_us + rec.events[1].dur_us
                >= rec.events[0].ts_us + rec.events[0].dur_us
        );
    }

    #[test]
    fn absorb_merges_metrics_and_appends_events() {
        let unit = |n: u64| {
            let c = Collector::new();
            let _s = c.span(format!("unit{n}"));
            c.inc("work.items", n);
            drop(_s);
            c.finish()
        };
        let main = Collector::new();
        main.absorb(unit(1));
        main.absorb(unit(2));
        let rec = main.finish();
        assert_eq!(rec.metrics.counters["work.items"], 3);
        assert_eq!(rec.events[0].name, "unit1");
        assert_eq!(rec.events[1].name, "unit2");
    }

    #[test]
    fn span_total_sums_same_name() {
        let obs = Collector::new();
        obs.span("x").end();
        obs.span("x").end();
        obs.span("y").end();
        let rec = obs.finish();
        assert_eq!(
            rec.span_total_us("x"),
            rec.events[0].dur_us + rec.events[1].dur_us
        );
    }

    #[test]
    fn merged_respects_input_order() {
        let mk = |name: &str| {
            let c = Collector::new();
            c.span(name).end();
            c.finish()
        };
        let rec = ObsRecord::merged(vec![mk("a"), mk("b"), mk("c")]);
        let names: Vec<&str> = rec.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
