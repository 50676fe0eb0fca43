//! The metrics registry: monotonic counters, gauges, quantile-sketch
//! histograms, and deterministic merging.
//!
//! Metric names follow the `stage.metric` convention (`route.rerouted_conns`,
//! `train.gbrt.stage_loss`, `cv.fold.wall_ms`). Names ending in `_ms`, `_us`
//! or `_ns` are **timing metrics**: their values are wall-clock and therefore
//! nondeterministic, so [`MetricsSnapshot::deterministic_digest`] includes
//! only their sample *counts*, not their distribution.

use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;

/// True when `name` denotes a wall-clock metric whose *values* are
/// nondeterministic (the sample count still is deterministic).
pub fn is_timing_metric(name: &str) -> bool {
    name.ends_with("_ms") || name.ends_with("_us") || name.ends_with("_ns")
}

/// A point-in-time view of every metric: the unit of merging and export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-written values (wall-clocks, final losses, …).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms, each a [`QuantileSketch`] with the default accuracy.
    pub histograms: BTreeMap<String, QuantileSketch>,
}

impl MetricsSnapshot {
    /// Merge `other` into `self`: counters and histogram bins add,
    /// gauges take `other`'s value (last write wins). Callers must merge
    /// in input order — same rule as `parkit` — for deterministic results.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .and_modify(|mine| mine.merge(h))
                .or_insert_with(|| h.clone());
        }
    }

    /// The deterministic view of this snapshot, as a canonical string:
    /// every counter with its value, and every histogram with its total
    /// sample count — plus the full canonical sketch for non-timing
    /// histograms. Two runs of a deterministic workload produce equal
    /// digests for any worker count; wall-clock content (gauges,
    /// timing-histogram values) is excluded.
    pub fn deterministic_digest(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k}={v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("hist {k} n={}", h.count()));
            if !is_timing_metric(k) {
                out.push_str(&format!(" sketch={}", h.to_json()));
            }
            out.push('\n');
        }
        out
    }
}

/// The mutable registry a [`crate::Collector`] writes into.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    snap: MetricsSnapshot,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `delta` to the counter `name` (created at 0).
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.snap.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.snap.gauges.insert(name.to_string(), value);
    }

    /// Record `value` into histogram `name`. A non-finite value is
    /// dropped, as [`QuantileSketch::observe`] drops it.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.snap
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Merge a finished unit's snapshot into this registry (input order!).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.snap.merge(other);
    }

    /// Clone out the current snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snap.clone()
    }

    /// Consume the registry, yielding its snapshot without a clone.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        self.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.inc("a.b", 2);
        r.inc("a.b", 3);
        assert_eq!(r.snapshot().counters["a.b"], 5);
    }

    #[test]
    fn merge_is_additive_for_counters_and_buckets() {
        let mut a = Registry::new();
        a.inc("n", 1);
        a.observe("h", 0.5);
        a.set_gauge("g", 1.0);
        let mut b = Registry::new();
        b.inc("n", 2);
        b.observe("h", 1.5);
        b.set_gauge("g", 7.0);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counters["n"], 3);
        let h = &merged.histograms["h"];
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (2, 2.0, Some(0.5), Some(1.5))
        );
        assert_eq!(merged.gauges["g"], 7.0, "gauges are last-write-wins");
    }

    #[test]
    fn digest_ignores_wall_clock_content() {
        let make = |ms: f64| {
            let mut r = Registry::new();
            r.inc("route.rerouted_conns", 41);
            r.observe("route.pass_overflow", 3.0);
            r.observe("cv.fold.wall_ms", ms); // timing metric: value varies
            r.set_gauge("dataset.wall_ms", ms);
            r.snapshot().deterministic_digest()
        };
        assert_eq!(make(1.0), make(999.0));
        assert!(make(1.0).contains("counter route.rerouted_conns=41"));
        assert!(make(1.0).contains("hist cv.fold.wall_ms n=1\n"));
        assert!(make(1.0).contains("hist route.pass_overflow n=1 sketch={\"alpha\":"));
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut r = Registry::new();
        for v in [3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            r.observe("route.pass_overflow", v);
        }
        let h = &r.snapshot().histograms["route.pass_overflow"];
        assert_eq!((h.count(), h.sum(), h.quantile(0.99)), (1, 3.0, 3.0));
    }

    #[test]
    fn merge_order_independent_for_counts_not_gauges() {
        let mut a = Registry::new();
        a.inc("c", 1);
        let mut b = Registry::new();
        b.inc("c", 2);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab.deterministic_digest(), ba.deterministic_digest());
    }
}
