//! Streaming quantile sketches: deterministic, mergeable, and
//! worker-count-invariant, like the metrics registry.
//!
//! The sketch is DDSketch-shaped: values map to logarithmic bins with a
//! fixed relative accuracy, so any quantile estimate is within a bounded
//! *relative* error of the true value while the state stays a few hundred
//! bins regardless of stream length, and it adapts to any value range
//! without bounds chosen up front. It is the workspace's only histogram:
//! registry histograms, serve latency, dataset fingerprints and
//! model-telemetry distributions are all sketches.
//!
//! ## Determinism contract
//!
//! Bin assignment is a pure function of the value, and [`QuantileSketch::merge`]
//! adds bin counts — a commutative, associative operation on integers. A
//! stream split across N workers, sketched per worker, and merged is
//! therefore **bit-identical** to the single-worker sketch of the same
//! stream in every count, bin, min and max — hence in every quantile.
//! `sum` is a float accumulator, so merge per-unit sketches in input
//! order (the parkit rule) and the full canonical serialization is
//! bit-identical for any worker count, because the summation tree never
//! depends on how many threads did the work.

use crate::json;
use std::collections::BTreeMap;
use std::fmt;

/// Relative accuracy of the default sketch: quantile estimates are within
/// 1 % of the true value (for values away from zero).
pub const DEFAULT_ALPHA: f64 = 0.01;

/// Values with magnitude below this collapse into the zero bin — they are
/// smaller than any quantity the pipeline measures (percentages, counts,
/// losses, milliseconds).
const MIN_MAGNITUDE: f64 = 1e-12;

/// Why [`QuantileSketch::from_parts`] refused its parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SketchError {
    /// The relative accuracy is outside (0, 1).
    Alpha(f64),
    /// The bin counts total more than `u64` can hold.
    CountOverflow,
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::Alpha(a) => write!(f, "sketch alpha must be in (0, 1), got {a}"),
            SketchError::CountOverflow => write!(f, "sketch bin counts overflow u64"),
        }
    }
}

impl std::error::Error for SketchError {}

/// A mergeable log-binned quantile sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// ln(gamma) where gamma = (1 + alpha) / (1 - alpha); fixed per sketch.
    gamma_ln: f64,
    /// Bins for positive values: key `k` covers `(gamma^(k-1), gamma^k]`.
    pos: BTreeMap<i32, u64>,
    /// Bins for negative values, keyed by the magnitude's bin.
    neg: BTreeMap<i32, u64>,
    /// Count of values with |v| < MIN_MAGNITUDE (including ±0.0).
    zero: u64,
    /// Total observed count.
    count: u64,
    /// Sum of observed values.
    sum: f64,
    /// Smallest observed value (`+inf` when empty).
    min: f64,
    /// Largest observed value (`-inf` when empty).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch with the default relative accuracy.
    pub fn new() -> QuantileSketch {
        Self::with_alpha(DEFAULT_ALPHA)
    }

    /// An empty sketch with relative accuracy `alpha` in (0, 1).
    pub fn with_alpha(alpha: f64) -> QuantileSketch {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "sketch alpha must be in (0, 1), got {alpha}"
        );
        QuantileSketch {
            gamma_ln: ((1.0 + alpha) / (1.0 - alpha)).ln(),
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Rebuild a sketch from serialized parts (the fingerprint reader's
    /// path). `pos`/`neg` are `(bin, count)` pairs; duplicate keys add.
    ///
    /// # Errors
    /// A [`SketchError`] when `alpha` is outside (0, 1) or the counts
    /// total more than `u64::MAX`.
    pub fn from_parts(
        alpha: f64,
        zero: u64,
        sum: f64,
        min: f64,
        max: f64,
        pos: &[(i32, u64)],
        neg: &[(i32, u64)],
    ) -> Result<QuantileSketch, SketchError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(SketchError::Alpha(alpha));
        }
        let count = pos
            .iter()
            .chain(neg)
            .try_fold(zero, |n, &(_, c)| n.checked_add(c))
            .ok_or(SketchError::CountOverflow)?;
        let mut s = Self::with_alpha(alpha);
        s.zero = zero;
        s.count = count;
        s.sum = sum;
        if count > 0 {
            s.min = min;
            s.max = max;
        }
        for &(k, c) in pos {
            *s.pos.entry(k).or_insert(0) += c;
        }
        for &(k, c) in neg {
            *s.neg.entry(k).or_insert(0) += c;
        }
        Ok(s)
    }

    /// The bin a positive magnitude falls into.
    fn bin_of(&self, magnitude: f64) -> i32 {
        // ceil(ln(v) / ln(gamma)): pure function of the value, so two
        // workers always agree on the bin.
        (magnitude.ln() / self.gamma_ln).ceil() as i32
    }

    /// Representative value of bin `k` (the bin's geometric midpoint).
    fn value_of(&self, k: i32) -> f64 {
        // 2 gamma^k / (gamma + 1) — the midpoint of (gamma^(k-1), gamma^k].
        let gamma = self.gamma_ln.exp();
        2.0 * (self.gamma_ln * k as f64).exp() / (gamma + 1.0)
    }

    /// Record one value. Non-finite values are ignored (they have no JSON
    /// form and no meaningful rank).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v.abs() < MIN_MAGNITUDE {
            self.zero += 1;
        } else if v > 0.0 {
            *self.pos.entry(self.bin_of(v)).or_insert(0) += 1;
        } else {
            *self.neg.entry(self.bin_of(-v)).or_insert(0) += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observed count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observed value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimated quantile (`q` clamped to [0, 1]); 0 when empty. The
    /// estimate is the representative value of the bin holding the target
    /// rank, clamped to the exact observed [min, max].
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        // Ascending value order: negatives from largest magnitude down,
        // then zeros, then positives from smallest magnitude up.
        for (&k, &c) in self.neg.iter().rev() {
            seen += c;
            if seen >= target {
                return (-self.value_of(k)).clamp(self.min, self.max);
            }
        }
        seen += self.zero;
        if seen >= target {
            return 0.0f64.clamp(self.min, self.max);
        }
        for (&k, &c) in self.pos.iter() {
            seen += c;
            if seen >= target {
                return self.value_of(k).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another sketch's bins into this one. Bin counts add, so merge
    /// order cannot change any count; `sum` adds in call order.
    ///
    /// # Panics
    /// Panics when the relative accuracies differ — one metric must always
    /// use one bin layout, or merged sketches would silently lie.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.gamma_ln.to_bits(),
            other.gamma_ln.to_bits(),
            "sketch accuracies differ; use one alpha per metric"
        );
        for (&k, &c) in &other.pos {
            *self.pos.entry(k).or_insert(0) += c;
        }
        for (&k, &c) in &other.neg {
            *self.neg.entry(k).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterate the positive bins as `(bin, count)` in ascending bin order.
    pub fn pos_bins(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.pos.iter().map(|(&k, &c)| (k, c))
    }

    /// Iterate the negative bins as `(bin, count)` in ascending bin order.
    pub fn neg_bins(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.neg.iter().map(|(&k, &c)| (k, c))
    }

    /// Count of near-zero values.
    pub fn zero_count(&self) -> u64 {
        self.zero
    }

    /// The canonical serialization: a single JSON object with sorted keys
    /// and shortest-round-trip floats. Two bit-identical sketches always
    /// produce byte-identical strings, so this is also the digest input.
    pub fn to_json(&self) -> String {
        let bins = |m: &BTreeMap<i32, u64>| {
            let items: Vec<String> = m.iter().map(|(k, c)| format!("[{k},{c}]")).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            "{{\"alpha\":{},\"count\":{},\"zero\":{},\"sum\":{},\"min\":{},\"max\":{},\"pos\":{},\"neg\":{}}}",
            json::number(self.alpha()),
            self.count,
            self.zero,
            json::number(self.sum),
            json::number(if self.count == 0 { 0.0 } else { self.min }),
            json::number(if self.count == 0 { 0.0 } else { self.max }),
            bins(&self.pos),
            bins(&self.neg),
        )
    }

    /// The relative accuracy this sketch was built with (round-trips
    /// through [`QuantileSketch::from_parts`] exactly enough to reproduce
    /// the same `gamma_ln` for the default alpha).
    pub fn alpha(&self) -> f64 {
        // gamma = e^gamma_ln; alpha = (gamma - 1) / (gamma + 1).
        let gamma = self.gamma_ln.exp();
        (gamma - 1.0) / (gamma + 1.0)
    }

    /// Population-stability index between two sketches over their shared
    /// bin space: `sum((p - q) * ln(p / q))` with epsilon smoothing, the
    /// standard drift score (< 0.1 stable, 0.1–0.25 moderate, > 0.25
    /// major). Returns 0 when either sketch is empty.
    pub fn psi(&self, other: &QuantileSketch) -> f64 {
        if self.count == 0 || other.count == 0 {
            return 0.0;
        }
        let mut keys: Vec<(i8, i32)> = Vec::new();
        for (k, _) in self.neg.iter().chain(other.neg.iter()) {
            keys.push((-1, *k));
        }
        keys.push((0, 0));
        for (k, _) in self.pos.iter().chain(other.pos.iter()) {
            keys.push((1, *k));
        }
        keys.sort_unstable();
        keys.dedup();
        let frac = |s: &QuantileSketch, key: &(i8, i32)| -> f64 {
            let c = match key.0 {
                -1 => s.neg.get(&key.1).copied().unwrap_or(0),
                0 => s.zero,
                _ => s.pos.get(&key.1).copied().unwrap_or(0),
            };
            c as f64 / s.count as f64
        };
        const EPS: f64 = 1e-6;
        let mut psi = 0.0;
        for key in &keys {
            let p = frac(self, key).max(EPS);
            let q = frac(other, key).max(EPS);
            psi += (p - q) * (p / q).ln();
        }
        psi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_uniform_stream() {
        let mut s = QuantileSketch::new();
        for i in 1..=1000 {
            s.observe(i as f64);
        }
        assert_eq!(s.count(), 1000);
        for (q, want) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = s.quantile(q);
            assert!(
                (got - want).abs() / want < 0.02,
                "q{q}: got {got}, want ~{want}"
            );
        }
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(1000.0));
    }

    #[test]
    fn handles_zero_negative_and_nonfinite() {
        let mut s = QuantileSketch::new();
        for v in [-10.0, -1.0, 0.0, 0.0, 1.0, 10.0, f64::NAN, f64::INFINITY] {
            s.observe(v);
        }
        assert_eq!(s.count(), 6, "non-finite values are ignored");
        assert_eq!(s.zero_count(), 2);
        assert!(s.quantile(0.0) <= -9.0);
        assert!(s.quantile(1.0) >= 9.0);
        let mid = s.quantile(0.5);
        assert!(
            mid.abs() < 1.1,
            "median of a symmetric stream ~0, got {mid}"
        );
    }

    #[test]
    fn merge_equals_single_stream_bitwise() {
        // Integer-valued floats sum exactly, so even `sum` is invariant
        // under re-chunking here; bins/counts/min/max are invariant for
        // any values (see the module docs for the general contract).
        let values: Vec<f64> = (0..500).map(|i| ((i * 37) % 997) as f64 - 300.0).collect();
        let mut whole = QuantileSketch::new();
        for &v in &values {
            whole.observe(v);
        }
        for parts in [2, 3, 7] {
            let mut merged = QuantileSketch::new();
            for chunk in values.chunks(values.len().div_ceil(parts)) {
                let mut s = QuantileSketch::new();
                for &v in chunk {
                    s.observe(v);
                }
                merged.merge(&s);
            }
            assert_eq!(merged, whole, "{parts} partitions");
            assert_eq!(merged.to_json(), whole.to_json());
        }
    }

    #[test]
    fn bins_invariant_under_rechunking_for_arbitrary_floats() {
        let values: Vec<f64> = (0..400).map(|i| (i as f64 * 0.37).sin() * 100.0).collect();
        let mut whole = QuantileSketch::new();
        for &v in &values {
            whole.observe(v);
        }
        let mut merged = QuantileSketch::new();
        for chunk in values.chunks(61) {
            let mut s = QuantileSketch::new();
            for &v in chunk {
                s.observe(v);
            }
            merged.merge(&s);
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.zero_count(), whole.zero_count());
        assert!(merged.pos_bins().eq(whole.pos_bins()));
        assert!(merged.neg_bins().eq(whole.neg_bins()));
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(merged.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
    }

    #[test]
    fn canonical_json_round_trips_through_from_parts() {
        let mut s = QuantileSketch::new();
        for v in [-3.5, 0.0, 0.25, 7.0, 7.0, 4000.0] {
            s.observe(v);
        }
        let pos: Vec<(i32, u64)> = s.pos_bins().collect();
        let neg: Vec<(i32, u64)> = s.neg_bins().collect();
        let back = QuantileSketch::from_parts(
            DEFAULT_ALPHA,
            s.zero_count(),
            s.sum(),
            s.min().unwrap(),
            s.max().unwrap(),
            &pos,
            &neg,
        )
        .unwrap();
        assert_eq!(back.to_json(), s.to_json());
        assert_eq!(back.quantile(0.5).to_bits(), s.quantile(0.5).to_bits());
    }

    #[test]
    fn psi_scores_drift_sensibly() {
        let sketch_of = |offset: f64| {
            let mut s = QuantileSketch::new();
            for i in 0..1000 {
                s.observe(offset + (i % 100) as f64);
            }
            s
        };
        let a = sketch_of(0.0);
        let same = sketch_of(0.0);
        let shifted = sketch_of(500.0);
        assert!(a.psi(&same).abs() < 1e-9, "identical populations: psi 0");
        assert!(a.psi(&shifted) > 0.25, "disjoint populations: major drift");
        assert!(a.psi(&QuantileSketch::new()) == 0.0, "empty comparand");
    }

    #[test]
    fn empty_sketch_is_inert() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(s.to_json().contains("\"count\":0"));
        let mut a = QuantileSketch::new();
        a.observe(1.0);
        let before = a.to_json();
        a.merge(&s);
        assert_eq!(a.to_json(), before, "merging empty changes nothing");
    }

    #[test]
    #[should_panic(expected = "accuracies differ")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::with_alpha(0.01);
        let b = QuantileSketch::with_alpha(0.02);
        a.merge(&b);
    }
}
