//! Head-to-head GBRT training-kernel benchmark: the histogram engine
//! (serial and with the full worker pool) against the exact-split
//! reference it replaced, plus batched vs per-row inference, on the
//! paper's training suite. Produces the rows recorded in
//! `BENCH_train.json`.

use crate::designs::{self, Effort};
use congestion_core::dataset::{CongestionDataset, Target};
use mlkit::metrics::mae;
use mlkit::{GbrtOptions, GbrtRegressor, Matrix, Regressor};
use std::time::Instant;

/// One kernel's fit on one target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitRun {
    /// Fit wall-clock in milliseconds.
    pub fit_ms: f64,
    /// Held-out MAE (percentage points of congestion).
    pub mae: f64,
    /// Boosting stages fitted.
    pub trees: u64,
    /// Total split nodes across the ensemble.
    pub splits: u64,
}

/// Histogram vs exact-split training (and batched vs per-row inference)
/// on one congestion target.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainBenchRow {
    /// Target metric name (`vertical` / `horizontal`).
    pub target: String,
    /// Training rows.
    pub samples: usize,
    /// Feature columns.
    pub features: usize,
    /// Histogram kernel with the full parkit worker pool (production).
    pub hist: FitRun,
    /// Histogram kernel pinned to one worker (isolates the algorithm).
    pub hist_serial: FitRun,
    /// Exact-split reference kernel.
    pub exact: FitRun,
    /// Batched compiled-table prediction of the test set, milliseconds.
    pub predict_batched_ms: f64,
    /// Per-row `predict_one` loop over the same test set, milliseconds.
    pub predict_per_row_ms: f64,
}

impl TrainBenchRow {
    /// Fit speedup of the parallel histogram kernel over the reference.
    pub fn fit_speedup(&self) -> f64 {
        if self.hist.fit_ms > 0.0 {
            self.exact.fit_ms / self.hist.fit_ms
        } else {
            f64::INFINITY
        }
    }

    /// Fit speedup of the *serial* histogram kernel over the reference
    /// (pure algorithmic gain, no parallelism).
    pub fn serial_fit_speedup(&self) -> f64 {
        if self.hist_serial.fit_ms > 0.0 {
            self.exact.fit_ms / self.hist_serial.fit_ms
        } else {
            f64::INFINITY
        }
    }

    /// Inference speedup of the compiled batched engine over per-row
    /// pointer-chasing.
    pub fn predict_speedup(&self) -> f64 {
        if self.predict_batched_ms > 0.0 {
            self.predict_per_row_ms / self.predict_batched_ms
        } else {
            f64::INFINITY
        }
    }
}

/// The benchmark dataset: the paper's training suite through the
/// implementation flow (all three groups at Full effort, the first at
/// Fast so CI smoke stays cheap).
fn dataset(effort: Effort) -> CongestionDataset {
    let mut modules = designs::training_suite();
    if effort == Effort::Fast {
        modules.truncate(1);
    }
    effort
        .flow()
        .build_dataset(&modules)
        .expect("bench suite must implement")
}

fn gbrt_opts(effort: Effort, workers: usize) -> GbrtOptions {
    GbrtOptions {
        n_estimators: match effort {
            Effort::Fast => 30,
            Effort::Full => 250,
        },
        workers,
        ..Default::default()
    }
}

/// Fit both kernels on both congestion targets and time fit + inference.
///
/// The dataset is built once; each kernel sees identical training rows and
/// the same RNG schedule, so the serial/parallel histogram fits are
/// bit-identical and any MAE gap against the reference is pure binning.
pub fn run(effort: Effort) -> Vec<TrainBenchRow> {
    let ds = dataset(effort);
    let (train, test) = ds.split(0.25, 42);
    let mut rows = Vec::new();
    for target in [Target::Vertical, Target::Horizontal] {
        let tr = train.to_ml(target);
        let te = test.to_ml(target);
        let fit = |kernel: fn(&mut GbrtRegressor, &Matrix, &[f64]), workers| {
            let mut m = GbrtRegressor::new(gbrt_opts(effort, workers));
            let t = Instant::now();
            kernel(&mut m, &tr.x, &tr.y);
            let fit_ms = t.elapsed().as_secs_f64() * 1e3;
            let run = FitRun {
                fit_ms,
                mae: mae(&te.y, &m.predict(&te.x)),
                trees: m.n_trees() as u64,
                splits: m
                    .compiled()
                    .n_nodes()
                    .saturating_sub(m.compiled().n_trees()) as u64
                    / 2,
            };
            (m, run)
        };
        let (model, hist) = fit(GbrtRegressor::fit, parkit::num_threads());
        let (_, hist_serial) = fit(GbrtRegressor::fit, 1);
        let (_, exact) = fit(GbrtRegressor::fit_reference, 1);

        // Inference: the compiled batched path vs the per-row walk, over
        // enough repetitions to rise above timer noise.
        let reps = match effort {
            Effort::Fast => 3,
            Effort::Full => 20,
        };
        let mut out = vec![0.0; te.x.rows()];
        let t = Instant::now();
        for _ in 0..reps {
            model.predict_into(&te.x, &mut out);
        }
        let predict_batched_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let t = Instant::now();
        for _ in 0..reps {
            for (o, row) in out.iter_mut().zip(te.x.iter_rows()) {
                *o = model.predict_one(row);
            }
        }
        let predict_per_row_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;

        rows.push(TrainBenchRow {
            target: target.name().to_lowercase(),
            samples: tr.x.rows(),
            features: tr.x.cols(),
            hist,
            hist_serial,
            exact,
            predict_batched_ms,
            predict_per_row_ms,
        });
    }
    rows
}

/// Fold the rows into an [`obskit::MetricsSnapshot`] under the shared
/// `train_bench.<target>.<kernel>.<metric>` naming scheme. Deterministic
/// model-shape counts become counters; wall-clock, MAE, and derived
/// speedups become gauges (excluded from `deterministic_digest`, matching
/// the timing-metric convention).
pub fn to_metrics(rows: &[TrainBenchRow]) -> obskit::MetricsSnapshot {
    let mut reg = obskit::Registry::new();
    for r in rows {
        let base = format!("train_bench.{}", r.target);
        reg.inc(&format!("{base}.samples"), r.samples as u64);
        reg.inc(&format!("{base}.features"), r.features as u64);
        reg.set_gauge(&format!("{base}.fit_speedup"), r.fit_speedup());
        reg.set_gauge(
            &format!("{base}.serial_fit_speedup"),
            r.serial_fit_speedup(),
        );
        reg.set_gauge(&format!("{base}.predict_speedup"), r.predict_speedup());
        reg.set_gauge(&format!("{base}.predict.batched_ms"), r.predict_batched_ms);
        reg.set_gauge(&format!("{base}.predict.per_row_ms"), r.predict_per_row_ms);
        for (kernel, k) in [
            ("histogram", &r.hist),
            ("histogram_serial", &r.hist_serial),
            ("reference_exact", &r.exact),
        ] {
            reg.set_gauge(&format!("{base}.{kernel}.fit_ms"), k.fit_ms);
            reg.set_gauge(&format!("{base}.{kernel}.mae"), k.mae);
            reg.inc(&format!("{base}.{kernel}.trees"), k.trees);
            reg.inc(&format!("{base}.{kernel}.splits"), k.splits);
        }
    }
    reg.into_snapshot()
}

/// Serialize the rows through the workspace-wide `obskit.metrics.v1` JSON
/// schema, so `BENCH_train.json` and pipeline metrics snapshots share
/// tooling.
pub fn to_json(rows: &[TrainBenchRow], effort: Effort) -> String {
    crate::artifact::bench_json("experiments train-bench", effort, &to_metrics(rows))
}

/// Human-readable table for stdout.
pub fn render(rows: &[TrainBenchRow]) -> String {
    let mut out = String::from("GBRT KERNELS: HISTOGRAM VS REFERENCE EXACT-SPLIT\n");
    out.push_str(&format!(
        "{:<12} {:>7} {:>9} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>8}\n",
        "target",
        "rows",
        "hist ms",
        "ser ms",
        "exact ms",
        "speedup",
        "hist mae",
        "exact mae",
        "bat ms",
        "row ms"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>7.2}x {:>9.3} {:>9.3} {:>8.2} {:>8.2}\n",
            r.target,
            r.samples,
            r.hist.fit_ms,
            r.hist_serial.fit_ms,
            r.exact.fit_ms,
            r.fit_speedup(),
            r.hist.mae,
            r.exact.mae,
            r.predict_batched_ms,
            r.predict_per_row_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_bench_runs_and_kernels_agree() {
        let rows = run(Effort::Fast);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.samples > 0 && r.features > 0);
            assert!(r.hist.trees > 0 && r.exact.trees > 0);
            // Serial and parallel histogram fits are the same model.
            assert_eq!(
                r.hist.mae.to_bits(),
                r.hist_serial.mae.to_bits(),
                "{}: worker count changed the model",
                r.target
            );
            assert_eq!(
                (r.hist.trees, r.hist.splits),
                (r.hist_serial.trees, r.hist_serial.splits)
            );
            // Binning must not wreck accuracy even at smoke scale.
            assert!(
                (r.hist.mae - r.exact.mae).abs() <= 0.25 * r.exact.mae.max(1.0),
                "{}: hist mae {} vs exact {}",
                r.target,
                r.hist.mae,
                r.exact.mae
            );
        }
    }

    fn sample_rows() -> Vec<TrainBenchRow> {
        vec![TrainBenchRow {
            target: "vertical".into(),
            samples: 100,
            features: 302,
            hist: FitRun {
                fit_ms: 10.0,
                mae: 3.0,
                trees: 50,
                splits: 300,
            },
            hist_serial: FitRun {
                fit_ms: 25.0,
                mae: 3.0,
                trees: 50,
                splits: 300,
            },
            exact: FitRun {
                fit_ms: 100.0,
                mae: 2.9,
                trees: 50,
                splits: 310,
            },
            predict_batched_ms: 0.5,
            predict_per_row_ms: 2.0,
        }]
    }

    #[test]
    fn speedups_divide_the_right_way() {
        let r = &sample_rows()[0];
        assert_eq!(r.fit_speedup(), 10.0);
        assert_eq!(r.serial_fit_speedup(), 4.0);
        assert_eq!(r.predict_speedup(), 4.0);
    }

    #[test]
    fn metrics_follow_shared_naming_scheme() {
        let snap = to_metrics(&sample_rows());
        assert_eq!(snap.counters["train_bench.vertical.samples"], 100);
        assert_eq!(snap.counters["train_bench.vertical.histogram.trees"], 50);
        assert_eq!(
            snap.counters["train_bench.vertical.reference_exact.splits"],
            310
        );
        assert_eq!(snap.gauges["train_bench.vertical.fit_speedup"], 10.0);
        assert_eq!(snap.gauges["train_bench.vertical.histogram.fit_ms"], 10.0);
        assert_eq!(snap.gauges["train_bench.vertical.histogram.mae"], 3.0);
    }

    #[test]
    fn json_uses_obskit_metrics_schema() {
        let j = to_json(&sample_rows(), Effort::Fast);
        assert!(j.contains("\"schema\": \"obskit.metrics.v1\""), "{j}");
        assert!(j.contains("\"tool\": \"experiments train-bench\""), "{j}");
        assert!(j.contains("train_bench.vertical.histogram.fit_ms"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
