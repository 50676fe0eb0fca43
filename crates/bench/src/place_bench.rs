//! Head-to-head placement-kernel benchmark: the delta-cost annealing
//! kernel against the reference full-recompute annealer it replaced, on
//! the in-tree designs. Produces the rows recorded in `BENCH_place.json`.

use crate::designs::Effort;
use fpga_fabric::place::{place, place_reference, Placement, PlacerOptions};
use fpga_fabric::route::route;
use fpga_fabric::{Device, RouterOptions, RoutingUtilization};
use hls_ir::frontend::compile_named;
use hls_ir::Module;
use hls_synth::{HlsFlow, HlsOptions, RtlDesign};
use std::time::Instant;

/// One kernel's result on one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRun {
    /// Place-stage wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Final placement cost (weighted HPWL + density penalty).
    pub cost: f64,
    /// Moves proposed by the annealer.
    pub proposed: u64,
    /// Moves accepted.
    pub accepted: u64,
    /// Net-bounding-box rescans (the delta kernel's O(degree) fallback).
    pub bbox_recomputes: u64,
    /// Tiles left over 100 % utilization after routing this placement with
    /// the default router.
    pub overflowed_tiles: usize,
}

/// Delta vs reference annealing on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceBenchRow {
    /// Design name.
    pub design: String,
    /// Placed cells.
    pub cells: usize,
    /// The delta-cost kernel (the default).
    pub delta: KernelRun,
    /// The reference full-recompute kernel.
    pub reference: KernelRun,
}

impl PlaceBenchRow {
    /// Place-stage speedup of the delta kernel over the reference kernel.
    pub fn speedup(&self) -> f64 {
        if self.delta.wall_ms > 0.0 {
            self.reference.wall_ms / self.delta.wall_ms
        } else {
            f64::INFINITY
        }
    }
}

/// The benchmark corpus: name and MiniHLS source (or generated module).
fn corpus(effort: Effort) -> Vec<(String, Module)> {
    let src = |s: &str, n: &str| compile_named(s, n).expect("bench source must compile");
    let mut out = vec![
        (
            "mac16".to_string(),
            src(
                "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
                "mac16",
            ),
        ),
        (
            "unroll64".to_string(),
            src(
                "int32 f(int32 a[64], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 64; i++) { s = s + a[i] * k; } return s; }",
                "unroll64",
            ),
        ),
    ];
    if effort == Effort::Full {
        out.push((
            "wide256".to_string(),
            src(
                "int32 f(int32 a[256], int32 k) {\n#pragma HLS array_partition variable=a cyclic factor=16\nint32 s = 0;\n#pragma HLS unroll factor=16\nfor (i = 0; i < 256; i++) { s = s + a[i] * k; } return s; }",
                "wide256",
            ),
        ));
        out.push((
            "fd_opt".to_string(),
            rosetta_gen::face_detection::benchmark(
                rosetta_gen::face_detection::FdVariant::Optimized,
            )
            .build()
            .expect("face detection generator must compile"),
        ));
    }
    out
}

fn kernel_run(rtl: &RtlDesign, p: &Placement, wall_ms: f64, device: &Device) -> KernelRun {
    let routed = route(rtl, p, device, &RouterOptions::default());
    KernelRun {
        wall_ms,
        cost: p.cost,
        proposed: p.stats.proposed,
        accepted: p.stats.accepted,
        bbox_recomputes: p.stats.bbox_recomputes,
        overflowed_tiles: RoutingUtilization::new(&routed, device).overflowed_tiles,
    }
}

/// Place every corpus design with `place` and `place_reference` and time
/// the place stage.
///
/// Both kernels get identical options (same seed, same moves-per-cell
/// budget); the timed region is the placer call alone. Each placement is then routed with the default router so rows
/// also compare downstream overflow.
pub fn run(effort: Effort) -> Vec<PlaceBenchRow> {
    let device = Device::xc7z020();
    let base = match effort {
        Effort::Fast => PlacerOptions::fast(),
        Effort::Full => PlacerOptions::default(),
    };
    let mut rows = Vec::new();
    for (name, module) in corpus(effort) {
        let design = HlsFlow::new(HlsOptions::default())
            .run(&module)
            .expect("bench design must synthesize");
        let time = |kernel: fn(&RtlDesign, &Device, &PlacerOptions) -> Placement| {
            let t = Instant::now();
            let p = kernel(&design.rtl, &device, &base);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            (p, ms)
        };
        let (d, d_ms) = time(place);
        let (r, r_ms) = time(place_reference);
        debug_assert_eq!(d.pos.len(), r.pos.len());
        rows.push(PlaceBenchRow {
            design: name,
            cells: d.pos.len(),
            delta: kernel_run(&design.rtl, &d, d_ms, &device),
            reference: kernel_run(&design.rtl, &r, r_ms, &device),
        });
    }
    rows
}

/// Fold the rows into an [`obskit::MetricsSnapshot`] under the shared
/// `place_bench.<design>.<kernel>.<metric>` naming scheme. Deterministic
/// annealing counters become counters; wall-clock, final cost, and derived
/// speedup become gauges (gauges are excluded from `deterministic_digest`,
/// matching the timing-metric convention).
/// Corpus-wide place-stage speedup: total reference wall over total delta
/// wall (robust to sub-millisecond noise on the smallest designs).
pub fn total_speedup(rows: &[PlaceBenchRow]) -> f64 {
    let delta: f64 = rows.iter().map(|r| r.delta.wall_ms).sum();
    let reference: f64 = rows.iter().map(|r| r.reference.wall_ms).sum();
    if delta > 0.0 {
        reference / delta
    } else {
        f64::INFINITY
    }
}

pub fn to_metrics(rows: &[PlaceBenchRow]) -> obskit::MetricsSnapshot {
    let mut reg = obskit::Registry::new();
    reg.set_gauge("place_bench.total.speedup", total_speedup(rows));
    for r in rows {
        let base = format!("place_bench.{}", r.design);
        reg.inc(&format!("{base}.cells"), r.cells as u64);
        reg.set_gauge(&format!("{base}.speedup"), r.speedup());
        for (kernel, k) in [("delta", &r.delta), ("reference_anneal", &r.reference)] {
            reg.set_gauge(&format!("{base}.{kernel}.wall_ms"), k.wall_ms);
            reg.set_gauge(&format!("{base}.{kernel}.cost"), k.cost);
            reg.inc(&format!("{base}.{kernel}.proposed_moves"), k.proposed);
            reg.inc(&format!("{base}.{kernel}.accepted_moves"), k.accepted);
            reg.inc(
                &format!("{base}.{kernel}.bbox_recomputes"),
                k.bbox_recomputes,
            );
            reg.inc(
                &format!("{base}.{kernel}.overflowed_tiles"),
                k.overflowed_tiles as u64,
            );
        }
    }
    reg.into_snapshot()
}

/// Serialize the rows through the workspace-wide `obskit.metrics.v1` JSON
/// schema (the same format `hls-congest --metrics-out` writes), so
/// `BENCH_place.json` and pipeline metrics snapshots share tooling. The
/// meta block carries the active kernel stamps via
/// [`crate::artifact::bench_json`].
pub fn to_json(rows: &[PlaceBenchRow], effort: Effort) -> String {
    crate::artifact::bench_json("experiments place-bench", effort, &to_metrics(rows))
}

/// Human-readable table for stdout.
pub fn render(rows: &[PlaceBenchRow]) -> String {
    let mut out = String::from("PLACER KERNELS: DELTA-COST VS REFERENCE FULL-RECOMPUTE ANNEAL\n");
    out.push_str(&format!(
        "{:<10} {:>7} {:>12} {:>12} {:>14} {:>14} {:>8} {:>10} {:>10}\n",
        "design",
        "cells",
        "delta ms",
        "ref ms",
        "delta cost",
        "ref cost",
        "speedup",
        "delta over",
        "ref over"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>7} {:>12.1} {:>12.1} {:>14.0} {:>14.0} {:>7.2}x {:>10} {:>10}\n",
            r.design,
            r.cells,
            r.delta.wall_ms,
            r.reference.wall_ms,
            r.delta.cost,
            r.reference.cost,
            r.speedup(),
            r.delta.overflowed_tiles,
            r.reference.overflowed_tiles,
        ));
    }
    out.push_str(&format!("total speedup: {:.2}x\n", total_speedup(rows)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_bench_runs_and_delta_does_not_regress_quality() {
        let rows = run(Effort::Fast);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.cells > 0);
            assert!(r.delta.proposed > 0 && r.reference.proposed > 0);
            assert!(
                r.delta.cost <= r.reference.cost * 1.02,
                "{}: delta kernel must not regress final cost ({} vs {})",
                r.design,
                r.delta.cost,
                r.reference.cost
            );
            assert!(
                r.delta.overflowed_tiles <= r.reference.overflowed_tiles,
                "{}: delta kernel must not leave more routed overflow ({} vs {})",
                r.design,
                r.delta.overflowed_tiles,
                r.reference.overflowed_tiles
            );
        }
    }

    fn sample_rows() -> Vec<PlaceBenchRow> {
        vec![PlaceBenchRow {
            design: "d".into(),
            cells: 5,
            delta: KernelRun {
                wall_ms: 1.0,
                cost: 90.0,
                proposed: 100,
                accepted: 40,
                bbox_recomputes: 7,
                overflowed_tiles: 0,
            },
            reference: KernelRun {
                wall_ms: 4.0,
                cost: 100.0,
                proposed: 100,
                accepted: 42,
                bbox_recomputes: 0,
                overflowed_tiles: 1,
            },
        }]
    }

    #[test]
    fn metrics_follow_shared_naming_scheme() {
        let snap = to_metrics(&sample_rows());
        assert_eq!(snap.counters["place_bench.d.cells"], 5);
        assert_eq!(snap.counters["place_bench.d.delta.proposed_moves"], 100);
        assert_eq!(
            snap.counters["place_bench.d.reference_anneal.accepted_moves"],
            42
        );
        assert_eq!(snap.gauges["place_bench.d.speedup"], 4.0);
        assert_eq!(snap.gauges["place_bench.d.delta.cost"], 90.0);
    }

    #[test]
    fn json_uses_obskit_metrics_schema() {
        let j = to_json(&sample_rows(), Effort::Fast);
        assert!(j.contains("\"schema\": \"obskit.metrics.v1\""), "{j}");
        assert!(j.contains("\"tool\": \"experiments place-bench\""), "{j}");
        assert!(j.contains("place_bench.d.delta.proposed_moves"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
