//! Feature-extraction benchmark: the SoA kernel of
//! `CongestionDataset::add_design` against the reference per-node path of
//! `add_design_reference`, per design. Produces the rows recorded in
//! `BENCH_pipeline.json`.
//!
//! Every row also carries a bit-identity verdict: the SoA kernel must
//! reproduce the reference dataset byte for byte (CSV serialization) — a
//! speedup that changes the answer is a bug, not a result.

use crate::designs::Effort;
use congestion_core::persist::write_csv;
use congestion_core::pipeline::CongestionFlow;
use congestion_core::CongestionDataset;
use fpga_fabric::par::ParOptions;
use hls_ir::frontend::compile_named;
use hls_ir::Module;
use std::time::Instant;

/// Feature-kernel head-to-head on one implemented design.
///
/// Two granularities per kernel: `extract_*_ms` times the extraction loop
/// alone — the only step in which the two kernels differ — and
/// `stage_*_ms` times the whole features stage (`add_design` or
/// `add_design_reference`: back-trace, graph + CSR construction,
/// extraction, sample pushes). The stage numbers include per-design setup
/// that is identical for both kernels by construction, so the stage ratio
/// is a lower bound on the kernel ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureKernelRow {
    /// Design name.
    pub design: String,
    /// Samples the stage produces.
    pub samples: usize,
    /// Reference kernel (per-node allocation) extraction loop, milliseconds.
    pub extract_reference_ms: f64,
    /// SoA kernel (flat-row `extract_into`) extraction loop, milliseconds.
    pub extract_soa_ms: f64,
    /// Whole features stage with the reference kernel, milliseconds.
    pub stage_reference_ms: f64,
    /// Whole features stage with the SoA kernel, milliseconds.
    pub stage_soa_ms: f64,
    /// Both kernels produced datasets with identical CSV bytes.
    pub identical: bool,
}

impl FeatureKernelRow {
    /// Extraction-kernel speedup of the SoA kernel over the reference.
    pub fn speedup(&self) -> f64 {
        if self.extract_soa_ms > 0.0 {
            self.extract_reference_ms / self.extract_soa_ms
        } else {
            f64::INFINITY
        }
    }

    /// Whole-features-stage speedup (includes the shared setup work).
    pub fn stage_speedup(&self) -> f64 {
        if self.stage_soa_ms > 0.0 {
            self.stage_reference_ms / self.stage_soa_ms
        } else {
            f64::INFINITY
        }
    }
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineBench {
    /// Per-design feature-kernel comparison.
    pub features: Vec<FeatureKernelRow>,
}

impl PipelineBench {
    /// Corpus-wide extraction-kernel speedup (total reference wall over
    /// total SoA wall — robust to sub-millisecond noise on small designs).
    pub fn features_speedup(&self) -> f64 {
        let soa: f64 = self.features.iter().map(|r| r.extract_soa_ms).sum();
        let reference: f64 = self.features.iter().map(|r| r.extract_reference_ms).sum();
        if soa > 0.0 {
            reference / soa
        } else {
            f64::INFINITY
        }
    }

    /// Corpus-wide whole-stage speedup (same totals over the stage times).
    pub fn stage_speedup(&self) -> f64 {
        let soa: f64 = self.features.iter().map(|r| r.stage_soa_ms).sum();
        let reference: f64 = self.features.iter().map(|r| r.stage_reference_ms).sum();
        if soa > 0.0 {
            reference / soa
        } else {
            f64::INFINITY
        }
    }

    /// Every row's bit-identity verdict holds.
    pub fn all_identical(&self) -> bool {
        self.features.iter().all(|r| r.identical)
    }
}

/// The benchmark flow: designs are placed and routed with
/// [`ParOptions::fast`] regardless of effort, so the features stage keeps
/// the share it has in the extraction-bound regime this optimisation
/// targets. Both kernels extract from the same implemented design; effort
/// only scales the corpus and repetition counts.
fn bench_flow() -> CongestionFlow {
    let mut flow = CongestionFlow::new();
    flow.par = ParOptions::fast();
    flow
}

/// The benchmark corpus: unroll- and partition-heavy designs whose replica
/// groups give nodes dense one- and two-hop neighborhoods, which is what
/// makes dataset builds feature-bound (the regime this optimisation
/// targets). `unroll32` stays sparse as the contrast case.
fn corpus(effort: Effort) -> Vec<(String, Module)> {
    let src = |s: &str, n: &str| compile_named(s, n).expect("bench source must compile");
    let mut out = vec![
        (
            "unroll32".to_string(),
            src(
                "int32 f(int32 a[32], int32 k) { int32 s = 0;\n#pragma HLS unroll factor=8\nfor (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
                "unroll32",
            ),
        ),
        (
            "mac64".to_string(),
            src(
                "int32 f(int32 a[64], int32 b[64]) {\n#pragma HLS array_partition variable=a complete\n#pragma HLS array_partition variable=b complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 64; i++) { s = s + a[i] * b[i]; } return s; }",
                "mac64",
            ),
        ),
    ];
    if effort == Effort::Full {
        out.push((
            "mac128".to_string(),
            src(
                "int32 f(int32 a[128], int32 b[128]) {\n#pragma HLS array_partition variable=a cyclic factor=32\n#pragma HLS array_partition variable=b cyclic factor=32\nint32 s = 0;\n#pragma HLS unroll factor=32\nfor (i = 0; i < 128; i++) { s = s + a[i] * b[i]; } return s; }",
                "mac128",
            ),
        ));
        out.push((
            "mac256".to_string(),
            src(
                "int32 f(int32 a[256], int32 b[256]) {\n#pragma HLS array_partition variable=a cyclic factor=64\n#pragma HLS array_partition variable=b cyclic factor=64\nint32 s = 0;\n#pragma HLS unroll factor=64\nfor (i = 0; i < 256; i++) { s = s + a[i] * b[i]; } return s; }",
                "mac256",
            ),
        ));
    }
    out
}

/// [`CongestionDataset::add_design`] or its reference,
/// [`CongestionDataset::add_design_reference`].
type AddDesign = fn(
    &mut CongestionDataset,
    &hls_synth::SynthesizedDesign,
    &fpga_fabric::ImplResult,
    &fpga_fabric::Device,
) -> Result<usize, congestion_core::backtrace::BacktraceError>;

/// Time the features stage (back-trace + extraction) with both kernels on
/// every corpus design. Each design is implemented once; each kernel runs
/// `reps` times and reports the minimum — scheduler noise on a shared box
/// only ever inflates a wall-clock, so the minimum is the robust estimate
/// of the true stage cost.
pub fn feature_rows(effort: Effort) -> Vec<FeatureKernelRow> {
    let flow = bench_flow();
    let reps = match effort {
        Effort::Fast => 3,
        Effort::Full => 20,
    };
    corpus(effort)
        .into_iter()
        .map(|(name, module)| {
            let (design, impl_result) = flow
                .implement(&module)
                .expect("bench design must implement");
            let time_stage = |add: AddDesign| {
                let mut best_ms = f64::INFINITY;
                let mut out = CongestionDataset::new();
                for _ in 0..reps {
                    let mut ds = CongestionDataset::new();
                    let t = Instant::now();
                    add(&mut ds, &design, &impl_result, &flow.device)
                        .expect("features stage must succeed");
                    best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
                    out = ds;
                }
                (best_ms, out)
            };
            let (stage_reference_ms, reference) =
                time_stage(CongestionDataset::add_design_reference);
            let (stage_soa_ms, soa) = time_stage(CongestionDataset::add_design);
            let (extract_reference_ms, extract_soa_ms) =
                time_extract_loops(&design, &impl_result, &flow, reps);
            FeatureKernelRow {
                design: name,
                samples: soa.len(),
                extract_reference_ms,
                extract_soa_ms,
                stage_reference_ms,
                stage_soa_ms,
                identical: csv_bytes(&soa) == csv_bytes(&reference),
            }
        })
        .collect()
}

/// A dataset's CSV bytes, the identity evidence of a row: unlike `==` on
/// the feature matrix, they tell `-0.0` from `0.0`.
fn csv_bytes(ds: &CongestionDataset) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_csv(ds, &mut bytes).expect("in-memory csv");
    bytes
}

/// Time the two extraction loops in isolation: the same per-function
/// graph/ctx/labels setup `add_design` performs, then `extract` vs
/// `extract_into` over exactly the labelled nodes. Minimum over `reps`.
fn time_extract_loops(
    design: &hls_synth::SynthesizedDesign,
    impl_result: &fpga_fabric::ImplResult,
    flow: &CongestionFlow,
    reps: usize,
) -> (f64, f64) {
    use congestion_core::backtrace::backtrace_labels;
    use congestion_core::features::ExtractCtx;
    use congestion_core::graph::DepGraph;
    let labels = backtrace_labels(design, impl_result).expect("bench design must back-trace");
    let mut reference_ms = 0.0;
    let mut soa_ms = 0.0;
    for fid in design.module.bottom_up_order() {
        let f = design.module.function(fid);
        let graph = DepGraph::build(f, Some(&design.bindings[&fid]), true);
        let ctx = ExtractCtx::new(&graph, design, fid, &flow.device);
        let nodes: Vec<usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_port && n.ops.iter().any(|o| labels.contains_key(&(fid, *o))))
            .map(|(i, _)| i)
            .collect();
        let mut best_ref = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            for &n in &nodes {
                std::hint::black_box(ctx.extract(n));
            }
            best_ref = best_ref.min(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut row = vec![0.0f64; congestion_core::FEATURE_COUNT];
        let mut best_soa = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            for &n in &nodes {
                ctx.extract_into(n, &mut row);
            }
            best_soa = best_soa.min(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(&row);
        }
        reference_ms += best_ref;
        soa_ms += best_soa;
    }
    (reference_ms, soa_ms)
}

/// Run the whole benchmark.
pub fn run(effort: Effort) -> PipelineBench {
    PipelineBench {
        features: feature_rows(effort),
    }
}

/// Fold the result into an [`obskit::MetricsSnapshot`] under the shared
/// `pipeline_bench.<section>.<row>.<metric>` naming scheme. Wall-clocks
/// and derived speedups are gauges (excluded from the deterministic
/// digest); sample counts and identity verdicts are counters.
pub fn to_metrics(bench: &PipelineBench) -> obskit::MetricsSnapshot {
    let mut reg = obskit::Registry::new();
    reg.set_gauge(
        "pipeline_bench.total.features_speedup",
        bench.features_speedup(),
    );
    reg.set_gauge("pipeline_bench.total.stage_speedup", bench.stage_speedup());
    reg.inc(
        "pipeline_bench.total.identical",
        u64::from(bench.all_identical()),
    );
    for r in &bench.features {
        let base = format!("pipeline_bench.features.{}", r.design);
        reg.inc(&format!("{base}.samples"), r.samples as u64);
        reg.inc(&format!("{base}.identical"), u64::from(r.identical));
        reg.set_gauge(
            &format!("{base}.extract_reference_ms"),
            r.extract_reference_ms,
        );
        reg.set_gauge(&format!("{base}.extract_soa_ms"), r.extract_soa_ms);
        reg.set_gauge(&format!("{base}.stage_reference_ms"), r.stage_reference_ms);
        reg.set_gauge(&format!("{base}.stage_soa_ms"), r.stage_soa_ms);
        reg.set_gauge(&format!("{base}.speedup"), r.speedup());
        reg.set_gauge(&format!("{base}.stage_speedup"), r.stage_speedup());
    }
    reg.into_snapshot()
}

/// Serialize through the workspace-wide `obskit.metrics.v1` JSON schema
/// (same format as the other BENCH files).
pub fn to_json(bench: &PipelineBench, effort: Effort) -> String {
    crate::artifact::bench_json("experiments pipeline-bench", effort, &to_metrics(bench))
}

/// Human-readable tables for stdout.
pub fn render(bench: &PipelineBench) -> String {
    let mut out = String::from("FEATURE EXTRACTION: SOA KERNEL VS REFERENCE PER-NODE PATH\n");
    out.push_str(&format!(
        "{:<10} {:>8} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8} {:>10}\n",
        "design",
        "samples",
        "extract ref",
        "extract soa",
        "speedup",
        "stage ref",
        "stage soa",
        "speedup",
        "identical"
    ));
    for r in &bench.features {
        out.push_str(&format!(
            "{:<10} {:>8} {:>10.2}ms {:>10.2}ms {:>7.2}x {:>10.2}ms {:>10.2}ms {:>7.2}x {:>10}\n",
            r.design,
            r.samples,
            r.extract_reference_ms,
            r.extract_soa_ms,
            r.speedup(),
            r.stage_reference_ms,
            r.stage_soa_ms,
            r.stage_speedup(),
            r.identical,
        ));
    }
    out.push_str(&format!(
        "extraction-kernel speedup: {:.2}x | features-stage speedup: {:.2}x\n",
        bench.features_speedup(),
        bench.stage_speedup()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_bench_is_bit_identical_and_speedups_are_finite() {
        let bench = run(Effort::Fast);
        assert_eq!(bench.features.len(), 2);
        assert!(
            bench.all_identical(),
            "SoA kernel changed the dataset: {bench:?}"
        );
        assert!(bench.features_speedup() > 0.0);
        for r in &bench.features {
            assert!(r.samples > 0);
        }
    }

    fn sample_bench() -> PipelineBench {
        PipelineBench {
            features: vec![FeatureKernelRow {
                design: "d".into(),
                samples: 64,
                extract_reference_ms: 8.0,
                extract_soa_ms: 2.0,
                stage_reference_ms: 10.0,
                stage_soa_ms: 4.0,
                identical: true,
            }],
        }
    }

    #[test]
    fn metrics_follow_shared_naming_scheme() {
        let snap = to_metrics(&sample_bench());
        assert_eq!(snap.counters["pipeline_bench.features.d.samples"], 64);
        assert_eq!(snap.counters["pipeline_bench.total.identical"], 1);
        assert_eq!(snap.gauges["pipeline_bench.features.d.speedup"], 4.0);
        assert_eq!(snap.gauges["pipeline_bench.features.d.stage_speedup"], 2.5);
        assert_eq!(snap.gauges["pipeline_bench.total.features_speedup"], 4.0);
        assert_eq!(snap.gauges["pipeline_bench.total.stage_speedup"], 2.5);
    }

    #[test]
    fn json_uses_obskit_metrics_schema() {
        let j = to_json(&sample_bench(), Effort::Fast);
        assert!(j.contains("\"schema\": \"obskit.metrics.v1\""), "{j}");
        assert!(
            j.contains("\"tool\": \"experiments pipeline-bench\""),
            "{j}"
        );
        assert!(
            j.contains("pipeline_bench.features.d.stage_reference_ms"),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
