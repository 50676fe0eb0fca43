//! Ablation benchmarks for the design choices listed in DESIGN.md §6:
//! router refinement passes, shared-node merging, and two-hop features.
//! Each bench also asserts the ablation's effect direction where one is
//! expected.

use congestion_bench::ablation;
use congestion_core::graph::DepGraph;
use congestion_core::pipeline::CongestionFlow;
use criterion::{criterion_group, criterion_main, Criterion};
use fpga_fabric::place::{place, PlacerOptions};
use fpga_fabric::route::{route, RouterOptions};
use fpga_fabric::Device;
use hls_ir::frontend::compile_named;
use hls_synth::{HlsFlow, HlsOptions};

fn congested_module() -> hls_ir::Module {
    compile_named(
        "int32 f(int32 a[64], int32 k) {\n#pragma HLS array_partition variable=a cyclic factor=8\nint32 s = 0;\n#pragma HLS unroll factor=16\nfor (i = 0; i < 64; i++) { s = s + a[i] * k; } return s; }",
        "ablate",
    )
    .unwrap()
}

fn bench_router_passes(c: &mut Criterion) {
    let design = HlsFlow::new(HlsOptions::default())
        .run(&congested_module())
        .unwrap();
    let device = Device::xc7z020();
    let placement = place(&design.rtl, &device, &PlacerOptions::fast());
    let mut g = c.benchmark_group("ablation_routing");
    g.sample_size(10);
    for passes in [0u32, 1, 2, 4] {
        g.bench_function(format!("refine_passes_{passes}"), |b| {
            b.iter(|| {
                route(
                    &design.rtl,
                    &placement,
                    &device,
                    &RouterOptions {
                        refine_passes: passes,
                    },
                )
            })
        });
    }
    g.finish();
}

fn bench_merge_ablation(c: &mut Criterion) {
    // Graph construction with and without shared-module node merging.
    let m = compile_named(
        "int32 f(int32 x, int32 y) { int32 a = x / y; int32 b = a / y; int32 d = b / y; return d; }",
        "merge",
    )
    .unwrap();
    let design = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
    let f = design.module.top_function();
    let binding = design.top_binding();
    let merged = DepGraph::build(f, Some(binding), true);
    let unmerged = DepGraph::build(f, Some(binding), false);
    assert!(
        merged.len() < unmerged.len(),
        "merging must shrink the graph: {} vs {}",
        merged.len(),
        unmerged.len()
    );
    let mut g = c.benchmark_group("ablation_merge");
    g.bench_function("graph_merged", |b| {
        b.iter(|| DepGraph::build(f, Some(binding), true))
    });
    g.bench_function("graph_unmerged", |b| {
        b.iter(|| DepGraph::build(f, Some(binding), false))
    });
    g.finish();
}

fn bench_two_hop_ablation(c: &mut Criterion) {
    let flow = CongestionFlow::fast();
    let ds = flow
        .build_dataset(std::slice::from_ref(&congested_module()))
        .unwrap();
    let mut g = c.benchmark_group("ablation_two_hop");
    g.sample_size(10);
    g.bench_function("strip_two_hop_features", |b| {
        b.iter(|| ablation::without_two_hop(&ds))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_router_passes,
    bench_merge_ablation,
    bench_two_hop_ablation
);
criterion_main!(benches);
