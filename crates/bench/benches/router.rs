//! Router benchmark: the L-shape pass plus two Z-shape rip-up passes on a
//! fixed placement of a congested design. Run with
//! `cargo bench --bench router`.

use criterion::{criterion_group, criterion_main, Criterion};
use fpga_fabric::place::{place, PlacerOptions};
use fpga_fabric::route::{route, RouterOptions};
use fpga_fabric::Device;
use hls_ir::frontend::compile_named;
use hls_synth::{HlsFlow, HlsOptions};

fn congested_module() -> hls_ir::Module {
    compile_named(
        "int32 f(int32 a[64], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 64; i++) { s = s + a[i] * k; } return s; }",
        "unroll64",
    )
    .unwrap()
}

fn bench_default_router(c: &mut Criterion) {
    // Every dataset label goes through this path, so it must stay cheap.
    let design = HlsFlow::new(HlsOptions::default())
        .run(&congested_module())
        .unwrap();
    let device = Device::xc7z020();
    let placement = place(&design.rtl, &device, &PlacerOptions::fast());
    let mut g = c.benchmark_group("router_default");
    g.sample_size(10);
    g.bench_function("lz_refinement", |b| {
        b.iter(|| route(&design.rtl, &placement, &device, &RouterOptions::default()))
    });
    g.finish();
}

criterion_group!(benches, bench_default_router);
criterion_main!(benches);
