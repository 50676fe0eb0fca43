//! Feature-extraction kernel benchmarks: the whole dataset-add stage
//! under the SoA `extract_into` kernel and under the reference per-node
//! allocation kernel. Run with `cargo bench --bench features`.

use congestion_core::features::ExtractKernel;
use congestion_core::pipeline::CongestionFlow;
use congestion_core::CongestionDataset;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hls_ir::frontend::compile_named;

fn congested_module() -> hls_ir::Module {
    compile_named(
        "int32 f(int32 a[64], int32 b[64]) {\n\
         #pragma HLS array_partition variable=a complete\n\
         #pragma HLS array_partition variable=b complete\n\
         int32 s; int32 i; s = 0;\n\
         #pragma HLS unroll\n\
         for (i = 0; i < 64; i++) { s = s + a[i] * b[i]; }\n\
         return s; }",
        "mac64",
    )
    .unwrap()
}

fn bench_extract_kernels(c: &mut Criterion) {
    let flow = CongestionFlow::fast();
    let (design, impl_result) = flow.implement(&congested_module()).unwrap();
    let mut g = c.benchmark_group("extract_kernels");
    g.sample_size(10);
    for kernel in [ExtractKernel::Soa, ExtractKernel::Reference] {
        g.bench_function(kernel.name(), |b| {
            b.iter(|| {
                let mut ds = CongestionDataset::new();
                ds.add_design_with(&design, &impl_result, &flow.device, kernel)
                    .unwrap();
                black_box(ds.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_extract_kernels);
criterion_main!(benches);
