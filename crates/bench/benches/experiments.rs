//! Criterion benchmarks: one per paper table/figure, at reduced effort so
//! a full `cargo bench` stays tractable. The shape assertions live in the
//! unit/integration tests; these benches measure the cost of regenerating
//! each artifact.

use congestion_bench::designs::Effort;
use congestion_bench::*;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_table1_motivation(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.bench_function("table1_motivation", |b| {
        b.iter(|| {
            let t = table1::run(Effort::Fast);
            assert!(t.with_directives.max_congestion() > 0.0);
            t
        })
    });
    g.finish();
}

fn bench_table3_suite(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.bench_function("table3_suite", |b| {
        b.iter(|| {
            let (t, ds) = table3::run(Effort::Fast);
            assert!(ds.len() > 100);
            t
        })
    });
    g.finish();
}

fn bench_table4_accuracy(c: &mut Criterion) {
    // Build the dataset once; benchmark the training/evaluation protocol.
    let (_, ds) = table3::run(Effort::Fast);
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.bench_function("table4_accuracy", |b| {
        b.iter(|| {
            let t = table4::run_on(&ds, Effort::Fast, false, &obskit::Collector::new());
            assert!(t.rows.len() == 2);
            t
        })
    });
    g.finish();
}

fn bench_table5_importance(c: &mut Criterion) {
    let (_, ds) = table3::run(Effort::Fast);
    let filtered = congestion_core::filter::filter_marginal(&ds, &Default::default());
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.bench_function("table5_importance", |b| {
        b.iter(|| table5::run_on(&filtered.kept, Effort::Fast))
    });
    g.finish();
}

fn bench_table6_case_study(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.bench_function("table6_case_study", |b| {
        b.iter(|| table6::run(Effort::Fast))
    });
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.bench_function("fig1_congestion_maps", |b| {
        b.iter(|| fig1::run(Effort::Fast))
    });
    g.bench_function("fig5_distribution", |b| b.iter(|| fig5::run(Effort::Fast)));
    g.bench_function("fig6_resolution_maps", |b| {
        b.iter(|| fig6::run(Effort::Fast))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table1_motivation,
    bench_table3_suite,
    bench_table4_accuracy,
    bench_table5_importance,
    bench_table6_case_study,
    bench_figures
);
criterion_main!(benches);
