//! Reproducibility: identical seeds must produce bit-identical datasets,
//! placements, and model predictions across independent runs.

use fpga_hls_congestion::prelude::*;

fn module() -> Module {
    compile_named(
        "int32 f(int32 a[32], int32 k) { int32 s = 0;\n#pragma HLS unroll factor=4\nfor (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
        "det",
    )
    .unwrap()
}

#[test]
fn dataset_is_reproducible() {
    let run = || {
        let flow = CongestionFlow::fast();
        flow.build_dataset(std::slice::from_ref(&module())).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    assert_eq!(a.features(), b.features());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.op, y.op);
        assert_eq!(x.vertical, y.vertical);
        assert_eq!(x.horizontal, y.horizontal);
    }
}

#[test]
fn trained_models_are_reproducible() {
    let flow = CongestionFlow::fast();
    let ds = flow.build_dataset(std::slice::from_ref(&module())).unwrap();
    let train =
        |kind| CongestionPredictor::train(kind, Target::Vertical, &ds, &TrainOptions::fast());
    for kind in [ModelKind::Linear, ModelKind::Ann, ModelKind::Gbrt] {
        let a = train(kind);
        let b = train(kind);
        let row = ds.features_of(0);
        assert_eq!(
            a.predict_features(row),
            b.predict_features(row),
            "{kind:?} must be deterministic"
        );
    }
}

#[test]
fn worker_count_does_not_change_dataset_or_models() {
    // The parallel dataset builder must be a pure speedup: one worker and
    // many workers produce the same samples in the same order, and models
    // trained on either dataset agree bit-for-bit.
    let modules: Vec<Module> = [
        "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
        "int32 g(int32 a[32]) { int32 s = 0;\n#pragma HLS unroll factor=4\nfor (i = 0; i < 32; i++) { s = s + a[i]; } return s; }",
        "int32 h(int32 x, int32 y) { return (x * y) + (x - y) * 3; }",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| compile_named(s, &format!("wd{i}")).unwrap())
    .collect();

    let serial = CongestionFlow::fast()
        .with_workers(1)
        .build_dataset(&modules)
        .unwrap();
    let parallel = CongestionFlow::fast()
        .with_workers(8)
        .build_dataset(&modules)
        .unwrap();

    // Identical sample order, features, and labels.
    assert_eq!(serial.samples.len(), parallel.samples.len());
    assert_eq!(serial.features(), parallel.features());
    for (a, b) in serial.samples.iter().zip(&parallel.samples) {
        assert_eq!((&a.design, a.func, a.op), (&b.design, b.func, b.op));
        assert_eq!(a.vertical.to_bits(), b.vertical.to_bits());
        assert_eq!(a.horizontal.to_bits(), b.horizontal.to_bits());
    }

    // Models trained on each agree on every row (CV folds and grid points
    // also run in parallel inside train, so this exercises that path too).
    for kind in [ModelKind::Linear, ModelKind::Gbrt] {
        let a = CongestionPredictor::train(kind, Target::Vertical, &serial, &TrainOptions::fast());
        let b =
            CongestionPredictor::train(kind, Target::Vertical, &parallel, &TrainOptions::fast());
        for i in 0..serial.len() {
            let row = serial.features_of(i);
            assert_eq!(
                a.predict_features(row).to_bits(),
                b.predict_features(row).to_bits(),
                "{kind:?} prediction differs between worker counts"
            );
        }
    }
}

#[test]
fn maze_router_is_deterministic_across_worker_counts() {
    // The rewritten maze kernel (A* + arena + incremental rerouting) must be
    // a pure function of the design: 1 worker and 8 workers produce
    // bit-identical congestion labels.
    let modules: Vec<Module> = [
        "int32 f(int32 a[32], int32 k) { int32 s = 0;\n#pragma HLS unroll factor=8\nfor (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
        "int32 g(int32 a[64], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 64; i++) { s = s + a[i] * k; } return s; }",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| compile_named(s, &format!("mz{i}")).unwrap())
    .collect();

    let run = |workers| {
        let mut flow = CongestionFlow::fast().with_workers(workers);
        flow.par.router = fpga_fabric::RouterOptions::with_maze(2);
        flow.build_dataset(&modules).unwrap()
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!((&x.design, x.func, x.op), (&y.design, y.func, y.op));
        assert_eq!(x.vertical.to_bits(), y.vertical.to_bits());
        assert_eq!(x.horizontal.to_bits(), y.horizontal.to_bits());
    }
}

#[test]
fn dataset_bytes_and_metrics_digest_match_at_1_2_and_8_workers() {
    // Worker count must be a pure scheduling change: the serialized CSV
    // bytes — the strictest equality, catching even `-0.0` vs `+0.0` —
    // and the deterministic metrics digest match the 1-worker build's.
    let modules: Vec<Module> = [
        "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
        "int32 g(int32 a[32]) { int32 s = 0;\n#pragma HLS unroll factor=4\nfor (i = 0; i < 32; i++) { s = s + a[i]; } return s; }",
        "int32 h(int32 x, int32 y) { return (x * y) + (x - y) * 3; }",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| compile_named(s, &format!("pl{i}")).unwrap())
    .collect();

    let build = |workers: usize| {
        let report = CongestionFlow::fast()
            .with_workers(workers)
            .build_dataset_report(&modules);
        assert_eq!(report.failed(), 0, "{}", report.render());
        let mut bytes = Vec::new();
        congestion_core::persist::write_csv(&report.dataset, &mut bytes).unwrap();
        (bytes, report.obs.metrics.deterministic_digest())
    };
    let (serial, serial_digest) = build(1);
    for workers in [2, 8] {
        let (bytes, digest) = build(workers);
        assert_eq!(serial, bytes, "{workers} workers changed the dataset bytes");
        assert_eq!(
            serial_digest, digest,
            "{workers} workers changed the metrics digest"
        );
    }
}

#[test]
fn different_par_seeds_change_labels() {
    let flow = CongestionFlow::fast();
    let mut flow2 = CongestionFlow::fast();
    flow2.par = flow2.par.with_seed(999);
    let m = module();
    let a = flow.build_dataset(std::slice::from_ref(&m)).unwrap();
    let b = flow2.build_dataset(std::slice::from_ref(&m)).unwrap();
    assert_eq!(a.len(), b.len(), "same ops either way");
    let same = a
        .samples
        .iter()
        .zip(&b.samples)
        .filter(|(x, y)| x.vertical == y.vertical)
        .count();
    assert!(
        same < a.len(),
        "a different placement seed must move some labels"
    );
    // …but the features (HLS-level) are placement-independent.
    assert_eq!(a.features(), b.features());
}
