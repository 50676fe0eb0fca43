//! Reproducibility: identical seeds must produce bit-identical datasets,
//! placements, and model predictions across independent runs.

use fpga_hls_congestion::obskit::Fnv1a;
use fpga_hls_congestion::prelude::*;
use fpga_hls_congestion::rosetta_gen::{digit_recognition, spam_filter, Preset};

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
fn grid_searched_fits_are_pinned() {
    // Each model's grid search (k-fold CV over its grid, then the final
    // fit) on DR + SF Plain. The digests are FNV-1a over the bits of the
    // test-split predictions: every CV score, winner and fitted model keeps
    // its bits whatever order the points and folds are scored in.
    let modules: Vec<Module> = [
        digit_recognition::benchmark(Preset::Plain),
        spam_filter::benchmark(Preset::Plain),
    ]
    .iter()
    .map(|b| b.build().unwrap())
    .collect();
    let ds = CongestionFlow::fast().build_dataset(&modules).unwrap();
    let (train, test) = ds.split(0.2, 17);
    let opts = TrainOptions {
        grid_search: true,
        ..TrainOptions::fast()
    };
    for (kind, points, digest) in [
        (ModelKind::Linear, 4, 0xa1fc_413c_0654_16a7),
        (ModelKind::Ann, 2, 0x1c98_3d4b_98ab_4ed9),
        (ModelKind::Gbrt, 2, 0x7a22_b3c1_c570_e8cb),
    ] {
        let obs = Collector::new();
        let p = CongestionPredictor::train_observed(kind, Target::Vertical, &train, &opts, &obs);
        let mut h = Fnv1a::default();
        for i in 0..test.len() {
            h.bytes(
                &p.predict_features(test.features_of(i))
                    .to_bits()
                    .to_le_bytes(),
            );
        }
        assert_eq!(h.finish(), digest, "{kind:?} test-split predictions");
        let counters = obs.finish().metrics.counters;
        assert_eq!(counters["cv.grid.points"], points, "{kind:?}");
        assert_eq!(
            counters["cv.folds"],
            points * opts.cv_folds as u64,
            "{kind:?}: every point scores every fold"
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
