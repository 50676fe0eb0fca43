//! Differential suite for the GBRT kernel pair and the compiled batched
//! inference engine (ISSUE 5).
//!
//! Two classes of guarantee, on data produced by the real paper pipeline
//! (HLS → placement → routing → back-traced congestion labels):
//!
//! * **Accuracy equivalence**: the histogram kernel's held-out MAE/MedAE
//!   stays within a pinned tolerance of `GbrtKernel::ReferenceExact` — the
//!   exact-split gold standard kept around forever, like the router's
//!   `ReferenceDijkstra` — so binning can never silently move Table IV.
//! * **Bitwise identity**: the compiled SoA node table (and every other
//!   model's batched path) predicts bit-for-bit what per-row `predict_one`
//!   predicts, across model families and seeds.

use fpga_hls_congestion::prelude::*;
use mlkit::metrics::{mae, medae};
use mlkit::{
    GbrtKernel, GbrtOptions, GbrtRegressor, Lasso, LassoOptions, MlpOptions, MlpRegressor,
    Regressor,
};

/// A small but real training suite: three designs with different loop
/// structure and partitioning, so the dataset has congestion spread.
fn paper_dataset() -> congestion_core::dataset::CongestionDataset {
    let modules: Vec<Module> = [
        "int32 f(int32 a[32], int32 k) { int32 s = 0;\n#pragma HLS unroll factor=4\nfor (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
        "int32 g(int32 a[64], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll factor=8\nfor (i = 0; i < 64; i++) { s = s + a[i] * k; } return s; }",
        "int32 h(int32 a[16], int32 b[16]) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * b[i]; } return s; }",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| compile_named(s, &format!("diff{i}")).unwrap())
    .collect();
    CongestionFlow::fast().build_dataset(&modules).unwrap()
}

fn gbrt_opts(kernel: GbrtKernel, seed: u64) -> GbrtOptions {
    GbrtOptions {
        n_estimators: 120,
        kernel,
        seed,
        ..Default::default()
    }
}

#[test]
fn histogram_kernel_matches_reference_exact_within_tolerance() {
    let ds = paper_dataset();
    let (train, test) = ds.split(0.25, 42);
    for target in [Target::Vertical, Target::Horizontal] {
        let tr = train.to_ml(target);
        let te = test.to_ml(target);
        let eval = |kernel| {
            let mut m = GbrtRegressor::new(gbrt_opts(kernel, 11));
            m.fit(&tr.x, &tr.y);
            let pred = m.predict(&te.x);
            (mae(&te.y, &pred), medae(&te.y, &pred))
        };
        let (mae_h, medae_h) = eval(GbrtKernel::Histogram);
        let (mae_e, medae_e) = eval(GbrtKernel::ReferenceExact);
        // Pinned tolerance: held-out MAE/MedAE in percentage points of
        // congestion. The kernels see identical row/feature subsamples
        // (same RNG schedule), so any drift is pure binning error.
        // Observed when the kernels landed: Vertical 28.52 vs 30.07,
        // Horizontal 33.60 vs 35.62 (~6% relative). Pin at 12% / 25%.
        assert!(
            (mae_h - mae_e).abs() <= 0.12 * mae_e.max(1.0),
            "{target:?}: histogram MAE {mae_h:.4} vs exact {mae_e:.4}"
        );
        assert!(
            (medae_h - medae_e).abs() <= 0.25 * medae_e.max(1.0),
            "{target:?}: histogram MedAE {medae_h:.4} vs exact {medae_e:.4}"
        );
    }
}

#[test]
fn batched_predict_is_bit_identical_to_per_row_for_every_model() {
    let ds = paper_dataset();
    let ml = ds.to_ml(Target::Vertical);
    for seed in [1u64, 7, 23] {
        let models: Vec<(&str, Box<dyn Regressor>)> = vec![
            ("lasso", {
                let mut m = Lasso::new(LassoOptions::default());
                m.fit(&ml.x, &ml.y);
                Box::new(m)
            }),
            ("ann", {
                let mut m = MlpRegressor::new(MlpOptions {
                    epochs: 15,
                    seed,
                    ..Default::default()
                });
                m.fit(&ml.x, &ml.y);
                Box::new(m)
            }),
            ("gbrt-hist", {
                let mut m = GbrtRegressor::new(gbrt_opts(GbrtKernel::Histogram, seed));
                m.fit(&ml.x, &ml.y);
                Box::new(m)
            }),
            ("gbrt-exact", {
                let mut m = GbrtRegressor::new(gbrt_opts(GbrtKernel::ReferenceExact, seed));
                m.fit(&ml.x, &ml.y);
                Box::new(m)
            }),
        ];
        for (name, m) in &models {
            let batched = m.predict(&ml.x);
            let mut into = vec![f64::NAN; ml.x.rows()];
            m.predict_into(&ml.x, &mut into);
            for (i, row) in ml.x.iter_rows().enumerate() {
                let per_row = m.predict_one(row);
                assert_eq!(
                    batched[i].to_bits(),
                    per_row.to_bits(),
                    "{name} seed {seed} row {i}: batched {} != per-row {}",
                    batched[i],
                    per_row
                );
                assert_eq!(into[i].to_bits(), per_row.to_bits(), "{name} predict_into");
            }
        }
    }
}

#[test]
fn golden_table4_gbrt_mae_band() {
    // Golden regression pin: GBRT held-out MAE on this fixed suite, split,
    // and effort must stay inside the band recorded when the histogram
    // kernel landed. A kernel change that moves the paper's Table IV
    // numbers fails loudly here.
    let ds = paper_dataset();
    let (train, test) = ds.split(0.25, 42);
    let opts = TrainOptions {
        effort: 0.5,
        ..TrainOptions::fast()
    };
    // Recorded at the delta-placer rewrite: Vertical 27.64, Horizontal
    // 9.51 (fast-flow labels; deterministic for this seed — the better
    // default placement routes with far less horizontal overflow, so the
    // horizontal labels got much easier). Band = roughly ±20%.
    let bands = [
        (Target::Vertical, 22.0, 33.0),
        (Target::Horizontal, 7.5, 11.5),
    ];
    for (target, lo, hi) in bands {
        let p = CongestionPredictor::train(ModelKind::Gbrt, target, &train, &opts);
        let acc = p.evaluate(&test);
        eprintln!(
            "golden {target:?}: mae={:.4} medae={:.4}",
            acc.mae, acc.medae
        );
        assert!(
            acc.mae >= lo && acc.mae <= hi,
            "{target:?} GBRT MAE {:.4} left the golden band [{lo}, {hi}]",
            acc.mae
        );
    }
}
