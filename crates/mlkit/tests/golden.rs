//! Golden digests of GBRT fits with the histogram kernel: every tree,
//! threshold, leaf value and gain, bit for bit.
//!
//! The matrix is synthetic and NaN-free, built with integer arithmetic
//! only, so it is the same on every platform. It has constant columns,
//! two-bin columns, a column with more distinct values than the 256-bin
//! budget, and enough rows that a 2-worker fit pools its root scans.
//!
//! The constants in [`GOLDEN`] were recorded by running this test on commit
//! `d73a2c5`, whose kernel gave every candidate feature a histogram row as
//! wide as the widest feature. The kernel that sizes each feature's
//! histogram by its own bins must fit the same ensembles.

use mlkit::dataset::Matrix;
use mlkit::tree::{BinnedMatrix, RegressionTree, TreeOptions};
use mlkit::{GbrtOptions, GbrtRegressor, Regressor};
use obskit::Fnv1a;

const ROWS: usize = 6000;
const COLS: usize = 96;

/// splitmix64's output function: a well-mixed hash of `(row, col)`.
fn mix(row: usize, col: usize) -> u64 {
    let mut z = ((row as u64) << 32 | col as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The integer value of one cell. Every third column is constant (one
/// bin); eight columns have two values; column 2 has thousands of distinct
/// values; the rest have 3 to 300.
fn cell(row: usize, col: usize) -> i64 {
    const MODULI: [u64; 8] = [3, 4, 5, 9, 17, 40, 120, 300];
    let h = mix(row, col);
    if col.is_multiple_of(3) {
        col as i64
    } else if col == 2 {
        (h % 4096) as i64 - 1000
    } else if col % 3 == 1 && col < 24 {
        (h % 2) as i64
    } else {
        (h % MODULI[col % MODULI.len()]) as i64
    }
}

/// The matrix (cells scaled by 1/4, exact in binary) and a target that
/// depends on a two-bin, the wide and two narrow columns plus hashed noise.
fn data() -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..ROWS)
        .map(|i| (0..COLS).map(|j| cell(i, j) as f64 * 0.25).collect())
        .collect();
    let y = (0..ROWS)
        .map(|i| {
            let noise = (mix(i, COLS) % 21) as i64 - 10;
            let t = 10 * cell(i, 1) + cell(i, 2) / 64 + 3 * cell(i, 5) - 2 * cell(i, 8) + noise;
            t as f64 * 0.5
        })
        .collect();
    (Matrix::from_rows(&rows), y)
}

/// Digest of a fitted ensemble: its compiled node table (threshold bits
/// included), base, scale and gain importances.
fn digest(m: &GbrtRegressor) -> u64 {
    let mut h = Fnv1a::default();
    let c = m.compiled();
    for r in c.roots() {
        h.bytes(&r.to_le_bytes());
    }
    for (feature, left, right, threshold) in c.nodes_raw() {
        h.bytes(&feature.to_le_bytes());
        h.bytes(&left.to_le_bytes());
        h.bytes(&right.to_le_bytes());
        h.bytes(&threshold.to_bits().to_le_bytes());
    }
    h.bytes(&c.base().to_bits().to_le_bytes());
    h.bytes(&c.scale().to_bits().to_le_bytes());
    for g in m.feature_importance_gain() {
        h.bytes(&g.to_bits().to_le_bytes());
    }
    h.finish()
}

const STAGES: usize = 40;

/// `(name, max_depth, feature_fraction, digest)`. "sparse" samples two
/// features per stage, so some stages draw only constant columns and fit
/// no tree.
const GOLDEN: [(&str, usize, f64, u64); 3] = [
    ("depth3_all_features", 3, 1.0, 0x204a_4718_949e_8a7e),
    ("depth4_all_features", 4, 1.0, 0x0fe7_1996_2679_586a),
    ("depth4_sparse", 4, 0.02, 0x92a6_a76c_3065_a5b8),
];

/// A deep fit with one-row leaves: `(name, max_depth, min_samples_leaf,
/// feature_fraction, digest)`. Its nodes get small, so most histograms
/// derive from derived ones, and the empty bins of such a histogram can
/// carry the nonzero rounding residue of a subtraction chain. Recorded on
/// commit `4609c31`, before the kernel's scan, split search, partition and
/// binning loops were rewritten.
const DEEP: (&str, usize, usize, f64, u64) = ("depth8_leaf1", 8, 1, 0.4, 0x9b20_5b8d_b671_0a2e);

fn fit(
    x: &Matrix,
    y: &[f64],
    tree: TreeOptions,
    feature_fraction: f64,
    workers: usize,
) -> GbrtRegressor {
    let mut m = GbrtRegressor::new(GbrtOptions {
        n_estimators: STAGES,
        feature_fraction,
        tree,
        workers,
        ..Default::default()
    });
    m.fit(x, y);
    m
}

#[test]
fn histogram_fits_match_the_recorded_digests() {
    let (x, y) = data();
    let mut report = Vec::new();
    for (name, max_depth, fraction, want) in GOLDEN {
        for workers in [1, 2] {
            let tree = TreeOptions {
                max_depth,
                ..Default::default()
            };
            let m = fit(&x, &y, tree, fraction, workers);
            assert!(m.n_trees() > 0, "{name}: no tree fitted");
            if name == "depth4_sparse" {
                assert!(
                    m.n_trees() < STAGES,
                    "some stages sample only constant columns"
                );
            }
            let got = digest(&m);
            report.push(format!(
                "{name} workers={workers} trees={} digest={got:#018x}",
                m.n_trees()
            ));
            if got != want {
                panic!("{name} at {workers} workers moved:\n{}", report.join("\n"));
            }
        }
    }
}

#[test]
fn deep_one_row_leaf_fits_match_the_recorded_digest() {
    let (x, y) = data();
    let (name, max_depth, min_samples_leaf, fraction, want) = DEEP;
    let tree = TreeOptions {
        max_depth,
        min_samples_leaf,
    };
    for workers in [1, 2] {
        let m = fit(&x, &y, tree, fraction, workers);
        assert_eq!(m.n_trees(), STAGES, "{name}: every stage fits a tree");
        let got = digest(&m);
        assert_eq!(
            got, want,
            "{name} at {workers} workers moved: digest={got:#018x}"
        );
    }
}

#[test]
fn the_golden_matrix_reaches_the_pooled_scan() {
    // A stage of the all-feature fits: 80 % of the rows, every column.
    let (x, y) = data();
    let binned = BinnedMatrix::from_matrix(&x);
    assert_eq!(binned.n_bins(0), 1, "constant column");
    assert_eq!(binned.n_bins(1), 2, "two-bin column");
    assert_eq!(binned.n_bins(2), 256, "the wide column fills the budget");
    let samples: Vec<usize> = (0..ROWS * 4 / 5).collect();
    let features: Vec<usize> = (0..COLS).collect();
    let (_, stats) =
        RegressionTree::fit_hist(&binned, &y, &samples, &features, &TreeOptions::default(), 2);
    assert!(stats.hist_pooled > 0, "{stats:?}");
}
