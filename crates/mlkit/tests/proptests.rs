//! Property-based tests of the ML toolkit's invariants.

use mlkit::compiled::{CompiledEnsemble, LEAF, MAX_DEPTH};
use mlkit::cv::kfold;
use mlkit::dataset::Matrix;
use mlkit::metrics::{mae, medae, r2, rmse};
use mlkit::scaler::StandardScaler;
use mlkit::tree::{BinnedMatrix, RegressionTree, TreeFitStats, TreeOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type RawNode = (u32, u32, u32, f64);

/// Values that make comparisons interesting: ties, signed zeros, extremes.
const EDGES: [f64; 8] = [-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, -1e300, 1e300];

/// Feature values binning must order as `predict_one` compares them: NaN of
/// either sign (`0.0 / 0.0` is the negative one on x86), infinities and
/// signed zeros. Codes past the end are small integers.
fn special_or_int(code: usize) -> f64 {
    match code {
        0 => f64::NAN,
        1 => f64::from_bits(0xfff8_0000_0000_0000),
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        5 => 0.0,
        k => k as f64 - 9.0,
    }
}

fn chance(rng: &mut StdRng, p: f64) -> bool {
    rng.gen::<f64>() < p
}

/// Append a random subtree at `depth` whose deepest leaf is at most
/// `max_depth`, children after parents (the layout `from_raw` accepts).
/// A right child sometimes reuses a node of the left subtree, so subtrees
/// are shared. Returns the subtree root's index.
fn grow(
    rng: &mut StdRng,
    nodes: &mut Vec<RawNode>,
    depth: usize,
    max_depth: usize,
    n_features: u32,
) -> u32 {
    let id = nodes.len() as u32;
    if depth == max_depth || chance(rng, 0.25) {
        nodes.push((LEAF, 0, 0, rng.gen_range(-100.0..100.0)));
        return id;
    }
    let threshold = if chance(rng, 0.5) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(-3.0..3.0)
    };
    nodes.push((rng.gen_range(0..n_features), 0, 0, threshold));
    let left = grow(rng, nodes, depth + 1, max_depth, n_features);
    // Every node of the left subtree sits at depth > `depth`, so it fits
    // under this split without deepening the tree.
    let right = if chance(rng, 0.3) {
        rng.gen_range(left..nodes.len() as u32)
    } else {
        grow(rng, nodes, depth + 1, max_depth, n_features)
    };
    nodes[id as usize].1 = left;
    nodes[id as usize].2 = right;
    id
}

/// The test-only reference: walk each tree's pointers, add the leaves in
/// tree order.
fn pointer_walk(base: f64, scale: f64, roots: &[u32], nodes: &[RawNode], row: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &root in roots {
        let mut n = nodes[root as usize];
        while n.0 != LEAF {
            let next = if row[n.0 as usize] <= n.3 { n.1 } else { n.2 };
            n = nodes[next as usize];
        }
        acc += n.3;
    }
    base + scale * acc
}

fn vec_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..64)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

proptest! {
    #[test]
    fn implicit_layout_matches_the_pointer_walk(seed in any::<u64>(), n_rows in 0usize..131) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_features = rng.gen_range(1u32..6);
        let mut nodes = Vec::new();
        let mut roots = Vec::new();
        for _ in 0..rng.gen_range(1..6) {
            let max_depth = rng.gen_range(0..MAX_DEPTH + 1);
            roots.push(grow(&mut rng, &mut nodes, 0, max_depth, n_features));
            if chance(&mut rng, 0.3) {
                // Another tree rooted inside an existing one (maybe a leaf).
                roots.push(rng.gen_range(0..nodes.len() as u32));
            }
        }
        let (base, scale) = (rng.gen_range(-10.0..10.0), rng.gen_range(0.01..1.0));
        let c = CompiledEnsemble::from_raw(base, scale, roots.clone(), nodes.clone(), n_features as usize)
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(c.n_nodes(), nodes.len());
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| {
                (0..n_features)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => specials[rng.gen_range(0..specials.len())],
                        1 => EDGES[rng.gen_range(0..EDGES.len())],
                        _ => rng.gen_range(-3.0..3.0),
                    })
                    .collect()
            })
            .collect();
        let x = if rows.is_empty() {
            Matrix::with_cols(n_features as usize)
        } else {
            Matrix::from_rows(&rows)
        };
        let mut out = vec![f64::NAN; n_rows];
        c.predict_into(&x, &mut out);
        for (i, row) in rows.iter().enumerate() {
            let want = pointer_walk(base, scale, &roots, &nodes, row);
            prop_assert_eq!(out[i].to_bits(), want.to_bits(), "row {} of {}", i, n_rows);
        }
    }

    #[test]
    fn metrics_are_nonnegative_and_zero_on_identity((y, p) in vec_pair()) {
        prop_assert!(mae(&y, &p) >= 0.0);
        prop_assert!(medae(&y, &p) >= 0.0);
        prop_assert!(rmse(&y, &p) >= 0.0);
        prop_assert!(mae(&y, &y) == 0.0);
        prop_assert!(medae(&y, &y) == 0.0);
        prop_assert!((r2(&y, &y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mae_dominates_medae_up_to_max((y, p) in vec_pair()) {
        // MedAE <= max error, MAE <= max error, MedAE can exceed MAE only
        // when more than half the errors are above the mean — but never the
        // maximum.
        let max_err = y.iter().zip(&p).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        prop_assert!(mae(&y, &p) <= max_err + 1e-9);
        prop_assert!(medae(&y, &p) <= max_err + 1e-9);
    }

    #[test]
    fn rmse_dominates_mae((y, p) in vec_pair()) {
        prop_assert!(rmse(&y, &p) + 1e-9 >= mae(&y, &p));
    }

    #[test]
    fn kfold_is_a_partition(n in 4usize..200, k in 2usize..8, seed in 0u64..100) {
        prop_assume!(n >= k);
        let folds = kfold(n, k, seed);
        prop_assert_eq!(folds.len(), k);
        let mut seen = vec![0u32; n];
        for (train, val) in &folds {
            prop_assert_eq!(train.len() + val.len(), n);
            for &i in val {
                seen[i] += 1;
            }
            // No index appears in both halves of a fold.
            let tset: std::collections::HashSet<_> = train.iter().collect();
            prop_assert!(val.iter().all(|i| !tset.contains(i)));
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "each sample validates exactly once");
    }

    #[test]
    fn scaler_produces_zero_mean(rows in prop::collection::vec(
        prop::collection::vec(-1e4f64..1e4, 3), 2..40)) {
        let x = Matrix::from_rows(&rows);
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        for j in 0..3 {
            let col = t.column(j);
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            prop_assert!(mean.abs() < 1e-6, "column {j} mean {mean}");
        }
    }

    #[test]
    fn bin_edges_are_monotone_and_cover_the_range(
        rows in prop::collection::vec(prop::collection::vec(-1e4f64..1e4, 3), 2..120),
        budget in 2usize..300,
    ) {
        let x = Matrix::from_rows(&rows);
        let b = mlkit::BinnedMatrix::with_bins(&x, budget);
        for j in 0..x.cols() {
            let edges = &b.thresholds[j];
            prop_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges strictly increase");
            let col = x.column(j);
            let max = col.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert_eq!(*edges.last().unwrap(), max, "last edge is the column max");
            prop_assert!(edges.len() <= budget.clamp(2, 256));
            for i in 0..x.rows() {
                let v = x.row(i)[j];
                let code = b.bin(i, j);
                prop_assert!(code < edges.len());
                // Order agreement: bin(v) <= c  <=>  v <= edges[c].
                for (c, &e) in edges.iter().enumerate() {
                    prop_assert_eq!(code <= c, v <= e, "v={} edge={}", v, e);
                }
            }
        }
    }

    #[test]
    fn fitted_splits_always_reduce_sse(
        data in prop::collection::vec((-100f64..100.0, -50f64..50.0, -50f64..50.0), 12..100)
    ) {
        let rows: Vec<Vec<f64>> = data.iter().map(|&(a, b, _)| vec![a, b]).collect();
        let y: Vec<f64> = data.iter().map(|&(_, _, t)| t).collect();
        let x = Matrix::from_rows(&rows);
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let tree = RegressionTree::fit(&binned, &y, &samples, &[0, 1], &TreeOptions::default());
        // Every accepted split carries a strictly positive SSE gain...
        let mut min_gain = f64::INFINITY;
        tree.for_each_split(|_, g| min_gain = min_gain.min(g));
        if tree.split_count() > 0 {
            prop_assert!(min_gain > 0.0, "split with non-positive gain {min_gain}");
        }
        // ...so the fitted tree never scores worse than the constant mean.
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let sse_mean: f64 = y.iter().map(|t| (t - mean) * (t - mean)).sum();
        let sse_tree: f64 = x.iter_rows().zip(&y)
            .map(|(r, t)| { let p = tree.predict_one(r); (t - p) * (t - p) })
            .sum();
        prop_assert!(sse_tree <= sse_mean + 1e-6 * sse_mean.max(1.0),
            "tree SSE {sse_tree} vs mean SSE {sse_mean}");
    }

    #[test]
    fn training_is_invariant_to_row_permutation(
        data in prop::collection::vec((-40i32..40, -40i32..40, -20i32..20), 10..80),
        rot in 1usize..7,
    ) {
        // Integer-valued data keeps every histogram sum exact, so reordering
        // the f64 accumulation cannot perturb a split decision and the two
        // fits must agree to the last bit.
        let rows: Vec<Vec<f64>> = data.iter().map(|&(a, b, _)| vec![a as f64, b as f64]).collect();
        let y: Vec<f64> = data.iter().map(|&(_, _, t)| t as f64).collect();
        let n = rows.len();
        let rot = rot % n;
        let perm: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        let rows_p: Vec<Vec<f64>> = perm.iter().map(|&i| rows[i].clone()).collect();
        let y_p: Vec<f64> = perm.iter().map(|&i| y[i]).collect();
        let fit = |rows: &[Vec<f64>], y: &[f64]| {
            let x = Matrix::from_rows(rows);
            let binned = BinnedMatrix::from_matrix(&x);
            let samples: Vec<usize> = (0..x.rows()).collect();
            RegressionTree::fit(&binned, y, &samples, &[0, 1], &TreeOptions::default())
        };
        let a = fit(&rows, &y);
        let b = fit(&rows_p, &y_p);
        for row in rows.iter() {
            prop_assert_eq!(a.predict_one(row).to_bits(), b.predict_one(row).to_bits());
        }
    }

    #[test]
    fn tree_predictions_stay_within_target_range(
        data in prop::collection::vec((-100f64..100.0, -50f64..50.0), 10..80)
    ) {
        let rows: Vec<Vec<f64>> = data.iter().map(|&(a, _)| vec![a]).collect();
        let y: Vec<f64> = data.iter().map(|&(_, b)| b).collect();
        let x = Matrix::from_rows(&rows);
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let tree = RegressionTree::fit(&binned, &y, &samples, &[0], &TreeOptions::default());
        let lo = y.iter().cloned().fold(f64::MAX, f64::min);
        let hi = y.iter().cloned().fold(f64::MIN, f64::max);
        for row in x.iter_rows() {
            let p = tree.predict_one(row);
            // Leaf values are means of targets, so they stay inside the
            // observed range.
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn rows_train_in_the_leaf_they_predict_from(
        data in prop::collection::vec((0usize..14, 0usize..14, -20i32..20), 12..90),
        max_depth in 1usize..5,
    ) {
        // A leaf's value is the mean target of the training rows binned
        // into it. If binning orders NaN, ±inf and -0.0 as `predict_one`
        // compares them, that is also the mean over the rows
        // `predict_one` sends there. Integer targets keep sums exact, so a
        // group of rows with equal predictions (one leaf, or leaves of
        // equal mean) has exactly that mean.
        let rows: Vec<Vec<f64>> = data
            .iter()
            .map(|&(a, b, _)| vec![special_or_int(a), special_or_int(b)])
            .collect();
        let y: Vec<f64> = data.iter().map(|&(_, _, t)| t as f64).collect();
        let x = Matrix::from_rows(&rows);
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..x.rows()).collect();
        let opts = TreeOptions { max_depth, min_samples_leaf: 1 };
        let tree = RegressionTree::fit(&binned, &y, &samples, &[0, 1], &opts);
        let pred: Vec<f64> = x.iter_rows().map(|r| tree.predict_one(r)).collect();
        for (i, p) in pred.iter().enumerate() {
            let (sum, cnt) = pred
                .iter()
                .zip(&y)
                .filter(|(q, _)| q.to_bits() == p.to_bits())
                .fold((0.0, 0usize), |(s, c), (_, t)| (s + t, c + 1));
            prop_assert_eq!(
                p.to_bits(),
                (sum / cnt as f64).to_bits(),
                "row {} ({:?}) predicts {} but its group's targets average {}",
                i, rows[i], p, sum / cnt as f64
            );
        }
    }
}

proptest! {
    #[test]
    fn in_bag_rows_record_the_leaf_they_predict_from(
        data in prop::collection::vec((0usize..14, 0usize..14, -20i32..20, any::<bool>()), 12..90),
        max_depth in 1usize..5,
        min_samples_leaf in 1usize..4,
    ) {
        // The boosting loop takes an in-bag row's stage value from the
        // leaf the fit partitioned it into, and walks the tree only for
        // the others. Binning must order NaN of either sign, ±inf and ±0.0
        // as `predict_one` compares them for that leaf to be the one
        // `predict_one` reaches. Out-of-bag entries stay untouched.
        const UNTOUCHED: f64 = -7.25;
        let rows: Vec<Vec<f64>> = data
            .iter()
            .map(|&(a, b, _, _)| vec![special_or_int(a), special_or_int(b)])
            .collect();
        let y: Vec<f64> = data.iter().map(|&(_, _, t, _)| t as f64 * 0.37).collect();
        let bag: Vec<usize> = (0..data.len()).filter(|&i| data[i].3).collect();
        prop_assume!(!bag.is_empty());
        let x = Matrix::from_rows(&rows);
        let binned = BinnedMatrix::from_matrix(&x);
        let opts = TreeOptions { max_depth, min_samples_leaf };
        let mut leaf_value = vec![UNTOUCHED; data.len()];
        let (tree, _) = RegressionTree::fit_hist_with_leaves(
            &binned, &y, &bag, &[0, 1], &opts, 1, &mut leaf_value,
        );
        for (i, row) in x.iter_rows().enumerate() {
            let want = if data[i].3 { tree.predict_one(row) } else { UNTOUCHED };
            prop_assert_eq!(
                leaf_value[i].to_bits(),
                want.to_bits(),
                "row {} ({:?}) recorded {} but predicts {}",
                i, row, leaf_value[i], want
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn worker_count_never_changes_training(
        seed in any::<u64>(),
        n in 1400usize..1800,
        workers in 2usize..9,
    ) {
        // 240 columns of 1 to 400 distinct values: samples × splittable
        // features passes the tree kernel's pooling threshold (2^18) at the
        // root.
        let nf = 240;
        let mut rng = StdRng::seed_from_u64(seed);
        let distinct: Vec<u32> = (0..nf).map(|_| rng.gen_range(1..400)).collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| distinct.iter().map(|&d| rng.gen_range(0..d) as f64 * 0.5).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r[0] - 2.0 * r[1] + rng.gen_range(-50.0..50.0))
            .collect();
        let x = Matrix::from_rows(&rows);
        let binned = BinnedMatrix::from_matrix(&x);
        let samples: Vec<usize> = (0..n).collect();
        let features: Vec<usize> = (0..nf).collect();
        let opts = TreeOptions::default();
        let (serial, s1) = RegressionTree::fit_hist(&binned, &y, &samples, &features, &opts, 1);
        let (pooled, sp) =
            RegressionTree::fit_hist(&binned, &y, &samples, &features, &opts, workers);
        prop_assert_eq!(s1.hist_pooled, 0);
        prop_assert!(sp.hist_pooled > 0, "the pooled scan never ran: {:?}", sp);
        prop_assert_eq!(s1, TreeFitStats { hist_pooled: 0, ..sp }, "identical work counters");
        for row in x.iter_rows() {
            prop_assert_eq!(serial.predict_one(row).to_bits(), pooled.predict_one(row).to_bits());
        }
    }
}
