//! K-fold cross-validation and grid search.
//!
//! The paper "employ[s] a 10-fold cross-validation on the training set and
//! grid search … to find the best hyperparameters of each model" (§IV-A).

use crate::dataset::Dataset;
use crate::metrics::mae;
use crate::model::Regressor;
use obskit::Collector;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One fold's `(train, validation)` index vectors.
pub type Fold = (Vec<usize>, Vec<usize>);

/// Deterministic k-fold index split: returns `(train, validation)` index
/// vectors for each fold.
///
/// # Panics
/// Panics if `k < 2` (a single fold has no held-out data to score) or
/// `n < k` (some fold would have an empty validation set).
pub fn kfold(n: usize, k: usize, seed: u64) -> Vec<Fold> {
    assert!(k >= 2, "k-fold needs k >= 2, got k = {k}");
    assert!(
        n >= k,
        "k-fold needs at least k samples, got n = {n} < k = {k}"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let lo = f * n / k;
        let hi = (f + 1) * n / k;
        let val: Vec<usize> = idx[lo..hi].to_vec();
        let train: Vec<usize> = idx[..lo].iter().chain(&idx[hi..]).copied().collect();
        folds.push((train, val));
    }
    folds
}

/// One fold's MAE: train on `train_idx`, score on `val_idx`.
fn fold_mae<M, F>(data: &Dataset, train_idx: &[usize], val_idx: &[usize], make: &F) -> f64
where
    M: Regressor,
    F: Fn() -> M,
{
    let train = data.select(train_idx);
    let val = data.select(val_idx);
    let mut model = make();
    model.fit(&train.x, &train.y);
    let pred = model.predict(&val.x);
    mae(&val.y, &pred)
}

/// Mean validation MAE of a model factory over the `k` folds of `data`.
///
/// Folds are fitted on parallel worker threads (worker count from
/// [`parkit::num_threads`], i.e. `RAYON_NUM_THREADS`), which is why `make`
/// must be `Sync`. Each fold records one `cv.fold` span, a
/// `cv.fold.wall_ms` and a `cv.fold.mae` histogram sample (the per-fold
/// accuracy the run ledger keeps) and a `cv.folds` increment into its own
/// collector. Scores are summed and records absorbed into `obs` **in fold
/// order**, so the score and every deterministic metric are bit-identical
/// for any worker count.
fn cross_val_mae<M, F>(data: &Dataset, k: usize, seed: u64, make: F, obs: &Collector) -> f64
where
    M: Regressor,
    F: Fn() -> M + Sync,
{
    let folds = kfold(data.len(), k, seed);
    let results = parkit::par_map(&folds, |(train_idx, val_idx)| {
        let fold_obs = Collector::new();
        let start = std::time::Instant::now();
        let score = {
            let _span = fold_obs.span("cv.fold");
            fold_mae(data, train_idx, val_idx, &make)
        };
        fold_obs.observe("cv.fold.wall_ms", start.elapsed().as_secs_f64() * 1e3);
        fold_obs.observe("cv.fold.mae", score);
        fold_obs.inc("cv.folds", 1);
        (score, fold_obs.finish())
    });
    let mut total = 0.0;
    for (score, rec) in results {
        total += score;
        obs.absorb(rec);
    }
    total / folds.len() as f64
}

/// Pick the point of `params` with the lowest `k`-fold CV MAE. Returns
/// `(best_param_index, best_score)`.
///
/// Points are scored one after another, in grid order, each under a
/// `cv.grid.point` span with its folds on parallel workers (so a model
/// that `make` builds should fit on one worker, or the pools nest). The
/// first strict minimum wins, so ties resolve to the lowest index. Records
/// a `cv.grid.points` increment per point and the winner's
/// `cv.grid.best_index` and `cv.grid.best_mae` gauges into `obs`.
///
/// # Panics
/// Panics if `params` is empty, or as [`kfold`] does.
pub fn grid_search<M, P, F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    params: &[P],
    make: F,
    obs: &Collector,
) -> (usize, f64)
where
    M: Regressor,
    P: Sync,
    F: Fn(&P) -> M + Sync,
{
    assert!(
        !params.is_empty(),
        "grid search over an empty parameter grid"
    );
    let mut best = (0usize, f64::INFINITY);
    for (i, p) in params.iter().enumerate() {
        let score = {
            let _span = obs.span("cv.grid.point");
            cross_val_mae(data, k, seed, || make(p), obs)
        };
        obs.inc("cv.grid.points", 1);
        if score < best.1 {
            best = (i, score);
        }
    }
    obs.set_gauge("cv.grid.best_index", best.0 as f64);
    obs.set_gauge("cv.grid.best_mae", best.1);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{Lasso, LassoOptions};

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::with_cols(1);
        for i in 0..n {
            let x = i as f64;
            d.push(&[x], 2.0 * x + 1.0);
        }
        d
    }

    fn lasso(alpha: f64) -> Lasso {
        Lasso::new(LassoOptions {
            alpha,
            ..Default::default()
        })
    }

    #[test]
    fn kfold_partitions_everything() {
        let folds = kfold(100, 10, 1);
        assert_eq!(folds.len(), 10);
        let mut seen = [false; 100];
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 100);
            for &i in val {
                assert!(!seen[i], "sample {i} in two validation folds");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn kfold_handles_uneven_sizes() {
        let folds = kfold(10, 3, 1);
        let sizes: Vec<usize> = folds.iter().map(|(_, v)| v.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    #[should_panic(expected = "k-fold needs k >= 2, got k = 1")]
    fn kfold_rejects_k_one() {
        kfold(10, 1, 0);
    }

    #[test]
    fn impossible_requests_panic_with_their_reason() {
        let reason = |f: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            payload
                .downcast::<String>()
                .map(|s| *s)
                .unwrap_or_else(|p| {
                    p.downcast::<&str>()
                        .map(|s| s.to_string())
                        .expect("a text payload")
                })
        };
        assert_eq!(
            reason(&|| {
                kfold(3, 5, 0);
            }),
            "k-fold needs at least k samples, got n = 3 < k = 5"
        );
        let d = toy(4);
        assert_eq!(
            reason(&|| {
                grid_search(&d, 10, 0, &[1e-3], |&a| lasso(a), &Collector::new());
            }),
            "k-fold needs at least k samples, got n = 4 < k = 10"
        );
        let empty: [f64; 0] = [];
        assert_eq!(
            reason(&|| {
                grid_search(&d, 2, 0, &empty, |&a| lasso(a), &Collector::new());
            }),
            "grid search over an empty parameter grid"
        );
    }

    #[test]
    fn cv_score_near_zero_on_learnable_data() {
        let d = toy(60);
        let score = cross_val_mae(&d, 5, 1, || lasso(1e-5), &Collector::new());
        assert!(score < 0.5, "cv mae = {score}");
    }

    #[test]
    fn parallel_cv_is_bitwise_deterministic() {
        let d = toy(64);
        let make = || lasso(1e-3);
        let first = cross_val_mae(&d, 8, 7, make, &Collector::new());
        // Fold scores are reduced in fold order, so repeated parallel runs
        // and a serial loop over the folds agree to the last bit.
        for _ in 0..3 {
            let again = cross_val_mae(&d, 8, 7, make, &Collector::new());
            assert_eq!(first.to_bits(), again.to_bits());
        }
        let serial: f64 = kfold(d.len(), 8, 7)
            .iter()
            .map(|(train, val)| fold_mae(&d, train, val, &make))
            .sum();
        assert_eq!(first.to_bits(), (serial / 8.0).to_bits());
    }

    #[test]
    fn cross_val_counts_folds_and_records_one_span_each() {
        let d = toy(64);
        let obs = Collector::new();
        let score = cross_val_mae(&d, 8, 7, || lasso(1e-3), &obs);
        let rec = obs.finish();
        assert_eq!(rec.metrics.counters["cv.folds"], 8);
        assert_eq!(rec.metrics.histograms["cv.fold.wall_ms"].count(), 8);
        let maes = &rec.metrics.histograms["cv.fold.mae"];
        assert_eq!(maes.count(), 8);
        assert!((maes.sum() / 8.0 - score).abs() < 1e-12);
        assert_eq!(rec.events.len(), 8, "one cv.fold span per fold");
        assert!(rec.events.iter().all(|e| e.name == "cv.fold"));
    }

    #[test]
    fn observed_grid_search_records_progress_and_winner() {
        let d = toy(60);
        let alphas = [1e3, 1e-4];
        let obs = Collector::new();
        let (best, score) = grid_search(&d, 5, 1, &alphas, |&a| lasso(a), &obs);
        let winner = cross_val_mae(&d, 5, 1, || lasso(alphas[best]), &Collector::new());
        assert_eq!(score.to_bits(), winner.to_bits());
        let rec = obs.finish();
        assert_eq!(rec.metrics.counters["cv.grid.points"], 2);
        assert_eq!(rec.metrics.counters["cv.folds"], 10);
        assert_eq!(rec.metrics.gauges["cv.grid.best_index"], best as f64);
        assert_eq!(
            rec.metrics.gauges["cv.grid.best_mae"].to_bits(),
            score.to_bits()
        );
        let points = rec.events.iter().filter(|e| e.name == "cv.grid.point");
        assert_eq!(points.count(), 2, "one cv.grid.point span per point");
    }

    #[test]
    fn grid_search_ties_resolve_to_lowest_index() {
        let d = toy(30);
        // Identical parameters → identical scores; strict `<` keeps index 0.
        let alphas = [1e-3, 1e-3, 1e-3];
        let (best, _) = grid_search(&d, 3, 1, &alphas, |&a| lasso(a), &Collector::new());
        assert_eq!(best, 0);
    }

    #[test]
    fn grid_search_prefers_lower_alpha_on_clean_data() {
        let d = toy(60);
        let alphas = [1e3, 1e-4];
        let (best, score) = grid_search(&d, 5, 1, &alphas, |&a| lasso(a), &Collector::new());
        assert_eq!(best, 1, "small alpha wins on noiseless linear data");
        assert!(score < 1.0);
    }
}
