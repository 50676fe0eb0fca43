//! `congestd` serving benchmark: in-process load generation against the
//! real [`servekit::Server`]. Produces the rows recorded in
//! `BENCH_serve.json`.
//!
//! Four phases:
//!
//! 1. **Throughput** — a burst of batched predict requests against an
//!    unconstrained queue; reports p50/p99 request latency (from the
//!    server's own DDSketch) and predictions/second.
//! 2. **Coalescing** — the same saturated burst of single-row requests
//!    drained in `COALESCE_PAIRS` pairs, once with micro-batch
//!    coalescing off (`batch_max_rows=1`) and once on, alternating which
//!    side drains first. Workers are held on a [`WorkGate`] until every
//!    request is queued, so every run drains an identical queue; the
//!    phase reports the per-request vs merged `predict_into` throughput
//!    ratio of the pair with the median ratio, so one slow host phase
//!    cannot decide it, and asserts that every drain's replies are
//!    **bitwise identical**. This phase serves a
//!    deliberately light ensemble: coalescing amortizes *dispatch*
//!    overhead (supervision, registry lock, metrics, reply channel), so
//!    the model must not be so heavy that predict compute — identical
//!    per row in both runs — drowns the quantity under test.
//! 3. **Reply cache** — repeated `source` requests over a small design
//!    set, then a hot swap: reports `serve.cache.*` hit/miss accounting,
//!    the swap-invalidation count, and pins hit replies bit-for-bit to
//!    their miss-path twins.
//! 4. **2× overload** — a virtual-clock trace player: arrivals and drains
//!    alternate in lockstep (two arrivals per released drain permit, no
//!    wall-clock sleeps), so the shed set reproduces
//!    [`servekit::shed_plan`] *exactly* and the recorded shed rate is a
//!    pure function of (trace, queue capacity) — it cannot flake on a
//!    slow runner. Every submitted request must still receive exactly one
//!    typed reply (`ok` or `overloaded`, never a stall).
//!
//! The model under test is a real GBRT ensemble fitted on a synthetic
//! 302-wide dataset, so the predict path exercises the compiled flat-node
//! inference kernel, not a stub.

use crate::designs::Effort;
use mlkit::{GbrtOptions, GbrtRegressor, Matrix, Regressor};
use servekit::{
    coalesce_plan, shed_plan, ModelArtifact, Reply, ReplyStatus, Request, RequestBody, ServeConfig,
    Server, SourceExtractor, TraceStep, WorkGate,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Results of the virtual-clock 2× overload phase.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadRun {
    /// Requests submitted by the trace player.
    pub submitted: usize,
    /// `overloaded` replies (shed-oldest victims).
    pub shed: usize,
    /// `ok` replies.
    pub ok: usize,
    /// Any other typed reply (degraded / deadline / error).
    pub other: usize,
    /// Trace steps played (two arrivals, one drain each).
    pub steps: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// True when the live shed id set equals `shed_plan(capacity, trace)`.
    pub matches_plan: bool,
}

impl OverloadRun {
    /// Fraction of the offered load that was shed.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.shed as f64 / self.submitted as f64
    }

    /// True when every submitted request received exactly one typed reply.
    pub fn every_request_answered(&self) -> bool {
        self.shed + self.ok + self.other == self.submitted
    }
}

/// Results of the coalescing comparison phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalesceRun {
    /// Single-row requests drained per run.
    pub requests: usize,
    /// Row budget per micro-batch in the batched run.
    pub batch_budget_rows: usize,
    /// Multi-request batches each batched run formed.
    pub batches_formed: u64,
    /// Drain throughput with coalescing off in the median pair,
    /// predictions/second.
    pub unbatched_pps: f64,
    /// Drain throughput with coalescing on in the median pair,
    /// predictions/second.
    pub batched_pps: f64,
    /// True when every drain's replies are bit-for-bit the first
    /// unbatched drain's.
    pub identical: bool,
}

impl CoalesceRun {
    /// Batched over unbatched throughput.
    pub fn speedup(&self) -> f64 {
        if self.unbatched_pps <= 0.0 {
            return 0.0;
        }
        self.batched_pps / self.unbatched_pps
    }
}

/// Results of the reply-cache phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRun {
    /// Distinct designs in the request mix.
    pub designs: usize,
    /// `source` requests issued (pre-swap).
    pub requests: usize,
    /// `serve.cache.*` counters at shutdown.
    pub lookups: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Entries dropped by the hot swap.
    pub invalidations: u64,
    /// True when hit replies matched their miss-path twins bit-for-bit.
    pub identical: bool,
}

impl CacheRun {
    /// Hits over lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }
}

/// The full serve-bench result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBench {
    /// Throughput-phase request count.
    pub requests: usize,
    /// Feature rows per predict request.
    pub batch_rows: usize,
    /// Feature columns (the paper's 302).
    pub features: usize,
    /// Boosting stages per target ensemble.
    pub trees: usize,
    /// Median request latency, milliseconds (server-side sketch).
    pub p50_ms: f64,
    /// Tail request latency, milliseconds.
    pub p99_ms: f64,
    /// Throughput-phase wall clock, milliseconds.
    pub wall_ms: f64,
    /// Per-op predictions per second ((requests × batch) / wall).
    pub predictions_per_sec: f64,
    /// The coalescing comparison phase.
    pub coalesce: CoalesceRun,
    /// The reply-cache phase.
    pub cache: CacheRun,
    /// The overload phase.
    pub overload: OverloadRun,
}

/// Deterministic synthetic feature matrix + labels (no RNG dependency:
/// a splitmix-style integer mix keyed by (row, col)).
fn synthetic(rows: usize, cols: usize) -> (Matrix, Vec<f64>) {
    let mix = |a: u64, b: u64| {
        let mut z = a
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z ^= z >> 30;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        z
    };
    let mut x = Matrix::with_cols(cols);
    let mut y = Vec::with_capacity(rows);
    let mut row = vec![0.0f64; cols];
    for i in 0..rows {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = (mix(i as u64, j as u64) % 1000) as f64 / 100.0;
        }
        // Label mixes a linear term, an interaction, and a threshold —
        // enough structure that the GBRT grows real trees.
        y.push(3.0 * row[1] + 0.8 * row[5] * row[9] + if row[40] > 5.0 { 12.0 } else { 0.0 });
        x.push_row(&row);
    }
    (x, y)
}

fn fitted_artifact(train_rows: usize, cols: usize, trees: usize) -> ModelArtifact {
    let (x, y) = synthetic(train_rows, cols);
    let fit = |seed_shift: f64| {
        let shifted: Vec<f64> = y.iter().map(|v| v * seed_shift).collect();
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: trees,
            workers: 1,
            ..Default::default()
        });
        m.fit(&x, &shifted);
        m.compiled().clone()
    };
    ModelArtifact {
        name: "gbrt-bench".into(),
        version: 1,
        feature_count: cols,
        trained_on: "synthetic".into(),
        vertical: fit(1.0),
        horizontal: fit(0.5),
    }
}

fn reply_bits(r: &Reply) -> (u64, ReplyStatus, Vec<u64>, Vec<u64>) {
    (
        r.id,
        r.status,
        r.vertical.iter().map(|v| v.to_bits()).collect(),
        r.horizontal.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Drain `reqs` through a one-worker server whose drain is held on a
/// [`WorkGate`] until everything is queued, then measure wall time from
/// gate-open to last reply. Returns (predictions/sec, replies in id
/// order, multi-request batches formed).
fn gated_drain(
    artifact: &ModelArtifact,
    cols: usize,
    batch_max_rows: usize,
    reqs: &[Request],
) -> (f64, Vec<Reply>, u64) {
    let gate = Arc::new(WorkGate::closed());
    let mut cfg = ServeConfig {
        queue_capacity: reqs.len().max(8),
        workers: 1,
        batch_max_rows,
        pace_gate: Some(gate.clone()),
        ..Default::default()
    };
    cfg.gate.expected_features = cols;
    let (server, report) = Server::start(cfg, Some(artifact.clone()), None).expect("start drain");
    assert!(report.install_error.is_none(), "{report:?}");
    let rxs: Vec<_> = reqs.iter().map(|r| server.submit(r.clone())).collect();
    let started = Instant::now();
    gate.open();
    let mut replies: Vec<Reply> = rxs
        .into_iter()
        .map(|rx| rx.recv().expect("drain reply"))
        .collect();
    let wall = started.elapsed();
    let summary = server.shutdown();
    replies.sort_by_key(|r| r.id);
    let rows: usize = reqs
        .iter()
        .map(|r| match &r.body {
            RequestBody::Predict { rows } => rows.len(),
            _ => 0,
        })
        .sum();
    (
        rows as f64 / wall.as_secs_f64().max(1e-9),
        replies,
        summary.metrics.batches,
    )
}

/// Coalescing-off/on drain pairs per coalescing phase. Odd, so the median
/// speedup is one pair's.
const COALESCE_PAIRS: usize = 7;

/// Phase 2: identical saturated queues drained with coalescing off/on, in
/// `COALESCE_PAIRS` pairs; reports the pair with the median speedup.
fn coalesce_phase(artifact: &ModelArtifact, cols: usize, requests: usize) -> CoalesceRun {
    let budget = 256usize;
    let (x, _) = synthetic(requests, cols);
    let reqs: Vec<Request> = x
        .iter_rows()
        .enumerate()
        .map(|(i, row)| Request::predict(i as u64, vec![row.to_vec()]))
        .collect();
    // The whole queue is present at drain time, so the live partition is
    // the coalesce_plan partition: all-singleton weights, fixed budget.
    let plan = coalesce_plan(budget, &vec![1usize; requests]);
    let batches_formed = plan.iter().filter(|b| b.len() > 1).count() as u64;
    let drain = |batch_max_rows: usize| {
        let (pps, replies, batches) = gated_drain(artifact, cols, batch_max_rows, &reqs);
        let want = if batch_max_rows == 1 {
            0
        } else {
            batches_formed
        };
        assert_eq!(
            batches, want,
            "live batch partition must match coalesce_plan (budget {batch_max_rows})"
        );
        (pps, replies.iter().map(reply_bits).collect::<Vec<_>>())
    };
    let mut reference = None;
    let mut identical = true;
    let mut pairs = Vec::with_capacity(COALESCE_PAIRS);
    for pair in 0..COALESCE_PAIRS {
        let (off, on) = if pair % 2 == 0 {
            let off = drain(1);
            (off, drain(budget))
        } else {
            let on = drain(budget);
            (drain(1), on)
        };
        let reference = reference.get_or_insert_with(|| off.1.clone());
        identical &= off.1 == *reference && on.1 == *reference;
        pairs.push((off.0, on.0));
    }
    pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (unbatched_pps, batched_pps) = pairs[COALESCE_PAIRS / 2];
    CoalesceRun {
        requests,
        batch_budget_rows: budget,
        batches_formed,
        unbatched_pps,
        batched_pps,
        identical,
    }
}

/// Phase 3: repeated `source` requests + a hot swap. The extractor is a
/// synthetic stand-in (deterministic rows per design) — the cache sits in
/// front of it exactly as it would in front of MiniHLS extraction.
fn cache_phase(artifact: &ModelArtifact, cols: usize, designs: usize, requests: usize) -> CacheRun {
    let extractor: Arc<SourceExtractor> = Arc::new(move |name: &str, _text: &str| {
        // Rows keyed off the design name so every design answers
        // differently and a stale entry would be visible.
        let seed = name.bytes().map(u64::from).sum::<u64>() as usize;
        let (x, _) = synthetic(4 + seed % 3, cols);
        let lines = (1..=x.rows() as u32).collect();
        Ok((x, lines))
    });
    let mut cfg = ServeConfig {
        queue_capacity: requests.max(8),
        workers: 1,
        ..Default::default()
    };
    cfg.gate.expected_features = cols;
    let (server, _) = Server::start(cfg, Some(artifact.clone()), Some(extractor)).expect("start");
    let src = |id: u64, d: usize| Request {
        id,
        deadline_ms: None,
        body: RequestBody::Source {
            name: format!("design-{d}"),
            text: format!("// synthetic design {d}"),
        },
    };
    // Round-robin over the design set: first pass misses, rest hit.
    let mut first_reply: Vec<Option<Reply>> = vec![None; designs];
    let mut identical = true;
    for i in 0..requests {
        let d = i % designs;
        let reply = server.call(src(i as u64, d));
        assert_eq!(reply.status, ReplyStatus::Ok, "{reply:?}");
        match &first_reply[d] {
            None => first_reply[d] = Some(reply),
            Some(first) => {
                let (_, s, v, h) = reply_bits(&reply);
                let (_, fs, fv, fh) = reply_bits(first);
                identical &= s == fs && v == fv && h == fh;
            }
        }
    }
    // Hot swap: bumps the model epoch, must clear the cache.
    let dir = std::env::temp_dir().join(format!("serve-bench-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mut v2 = artifact.clone();
    v2.version = 2;
    let path = dir.join("v2.json");
    v2.save(&path).expect("save v2");
    let swap = server.call(Request {
        id: (requests + 1) as u64,
        deadline_ms: None,
        body: RequestBody::Swap {
            path: path.to_string_lossy().into_owned(),
        },
    });
    assert_eq!(swap.status, ReplyStatus::Ok, "{swap:?}");
    // Post-swap re-request: must re-extract (miss), answered by v2.
    let post = server.call(src((requests + 2) as u64, 0));
    assert_eq!(post.model, v2.display_name(), "{post:?}");
    assert_eq!(
        post.info.get("cache").map(String::as_str),
        Some("miss"),
        "swap must invalidate the cache"
    );
    let stats = server.cache_stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(stats.hits + stats.misses, stats.lookups, "{stats:?}");
    CacheRun {
        designs,
        requests,
        lookups: stats.lookups,
        hits: stats.hits,
        misses: stats.misses,
        invalidations: stats.invalidations,
        identical,
    }
}

/// Phase 4: the virtual-clock 2× overload player. Each step pushes two
/// arrivals (shed decided instantly at admission), then releases exactly
/// one drain permit and waits for that completion — completions, not
/// wall-clock sleeps, are the clock. The resulting shed set is
/// `shed_plan(capacity, trace)` verbatim.
fn overload_phase(artifact: &ModelArtifact, cols: usize, total: usize) -> OverloadRun {
    let queue_capacity = 8usize;
    let steps = total / 2;
    let gate = Arc::new(WorkGate::closed());
    let mut cfg = ServeConfig {
        queue_capacity,
        workers: 1,
        batch_max_rows: 1, // per-request drain: one permit, one pop
        pace_gate: Some(gate.clone()),
        ..Default::default()
    };
    cfg.gate.expected_features = cols;
    let (server, _) = Server::start(cfg, Some(artifact.clone()), None).expect("start overload");
    let (x, _) = synthetic(4, cols);
    let small_batch: Vec<Vec<f64>> = x.iter_rows().map(<[f64]>::to_vec).collect();
    let mut rxs = Vec::with_capacity(total);
    let mut drained = 0u64;
    for _ in 0..steps {
        for _ in 0..2 {
            let id = rxs.len() as u64;
            rxs.push(server.submit(Request::predict(id, small_batch.clone())));
        }
        gate.release(1);
        drained += 1;
        // Completion-paced, not time-paced: wait until the worker has
        // consumed the permit (the polling sleep only throttles the
        // metric reads; it cannot change the shed partition).
        while server
            .metrics()
            .counters
            .get("serve.completed")
            .copied()
            .unwrap_or(0)
            < drained
        {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    gate.open(); // shutdown drains the remainder
    let mut shed_ids = Vec::new();
    let mut overload = OverloadRun {
        submitted: total,
        shed: 0,
        ok: 0,
        other: 0,
        steps,
        queue_capacity,
        matches_plan: false,
    };
    for (id, rx) in rxs.into_iter().enumerate() {
        // An unanswered request fails every_request_answered below.
        if let Ok(reply) = rx.recv_timeout(Duration::from_secs(30)) {
            match reply.status {
                ReplyStatus::Overloaded => {
                    overload.shed += 1;
                    shed_ids.push(id as u64);
                }
                ReplyStatus::Ok => overload.ok += 1,
                _ => overload.other += 1,
            }
        }
    }
    server.shutdown();
    let trace = vec![
        TraceStep {
            arrivals: 2,
            drains: 1,
        };
        steps
    ];
    let (_, planned_shed) = shed_plan(queue_capacity, &trace);
    overload.matches_plan = shed_ids == planned_shed;
    overload
}

/// Run the serve benchmark at `effort`.
pub fn run(effort: Effort) -> ServeBench {
    let cols = congestion_core::features::FEATURE_COUNT;
    let (train_rows, trees, requests, batch_rows, coalesce_requests, overload_requests) =
        match effort {
            Effort::Full => (600, 120, 120, 64, 1024, 240),
            Effort::Fast => (150, 20, 24, 16, 128, 60),
        };
    let artifact = fitted_artifact(train_rows, cols, trees);
    let (batch_x, _) = synthetic(batch_rows, cols);
    let batch: Vec<Vec<f64>> = batch_x.iter_rows().map(<[f64]>::to_vec).collect();

    // Phase 1: throughput. Queue sized to the burst, two workers.
    let mut cfg = ServeConfig {
        queue_capacity: requests.max(8),
        workers: 2,
        ..Default::default()
    };
    cfg.gate.expected_features = cols;
    let (server, report) = Server::start(cfg, Some(artifact.clone()), None).expect("start");
    assert!(report.install_error.is_none(), "{report:?}");
    let started = Instant::now();
    let rxs: Vec<_> = (0..requests)
        .map(|i| server.submit(Request::predict(i as u64, batch.clone())))
        .collect();
    for rx in rxs {
        let reply = rx.recv().expect("throughput reply");
        assert_eq!(reply.status, ReplyStatus::Ok, "{reply:?}");
    }
    let wall = started.elapsed();
    let latency = server.shutdown().metrics.latency_ms;
    let (p50_ms, p99_ms) = (latency.quantile(0.50), latency.quantile(0.99));
    let predictions_per_sec = (requests * batch_rows) as f64 / wall.as_secs_f64().max(1e-9);

    // A light ensemble for the coalescing comparison — see the module
    // docs: the phase measures dispatch-overhead amortization, and both
    // runs pay the identical per-row predict cost regardless of size.
    let light = fitted_artifact(train_rows.min(200), cols, 8);
    let coalesce = coalesce_phase(&light, cols, coalesce_requests);
    let (cache_designs, cache_requests) = match effort {
        Effort::Full => (8, 64),
        Effort::Fast => (4, 16),
    };
    let cache = cache_phase(&artifact, cols, cache_designs, cache_requests);
    let overload = overload_phase(&artifact, cols, overload_requests);

    ServeBench {
        requests,
        batch_rows,
        features: cols,
        trees,
        p50_ms,
        p99_ms,
        wall_ms: wall.as_secs_f64() * 1e3,
        predictions_per_sec,
        coalesce,
        cache,
        overload,
    }
}

/// Flatten into the `obskit.metrics.v1` counter/gauge namespace.
pub fn to_metrics(b: &ServeBench) -> obskit::MetricsSnapshot {
    let mut reg = obskit::Registry::new();
    reg.inc("serve_bench.throughput.requests", b.requests as u64);
    reg.inc(
        "serve_bench.throughput.predictions",
        (b.requests * b.batch_rows) as u64,
    );
    reg.inc("serve_bench.model.features", b.features as u64);
    reg.inc("serve_bench.model.trees", b.trees as u64);
    reg.set_gauge("serve_bench.throughput.p50_ms", b.p50_ms);
    reg.set_gauge("serve_bench.throughput.p99_ms", b.p99_ms);
    reg.set_gauge("serve_bench.throughput.wall_ms", b.wall_ms);
    reg.set_gauge(
        "serve_bench.throughput.predictions_per_sec",
        b.predictions_per_sec,
    );
    reg.inc("serve_bench.coalesce.requests", b.coalesce.requests as u64);
    reg.inc(
        "serve_bench.coalesce.batch_budget_rows",
        b.coalesce.batch_budget_rows as u64,
    );
    reg.inc("serve_bench.coalesce.batches", b.coalesce.batches_formed);
    reg.inc(
        "serve_bench.coalesce.identical",
        u64::from(b.coalesce.identical),
    );
    reg.set_gauge(
        "serve_bench.coalesce.unbatched_pps",
        b.coalesce.unbatched_pps,
    );
    reg.set_gauge("serve_bench.coalesce.batched_pps", b.coalesce.batched_pps);
    reg.set_gauge("serve_bench.coalesce.speedup", b.coalesce.speedup());
    reg.inc("serve_bench.cache.designs", b.cache.designs as u64);
    reg.inc("serve_bench.cache.requests", b.cache.requests as u64);
    reg.inc("serve_bench.cache.lookups", b.cache.lookups);
    reg.inc("serve_bench.cache.hits", b.cache.hits);
    reg.inc("serve_bench.cache.misses", b.cache.misses);
    reg.inc("serve_bench.cache.invalidations", b.cache.invalidations);
    reg.inc("serve_bench.cache.identical", u64::from(b.cache.identical));
    reg.set_gauge("serve_bench.cache.hit_rate", b.cache.hit_rate());
    reg.inc(
        "serve_bench.overload.submitted",
        b.overload.submitted as u64,
    );
    reg.inc("serve_bench.overload.shed", b.overload.shed as u64);
    reg.inc("serve_bench.overload.ok", b.overload.ok as u64);
    reg.inc(
        "serve_bench.overload.answered",
        (b.overload.shed + b.overload.ok + b.overload.other) as u64,
    );
    reg.inc(
        "serve_bench.overload.every_request_answered",
        u64::from(b.overload.every_request_answered()),
    );
    reg.inc(
        "serve_bench.overload.matches_shed_plan",
        u64::from(b.overload.matches_plan),
    );
    reg.set_gauge("serve_bench.overload.shed_rate", b.overload.shed_rate());
    reg.inc("serve_bench.overload.steps", b.overload.steps as u64);
    reg.inc(
        "serve_bench.overload.queue_capacity",
        b.overload.queue_capacity as u64,
    );
    reg.into_snapshot()
}

/// Serialize through the canonical bench-artifact writer schema.
pub fn to_json(b: &ServeBench, effort: Effort) -> String {
    crate::artifact::bench_json("experiments serve-bench", effort, &to_metrics(b))
}

/// Human-readable report.
pub fn render(b: &ServeBench) -> String {
    let mut out = String::from("SERVE BENCH (congestd, in-process)\n");
    out.push_str(&format!(
        "  throughput: {} requests x {} rows ({} features, {} trees/target)\n",
        b.requests, b.batch_rows, b.features, b.trees
    ));
    out.push_str(&format!(
        "    p50 {:.2} ms | p99 {:.2} ms | {:.0} predictions/s ({:.0} ms wall)\n",
        b.p50_ms, b.p99_ms, b.predictions_per_sec, b.wall_ms
    ));
    out.push_str(&format!(
        "  coalescing: {} x 1-row requests, budget {} rows -> {:.0} pps batched vs {:.0} unbatched ({:.2}x, median of {} off/on pairs, bitwise-identical: {})\n",
        b.coalesce.requests,
        b.coalesce.batch_budget_rows,
        b.coalesce.batched_pps,
        b.coalesce.unbatched_pps,
        b.coalesce.speedup(),
        COALESCE_PAIRS,
        b.coalesce.identical,
    ));
    out.push_str(&format!(
        "  cache: {} designs x {} requests -> {}/{} hits ({:.0}% hit rate), {} invalidated on swap\n",
        b.cache.designs,
        b.cache.requests,
        b.cache.hits,
        b.cache.lookups,
        100.0 * b.cache.hit_rate(),
        b.cache.invalidations,
    ));
    out.push_str(&format!(
        "  2x overload (virtual clock): {} submitted over {} steps / {} queue -> {} ok, {} shed, {} other\n",
        b.overload.submitted,
        b.overload.steps,
        b.overload.queue_capacity,
        b.overload.ok,
        b.overload.shed,
        b.overload.other
    ));
    out.push_str(&format!(
        "    shed rate {:.2} | matches shed_plan: {} | every request answered: {}\n",
        b.overload.shed_rate(),
        b.overload.matches_plan,
        b.overload.every_request_answered()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_serve_bench_sheds_under_overload_and_answers_everything() {
        let b = run(Effort::Fast);
        assert!(b.predictions_per_sec > 0.0);
        assert!(b.p99_ms >= b.p50_ms);
        assert!(
            b.overload.every_request_answered(),
            "no request may be dropped without a typed reply: {:?}",
            b.overload
        );
        assert!(
            b.overload.shed > 0,
            "2x overload must shed: {:?}",
            b.overload
        );
        assert!(
            b.overload.matches_plan,
            "virtual-clock shed set must equal shed_plan: {:?}",
            b.overload
        );
        assert!(
            b.coalesce.identical,
            "batched replies must be bit-identical"
        );
        assert!(b.coalesce.batches_formed > 0);
        assert!(b.cache.identical, "cache-hit replies must be bit-identical");
        assert_eq!(b.cache.hits + b.cache.misses, b.cache.lookups);
        assert!(b.cache.hits > 0);
        let snap = to_metrics(&b);
        assert_eq!(
            snap.counters["serve_bench.overload.every_request_answered"],
            1
        );
        assert_eq!(snap.counters["serve_bench.overload.matches_shed_plan"], 1);
        assert_eq!(snap.counters["serve_bench.coalesce.identical"], 1);
        assert_eq!(snap.counters["serve_bench.cache.identical"], 1);
        let json = to_json(&b, Effort::Fast);
        assert!(json.contains("\"schema\": \"obskit.metrics.v1\""));
        assert!(json.contains("serve_bench.overload.shed_rate"));
        assert!(json.contains("serve_bench.coalesce.speedup"));
        assert!(json.contains("serve_bench.cache.hit_rate"));
    }
}
