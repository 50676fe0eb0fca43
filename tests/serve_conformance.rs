//! Serving conformance harness for `congestd`: pins the scale-out layer
//! (request coalescing, the digest-keyed reply cache, the event-loop
//! front-end) to the per-request serving semantics it must not change.
//!
//! The conformance contract:
//!
//! * **Coalescing is invisible** — for a fixed request set, the replies
//!   produced under any micro-batch configuration (row budget, worker
//!   count) are **bitwise identical** to per-request
//!   serving. This holds by construction (the compiled ensemble
//!   accumulates per row in tree order regardless of batch shape) and is
//!   pinned here by brute-force comparison across the config matrix.
//! * **The batch partition is a pure function** of the queue contents at
//!   drain time and the row budget — [`coalesce_plan`] is the reference
//!   model the live drain must match.
//! * **Shedding is untouched by batching** — admission decides the shed
//!   set at push time ([`shed_plan`]), so the same arrival trace sheds
//!   the same ids whatever the drain-side batch budget.
//! * **The cache never time-travels** — a `source` reply is never an
//!   answer computed before the most recent model swap: under arbitrary
//!   source/swap interleavings its bits are the active model's prediction
//!   on the extracted rows, and the `serve.cache.*` accounting always
//!   balances (`hits + misses == lookups`).
//! * **The wire adds nothing** — the readiness-polled event loop answers a
//!   pipelined request stream with reply frames byte-identical to the
//!   serialized replies of in-process [`Server::call`]s, for `predict`
//!   and for `source` requests, whether a hit is answered at admission
//!   or by a worker. A `source` frame is written from a cache entry's
//!   stored text, so its reference is encoded from the reply's fields
//!   through a `json::Value` tree, not by the code under test.
//! * **`predict` and `congestd` agree** — for the same design and the
//!   same GBRT pair, `hls_congest predict`'s per-op predictions and lines
//!   are a `source` reply's, bit for bit and in order: both come from the
//!   one feature-extraction walk.

use fpga_hls_congestion::congestion_core::{extract_feature_rows, extract_source, FEATURE_COUNT};
use fpga_hls_congestion::mlkit::{CompiledEnsemble, Matrix};
use fpga_hls_congestion::obskit::json::Value;
use fpga_hls_congestion::prelude::{
    compile_named, compile_with_directives, CongestionFlow, CongestionPredictor, ModelKind, Target,
    TrainOptions,
};
use fpga_hls_congestion::rosetta_gen::{
    bnn, digit_recognition, optical_flow, rendering_3d, spam_filter, suite, Benchmark, Preset,
};
use fpga_hls_congestion::servekit::{
    coalesce_plan, read_frame, serve_event_loop, shed_plan, write_frame, ModelArtifact, Reply,
    ReplyStatus, Request, RequestBody, ServeConfig, Server, SourceExtractor, TraceStep, WorkGate,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const LEAF: u32 = u32::MAX;
const FEATURES: usize = 6;

/// A deterministic two-tree ensemble per target with fractional leaves:
/// tree 0 splits feature 0 at 3.0, tree 1 splits feature 1 at 4.5. Small
/// enough to run thousands of times, structured enough that every row
/// lands on a distinct sum of leaf values. The base value grows with the
/// version, so every version predicts differently.
fn artifact(version: u64) -> ModelArtifact {
    let nodes = vec![
        (0u32, 1, 2, 3.0),
        (LEAF, 0, 0, 10.25),
        (LEAF, 0, 0, 90.75),
        (1u32, 4, 5, 4.5),
        (LEAF, 0, 0, 0.125),
        (LEAF, 0, 0, 7.875),
    ];
    let mk = |base: f64| {
        CompiledEnsemble::from_raw(base, 1.0, vec![0, 3], nodes.clone(), FEATURES).unwrap()
    };
    let base = version as f64;
    ModelArtifact {
        name: "gbrt".into(),
        version,
        feature_count: FEATURES,
        trained_on: "conformance-test".into(),
        vertical: mk(base),
        horizontal: mk(base - 0.5),
    }
}

/// Deterministic feature rows: splitmix-style mix keyed by (request, row,
/// col), values in [0, 10) so both split branches are exercised.
fn rows_for(req: usize, n_rows: usize) -> Vec<Vec<f64>> {
    let mix = |a: u64, b: u64, c: u64| {
        let mut z = a
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(c.wrapping_mul(0x94d0_49bb_1331_11eb));
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 31;
        z
    };
    (0..n_rows)
        .map(|r| {
            (0..FEATURES)
                .map(|c| (mix(req as u64, r as u64, c as u64) % 1000) as f64 / 100.0)
                .collect()
        })
        .collect()
}

/// A fixed mixed-shape request set: row counts cycle 1, 2, 5, 1, 3, ...
fn fixed_request_set(n: usize) -> Vec<Request> {
    let shapes = [1usize, 2, 5, 1, 3];
    (0..n)
        .map(|i| Request::predict(i as u64, rows_for(i, shapes[i % shapes.len()])))
        .collect()
}

fn reply_bits(r: &Reply) -> (u64, ReplyStatus, Vec<u64>, Vec<u64>, Vec<u32>) {
    (
        r.id,
        r.status,
        bits(&r.vertical),
        bits(&r.horizontal),
        r.lines.clone(),
    )
}

/// Pile `reqs` up behind a closed [`WorkGate`], open it, and collect every
/// reply in id order — so every run drains an identical queue and the
/// batch budget is the only variable.
fn gated_run(reqs: &[Request], batch_max_rows: usize, workers: usize) -> (Vec<Reply>, u64, u64) {
    let gate = Arc::new(WorkGate::closed());
    let mut cfg = ServeConfig {
        queue_capacity: reqs.len().max(8),
        workers,
        batch_max_rows,
        pace_gate: Some(gate.clone()),
        ..Default::default()
    };
    cfg.gate.expected_features = FEATURES;
    let (server, report) = Server::start(cfg, Some(artifact(1)), None).expect("start");
    assert!(report.install_error.is_none(), "{report:?}");
    let rxs: Vec<_> = reqs.iter().map(|r| server.submit(r.clone())).collect();
    gate.open();
    let mut replies: Vec<Reply> = rxs
        .into_iter()
        .map(|rx| rx.recv().expect("reply"))
        .collect();
    let summary = server.shutdown();
    replies.sort_by_key(|r| r.id);
    (replies, summary.metrics.batches, summary.metrics.coalesced)
}

#[test]
fn coalesced_replies_are_bitwise_identical_across_batch_configs_and_workers() {
    let reqs = fixed_request_set(48);
    let (baseline, base_batches, _) = gated_run(&reqs, 1, 1);
    assert_eq!(base_batches, 0, "budget 1 must never coalesce");
    assert!(baseline.iter().all(|r| r.status == ReplyStatus::Ok));
    let baseline_bits: Vec<_> = baseline.iter().map(reply_bits).collect();
    let mut coalesced_somewhere = false;
    for &budget in &[1usize, 64, 4096] {
        for &workers in &[1usize, 2, 4, 8] {
            let (replies, batches, _) = gated_run(&reqs, budget, workers);
            coalesced_somewhere |= batches > 0;
            let bits: Vec<_> = replies.iter().map(reply_bits).collect();
            assert_eq!(
                bits, baseline_bits,
                "replies diverged at budget={budget} workers={workers}"
            );
        }
    }
    assert!(
        coalesced_somewhere,
        "the config matrix never actually formed a batch"
    );
}

#[test]
fn batch_partition_matches_coalesce_plan_for_a_piled_queue() {
    // Single-row requests, one worker: the drain partition over a fully
    // piled queue is exactly coalesce_plan(budget, all-ones).
    let n = 30usize;
    let reqs: Vec<Request> = (0..n)
        .map(|i| Request::predict(i as u64, rows_for(i, 1)))
        .collect();
    for &budget in &[2usize, 8, 64] {
        let (replies, batches, coalesced) = gated_run(&reqs, budget, 1);
        assert!(replies.iter().all(|r| r.status == ReplyStatus::Ok));
        let plan = coalesce_plan(budget, &vec![1usize; n]);
        let planned_batches = plan.iter().filter(|b| b.len() > 1).count() as u64;
        let planned_coalesced: u64 = plan
            .iter()
            .filter(|b| b.len() > 1)
            .map(|b| b.len() as u64)
            .sum();
        assert_eq!(batches, planned_batches, "budget={budget}");
        assert_eq!(coalesced, planned_coalesced, "budget={budget}");
    }
}

#[test]
fn shed_set_is_untouched_by_the_batch_budget() {
    // Admission sheds at push time, so the shed set for one burst is a
    // pure function of (trace, capacity) — whatever the drain-side batch
    // budget. shed_plan is the reference model.
    let capacity = 8usize;
    let n = 24usize;
    let trace = [TraceStep {
        arrivals: n as u64,
        drains: 0,
    }];
    let (_, planned_shed) = shed_plan(capacity, &trace);
    let planned: BTreeSet<u64> = planned_shed.into_iter().collect();
    assert!(!planned.is_empty(), "burst must overflow the queue");
    for &budget in &[1usize, 64] {
        let gate = Arc::new(WorkGate::closed());
        let mut cfg = ServeConfig {
            queue_capacity: capacity,
            workers: 1,
            batch_max_rows: budget,
            pace_gate: Some(gate.clone()),
            ..Default::default()
        };
        cfg.gate.expected_features = FEATURES;
        let (server, _) = Server::start(cfg, Some(artifact(1)), None).expect("start");
        let rxs: Vec<_> = (0..n)
            .map(|i| server.submit(Request::predict(i as u64, rows_for(i, 1))))
            .collect();
        gate.open();
        let mut shed = BTreeSet::new();
        for (id, rx) in rxs.into_iter().enumerate() {
            let reply = rx.recv().expect("reply");
            match reply.status {
                ReplyStatus::Overloaded => {
                    shed.insert(id as u64);
                }
                ReplyStatus::Ok => {}
                other => panic!("unexpected status {other:?} for id {id}"),
            }
        }
        server.shutdown();
        assert_eq!(shed, planned, "shed set diverged at budget={budget}");
    }
}

/// The feature rows the proptest's extractor returns for design `name`:
/// two or three rows with values in [0, 10), both depending on the name.
fn design_rows(name: &str) -> Matrix {
    let d: u64 = name.bytes().map(u64::from).sum();
    let rows: Vec<Vec<f64>> = (0..2 + d % 2)
        .map(|r| {
            (0..FEATURES)
                .map(|c| (r * 7 + c as u64 + d) as f64 % 10.0)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Unique scratch dir per call site (process-wide counter, cleaned by the
/// caller).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "serve_conformance_{tag}_{}_{n}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary source/swap interleavings: a reply must never carry an
    /// answer that predates the latest swap, and the cache accounting
    /// must balance exactly.
    ///
    /// Every version predicts differently, so each `source` reply's V/H
    /// bits must equal the active artifact's prediction on the extracted
    /// rows. The extractor also stamps every extraction with a monotone
    /// epoch that is bumped immediately before each swap, and reports it
    /// through `reply.lines` — so a stale (pre-swap) cache entry is
    /// directly visible as an old epoch on the wire.
    #[test]
    fn cache_never_serves_pre_swap_entries(ops in prop::collection::vec(0u8..8, 1..24)) {
        let dir = scratch("proptest");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let epoch = Arc::new(AtomicU64::new(1));
        let extractor_epoch = epoch.clone();
        let extractor: Arc<SourceExtractor> = Arc::new(move |name: &str, _text: &str| {
            let e = extractor_epoch.load(Ordering::SeqCst);
            let rows = design_rows(name);
            let lines = vec![e as u32; rows.rows()];
            Ok((rows, lines))
        });
        let mut cfg = ServeConfig { workers: 1, ..Default::default() };
        cfg.gate.expected_features = FEATURES;
        let (server, report) =
            Server::start(cfg, Some(artifact(1)), Some(extractor)).expect("start");
        prop_assert!(report.install_error.is_none(), "{report:?}");

        let mut version = 1u64;
        let mut active = artifact(1);
        // Designs extracted since the last swap (they must now hit).
        let mut warm: BTreeSet<u64> = BTreeSet::new();
        let mut source_ops = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let id = i as u64 + 10;
            if *op < 6 {
                let d = u64::from(*op % 3);
                let name = format!("design-{d}");
                let reply = server.call(Request {
                    id,
                    deadline_ms: None,
                    body: RequestBody::Source {
                        name: name.clone(),
                        text: format!("// design {d}"),
                    },
                });
                source_ops += 1;
                prop_assert_eq!(reply.status, ReplyStatus::Ok, "{:?}", reply);
                prop_assert_eq!(&reply.model, &active.display_name(), "{:?}", reply);
                // The bits are the active model's on this design's rows.
                let rows = design_rows(&name);
                let mut v = vec![0.0; rows.rows()];
                let mut h = vec![0.0; rows.rows()];
                active.vertical.predict_into(&rows, &mut v);
                active.horizontal.predict_into(&rows, &mut h);
                prop_assert_eq!(bits(&reply.vertical), bits(&v), "{:?}", reply);
                prop_assert_eq!(bits(&reply.horizontal), bits(&h), "{:?}", reply);
                // The epoch stamped on the reply is the current one: the
                // features were extracted after the latest swap.
                let current = epoch.load(Ordering::SeqCst) as u32;
                prop_assert!(
                    reply.lines.iter().all(|&l| l == current),
                    "stale cache entry served: lines {:?}, epoch {}", reply.lines, current
                );
                let expect = if warm.contains(&d) { "hit" } else { "miss" };
                prop_assert_eq!(
                    reply.info.get("cache").map(String::as_str),
                    Some(expect),
                    "design {} warm={:?}", d, warm
                );
                warm.insert(d);
            } else {
                // Swap: bump the epoch first, then install. The worker is
                // idle between calls, so no extraction straddles the bump.
                epoch.fetch_add(1, Ordering::SeqCst);
                version += 1;
                let v = artifact(version);
                let path = dir.join(format!("v{version}.json"));
                v.save(&path).expect("save artifact");
                let reply = server.call(Request {
                    id,
                    deadline_ms: None,
                    body: RequestBody::Swap { path: path.to_string_lossy().into_owned() },
                });
                prop_assert_eq!(reply.status, ReplyStatus::Ok, "{:?}", reply);
                active = v;
                warm.clear();
            }
        }
        let stats = server.cache_stats();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(stats.hits + stats.misses, stats.lookups, "{:?}", stats);
        prop_assert_eq!(stats.lookups, source_ops, "{:?}", stats);
    }
}

/// Send `frames` over one connection to the event loop, pipelined (all
/// writes before any read), and return the reply frames in arrival order.
fn roundtrip(addr: std::net::SocketAddr, frames: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for f in frames {
        write_frame(&mut stream, f).expect("write frame");
    }
    (0..frames.len())
        .map(|_| {
            read_frame(&mut stream)
                .expect("read frame")
                .expect("reply frame")
        })
        .collect()
}

#[test]
fn event_loop_reply_frames_match_in_process_calls() {
    let reqs = fixed_request_set(12);
    let frames: Vec<String> = reqs.iter().map(Request::to_json).collect();
    let start = || {
        let mut cfg = ServeConfig {
            queue_capacity: 64,
            workers: 2,
            ..Default::default()
        };
        cfg.gate.expected_features = FEATURES;
        let (server, _) = Server::start(cfg, Some(artifact(1)), None).expect("start");
        Arc::new(server)
    };

    // Reference: the same requests answered in process, one call at a time.
    let server = start();
    let in_process: Vec<String> = reqs
        .iter()
        .map(|r| server.call(r.clone()).to_json())
        .collect();
    server.shutdown();

    let server = start();
    let (addr, net) = spawn_loop(&server);
    let wire = roundtrip(addr, &frames);
    server.shutdown();
    net.join().expect("front-end thread");

    for json in &wire {
        let reply = Reply::from_json(json).expect("decode reply");
        assert_eq!(reply.status, ReplyStatus::Ok, "{reply:?}");
    }
    assert_eq!(
        wire, in_process,
        "event-loop reply frames diverged from in-process replies"
    );
}

/// `rounds` passes over `designs`, ids from 1: the first pass misses,
/// every later pass hits.
fn source_requests(designs: &[&str], rounds: u64) -> Vec<Request> {
    let n = designs.len() as u64;
    (0..rounds * n)
        .map(|i| source_request(i + 1, designs[(i % n) as usize]))
        .collect()
}

fn source_request(id: u64, name: &str) -> Request {
    Request {
        id,
        deadline_ms: None,
        body: RequestBody::Source {
            name: name.into(),
            text: format!("// {name}"),
        },
    }
}

/// One worker (so a pipelined stream drains in order), an extractor over
/// [`design_rows`] that finds no ops in a design named `empty`, `gate`
/// pacing the worker's drains, and `model` active (none: every answer is
/// the analytic estimator's, `Degraded`).
fn start_source_server(gate: Option<Arc<WorkGate>>, model: Option<ModelArtifact>) -> Arc<Server> {
    let extractor: Arc<SourceExtractor> = Arc::new(|name: &str, _text: &str| {
        let rows = if name == "empty" {
            Matrix::with_cols(FEATURES)
        } else {
            design_rows(name)
        };
        let lines = (1..=rows.rows() as u32).collect();
        Ok((rows, lines))
    });
    let mut cfg = ServeConfig {
        workers: 1,
        pace_gate: gate,
        ..Default::default()
    };
    cfg.gate.expected_features = FEATURES;
    let (server, report) = Server::start(cfg, model, Some(extractor)).expect("start");
    assert!(report.install_error.is_none(), "{report:?}");
    Arc::new(server)
}

/// Run the event loop for `server` on a thread; returns its address.
fn spawn_loop(server: &Arc<Server>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let server = server.clone();
    let net = std::thread::spawn(move || {
        serve_event_loop(server, "127.0.0.1:0", move |a| tx.send(a).unwrap()).expect("serve");
    });
    (
        rx.recv_timeout(Duration::from_secs(10)).expect("bound"),
        net,
    )
}

/// A reply's wire JSON, encoded from its fields through a sorted
/// `json::Value` tree: the reference for frames that the daemon writes
/// from a cache entry's stored text.
fn tree_json(r: &Reply) -> String {
    let mut o = BTreeMap::new();
    o.insert("id".to_string(), Value::Num(r.id as f64));
    o.insert("status".into(), Value::Str(r.status.name().into()));
    o.insert(
        "degraded".into(),
        Value::Bool(r.status == ReplyStatus::Degraded),
    );
    if !r.model.is_empty() {
        o.insert("model".into(), Value::Str(r.model.clone()));
    }
    let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
    if !r.vertical.is_empty() || !r.horizontal.is_empty() {
        o.insert("vertical".into(), nums(&r.vertical));
        o.insert("horizontal".into(), nums(&r.horizontal));
    }
    if !r.lines.is_empty() {
        let lines = r.lines.iter().map(|&l| Value::Num(f64::from(l))).collect();
        o.insert("lines".into(), Value::Arr(lines));
    }
    if let Some(e) = &r.error {
        o.insert("error".into(), Value::Str(e.clone()));
    }
    if !r.info.is_empty() {
        let info = r
            .info
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())));
        o.insert("info".into(), Value::Obj(info.collect()));
    }
    Value::Obj(o).to_json()
}

/// Every `source` frame the event loop writes, misses and hits alike, is
/// the reply `Server::call` returns for the request, encoded from that
/// reply's fields: answered by the active model (`Ok`) or with none
/// (`Degraded`), for a design with ops and one without.
#[test]
fn event_loop_source_reply_frames_match_in_process_calls() {
    let designs = ["design-0", "design-1", "empty", "design-2"];
    for (model, status) in [
        (Some(artifact(1)), ReplyStatus::Ok),
        (None, ReplyStatus::Degraded),
    ] {
        let reqs = source_requests(&designs, 4);
        let frames: Vec<String> = reqs.iter().map(Request::to_json).collect();

        // Reference: the same requests answered in process, one call at a
        // time, and encoded from their fields.
        let server = start_source_server(None, model.clone());
        let in_process: Vec<Reply> = reqs.iter().map(|r| server.call(r.clone())).collect();
        // In process the id is any u64; a hit echoes it and carries the
        // answer every hit on its design carries.
        let hit_on_1 = &in_process[1 + designs.len()];
        for id in [0, (1 << 53) - 1, 1 << 53, u64::MAX] {
            let hit = server.call(source_request(id, "design-1"));
            assert_eq!(hit.id, id);
            assert_eq!(
                Reply {
                    id: hit_on_1.id,
                    ..hit
                },
                *hit_on_1
            );
        }
        server.shutdown();
        for (i, reply) in in_process.iter().enumerate() {
            let cache = if i < designs.len() { "miss" } else { "hit" };
            assert_eq!(reply.info.get("cache").map(String::as_str), Some(cache));
            assert_eq!(reply.status, status, "{reply:?}");
            let ops = reply.vertical.len().max(reply.lines.len());
            assert_eq!(ops == 0, designs[i % designs.len()] == "empty", "{reply:?}");
        }
        let want: Vec<String> = in_process.iter().map(tree_json).collect();
        let encoded: Vec<String> = in_process.iter().map(Reply::to_json).collect();
        assert_eq!(
            encoded, want,
            "Reply::to_json diverged from the tree encoding"
        );

        // Pipelined on one connection: the hits queued behind a miss are
        // answered by the worker in their turn.
        let server = start_source_server(None, model.clone());
        let (addr, net) = spawn_loop(&server);
        let pipelined = roundtrip(addr, &frames);
        server.shutdown();
        net.join().expect("front-end thread");
        assert_eq!(
            pipelined, want,
            "pipelined source frames diverged from in-process replies"
        );

        // One at a time, with the only worker granted one drain per miss:
        // a hit that was not answered at admission would never be
        // answered.
        let gate = Arc::new(WorkGate::closed());
        let server = start_source_server(Some(gate.clone()), model);
        let (addr, net) = spawn_loop(&server);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let one_at_a_time: Vec<String> = frames
            .iter()
            .zip(&want)
            .map(|(frame, want)| {
                if want.contains("\"cache\":\"miss\"") {
                    gate.release(1);
                }
                write_frame(&mut stream, frame).expect("write frame");
                read_frame(&mut stream)
                    .expect("a hit is answered without a worker")
                    .expect("reply frame")
            })
            .collect();
        server.shutdown();
        net.join().expect("front-end thread");
        assert_eq!(
            one_at_a_time, want,
            "admission-answered hit frames diverged from in-process replies"
        );
    }
}

/// The six Rosetta kernels in `preset`.
fn rosetta_kernels(preset: Preset) -> Vec<Benchmark> {
    vec![
        suite::face_detection_group(preset),
        digit_recognition::benchmark(preset),
        spam_filter::benchmark(preset),
        bnn::benchmark(preset),
        rendering_3d::benchmark(preset),
        optical_flow::benchmark(preset),
    ]
}

/// On the twelve Rosetta kernel/preset designs, `predict_design`'s
/// per-op predictions and lines are, bit for bit and in order, the
/// `source` replies of a server answering with the same GBRT pair as a
/// model artifact. Plain designs are served by `extract_source`, the
/// binary's extractor. A `source` request carries text only, so an
/// Optimized design is served by an extractor that compiles it under
/// its directive overlay, as `predict` compiles it here.
#[test]
fn predict_design_and_source_replies_agree_bitwise() {
    let plain = rosetta_kernels(Preset::Plain);
    let optimized = rosetta_kernels(Preset::Optimized);
    let modules: Vec<_> = plain.iter().map(|b| b.build().expect("builds")).collect();
    let dataset = CongestionFlow::fast()
        .build_dataset(&modules)
        .expect("Plain Rosetta dataset builds");
    let fit = |target| {
        CongestionPredictor::train(ModelKind::Gbrt, target, &dataset, &TrainOptions::fast())
    };
    let (vertical, horizontal) = (fit(Target::Vertical), fit(Target::Horizontal));
    let artifact = ModelArtifact {
        name: "gbrt".into(),
        version: 1,
        feature_count: FEATURE_COUNT,
        trained_on: "parity".into(),
        vertical: vertical.compiled_ensemble().cloned().expect("a GBRT"),
        horizontal: horizontal.compiled_ensemble().cloned().expect("a GBRT"),
    };

    let overlays: BTreeMap<String, _> = optimized
        .iter()
        .map(|b| (b.name.clone(), b.directives.clone()))
        .collect();
    let extractor: Arc<SourceExtractor> = Arc::new(move |name: &str, text: &str| {
        let Some(overlay) = overlays.get(name) else {
            return extract_source(name, text);
        };
        let module = compile_with_directives(text, name, overlay).map_err(|e| e.to_string())?;
        let flow = CongestionFlow::new();
        let design = flow.synthesize(&module).map_err(|e| e.to_string())?;
        Ok(extract_feature_rows(&design, &flow.device))
    });
    let mut cfg = ServeConfig::default();
    cfg.gate.expected_features = FEATURE_COUNT;
    let (server, report) =
        Server::start(cfg, Some(artifact), Some(extractor)).expect("server starts");
    assert!(report.install_error.is_none(), "{report:?}");

    // `predict` compiles each design as the server's extractor does.
    let modules = plain
        .iter()
        .map(|b| (b, compile_named(&b.source, &b.name)))
        .chain(optimized.iter().map(|b| (b, b.build())));
    let flow = CongestionFlow::new();
    for (id, (b, module)) in (1..).zip(modules) {
        let design = flow
            .synthesize(&module.expect("compiles"))
            .expect("synthesizes");
        let v = vertical.predict_design(&design, &flow.device);
        let h = horizontal.predict_design(&design, &flow.device);
        let reply = server.call(Request {
            id,
            deadline_ms: None,
            body: RequestBody::Source {
                name: b.name.clone(),
                text: b.source.clone(),
            },
        });
        assert_eq!(
            reply.status,
            ReplyStatus::Ok,
            "{}: {:?}",
            b.name,
            reply.error
        );
        assert!(!v.is_empty(), "{} has ops", b.name);
        let v_bits: Vec<u64> = v.iter().map(|p| p.predicted.to_bits()).collect();
        let h_bits: Vec<u64> = h.iter().map(|p| p.predicted.to_bits()).collect();
        assert_eq!(bits(&reply.vertical), v_bits, "{}", b.name);
        assert_eq!(bits(&reply.horizontal), h_bits, "{}", b.name);
        let lines: Vec<u32> = v.iter().map(|p| p.line).collect();
        assert_eq!(reply.lines, lines, "{}", b.name);
    }
    server.shutdown();
}
