//! Serving conformance harness for `congestd`: pins the scale-out layer
//! (request coalescing, the digest-keyed feature cache, the event-loop
//! front-end) to the per-request serving semantics it must not change.
//!
//! The conformance contract:
//!
//! * **Coalescing is invisible** — for a fixed request set, the replies
//!   produced under any micro-batch configuration (row budget, linger
//!   window, worker count) are **bitwise identical** to per-request
//!   serving. This holds by construction (the compiled ensemble
//!   accumulates per row in tree order regardless of batch shape) and is
//!   pinned here by brute-force comparison across the config matrix.
//! * **The batch partition is a pure function** of the queue contents at
//!   drain time and the row budget — [`coalesce_plan`] is the reference
//!   model the live drain must match.
//! * **Shedding is untouched by batching** — admission decides the shed
//!   set at push time ([`shed_plan`]), so the same arrival trace sheds
//!   the same ids whatever the drain-side batch budget.
//! * **The cache never time-travels** — a `source` reply is never built
//!   from features extracted before the most recent model swap, under
//!   arbitrary source/swap interleavings, and the `serve.cache.*`
//!   accounting always balances (`hits + misses == lookups`).
//! * **The wire adds nothing** — the readiness-polled event loop answers a
//!   pipelined request stream with reply frames byte-identical to the
//!   serialized replies of in-process [`Server::call`]s.

use fpga_hls_congestion::mlkit::CompiledEnsemble;
use fpga_hls_congestion::servekit::{
    coalesce_plan, read_frame, serve_event_loop, shed_plan, write_frame, ModelArtifact, Reply,
    ReplyStatus, Request, RequestBody, ServeConfig, Server, SourceExtractor, TraceStep, WorkGate,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
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
/// lands on a distinct sum of leaf values.
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
    ModelArtifact {
        name: "gbrt".into(),
        version,
        feature_count: FEATURES,
        trained_on: "conformance-test".into(),
        vertical: mk(1.0),
        horizontal: mk(0.5),
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
        r.vertical.iter().map(|v| v.to_bits()).collect(),
        r.horizontal.iter().map(|v| v.to_bits()).collect(),
        r.lines.clone(),
    )
}

/// Pile `reqs` up behind a closed [`WorkGate`], open it, and collect every
/// reply in id order — so every run drains an identical queue and the
/// batch budget is the only variable.
fn gated_run(
    reqs: &[Request],
    batch_max_rows: usize,
    batch_max_wait_ms: u64,
    workers: usize,
) -> (Vec<Reply>, u64, u64) {
    let gate = Arc::new(WorkGate::closed());
    let mut cfg = ServeConfig {
        queue_capacity: reqs.len().max(8),
        workers,
        batch_max_rows,
        batch_max_wait: Duration::from_millis(batch_max_wait_ms),
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
    let (baseline, base_batches, _) = gated_run(&reqs, 1, 0, 1);
    assert_eq!(base_batches, 0, "budget 1 must never coalesce");
    assert!(baseline.iter().all(|r| r.status == ReplyStatus::Ok));
    let baseline_bits: Vec<_> = baseline.iter().map(reply_bits).collect();
    let mut coalesced_somewhere = false;
    for &budget in &[1usize, 64, 4096] {
        for &wait_ms in &[0u64, 5] {
            for &workers in &[1usize, 2, 4, 8] {
                let (replies, batches, _) = gated_run(&reqs, budget, wait_ms, workers);
                coalesced_somewhere |= batches > 0;
                let bits: Vec<_> = replies.iter().map(reply_bits).collect();
                assert_eq!(
                    bits, baseline_bits,
                    "replies diverged at budget={budget} wait={wait_ms}ms workers={workers}"
                );
            }
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
        let (replies, batches, coalesced) = gated_run(&reqs, budget, 0, 1);
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

    /// Arbitrary source/swap interleavings: a reply must never be built
    /// from a cache entry that predates the latest swap, and the cache
    /// accounting must balance exactly.
    ///
    /// The extractor stamps every extraction with a monotone epoch that
    /// is bumped immediately before each swap, and reports it through
    /// `reply.lines` — so a stale (pre-swap) cache entry is directly
    /// visible as an old epoch on the wire.
    #[test]
    fn cache_never_serves_pre_swap_entries(ops in prop::collection::vec(0u8..8, 1..24)) {
        let dir = scratch("proptest");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let epoch = Arc::new(AtomicU64::new(1));
        let extractor_epoch = epoch.clone();
        let extractor: Arc<SourceExtractor> = Arc::new(move |name: &str, _text: &str| {
            let e = extractor_epoch.load(Ordering::SeqCst);
            let d = name.len() as u64; // design-dependent row count
            let rows: Vec<Vec<f64>> = (0..2 + d % 2)
                .map(|r| (0..FEATURES).map(|c| (r * 7 + c as u64 + d) as f64 % 10.0).collect())
                .collect();
            let lines = vec![e as u32; rows.len()];
            Ok((rows, lines))
        });
        let mut cfg = ServeConfig { workers: 1, ..Default::default() };
        cfg.gate.expected_features = FEATURES;
        let (server, report) =
            Server::start(cfg, Some(artifact(1)), Some(extractor)).expect("start");
        prop_assert!(report.install_error.is_none(), "{report:?}");

        let mut version = 1u64;
        let mut active = artifact(1).display_name();
        // Designs extracted since the last swap (they must now hit).
        let mut warm: BTreeSet<u64> = BTreeSet::new();
        let mut source_ops = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let id = i as u64 + 10;
            if *op < 6 {
                let d = u64::from(*op % 3);
                let reply = server.call(Request {
                    id,
                    deadline_ms: None,
                    body: RequestBody::Source {
                        name: format!("design-{d}"),
                        text: format!("// design {d}"),
                    },
                });
                source_ops += 1;
                prop_assert_eq!(reply.status, ReplyStatus::Ok, "{:?}", reply);
                prop_assert_eq!(&reply.model, &active, "{:?}", reply);
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
                active = v.display_name();
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
    let (tx, rx) = mpsc::channel();
    let net = {
        let server = server.clone();
        std::thread::spawn(move || {
            serve_event_loop(server, "127.0.0.1:0", move |a| tx.send(a).unwrap()).expect("serve");
        })
    };
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("bound");
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
