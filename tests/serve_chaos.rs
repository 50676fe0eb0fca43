//! Chaos-engineering contract tests for `congestd` (the servekit daemon).
//!
//! The serving robustness contract under test:
//!
//! * **Typed replies, always** — under 2× overload with faults injected
//!   into the serve stages (panics, errors, delays), every submitted
//!   request receives exactly one typed reply; the daemon never dies and
//!   the final accounting balances (admitted = completed + shed).
//! * **Gate + rollback** — a corrupt or incompatible artifact never goes
//!   live: the swap is rejected, the reject *is* the rollback (the daemon
//!   keeps answering on the model it already trusts), and both are visible
//!   in the `serve.*` metrics and the journal.
//! * **Crash-only recovery** — SIGKILL the real `congestd` process and
//!   restart it on the same journal: the registry comes back on the last
//!   validated model, the journal carries a `recover` record, and no
//!   sequence number is ever duplicated.
//! * **Deterministic shedding** — the shed/served id partition is a pure
//!   function of the arrival/drain trace and the queue capacity,
//!   bit-identical across runs and worker counts ([`shed_plan`] is the
//!   reference model the live queue must match).

use fpga_hls_congestion::mlkit::CompiledEnsemble;
use fpga_hls_congestion::obskit::json::{self, Value};
use fpga_hls_congestion::servekit::{
    serve_stages, shed_plan, AdmissionQueue, FaultKind, FaultPlan, FaultRule, ModelArtifact, Reply,
    ReplyStatus, Request, RequestBody, ServeConfig, Server, TraceStep,
};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const LEAF: u32 = u32::MAX;

/// A tiny deterministic artifact: one stump per target splitting on
/// feature 0 at 3.0 (leaves 10/90), V base 1.0 / H base 0.5.
fn stump_artifact(version: u64, feature_count: usize) -> ModelArtifact {
    let nodes = vec![(0u32, 1, 2, 3.0), (LEAF, 0, 0, 10.0), (LEAF, 0, 0, 90.0)];
    let mk = |base: f64| {
        CompiledEnsemble::from_raw(base, 1.0, vec![0], nodes.clone(), feature_count).unwrap()
    };
    ModelArtifact {
        name: "gbrt".into(),
        version,
        feature_count,
        trained_on: "chaos-test".into(),
        vertical: mk(1.0),
        horizontal: mk(0.5),
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hls_congest_serve_{tag}_{}", std::process::id()))
}

#[test]
fn chaos_overload_every_request_gets_a_typed_reply() {
    // Panics, errors, and delays across the serve stages, against a
    // 4-deep queue fed a fast 2×-overload burst. Each stage runs once, so
    // every rule fires: one at a time, a predict error demotes v2 to v1
    // and a delayed predict answers on v1; then the burst's first
    // prediction panics and demotes v1, and the admission rule fails a
    // seeded quarter of the burst.
    let plan = FaultPlan::new(11)
        .with_rule(FaultRule::new(
            "req-1002",
            serve_stages::PREDICT,
            FaultKind::Error,
        ))
        .with_rule(FaultRule::new(
            "req-1003",
            serve_stages::PREDICT,
            FaultKind::Delay(Duration::from_millis(2)),
        ))
        .with_rule(FaultRule::new("*", serve_stages::PREDICT, FaultKind::Panic))
        .with_rule(FaultRule {
            probability: 0.25,
            ..FaultRule::new("*", serve_stages::ADMISSION, FaultKind::Error)
        });
    let fails_admission = |id: u64| {
        plan.fault_for(&format!("req-{id}"), serve_stages::ADMISSION)
            .is_some()
    };
    assert!(
        !(1001..=1003).any(fails_admission),
        "the warm-up is admitted"
    );
    let total = 64u64;
    let refused = (0..total).filter(|&id| fails_admission(id)).count() as u64;
    assert!(refused > 0 && refused < total, "{refused}");

    let dir = tmp("chaos");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let v2 = dir.join("v2.json");
    stump_artifact(2, 4).save(&v2).unwrap();
    let mut cfg = ServeConfig {
        queue_capacity: 4,
        workers: 2,
        plan: Some(Arc::new(plan)),
        ..Default::default()
    };
    cfg.gate.expected_features = 4;
    let (server, report) = Server::start(cfg, Some(stump_artifact(1, 4)), None).unwrap();
    assert!(report.install_error.is_none(), "{report:?}");

    let swap = server.call(Request {
        id: 1001,
        deadline_ms: None,
        body: RequestBody::Swap {
            path: v2.display().to_string(),
        },
    });
    assert_eq!(swap.status, ReplyStatus::Ok, "{swap:?}");
    let demoted = server.call(Request::predict(1002, vec![vec![1.0; 4]]));
    assert_eq!(demoted.status, ReplyStatus::Degraded, "{demoted:?}");
    assert_eq!(server.active_model(), "gbrt@v1", "the error demoted v2");
    let delayed = server.call(Request::predict(1003, vec![vec![1.0; 4]]));
    assert_eq!(
        (delayed.status, delayed.model.as_str()),
        (ReplyStatus::Ok, "gbrt@v1")
    );
    assert_eq!(server.metrics().counters["serve.injected"], 2);

    let rxs: Vec<_> = (0..total)
        .map(|i| server.submit(Request::predict(i, vec![vec![1.0; 4]; 8])))
        .collect();
    let mut answered = BTreeSet::new();
    let mut shed = 0u64;
    let mut admission_errors = 0u64;
    for rx in rxs {
        let reply: Reply = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("every request must be answered, never stalled");
        assert!(
            answered.insert(reply.id),
            "request {} answered twice",
            reply.id
        );
        if reply.status == ReplyStatus::Overloaded {
            shed += 1;
        }
        if reply.status == ReplyStatus::Error {
            assert!(reply.error.is_some(), "errors must carry a reason");
            if reply
                .error
                .unwrap()
                .starts_with("admission failed: injected")
            {
                admission_errors += 1;
            }
        }
    }
    assert_eq!(answered.len() as u64, total, "one reply per request");
    assert_eq!(admission_errors, refused, "the admission rule fired");
    assert_eq!(server.active_model(), "analytic", "the panic demoted v1");

    let sum = server.shutdown();
    assert_eq!(
        sum.metrics.admitted,
        sum.metrics.completed + sum.metrics.shed,
        "accounting must balance: {:?}",
        sum.metrics
    );
    assert_eq!(sum.metrics.shed, shed);
    assert!(
        sum.metrics.injected > 0,
        "the fault plan must actually have fired"
    );
    // The error, the delay, each admission fault, and at least one panic
    // (two workers may both have predicted on v1 before it went).
    assert!(
        sum.metrics.injected > 2 + refused,
        "{} injected",
        sum.metrics.injected
    );
    assert!(sum.rollbacks >= 2, "{} rollbacks", sum.rollbacks);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifact_swap_is_rejected_and_rolls_back_visibly() {
    let dir = tmp("swapgate");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");

    let mut cfg = ServeConfig {
        journal_path: Some(journal.clone()),
        ..Default::default()
    };
    cfg.gate.expected_features = 4;
    let (server, _) = Server::start(cfg, Some(stump_artifact(1, 4)), None).unwrap();
    assert_eq!(server.active_model(), "gbrt@v1");

    // Corruption ladder: unreadable file, garbage JSON, wrong feature width.
    let garbage = dir.join("garbage.json");
    std::fs::write(
        &garbage,
        "{\"schema\": \"servekit.model.v1\", \"nodes\": [[",
    )
    .unwrap();
    let wrong_width = dir.join("wrong_width.json");
    stump_artifact(2, 7).save(&wrong_width).unwrap();
    for (i, path) in [dir.join("missing.json"), garbage, wrong_width]
        .iter()
        .enumerate()
    {
        let reply = server.call(Request {
            id: 100 + i as u64,
            deadline_ms: None,
            body: RequestBody::Swap {
                path: path.display().to_string(),
            },
        });
        assert_eq!(reply.status, ReplyStatus::Error, "{reply:?}");
        assert_eq!(
            reply.model, "gbrt@v1",
            "a rejected swap must leave the trusted model active"
        );
    }
    // A good artifact still gets through the same gate afterwards.
    let good = dir.join("good.json");
    stump_artifact(3, 4).save(&good).unwrap();
    let reply = server.call(Request {
        id: 200,
        deadline_ms: None,
        body: RequestBody::Swap {
            path: good.display().to_string(),
        },
    });
    assert_eq!(reply.status, ReplyStatus::Ok, "{reply:?}");
    assert_eq!(server.active_model(), "gbrt@v3");

    // Rejections and the implied rollbacks are visible in serve.* metrics…
    let snap = server.metrics();
    assert_eq!(snap.counters["serve.swap.rejected"], 3);
    assert_eq!(snap.counters["serve.swap.rollbacks"], 3);
    // Two commits: the initial install goes through the same gate.
    assert_eq!(snap.counters["serve.swap.committed"], 2);
    server.shutdown();

    // …and in the journal.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(text.matches("\"swap.reject\"").count(), 3, "{text}");
    assert_eq!(text.matches("\"rollback\"").count(), 3, "{text}");
    assert!(text.contains("\"swap.commit\""), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawn the real `congestd` binary and return (child, bound address).
fn spawn_congestd(args: &[String]) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hls_congest"))
        .arg("serve")
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn congestd");
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut addr = String::new();
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = rest.split_whitespace().next().unwrap_or("").to_string();
            break;
        }
        line.clear();
    }
    assert!(!addr.is_empty(), "congestd never reported a bound address");
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    (child, addr)
}

#[test]
fn sigkill_restart_recovers_registry_with_unique_seqs() {
    let dir = tmp("sigkill");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    let model = dir.join("model.json");
    stump_artifact(1, 4).save(&model).unwrap();
    let base_args = vec![
        "--model".to_string(),
        model.display().to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--journal".to_string(),
        journal.display().to_string(),
        "--expect-features".to_string(),
        "4".to_string(),
    ];

    // First life: serve a few predictions, then die by SIGKILL — no
    // shutdown record ever reaches the journal.
    let (mut child, addr) = spawn_congestd(&base_args);
    for i in 0..3u64 {
        let reply =
            fpga_hls_congestion::servekit::request(&addr, &Request::predict(i, vec![vec![9.0; 4]]))
                .expect("predict over tcp");
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.model, "gbrt@v1");
        assert_eq!(reply.vertical, vec![91.0]);
    }
    child.kill().expect("SIGKILL congestd");
    child.wait().unwrap();
    let after_kill = std::fs::read_to_string(&journal).unwrap();
    assert!(
        !after_kill.contains("\"shutdown\""),
        "SIGKILL must not look clean: {after_kill}"
    );

    // Second life: same journal. Recovery must land on the last validated
    // model, append a `recover` record, and continue the seq chain.
    let (mut child, addr) = spawn_congestd(&base_args);
    let status = fpga_hls_congestion::servekit::request(
        &addr,
        &Request {
            id: 50,
            deadline_ms: None,
            body: RequestBody::Status,
        },
    )
    .expect("status over tcp");
    assert_eq!(status.status, ReplyStatus::Ok);
    assert_eq!(status.model, "gbrt@v1", "{status:?}");
    let shutdown = fpga_hls_congestion::servekit::request(
        &addr,
        &Request {
            id: 51,
            deadline_ms: None,
            body: RequestBody::Shutdown,
        },
    )
    .expect("shutdown over tcp");
    assert_eq!(shutdown.status, ReplyStatus::Ok);
    assert!(child.wait().unwrap().success(), "clean exit after shutdown");

    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.contains("\"recover\""), "{text}");
    assert_eq!(text.matches("\"serve.start\"").count(), 2, "{text}");
    assert!(text.contains("\"shutdown\""), "{text}");
    // Zero duplicate seqs across both lives, and strictly increasing.
    let mut seqs = Vec::new();
    for line in text.lines() {
        let doc = json::parse(line).unwrap();
        seqs.push(
            doc.get("seq")
                .and_then(Value::as_u64)
                .expect("every record carries a seq"),
        );
    }
    let unique: BTreeSet<_> = seqs.iter().copied().collect();
    assert_eq!(unique.len(), seqs.len(), "duplicate seq in {seqs:?}");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seqs must increase: {seqs:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay an arrival/drain trace against a live [`AdmissionQueue`] with
/// `workers` concurrent drainers; returns `(served_ids, shed_ids)` sorted.
fn replay_live(capacity: usize, trace: &[TraceStep], workers: usize) -> (Vec<u64>, Vec<u64>) {
    let queue = Arc::new(AdmissionQueue::new(capacity));
    let mut served = Vec::new();
    let mut shed = Vec::new();
    let mut next_id = 0u64;
    for step in trace {
        for _ in 0..step.arrivals {
            match queue.push(next_id) {
                fpga_hls_congestion::servekit::Admit::Shed(old) => shed.push(old),
                fpga_hls_congestion::servekit::Admit::Queued => {}
                fpga_hls_congestion::servekit::Admit::Closed(_) => unreachable!(),
            }
            next_id += 1;
        }
        // Drain `step.drains` items with `workers` threads racing over the
        // shared pop side — the partition must not care who pops.
        let taken = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (queue, taken, popped) = (queue.clone(), taken.clone(), popped.clone());
                let budget = step.drains;
                std::thread::spawn(move || {
                    while taken.fetch_add(1, Ordering::SeqCst) < budget {
                        if let Some(id) = queue.pop() {
                            popped.lock().unwrap().push(id);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        served.extend(popped.lock().unwrap().drain(..));
    }
    // Shutdown: drain the remainder, as the server's close path does.
    queue.close();
    while let Some(id) = queue.pop() {
        served.push(id);
    }
    served.sort_unstable();
    shed.sort_unstable();
    (served, shed)
}

#[test]
fn shed_partition_is_bit_identical_across_runs_and_worker_counts() {
    // A bursty 2×-overload trace: arrivals always outpace drains.
    let trace: Vec<TraceStep> = (0..12)
        .map(|i| TraceStep {
            arrivals: 6 + (i % 3),
            drains: 3,
        })
        .collect();
    let capacity = 5;
    let reference = shed_plan(capacity, &trace);
    assert!(!reference.1.is_empty(), "2x overload must shed");
    for workers in [1usize, 2, 4, 8] {
        for run in 0..3 {
            let live = replay_live(capacity, &trace, workers);
            assert_eq!(
                live, reference,
                "workers={workers} run={run}: shed/served partition drifted"
            );
        }
    }
}

#[test]
fn shed_victims_get_overloaded_replies_while_server_is_wedged() {
    // Wedge the single worker with a long injected delay, flood the queue,
    // and check the evicted requests get typed Overloaded replies while
    // the daemon keeps accepting.
    let plan = FaultPlan::new(3).with_rule(FaultRule::new(
        "*",
        serve_stages::PREDICT,
        FaultKind::Delay(Duration::from_millis(30)),
    ));
    let mut cfg = ServeConfig {
        queue_capacity: 2,
        workers: 1,
        plan: Some(Arc::new(plan)),
        ..Default::default()
    };
    cfg.gate.expected_features = 4;
    let (server, _) = Server::start(cfg, Some(stump_artifact(1, 4)), None).unwrap();
    let rxs: Vec<_> = (0..10u64)
        .map(|i| server.submit(Request::predict(i, vec![vec![1.0; 4]])))
        .collect();
    let mut statuses = Vec::new();
    for rx in rxs {
        statuses.push(rx.recv_timeout(Duration::from_secs(30)).unwrap().status);
    }
    assert!(
        statuses.contains(&ReplyStatus::Overloaded),
        "a 2-deep queue under a 10-burst must shed: {statuses:?}"
    );
    assert!(
        statuses.contains(&ReplyStatus::Ok),
        "the survivors must still be answered: {statuses:?}"
    );
    let sum = server.shutdown();
    assert_eq!(sum.metrics.admitted, 10);
    assert_eq!(
        sum.metrics.completed + sum.metrics.shed,
        10,
        "{:?}",
        sum.metrics
    );
    let _ = std::io::stdout().flush();
}

#[test]
fn sigkill_mid_coalesced_batch_reports_the_whole_batch_lost() {
    // Wedge the real daemon *inside* a coalesced batch: a `source`
    // request leads, and an injected delay in its extraction holds the
    // only worker while five pipelined single-row predicts queue up
    // behind it. A `source` request is a barrier, so it always runs
    // alone; the worker then drains the five as one micro-batch
    // (1024-row budget), and an injected delay holds the merged
    // `predict_into` (keyed `req-1`, the batch's first id) long
    // enough to SIGKILL the process mid-batch. The batch-start progress
    // record must make restart recovery report `lost_in_flight` equal to
    // the batch's admitted size — and the seq chain must stay
    // duplicate-free across both lives.
    let dir = tmp("sigkill_batch");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    let model = dir.join("model.json");
    stump_artifact(1, 4).save(&model).unwrap();
    let plan_path = dir.join("plan.json");
    let plan = FaultPlan::new(11)
        .with_rule(FaultRule::new(
            "lead",
            serve_stages::EXTRACT,
            FaultKind::Delay(Duration::from_millis(500)),
        ))
        .with_rule(FaultRule::new(
            "req-1",
            serve_stages::PREDICT,
            FaultKind::Delay(Duration::from_millis(4000)),
        ));
    std::fs::write(&plan_path, plan.to_json()).unwrap();
    let base_args = vec![
        "--model".to_string(),
        model.display().to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--journal".to_string(),
        journal.display().to_string(),
        "--expect-features".to_string(),
        "4".to_string(),
        "--batch-max-rows".to_string(),
        "1024".to_string(),
    ];
    let mut wedged_args = base_args.clone();
    wedged_args.extend(["--fault-plan".to_string(), plan_path.display().to_string()]);

    // First life: pipeline the lead request and the burst on one
    // connection. The event loop admits every frame without waiting for
    // replies; the batch journals batch-start progress, then hits the
    // injected delay — that's when SIGKILL lands.
    let batch_size = 5u64;
    let (mut child, addr) = spawn_congestd(&wedged_args);
    {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        let lead = Request {
            id: 0,
            deadline_ms: None,
            body: RequestBody::Source {
                name: "lead".into(),
                text: "int32 f(int32 a, int32 b) { return a * b; }".into(),
            },
        };
        fpga_hls_congestion::servekit::write_frame(&mut stream, &lead.to_json())
            .expect("write frame");
        for i in 1..=batch_size {
            fpga_hls_congestion::servekit::write_frame(
                &mut stream,
                &Request::predict(i, vec![vec![9.0; 4]]).to_json(),
            )
            .expect("write frame");
        }
        // The lead's 500 ms delay plus a margin inside the 4 s delay
        // window.
        std::thread::sleep(Duration::from_millis(2000));
        child.kill().expect("SIGKILL congestd");
        child.wait().unwrap();
    }
    let after_kill = std::fs::read_to_string(&journal).unwrap();
    assert!(!after_kill.contains("\"shutdown\""), "{after_kill}");
    assert!(
        after_kill.contains("\"progress\""),
        "batch start must journal progress before the merged predict: {after_kill}"
    );

    // Second life, no faults: recovery must account the wedged batch as
    // lost in flight — six admitted, only the lead completed, none shed.
    let (mut child, addr) = spawn_congestd(&base_args);
    let status = fpga_hls_congestion::servekit::request(
        &addr,
        &Request {
            id: 90,
            deadline_ms: None,
            body: RequestBody::Status,
        },
    )
    .expect("status over tcp");
    assert_eq!(status.status, ReplyStatus::Ok, "{status:?}");
    let shutdown = fpga_hls_congestion::servekit::request(
        &addr,
        &Request {
            id: 91,
            deadline_ms: None,
            body: RequestBody::Shutdown,
        },
    )
    .expect("shutdown over tcp");
    assert_eq!(shutdown.status, ReplyStatus::Ok);
    assert!(child.wait().unwrap().success());

    let text = std::fs::read_to_string(&journal).unwrap();
    let mut seqs = Vec::new();
    let mut recovered_lost = None;
    for line in text.lines() {
        let doc = json::parse(line).unwrap();
        seqs.push(
            doc.get("seq")
                .and_then(Value::as_u64)
                .expect("every record carries a seq"),
        );
        if doc.get("event").and_then(Value::as_str) == Some("recover") {
            recovered_lost = doc.get("lost_in_flight").and_then(Value::as_u64);
        }
    }
    assert_eq!(
        recovered_lost,
        Some(batch_size),
        "recovery must report the whole wedged batch: {text}"
    );
    let unique: BTreeSet<_> = seqs.iter().copied().collect();
    assert_eq!(unique.len(), seqs.len(), "duplicate seq in {seqs:?}");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seqs must increase: {seqs:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
