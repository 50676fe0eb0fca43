//! The `congestd` request engine: bounded admission, worker pool,
//! stages run once under panic isolation, degradation ladder, crash-only
//! journaling.
//!
//! Request lifecycle (DESIGN.md §14 has the state machine):
//!
//! ```text
//! submit ── serve.admission (with a plan) ──► queue (bounded, shed-oldest)
//!        │        │                              │
//!        │        └─► source hit on an idle      ▼ worker pop
//!        │            server: answered here
//!        └─► Overloaded / Error
//!                       deadline check ──► DeadlineExceeded
//!                       serve.extract / serve.predict / serve.swap
//!                       (each run once under catch_unwind)
//!                            │ model failure
//!                            ▼
//!                       demote to last-good ──► analytic (degraded=true)
//! ```
//!
//! Every admitted request receives exactly one typed reply; no failure
//! mode — injected panic, poisoned model, overload, deadline — exits the
//! process. A stage's failure is deterministic, so nothing is retried.

use crate::cache::{CacheStats, CachedReply, ReplyCache};
use crate::estimator::{AnalyticEstimator, ANALYTIC_MODEL};
use crate::journal::{Journal, JournalEvent, RecoveredState};
use crate::plan::{serve_stages, silence_injected_panics, FaultPlan, InjectedPanic};
use crate::proto::{Reply, ReplyStatus, Request, RequestBody};
use crate::queue::{AdmissionQueue, Admit, WorkGate};
use crate::registry::{ModelRegistry, ValidationGate};
use crate::ModelArtifact;
use mlkit::Matrix;
use obskit::QuantileSketch;
use std::any::Any;
use std::collections::BTreeMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Rows predicted between cooperative deadline checks.
const PREDICT_CHUNK: usize = 2048;

/// Completed requests between journal progress records.
const JOURNAL_FLUSH_EVERY: u64 = 32;

/// Pluggable MiniHLS front-end for `source` requests: maps
/// `(design name, source text)` to one matrix of per-op feature rows plus
/// each op's source line, which the server predicts as they are. The
/// binary wires `congestion_core::extract_source` in; servekit itself
/// stays extractor-agnostic.
pub type SourceExtractor = dyn Fn(&str, &str) -> Result<(Matrix, Vec<u32>), String> + Send + Sync;

/// Pluggable source-digest function: maps `(design name, source text)` to
/// the reply-cache key. The binary wires
/// `congestion_core::source_digest` in (stamped with the feature schema);
/// the default is a plain FNV-1a over both strings.
pub type SourceKeyFn = dyn Fn(&str, &str) -> u64 + Send + Sync;

fn default_source_key(name: &str, text: &str) -> u64 {
    obskit::fnv1a(&[name.as_bytes(), b"\0", text.as_bytes()])
}

/// Where swap events additionally land as `obskit.run.v1` ledger records
/// (`--ledger-out`).
#[derive(Debug, Clone)]
pub struct LedgerSink {
    /// Ledger file path.
    pub path: PathBuf,
    /// Producing tool stamp.
    pub tool: String,
    /// Version stamp.
    pub version: String,
    /// Git hash stamp.
    pub git: String,
}

/// Server configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Admission queue capacity (shed-oldest past this).
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Deadline applied to requests that carry none.
    pub default_deadline: Option<Duration>,
    /// Armed fault plan (chaos testing).
    pub plan: Option<Arc<FaultPlan>>,
    /// Journal path; `None` disables crash-only persistence.
    pub journal_path: Option<PathBuf>,
    /// Swap validation gate.
    pub gate: ValidationGate,
    /// Optional run-ledger sink for swap records.
    pub ledger: Option<LedgerSink>,
    /// Coalescing row budget per micro-batch: a worker drains the
    /// contiguous run of queued `predict` requests whose summed row count
    /// fits, and answers them with one predict call over their merged
    /// rows. `1` disables coalescing: each predict is a batch of one.
    pub batch_max_rows: usize,
    /// Reply-cache capacity in designs for `source` requests; 0 disables
    /// the cache. An entry is the answer a miss computed (status, model,
    /// V/H predictions, lines) and its reply's text, about 65 bytes per
    /// op, so a hit neither extracts, predicts nor encodes.
    pub cache_capacity: usize,
    /// Source-digest function keying the reply cache; `None` uses a
    /// plain FNV-1a over `(name, text)`.
    pub cache_key: Option<Arc<SourceKeyFn>>,
    /// Deterministic worker pacing gate: when set, each queue drain first
    /// takes one permit. Benches and conformance tests use this as a
    /// virtual clock to reproduce `shed_plan` exactly; production leaves
    /// it `None`. [`Server::shutdown`] opens the gate so workers never
    /// wedge on it. It paces workers only: a `source` cache hit that
    /// [`Server::submit`] answers on an idle server takes no permit.
    pub pace_gate: Option<Arc<WorkGate>>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("queue_capacity", &self.queue_capacity)
            .field("workers", &self.workers)
            .field("default_deadline", &self.default_deadline)
            .field("plan", &self.plan)
            .field("journal_path", &self.journal_path)
            .field("gate", &self.gate)
            .field("ledger", &self.ledger)
            .field("batch_max_rows", &self.batch_max_rows)
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_key", &self.cache_key.as_ref().map(|_| "<fn>"))
            .field("pace_gate", &self.pace_gate)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            workers: 1,
            default_deadline: None,
            plan: None,
            journal_path: None,
            gate: ValidationGate::default(),
            ledger: None,
            batch_max_rows: 256,
            cache_capacity: 64,
            cache_key: None,
            pace_gate: None,
        }
    }
}

/// Counters and latency sketch for the `serve.*` metric family.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Requests accepted into the queue (or answered at admission).
    pub admitted: u64,
    /// Requests answered by a worker or at admission (any status but
    /// shed).
    pub completed: u64,
    /// Requests shed at admission (`Overloaded`).
    pub shed: u64,
    /// Requests cancelled past their deadline.
    pub deadline_missed: u64,
    /// Requests answered by a fallback path (`degraded=true`).
    pub degraded: u64,
    /// `Error` replies.
    pub errors: u64,
    /// Faults injected across serve stages.
    pub injected: u64,
    /// Peak queue depth observed at admission.
    pub queue_depth_peak: u64,
    /// Multi-request micro-batches formed by coalescing workers.
    pub batches: u64,
    /// Requests answered as members of a multi-request micro-batch.
    pub coalesced: u64,
    /// Rows merged into the predict calls of multi-request micro-batches.
    pub batch_rows: u64,
    /// Largest micro-batch observed, in requests.
    pub batch_peak: u64,
    /// Request latency (admission → reply), milliseconds.
    pub latency_ms: QuantileSketch,
}

impl ServeMetrics {
    /// Export as an obskit registry snapshot (`serve.*` namespace),
    /// folding in the registry's swap counters, the reply-cache
    /// counters (`serve.cache.*`, where `hits + misses == lookups`) and
    /// the latency sketch as the `serve.latency_ms` histogram.
    pub fn snapshot(
        &self,
        swaps: u64,
        rejects: u64,
        rollbacks: u64,
        cache: CacheStats,
    ) -> obskit::MetricsSnapshot {
        let mut r = obskit::Registry::new();
        r.inc("serve.admitted", self.admitted);
        r.inc("serve.completed", self.completed);
        r.inc("serve.shed", self.shed);
        r.inc("serve.deadline_missed", self.deadline_missed);
        r.inc("serve.degraded", self.degraded);
        r.inc("serve.errors", self.errors);
        r.inc("serve.injected", self.injected);
        r.inc("serve.swap.committed", swaps);
        r.inc("serve.swap.rejected", rejects);
        r.inc("serve.swap.rollbacks", rollbacks);
        r.inc("serve.batch.formed", self.batches);
        r.inc("serve.batch.coalesced_requests", self.coalesced);
        r.inc("serve.batch.rows", self.batch_rows);
        r.inc("serve.cache.lookups", cache.lookups);
        r.inc("serve.cache.hits", cache.hits);
        r.inc("serve.cache.misses", cache.misses);
        r.inc("serve.cache.evictions", cache.evictions);
        r.inc("serve.cache.invalidations", cache.invalidations);
        r.set_gauge("serve.queue_depth_peak", self.queue_depth_peak as f64);
        r.set_gauge("serve.batch.peak_requests", self.batch_peak as f64);
        let mut snap = r.into_snapshot();
        snap.histograms
            .insert("serve.latency_ms".to_string(), self.latency_ms.clone());
        snap
    }
}

/// What a request's reply channel carries: a reply built for it, or a
/// `source` answer from the reply cache, which the event loop writes from
/// the entry's stored text (`CachedReply::write_frame`) without encoding
/// it again.
pub(crate) enum Answer {
    /// A reply to encode.
    Reply(Reply),
    /// Request `id`'s answer from `entry`: a cache `hit`, or the miss
    /// that computed the entry.
    Cached {
        id: u64,
        entry: Arc<CachedReply>,
        hit: bool,
    },
}

impl Answer {
    fn status(&self) -> ReplyStatus {
        match self {
            Answer::Reply(r) => r.status,
            Answer::Cached { entry, .. } => entry.status(),
        }
    }

    /// The reply this answer stands for.
    fn into_reply(self) -> Reply {
        match self {
            Answer::Reply(r) => r,
            Answer::Cached { id, entry, hit } => entry.tagged_reply(id, hit),
        }
    }

    /// Append the answer's frame to `out`: its 4-byte little-endian
    /// length, then its JSON.
    pub(crate) fn write_frame(&self, out: &mut Vec<u8>) {
        match self {
            Answer::Reply(r) => {
                let json = r.to_json();
                out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Answer::Cached { id, entry, hit } => entry.write_frame(*id, *hit, out),
        }
    }
}

impl From<Reply> for Answer {
    fn from(reply: Reply) -> Answer {
        Answer::Reply(reply)
    }
}

/// The one reply [`Server::submit`] owes a request, as it arrives.
pub struct PendingReply(pub(crate) mpsc::Receiver<Answer>);

impl PendingReply {
    /// Wait for the reply.
    ///
    /// # Errors
    /// The server dropped the request without replying, which the
    /// exactly-one-reply contract rules out.
    pub fn recv(&self) -> Result<Reply, mpsc::RecvError> {
        self.0.recv().map(Answer::into_reply)
    }

    /// The reply, if it has arrived.
    ///
    /// # Errors
    /// `Empty` while it has not; `Disconnected` as for [`Self::recv`].
    pub fn try_recv(&self) -> Result<Reply, mpsc::TryRecvError> {
        self.0.try_recv().map(Answer::into_reply)
    }

    /// Wait at most `timeout` for the reply.
    ///
    /// # Errors
    /// `Timeout` when it has not arrived; `Disconnected` as for
    /// [`Self::recv`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Reply, mpsc::RecvTimeoutError> {
        self.0.recv_timeout(timeout).map(Answer::into_reply)
    }
}

struct Job {
    req: Request,
    admitted_at: Instant,
    reply_to: mpsc::Sender<Answer>,
    /// Set for a `source` request that admission already looked up and
    /// missed, so the worker does not look it up again.
    probe: Option<Probe>,
}

/// One reply-cache lookup of a `source` request: its key, and the cache
/// generation read before the lookup (the miss inserts under it).
#[derive(Debug, Clone, Copy)]
struct Probe {
    key: u64,
    generation: u64,
}

struct ServerState {
    cfg: ServeConfig,
    queue: AdmissionQueue<Job>,
    registry: Mutex<ModelRegistry>,
    journal: Mutex<Option<Journal>>,
    metrics: Mutex<ServeMetrics>,
    shutdown: AtomicBool,
    /// Admitted jobs not yet finished: queued, or held by a worker. While
    /// it is 0 nothing ahead of a new request can change its answer.
    in_flight: AtomicUsize,
    extractor: Option<Arc<SourceExtractor>>,
    cache: ReplyCache,
    recovered: RecoveredState,
    /// The event loop's wake socket, while one runs (see [`wake_loop`]).
    waker: Mutex<Option<UnixStream>>,
}

/// What [`Server::start`] found and did while coming up.
#[derive(Debug, Clone, Default)]
pub struct StartReport {
    /// Journal recovery outcome (defaults for a fresh journal).
    pub recovered: RecoveredState,
    /// Why the initial model failed to install, if it did — the server
    /// still starts (degraded, crash-only) and the caller decides whether
    /// that is acceptable.
    pub install_error: Option<String>,
}

/// Final accounting returned by [`Server::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Final metrics.
    pub metrics: ServeMetrics,
    /// Committed swaps.
    pub swaps: u64,
    /// Gate rejects.
    pub rejects: u64,
    /// Rollbacks.
    pub rollbacks: u64,
    /// Model active at shutdown.
    pub model: String,
    /// Reply-cache counters at shutdown.
    pub cache: CacheStats,
}

/// The running daemon: worker pool + shared state. `submit` is `&self`
/// and thread-safe, so the network front-end and in-process callers
/// share one `Arc<Server>`.
pub struct Server {
    state: Arc<ServerState>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Start the daemon: open and replay the journal, install the initial
    /// model through the validation gate, spawn the worker pool.
    ///
    /// # Errors
    /// Journal I/O only. A rejected initial model does *not* fail startup
    /// (the server comes up degraded); see [`StartReport::install_error`].
    pub fn start(
        cfg: ServeConfig,
        initial: Option<ModelArtifact>,
        extractor: Option<Arc<SourceExtractor>>,
    ) -> std::io::Result<(Server, StartReport)> {
        silence_injected_panics();
        let mut report = StartReport::default();
        let mut journal = None;
        if let Some(path) = &cfg.journal_path {
            let (j, recovered) = Journal::open(path)?;
            report.recovered = recovered;
            journal = Some(j);
        }
        let mut registry = ModelRegistry::new(cfg.gate.clone());
        if let Some(artifact) = initial {
            let name = artifact.display_name();
            if let Err(e) = registry.install(artifact) {
                report.install_error = Some(format!("{name}: {e}"));
            }
        }
        // Crash-only accounting: cumulative counters continue across
        // restarts, so `admitted - completed - shed` stays meaningful.
        let metrics = ServeMetrics {
            admitted: report.recovered.admitted,
            completed: report.recovered.completed,
            shed: report.recovered.shed,
            degraded: report.recovered.degraded,
            ..Default::default()
        };
        if let Some(j) = journal.as_mut() {
            if report.recovered.records > 0 && !report.recovered.clean_shutdown {
                j.append(&JournalEvent::Recover {
                    lost_in_flight: report.recovered.lost_in_flight,
                    torn_lines: report.recovered.torn_lines,
                })?;
            }
            j.append(&JournalEvent::ServeStart {
                model: registry.active_name(),
            })?;
        }
        let state = Arc::new(ServerState {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            registry: Mutex::new(registry),
            journal: Mutex::new(journal),
            metrics: Mutex::new(metrics),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            extractor,
            cache: ReplyCache::new(cfg.cache_capacity),
            recovered: report.recovered.clone(),
            waker: Mutex::new(None),
            cfg,
        });
        let workers = (0..state.cfg.workers.max(1))
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("congestd-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker")
            })
            .collect();
        Ok((
            Server {
                state,
                workers: Mutex::new(workers),
            },
            report,
        ))
    }

    /// Admit one request. Never blocks; the reply (exactly one) arrives on
    /// the returned channel. Under overload the *oldest* queued request is
    /// shed with an `Overloaded` reply to make room.
    ///
    /// A `source` request is looked up in the reply cache here when
    /// nothing is queued or running and the server is not shutting down:
    /// then nothing can be ordered ahead of it, so a hit is answered on
    /// this thread, and its reply is in the channel when `submit` returns.
    /// A miss carries its lookup to the worker. While work is queued or
    /// running, the worker looks the request up in its turn.
    pub fn submit(&self, req: Request) -> PendingReply {
        let (tx, rx) = mpsc::channel();
        let state = &self.state;
        let id = req.id;
        // Admission is a stage only under a fault plan, which is all it
        // runs: an injected admission fault degrades into a typed Error
        // reply, not a crash. Without one it costs nothing.
        if state.cfg.plan.is_some() {
            let admitted = run_stage(
                state,
                serve_stages::ADMISSION,
                || format!("req-{id}"),
                || (),
            );
            if let Err(failure) = admitted {
                let mut m = state.metrics.lock().expect("metrics lock poisoned");
                m.admitted += 1;
                m.completed += 1;
                m.errors += 1;
                drop(m);
                let _ = tx.send(Reply::error(id, format!("admission failed: {failure}")).into());
                return PendingReply(rx);
            }
        }
        let admitted_at = Instant::now();
        let mut probe = None;
        if let RequestBody::Source { name, text } = &req.body {
            if state.extractor.is_some() && !state.cache.disabled() && idle(state) {
                let (lookup, hit) = look_up(state, name, text);
                if let Some(entry) = hit {
                    let answer = cache_hit(id, entry, deadline_of(state, &req, admitted_at));
                    let flush = {
                        let mut m = state.metrics.lock().expect("metrics lock poisoned");
                        m.admitted += 1;
                        record_completion(&mut m, answer.status(), admitted_at)
                    };
                    // The caller collects the reply on return: no wake.
                    let _ = tx.send(answer);
                    if flush {
                        journal_progress(state);
                    }
                    return PendingReply(rx);
                }
                probe = Some(lookup);
            }
        }
        let job = Job {
            req,
            admitted_at,
            reply_to: tx.clone(),
            probe,
        };
        // Held across the push, so a worker cannot answer the job (or a
        // `status` report it) before it is counted as admitted.
        let mut m = state.metrics.lock().expect("metrics lock poisoned");
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        match state.queue.push(job) {
            Admit::Queued => {
                m.admitted += 1;
                m.queue_depth_peak = m.queue_depth_peak.max(state.queue.depth() as u64);
            }
            Admit::Shed(old) => {
                state.in_flight.fetch_sub(1, Ordering::SeqCst);
                m.admitted += 1;
                m.shed += 1;
                drop(m);
                let _ = old
                    .reply_to
                    .send(Reply::status_only(old.req.id, ReplyStatus::Overloaded).into());
                // The shed request may belong to a connection the event
                // loop has already stepped this pass.
                wake_loop(state);
            }
            Admit::Closed(job) => {
                state.in_flight.fetch_sub(1, Ordering::SeqCst);
                drop(m);
                let _ = job
                    .reply_to
                    .send(Reply::error(id, "server is shutting down").into());
            }
        }
        PendingReply(rx)
    }

    /// [`Self::submit`] and wait for the reply.
    pub fn call(&self, req: Request) -> Reply {
        let id = req.id;
        self.submit(req)
            .recv()
            .unwrap_or_else(|_| Reply::error(id, "reply channel closed"))
    }

    /// True once a shutdown request was processed or `shutdown` called.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Give the event loop's wake socket to the server: from now on every
    /// reply a worker delivers or admission sheds, and [`Self::shutdown`],
    /// write one byte to it. One loop per server, so a second registration
    /// is refused.
    pub(crate) fn register_waker(&self, waker: UnixStream) -> std::io::Result<()> {
        let mut slot = self
            .state
            .waker
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "this server already runs an event loop",
            ));
        }
        *slot = Some(waker);
        Ok(())
    }

    /// Drop the wake socket once the event loop has exited.
    pub(crate) fn clear_waker(&self) {
        *self
            .state
            .waker
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.state.queue.depth()
    }

    /// Admission queue capacity: the most requests that can wait before
    /// the oldest is shed.
    pub(crate) fn queue_capacity(&self) -> usize {
        self.state.queue.capacity()
    }

    /// Journal recovery state from startup.
    pub fn recovered(&self) -> &RecoveredState {
        &self.state.recovered
    }

    /// Snapshot the `serve.*` metrics.
    pub fn metrics(&self) -> obskit::MetricsSnapshot {
        let (swaps, rejects, rollbacks) = {
            let r = self.state.registry.lock().unwrap();
            (r.swaps, r.rejects, r.rollbacks)
        };
        self.state.metrics.lock().unwrap().snapshot(
            swaps,
            rejects,
            rollbacks,
            self.state.cache.stats(),
        )
    }

    /// Reply-cache counter snapshot (`hits + misses == lookups`).
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Display name of the model currently answering.
    pub fn active_model(&self) -> String {
        self.state.registry.lock().unwrap().active_name()
    }

    /// Clean shutdown: close the queue, drain pending jobs, join the
    /// workers, journal the final progress + shutdown records.
    pub fn shutdown(&self) -> ServeSummary {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.close();
        if let Some(g) = &self.state.cfg.pace_gate {
            g.open(); // never leave workers wedged on the pacing gate
        }
        wake_loop(&self.state);
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        let metrics = self.state.metrics.lock().unwrap().clone();
        let (swaps, rejects, rollbacks, model) = {
            let r = self.state.registry.lock().unwrap();
            (r.swaps, r.rejects, r.rollbacks, r.active_name())
        };
        if let Some(j) = self.state.journal.lock().unwrap().as_mut() {
            let _ = j.append(&JournalEvent::Progress {
                admitted: metrics.admitted,
                completed: metrics.completed,
                shed: metrics.shed,
                degraded: metrics.degraded,
            });
            let _ = j.append(&JournalEvent::Shutdown);
        }
        ServeSummary {
            metrics,
            swaps,
            rejects,
            rollbacks,
            model,
            cache: self.state.cache.stats(),
        }
    }
}

fn worker_loop(state: &Arc<ServerState>) {
    loop {
        // Virtual-clock pacing: one permit per drain (benches/tests only).
        if let Some(g) = &state.cfg.pace_gate {
            g.acquire();
        }
        // Coalesce the contiguous run of predict requests at the queue
        // head into one micro-batch; everything else is a barrier and
        // runs alone. The partition is decided under the queue lock, so
        // it is a pure function of (arrival trace, config) — and replies
        // are bitwise-identical either way (see `batch_replies`).
        let Some(batch) = state
            .queue
            .pop_batch(state.cfg.batch_max_rows, |job: &Job| match &job.req.body {
                RequestBody::Predict { rows } => Some(rows.len().max(1)),
                _ => None,
            })
        else {
            break;
        };
        let coalesced = batch.len() > 1;
        if coalesced {
            // Crash-only accounting: a progress record *before* the merged
            // work makes `lost_in_flight` after a SIGKILL reflect the whole
            // admitted batch (the chaos suite pins this).
            journal_progress(state);
        }
        // Last-resort isolation: even a bug outside the stages becomes a
        // typed Error reply to every job of the drain, never a dead worker.
        let (answers, merged_rows) = catch_unwind(AssertUnwindSafe(|| match &batch[0].req.body {
            RequestBody::Predict { .. } => batch_replies(state, &batch),
            _ => (vec![process(state, &batch[0])], 0),
        }))
        .unwrap_or_else(|_| {
            let answers = batch
                .iter()
                .map(|j| Reply::error(j.req.id, "internal panic (isolated)").into())
                .collect();
            (answers, 0)
        });
        if coalesced {
            let mut m = state.metrics.lock().unwrap();
            m.batches += 1;
            m.coalesced += batch.len() as u64;
            m.batch_rows += merged_rows as u64;
            m.batch_peak = m.batch_peak.max(batch.len() as u64);
        }
        for (job, answer) in batch.iter().zip(answers) {
            finish(state, job, answer);
        }
    }
}

/// Per-reply bookkeeping for every job a drain answers: the in-flight
/// count, completion counters, latency sketch, reply delivery plus the
/// event loop's wake, journal cadence.
fn finish(state: &Arc<ServerState>, job: &Job, answer: Answer) {
    // The job's work is done, so it can no longer change a later answer.
    // Lowered before the reply leaves: a client that sends its next
    // request on receipt finds an idle server.
    state.in_flight.fetch_sub(1, Ordering::SeqCst);
    let flush = record_completion(
        &mut state.metrics.lock().expect("metrics lock poisoned"),
        answer.status(),
        job.admitted_at,
    );
    let _ = job.reply_to.send(answer);
    wake_loop(state);
    if flush {
        journal_progress(state);
    }
}

/// Count one answered request, by [`finish`] or by a hit answered at
/// admission. Returns whether a journal progress record is due.
fn record_completion(m: &mut ServeMetrics, status: ReplyStatus, admitted_at: Instant) -> bool {
    m.completed += 1;
    match status {
        ReplyStatus::Degraded => m.degraded += 1,
        ReplyStatus::DeadlineExceeded => m.deadline_missed += 1,
        ReplyStatus::Error => m.errors += 1,
        _ => {}
    }
    m.latency_ms
        .observe(admitted_at.elapsed().as_secs_f64() * 1e3);
    m.completed.is_multiple_of(JOURNAL_FLUSH_EVERY)
}

/// Nothing admitted is unfinished and the server is not shutting down,
/// so no swap, rollback, demotion or shutdown can be ordered ahead of a
/// request admitted now.
fn idle(state: &ServerState) -> bool {
    state.in_flight.load(Ordering::SeqCst) == 0 && !state.shutdown.load(Ordering::SeqCst)
}

/// Tell a blocked event loop that something changed: a reply is waiting
/// or the server is shutting down. The byte is written *after* the change,
/// and the loop drains the socket *before* looking, so no wake is lost. A
/// full socket already holds a wake, so a failed write is ignored.
fn wake_loop(state: &ServerState) {
    let mut waker = state.waker.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(w) = waker.as_mut() {
        let _ = w.write(&[1]);
    }
}

/// Answer a drained run of predict requests, one answer per member in
/// member order, and count the rows merged into its one predict call.
/// Each member is validated as it would be alone (deadline at dequeue, row
/// widths); the survivors' rows are merged into one matrix and answered by
/// **one** pass down [`predict_ladder`], then the output is split back
/// along request boundaries. The model predicts each row on its own, in
/// tree order, so every member's floats are bit-for-bit what it would get
/// alone. A lone member's deadline is checked between chunks as well; a
/// coalesced member runs to completion.
fn batch_replies(state: &Arc<ServerState>, batch: &[Job]) -> (Vec<Answer>, usize) {
    let mut replies: Vec<Option<Reply>> = Vec::with_capacity(batch.len());
    // Members that survive validation, with their row range in the merged
    // matrix: (index into batch, row offset, row count).
    let mut members: Vec<(usize, usize, usize)> = Vec::new();
    let expected = state.cfg.gate.expected_features;
    let mut cols = 0usize;
    let mut total_rows = 0usize;
    for (i, job) in batch.iter().enumerate() {
        let id = job.req.id;
        let RequestBody::Predict { rows } = &job.req.body else {
            unreachable!("pop_batch only coalesces predict requests");
        };
        if past(deadline_of(state, &job.req, job.admitted_at)) {
            replies.push(Some(Reply::status_only(id, ReplyStatus::DeadlineExceeded)));
            continue;
        }
        let Some(first) = rows.first() else {
            let mut r = Reply::status_only(id, ReplyStatus::Ok);
            r.model = state.registry.lock().unwrap().active_name();
            replies.push(Some(r));
            continue;
        };
        let width = first.len();
        if let Some((j, row)) = rows.iter().enumerate().find(|(_, r)| r.len() != width) {
            replies.push(Some(Reply::error(
                id,
                format!("row {j} is {}-wide, row 0 is {width}", row.len()),
            )));
            continue;
        }
        if expected != 0 && width != expected {
            replies.push(Some(Reply::error(
                id,
                format!("rows are {width}-wide, server expects {expected}"),
            )));
            continue;
        }
        if members.is_empty() {
            cols = width;
        } else if width != cols {
            // Ragged widths can only happen with no gate constraint;
            // answer the odd one out on its own.
            let (status, model, v, h) = predict_ladder(state, id, &Matrix::from_rows(rows), None);
            replies.push(Some(Reply {
                id,
                status,
                model,
                vertical: v,
                horizontal: h,
                ..Default::default()
            }));
            continue;
        }
        members.push((i, total_rows, rows.len()));
        total_rows += rows.len();
        replies.push(None);
    }
    if let Some(&(first, _, _)) = members.first() {
        let mut merged = Matrix::with_cols(cols);
        for &(i, _, _) in &members {
            let RequestBody::Predict { rows } = &batch[i].req.body else {
                unreachable!()
            };
            for row in rows {
                merged.push_row(row);
            }
        }
        let deadline = match batch {
            [lone] => deadline_of(state, &lone.req, lone.admitted_at),
            _ => None,
        };
        let (status, model, v, h) = predict_ladder(state, batch[first].req.id, &merged, deadline);
        for &(i, offset, n) in &members {
            // A deadline cut (a lone member's) leaves no predictions.
            let part = |p: &[f64]| p.get(offset..offset + n).unwrap_or_default().to_vec();
            replies[i] = Some(Reply {
                id: batch[i].req.id,
                status,
                model: model.clone(),
                vertical: part(&v),
                horizontal: part(&h),
                ..Default::default()
            });
        }
    }
    let answers = replies
        .into_iter()
        .map(|r| r.expect("every batch member answered").into())
        .collect();
    (answers, total_rows)
}

/// Model-path failure: demote (last-good takes over for future
/// requests), journal the rollback, and invalidate the reply cache —
/// the active-model epoch changed.
fn demote_active(state: &Arc<ServerState>) {
    let name = {
        let mut reg = state.registry.lock().unwrap();
        reg.demote();
        reg.active_name()
    };
    state.cache.invalidate();
    if let Some(j) = state.journal.lock().unwrap().as_mut() {
        let _ = j.append(&JournalEvent::Rollback { model: name });
    }
}

fn journal_progress(state: &ServerState) {
    let (admitted, completed, shed, degraded) = {
        let m = state.metrics.lock().unwrap();
        (m.admitted, m.completed, m.shed, m.degraded)
    };
    if let Some(j) = state.journal.lock().unwrap().as_mut() {
        let _ = j.append(&JournalEvent::Progress {
            admitted,
            completed,
            shed,
            degraded,
        });
    }
}

/// The absolute deadline of `req`, admitted at `admitted_at`, if any.
fn deadline_of(state: &ServerState, req: &Request, admitted_at: Instant) -> Option<Instant> {
    let dur = req
        .deadline_ms
        .map(Duration::from_millis)
        .or(state.cfg.default_deadline)?;
    Some(admitted_at + dur)
}

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() > d)
}

/// Answer a request that runs alone: every kind but `predict`, which
/// [`batch_replies`] answers.
fn process(state: &Arc<ServerState>, job: &Job) -> Answer {
    let id = job.req.id;
    let deadline = deadline_of(state, &job.req, job.admitted_at);
    if past(deadline) {
        return Reply::status_only(id, ReplyStatus::DeadlineExceeded).into();
    }
    let reply = match &job.req.body {
        RequestBody::Predict { .. } => unreachable!("pop_batch drains predicts as batches"),
        RequestBody::Source { name, text } => {
            return source_request(state, id, name, text, deadline, job.probe)
        }
        RequestBody::Swap { path } => swap_request(state, id, path),
        RequestBody::Rollback => rollback_request(state, id),
        RequestBody::Status => status_request(state, id),
        RequestBody::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            state.queue.close();
            Reply::status_only(id, ReplyStatus::Ok)
        }
    };
    reply.into()
}

/// The degradation ladder: active model → (on a model failure) demote to
/// last-good → analytic estimator, stamped `Degraded`.
fn predict_ladder(
    state: &Arc<ServerState>,
    id: u64,
    rows: &Matrix,
    deadline: Option<Instant>,
) -> (ReplyStatus, String, Vec<f64>, Vec<f64>) {
    let active = state.registry.lock().unwrap().active();
    if let Some(model) = active {
        // `None` when the deadline passed between chunks.
        let predicted = run_stage(
            state,
            serve_stages::PREDICT,
            || format!("req-{id}"),
            || {
                let n = rows.rows();
                let mut v = vec![0.0; n];
                let mut h = vec![0.0; n];
                let mut start = 0usize;
                while start < n {
                    // Cooperative cancellation between chunks: a request
                    // that blows its budget mid-batch stops early instead
                    // of stalling the worker.
                    if past(deadline) {
                        return None;
                    }
                    let end = (start + PREDICT_CHUNK).min(n);
                    model
                        .vertical
                        .predict_rows_into(rows, start, &mut v[start..end]);
                    model
                        .horizontal
                        .predict_rows_into(rows, start, &mut h[start..end]);
                    start = end;
                }
                Some((v, h))
            },
        );
        match predicted {
            Ok(Some((v, h))) => return (ReplyStatus::Ok, model.display_name(), v, h),
            Ok(None) => {
                return (
                    ReplyStatus::DeadlineExceeded,
                    model.display_name(),
                    Vec::new(),
                    Vec::new(),
                )
            }
            Err(_) => {
                // A model-path failure: demote (last-good takes over for
                // *future* requests) and answer this one on the analytic
                // rung.
                demote_active(state);
            }
        }
    }
    let (v, h) = analytic_predict(rows);
    (ReplyStatus::Degraded, ANALYTIC_MODEL.to_string(), v, h)
}

/// Run one serve stage, once: apply the armed plan's fault for
/// `(design, stage)`, counted in `serve.injected`, then `body`, both under
/// one `catch_unwind`. `Err` is the injected error or the caught panic,
/// as reply text; `body`'s own result is `Ok`. `design` names the stage's
/// request or design in the plan, and is only built when a plan is armed.
///
/// Asserting unwind safety is sound: a body only reads shared state (the
/// model, the request, the extractor), and what it builds is dropped with
/// the unwind.
fn run_stage<T>(
    state: &ServerState,
    stage: &str,
    design: impl FnOnce() -> String,
    body: impl FnOnce() -> T,
) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = &state.cfg.plan {
            let design = design();
            if let Some(rule) = plan.fault_for(&design, stage) {
                state
                    .metrics
                    .lock()
                    .expect("metrics lock poisoned")
                    .injected += 1;
                rule.kind
                    .inject(&design, stage)
                    .map_err(|f| f.to_string())?;
            }
        }
        Ok(body())
    }))
    .unwrap_or_else(|payload| Err(panic_text(payload)))
}

/// A caught panic as reply text, `panic: {message}`. An injected panic's
/// message is in its [`InjectedPanic`] payload; any other is rendered by
/// `parkit::Panicked`.
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<InjectedPanic>() {
        Ok(injected) => format!("panic: {}", injected.message),
        Err(payload) => parkit::Panicked::from(payload).to_string(),
    }
}

fn analytic_predict(rows: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let estimator = AnalyticEstimator::default();
    let mut v = Vec::with_capacity(rows.rows());
    let mut h = Vec::with_capacity(rows.rows());
    for row in rows.iter_rows() {
        let (pv, ph) = estimator.predict(row);
        v.push(pv);
        h.push(ph);
    }
    (v, h)
}

/// Look `source` up in the reply cache. The generation is read *before*
/// the lookup, so a model change that lands while a miss runs turns its
/// eventual insert into a dropped stale write.
fn look_up(state: &ServerState, name: &str, text: &str) -> (Probe, Option<Arc<CachedReply>>) {
    let key = match &state.cfg.cache_key {
        Some(f) => f(name, text),
        None => default_source_key(name, text),
    };
    let generation = state.cache.generation();
    (Probe { key, generation }, state.cache.lookup(key))
}

/// Answer a `source` request from its cache entry: at admission, or by
/// the worker when the request had to wait its turn.
fn cache_hit(id: u64, entry: Arc<CachedReply>, deadline: Option<Instant>) -> Answer {
    if past(deadline) {
        return Reply::status_only(id, ReplyStatus::DeadlineExceeded).into();
    }
    // The entry is the active model's answer (the cache is cleared on
    // every change of model), so it is what predicting again returns.
    Answer::Cached {
        id,
        entry,
        hit: true,
    }
}

/// A `source` request in its worker turn. `probe` is its admission
/// lookup, a miss; without one it is looked up here, so each request is
/// looked up once.
fn source_request(
    state: &Arc<ServerState>,
    id: u64,
    name: &str,
    text: &str,
    deadline: Option<Instant>,
    probe: Option<Probe>,
) -> Answer {
    let Some(extractor) = state.extractor.clone() else {
        return Reply::error(id, "this server was started without MiniHLS source support").into();
    };
    let probe = match probe {
        Some(probe) => probe,
        None => match look_up(state, name, text) {
            (_, Some(entry)) => return cache_hit(id, entry, deadline),
            (probe, None) => probe,
        },
    };
    // Keyed by design name so fault plans can target one design.
    let extracted = run_stage(
        state,
        serve_stages::EXTRACT,
        || name.to_string(),
        || extractor(name, text),
    );
    let (rows, lines) = match extracted.and_then(|e| e) {
        Ok(v) => v,
        Err(failure) => return Reply::error(id, format!("extract failed: {failure}")).into(),
    };
    if past(deadline) {
        return Reply::status_only(id, ReplyStatus::DeadlineExceeded).into();
    }
    let (status, model, vertical, horizontal) = predict_ladder(state, id, &rows, deadline);
    let mut reply = Reply {
        id,
        status,
        model,
        vertical,
        horizontal,
        lines,
        ..Default::default()
    };
    if state.cache.disabled() {
        return reply.into();
    }
    reply.info.insert("cache".into(), "miss".into());
    // Only complete answers are kept: a prediction cut short by its
    // deadline leaves nothing behind.
    if !matches!(status, ReplyStatus::Ok | ReplyStatus::Degraded) {
        return reply.into();
    }
    // The miss encodes its reply once, into the entry's text, and its
    // own frame is written from that text like every hit's.
    let entry = Arc::new(CachedReply::new(reply));
    state
        .cache
        .insert(probe.key, probe.generation, entry.clone());
    Answer::Cached {
        id,
        entry,
        hit: false,
    }
}

fn swap_request(state: &Arc<ServerState>, id: u64, path: &str) -> Reply {
    let loaded = run_stage(
        state,
        serve_stages::SWAP,
        || format!("req-{id}"),
        || ModelArtifact::load(std::path::Path::new(path)),
    );
    let outcome = match loaded.and_then(|l| l) {
        Ok(artifact) => {
            let name = artifact.display_name();
            let mut reg = state.registry.lock().unwrap();
            reg.install(artifact).map(|gate| (name, gate))
        }
        Err(failure) => {
            // A candidate that cannot even load counts as a gate reject:
            // same bookkeeping, same rollback-to-trusted semantics.
            let mut reg = state.registry.lock().unwrap();
            reg.rejects += 1;
            if reg.active().is_some() {
                reg.rollbacks += 1;
            }
            Err(failure)
        }
    };
    let active_now = state.registry.lock().unwrap().active_name();
    match outcome {
        Ok((name, gate)) => {
            // The active-model epoch changed: rows extracted before the
            // swap must never answer post-swap requests.
            state.cache.invalidate();
            if let Some(j) = state.journal.lock().unwrap().as_mut() {
                let _ = j.append(&JournalEvent::SwapCommit {
                    model: name.clone(),
                    mae_v: gate.mae_v,
                    mae_h: gate.mae_h,
                });
            }
            ledger_swap(state, "swap.commit", &name, None);
            let mut r = Reply::status_only(id, ReplyStatus::Ok);
            r.model = name;
            r.info
                .insert("gate_mae_v".into(), format!("{:.4}", gate.mae_v));
            r.info
                .insert("gate_mae_h".into(), format!("{:.4}", gate.mae_h));
            r
        }
        Err(reason) => {
            if let Some(j) = state.journal.lock().unwrap().as_mut() {
                let _ = j.append(&JournalEvent::SwapReject {
                    model: path.to_string(),
                    reason: reason.clone(),
                });
                let _ = j.append(&JournalEvent::Rollback {
                    model: active_now.clone(),
                });
            }
            ledger_swap(state, "swap.reject", path, Some(&reason));
            let mut r = Reply::error(id, format!("swap rejected: {reason}"));
            r.model = active_now;
            r
        }
    }
}

/// Append one `obskit.run.v1` record per swap event when a ledger sink is
/// configured (the quality sentinel reads these back).
fn ledger_swap(state: &ServerState, kind: &str, model: &str, reason: Option<&str>) {
    let Some(sink) = &state.cfg.ledger else {
        return;
    };
    let mut rec = obskit::RunRecord::new(&sink.tool, kind, &sink.version, &sink.git);
    rec.note("model", model);
    if let Some(reason) = reason {
        rec.note("reason", reason);
    }
    let (swaps, rejects, rollbacks) = {
        let r = state.registry.lock().unwrap();
        (r.swaps, r.rejects, r.rollbacks)
    };
    rec.absorb_metrics(&state.metrics.lock().unwrap().snapshot(
        swaps,
        rejects,
        rollbacks,
        state.cache.stats(),
    ));
    let _ = rec.append_to(&sink.path);
}

fn rollback_request(state: &Arc<ServerState>, id: u64) -> Reply {
    let rolled = state.registry.lock().unwrap().rollback();
    match rolled {
        Some(model) => {
            state.cache.invalidate();
            let name = model.display_name();
            if let Some(j) = state.journal.lock().unwrap().as_mut() {
                let _ = j.append(&JournalEvent::Rollback {
                    model: name.clone(),
                });
            }
            let mut r = Reply::status_only(id, ReplyStatus::Ok);
            r.model = name;
            r
        }
        None => Reply::error(id, "no last-good model to roll back to"),
    }
}

fn status_request(state: &Arc<ServerState>, id: u64) -> Reply {
    let mut r = Reply::status_only(id, ReplyStatus::Ok);
    let mut info = BTreeMap::new();
    {
        let reg = state.registry.lock().unwrap();
        r.model = reg.active_name();
        info.insert("swaps".into(), reg.swaps.to_string());
        info.insert("rejects".into(), reg.rejects.to_string());
        info.insert("rollbacks".into(), reg.rollbacks.to_string());
        info.insert("model_generation".into(), reg.generation.to_string());
    }
    {
        let m = state.metrics.lock().unwrap();
        info.insert("admitted".into(), m.admitted.to_string());
        info.insert("completed".into(), m.completed.to_string());
        info.insert("shed".into(), m.shed.to_string());
        info.insert("degraded".into(), m.degraded.to_string());
        info.insert("deadline_missed".into(), m.deadline_missed.to_string());
        info.insert("batches".into(), m.batches.to_string());
        info.insert("coalesced".into(), m.coalesced.to_string());
    }
    {
        let c = state.cache.stats();
        info.insert("cache_lookups".into(), c.lookups.to_string());
        info.insert("cache_hits".into(), c.hits.to_string());
        info.insert("cache_misses".into(), c.misses.to_string());
        info.insert("cache_evictions".into(), c.evictions.to_string());
        info.insert("cache_invalidations".into(), c.invalidations.to_string());
    }
    info.insert("queue_depth".into(), state.queue.depth().to_string());
    info.insert(
        "recovered_lost_in_flight".into(),
        state.recovered.lost_in_flight.to_string(),
    );
    info.insert(
        "recovered_torn_lines".into(),
        state.recovered.torn_lines.to_string(),
    );
    r.info = info;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::LEAF;
    use crate::plan::{FaultKind, FaultRule};
    use mlkit::CompiledEnsemble;
    use std::sync::atomic::AtomicU64;

    pub(crate) fn stump_artifact(version: u64, feature_count: usize) -> ModelArtifact {
        let nodes = vec![(0u32, 1, 2, 3.0), (LEAF, 0, 0, 10.0), (LEAF, 0, 0, 90.0)];
        let mk = |base: f64| {
            CompiledEnsemble::from_raw(base, 1.0, vec![0], nodes.clone(), feature_count).unwrap()
        };
        ModelArtifact {
            name: "gbrt".into(),
            version,
            feature_count,
            trained_on: "unit".into(),
            vertical: mk(1.0),
            horizontal: mk(0.5),
        }
    }

    fn start_simple(cfg: ServeConfig) -> Server {
        let (s, report) = Server::start(cfg, Some(stump_artifact(1, 4)), None).unwrap();
        assert!(report.install_error.is_none(), "{report:?}");
        s
    }

    #[test]
    fn predict_round_trips_through_the_active_model() {
        let s = start_simple(ServeConfig::default());
        let reply = s.call(Request::predict(
            1,
            vec![vec![1.0; 4], vec![9.0, 0.0, 0.0, 0.0]],
        ));
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.model, "gbrt@v1");
        assert_eq!(reply.vertical, vec![11.0, 91.0]); // base 1 + leaf
        assert_eq!(reply.horizontal, vec![10.5, 90.5]);
        let sum = s.shutdown();
        assert_eq!(sum.metrics.completed, 1);
        assert_eq!(sum.metrics.errors, 0);
    }

    #[test]
    fn malformed_rows_get_typed_errors() {
        let s = start_simple(ServeConfig::default());
        let r = s.call(Request::predict(1, vec![vec![1.0; 4], vec![1.0; 3]]));
        assert_eq!(r.status, ReplyStatus::Error);
        assert!(r.error.unwrap().contains("row 1"));
        // Empty batch is fine.
        let r = s.call(Request::predict(2, vec![]));
        assert_eq!(r.status, ReplyStatus::Ok);
        s.shutdown();
    }

    #[test]
    fn no_model_degrades_to_analytic() {
        let (s, _) = Server::start(ServeConfig::default(), None, None).unwrap();
        let r = s.call(Request::predict(5, vec![vec![2.0; 302]]));
        assert_eq!(r.status, ReplyStatus::Degraded);
        assert_eq!(r.model, "analytic");
        assert!(r.degraded());
        assert_eq!(r.vertical.len(), 1);
        let sum = s.shutdown();
        assert_eq!(sum.metrics.degraded, 1);
    }

    #[test]
    fn zero_deadline_is_cooperatively_cancelled() {
        let s = start_simple(ServeConfig::default());
        let mut req = Request::predict(3, vec![vec![0.0; 4]]);
        req.deadline_ms = Some(0);
        // An already-expired deadline is caught at dequeue.
        std::thread::sleep(Duration::from_millis(2));
        let r = s.call(req);
        assert_eq!(r.status, ReplyStatus::DeadlineExceeded);
        let sum = s.shutdown();
        assert_eq!(sum.metrics.deadline_missed, 1);
    }

    #[test]
    fn a_lone_predict_stops_at_its_deadline_and_a_coalesced_one_runs_on() {
        // Requests 1 and 11 each predict past their deadline.
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::new(
                "req-1",
                serve_stages::PREDICT,
                FaultKind::Delay(Duration::from_millis(50)),
            ))
            .with_rule(FaultRule::new(
                "req-11",
                serve_stages::PREDICT,
                FaultKind::Delay(Duration::from_millis(600)),
            ));
        let gate = Arc::new(WorkGate::closed());
        let s = start_simple(ServeConfig {
            batch_max_rows: 64,
            plan: Some(Arc::new(plan)),
            pace_gate: Some(gate.clone()),
            ..ServeConfig::default()
        });
        // Alone, request 1's deadline is checked between chunks.
        let mut lone = Request::predict(1, vec![vec![1.0; 4]]);
        lone.deadline_ms = Some(20);
        let late = drained(&s, &gate, lone);
        assert_eq!(late.status, ReplyStatus::DeadlineExceeded, "{late:?}");
        assert_eq!(late.model, "gbrt@v1");
        assert!(late.vertical.is_empty() && late.horizontal.is_empty());
        // Request 11 passed its dequeue check as a batch member, so the
        // batch runs to completion.
        let mut first = Request::predict(11, vec![vec![1.0; 4]]);
        first.deadline_ms = Some(300);
        let rxs = [
            s.submit(first),
            s.submit(Request::predict(12, vec![vec![9.0, 0.0, 0.0, 0.0]])),
        ];
        gate.release(1);
        let replies: Vec<Reply> = rxs
            .iter()
            .map(|rx| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        assert_eq!(replies[0].status, ReplyStatus::Ok, "{:?}", replies[0]);
        assert_eq!(replies[0].vertical, vec![11.0]);
        assert_eq!(replies[1].vertical, vec![91.0]);
        let sum = s.shutdown();
        assert_eq!((sum.metrics.batches, sum.metrics.coalesced), (1, 2));
        assert_eq!(sum.metrics.deadline_missed, 1);
    }

    #[test]
    fn coalesced_batch_replies_match_per_request_bits() {
        // Hold the worker on the pacing gate while requests pile up, so a
        // real multi-request batch forms; then compare against the
        // unbatched config, bit for bit.
        let gate = Arc::new(WorkGate::closed());
        let cfg = ServeConfig {
            batch_max_rows: 64,
            pace_gate: Some(gate.clone()),
            ..ServeConfig::default()
        };
        let s = start_simple(cfg);
        let reqs: Vec<Request> = (0..8)
            .map(|i| {
                Request::predict(
                    i + 1,
                    vec![vec![i as f64; 4], vec![9.0 - i as f64, 0.0, 0.0, 0.0]],
                )
            })
            .collect();
        let rxs: Vec<_> = reqs.iter().map(|r| s.submit(r.clone())).collect();
        gate.open();
        let batched: Vec<Reply> = rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
        let sum = s.shutdown();
        assert!(sum.metrics.batches >= 1, "a multi-request batch must form");
        assert!(sum.metrics.coalesced >= 2);
        // Every request carries two rows, and every member is merged.
        assert_eq!(sum.metrics.batch_rows, 2 * sum.metrics.coalesced);

        let single = start_simple(ServeConfig {
            batch_max_rows: 1,
            ..ServeConfig::default()
        });
        for (req, b) in reqs.iter().zip(&batched) {
            let r = single.call(req.clone());
            assert_eq!(r.status, b.status);
            assert_eq!(r.model, b.model);
            assert_eq!(
                r.vertical.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.vertical.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "vertical bits must match for id {}",
                req.id
            );
            assert_eq!(
                r.horizontal.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.horizontal.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
        single.shutdown();
    }

    #[test]
    fn source_cache_hits_skip_extraction_and_swaps_invalidate() {
        let extractions = Arc::new(AtomicU64::new(0));
        let counter = extractions.clone();
        let extractor: Arc<SourceExtractor> = Arc::new(move |_name, text: &str| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok((Matrix::from_rows(&[vec![text.len() as f64; 4]]), vec![1]))
        });
        let dir = std::env::temp_dir().join(format!("servekit-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v2 = dir.join("v2.json");
        stump_artifact(2, 4).save(&v2).unwrap();
        let (s, _) = Server::start(
            ServeConfig::default(),
            Some(stump_artifact(1, 4)),
            Some(extractor),
        )
        .unwrap();
        let src = |id| Request {
            id,
            deadline_ms: None,
            body: RequestBody::Source {
                name: "d".into(),
                text: "int32 f() { return 1; }".into(),
            },
        };
        let r1 = s.call(src(1));
        assert_eq!(r1.info.get("cache").map(String::as_str), Some("miss"));
        let r2 = s.call(src(2));
        assert_eq!(r2.info.get("cache").map(String::as_str), Some("hit"));
        assert_eq!(
            extractions.load(Ordering::SeqCst),
            1,
            "hit skips extraction"
        );
        assert_eq!(r1.vertical, r2.vertical, "the cached answer is the miss's");
        // Swap invalidates: the same design re-extracts under the new
        // model epoch.
        let swap = s.call(Request {
            id: 3,
            deadline_ms: None,
            body: RequestBody::Swap {
                path: v2.to_string_lossy().into_owned(),
            },
        });
        assert_eq!(swap.status, ReplyStatus::Ok, "{swap:?}");
        let r3 = s.call(src(4));
        assert_eq!(r3.info.get("cache").map(String::as_str), Some("miss"));
        assert_eq!(r3.model, "gbrt@v2");
        assert_eq!(extractions.load(Ordering::SeqCst), 2);
        let stats = s.cache_stats();
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        assert_eq!(stats.invalidations, 1);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A server over the stump artifact whose extractor counts its calls,
    /// with `plan` armed.
    fn start_counting(plan: FaultPlan) -> (Server, Arc<AtomicU64>) {
        start_counting_with(ServeConfig {
            plan: Some(Arc::new(plan)),
            ..ServeConfig::default()
        })
    }

    /// A server over the stump artifact whose extractor counts its calls.
    fn start_counting_with(cfg: ServeConfig) -> (Server, Arc<AtomicU64>) {
        let extractions = Arc::new(AtomicU64::new(0));
        let counter = extractions.clone();
        let extractor: Arc<SourceExtractor> = Arc::new(move |_name, _text| {
            counter.fetch_add(1, Ordering::SeqCst);
            let rows = Matrix::from_rows(&[vec![1.0; 4], vec![9.0, 0.0, 0.0, 0.0]]);
            Ok((rows, vec![3, 4]))
        });
        let (s, report) = Server::start(cfg, Some(stump_artifact(1, 4)), Some(extractor)).unwrap();
        assert!(report.install_error.is_none(), "{report:?}");
        (s, extractions)
    }

    fn source(id: u64, deadline_ms: Option<u64>) -> Request {
        source_of("d", id, deadline_ms)
    }

    fn source_of(name: &str, id: u64, deadline_ms: Option<u64>) -> Request {
        Request {
            id,
            deadline_ms,
            body: RequestBody::Source {
                name: name.into(),
                text: "int32 f() { return 1; }".into(),
            },
        }
    }

    fn cache_of(r: &Reply) -> Option<&str> {
        r.info.get("cache").map(String::as_str)
    }

    /// A server whose only worker drains only when `gate` grants a permit.
    fn start_gated() -> (Server, Arc<AtomicU64>, Arc<WorkGate>) {
        let gate = Arc::new(WorkGate::closed());
        let (s, extractions) = start_counting_with(ServeConfig {
            pace_gate: Some(gate.clone()),
            ..ServeConfig::default()
        });
        (s, extractions, gate)
    }

    /// Submit `req` and let the worker drain exactly it.
    fn drained(s: &Server, gate: &WorkGate, req: Request) -> Reply {
        let rx = s.submit(req);
        gate.release(1);
        rx.recv_timeout(Duration::from_secs(10))
            .expect("one permit drains the request")
    }

    #[test]
    fn a_hit_needs_no_worker() {
        let (s, extractions, gate) = start_gated();
        let miss = drained(&s, &gate, source(1, None));
        assert_eq!(cache_of(&miss), Some("miss"));
        // The worker now waits for a permit that never comes.
        let hit = s
            .submit(source(2, None))
            .try_recv()
            .expect("a hit on an idle server is answered before submit returns");
        assert_eq!(cache_of(&hit), Some("hit"));
        assert_eq!((hit.id, hit.status), (2, ReplyStatus::Ok));
        assert_eq!(hit.model, "gbrt@v1");
        assert_eq!(bits(&hit.vertical), bits(&miss.vertical));
        assert_eq!(bits(&hit.horizontal), bits(&miss.horizontal));
        assert_eq!(hit.lines, miss.lines);
        assert_eq!(extractions.load(Ordering::SeqCst), 1);
        let m = s.metrics();
        assert_eq!(m.counters["serve.admitted"], 2);
        assert_eq!(m.counters["serve.completed"], 2);
        assert_eq!(m.histograms["serve.latency_ms"].count(), 2);
        s.shutdown();
    }

    #[test]
    fn a_hit_behind_queued_work_waits_its_turn() {
        let dir = std::env::temp_dir().join(format!("servekit-turn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v2 = dir.join("v2.json");
        stump_artifact(2, 4).save(&v2).unwrap();
        let (s, extractions, gate) = start_gated();
        assert_eq!(cache_of(&drained(&s, &gate, source(1, None))), Some("miss"));
        let swap = s.submit(Request {
            id: 2,
            deadline_ms: None,
            body: RequestBody::Swap {
                path: v2.to_string_lossy().into_owned(),
            },
        });
        // Warm, but queued behind the swap: no answer until the gate opens.
        let behind = s.submit(source(3, None));
        assert!(
            behind.recv_timeout(Duration::from_millis(100)).is_err(),
            "a hit behind queued work was answered ahead of it"
        );
        gate.open();
        let swap = swap.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(swap.status, ReplyStatus::Ok, "{swap:?}");
        let r = behind.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(cache_of(&r), Some("miss"), "the swap cleared the entry");
        assert_eq!((r.status, r.model.as_str()), (ReplyStatus::Ok, "gbrt@v2"));
        assert_eq!(extractions.load(Ordering::SeqCst), 2);
        let stats = s.cache_stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (2, 0, 2));
        assert_eq!(stats.invalidations, 1);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_admission_miss_is_looked_up_once() {
        let (s, extractions, gate) = start_gated();
        // Idle: looked up at admission, a miss the worker extracts…
        assert_eq!(
            cache_of(&drained(&s, &gate, source_of("a", 1, None))),
            Some("miss")
        );
        // …then a hit answered at admission.
        let hit = s.submit(source_of("a", 2, None)).try_recv().unwrap();
        assert_eq!(cache_of(&hit), Some("hit"));
        // Busy: `b` is looked up at admission (a miss); the two behind it
        // are looked up by the worker in their turn (both hits).
        let rxs: Vec<_> = [("b", 3), ("b", 4), ("a", 5)]
            .into_iter()
            .map(|(name, id)| s.submit(source_of(name, id, None)))
            .collect();
        gate.open();
        let replies: Vec<Reply> = rxs
            .into_iter()
            .map(|rx| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        let caches: Vec<_> = replies.iter().map(cache_of).collect();
        assert_eq!(caches, [Some("miss"), Some("hit"), Some("hit")]);
        assert_eq!(extractions.load(Ordering::SeqCst), 2);
        let stats = s.cache_stats();
        assert_eq!(stats.lookups, 5, "one lookup per source request: {stats:?}");
        assert_eq!((stats.hits, stats.misses), (3, 2));
        s.shutdown();
    }

    #[test]
    fn a_predict_over_several_chunks_matches_per_row_bits() {
        let s = start_simple(ServeConfig::default());
        let rows: Vec<Vec<f64>> = (0..2 * PREDICT_CHUNK + 1)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64, 0.5, i as f64])
            .collect();
        let r = s.call(Request::predict(1, rows.clone()));
        assert_eq!(r.status, ReplyStatus::Ok);
        s.shutdown();
        let model = stump_artifact(1, 4);
        let per_row = |m: &CompiledEnsemble| -> Vec<u64> {
            rows.iter()
                .map(|row| {
                    let mut out = [0.0];
                    m.predict_into(&Matrix::from_rows(std::slice::from_ref(row)), &mut out);
                    out[0].to_bits()
                })
                .collect()
        };
        assert_eq!(bits(&r.vertical), per_row(&model.vertical));
        assert_eq!(bits(&r.horizontal), per_row(&model.horizontal));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_hit_never_predicts() {
        // Request 2's prediction fails: were the hit to predict, it would
        // demote the model and answer degraded.
        let plan = FaultPlan::new(1).with_rule(FaultRule::new(
            "req-2",
            serve_stages::PREDICT,
            FaultKind::Error,
        ));
        let (s, extractions) = start_counting(plan);
        let miss = s.call(source(1, None));
        assert_eq!(miss.info.get("cache").map(String::as_str), Some("miss"));
        assert_eq!(miss.status, ReplyStatus::Ok);
        let hit = s.call(source(2, None));
        assert_eq!(hit.info.get("cache").map(String::as_str), Some("hit"));
        assert_eq!(hit.status, ReplyStatus::Ok, "{hit:?}");
        assert_eq!(hit.model, "gbrt@v1");
        assert_eq!(bits(&hit.vertical), bits(&miss.vertical));
        assert_eq!(bits(&hit.horizontal), bits(&miss.horizontal));
        assert_eq!(hit.lines, vec![3, 4]);
        assert_eq!(extractions.load(Ordering::SeqCst), 1);
        assert_eq!(s.active_model(), "gbrt@v1", "nothing demoted");
        let sum = s.shutdown();
        assert_eq!(sum.metrics.injected, 0, "the hit entered no predict stage");
        assert_eq!(sum.metrics.degraded, 0);
    }

    #[test]
    fn a_miss_cut_short_by_its_deadline_leaves_no_entry() {
        // Request 1's prediction sleeps past its 20 ms deadline.
        let plan = FaultPlan::new(1).with_rule(FaultRule::new(
            "req-1",
            serve_stages::PREDICT,
            FaultKind::Delay(Duration::from_millis(50)),
        ));
        let (s, extractions) = start_counting(plan);
        let late = s.call(source(1, Some(20)));
        assert_eq!(late.status, ReplyStatus::DeadlineExceeded, "{late:?}");
        assert_eq!(late.info.get("cache").map(String::as_str), Some("miss"));
        let again = s.call(source(2, None));
        assert_eq!(again.info.get("cache").map(String::as_str), Some("miss"));
        assert_eq!(again.status, ReplyStatus::Ok);
        assert_eq!(extractions.load(Ordering::SeqCst), 2);
        let stats = s.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        s.shutdown();
    }

    #[test]
    fn a_degraded_answer_after_a_demotion_is_not_kept() {
        // Request 1's prediction fails: the model is demoted to nothing,
        // which bumps the generation before the miss inserts.
        let plan = FaultPlan::new(1).with_rule(FaultRule::new(
            "req-1",
            serve_stages::PREDICT,
            FaultKind::Error,
        ));
        let (s, extractions) = start_counting(plan);
        let first = s.call(source(1, None));
        assert_eq!(first.status, ReplyStatus::Degraded, "{first:?}");
        assert_eq!(s.cache_stats().invalidations, 1, "the stale insert");
        // With no model active, the degraded answer is the active answer
        // and is kept.
        let second = s.call(source(2, None));
        assert_eq!(second.info.get("cache").map(String::as_str), Some("miss"));
        assert_eq!(second.status, ReplyStatus::Degraded);
        let third = s.call(source(3, None));
        assert_eq!(third.info.get("cache").map(String::as_str), Some("hit"));
        assert_eq!(third.status, ReplyStatus::Degraded);
        assert_eq!(third.model, ANALYTIC_MODEL);
        assert_eq!(bits(&third.vertical), bits(&second.vertical));
        assert_eq!(extractions.load(Ordering::SeqCst), 2);
        s.shutdown();
    }

    #[test]
    fn a_failing_extraction_runs_once() {
        // An extractor that rejects `bad` and panics on `boom`: each
        // failure is deterministic, so the stage runs once.
        let calls = Arc::new(AtomicU64::new(0));
        let counter = calls.clone();
        let extractor: Arc<SourceExtractor> = Arc::new(move |_name, text: &str| {
            counter.fetch_add(1, Ordering::SeqCst);
            match text {
                "boom" => panic!("extractor bug"),
                _ => Err("parse error at 1:1".to_string()),
            }
        });
        let (s, _) = Server::start(
            ServeConfig::default(),
            Some(stump_artifact(1, 4)),
            Some(extractor),
        )
        .unwrap();
        let ask = |id, text: &str| {
            s.call(Request {
                id,
                deadline_ms: None,
                body: RequestBody::Source {
                    name: "d".into(),
                    text: text.into(),
                },
            })
        };
        let rejected = ask(1, "bad");
        assert_eq!(rejected.status, ReplyStatus::Error);
        assert_eq!(
            rejected.error.as_deref(),
            Some("extract failed: parse error at 1:1")
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "an error runs once");
        let panicked = ask(2, "boom");
        assert_eq!(panicked.status, ReplyStatus::Error);
        assert_eq!(
            panicked.error.as_deref(),
            Some("extract failed: panic: extractor bug")
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2, "a panic runs once");
        let m = s.metrics();
        assert_eq!(m.counters["serve.errors"], 2);
        // Exactly these counters: no stage retries, so none counts retries.
        let counters: Vec<&str> = m.counters.keys().map(String::as_str).collect();
        assert_eq!(
            counters,
            [
                "serve.admitted",
                "serve.batch.coalesced_requests",
                "serve.batch.formed",
                "serve.batch.rows",
                "serve.cache.evictions",
                "serve.cache.hits",
                "serve.cache.invalidations",
                "serve.cache.lookups",
                "serve.cache.misses",
                "serve.completed",
                "serve.deadline_missed",
                "serve.degraded",
                "serve.errors",
                "serve.injected",
                "serve.shed",
                "serve.swap.committed",
                "serve.swap.rejected",
                "serve.swap.rollbacks",
            ]
        );
        s.shutdown();
    }

    #[test]
    fn an_injected_predict_error_demotes_on_the_first_request() {
        // No second attempt recovers it: the first request the rule
        // matches demotes the model and is answered on the analytic rung.
        let plan = FaultPlan::new(1).with_rule(FaultRule::new(
            "*",
            serve_stages::PREDICT,
            FaultKind::Error,
        ));
        let s = start_simple(ServeConfig {
            plan: Some(Arc::new(plan)),
            ..ServeConfig::default()
        });
        let r = s.call(Request::predict(1, vec![vec![1.0; 4]]));
        assert_eq!(r.status, ReplyStatus::Degraded, "{r:?}");
        assert_eq!(r.model, ANALYTIC_MODEL);
        assert_eq!(s.active_model(), ANALYTIC_MODEL);
        let m = s.metrics();
        assert_eq!(m.counters["serve.injected"], 1);
        assert_eq!(m.counters["serve.swap.rollbacks"], 1);
        s.shutdown();
    }

    #[test]
    fn injected_faults_are_answered_with_their_stage_and_design() {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::new(
                "req-2",
                serve_stages::SWAP,
                FaultKind::Panic,
            ))
            .with_rule(FaultRule::new(
                "req-3",
                serve_stages::ADMISSION,
                FaultKind::Error,
            ));
        let s = start_simple(ServeConfig {
            plan: Some(Arc::new(plan)),
            ..ServeConfig::default()
        });
        let swap = s.call(Request {
            id: 2,
            deadline_ms: None,
            body: RequestBody::Swap {
                path: "unread.json".into(),
            },
        });
        assert_eq!(
            swap.error.as_deref(),
            Some("swap rejected: panic: injected panic at `serve.swap` (design `req-2`)")
        );
        assert_eq!(swap.model, "gbrt@v1");
        let refused = s.call(Request::predict(3, vec![vec![1.0; 4]]));
        assert_eq!(
            refused.error.as_deref(),
            Some(
                "admission failed: injected transient error at `serve.admission` (design `req-3`)"
            )
        );
        let ok = s.call(Request::predict(4, vec![vec![1.0; 4]]));
        assert_eq!(ok.status, ReplyStatus::Ok);
        let m = s.metrics();
        assert_eq!(m.counters["serve.injected"], 2);
        assert_eq!(m.counters["serve.swap.rejected"], 1);
        s.shutdown();
    }

    #[test]
    fn status_and_shutdown_requests_work() {
        let s = start_simple(ServeConfig::default());
        let r = s.call(Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Status,
        });
        assert_eq!(r.status, ReplyStatus::Ok);
        assert_eq!(r.model, "gbrt@v1");
        assert_eq!(r.info.get("queue_depth").unwrap(), "0");
        let r = s.call(Request {
            id: 2,
            deadline_ms: None,
            body: RequestBody::Shutdown,
        });
        assert_eq!(r.status, ReplyStatus::Ok);
        assert!(s.is_shutting_down());
        s.shutdown();
    }
}
