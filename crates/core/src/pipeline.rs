//! The end-to-end congestion-prediction pipeline (paper Fig 2).
//!
//! Dataset construction is the most expensive step of the training phase —
//! every design goes through HLS and a full simulated place-and-route — so
//! [`CongestionFlow::build_dataset_report`] fans designs out across worker
//! threads with [`parkit::par_map_threads`] and merges the per-design
//! samples back **in input order**, making the parallel output
//! bit-identical to the serial path. Each worker takes one design straight
//! through HLS → place-and-route → features; designs are independent, so
//! the workers already overlap different stages of different designs.
//!
//! It is also *supervised*: each design's stages (`hls`, `par`, `features`)
//! run under a [`faultkit::Supervisor`] that catches panics at the stage
//! boundary, retries transient failures with deterministic backoff, and
//! downgrades terminal failures into the per-design [`DesignFailure`]
//! taxonomy — a bad design costs its own samples, never the batch. With a
//! checkpoint directory configured, every design's verdict (success *or*
//! failure) persists incrementally, so a killed run resumed with the same
//! configuration recomputes nothing.

use crate::backtrace::BacktraceError;
use crate::dataset::CongestionDataset;
use crate::features::ExtractKernel;
use crate::persist::{
    CheckpointEntry, CheckpointLookup, CheckpointStore, PersistError, RecordedFailure,
};
use faultkit::{FaultPlan, StageFailure, StageLog, Supervisor, SupervisorPolicy};
use fpga_fabric::par::{run_par, run_par_obs, ParOptions};
use fpga_fabric::place::PlaceStats;
use fpga_fabric::route::RouteStats;
use fpga_fabric::{Device, ImplResult};
use hls_ir::Module;
use hls_synth::{HlsFlow, HlsOptions, SynthError, SynthesizedDesign};
use obskit::{Collector, ObsRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where (and whether) a dataset build checkpoints per-design outcomes.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding one entry (CSV + JSON meta) per design.
    pub dir: PathBuf,
    /// Replay committed entries instead of recomputing their designs.
    /// When `false` the run still *writes* checkpoints but starts fresh.
    pub resume: bool,
}

/// Drives HLS + (for the training phase) simulated PAR over designs.
#[derive(Debug, Clone)]
pub struct CongestionFlow {
    /// HLS options.
    pub hls: HlsOptions,
    /// PAR options.
    pub par: ParOptions,
    /// Target device.
    pub device: Device,
    /// Worker threads for dataset construction. `None` (the default) uses
    /// [`parkit::num_threads`], which honours `RAYON_NUM_THREADS`.
    pub workers: Option<usize>,
    /// Feature-extraction kernel. Both kernels are bitwise identical;
    /// `Reference` keeps the original per-node allocation path alive for
    /// differential tests and benchmarks.
    pub extract: ExtractKernel,
    /// Per-stage retry/budget policy for dataset construction.
    pub supervision: SupervisorPolicy,
    /// Fault plan armed during dataset construction (chaos testing).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Per-design checkpointing for dataset construction.
    pub checkpoint: Option<CheckpointConfig>,
}

impl CongestionFlow {
    /// Default flow: 10 ns clock on the paper's XC7Z020-like device.
    pub fn new() -> Self {
        CongestionFlow {
            hls: HlsOptions::default(),
            par: ParOptions::default(),
            device: Device::xc7z020(),
            workers: None,
            extract: ExtractKernel::default(),
            supervision: SupervisorPolicy::default(),
            fault_plan: None,
            checkpoint: None,
        }
    }

    /// Reduced-effort flow for tests and doc examples.
    pub fn fast() -> Self {
        CongestionFlow {
            par: ParOptions::fast(),
            ..Self::new()
        }
    }

    /// Set an explicit worker count for dataset construction.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Select the feature-extraction kernel.
    pub fn with_extract_kernel(mut self, kernel: ExtractKernel) -> Self {
        self.extract = kernel;
        self
    }

    /// Set the per-stage retry/budget policy.
    pub fn with_supervision(mut self, policy: SupervisorPolicy) -> Self {
        self.supervision = policy;
        self
    }

    /// Arm a fault plan for chaos testing. Also silences the default panic
    /// hook's backtrace spew for injected panics — they are expected and
    /// caught.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        faultkit::silence_injected_panics();
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Checkpoint per-design outcomes under `dir`; with `resume`, replay
    /// entries committed by a previous run of the same configuration.
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>, resume: bool) -> Self {
        self.checkpoint = Some(CheckpointConfig {
            dir: dir.into(),
            resume,
        });
        self
    }

    /// Digest of everything that determines a design's samples: HLS and
    /// PAR options, and the target device. Checkpoints are keyed by this,
    /// so entries from a differently-configured run are never resumed.
    /// Worker count, extract kernel, fault plan, and supervision policy are
    /// deliberately excluded — they change *how* the answer is computed,
    /// not the answer (the extract kernels are bitwise identical by
    /// contract, enforced by the differential tests).
    pub fn config_digest(&self) -> u64 {
        let opts = format!("{:?}|{:?}|{}", self.hls, self.par, self.device.name);
        obskit::fnv1a(&[b"congestion-flow-v1", opts.as_bytes()])
    }

    /// HLS only — the prediction phase's input.
    ///
    /// # Errors
    /// Returns [`SynthError`] when the module fails IR verification.
    pub fn synthesize(&self, module: &Module) -> Result<SynthesizedDesign, SynthError> {
        HlsFlow::new(self.hls.clone()).run(module)
    }

    /// Full C-to-FPGA: HLS plus simulated place-and-route — the training
    /// phase's label source.
    ///
    /// # Errors
    /// Returns [`SynthError`] when the module fails IR verification.
    pub fn implement(
        &self,
        module: &Module,
    ) -> Result<(SynthesizedDesign, ImplResult), SynthError> {
        let design = self.synthesize(module)?;
        let impl_result = run_par(&design, &self.device, &self.par);
        Ok((design, impl_result))
    }

    /// [`Self::implement`] recording into an [`obskit::Collector`]: a
    /// `design` root span with `hls`/`place`/`route`/`congestion`/`timing`
    /// child spans plus the router's registry metrics. Used by the CLI's
    /// `implement --trace-out`.
    ///
    /// # Errors
    /// Returns [`SynthError`] when the module fails IR verification; the
    /// partial `hls` span (annotated with the error) is still recorded.
    pub fn implement_observed(
        &self,
        module: &Module,
        obs: &Collector,
    ) -> Result<(SynthesizedDesign, ImplResult), SynthError> {
        let mut design_span = obs.span("design");
        design_span.arg("design", module.name.clone());
        let mut hls_span = obs.span("hls");
        let design = match self.synthesize(module) {
            Ok(d) => d,
            Err(e) => {
                hls_span.arg("error", e.to_string());
                drop(hls_span);
                design_span.arg("outcome", "failed");
                return Err(e);
            }
        };
        hls_span.end();
        let (impl_result, _timings) = run_par_obs(&design, &self.device, &self.par, obs);
        Ok((design, impl_result))
    }

    /// Build a labelled dataset from several designs (the paper combines
    /// three suite groups into 8111 samples).
    ///
    /// Compatibility wrapper over [`Self::build_dataset_report`]: same
    /// samples in the same order, but fail-fast in the result type.
    ///
    /// # Errors
    /// Returns the first (in input order) design's failure.
    pub fn build_dataset(&self, modules: &[Module]) -> Result<CongestionDataset, DesignFailure> {
        self.build_dataset_report(modules).into_result()
    }

    /// Build a labelled dataset, implementing designs on parallel workers
    /// and reporting per-design outcomes and per-stage timings.
    ///
    /// Properties:
    ///
    /// - **Deterministic**: samples are merged in design input order, and
    ///   each design's HLS/PAR run is seeded, so the dataset — and every
    ///   supervision log, injection decision, and retry schedule — is
    ///   bit-identical regardless of worker count.
    /// - **Fault-tolerant**: a failing design is recorded in
    ///   [`DatasetBuildReport::designs`] (with its [`DesignFailure`]
    ///   taxonomy entry) and does not abort the build; panics are caught at
    ///   stage boundaries and degrade the same way.
    /// - **Resumable**: with [`Self::with_checkpoint`], each design's
    ///   verdict persists as soon as it is known; a resumed run replays
    ///   committed verdicts instead of recomputing them.
    pub fn build_dataset_report(&self, modules: &[Module]) -> DatasetBuildReport {
        let start = Instant::now();
        let requested = self.workers.unwrap_or_else(parkit::num_threads);
        let store = self.open_checkpoint_store();
        let st = store.as_ref().and_then(|s| s.as_ref().ok());
        let results =
            parkit::par_map_threads(requested, modules, |m| self.implement_for_dataset(m, st));

        // Merge in input order — bit-identical to the serial loop. The
        // per-design obskit records merge under the same rule, so every
        // deterministic metric (counters, histogram bins) is identical
        // for any worker count; only wall-clocks vary.
        let root = Collector::new();
        let mut dataset = CongestionDataset::new();
        let mut designs = Vec::with_capacity(results.len());
        {
            let mut build_span = root.span("dataset_build");
            build_span.arg("designs", modules.len().to_string());
            for (ds, report, rec) in results {
                dataset.extend(&ds);
                designs.push(report);
                root.absorb(rec);
            }
        }
        if let Some(Err(e)) = &store {
            // The directory could not even be opened: record it once and
            // run without checkpointing rather than aborting the build.
            root.inc("checkpoint.errors", 1);
            for d in &mut designs {
                d.checkpoint_error.get_or_insert_with(|| e.to_string());
            }
        }
        let wall = start.elapsed();
        root.set_gauge("dataset.wall_ms", wall.as_secs_f64() * 1e3);
        DatasetBuildReport {
            dataset,
            designs,
            workers: requested.clamp(1, modules.len().max(1)),
            wall,
            obs: root.finish(),
        }
    }

    /// Open the configured checkpoint store, if any. The `Err` form is
    /// surfaced in the build report instead of failing the build.
    fn open_checkpoint_store(&self) -> Option<Result<CheckpointStore, PersistError>> {
        self.checkpoint
            .as_ref()
            .map(|c| CheckpointStore::open(&c.dir, self.config_digest()))
    }

    /// The per-design unit of [`Self::build_dataset_report`]: checkpoint
    /// replay, or the three supervised stages back to back on the calling
    /// worker followed by the checkpoint commit. Never panics on a bad
    /// module — or a panicking stage.
    ///
    /// Every stage runs inside an obskit span on the design's own
    /// collector, and [`StageTimings`] is derived from those spans — one
    /// measurement substrate instead of two. A design that fails mid-flow
    /// keeps the spans of every stage it reached, so partial timings
    /// survive into the report (the `hls` span of a design that dies in
    /// synthesis still carries the time spent before the error, including
    /// retried attempts).
    fn implement_for_dataset(
        &self,
        module: &Module,
        store: Option<&CheckpointStore>,
    ) -> DesignResult {
        let obs = Collector::new();
        obs.inc("dataset.designs", 1);

        // Resume fast path: a committed verdict under this configuration
        // short-circuits the whole design.
        if let Some(store) = store {
            if self.checkpoint.as_ref().is_some_and(|c| c.resume) {
                match store.lookup(&module.name) {
                    CheckpointLookup::Hit(entry) => {
                        return self.replay_checkpoint(module, entry, obs);
                    }
                    CheckpointLookup::Miss => {}
                    CheckpointLookup::Corrupt(message) => {
                        // Recompute and overwrite; count the corruption.
                        obs.inc("checkpoint.corrupt", 1);
                        let mut span = obs.span("checkpoint_corrupt");
                        span.arg("design", module.name.clone());
                        span.arg("error", message);
                    }
                }
            }
        }

        let mut supervision: Vec<StageLog> = Vec::new();
        let outcome = {
            let mut design_span = obs.span("design");
            design_span.arg("design", module.name.clone());
            let outcome = self.run_stages(module, &obs, &mut supervision);
            match &outcome {
                Ok((ds, ..)) => {
                    obs.inc("dataset.designs_ok", 1);
                    obs.inc("dataset.samples", ds.len() as u64);
                    design_span.arg("samples", ds.len().to_string());
                }
                Err(_) => {
                    obs.inc("dataset.designs_failed", 1);
                    design_span.arg("outcome", "failed");
                }
            }
            outcome
        };

        let checkpoint_error = store.and_then(|s| {
            let outcome = match &outcome {
                Ok((ds, ..)) => Ok(ds.clone()),
                Err(failure) => Err(failure.recorded()),
            };
            self.commit_checkpoint(
                s,
                &obs,
                CheckpointEntry {
                    design: module.name.clone(),
                    outcome,
                },
            )
        });
        let rec = obs.finish();
        let (ds, outcome, route_stats, place_stats) = match outcome {
            Ok((ds, route_stats, place_stats)) => {
                let n = ds.len();
                (ds, Ok(n), route_stats, place_stats)
            }
            Err(failure) => (
                CongestionDataset::new(),
                Err(failure),
                RouteStats::default(),
                PlaceStats::default(),
            ),
        };
        let report = DesignReport {
            name: module.name.clone(),
            outcome,
            timings: StageTimings::from_record(&rec),
            route_stats,
            place_stats,
            supervision,
            from_checkpoint: false,
            checkpoint_error,
        };
        (ds, report, rec)
    }

    /// HLS → place-and-route → back-trace + features for one design, each
    /// stage under the design's [`Supervisor`] and appending its log to
    /// `supervision`. `InvalidIr` is permanent; injected faults retry.
    /// The features stage rebuilds its dataset per attempt, so a failed
    /// attempt can't leak partial samples.
    fn run_stages(
        &self,
        module: &Module,
        obs: &Collector,
        supervision: &mut Vec<StageLog>,
    ) -> Result<(CongestionDataset, RouteStats, PlaceStats), DesignFailure> {
        let supervisor = Supervisor::new(
            self.supervision.clone(),
            self.fault_plan.clone(),
            &module.name,
        );

        let mut hls_span = obs.span("hls");
        let run =
            supervisor.run_stage("hls", |_| self.synthesize(module), SynthError::is_transient);
        record_stage(obs, &run.log);
        supervision.push(run.log);
        let design = match run.result {
            Ok(design) => design,
            Err(failure) => {
                let failure = DesignFailure::classify("hls", failure, DesignFailure::Synth);
                hls_span.arg("error", failure.to_string());
                return Err(failure);
            }
        };
        hls_span.end();

        // Infallible by type — failures here are panics (real or injected)
        // or budget overruns.
        let run = supervisor.run_stage(
            "par",
            |_| Ok(run_par_obs(&design, &self.device, &self.par, obs)),
            |_: &NoError| false,
        );
        record_stage(obs, &run.log);
        supervision.push(run.log);
        let (impl_result, _) = run
            .result
            .map_err(|failure| DesignFailure::classify("par", failure, |e: NoError| match e {}))?;

        let mut features_span = obs.span("features");
        let run = supervisor.run_stage(
            "features",
            |_| {
                let mut ds = CongestionDataset::new();
                ds.add_design_with(&design, &impl_result, &self.device, self.extract)?;
                Ok(ds)
            },
            BacktraceError::is_transient,
        );
        record_stage(obs, &run.log);
        supervision.push(run.log);
        match run.result {
            Ok(ds) => {
                features_span.end();
                Ok((ds, impl_result.route.stats, impl_result.placement.stats))
            }
            Err(failure) => {
                let failure =
                    DesignFailure::classify("features", failure, DesignFailure::Backtrace);
                features_span.arg("error", failure.to_string());
                Err(failure)
            }
        }
    }

    /// Write one design's verdict to the checkpoint store. A store failure
    /// degrades to a warning on the report (the samples are already in
    /// hand) rather than failing the design.
    fn commit_checkpoint(
        &self,
        store: &CheckpointStore,
        obs: &Collector,
        entry: CheckpointEntry,
    ) -> Option<String> {
        match store.store(&entry) {
            Ok(()) => {
                obs.inc("checkpoint.stored", 1);
                None
            }
            Err(e) => {
                obs.inc("checkpoint.errors", 1);
                Some(e.to_string())
            }
        }
    }

    /// Resume tail: turn a committed checkpoint entry into a report
    /// without running any stage.
    fn replay_checkpoint(
        &self,
        module: &Module,
        entry: CheckpointEntry,
        obs: Collector,
    ) -> DesignResult {
        obs.inc("checkpoint.resumed", 1);
        let mut design_span = obs.span("design");
        design_span.arg("design", module.name.clone());
        design_span.arg("outcome", "resumed");
        let outcome = match entry.outcome {
            Ok(ds) => {
                obs.inc("dataset.designs_ok", 1);
                obs.inc("dataset.samples", ds.len() as u64);
                design_span.arg("samples", ds.len().to_string());
                Ok(ds)
            }
            Err(recorded) => {
                obs.inc("dataset.designs_failed", 1);
                Err(recorded)
            }
        };
        drop(design_span);
        let rec = obs.finish();
        let (ds, outcome) = match outcome {
            Ok(ds) => {
                let n = ds.len();
                (ds, Ok(n))
            }
            Err(recorded) => (
                CongestionDataset::new(),
                Err(DesignFailure::Recorded(recorded)),
            ),
        };
        let report = DesignReport {
            name: module.name.clone(),
            outcome,
            timings: StageTimings::from_record(&rec),
            route_stats: RouteStats::default(),
            place_stats: PlaceStats::default(),
            supervision: Vec::new(),
            from_checkpoint: true,
            checkpoint_error: None,
        };
        (ds, report, rec)
    }
}

/// What one design contributes to a build: its samples, its report row,
/// and its observability record.
type DesignResult = (CongestionDataset, DesignReport, ObsRecord);

/// Fold a stage's supervision log into the design's obskit counters.
fn record_stage(obs: &Collector, log: &StageLog) {
    obs.inc("faultkit.injected", u64::from(log.injected));
    obs.inc("faultkit.retries", u64::from(log.retries()));
    obs.inc("faultkit.recovered_panics", u64::from(log.panics_caught()));
    obs.inc("faultkit.timeouts", u64::from(log.timeouts()));
}

/// Uninhabited error type for supervised stages that are infallible by
/// construction (place-and-route): the only way such a stage fails is a
/// panic or a budget overrun, both handled by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoError {}

impl fmt::Display for NoError {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {}
    }
}

impl Default for CongestionFlow {
    fn default() -> Self {
        CongestionFlow::new()
    }
}

/// Wall-clock spent in each pipeline stage while implementing one design.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// High-level synthesis (schedule + bind).
    pub hls: Duration,
    /// Simulated-annealing placement.
    pub place: Duration,
    /// Capacity-aware global routing.
    pub route: Duration,
    /// Congestion-map extraction.
    pub congestion: Duration,
    /// Static timing analysis.
    pub timing: Duration,
    /// Back-tracing + 302-feature extraction.
    pub features: Duration,
}

impl StageTimings {
    /// Derive stage timings from a design's obskit spans (summed per stage
    /// name). This is the only producer of `StageTimings` in the pipeline —
    /// the spans are the single source of timing truth, and this type is
    /// the stable report-facing view of them.
    pub fn from_record(rec: &ObsRecord) -> StageTimings {
        let stage = |name: &str| Duration::from_micros(rec.span_total_us(name));
        StageTimings {
            hls: stage("hls"),
            place: stage("place"),
            route: stage("route"),
            congestion: stage("congestion"),
            timing: stage("timing"),
            features: stage("features"),
        }
    }

    /// Sum of all stage durations.
    pub fn total(&self) -> Duration {
        self.hls + self.place + self.route + self.congestion + self.timing + self.features
    }

    /// Accumulate another design's timings into this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.hls += other.hls;
        self.place += other.place;
        self.route += other.route;
        self.congestion += other.congestion;
        self.timing += other.timing;
        self.features += other.features;
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hls {} | place {} | route {} | congestion {} | timing {} | features {}",
            fmt_duration(self.hls),
            fmt_duration(self.place),
            fmt_duration(self.route),
            fmt_duration(self.congestion),
            fmt_duration(self.timing),
            fmt_duration(self.features),
        )
    }
}

/// Why one design failed a dataset build — the failure taxonomy. Every
/// variant knows its stage and renders a stable `kind` string, so reports
/// and checkpoints can aggregate failures across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignFailure {
    /// HLS failed (IR verification or an injected synthesis fault).
    Synth(SynthError),
    /// Back-trace / feature extraction failed.
    Backtrace(BacktraceError),
    /// Checkpoint persistence failed in a way that lost the design.
    Persist(PersistError),
    /// A fault plan injected an error at an otherwise-infallible stage and
    /// the retry budget ran out.
    Injected {
        /// Supervised stage name.
        stage: String,
        /// Rendered injected fault.
        message: String,
    },
    /// The stage panicked on its last allowed attempt; the supervisor
    /// caught it at the stage boundary.
    Panic {
        /// Supervised stage name.
        stage: String,
        /// Rendered panic payload.
        message: String,
    },
    /// Every allowed attempt of the stage overran the per-attempt budget.
    Timeout {
        /// Supervised stage name.
        stage: String,
        /// The budget each attempt exceeded.
        budget: Duration,
    },
    /// A failure replayed from a checkpoint written by an earlier run.
    Recorded(RecordedFailure),
}

impl DesignFailure {
    /// Map a supervisor's terminal [`StageFailure`] into the taxonomy.
    /// `wrap` embeds the stage's own typed error.
    fn classify<E>(
        stage: &str,
        failure: StageFailure<E>,
        wrap: impl FnOnce(E) -> DesignFailure,
    ) -> DesignFailure {
        match failure {
            StageFailure::Error(e) => wrap(e),
            StageFailure::Injected { message } => DesignFailure::Injected {
                stage: stage.to_string(),
                message,
            },
            StageFailure::Panic { message, .. } => DesignFailure::Panic {
                stage: stage.to_string(),
                message,
            },
            StageFailure::Timeout { budget } => DesignFailure::Timeout {
                stage: stage.to_string(),
                budget,
            },
        }
    }

    /// Stable taxonomy bucket. A resumed failure keeps the bucket it was
    /// recorded under, so aggregation is identical before and after resume.
    pub fn kind(&self) -> String {
        match self {
            DesignFailure::Synth(SynthError::Injected(_)) => "injected".to_string(),
            DesignFailure::Synth(_) => "synth".to_string(),
            DesignFailure::Backtrace(BacktraceError::Injected(_)) => "injected".to_string(),
            DesignFailure::Backtrace(_) => "backtrace".to_string(),
            DesignFailure::Persist(_) => "persist".to_string(),
            DesignFailure::Injected { .. } => "injected".to_string(),
            DesignFailure::Panic { .. } => "panic".to_string(),
            DesignFailure::Timeout { .. } => "timeout".to_string(),
            DesignFailure::Recorded(r) => r.kind.clone(),
        }
    }

    /// The supervised stage the failure is attributed to.
    pub fn stage(&self) -> String {
        match self {
            DesignFailure::Synth(_) => "hls".to_string(),
            DesignFailure::Backtrace(_) => "features".to_string(),
            DesignFailure::Persist(_) => "persist".to_string(),
            DesignFailure::Injected { stage, .. }
            | DesignFailure::Panic { stage, .. }
            | DesignFailure::Timeout { stage, .. } => stage.clone(),
            DesignFailure::Recorded(r) => r.stage.clone(),
        }
    }

    /// The checkpoint-file form of this failure. Round-trips through
    /// [`DesignFailure::Recorded`] with `kind`/`stage` preserved.
    fn recorded(&self) -> RecordedFailure {
        match self {
            DesignFailure::Recorded(r) => r.clone(),
            other => RecordedFailure {
                kind: other.kind(),
                stage: other.stage(),
                message: other.to_string(),
            },
        }
    }
}

impl fmt::Display for DesignFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignFailure::Synth(e) => write!(f, "{e}"),
            DesignFailure::Backtrace(e) => write!(f, "{e}"),
            DesignFailure::Persist(e) => write!(f, "{e}"),
            DesignFailure::Injected { stage, message } => {
                write!(f, "[{stage}] {message}")
            }
            DesignFailure::Panic { stage, message } => {
                write!(f, "[{stage}] panic: {message}")
            }
            DesignFailure::Timeout { stage, budget } => {
                write!(f, "[{stage}] exceeded stage budget of {budget:?}")
            }
            DesignFailure::Recorded(r) => {
                write!(f, "[{}] {} (from checkpoint)", r.stage, r.message)
            }
        }
    }
}

impl std::error::Error for DesignFailure {}

/// Outcome of implementing one design during a dataset build.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Module name.
    pub name: String,
    /// Number of samples contributed, or the failure that stopped the
    /// design.
    pub outcome: Result<usize, DesignFailure>,
    /// Per-stage wall-clock for this design (stages not reached stay zero).
    pub timings: StageTimings,
    /// Router search-effort counters for this design (zero when the design
    /// failed before routing).
    pub route_stats: RouteStats,
    /// Placer annealing-effort counters for this design (zero when the
    /// design failed before placement).
    pub place_stats: PlaceStats,
    /// Supervision log of every stage attempted: attempts, backoff
    /// schedule, injected-fault counts. Deterministic across worker counts
    /// (`StageLog: PartialEq`); empty for checkpoint-resumed designs.
    pub supervision: Vec<StageLog>,
    /// True when this verdict was replayed from a checkpoint rather than
    /// computed.
    pub from_checkpoint: bool,
    /// Warning from the checkpoint store, when the design itself succeeded
    /// but its entry could not be written (the build keeps the samples).
    pub checkpoint_error: Option<String>,
}

impl DesignReport {
    /// True when the design contributed samples.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Total retries across this design's supervised stages.
    pub fn retries(&self) -> u32 {
        self.supervision.iter().map(StageLog::retries).sum()
    }
}

/// Result of [`CongestionFlow::build_dataset_report`]: the merged dataset
/// plus per-design outcomes and timings.
#[derive(Debug, Clone)]
pub struct DatasetBuildReport {
    /// Samples from every successful design, in design input order.
    pub dataset: CongestionDataset,
    /// Per-design outcome and stage timings, in design input order.
    pub designs: Vec<DesignReport>,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall-clock of the build.
    pub wall: Duration,
    /// Merged observability record: per-design/per-stage spans (exportable
    /// as a Chrome trace via [`obskit::sink::chrome_trace_json`]) and the
    /// metrics registry (counters/histograms deterministic for any worker
    /// count; see [`obskit::MetricsSnapshot::deterministic_digest`]).
    pub obs: ObsRecord,
}

impl DatasetBuildReport {
    /// Number of designs that contributed samples.
    pub fn succeeded(&self) -> usize {
        self.designs.iter().filter(|d| d.is_ok()).count()
    }

    /// Number of designs that failed.
    pub fn failed(&self) -> usize {
        self.designs.len() - self.succeeded()
    }

    /// Per-stage wall-clock summed over all designs (CPU time, so with
    /// multiple workers this exceeds [`Self::wall`]).
    pub fn stage_totals(&self) -> StageTimings {
        let mut t = StageTimings::default();
        for d in &self.designs {
            t.accumulate(&d.timings);
        }
        t
    }

    /// Router search-effort counters summed over all designs.
    pub fn route_stats_totals(&self) -> RouteStats {
        let mut s = RouteStats::default();
        for d in &self.designs {
            s.accumulate(&d.route_stats);
        }
        s
    }

    /// Placer annealing-effort counters summed over all designs.
    pub fn place_stats_totals(&self) -> PlaceStats {
        let mut s = PlaceStats::default();
        for d in &self.designs {
            s.accumulate(&d.place_stats);
        }
        s
    }

    /// Number of designs whose verdicts were replayed from a checkpoint.
    pub fn resumed(&self) -> usize {
        self.designs.iter().filter(|d| d.from_checkpoint).count()
    }

    /// Total supervised retries across all designs.
    pub fn total_retries(&self) -> u32 {
        self.designs.iter().map(DesignReport::retries).sum()
    }

    /// Failed designs bucketed by taxonomy kind (`synth`, `panic`,
    /// `timeout`, `injected`, ...), in stable alphabetical order.
    pub fn failure_taxonomy(&self) -> BTreeMap<String, usize> {
        let mut buckets = BTreeMap::new();
        for d in &self.designs {
            if let Err(e) = &d.outcome {
                *buckets.entry(e.kind()).or_insert(0) += 1;
            }
        }
        buckets
    }

    /// Collapse to the fail-fast result the serial pipeline used to return:
    /// the dataset, or the first (in input order) failed design's failure.
    ///
    /// # Errors
    /// Returns the first design failure when any design failed.
    pub fn into_result(self) -> Result<CongestionDataset, DesignFailure> {
        for d in self.designs {
            d.outcome?;
        }
        Ok(self.dataset)
    }

    /// Human-readable per-design and aggregate timing breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "dataset build: {} designs ({} ok, {} failed), {} worker{}, wall {}\n",
            self.designs.len(),
            self.succeeded(),
            self.failed(),
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            fmt_duration(self.wall),
        ));
        if self.resumed() > 0 {
            out.push_str(&format!(
                "  resumed from checkpoint: {} design{}\n",
                self.resumed(),
                if self.resumed() == 1 { "" } else { "s" },
            ));
        }
        if self.total_retries() > 0 {
            out.push_str(&format!("  supervised retries: {}\n", self.total_retries()));
        }
        let taxonomy = self.failure_taxonomy();
        if !taxonomy.is_empty() {
            let buckets: Vec<String> = taxonomy
                .iter()
                .map(|(kind, n)| format!("{kind} ×{n}"))
                .collect();
            out.push_str(&format!("  failure taxonomy: {}\n", buckets.join(", ")));
        }
        out.push_str(&format!("  stage totals: {}\n", self.stage_totals()));
        out.push_str(&format!("  placer: {}\n", self.place_stats_totals()));
        out.push_str(&format!("  router: {}\n", self.route_stats_totals()));
        out.push_str(&format!(
            "  {:<24} {:>8} {:>10}  stages\n",
            "design", "samples", "total"
        ));
        for d in &self.designs {
            let cached = if d.from_checkpoint { " (cached)" } else { "" };
            match &d.outcome {
                Ok(n) => out.push_str(&format!(
                    "  {:<24} {:>8} {:>10}  {}{}\n",
                    d.name,
                    n,
                    fmt_duration(d.timings.total()),
                    d.timings,
                    cached,
                )),
                // A failed design still shows the time it spent in the
                // stages it reached before dying — partial timings are
                // recorded on the error path, not dropped.
                Err(e) => out.push_str(&format!(
                    "  {:<24} {:>8} {:>10}  {}{}  FAILED[{}]: {e}\n",
                    d.name,
                    "-",
                    fmt_duration(d.timings.total()),
                    d.timings,
                    cached,
                    e.kind(),
                )),
            }
            if let Some(w) = &d.checkpoint_error {
                out.push_str(&format!("    checkpoint warning: {w}\n"));
            }
        }
        out
    }
}

/// Compact duration rendering: sub-millisecond in µs, sub-second in ms,
/// otherwise seconds.
fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

// Every type that crosses worker threads during a dataset build. A future
// `Rc`/`RefCell` in any flow type should fail to compile here, not at the
// `par_map` call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CongestionFlow>();
    assert_send_sync::<Module>();
    assert_send_sync::<CongestionDataset>();
    assert_send_sync::<DatasetBuildReport>();
    assert_send_sync::<SynthError>();
    assert_send_sync::<DesignFailure>();
    assert_send_sync::<CheckpointStore>();
    assert_send_sync::<Supervisor>();
    // Finished records are plain data; only the live `Collector` is
    // single-threaded.
    assert_send_sync::<ObsRecord>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Target;
    use crate::filter::{filter_marginal, FilterOptions};
    use crate::predict::{CongestionPredictor, ModelKind, TrainOptions};
    use hls_ir::frontend::compile_named;
    use hls_ir::Operand;

    fn suite() -> Vec<Module> {
        let sources = [
            "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
            "int32 f(int32 a[32]) { int32 s = 0;\n#pragma HLS unroll factor=4\nfor (i = 0; i < 32; i++) { s = s + a[i]; } return s; }",
            "int32 f(int32 x, int32 y) { return (x * y) + (x - y) * 3; }",
        ];
        sources
            .iter()
            .enumerate()
            .map(|(i, s)| compile_named(s, &format!("d{i}")).unwrap())
            .collect()
    }

    /// A module that compiles but fails IR verification: an operand claims
    /// more wires than its producer drives (same corruption the `hls_ir`
    /// verifier tests use).
    fn broken_module(name: &str) -> Module {
        let mut m = compile_named("int32 f(int32 x, int32 y) { return x + y; }", name).unwrap();
        let top = m.top;
        let f = m.function_mut(top);
        let victim = f
            .ops
            .iter()
            .find(|o| !o.operands.is_empty())
            .map(|o| o.id)
            .unwrap();
        let src = f.op(victim).operands[0].src;
        f.op_mut(victim).operands[0] = Operand::new(src, u16::MAX);
        m
    }

    #[test]
    fn end_to_end_small_training_run() {
        let flow = CongestionFlow::fast();
        let ds = flow.build_dataset(&suite()).unwrap();
        assert!(ds.len() > 20, "dataset too small: {}", ds.len());

        let filtered = filter_marginal(&ds, &FilterOptions::default());
        assert!(filtered.kept.len() <= ds.len());

        let (train, test) = filtered.kept.split(0.2, 9);
        let p = CongestionPredictor::train(
            ModelKind::Gbrt,
            Target::Vertical,
            &train,
            &TrainOptions::fast(),
        );
        let acc = p.evaluate(&test);
        assert!(acc.mae.is_finite() && acc.mae >= 0.0);
    }

    #[test]
    fn prediction_phase_needs_no_par() {
        let flow = CongestionFlow::fast();
        let m = compile_named(
            "int32 f(int32 a[16]) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i]; } return s; }",
            "predict_me",
        )
        .unwrap();
        let ds = flow.build_dataset(std::slice::from_ref(&m)).unwrap();
        let p = CongestionPredictor::train(
            ModelKind::Linear,
            Target::Average,
            &ds,
            &TrainOptions::fast(),
        );
        // New design: HLS only, then predict.
        let design = flow.synthesize(&m).unwrap();
        let preds = p.predict_design(&design, &flow.device);
        assert!(!preds.is_empty());
        assert!(preds.iter().all(|q| q.predicted.is_finite()));
    }

    #[test]
    fn parallel_build_matches_serial_bit_for_bit() {
        let modules = suite();
        let serial = CongestionFlow::fast()
            .with_workers(1)
            .build_dataset(&modules)
            .unwrap();
        let parallel = CongestionFlow::fast()
            .with_workers(4)
            .build_dataset(&modules)
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn failed_design_is_reported_not_fatal() {
        let mut modules = suite();
        modules.insert(1, broken_module("cursed"));
        let report = CongestionFlow::fast()
            .with_workers(4)
            .build_dataset_report(&modules);

        assert_eq!(report.designs.len(), 4);
        assert_eq!(report.succeeded(), 3);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.designs[1].name, "cursed");
        assert!(report.designs[1].outcome.is_err());
        // Designs after the broken one still contributed samples.
        assert!(report.designs[2].is_ok() && report.designs[3].is_ok());
        assert!(!report.dataset.is_empty());

        // The samples are exactly what a build without the broken design
        // yields — failure removes one design, nothing else.
        let clean = CongestionFlow::fast().build_dataset(&suite()).unwrap();
        assert_eq!(report.dataset, clean);

        // And the fail-fast wrapper surfaces the error.
        assert!(CongestionFlow::fast().build_dataset(&modules).is_err());
    }

    #[test]
    fn report_carries_obs_spans_and_deterministic_counters() {
        let modules = suite();
        let report = CongestionFlow::fast().build_dataset_report(&modules);
        let rec = &report.obs;

        // One design span per module, each annotated with its name.
        let design_spans: Vec<_> = rec.events.iter().filter(|e| e.name == "design").collect();
        assert_eq!(design_spans.len(), modules.len());
        for (m, e) in modules.iter().zip(&design_spans) {
            assert!(e.args.contains(&("design".to_string(), m.name.clone())));
        }
        // Every stage appears as child spans, and the registry agrees with
        // the report.
        for stage in ["hls", "place", "route", "congestion", "timing", "features"] {
            assert_eq!(
                rec.events.iter().filter(|e| e.name == stage).count(),
                modules.len(),
                "missing {stage} spans"
            );
        }
        let m = &rec.metrics;
        assert_eq!(m.counters["dataset.designs"], modules.len() as u64);
        assert_eq!(m.counters["dataset.designs_ok"], report.succeeded() as u64);
        assert_eq!(m.counters["dataset.samples"], report.dataset.len() as u64);
        assert_eq!(
            m.counters["route.expanded_nodes"],
            report.route_stats_totals().expanded_nodes
        );
        // The router's convergence histogram has one sample per recorded
        // pass state (initial + executed refinement passes).
        let h = &m.histograms["route.pass_overflow"];
        assert!(h.count() >= modules.len() as u64);
        // Stage timings are derived from the same spans.
        for d in &report.designs {
            assert!(d.timings.total() > Duration::ZERO);
        }
    }

    #[test]
    fn failed_design_keeps_partial_timings_and_error_span() {
        let modules = vec![broken_module("cursed")];
        let report = CongestionFlow::fast().build_dataset_report(&modules);
        assert_eq!(report.failed(), 1);

        // The failed design's hls span survives, annotated with the error.
        let hls: Vec<_> = report
            .obs
            .events
            .iter()
            .filter(|e| e.name == "hls")
            .collect();
        assert_eq!(hls.len(), 1);
        assert!(hls[0].args.iter().any(|(k, _)| k == "error"));
        // And its partial timing is attributed in the report, consistent
        // with the span.
        assert_eq!(
            report.designs[0].timings.hls,
            Duration::from_micros(hls[0].dur_us)
        );
        assert_eq!(report.obs.metrics.counters["dataset.designs_failed"], 1);
        // The rendered table shows the failed design WITH its stage
        // breakdown (the old renderer dropped it).
        let text = report.render();
        assert!(text.contains("FAILED"));
        let failed_line = text.lines().find(|l| l.contains("FAILED")).unwrap();
        assert!(
            failed_line.contains("hls"),
            "no partial timings: {failed_line}"
        );
    }

    /// Build `d0` alone under a plan that fails `stage` on every attempt.
    fn build_failing_at(stage: &str, kind: faultkit::FaultKind) -> DatasetBuildReport {
        let plan = FaultPlan::new(5)
            .with_rule(faultkit::FaultRule::once("d0", stage, kind).for_attempts(u32::MAX));
        CongestionFlow::fast()
            .with_fault_plan(plan)
            .build_dataset_report(&suite()[..1])
    }

    fn span_args<'a>(rec: &'a ObsRecord, name: &str) -> Vec<&'a [(String, String)]> {
        rec.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.args.as_slice())
            .collect()
    }

    #[test]
    fn par_failure_keeps_hls_and_place_timings() {
        let report = build_failing_at("route", faultkit::FaultKind::Panic);
        let d = &report.designs[0];
        let failure = d.outcome.as_ref().unwrap_err();
        assert_eq!(
            (failure.kind().as_str(), failure.stage().as_str()),
            ("panic", "par")
        );
        // HLS finished and place ran on every attempt before route died.
        assert!(d.timings.hls > Duration::ZERO && d.timings.place > Duration::ZERO);
        assert_eq!(d.timings.features, Duration::ZERO, "features never ran");
        assert_eq!(d.supervision.len(), 2, "hls and par were attempted");
        assert_eq!(span_args(&report.obs, "hls"), vec![&[][..]]);
        assert_eq!(
            span_args(&report.obs, "design"),
            vec![
                &[
                    ("design".to_string(), "d0".to_string()),
                    ("outcome".to_string(), "failed".to_string()),
                ][..]
            ]
        );
        assert!(report.dataset.is_empty());
        assert_eq!(report.obs.metrics.counters["dataset.designs_failed"], 1);
    }

    #[test]
    fn features_failure_keeps_par_timings_and_error_span() {
        let report = build_failing_at("backtrace", faultkit::FaultKind::Error);
        let d = &report.designs[0];
        let failure = d.outcome.as_ref().unwrap_err();
        assert_eq!(
            (failure.kind().as_str(), failure.stage().as_str()),
            ("injected", "features")
        );
        assert!(d.timings.place > Duration::ZERO && d.timings.route > Duration::ZERO);
        assert_eq!(d.supervision.len(), 3);
        // A failed design reports zero effort counters.
        assert_eq!(d.route_stats, RouteStats::default());
        let features = span_args(&report.obs, "features");
        assert_eq!(features.len(), 1);
        assert_eq!(features[0][0].0, "error");
        assert_eq!(report.obs.metrics.counters["dataset.designs_failed"], 1);
    }

    #[test]
    fn design_spans_contain_their_stage_spans_with_pinned_args() {
        let modules = suite();
        let report = CongestionFlow::fast().build_dataset_report(&modules);
        let stages = ["hls", "place", "route", "congestion", "timing", "features"];
        // Each design's stage spans complete before its design span, in
        // flow order, all under the `pipeline` category.
        let mut events = report.obs.events.iter();
        for (m, d) in modules.iter().zip(&report.designs) {
            let own: Vec<_> = events.by_ref().take(stages.len() + 1).collect();
            let names: Vec<&str> = own.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(names[..stages.len()], stages, "{}", m.name);
            let design = own[stages.len()];
            assert_eq!(design.name, "design");
            assert_eq!(
                design.args,
                vec![
                    ("design".to_string(), m.name.clone()),
                    (
                        "samples".to_string(),
                        d.outcome.as_ref().unwrap().to_string()
                    ),
                ]
            );
            for e in &own {
                assert_eq!(e.cat, "pipeline", "{}", e.name);
                assert!(e.ts_us >= design.ts_us, "{} starts inside design", e.name);
                assert!(e.ts_us + e.dur_us <= design.ts_us + design.dur_us);
            }
            assert!(own[..stages.len()].iter().all(|e| e.args.is_empty()));
        }
        let rest: Vec<&str> = events.map(|e| e.name.as_str()).collect();
        assert_eq!(rest, ["dataset_build"]);
    }

    #[test]
    fn corrupt_checkpoint_entry_is_recomputed_and_overwritten() {
        let dir = std::env::temp_dir().join(format!("congest-corrupt-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let modules = suite();
        let first = CongestionFlow::fast()
            .with_checkpoint(&dir, false)
            .build_dataset_report(&modules);
        // Garble every committed meta file of d1.
        let prefix = "d1-";
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            if name.starts_with(prefix) && name.ends_with(".json") {
                std::fs::write(&path, "{not json").unwrap();
            }
        }
        let resumed = CongestionFlow::fast()
            .with_checkpoint(&dir, true)
            .build_dataset_report(&modules);
        assert_eq!(resumed.dataset, first.dataset);
        let from_ckpt: Vec<bool> = resumed.designs.iter().map(|d| d.from_checkpoint).collect();
        assert_eq!(from_ckpt, [true, false, true], "only d1 recomputes");
        assert_eq!(resumed.obs.metrics.counters["checkpoint.corrupt"], 1);
        assert_eq!(span_args(&resumed.obs, "checkpoint_corrupt").len(), 1);
        // The recompute overwrote the entry: the next resume replays all.
        let again = CongestionFlow::fast()
            .with_checkpoint(&dir, true)
            .build_dataset_report(&modules);
        assert_eq!(again.resumed(), modules.len());
        assert_eq!(again.dataset, first.dataset);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_records_stage_timings_and_renders() {
        let modules = suite();
        let report = CongestionFlow::fast().build_dataset_report(&modules);
        assert_eq!(report.succeeded(), modules.len());
        for d in &report.designs {
            assert!(
                d.timings.total() > Duration::ZERO,
                "{}: no time recorded",
                d.name
            );
        }
        assert!(report.stage_totals().total() >= report.wall / 8);
        let text = report.render();
        assert!(text.contains("3 designs (3 ok, 0 failed)"));
        assert!(text.contains("d0") && text.contains("d2"));
        assert!(text.contains("place"));
    }
}
