//! The end-to-end congestion-prediction pipeline (paper Fig 2).
//!
//! Dataset construction is the most expensive step of the training phase —
//! every design goes through HLS and a full simulated place-and-route — so
//! [`CongestionFlow::build_dataset_report`] fans designs out across worker
//! threads with [`parkit::par_map_threads`] and merges the per-design
//! samples back **in input order**, making the parallel output
//! bit-identical to the serial path. Each worker takes one design straight
//! through HLS → place-and-route → features, once; designs are independent,
//! so the workers already overlap different stages of different designs.
//!
//! A bad design costs its own samples, never the batch: each stage (`hls`,
//! `par`, `features`) runs under `catch_unwind`, and a typed error or a
//! panic becomes that design's [`DesignFailure`]. Every stage is
//! deterministic, so a failure would only repeat: nothing is retried.

use crate::backtrace::BacktraceError;
use crate::dataset::CongestionDataset;
use crate::features::ExtractKernel;
use fpga_fabric::par::{run_par, run_par_obs, ParOptions};
use fpga_fabric::place::PlaceStats;
use fpga_fabric::route::RouteStats;
use fpga_fabric::{Device, ImplResult};
use hls_ir::Module;
use hls_synth::{HlsFlow, HlsOptions, SynthError, SynthesizedDesign};
use obskit::{Collector, ObsRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

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

    /// Digest of everything that determines a design's samples: HLS and
    /// PAR options, and the target device. Ledger records carry it, so two
    /// runs can be told apart by configuration. Worker count and extract
    /// kernel are deliberately excluded — they change *how* the answer is
    /// computed, not the answer (the extract kernels are bitwise identical
    /// by contract, enforced by the differential tests).
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
    ///   design's outcome — is bit-identical regardless of worker count.
    /// - **Fault-tolerant**: a failing design is recorded in
    ///   [`DatasetBuildReport::designs`] (with its [`DesignFailure`]
    ///   taxonomy entry) and does not abort the build; panics are caught at
    ///   stage boundaries and degrade the same way.
    pub fn build_dataset_report(&self, modules: &[Module]) -> DatasetBuildReport {
        let start = Instant::now();
        let requested = self.workers.unwrap_or_else(parkit::num_threads);
        let results =
            parkit::par_map_threads(requested, modules, |m| self.implement_for_dataset(m));

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

    /// The per-design unit of [`Self::build_dataset_report`]: the three
    /// stages back to back on the calling worker. Never panics on a bad
    /// module — or a panicking stage.
    ///
    /// Every stage runs inside an obskit span on the design's own
    /// collector, and [`StageTimings`] is derived from those spans — one
    /// measurement substrate instead of two. A design that fails mid-flow
    /// keeps the spans of every stage it reached, so partial timings
    /// survive into the report (the `hls` span of a design that dies in
    /// synthesis still carries the time spent before the error).
    fn implement_for_dataset(&self, module: &Module) -> DesignResult {
        let obs = Collector::new();
        obs.inc("dataset.designs", 1);
        let outcome = {
            let mut design_span = obs.span("design");
            design_span.arg("design", module.name.clone());
            let outcome = self.run_stages(module, &obs);
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
        };
        (ds, report, rec)
    }

    /// HLS → place-and-route → back-trace + features for one design, each
    /// stage [`contained`] so that its panic fails this design only.
    fn run_stages(
        &self,
        module: &Module,
        obs: &Collector,
    ) -> Result<(CongestionDataset, RouteStats, PlaceStats), DesignFailure> {
        let mut hls_span = obs.span("hls");
        let design = contained("hls", || {
            self.synthesize(module).map_err(DesignFailure::Synth)
        })
        .inspect_err(|failure| hls_span.arg("error", failure.to_string()))?;
        hls_span.end();

        // Infallible by type — a failure here is a panic.
        let (impl_result, _) = contained("par", || {
            Ok(run_par_obs(&design, &self.device, &self.par, obs))
        })?;

        let mut features_span = obs.span("features");
        let ds = contained("features", || {
            let mut ds = CongestionDataset::new();
            ds.add_design_with(&design, &impl_result, &self.device, self.extract)
                .map_err(DesignFailure::Backtrace)?;
            Ok(ds)
        })
        .inspect_err(|failure| features_span.arg("error", failure.to_string()))?;
        features_span.end();
        Ok((ds, impl_result.route.stats, impl_result.placement.stats))
    }
}

/// What one design contributes to a build: its samples, its report row,
/// and its observability record.
type DesignResult = (CongestionDataset, DesignReport, ObsRecord);

/// Run one stage of a design, turning a panic into that design's
/// [`DesignFailure::Panic`]. The spans the stage opened close as the panic
/// unwinds, so the timings of what it reached survive. Asserting unwind
/// safety is sound: the stage only reads the flow and the design, and the
/// one thing it mutates, the design's own collector, is finished into a
/// failed design's record and seen by nothing else.
fn contained<T>(
    stage: &str,
    run: impl FnOnce() -> Result<T, DesignFailure>,
) -> Result<T, DesignFailure> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        Err(DesignFailure::Panic {
            stage: stage.to_string(),
            message: parkit::Panicked::from(payload).message(),
        })
    })
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
/// can aggregate failures across designs.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignFailure {
    /// HLS failed IR verification.
    Synth(SynthError),
    /// Back-trace / feature extraction failed.
    Backtrace(BacktraceError),
    /// The stage panicked; the pipeline caught it at the stage boundary.
    Panic {
        /// Stage name: `hls`, `par` or `features`.
        stage: String,
        /// Rendered panic payload.
        message: String,
    },
}

impl DesignFailure {
    /// Stable taxonomy bucket: `synth`, `backtrace` or `panic`.
    pub fn kind(&self) -> &'static str {
        match self {
            DesignFailure::Synth(_) => "synth",
            DesignFailure::Backtrace(_) => "backtrace",
            DesignFailure::Panic { .. } => "panic",
        }
    }

    /// The stage the failure is attributed to: `hls`, `par` or `features`.
    pub fn stage(&self) -> &str {
        match self {
            DesignFailure::Synth(_) => "hls",
            DesignFailure::Backtrace(_) => "features",
            DesignFailure::Panic { stage, .. } => stage,
        }
    }
}

impl fmt::Display for DesignFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignFailure::Synth(e) => write!(f, "{e}"),
            DesignFailure::Backtrace(e) => write!(f, "{e}"),
            DesignFailure::Panic { stage, message } => {
                write!(f, "[{stage}] panic: {message}")
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
}

impl DesignReport {
    /// True when the design contributed samples.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
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

    /// Failed designs bucketed by taxonomy kind (`backtrace`, `panic`,
    /// `synth`), in stable alphabetical order.
    pub fn failure_taxonomy(&self) -> BTreeMap<&'static str, usize> {
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
            match &d.outcome {
                Ok(n) => out.push_str(&format!(
                    "  {:<24} {:>8} {:>10}  {}\n",
                    d.name,
                    n,
                    fmt_duration(d.timings.total()),
                    d.timings,
                )),
                // A failed design still shows the time it spent in the
                // stages it reached before dying — partial timings are
                // recorded on the error path, not dropped.
                Err(e) => out.push_str(&format!(
                    "  {:<24} {:>8} {:>10}  {}  FAILED[{}]: {e}\n",
                    d.name,
                    "-",
                    fmt_duration(d.timings.total()),
                    d.timings,
                    e.kind(),
                )),
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
            m.counters["route.rerouted_conns"],
            report.route_stats_totals().rerouted_conns
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

    fn span_args<'a>(rec: &'a ObsRecord, name: &str) -> Vec<&'a [(String, String)]> {
        rec.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.args.as_slice())
            .collect()
    }

    /// A real panic, contained and attempted once: with the device's column
    /// list shorter than its width, placement indexes past it in
    /// `Device::column` for every design.
    #[test]
    fn par_failure_keeps_hls_and_place_timings() {
        let mut flow = CongestionFlow::fast();
        flow.device.columns.truncate(8);
        let modules = suite();
        let reports: Vec<DatasetBuildReport> = [1, 4]
            .into_iter()
            .map(|w| flow.clone().with_workers(w).build_dataset_report(&modules))
            .collect();
        let outcomes = |r: &DatasetBuildReport| -> Vec<Result<usize, DesignFailure>> {
            r.designs.iter().map(|d| d.outcome.clone()).collect()
        };
        assert_eq!(outcomes(&reports[0]), outcomes(&reports[1]));
        for report in &reports {
            for d in &report.designs {
                let failure = d.outcome.as_ref().unwrap_err();
                assert!(
                    matches!(failure, DesignFailure::Panic { stage, .. } if stage == "par"),
                    "{failure:?}"
                );
                assert_eq!(failure.kind(), "panic");
                // HLS finished before placement died; features never ran.
                assert!(d.timings.hls > Duration::ZERO, "{}", d.name);
                assert_eq!(d.timings.features, Duration::ZERO, "{}", d.name);
            }
            // Each design's events end with its `design` span: exactly one
            // `place` span before each, so placement ran once, unretried.
            let mut place_spans = Vec::new();
            let mut places = 0;
            for e in &report.obs.events {
                match e.name.as_str() {
                    "place" => places += 1,
                    "design" => place_spans.push(std::mem::take(&mut places)),
                    _ => {}
                }
            }
            assert_eq!(place_spans, vec![1; modules.len()]);
            assert_eq!(span_args(&report.obs, "hls"), vec![&[][..]; modules.len()]);
            for (m, args) in modules.iter().zip(span_args(&report.obs, "design")) {
                let want = [
                    ("design".to_string(), m.name.clone()),
                    ("outcome".to_string(), "failed".to_string()),
                ];
                assert_eq!(args, want);
            }
            assert!(report.dataset.is_empty());
            assert_eq!(
                report.obs.metrics.counters["dataset.designs_failed"],
                modules.len() as u64
            );
        }
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
