//! The three user journeys, each timed end to end and, when traced, split
//! into the layers it passes through.
//!
//! The inputs are the paper's six Rosetta kernels as the repository ships
//! them (`rosetta_gen`), in the preset without directives, so each source
//! text is complete and can be sent to `congestd` as it is.
//!
//! - **build** — MiniHLS sources → labelled dataset: compile, HLS, place,
//!   route, congestion/timing, back-trace + features
//!   (`CongestionFlow::build_dataset_report`, what `hls_congest dataset`
//!   runs).
//! - **fit** — dataset → GBRT model + held-out evaluation (what
//!   `hls_congest train` runs).
//! - **serve** — one `source` request → reply from `congestd` over a real
//!   loopback TCP connection, timed from the client, so framing counts.
//!
//! Layer spans are recorded from this file, around the calls into each
//! layer; the per-design stage timings of a dataset build come from the
//! pipeline's own report and the daemon's admission → reply time from its
//! own latency sketch. Stages that run inside the library where this file
//! cannot time them (HLS's schedule, bind and RTL steps; the daemon's
//! decode, predict and encode) are replayed here on the same inputs.
//! Whatever build and fit spend outside their named layers is reported as
//! `unattributed`; the serve remainders are the self time of a named span
//! (see [`Serve::finish`]). So a journey's layers add up to the whole.

use crate::{Layers, Workload};
use fpga_hls_congestion::congestion_core::{
    self, extract_feature_rows, features::FEATURE_COUNT, CongestionDataset, DatasetBuildReport,
};
use fpga_hls_congestion::hls_ir::frontend::{self, compile_named, lexer, lower, parser};
use fpga_hls_congestion::hls_ir::Module;
use fpga_hls_congestion::hls_synth::{
    bind::bind_function,
    datapath::{generate_netlist, FunctionSynth},
    report::build_report,
    schedule::{schedule_function, SchedulerOptions},
    CharLib, HlsOptions,
};
use fpga_hls_congestion::mlkit::Matrix;
use fpga_hls_congestion::obskit::Collector;
use fpga_hls_congestion::prelude::{
    filter_marginal, CongestionFlow, CongestionPredictor, ModelKind, Target, TrainOptions,
};
use fpga_hls_congestion::rosetta_gen::{
    bnn, digit_recognition, face_detection, optical_flow, rendering_3d, spam_filter, Preset,
};
use fpga_hls_congestion::servekit::{
    self, read_frame, write_frame, ModelArtifact, Reply, ReplyStatus, Request, RequestBody,
    ServeConfig, Server, SourceExtractor,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Error = Box<dyn std::error::Error>;

/// Golden-batch band `hls_congest serve` applies by default.
const MAE_BAND: f64 = 25.0;

/// The six Rosetta kernels without directives: `(name, MiniHLS source)`.
/// This preset has no directive overlay, so the text alone is the design.
pub fn rosetta_corpus() -> Vec<(String, String)> {
    [
        face_detection::benchmark(face_detection::FdVariant::Plain),
        digit_recognition::benchmark(Preset::Plain),
        spam_filter::benchmark(Preset::Plain),
        bnn::benchmark(Preset::Plain),
        rendering_3d::benchmark(Preset::Plain),
        optical_flow::benchmark(Preset::Plain),
    ]
    .into_iter()
    .map(|b| (b.name, b.source))
    .collect()
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Bitwise digest of each design's samples in a dataset build: every
/// feature and both labels.
fn design_digests(report: &DatasetBuildReport) -> Vec<u64> {
    let flat = report.dataset.features().flat();
    let mut start = 0;
    report
        .designs
        .iter()
        .map(|d| {
            let n = *d.outcome.as_ref().unwrap_or(&0);
            let mut h = 0xcbf2_9ce4_8422_2325;
            for v in &flat[start * FEATURE_COUNT..(start + n) * FEATURE_COUNT] {
                fnv(&mut h, &v.to_bits().to_le_bytes());
            }
            for s in &report.dataset.samples[start..start + n] {
                fnv(&mut h, &s.vertical.to_bits().to_le_bytes());
                fnv(&mut h, &s.horizontal.to_bits().to_le_bytes());
            }
            start += n;
            h
        })
        .collect()
}

/// For each corpus design, the modules the front-end has compiled it to
/// so far, each with the digest of the samples a build of it gives.
///
/// The front-end does not always compile a source to the same module: it
/// creates the phis of a loop's carried scalars in hash-set order
/// (`hls_ir::frontend::lower`), so a loop that carries two or more
/// scalars, as in `digit_recognition` and `optical_flow`, comes out in one
/// of a few op orders, and placement follows the order. Builds are checked
/// against a reference build of the same module instead.
type References = Vec<Vec<(Module, u64)>>;

fn floats_digest(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for v in xs {
        fnv(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Server-side layer time, accumulated by the instrumented extractor on
/// the daemon's worker thread.
#[derive(Default, Clone, Copy)]
struct ExtractorTimes {
    frontend: Duration,
    hls: Duration,
    extract: Duration,
}

/// What one set-up makes: the dataset, the model artifact on disk, and a
/// running daemon with a connected client.
pub struct Env {
    pub corpus: Vec<(String, String)>,
    /// The set-up dataset after marginal-sample filtering.
    dataset: CongestionDataset,
    artifact: ModelArtifact,
    server: Arc<Server>,
    front_end: Option<JoinHandle<std::io::Result<()>>>,
    client: Option<TcpStream>,
    extractor_times: Arc<Mutex<ExtractorTimes>>,
    /// Admission → reply time the daemon measured for itself, summed over
    /// every request it answered, in milliseconds, and the request count.
    /// Filled in when the daemon stops.
    daemon_ms: (f64, u64),
    /// The set-up build's modules and their sample digests.
    references: References,
    /// Work counters of the set-up build (fixed modules, so they repeat
    /// exactly).
    pub setup_counts: Vec<(&'static str, f64)>,
}

fn compile_all(corpus: &[(String, String)]) -> Result<Vec<Module>, Error> {
    corpus
        .iter()
        .map(|(name, text)| compile_named(text, name).map_err(|e| format!("{name}: {e}").into()))
        .collect()
}

fn checked_build(report: DatasetBuildReport) -> Result<DatasetBuildReport, Error> {
    if report.failed() > 0 || report.dataset.is_empty() {
        return Err(format!(
            "dataset build failed: {} of {} designs, {} samples",
            report.failed(),
            report.designs.len(),
            report.dataset.len()
        )
        .into());
    }
    Ok(report)
}

/// The flow every journey uses: the CLI defaults, one worker so a run
/// measures single-core work on any host.
fn flow() -> CongestionFlow {
    CongestionFlow::new().with_workers(1)
}

/// The `k`th number drawn from a seed.
fn draw(seed: u64, k: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, &seed.to_le_bytes());
    fnv(&mut h, &k.to_le_bytes());
    h
}

/// Compiles per design when choosing the module a run trains on.
const CANONICAL_COMPILES: usize = 64;

/// The corpus compiled to the same module per design in every process. A
/// design compiles to one of a few op orders (see [`References`]), and
/// the order changes the labels and so the work of every fit. Each design
/// is compiled many times and the module whose debug text hashes lowest
/// is kept, so every run trains on the same dataset.
pub fn canonical_modules(corpus: &[(String, String)]) -> Result<Vec<Module>, Error> {
    corpus
        .iter()
        .map(|(name, text)| {
            let mut best: Option<(u64, Module)> = None;
            for _ in 0..CANONICAL_COMPILES {
                let module = compile_named(text, name).map_err(|e| format!("{name}: {e}"))?;
                let mut h = 0xcbf2_9ce4_8422_2325;
                fnv(&mut h, format!("{module:?}").as_bytes());
                if best.as_ref().is_none_or(|(b, _)| h < *b) {
                    best = Some((h, module));
                }
            }
            Ok(best.expect("at least one compile").1)
        })
        .collect()
}

/// Set up once: build the corpus's dataset, split it with the seed, fit
/// and export the V/H model artifact (`hls_congest train --model-out`),
/// then bring `congestd` up from that file (`hls_congest serve --model`)
/// and wait for its first answer. The returned time is the set-up time.
///
/// The set-up starts from [`canonical_modules`], compiled once per run
/// and not timed: the build journeys time compiling.
pub fn setup(
    seed: u64,
    dir: &Path,
    corpus: &[(String, String)],
    modules: &[Module],
) -> Result<(Env, Duration), Error> {
    let start = Instant::now();
    let report = checked_build(flow().build_dataset_report(modules))?;
    let place = report.place_stats_totals();
    let route = report.route_stats_totals();
    let setup_counts = vec![
        ("build.place_moves", place.proposed as f64),
        ("build.route_rerouted", route.rerouted_conns as f64),
    ];
    let references: References = modules
        .iter()
        .cloned()
        .zip(design_digests(&report))
        .map(|r| vec![r])
        .collect();
    let filtered = filter_marginal(&report.dataset, &Default::default()).kept;
    let (train, test) = filtered.split(0.2, draw(seed, 0));
    if train.is_empty() || test.is_empty() {
        return Err("training split is empty".into());
    }

    let fit = |target| -> Result<_, Error> {
        CongestionPredictor::train(ModelKind::Gbrt, target, &train, &TrainOptions::default())
            .compiled_ensemble()
            .cloned()
            .ok_or_else(|| "GBRT predictor produced no compiled ensemble".into())
    };
    let exported = ModelArtifact {
        name: "gbrt".into(),
        version: 1,
        feature_count: FEATURE_COUNT,
        trained_on: format!("perfbench seed {seed}"),
        vertical: fit(Target::Vertical)?,
        horizontal: fit(Target::Horizontal)?,
    };
    let path: PathBuf = dir.join("model.json");
    exported.save(&path)?;
    let artifact = ModelArtifact::load(&path)?;

    let mut cfg = ServeConfig::default();
    cfg.gate.expected_features = FEATURE_COUNT;
    cfg.gate.mae_band = MAE_BAND;
    cfg.cache_key = Some(Arc::new(|name: &str, text: &str| {
        congestion_core::source_digest(name, text)
    }));
    let extractor_times = Arc::new(Mutex::new(ExtractorTimes::default()));
    // The daemon's own front-end for `source` requests, with a clock
    // around each step. The bookkeeping is negligible next to the work.
    let times = extractor_times.clone();
    let extractor: Arc<SourceExtractor> = Arc::new(move |name: &str, text: &str| {
        let t0 = Instant::now();
        let module = compile_named(text, name).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let flow = CongestionFlow::new();
        let design = flow.synthesize(&module).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let out = extract_feature_rows(&design, &flow.device);
        let t3 = Instant::now();
        let mut t = times.lock().expect("extractor timing lock");
        t.frontend += t1 - t0;
        t.hls += t2 - t1;
        t.extract += t3 - t2;
        Ok(out)
    });
    let (server, started) = Server::start(cfg, Some(artifact.clone()), Some(extractor))?;
    if let Some(e) = started.install_error {
        return Err(format!("model artifact rejected: {e}").into());
    }
    let server = Arc::new(server);
    let (bound_tx, bound_rx) = mpsc::channel::<SocketAddr>();
    let front = server.clone();
    let front_end = std::thread::spawn(move || {
        servekit::serve_event_loop(front, "127.0.0.1:0", |addr| {
            let _ = bound_tx.send(addr);
        })
    });
    let mut env = Env {
        corpus: corpus.to_vec(),
        dataset: filtered,
        artifact,
        server,
        front_end: Some(front_end),
        client: None,
        extractor_times,
        daemon_ms: (0.0, 0),
        references,
        setup_counts,
    };
    let addr = match bound_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(addr) => addr,
        Err(_) => {
            env.stop()?;
            return Err("congestd front-end did not bind".into());
        }
    };
    let client = TcpStream::connect(addr)?;
    client.set_nodelay(true)?;
    env.client = Some(client);
    // Ready means answering: one source request, under a name no journey
    // uses, so it leaves nothing in the feature cache for them.
    let (name, text) = env.corpus[0].clone();
    let probe = env.round_trip(0, &format!("probe-{name}"), &text)?;
    if probe.status != ReplyStatus::Ok {
        env.stop()?;
        return Err(format!("congestd readiness probe answered {:?}", probe.status).into());
    }
    let elapsed = start.elapsed();
    *env.extractor_times.lock().expect("extractor timing lock") = ExtractorTimes::default();
    Ok((env, elapsed))
}

impl Env {
    /// Stop the daemon: close the client, shut the server down, keep its
    /// latency totals, and join the front-end thread.
    pub fn stop(&mut self) -> Result<(), Error> {
        if let Some(h) = self.front_end.take() {
            self.client = None;
            let latency = self.server.shutdown().metrics.latency_ms;
            self.daemon_ms = (latency.sum(), latency.count());
            h.join().map_err(|_| "congestd front-end panicked")??;
        }
        Ok(())
    }

    fn client(&mut self) -> Result<&mut TcpStream, Error> {
        self.client
            .as_mut()
            .ok_or_else(|| "no congestd client".into())
    }

    fn round_trip(&mut self, id: u64, name: &str, text: &str) -> Result<Reply, Error> {
        let req = Request {
            id,
            deadline_ms: None,
            body: RequestBody::Source {
                name: name.into(),
                text: text.into(),
            },
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &req.to_json())?;
        let stream = self.client()?;
        std::io::Write::write_all(stream, &frame)?;
        let json = read_frame(stream)?.ok_or("congestd closed the connection")?;
        Ok(Reply::from_json(&json)?)
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Result of one measured journey kind.
#[derive(Default)]
pub struct Phase {
    /// Wall time of each journey.
    pub times: Vec<Duration>,
    pub failed: u64,
    /// Summed layer time over all journeys (traced runs only).
    pub layers: Layers,
    /// Extra per-layer figures (traced runs only).
    pub extra: Vec<(&'static str, f64)>,
    /// Compile + HLS + place-and-route time of each corpus design, summed
    /// over the journeys (traced build runs only).
    pub design_impl: Vec<Duration>,
}

/// Compile `corpus` the way `compile_named` does, one traced call per
/// front-end layer.
fn compile_traced(
    corpus: &[(String, String)],
    layers: &mut Layers,
    per_design: &mut [Duration],
) -> Result<Vec<fpga_hls_congestion::hls_ir::Module>, Error> {
    let mut modules = Vec::with_capacity(corpus.len());
    for ((name, text), spent) in corpus.iter().zip(per_design) {
        let t0 = Instant::now();
        let tokens = lexer::lex(text)?;
        let program = parser::parse(&tokens)?;
        let t1 = Instant::now();
        let (module, directives) = lower::lower(&program, name)?;
        let t2 = Instant::now();
        let module = frontend::finish(module, &directives)?;
        let t3 = Instant::now();
        layers.add("build.parse_ms", t1 - t0);
        layers.add("build.lower_ms", t2 - t1);
        layers.add("build.transform_ms", t3 - t2);
        *spent = t3 - t0;
        modules.push(module);
    }
    Ok(modules)
}

/// Replay HLS on `module` one stage at a time, as `HlsFlow::run` runs it,
/// and return the time of scheduling, binding, and RTL (netlist and
/// report). What else HLS spends — verification, copying the module — is
/// the rest of the pipeline's own `hls` time.
fn hls_stages(module: &Module, opts: &HlsOptions) -> [Duration; 3] {
    let lib = CharLib::zynq7();
    let sched_opts = SchedulerOptions {
        clock_ns: opts.clock_ns,
        uncertainty_ns: opts.uncertainty_ns,
    };
    let (mut schedule, mut bind) = (Duration::ZERO, Duration::ZERO);
    let mut schedules = HashMap::new();
    let mut bindings = HashMap::new();
    let mut latencies = HashMap::new();
    // Callees first, then the functions no call reaches, as the flow does;
    // only reached ones lend their latency to callers.
    let reached = module.bottom_up_order();
    let unreached = module
        .functions
        .iter()
        .map(|f| f.id)
        .filter(|id| !reached.contains(id));
    for (k, fid) in reached.iter().copied().chain(unreached).enumerate() {
        let f = module.function(fid);
        let t0 = Instant::now();
        let sched = schedule_function(f, &lib, &sched_opts, &latencies);
        let t1 = Instant::now();
        let binding = bind_function(f, &sched);
        bind += t1.elapsed();
        schedule += t1 - t0;
        if k < reached.len() {
            latencies.insert(fid, sched.latency_cycles);
        }
        schedules.insert(fid, sched);
        bindings.insert(fid, binding);
    }
    let t0 = Instant::now();
    let synth: HashMap<_, _> = schedules
        .iter()
        .map(|(&fid, s)| {
            let f = FunctionSynth {
                schedule: s.clone(),
                binding: bindings[&fid].clone(),
            };
            (fid, f)
        })
        .collect();
    let rtl = generate_netlist(module, &synth, &lib);
    let report = build_report(
        module,
        &schedules,
        &bindings,
        &lib,
        opts.clock_ns,
        opts.uncertainty_ns,
    );
    let rtl_time = t0.elapsed();
    std::hint::black_box((rtl, report));
    [schedule, bind, rtl_time]
}

/// Build journeys: the corpus's dataset, as one `hls_congest dataset`
/// call over every design. Each design's samples must match, bit for bit,
/// a separate build of the module it was compiled to.
pub struct Build {
    pub phase: Phase,
    references: References,
}

impl Build {
    pub fn new(env: &Env) -> Build {
        Build {
            phase: Phase::default(),
            references: env.references.clone(),
        }
    }

    pub fn step(&mut self, env: &Env, trace: bool) -> Result<(), Error> {
        let phase = &mut self.phase;
        let designs = &env.corpus[..];
        let mut compile = vec![Duration::ZERO; designs.len()];
        let t0 = Instant::now();
        let modules = if trace {
            compile_traced(designs, &mut phase.layers, &mut compile)?
        } else {
            compile_all(designs)?
        };
        let report = flow().build_dataset_report(&modules);
        let wall = t0.elapsed();
        phase.times.push(wall);
        let mut ok = report.failed() == 0;
        for ((module, digest), seen) in modules
            .iter()
            .zip(design_digests(&report))
            .zip(&mut self.references)
        {
            let reference = match seen.iter().find(|(m, _)| m == module) {
                Some((_, d)) => *d,
                None => {
                    let alone = flow().build_dataset_report(std::slice::from_ref(module));
                    let d = design_digests(&alone)[0];
                    seen.push((module.clone(), d));
                    d
                }
            };
            ok &= digest == reference;
        }
        if !ok {
            phase.failed += 1;
        }
        if trace {
            layer_build(phase, &report, &modules, &compile, wall);
        }
        Ok(())
    }
}

/// Split one traced build journey into its layers. HLS is replayed per
/// module to split it into schedule, bind and RTL; `hls_rest` is what
/// the pipeline's own `hls` time holds beyond those.
fn layer_build(
    phase: &mut Phase,
    report: &DatasetBuildReport,
    modules: &[Module],
    compile: &[Duration],
    wall: Duration,
) {
    let hls = flow().hls;
    phase.design_impl.resize(modules.len(), Duration::ZERO);
    let mut attributed = compile.iter().sum::<Duration>();
    for (((d, c), module), spent) in report
        .designs
        .iter()
        .zip(compile)
        .zip(modules)
        .zip(&mut phase.design_impl)
    {
        let t = &d.timings;
        let [schedule, bind, rtl] = hls_stages(module, &hls);
        let l = &mut phase.layers;
        l.add("build.schedule_ms", schedule);
        l.add("build.bind_ms", bind);
        l.add("build.rtl_ms", rtl);
        l.add(
            "build.hls_rest_ms",
            t.hls.saturating_sub(schedule + bind + rtl),
        );
        l.add("build.place_ms", t.place);
        l.add("build.route_ms", t.route);
        l.add("build.congestion_ms", t.congestion + t.timing);
        l.add("build.features_ms", t.features);
        attributed += t.total();
        *spent += *c + t.hls + t.place + t.route + t.congestion + t.timing;
    }
    phase
        .layers
        .add("build.unattributed_ms", wall.saturating_sub(attributed));
}

/// Train/test splits the fit journeys take turns on. One split's fit time
/// depends on which samples it draws, so several make the median less a
/// matter of the seed.
const FIT_SPLITS: usize = 4;

/// One train/test split, its held-out features, and the first fit's
/// predictions on them.
struct Split {
    train: CongestionDataset,
    test: CongestionDataset,
    test_rows: Matrix,
    reference: Option<u64>,
}

/// Fit journeys: train the vertical-congestion GBRT on a training split
/// drawn from the seed and evaluate it on the held-out split, as
/// `hls_congest train` does. Every fit must reproduce the first fit on the
/// same split bit for bit.
pub struct Fit {
    pub phase: Phase,
    splits: Vec<Split>,
}

impl Fit {
    pub fn new(env: &Env, seed: u64) -> Fit {
        let splits = (0..FIT_SPLITS)
            .map(|k| {
                let (train, test) = env.dataset.split(0.2, draw(seed, k));
                let test_rows = Matrix::from_flat(FEATURE_COUNT, test.features().flat().to_vec());
                Split {
                    train,
                    test,
                    test_rows,
                    reference: None,
                }
            })
            .collect();
        Fit {
            phase: Phase::default(),
            splits,
        }
    }

    pub fn step(&mut self, trace: bool) {
        let phase = &mut self.phase;
        let split = &mut self.splits[phase.times.len() % FIT_SPLITS];
        let opts = TrainOptions::default();
        let obs = Collector::new();
        let t0 = Instant::now();
        let model = if trace {
            CongestionPredictor::train_observed(
                ModelKind::Gbrt,
                Target::Vertical,
                &split.train,
                &opts,
                &obs,
            )
        } else {
            CongestionPredictor::train(ModelKind::Gbrt, Target::Vertical, &split.train, &opts)
        };
        let t1 = Instant::now();
        let acc = model.evaluate(&split.test);
        let wall = t0.elapsed();
        phase.times.push(wall);

        let digest = model.compiled_ensemble().map(|e| {
            let mut pred = vec![0.0; split.test_rows.rows()];
            e.predict_into(&split.test_rows, &mut pred);
            floats_digest(&pred)
        });
        let ok = acc.mae.is_finite()
            && acc.mae < 100.0
            && digest.is_some()
            && *split.reference.get_or_insert(digest.unwrap_or(0)) == digest.unwrap_or(0);
        if !ok {
            phase.failed += 1;
        }
        if trace {
            let rec = obs.finish();
            let train = Duration::from_micros(rec.span_total_us("train"));
            let gbrt = Duration::from_micros(rec.span_total_us("train.fit"));
            let eval = wall - (t1 - t0);
            phase.layers.add("fit.prep_ms", train.saturating_sub(gbrt));
            phase.layers.add("fit.gbrt_ms", gbrt);
            phase.layers.add("fit.predict_ms", eval);
            phase
                .layers
                .add("fit.unattributed_ms", wall.saturating_sub(train + eval));
            if phase.extra.is_empty() {
                let splits = rec
                    .metrics
                    .counters
                    .get("mlkit.gbrt.splits")
                    .copied()
                    .unwrap_or(0);
                phase.extra.push(("fit.splits", splits as f64));
            }
        }
    }
}

/// Local compiles a reply may take to find the module the daemon compiled
/// its design to, per corpus design (see [`References`] for why a design
/// has more than one). A design has at most a few; a reply that matches
/// none of them after this many is wrong.
const VARIANT_COMPILES: u32 = 1000;

/// One module a design compiles to, with its feature rows, expected
/// vertical and horizontal predictions, and the source line of each row.
struct Expected {
    module: Module,
    rows: Matrix,
    vertical: Vec<f64>,
    horizontal: Vec<f64>,
    lines: Vec<u32>,
}

impl Expected {
    /// Extract `module` and predict its rows with `artifact`, as the
    /// daemon does.
    fn new(module: Module, artifact: &ModelArtifact) -> Result<Expected, Error> {
        let flow = CongestionFlow::new();
        let design = flow.synthesize(&module)?;
        let (feature_rows, lines) = extract_feature_rows(&design, &flow.device);
        let mut rows = Matrix::with_cols(FEATURE_COUNT);
        for row in &feature_rows {
            rows.push_row(row);
        }
        let mut vertical = vec![0.0; rows.rows()];
        let mut horizontal = vec![0.0; rows.rows()];
        artifact.vertical.predict_into(&rows, &mut vertical);
        artifact.horizontal.predict_into(&rows, &mut horizontal);
        Ok(Expected {
            module,
            rows,
            vertical,
            horizontal,
            lines,
        })
    }

    /// Whether `reply` carries exactly these predictions and lines.
    fn matches(&self, reply: &Reply) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        !self.vertical.is_empty()
            && bits(&reply.vertical, &self.vertical)
            && bits(&reply.horizontal, &self.horizontal)
            && reply.lines == self.lines
    }
}

/// What the client needs to check one reply afterwards.
struct Sent {
    design: usize,
    req_json: String,
    reply: Reply,
}

/// Serve journeys: one closed-loop client on one connection sends
/// `source` requests and times each from encode to decoded reply. The
/// requests cycle through the corpus in an order drawn from the seed.
/// `fresh` renames the design on every request, and the cache key hashes
/// the name, so every request misses; `repeat` keeps the names, so every
/// request after a daemon's first pass hits. Every reply is checked afterwards
/// against a local extraction + prediction with the same artifact:
/// bitwise-equal values and identical source lines.
pub struct Serve {
    pub phase: Phase,
    workload: Workload,
    order: Vec<usize>,
    sent: Vec<Sent>,
    encode: Duration,
    decode: Duration,
    /// Requests sent for each corpus design.
    pub served: Vec<u64>,
    /// Daemon-side figures of every daemon the journeys ran against: the
    /// extractor's layer times, and the admission → reply time summed in
    /// milliseconds and its request count (readiness probes included).
    extractor: ExtractorTimes,
    daemon_ms: (f64, u64),
}

impl Serve {
    pub fn new(workload: Workload, seed: u64, designs: usize) -> Serve {
        let mut order: Vec<usize> = (0..designs).collect();
        order.sort_by_key(|&k| draw(seed, FIT_SPLITS + k));
        Serve {
            phase: Phase::default(),
            workload,
            order,
            sent: Vec::new(),
            encode: Duration::ZERO,
            decode: Duration::ZERO,
            served: vec![0; designs],
            extractor: ExtractorTimes::default(),
            daemon_ms: (0.0, 0),
        }
    }

    /// Add the daemon-side figures of a stopped daemon.
    pub fn absorb(&mut self, env: &Env) {
        let x = std::mem::take(&mut *env.extractor_times.lock().expect("extractor timing lock"));
        self.extractor.frontend += x.frontend;
        self.extractor.hls += x.hls;
        self.extractor.extract += x.extract;
        self.daemon_ms.0 += env.daemon_ms.0;
        self.daemon_ms.1 += env.daemon_ms.1;
    }

    pub fn step(&mut self, env: &mut Env) -> Result<(), Error> {
        let r = self.sent.len();
        let design = self.order[r % self.order.len()];
        let (name, text) = &env.corpus[design];
        let name = match self.workload {
            Workload::Fresh => format!("{name}-{r}"),
            Workload::Repeat => name.clone(),
        };
        let req = Request {
            id: r as u64 + 1,
            deadline_ms: None,
            body: RequestBody::Source {
                name,
                text: text.clone(),
            },
        };

        let t0 = Instant::now();
        let req_json = req.to_json();
        let mut frame = Vec::with_capacity(req_json.len() + 4);
        write_frame(&mut frame, &req_json)?;
        let t1 = Instant::now();
        let stream = env.client()?;
        std::io::Write::write_all(stream, &frame)?;
        let json = read_frame(stream)?.ok_or("congestd closed the connection")?;
        let t2 = Instant::now();
        let reply = Reply::from_json(&json)?;
        let t3 = Instant::now();
        self.phase.times.push(t3 - t0);
        self.encode += t1 - t0;
        self.decode += t3 - t2;
        self.served[design] += 1;
        self.sent.push(Sent {
            design,
            req_json,
            reply,
        });
        Ok(())
    }

    /// Check every reply against a local run of the same extraction and
    /// model. Call after the last daemon has stopped and been absorbed.
    ///
    /// Traced runs split each round trip into nested spans. The client's
    /// span holds its own encode and decode and the daemon's admission →
    /// reply span (from the daemon's latency sketch, as a mean per request).
    /// The rest of the client's span is the front-end: request decode and
    /// reply encode, and `event_loop` — socket reads and writes and idle
    /// polling. The daemon's span holds extraction (timed by the
    /// instrumented extractor) and prediction; the rest of it is `queue`:
    /// queue wait, cache lookup and dispatch. Request decode, prediction
    /// and reply encode run inside the daemon where this file cannot time
    /// them, so they are replayed here on the same inputs and artifact.
    pub fn finish(mut self, env: &Env, trace: bool) -> Result<Phase, Error> {
        let phase = &mut self.phase;
        let mut variants: Vec<Vec<Expected>> = env.corpus.iter().map(|_| Vec::new()).collect();
        let mut budget = vec![VARIANT_COMPILES; env.corpus.len()];
        let mut hits = 0u64;
        let (mut server_decode, mut predict, mut server_encode) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for s in &self.sent {
            // Features do not depend on the design's name, so replies under
            // any name are checked against local compiles under the corpus
            // name.
            let (name, text) = &env.corpus[s.design];
            let seen = &mut variants[s.design];
            let mut found = seen.iter().position(|e| e.matches(&s.reply));
            while found.is_none() && s.reply.status == ReplyStatus::Ok && budget[s.design] > 0 {
                budget[s.design] -= 1;
                let module = compile_named(text, name)?;
                if seen.iter().all(|e| e.module != module) {
                    let e = Expected::new(module, &env.artifact)?;
                    if e.matches(&s.reply) {
                        found = Some(seen.len());
                    }
                    seen.push(e);
                }
            }
            let ok = s.reply.status == ReplyStatus::Ok
                && s.reply.model == env.artifact.display_name()
                && found.is_some();
            if !ok {
                phase.failed += 1;
            }
            if s.reply.info.get("cache").map(String::as_str) == Some("hit") {
                hits += 1;
            }
            if trace {
                let t0 = Instant::now();
                let decoded = Request::from_json(&s.req_json)?;
                let t1 = Instant::now();
                let m = &seen[found.unwrap_or(0)].rows;
                let mut pv = vec![0.0; m.rows()];
                let mut ph = vec![0.0; m.rows()];
                env.artifact.vertical.predict_into(m, &mut pv);
                env.artifact.horizontal.predict_into(m, &mut ph);
                let t2 = Instant::now();
                let encoded = s.reply.to_json();
                let t3 = Instant::now();
                std::hint::black_box((decoded, pv, ph, encoded));
                server_decode += t1 - t0;
                predict += t2 - t1;
                server_encode += t3 - t2;
            }
        }
        if trace {
            let x = self.extractor;
            let n = self.sent.len() as f64;
            let total: Duration = phase.times.iter().sum();
            let (daemon_sum, daemon_count) = self.daemon_ms;
            let daemon = Duration::from_secs_f64(daemon_sum / 1e3 / daemon_count as f64 * n);
            let client = self.encode + self.decode;
            let front_end = server_decode + server_encode;
            let extract = x.frontend + x.hls + x.extract;
            let l = &mut phase.layers;
            l.add("serve.encode_ms", self.encode);
            l.add(
                "serve.event_loop_ms",
                total.saturating_sub(client + front_end + daemon),
            );
            l.add("serve.server_decode_ms", server_decode);
            l.add("serve.queue_ms", daemon.saturating_sub(extract + predict));
            l.add("serve.frontend_ms", x.frontend);
            l.add("serve.hls_ms", x.hls);
            l.add("serve.extract_ms", x.extract);
            l.add("serve.predict_ms", predict);
            l.add("serve.server_encode_ms", server_encode);
            l.add("serve.decode_ms", self.decode);
            phase.extra.push(("serve.cache_hits", hits as f64));
            phase.extra.push(("serve.cache_misses", n - hits as f64));
        }
        Ok(self.phase)
    }
}
