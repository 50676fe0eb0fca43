//! `hls-congest` — the command-line face of the congestion-prediction flow.
//!
//! ```text
//! hls-congest compile   <file.mhls>                 print the IR after directives
//! hls-congest synth     <file.mhls>                 HLS report (latency, resources, clock)
//! hls-congest implement <file.mhls> [--router-stats] full flow: congestion map + timing
//! hls-congest dataset   <file.mhls>... -o data.csv [--workers N] [--router-stats]
//!                                                   build + save a labelled dataset
//!                                                   (parallel, fault-tolerant, timed)
//!   robustness flags:
//!     --fault-plan <plan.json>    arm a deterministic chaos-testing plan
//!     --max-retries <n>           per-stage retry budget (default 2)
//!     --stage-timeout-ms <ms>     per-attempt wall-clock budget
//!     --checkpoint-dir <dir>      persist per-design verdicts incrementally
//!     --resume                    replay verdicts committed by a prior run
//! hls-congest train     <data.csv> [--model linear|ann|gbrt] [--target v|h|avg]
//!                       [--model-out artifact.json] [--model-version N]
//!                                                   export a servekit model
//!                                                   artifact (GBRT V + H)
//! hls-congest predict   <file.mhls> --data data.csv  hottest source lines + fixes
//! hls-congest serve     [--model artifact.json] [--addr 127.0.0.1:0]
//!                       [--golden data.csv] [--mae-band PP] [--expect-features N]
//!                       [--queue-capacity N] [--serve-workers N] [--deadline-ms MS]
//!                       [--batch-max-rows N] [--batch-max-wait-ms MS]
//!                       [--cache-capacity N]
//!                       [--journal journal.jsonl] [--fault-plan plan.json]
//!                       [--max-retries N] [--ledger-out runs.jsonl]
//!                                                   run congestd: the crash-only,
//!                                                   load-shedding prediction daemon
//! hls-congest serve-client --addr HOST:PORT
//!                       (--status | --shutdown | --rollback | --swap artifact.json
//!                        | --rows-from data.csv [--limit N] | --source file.mhls)
//!                       [--deadline-ms MS] [--id N]   one request against congestd
//! hls-congest drift     <fp_a.json> <fp_b.json>      compare two dataset
//!                                                   fingerprints (per-feature
//!                                                   PSI + quantile shift;
//!                                                   nonzero exit on drift)
//! hls-congest --version                             crate version + git hash
//! ```
//!
//! The `implement`, `dataset`, `train` and `predict` commands also accept the
//! shared observability flags:
//!
//! ```text
//! --trace-out <trace.json>     Chrome trace-event JSON (chrome://tracing, Perfetto)
//! --metrics-out <metrics.json> flat metrics snapshot (obskit.metrics.v1)
//! --ledger-out <runs.jsonl>    append one obskit.run.v1 record for this run
//! --profile                    per-span wall-clock table on stdout
//! ```
//!
//! `dataset` additionally takes `--fingerprint-out <fp.json>`: a
//! `congest.fingerprint.v1` distribution fingerprint of the built dataset
//! (per-column quantile sketches + matrix digest), consumed by `drift`.
//!
//! Every flag is parsed by `congestion_core::cli::RunOptions`; an unknown
//! flag is an error.

use fpga_hls_congestion::congestion_core::cli::{RunOptions, Tool};
use fpga_hls_congestion::obskit;
use fpga_hls_congestion::prelude::*;
use std::process::ExitCode;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// This binary's identity; `build.rs` bakes in the git hash.
const TOOL: Tool = Tool::new(
    "hls-congest",
    env!("CARGO_PKG_VERSION"),
    option_env!("GIT_HASH"),
);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result {
    let opts = RunOptions::from_args(args)?;
    if opts.switch("--version") {
        println!("{}", TOOL.version_line());
        return Ok(());
    }
    match opts.selector.as_deref() {
        Some("compile") => compile_cmd(&opts),
        Some("synth") => synth_cmd(&opts),
        Some("implement") => implement_cmd(&opts),
        Some("dataset") => dataset_cmd(&opts),
        Some("train") => train_cmd(&opts),
        Some("predict") => predict_cmd(&opts),
        Some("drift") => drift_cmd(&opts),
        Some("serve") => serve_cmd(&opts),
        Some("serve-client") => serve_client_cmd(&opts),
        _ => Err(usage()),
    }
}

fn usage() -> Box<dyn std::error::Error> {
    "usage: hls-congest <compile|synth|implement|dataset|train|predict|drift|serve|serve-client> ... (see --help in README)"
        .into()
}

/// The design name a source file stands for: its file stem.
fn design_name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design")
        .to_string()
}

fn load_module(path: &str) -> Result<(Module, String)> {
    let source = std::fs::read_to_string(path)?;
    let module = compile_named(&source, &design_name(path))?;
    Ok((module, source))
}

/// The first input file of a subcommand.
fn first_file(opts: &RunOptions) -> Result<&str> {
    opts.positionals
        .first()
        .map(String::as_str)
        .ok_or_else(usage)
}

fn compile_cmd(opts: &RunOptions) -> Result {
    let (module, _) = load_module(first_file(opts)?)?;
    print!("{}", hls_ir::printer::print_module(&module));
    Ok(())
}

fn synth_cmd(opts: &RunOptions) -> Result {
    let (module, _) = load_module(first_file(opts)?)?;
    let design = HlsFlow::new(HlsOptions::default()).run(&module)?;
    for fid in design.module.bottom_up_order() {
        let rep = &design.report.functions[&fid];
        println!(
            "{:<24} latency {:>8} cycles | clock est {:>5.2} ns | {:>6} LUT {:>6} FF {:>4} DSP {:>4} BRAM | {} muxes",
            rep.name,
            rep.latency_cycles,
            rep.estimated_clock_ns,
            rep.resources.luts,
            rep.resources.ffs,
            rep.resources.dsps,
            rep.resources.brams,
            rep.mux.count
        );
    }
    println!(
        "netlist: {} cells, {} nets",
        design.rtl.cells.len(),
        design.rtl.nets.len()
    );
    Ok(())
}

fn implement_cmd(opts: &RunOptions) -> Result {
    let (module, _) = load_module(first_file(opts)?)?;
    let flow = CongestionFlow::new();
    let obs = Collector::new();
    let (design, result) = flow.implement_observed(&module, &obs)?;
    println!(
        "latency {} cycles | WNS {:.2} ns | Fmax {:.1} MHz",
        design.report.latency_cycles(),
        result.timing.wns_ns,
        result.timing.fmax_mhz
    );
    println!(
        "congestion: max (V, H) = ({:.1}%, {:.1}%), {} tiles over 100%",
        result.congestion.max_vertical(),
        result.congestion.max_horizontal(),
        result.congestion.tiles_over(100.0)
    );
    println!(
        "\nutilization:\n{}",
        fpga_fabric::UtilizationReport::new(&design.rtl, &flow.device)
    );
    if opts.switch("--router-stats") {
        println!(
            "placer ({}): {}",
            flow.par.placer.kernel.name(),
            result.placement.stats
        );
        println!("router: {}", result.route.stats);
        println!(
            "routing utilization:\n{}",
            fpga_fabric::RoutingUtilization::new(&result.route, &flow.device)
        );
    }
    println!(
        "vertical congestion map:\n{}",
        result.congestion.render(true)
    );
    Ok(opts.write_outputs(&TOOL, &obs.finish())?)
}

/// `serve` — run `congestd`. Binds the address (port 0 picks a free
/// port), prints one `congestd listening on ...` line once bound, then
/// serves until a `shutdown` request arrives. Every flag maps onto
/// [`servekit::ServeConfig`]; `--golden` + `--mae-band` configure the
/// hot-swap validation gate, `--journal` enables crash-only recovery,
/// and `--fault-plan` arms chaos injection at the `serve.*` stages.
fn serve_cmd(opts: &RunOptions) -> Result {
    use fpga_hls_congestion::servekit::{
        self, GoldenBatch, LedgerSink, ModelArtifact, ServeConfig,
    };
    use std::time::Duration;
    let congestd = Tool::new("congestd", TOOL.version, Some(TOOL.git));
    let mut cfg = ServeConfig::default();
    cfg.gate.expected_features = opts
        .parse("--expect-features")?
        .unwrap_or(congestion_core::features::FEATURE_COUNT);
    cfg.gate.mae_band = opts.parse("--mae-band")?.unwrap_or(25.0);
    if let Some(path) = opts.value("--golden") {
        let ds = congestion_core::persist::load(path)?;
        let rows: Vec<Vec<f64>> = (0..ds.len()).map(|i| ds.features_of(i).to_vec()).collect();
        let v: Vec<f64> = ds.samples.iter().map(|s| s.vertical).collect();
        let h: Vec<f64> = ds.samples.iter().map(|s| s.horizontal).collect();
        cfg.gate.golden = Some(GoldenBatch::new(rows, v, h, 512));
        eprintln!(
            "gate: golden batch of {} rows from {path}",
            ds.len().min(512)
        );
    }
    if let Some(n) = opts.parse("--queue-capacity")? {
        cfg.queue_capacity = n;
    }
    if let Some(n) = opts.parse("--serve-workers")? {
        cfg.workers = n;
    }
    if let Some(ms) = opts.parse("--deadline-ms")? {
        cfg.default_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(n) = opts.parse("--batch-max-rows")? {
        cfg.batch_max_rows = n;
    }
    if let Some(ms) = opts.parse("--batch-max-wait-ms")? {
        cfg.batch_max_wait = Duration::from_millis(ms);
    }
    if let Some(n) = opts.parse("--cache-capacity")? {
        cfg.cache_capacity = n;
    }
    // The feature cache keys on the core source digest (stamped with the
    // feature schema + extract kernel), not the servekit default FNV.
    cfg.cache_key = Some(std::sync::Arc::new(|name: &str, text: &str| {
        congestion_core::source_digest(name, text)
    }));
    cfg.journal_path = opts.value("--journal").map(Into::into);
    cfg.plan = opts.fault_plan()?.map(std::sync::Arc::new);
    opts.apply_to_policy(&mut cfg.policy);
    cfg.ledger = opts.value("--ledger-out").map(|path| LedgerSink {
        path: path.into(),
        tool: congestd.name.into(),
        version: congestd.version.into(),
        git: congestd.git.into(),
    });
    let initial = match opts.value("--model") {
        Some(path) => Some(
            ModelArtifact::load(std::path::Path::new(path))
                .map_err(|e| format!("--model {path}: {e}"))?,
        ),
        None => None,
    };
    // The MiniHLS front-end for `source` requests: compile + synthesize +
    // extract, all inside the supervised serve.extract stage.
    let extractor: std::sync::Arc<servekit::SourceExtractor> =
        std::sync::Arc::new(|name: &str, text: &str| {
            let module = compile_named(text, name).map_err(|e| e.to_string())?;
            let flow = CongestionFlow::new();
            let design = flow.synthesize(&module).map_err(|e| e.to_string())?;
            Ok(congestion_core::extract_feature_rows(&design, &flow.device))
        });
    let (server, report) = servekit::Server::start(cfg, initial, Some(extractor))?;
    if let Some(e) = &report.install_error {
        eprintln!("warning: initial model rejected ({e}); serving degraded");
    }
    // The recovery report goes to stdout with the `listening on` line, so
    // scripts can check what a restart found.
    if report.recovered.records > 0 {
        println!(
            "recovered journal: model {}, {} lost in flight, {} torn line(s){}",
            report.recovered.last_model.as_deref().unwrap_or("analytic"),
            report.recovered.lost_in_flight,
            report.recovered.torn_lines,
            if report.recovered.clean_shutdown {
                " (clean shutdown)"
            } else {
                ""
            }
        );
    }
    let server = std::sync::Arc::new(server);
    let addr = opts.value("--addr").unwrap_or("127.0.0.1:0");
    let model_name = server.active_model();
    servekit::serve_event_loop(server.clone(), addr, |bound| {
        // One parseable line for scripts/CI to scrape the bound port from.
        println!("congestd listening on {bound} (model {model_name})");
    })?;
    let summary = server.shutdown();
    println!(
        "served {} requests ({} shed, {} degraded, {} deadline-missed, {} errors); swaps {}, rejects {}, rollbacks {}; model {}",
        summary.metrics.completed,
        summary.metrics.shed,
        summary.metrics.degraded,
        summary.metrics.deadline_missed,
        summary.metrics.errors,
        summary.swaps,
        summary.rejects,
        summary.rollbacks,
        summary.model,
    );
    println!(
        "coalescing: {} batches ({} requests, {} rows); cache: {} hits / {} lookups ({} evicted, {} invalidated)",
        summary.metrics.batches,
        summary.metrics.coalesced,
        summary.metrics.batch_rows,
        summary.cache.hits,
        summary.cache.lookups,
        summary.cache.evictions,
        summary.cache.invalidations,
    );
    let rec = obskit::ObsRecord {
        events: Vec::new(),
        metrics: server.metrics(),
    };
    Ok(opts.write_outputs(&congestd, &rec)?)
}

/// `serve-client` — one request against a running `congestd`, reply JSON
/// on stdout. Exits nonzero only for transport failures and `error`
/// replies; `overloaded` / `degraded` / `deadline_exceeded` are valid
/// service answers and exit 0.
fn serve_client_cmd(opts: &RunOptions) -> Result {
    use fpga_hls_congestion::servekit::{self, ReplyStatus, Request, RequestBody};
    let addr = opts
        .value("--addr")
        .ok_or("serve-client needs --addr HOST:PORT")?;
    let body = if opts.switch("--status") {
        RequestBody::Status
    } else if opts.switch("--shutdown") {
        RequestBody::Shutdown
    } else if opts.switch("--rollback") {
        RequestBody::Rollback
    } else if let Some(path) = opts.value("--swap") {
        RequestBody::Swap { path: path.into() }
    } else if let Some(path) = opts.value("--rows-from") {
        let ds = congestion_core::persist::load(path)?;
        let limit = opts.parse("--limit")?.unwrap_or(ds.len());
        let rows = (0..ds.len().min(limit))
            .map(|i| ds.features_of(i).to_vec())
            .collect();
        RequestBody::Predict { rows }
    } else if let Some(path) = opts.value("--source") {
        RequestBody::Source {
            name: design_name(path),
            text: std::fs::read_to_string(path)?,
        }
    } else {
        return Err(
            "serve-client needs one of --status --shutdown --rollback --swap --rows-from --source"
                .into(),
        );
    };
    let req = Request {
        id: opts.parse("--id")?.unwrap_or(1),
        deadline_ms: opts.parse("--deadline-ms")?,
        body,
    };
    let reply = servekit::request(addr, &req)?;
    println!("{}", reply.to_json());
    if reply.status == ReplyStatus::Error {
        return Err(reply
            .error
            .unwrap_or_else(|| "server returned an error reply".into())
            .into());
    }
    Ok(())
}

fn dataset_cmd(opts: &RunOptions) -> Result {
    let out = opts
        .value("-o")
        .or(opts.value("--out"))
        .unwrap_or("dataset.csv");
    if opts.positionals.is_empty() {
        return Err(usage());
    }
    let mut flow = CongestionFlow::new();
    if let Some(w) = opts.parse("--workers")? {
        flow = flow.with_workers(w);
    }
    let flow = opts.apply_to_flow(flow)?;
    let mut modules = Vec::new();
    for f in &opts.positionals {
        modules.push(load_module(f)?.0);
    }
    // Supervised build: designs run on parallel workers; panics, injected
    // faults, and timeouts degrade into the per-design failure taxonomy
    // reported below without sinking the rest of the batch.
    let report = flow.build_dataset_report(&modules);
    print!("{}", report.render());
    if opts.switch("--router-stats") {
        for d in &report.designs {
            println!("  {:<24} router: {}", d.name, d.route_stats);
        }
        println!("  total router: {}", report.route_stats_totals());
    }
    for d in &report.designs {
        if let Err(e) = &d.outcome {
            eprintln!("warning: design `{}` failed: {e}", d.name);
        }
    }
    if report.succeeded() == 0 {
        return Err("no design produced samples".into());
    }
    let ds = &report.dataset;
    congestion_core::persist::save(ds, out)?;
    println!(
        "{}",
        congestion_core::stats::dataset_stats(ds, Target::Average)
    );
    println!("wrote {} samples to {out}", ds.len());
    // Distribution fingerprint: per-column quantile sketches + matrix
    // digest, byte-identical for any worker count. `drift` compares two.
    let fingerprint =
        if opts.value("--fingerprint-out").is_some() || opts.value("--ledger-out").is_some() {
            Some(ds.fingerprint())
        } else {
            None
        };
    if let (Some(path), Some(fp)) = (opts.value("--fingerprint-out"), &fingerprint) {
        std::fs::write(path, fp.to_json())?;
        eprintln!("wrote dataset fingerprint to {path}");
    }
    let totals = report.stage_totals();
    opts.append_ledger(&TOOL, "dataset", flow.config_digest(), &report.obs, |rec| {
        for (stage, d) in [
            ("hls", totals.hls),
            ("place", totals.place),
            ("route", totals.route),
            ("congestion", totals.congestion),
            ("timing", totals.timing),
            ("features", totals.features),
        ] {
            rec.stage_ms(stage, d.as_secs_f64() * 1e3);
        }
        rec.stage_ms("total", report.wall.as_secs_f64() * 1e3);
        rec.note("designs", &report.designs.len().to_string());
        rec.note("succeeded", &report.succeeded().to_string());
        rec.note("samples", &report.dataset.len().to_string());
        rec.note("workers", &report.workers.to_string());
        if let Some(fp) = &fingerprint {
            rec.note("fingerprint", &fp.matrix_digest);
        }
    })?;
    Ok(opts.write_outputs(&TOOL, &report.obs)?)
}

fn parse_model(s: Option<&str>) -> Result<ModelKind> {
    Ok(match s.unwrap_or("gbrt") {
        "linear" => ModelKind::Linear,
        "ann" => ModelKind::Ann,
        "gbrt" => ModelKind::Gbrt,
        other => return Err(format!("unknown model `{other}`").into()),
    })
}

fn parse_target(s: Option<&str>) -> Result<Target> {
    Ok(match s.unwrap_or("v") {
        "v" | "vertical" => Target::Vertical,
        "h" | "horizontal" => Target::Horizontal,
        "avg" | "average" => Target::Average,
        other => return Err(format!("unknown target `{other}`").into()),
    })
}

fn train_cmd(opts: &RunOptions) -> Result {
    let path = first_file(opts)?;
    let kind = parse_model(opts.value("--model"))?;
    let target = parse_target(opts.value("--target"))?;
    let ds = congestion_core::persist::load(path)?;
    let filtered = filter_marginal(&ds, &FilterOptions::default());
    println!(
        "{} samples ({} marginal filtered)",
        filtered.kept.len(),
        filtered.removed
    );
    let (train, test) = filtered.kept.split(0.2, 42);
    let obs = Collector::new();
    let train_opts = TrainOptions::default();
    let model = CongestionPredictor::train_observed(kind, target, &train, &train_opts, &obs);
    let acc = model.evaluate(&test);
    println!(
        "{} on {}: MAE {:.2}%, MedAE {:.2}% (held-out 20%)",
        kind.name(),
        target.name(),
        acc.mae,
        acc.medae
    );
    let rec = obs.finish();
    // Ledger: model identity + held-out accuracy + telemetry (split-gain
    // importance, prediction/residual sketches) under one run record.
    let config = format!("{}|{}|{}", kind.name(), target.name(), path);
    let digest =
        fpga_hls_congestion::faultkit::fnv1a(&[b"hls-congest-train-v1", config.as_bytes()]);
    opts.append_ledger(&TOOL, "train", digest, &rec, |run_rec| {
        run_rec.note("model", kind.name());
        run_rec.note("target", target.name());
        run_rec.gauges.insert("eval.mae".to_string(), acc.mae);
        run_rec.gauges.insert("eval.medae".to_string(), acc.medae);
        let names = congestion_core::features::feature_names();
        model.telemetry(&test).record(run_rec, Some(&names), 10);
    })?;
    if let Some(out) = opts.value("--model-out") {
        let version = opts.parse("--model-version")?.unwrap_or(1);
        export_model_artifact(&train, &train_opts, path, out, version)?;
    }
    Ok(opts.write_outputs(&TOOL, &rec)?)
}

/// `train --model-out`: fit GBRT ensembles for *both* congestion targets
/// and write them as one versioned `servekit.model.v1` artifact — the unit
/// `congestd` loads, gates, and hot-swaps.
fn export_model_artifact(
    train: &congestion_core::CongestionDataset,
    opts: &TrainOptions,
    data_path: &str,
    out: &str,
    version: u64,
) -> Result {
    use fpga_hls_congestion::servekit::ModelArtifact;
    let fit = |target| {
        let p = CongestionPredictor::train(ModelKind::Gbrt, target, train, opts);
        p.compiled_ensemble()
            .cloned()
            .ok_or("GBRT predictor produced no compiled ensemble")
    };
    let artifact = ModelArtifact {
        name: "gbrt".into(),
        version,
        feature_count: congestion_core::features::FEATURE_COUNT,
        trained_on: data_path.to_string(),
        vertical: fit(Target::Vertical)?,
        horizontal: fit(Target::Horizontal)?,
    };
    artifact.save(std::path::Path::new(out))?;
    println!(
        "wrote model artifact {} to {out} (digest {:016x})",
        artifact.display_name(),
        artifact.digest()
    );
    Ok(())
}

/// Compare two dataset fingerprints written by `dataset --fingerprint-out`.
/// Prints the per-feature drift table; exits nonzero when any feature's
/// population-stability index crosses the major-drift threshold.
fn drift_cmd(opts: &RunOptions) -> Result {
    let [a, b] = opts.positionals.as_slice() else {
        return Err("drift needs exactly two fingerprint files".into());
    };
    let load = |path: &str| -> Result<congestion_core::DatasetFingerprint> {
        let text = std::fs::read_to_string(path)?;
        congestion_core::DatasetFingerprint::from_json(&text)
            .map_err(|e| format!("{path}: {e}").into())
    };
    let fa = load(a)?;
    let fb = load(b)?;
    let report = congestion_core::drift(&fa, &fb)?;
    println!("{}", report.render(10));
    if report.severe() {
        return Err(format!(
            "severe distribution drift: {} feature(s) over the PSI threshold",
            report.drifted
        )
        .into());
    }
    Ok(())
}

fn predict_cmd(opts: &RunOptions) -> Result {
    let path = first_file(opts)?;
    let data = opts
        .value("--data")
        .ok_or("predict needs --data <dataset.csv>")?;
    let (module, source) = load_module(path)?;
    let ds = congestion_core::persist::load(data)?;
    let filtered = filter_marginal(&ds, &FilterOptions::default());
    let obs = Collector::new();
    let model = CongestionPredictor::train_observed(
        ModelKind::Gbrt,
        Target::Average,
        &filtered.kept,
        &TrainOptions::default(),
        &obs,
    );
    let flow = CongestionFlow::new();
    let design = {
        let _span = obs.span("hls");
        flow.synthesize(&module)?
    };
    let predictions = model.predict_design(&design, &flow.device);
    let regions = locate_congested(&design.module, &predictions);
    println!("{}", render_report(&regions, Some(&source), 10));
    let suggestions = suggest_fixes(&design.module, &predictions, &ResolveOptions::default());
    if suggestions.is_empty() {
        println!("no fixes suggested (no hot regions above threshold)");
    } else {
        println!("suggested fixes:");
        for s in suggestions {
            println!("  - {s:?}");
        }
    }
    Ok(opts.write_outputs(&TOOL, &obs.finish())?)
}
