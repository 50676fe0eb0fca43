//! `hls-congest` — the command-line face of the congestion-prediction flow.
//!
//! ```text
//! hls-congest compile   <file.mhls>                 print the IR after directives
//! hls-congest synth     <file.mhls>                 HLS report (latency, resources, clock)
//! hls-congest implement <file.mhls> [--router-stats] full flow: congestion map + timing
//!                       [--place-kernel delta|reference]
//! hls-congest dataset   <file.mhls>... -o data.csv [--workers N] [--router-stats]
//!                       [--place-kernel delta|reference]
//!                       [--extract-kernel soa|reference]
//!                                                   build + save a labelled dataset
//!                                                   (parallel, fault-tolerant, timed)
//!   robustness flags:
//!     --fault-plan <plan.json>    arm a deterministic chaos-testing plan
//!     --max-retries <n>           per-stage retry budget (default 2)
//!     --stage-timeout-ms <ms>     per-attempt wall-clock budget
//!     --checkpoint-dir <dir>      persist per-design verdicts incrementally
//!     --resume                    replay verdicts committed by a prior run
//! hls-congest train     <data.csv> [--model linear|ann|gbrt] [--target v|h|avg]
//!                       [--gbrt-kernel histogram|exact] [--gbrt-bins N]
//!                       [--model-out artifact.json] [--model-version N]
//!                                                   export a servekit model
//!                                                   artifact (GBRT V + H)
//! hls-congest predict   <file.mhls> --data data.csv  hottest source lines + fixes
//!                       [--gbrt-kernel histogram|exact] [--gbrt-bins N]
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

use fpga_hls_congestion::obskit;
use fpga_hls_congestion::prelude::*;
use std::process::ExitCode;

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

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.iter().any(|a| a == "--version") {
        println!("{}", version_string());
        return Ok(());
    }
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "compile" => compile_cmd(rest),
        "synth" => synth_cmd(rest),
        "implement" => implement_cmd(rest),
        "dataset" => dataset_cmd(rest),
        "train" => train_cmd(rest),
        "predict" => predict_cmd(rest),
        "drift" => drift_cmd(rest),
        "serve" => serve_cmd(rest),
        "serve-client" => serve_client_cmd(rest),
        _ => Err(usage()),
    }
}

fn usage() -> Box<dyn std::error::Error> {
    "usage: hls-congest <compile|synth|implement|dataset|train|predict|drift|serve|serve-client> ... (see --help in README)"
        .into()
}

/// Crate version plus the git hash baked in by `build.rs` (absent when the
/// build happened outside a git checkout).
fn version_string() -> String {
    format!(
        "hls-congest {} (git {})",
        env!("CARGO_PKG_VERSION"),
        option_env!("GIT_HASH").unwrap_or("unknown")
    )
}

/// Honour the shared observability flags on a finished record:
/// `--trace-out` (Chrome trace-event JSON), `--metrics-out` (flat metrics
/// snapshot) and `--profile` (per-span table on stdout).
fn emit_observability(
    args: &[String],
    rec: &obskit::ObsRecord,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = flag(args, "--trace-out") {
        std::fs::write(path, obskit::sink::chrome_trace_json(&rec.events))?;
        eprintln!("wrote Chrome trace to {path} (load in chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = flag(args, "--metrics-out") {
        let meta = [
            ("tool", "hls-congest"),
            ("version", env!("CARGO_PKG_VERSION")),
            ("git", option_env!("GIT_HASH").unwrap_or("unknown")),
        ];
        std::fs::write(path, obskit::sink::metrics_json(&rec.metrics, &meta))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if bool_flag(args, "--profile") {
        println!("{}", obskit::sink::profile_table(rec));
    }
    Ok(())
}

/// Honour `--ledger-out`: append one `obskit.run.v1` record for this run —
/// identity stamps, config digest, active kernels, and the run's metric
/// snapshot — then let `extra` add command-specific content (stage
/// timings, model telemetry, fingerprint digests) before the line lands.
fn append_ledger(
    args: &[String],
    kind: &str,
    config_digest: u64,
    kernels: &[(&str, &str)],
    rec: &obskit::ObsRecord,
    extra: impl FnOnce(&mut obskit::RunRecord),
) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = flag(args, "--ledger-out") else {
        return Ok(());
    };
    let mut run_rec = obskit::RunRecord::new(
        "hls-congest",
        kind,
        env!("CARGO_PKG_VERSION"),
        option_env!("GIT_HASH").unwrap_or("unknown"),
    );
    run_rec.config_digest = format!("{config_digest:016x}");
    for (which, choice) in kernels {
        run_rec.kernel(which, choice);
    }
    run_rec.absorb_metrics(&rec.metrics);
    extra(&mut run_rec);
    run_rec.append_to(std::path::Path::new(path))?;
    eprintln!("appended run record to {path}");
    Ok(())
}

fn load_module(path: &str) -> Result<(Module, String), Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design")
        .to_string();
    let module = compile_named(&source, &name)?;
    Ok((module, source))
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

/// Flags that take no value; `positional()` must not swallow the token
/// that follows them.
const BOOL_FLAGS: &[&str] = &[
    "--router-stats",
    "--profile",
    "--version",
    "--resume",
    "--status",
    "--shutdown",
    "--rollback",
];

fn bool_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args.iter() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") || (a.starts_with('-') && a.len() == 2) {
            // Value-taking flags consume the next token; boolean flags don't.
            skip = !BOOL_FLAGS.contains(&a.as_str());
            continue;
        }
        out.push(a);
    }
    out
}

/// The `--place-kernel` flag, when present.
fn parse_place_kernel(
    args: &[String],
) -> Result<Option<fpga_fabric::PlaceKernel>, Box<dyn std::error::Error>> {
    match flag(args, "--place-kernel") {
        Some(s) => fpga_fabric::PlaceKernel::parse(s)
            .map(Some)
            .ok_or_else(|| format!("unknown --place-kernel `{s}` (delta|reference)").into()),
        None => Ok(None),
    }
}

fn compile_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let files = positional(args);
    let path = files.first().ok_or_else(usage)?;
    let (module, _) = load_module(path)?;
    print!("{}", hls_ir::printer::print_module(&module));
    Ok(())
}

fn synth_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let files = positional(args);
    let path = files.first().ok_or_else(usage)?;
    let (module, _) = load_module(path)?;
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

fn implement_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let files = positional(args);
    let path = files.first().ok_or_else(usage)?;
    let (module, _) = load_module(path)?;
    let mut flow = CongestionFlow::new();
    if let Some(k) = parse_place_kernel(args)? {
        flow.par.placer.kernel = k;
    }
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
    if bool_flag(args, "--router-stats") {
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
    emit_observability(args, &obs.finish())
}

/// `serve` — run `congestd`. Binds the address (port 0 picks a free
/// port), prints one `congestd listening on ...` line once bound, then
/// serves until a `shutdown` request arrives. Every flag maps onto
/// [`servekit::ServeConfig`]; `--golden` + `--mae-band` configure the
/// hot-swap validation gate, `--journal` enables crash-only recovery,
/// and `--fault-plan` arms chaos injection at the `serve.*` stages.
fn serve_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use fpga_hls_congestion::servekit::{
        self, GoldenBatch, LedgerSink, ModelArtifact, ServeConfig,
    };
    let mut cfg = ServeConfig::default();
    cfg.gate.expected_features = congestion_core::features::FEATURE_COUNT;
    if let Some(n) = flag(args, "--expect-features") {
        cfg.gate.expected_features = n.parse()?;
    }
    cfg.gate.mae_band = match flag(args, "--mae-band") {
        Some(s) => s.parse()?,
        None => 25.0,
    };
    if let Some(path) = flag(args, "--golden") {
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
    if let Some(n) = flag(args, "--queue-capacity") {
        cfg.queue_capacity = n.parse()?;
    }
    if let Some(n) = flag(args, "--serve-workers") {
        cfg.workers = n.parse()?;
    }
    if let Some(ms) = flag(args, "--deadline-ms") {
        cfg.default_deadline = Some(std::time::Duration::from_millis(ms.parse()?));
    }
    if let Some(n) = flag(args, "--batch-max-rows") {
        cfg.batch_max_rows = n.parse()?;
    }
    if let Some(ms) = flag(args, "--batch-max-wait-ms") {
        cfg.batch_max_wait = std::time::Duration::from_millis(ms.parse()?);
    }
    if let Some(n) = flag(args, "--cache-capacity") {
        cfg.cache_capacity = n.parse()?;
    }
    // The feature cache keys on the core source digest (stamped with the
    // feature schema + extract kernel), not the servekit default FNV.
    cfg.cache_key = Some(std::sync::Arc::new(|name: &str, text: &str| {
        congestion_core::source_digest(name, text)
    }));
    if let Some(path) = flag(args, "--journal") {
        cfg.journal_path = Some(path.into());
    }
    if let Some(path) = flag(args, "--fault-plan") {
        let text = std::fs::read_to_string(path)?;
        let plan = fpga_hls_congestion::faultkit::FaultPlan::from_json(&text)?;
        eprintln!("armed fault plan {path} (seed {})", plan.seed);
        cfg.plan = Some(std::sync::Arc::new(plan));
    }
    if let Some(n) = flag(args, "--max-retries") {
        cfg.policy.max_retries = n.parse()?;
    }
    if let Some(ms) = flag(args, "--stage-timeout-ms") {
        cfg.policy.stage_timeout = Some(std::time::Duration::from_millis(ms.parse()?));
    }
    if let Some(path) = flag(args, "--ledger-out") {
        cfg.ledger = Some(LedgerSink {
            path: path.into(),
            tool: "congestd".into(),
            version: env!("CARGO_PKG_VERSION").into(),
            git: option_env!("GIT_HASH").unwrap_or("unknown").into(),
        });
    }
    let initial = match flag(args, "--model") {
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
    if report.recovered.records > 0 {
        eprintln!(
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
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:0");
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
    if let Some(path) = flag(args, "--metrics-out") {
        let meta = [
            ("tool", "congestd"),
            ("version", env!("CARGO_PKG_VERSION")),
            ("git", option_env!("GIT_HASH").unwrap_or("unknown")),
        ];
        std::fs::write(path, obskit::sink::metrics_json(&server.metrics(), &meta))?;
        eprintln!("wrote serve metrics snapshot to {path}");
    }
    Ok(())
}

/// `serve-client` — one request against a running `congestd`, reply JSON
/// on stdout. Exits nonzero only for transport failures and `error`
/// replies; `overloaded` / `degraded` / `deadline_exceeded` are valid
/// service answers and exit 0.
fn serve_client_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use fpga_hls_congestion::servekit::{self, ReplyStatus, Request, RequestBody};
    let addr = flag(args, "--addr").ok_or("serve-client needs --addr HOST:PORT")?;
    let id = match flag(args, "--id") {
        Some(s) => s.parse()?,
        None => 1,
    };
    let body = if bool_flag(args, "--status") {
        RequestBody::Status
    } else if bool_flag(args, "--shutdown") {
        RequestBody::Shutdown
    } else if bool_flag(args, "--rollback") {
        RequestBody::Rollback
    } else if let Some(path) = flag(args, "--swap") {
        RequestBody::Swap { path: path.into() }
    } else if let Some(path) = flag(args, "--rows-from") {
        let ds = congestion_core::persist::load(path)?;
        let limit = match flag(args, "--limit") {
            Some(s) => s.parse()?,
            None => ds.len(),
        };
        let rows = (0..ds.len().min(limit))
            .map(|i| ds.features_of(i).to_vec())
            .collect();
        RequestBody::Predict { rows }
    } else if let Some(path) = flag(args, "--source") {
        let text = std::fs::read_to_string(path)?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("design")
            .to_string();
        RequestBody::Source { name, text }
    } else {
        return Err(
            "serve-client needs one of --status --shutdown --rollback --swap --rows-from --source"
                .into(),
        );
    };
    let req = Request {
        id,
        deadline_ms: flag(args, "--deadline-ms").map(str::parse).transpose()?,
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

fn dataset_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let out = flag(args, "-o")
        .or(flag(args, "--out"))
        .unwrap_or("dataset.csv");
    let files = positional(args);
    if files.is_empty() {
        return Err(usage());
    }
    let mut flow = CongestionFlow::new();
    if let Some(k) = parse_place_kernel(args)? {
        flow.par.placer.kernel = k;
    }
    if let Some(w) = flag(args, "--workers") {
        flow = flow.with_workers(w.parse()?);
    }
    if let Some(k) = flag(args, "--extract-kernel") {
        let kernel = congestion_core::features::ExtractKernel::parse(k)
            .ok_or_else(|| format!("bad --extract-kernel `{k}` (expected soa|reference)"))?;
        flow = flow.with_extract_kernel(kernel);
    }
    if let Some(path) = flag(args, "--fault-plan") {
        let text = std::fs::read_to_string(path)?;
        let plan = fpga_hls_congestion::faultkit::FaultPlan::from_json(&text)?;
        eprintln!("armed fault plan {path} (seed {})", plan.seed);
        flow = flow.with_fault_plan(plan);
    }
    if let Some(n) = flag(args, "--max-retries") {
        flow.supervision.max_retries = n.parse()?;
    }
    if let Some(ms) = flag(args, "--stage-timeout-ms") {
        flow.supervision.stage_timeout = Some(std::time::Duration::from_millis(ms.parse()?));
    }
    if let Some(dir) = flag(args, "--checkpoint-dir") {
        flow = flow.with_checkpoint(dir, bool_flag(args, "--resume"));
    } else if bool_flag(args, "--resume") {
        return Err("--resume needs --checkpoint-dir <dir>".into());
    }
    let mut modules = Vec::new();
    for f in &files {
        modules.push(load_module(f)?.0);
    }
    // Supervised build: designs run on parallel workers; panics, injected
    // faults, and timeouts degrade into the per-design failure taxonomy
    // reported below without sinking the rest of the batch.
    let report = flow.build_dataset_report(&modules);
    print!("{}", report.render());
    if bool_flag(args, "--router-stats") {
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
        if flag(args, "--fingerprint-out").is_some() || flag(args, "--ledger-out").is_some() {
            Some(ds.fingerprint())
        } else {
            None
        };
    if let (Some(path), Some(fp)) = (flag(args, "--fingerprint-out"), &fingerprint) {
        std::fs::write(path, fp.to_json())?;
        eprintln!("wrote dataset fingerprint to {path}");
    }
    let totals = report.stage_totals();
    append_ledger(
        args,
        "dataset",
        flow.config_digest(),
        &[
            ("extract", flow.extract.name()),
            ("place", flow.par.placer.kernel.name()),
            ("route", flow.par.router.kernel.name()),
        ],
        &report.obs,
        |rec| {
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
        },
    )?;
    emit_observability(args, &report.obs)
}

fn parse_model(s: Option<&str>) -> Result<ModelKind, Box<dyn std::error::Error>> {
    Ok(match s.unwrap_or("gbrt") {
        "linear" => ModelKind::Linear,
        "ann" => ModelKind::Ann,
        "gbrt" => ModelKind::Gbrt,
        other => return Err(format!("unknown model `{other}`").into()),
    })
}

fn parse_target(s: Option<&str>) -> Result<Target, Box<dyn std::error::Error>> {
    Ok(match s.unwrap_or("v") {
        "v" | "vertical" => Target::Vertical,
        "h" | "horizontal" => Target::Horizontal,
        "avg" | "average" => Target::Average,
        other => return Err(format!("unknown target `{other}`").into()),
    })
}

/// [`TrainOptions`] with the GBRT kernel flags (`--gbrt-kernel`,
/// `--gbrt-bins`) applied.
fn parse_train_options(args: &[String]) -> Result<TrainOptions, Box<dyn std::error::Error>> {
    let mut opts = TrainOptions::default();
    if let Some(s) = flag(args, "--gbrt-kernel") {
        opts.gbrt_kernel = fpga_hls_congestion::mlkit::GbrtKernel::parse(s)
            .ok_or_else(|| format!("unknown --gbrt-kernel `{s}` (histogram|exact)"))?;
    }
    if let Some(s) = flag(args, "--gbrt-bins") {
        opts.gbrt_bins = s
            .parse()
            .map_err(|_| format!("--gbrt-bins takes a bin count, got `{s}`"))?;
    }
    Ok(opts)
}

fn train_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let files = positional(args);
    let path = files.first().ok_or_else(usage)?;
    let kind = parse_model(flag(args, "--model"))?;
    let target = parse_target(flag(args, "--target"))?;
    let ds = congestion_core::persist::load(path)?;
    let filtered = filter_marginal(&ds, &FilterOptions::default());
    println!(
        "{} samples ({} marginal filtered)",
        filtered.kept.len(),
        filtered.removed
    );
    let (train, test) = filtered.kept.split(0.2, 42);
    let obs = Collector::new();
    let opts = parse_train_options(args)?;
    let model = CongestionPredictor::train_observed(kind, target, &train, &opts, &obs);
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
    let config = format!(
        "{}|{}|{:?}|{}|{}",
        kind.name(),
        target.name(),
        opts.gbrt_kernel,
        opts.gbrt_bins,
        path
    );
    append_ledger(
        args,
        "train",
        fpga_hls_congestion::faultkit::fnv1a(&[b"hls-congest-train-v1", config.as_bytes()]),
        &[("gbrt", opts.gbrt_kernel.name())],
        &rec,
        |run_rec| {
            run_rec.note("model", kind.name());
            run_rec.note("target", target.name());
            run_rec.gauges.insert("eval.mae".to_string(), acc.mae);
            run_rec.gauges.insert("eval.medae".to_string(), acc.medae);
            let names = congestion_core::features::feature_names();
            model.telemetry(&test).record(run_rec, Some(&names), 10);
        },
    )?;
    if let Some(out) = flag(args, "--model-out") {
        export_model_artifact(args, &train, path, out)?;
    }
    emit_observability(args, &rec)
}

/// `train --model-out`: fit GBRT ensembles for *both* congestion targets
/// and write them as one versioned `servekit.model.v1` artifact — the unit
/// `congestd` loads, gates, and hot-swaps.
fn export_model_artifact(
    args: &[String],
    train: &congestion_core::CongestionDataset,
    data_path: &str,
    out: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    use fpga_hls_congestion::servekit::ModelArtifact;
    let opts = parse_train_options(args)?;
    let version = match flag(args, "--model-version") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--model-version takes an integer, got `{s}`"))?,
        None => 1,
    };
    let fit = |target| {
        let p = CongestionPredictor::train(ModelKind::Gbrt, target, train, &opts);
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
fn drift_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let files = positional(args);
    let [a, b] = files.as_slice() else {
        return Err("drift needs exactly two fingerprint files".into());
    };
    let load =
        |path: &str| -> Result<congestion_core::DatasetFingerprint, Box<dyn std::error::Error>> {
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

fn predict_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let files = positional(args);
    let path = files.first().ok_or_else(usage)?;
    let data = flag(args, "--data").ok_or("predict needs --data <dataset.csv>")?;
    let (module, source) = load_module(path)?;
    let ds = congestion_core::persist::load(data)?;
    let filtered = filter_marginal(&ds, &FilterOptions::default());
    let obs = Collector::new();
    let model = CongestionPredictor::train_observed(
        ModelKind::Gbrt,
        Target::Average,
        &filtered.kept,
        &parse_train_options(args)?,
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
    emit_observability(args, &obs.finish())
}
