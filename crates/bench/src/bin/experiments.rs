//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--fast] [--grid-search] [--gbrt-kernel <histogram|exact>] [--gbrt-bins <n>]
//!             [--place-kernel <delta|reference>] [--extract-kernel <soa|reference>]
//!             <table1|table3|table4|table5|table6|fig1|fig5|fig6|dataset|ablation|place-bench|router-bench|train-bench|pipeline-bench|serve-bench|all>
//! experiments --version
//! ```
//!
//! Reports are printed to stdout and written under `reports/`. The shared
//! observability flags `--trace-out <file>`, `--metrics-out <file>` and
//! `--profile` export an obskit Chrome trace / metrics snapshot / profile
//! table covering every experiment run by the invocation.

use congestion_bench::designs::Effort;
use congestion_bench::*;
use std::fs;
use std::path::Path;

/// Flags that consume the next token; the experiment selector must not
/// mistake their values for an experiment name.
const VALUE_FLAGS: &[&str] = &[
    "--trace-out",
    "--metrics-out",
    "--ledger-out",
    "--fault-plan",
    "--max-retries",
    "--stage-timeout-ms",
    "--checkpoint-dir",
    "--gbrt-kernel",
    "--gbrt-bins",
    "--place-kernel",
    "--extract-kernel",
];

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

/// First token that is neither a flag nor a value-taking flag's value.
fn selector(args: &[String]) -> Option<String> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = VALUE_FLAGS.contains(&a.as_str());
            continue;
        }
        return Some(a.clone());
    }
    None
}

fn version_string() -> String {
    format!(
        "experiments {} (git {})",
        env!("CARGO_PKG_VERSION"),
        option_env!("GIT_HASH").unwrap_or("unknown")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version") {
        println!("{}", version_string());
        return;
    }
    let fast = args.iter().any(|a| a == "--fast");
    let grid = args.iter().any(|a| a == "--grid-search");
    let effort = if fast { Effort::Fast } else { Effort::Full };
    let what = selector(&args).unwrap_or_else(|| "all".to_string());

    // GBRT kernel overrides, applied to every experiment that trains models.
    let gbrt_kernel = flag(&args, "--gbrt-kernel").map(|s| {
        mlkit::GbrtKernel::parse(s).unwrap_or_else(|| {
            eprintln!("bad --gbrt-kernel `{s}` (expected histogram|exact)");
            std::process::exit(2);
        })
    });
    let gbrt_bins = flag(&args, "--gbrt-bins").map(|s| {
        s.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("bad --gbrt-bins `{s}` (expected a bin count)");
            std::process::exit(2);
        })
    });
    // Placement kernel override, applied to the dataset experiment's flow.
    let place_kernel = flag(&args, "--place-kernel").map(|s| {
        fpga_fabric::PlaceKernel::parse(s).unwrap_or_else(|| {
            eprintln!("bad --place-kernel `{s}` (expected delta|reference)");
            std::process::exit(2);
        })
    });
    // Feature-extraction kernel, applied to the dataset experiment's flow.
    let extract_kernel = flag(&args, "--extract-kernel").map(|s| {
        congestion_core::features::ExtractKernel::parse(s).unwrap_or_else(|| {
            eprintln!("bad --extract-kernel `{s}` (expected soa|reference)");
            std::process::exit(2);
        })
    });
    let train_opts = |grid_search: bool| {
        let mut opts = effort.train(grid_search);
        if let Some(k) = gbrt_kernel {
            opts.gbrt_kernel = k;
        }
        if let Some(b) = gbrt_bins {
            opts.gbrt_bins = b;
        }
        opts
    };

    fs::create_dir_all("reports").ok();

    // Session-wide collector: every experiment gets a span, and experiments
    // that produce their own records (dataset, router-bench) merge them in.
    let obs = obskit::Collector::new();

    let run_one = |name: &str| {
        let _span = obs.span_cat(name, "experiment");
        match name {
            "table1" => {
                let t = table1::run(effort);
                emit("table1", &t.render());
                println!("shape holds: {}", t.shape_holds());
            }
            "fig1" => {
                let f = fig1::run(effort);
                for fig in [&f.with_directives, &f.without_directives] {
                    emit(&format!("fig1_{}_vertical", fig.label), &fig.vertical_art);
                    emit(
                        &format!("fig1_{}_horizontal", fig.label),
                        &fig.horizontal_art,
                    );
                    write_file(&format!("fig1_{}.csv", fig.label), &fig.csv);
                    println!("{}: max congestion {:.2}%", fig.label, fig.max_congestion);
                }
            }
            "table3" => {
                let (t, _) = table3::run(effort);
                emit("table3", &t.render());
            }
            "table4" => {
                let (t3, ds) = table3::run(effort);
                emit("table3", &t3.render());
                let t = table4::run_with(&ds, &train_opts(grid));
                emit("table4", &t.render());
                println!(
                    "GBRT wins: {}, filtering helps: {}",
                    t.gbrt_wins(),
                    t.filtering_helps()
                );
            }
            "table5" => {
                let (_, ds) = table3::run(effort);
                let filtered = congestion_core::filter::filter_marginal(&ds, &Default::default());
                let t = table5::run_on(&filtered.kept, effort);
                emit("table5", &t.render());
            }
            "table6" => {
                let t = table6::run(effort);
                emit("table6", &t.render());
                println!("shape holds: {}", t.shape_holds());
            }
            "fig5" => {
                let f = fig5::run(effort);
                emit("fig5", &f.render());
                println!("center exceeds margin: {}", f.center_exceeds_margin());
            }
            "fig6" => {
                let f = fig6::run(effort);
                let mut summary = String::from("FIG 6. RESOLVING ROUTING CONGESTION\n");
                for s in &f.steps {
                    emit(&format!("fig6_{}_vertical", s.label), &s.vertical_art);
                    emit(&format!("fig6_{}_horizontal", s.label), &s.horizontal_art);
                    summary.push_str(&format!(
                        "{}: peak {:.0}%, {} tiles over 100%\n",
                        s.label, s.max_congestion, s.congested_tiles
                    ));
                }
                emit("fig6_summary", &summary);
                println!("peak congestion recedes: {}", f.peak_recedes());
            }
            "dataset" => {
                // Parallel supervised dataset build over the training suite,
                // with the per-design / per-stage timing breakdown. Worker
                // count honours RAYON_NUM_THREADS; the robustness flags
                // (--fault-plan/--max-retries/--stage-timeout-ms/
                // --checkpoint-dir/--resume) mirror `hls-congest dataset`.
                let mut flow = effort.flow();
                if let Some(k) = place_kernel {
                    flow.par.placer.kernel = k;
                }
                if let Some(k) = extract_kernel {
                    flow = flow.with_extract_kernel(k);
                }
                if let Some(path) = flag(&args, "--fault-plan") {
                    match fs::read_to_string(path)
                        .map_err(|e| e.to_string())
                        .and_then(|t| faultkit::FaultPlan::from_json(&t).map_err(|e| e.to_string()))
                    {
                        Ok(plan) => {
                            eprintln!("armed fault plan {path} (seed {})", plan.seed);
                            flow = flow.with_fault_plan(plan);
                        }
                        Err(e) => {
                            eprintln!("bad --fault-plan {path}: {e}");
                            std::process::exit(2);
                        }
                    }
                }
                if let Some(n) = flag(&args, "--max-retries") {
                    flow.supervision.max_retries = n.parse().expect("--max-retries takes a number");
                }
                if let Some(ms) = flag(&args, "--stage-timeout-ms") {
                    let ms: u64 = ms.parse().expect("--stage-timeout-ms takes milliseconds");
                    flow.supervision.stage_timeout = Some(std::time::Duration::from_millis(ms));
                }
                if let Some(dir) = flag(&args, "--checkpoint-dir") {
                    flow = flow.with_checkpoint(dir, args.iter().any(|a| a == "--resume"));
                }
                let modules = designs::training_suite();
                let report = flow.build_dataset_report(&modules);
                emit("dataset_timing", &report.render());
                obs.absorb(report.obs.clone());
            }
            "ablation" => {
                let (_, ds) = table3::run(effort);
                let filtered = congestion_core::filter::filter_marginal(&ds, &Default::default());
                let results = ablation::category_knockout(&filtered.kept, effort);
                let mut text = String::from("ABLATION: CATEGORY KNOCK-OUT (GBRT, vertical)\n");
                for r in &results {
                    text.push_str(&format!(
                        "  -{:<20} MAE {:>6.2} (baseline {:>6.2}, delta {:+.2})\n",
                        r.category,
                        r.mae,
                        r.baseline_mae,
                        r.delta()
                    ));
                }
                // Two-hop ablation.
                let no2 = ablation::without_two_hop(&filtered.kept);
                let opts = effort.train(false);
                let (tr, te) = no2.split(0.2, 23);
                let mae_no2 = congestion_core::predict::CongestionPredictor::train(
                    congestion_core::ModelKind::Gbrt,
                    congestion_core::Target::Vertical,
                    &tr,
                    &opts,
                )
                .evaluate(&te)
                .mae;
                text.push_str(&format!("  1-hop-only features: MAE {mae_no2:.2}\n"));
                emit("ablation", &text);
            }
            "place-bench" => {
                // Placement-kernel head-to-head; `--fast` restricts the corpus
                // to the small designs (used by the CI smoke run). Full effort
                // also refreshes the BENCH_place.json baseline at the repo root
                // through the canonical writer (same bytes in both copies).
                let rows = place_bench::run(effort);
                emit("place_bench", &place_bench::render(&rows));
                let json = place_bench::to_json(&rows, effort);
                artifact::write_bench(
                    "place_bench.json",
                    "BENCH_place.json",
                    &json,
                    effort == Effort::Full,
                );
                obs.absorb(obskit::ObsRecord {
                    events: Vec::new(),
                    metrics: place_bench::to_metrics(&rows),
                });
            }
            "router-bench" => {
                // Routing-kernel head-to-head; `--fast` restricts the corpus to
                // the small designs (used by the CI smoke run). Full effort also
                // refreshes the BENCH_route.json baseline at the repo root.
                let rows = router_bench::run(effort);
                emit("router_bench", &router_bench::render(&rows));
                let json = router_bench::to_json(&rows, effort);
                artifact::write_bench(
                    "router_bench.json",
                    "BENCH_route.json",
                    &json,
                    effort == Effort::Full,
                );
                obs.absorb(obskit::ObsRecord {
                    events: Vec::new(),
                    metrics: router_bench::to_metrics(&rows),
                });
            }
            "pipeline-bench" => {
                // Extraction-kernel head-to-head (SoA vs reference, per design
                // and on whole dataset builds); `--fast`
                // shrinks the corpus (the CI smoke run). Full effort also
                // refreshes the BENCH_pipeline.json baseline at the repo root.
                let bench = pipeline_bench::run(effort);
                emit("pipeline_bench", &pipeline_bench::render(&bench));
                let json = pipeline_bench::to_json(&bench, effort);
                artifact::write_bench(
                    "pipeline_bench.json",
                    "BENCH_pipeline.json",
                    &json,
                    effort == Effort::Full,
                );
                obs.absorb(obskit::ObsRecord {
                    events: Vec::new(),
                    metrics: pipeline_bench::to_metrics(&bench),
                });
            }
            "train-bench" => {
                // GBRT training-kernel head-to-head; `--fast` shrinks the
                // suite and stage count (the CI smoke run). Full effort also
                // refreshes the BENCH_train.json baseline at the repo root.
                let rows = train_bench::run(effort);
                emit("train_bench", &train_bench::render(&rows));
                let json = train_bench::to_json(&rows, effort);
                artifact::write_bench(
                    "train_bench.json",
                    "BENCH_train.json",
                    &json,
                    effort == Effort::Full,
                );
                obs.absorb(obskit::ObsRecord {
                    events: Vec::new(),
                    metrics: train_bench::to_metrics(&rows),
                });
            }
            "serve-bench" => {
                // congestd serving benchmark: in-process throughput (p50/p99,
                // predictions/s) plus a paced 2× overload run measuring the
                // shed rate and the every-request-answered invariant. Full
                // effort refreshes the BENCH_serve.json baseline.
                let bench = serve_bench::run(effort);
                emit("serve_bench", &serve_bench::render(&bench));
                let json = serve_bench::to_json(&bench, effort);
                artifact::write_bench(
                    "serve_bench.json",
                    "BENCH_serve.json",
                    &json,
                    effort == Effort::Full,
                );
                obs.absorb(obskit::ObsRecord {
                    events: Vec::new(),
                    metrics: serve_bench::to_metrics(&bench),
                });
            }
            "regress" => {
                // The quality regression gate: validate the committed
                // BENCH_*.json baselines (schema, meta stamps, perf/accuracy
                // tolerance bands, determinism invariants), the reports/
                // mirrors, and the run ledger. Nonzero exit on any finding —
                // CI runs this after the bench smokes.
                let ledger = flag(&args, "--ledger-out")
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| Path::new("reports").join("runs.jsonl"));
                let report = regress::run(Path::new("."), Some(&ledger));
                emit("regress", &report.render());
                if !report.ok() {
                    std::process::exit(1);
                }
            }
            other => {
                eprintln!("unknown experiment `{other}`");
                std::process::exit(2);
            }
        }
    };

    if what == "all" {
        for name in [
            "table1", "fig1", "table3", "table4", "table5", "table6", "fig5", "fig6", "ablation",
        ] {
            println!("=== {name} ===");
            run_one(name);
        }
    } else {
        run_one(&what);
    }

    let rec = obs.finish();
    // Run ledger: one `obskit.run.v1` line per invocation, stamped with the
    // config digest, active kernels, per-experiment stage timings, and the
    // session metric snapshot. `regress` only reads the ledger.
    if what != "regress" {
        if let Some(path) = flag(&args, "--ledger-out") {
            let mut run_rec = obskit::RunRecord::new(
                "experiments",
                &what,
                env!("CARGO_PKG_VERSION"),
                option_env!("GIT_HASH").unwrap_or("unknown"),
            );
            run_rec.config_digest =
                format!("{:016x}", faultkit::fnv1a(&[args.join(" ").as_bytes()]));
            artifact::stamp_kernels(&mut run_rec);
            run_rec.note("effort", effort.name());
            for e in &rec.events {
                if e.cat == "experiment" {
                    run_rec.stage_ms(&e.name, e.dur_us as f64 / 1e3);
                }
            }
            run_rec.absorb_metrics(&rec.metrics);
            if let Err(e) = run_rec.append_to(Path::new(path)) {
                eprintln!("warning: could not append run record to {path}: {e}");
            } else {
                eprintln!("appended run record to {path}");
            }
        }
    }
    if let Some(path) = flag(&args, "--trace-out") {
        if let Err(e) = fs::write(path, obskit::sink::chrome_trace_json(&rec.events)) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            eprintln!("wrote Chrome trace to {path} (load in chrome://tracing or ui.perfetto.dev)");
        }
    }
    if let Some(path) = flag(&args, "--metrics-out") {
        let meta = [
            ("tool", "experiments"),
            ("version", env!("CARGO_PKG_VERSION")),
            ("git", option_env!("GIT_HASH").unwrap_or("unknown")),
        ];
        if let Err(e) = fs::write(path, obskit::sink::metrics_json(&rec.metrics, &meta)) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            eprintln!("wrote metrics snapshot to {path}");
        }
    }
    if args.iter().any(|a| a == "--profile") {
        println!("{}", obskit::sink::profile_table(&rec));
    }
}

fn emit(name: &str, text: &str) {
    println!("{text}");
    write_file(&format!("{name}.txt"), text);
}

fn write_file(name: &str, text: &str) {
    let path = Path::new("reports").join(name);
    if let Err(e) = fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
