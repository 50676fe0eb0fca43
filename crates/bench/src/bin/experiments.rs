//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--fast] [--grid-search]
//!             <table1|table3|table4|table5|table6|fig1|fig5|fig6|dataset|ablation|place-bench|router-bench|train-bench|pipeline-bench|serve-bench|regress|all>
//! experiments --version
//! ```
//!
//! Reports are printed to stdout and written under `reports/`. The shared
//! observability flags `--trace-out <file>`, `--metrics-out <file>`,
//! `--ledger-out <file>` and `--profile` export an obskit Chrome trace /
//! metrics snapshot / run-ledger record / profile table covering every
//! experiment run by the invocation. Flags are parsed by
//! `congestion_core::cli::RunOptions`; an unknown flag is an error.

use congestion_bench::designs::Effort;
use congestion_bench::*;
use congestion_core::cli::{RunOptions, Tool};
use std::fs;
use std::path::Path;

/// This binary's identity; `build.rs` bakes in the git hash.
const TOOL: Tool = Tool::new(
    "experiments",
    env!("CARGO_PKG_VERSION"),
    option_env!("GIT_HASH"),
);

/// Print `e` and exit with `code`.
fn fail(e: impl std::fmt::Display, code: i32) -> ! {
    eprintln!("error: {e}");
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = RunOptions::from_args(&args).unwrap_or_else(|e| fail(e, 2));
    if opts.switch("--version") {
        println!("{}", TOOL.version_line());
        return;
    }
    if let Some(extra) = opts.positionals.first() {
        fail(format!("one experiment per run (unexpected `{extra}`)"), 2);
    }
    let fast = opts.switch("--fast");
    let grid = opts.switch("--grid-search");
    let effort = if fast { Effort::Fast } else { Effort::Full };
    let what = opts.selector.as_deref().unwrap_or("all");

    fs::create_dir_all("reports").ok();

    // Session-wide collector: every experiment gets a span, and experiments
    // that produce their own records (dataset, router-bench) merge them in.
    let obs = obskit::Collector::new();
    let absorb = |metrics| {
        obs.absorb(obskit::ObsRecord {
            events: Vec::new(),
            metrics,
        })
    };
    let full = effort == Effort::Full;

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
                let t = table4::run_on(&ds, effort, grid);
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
                let flow = opts
                    .apply_to_flow(effort.flow())
                    .unwrap_or_else(|e| fail(e, 2));
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
            // The bench head-to-heads write their snapshot through the
            // canonical writer (same bytes in both copies); full effort also
            // refreshes the committed BENCH_*.json baseline at the repo root.
            "place-bench" => {
                // Placement-kernel head-to-head; `--fast` restricts the corpus
                // to the small designs (used by the CI smoke run).
                let rows = place_bench::run(effort);
                emit("place_bench", &place_bench::render(&rows));
                let json = place_bench::to_json(&rows, effort);
                artifact::write_bench("place_bench.json", "BENCH_place.json", &json, full);
                absorb(place_bench::to_metrics(&rows));
            }
            "router-bench" => {
                // Routing-kernel head-to-head; `--fast` restricts the corpus to
                // the small designs (used by the CI smoke run).
                let rows = router_bench::run(effort);
                emit("router_bench", &router_bench::render(&rows));
                let json = router_bench::to_json(&rows, effort);
                artifact::write_bench("router_bench.json", "BENCH_route.json", &json, full);
                absorb(router_bench::to_metrics(&rows));
            }
            "pipeline-bench" => {
                // Extraction-kernel head-to-head (SoA vs reference, per design
                // and on whole dataset builds); `--fast` shrinks the corpus
                // (the CI smoke run).
                let bench = pipeline_bench::run(effort);
                emit("pipeline_bench", &pipeline_bench::render(&bench));
                let json = pipeline_bench::to_json(&bench, effort);
                artifact::write_bench("pipeline_bench.json", "BENCH_pipeline.json", &json, full);
                absorb(pipeline_bench::to_metrics(&bench));
            }
            "train-bench" => {
                // GBRT training-kernel head-to-head; `--fast` shrinks the
                // suite and stage count (the CI smoke run).
                let rows = train_bench::run(effort);
                emit("train_bench", &train_bench::render(&rows));
                let json = train_bench::to_json(&rows, effort);
                artifact::write_bench("train_bench.json", "BENCH_train.json", &json, full);
                absorb(train_bench::to_metrics(&rows));
            }
            "serve-bench" => {
                // congestd serving benchmark: in-process throughput (p50/p99,
                // predictions/s) plus a paced 2× overload run measuring the
                // shed rate and the every-request-answered invariant.
                let bench = serve_bench::run(effort);
                emit("serve_bench", &serve_bench::render(&bench));
                let json = serve_bench::to_json(&bench, effort);
                artifact::write_bench("serve_bench.json", "BENCH_serve.json", &json, full);
                absorb(serve_bench::to_metrics(&bench));
            }
            "regress" => {
                // The quality regression gate: validate the committed
                // BENCH_*.json baselines (schema, meta stamps, perf/accuracy
                // tolerance bands, determinism invariants), the reports/
                // mirrors, and the run ledger. Nonzero exit on any finding —
                // CI runs this after the bench smokes.
                let ledger = opts
                    .value("--ledger-out")
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| Path::new("reports").join("runs.jsonl"));
                let report = regress::run(Path::new("."), Some(&ledger));
                emit("regress", &report.render());
                if !report.ok() {
                    std::process::exit(1);
                }
            }
            other => fail(format!("unknown experiment `{other}`"), 2),
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
        run_one(what);
    }

    let rec = obs.finish();
    // Run ledger: one `obskit.run.v1` line per invocation, stamped with the
    // command-line digest, the kernel stamps, per-experiment stage timings,
    // and the session metric snapshot. `regress` only reads the ledger.
    if what != "regress" {
        let ledger = opts.append_ledger(&TOOL, what, opts.command_digest(), &rec, |run_rec| {
            run_rec.note("effort", effort.name());
            for e in &rec.events {
                if e.cat == "experiment" {
                    run_rec.stage_ms(&e.name, e.dur_us as f64 / 1e3);
                }
            }
        });
        ledger.unwrap_or_else(|e| fail(e, 1));
    }
    opts.write_outputs(&TOOL, &rec)
        .unwrap_or_else(|e| fail(e, 1));
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
