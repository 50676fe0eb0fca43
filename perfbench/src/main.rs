//! Journey benchmark for the congestion predictor.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fresh|repeat --seed N --seconds S --trace 0|1
//! ```
//!
//! One run spends its `--seconds` on the three journeys users take:
//! building a dataset, fitting a model, and asking `congestd` about a
//! source file. Eleven times, spread over the run, it sets up from scratch
//! (Rosetta corpus → dataset → seeded split → exported model → `congestd`
//! answering over TCP) and keeps the median set-up time. It checks every
//! output and prints one JSON line last:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end timings; with
//! `--trace 1` they are the per-layer breakdown (mean milliseconds per
//! journey; the layers of a journey add up to its wall time) and the work
//! counters. Host facts go to stderr.

mod journeys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run, spread over it; the reported set-up time is their
/// median.
const SETUPS: usize = 11;

/// Share of `--seconds` each journey gets: build, fit, serve.
const SPLIT: [f64; 3] = [0.30, 0.35, 0.35];

/// Fewest journeys of each kind a run makes, whatever `--seconds` says,
/// so that even a short run has a serve distribution to take quantiles of.
const MIN_JOURNEYS: [usize; 3] = [3, 3, 100];

/// Which inputs a run uses. See `BENCHMARK.json` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fresh,
    Repeat,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "fresh" => Workload::Fresh,
            "repeat" => Workload::Repeat,
            _ => return None,
        })
    }
}

/// Layer time summed over a phase's journeys, by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Duration>);

impl Layers {
    pub fn add(&mut self, name: &'static str, d: Duration) {
        *self.0.entry(name).or_default() += d;
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown --workload `{workload}` (fresh|repeat)"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
        },
    })
}

/// Linear-interpolated quantile of durations, in milliseconds.
fn quantile_ms(times: &[Duration], q: f64) -> f64 {
    let mut ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let pos = q * (ms.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    ms[lo] + (ms[hi] - ms[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean_ms(times: &[Duration]) -> f64 {
    ms(times.iter().sum()) / times.len() as f64
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Per-layer figures of one phase: mean time per journey for each layer,
/// and, where part of the wall time has no layer, the share that does.
fn layer_metrics(phase: &journeys::Phase, journey: &str, out: &mut Vec<Metric>) {
    let n = phase.times.len() as f64;
    let total: Duration = phase.times.iter().sum();
    let unattributed = format!("{journey}.unattributed_ms");
    let mut named = Duration::ZERO;
    for (name, d) in &phase.layers.0 {
        out.push(metric(name, ms(*d) / n, "ms"));
        if *name != unattributed {
            named += *d;
        }
    }
    if phase.layers.0.contains_key(unattributed.as_str()) {
        out.push(metric(
            &format!("{journey}.coverage_pct"),
            100.0 * named.as_secs_f64() / total.as_secs_f64(),
            "%",
        ));
    }
    for (name, v) in &phase.extra {
        out.push(metric(name, *v, "count"));
    }
}

/// What one run measured: journeys attempted, journeys whose output was
/// wrong, and the metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    // Parallel GBRT fits honour RAYON_NUM_THREADS; pin them to one thread
    // like every other stage here, so a run measures the same work on any
    // host.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    eprintln!(
        "perfbench: workload {:?} seed {} seconds {} trace {} | host cpus {} | {} {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::consts::OS,
        std::env::consts::ARCH,
    );
    let dir = PathBuf::from(".bench_run").join(format!("perfbench-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = measure(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(entries) = std::fs::read_dir(".bench_run") {
        if entries.count() == 0 {
            let _ = std::fs::remove_dir(".bench_run");
        }
    }
    result
}

fn measure(args: &Args, dir: &std::path::Path) -> Result<Outcome, Box<dyn std::error::Error>> {
    let corpus = journeys::rosetta_corpus();
    let modules = journeys::canonical_modules(&corpus)?;
    let setup = || journeys::setup(args.seed, dir, &corpus, &modules);
    let mut setups = Vec::with_capacity(SETUPS);
    let (mut env, took) = setup()?;
    setups.push(took);

    // The journeys interleave: each step runs one journey of the kind
    // furthest behind its share of the time, so all three sample the same
    // stretch of the run and see the same machine. The set-ups are spread
    // over the run for the same reason: the daemon is torn down and set up
    // again at even intervals.
    let total = Duration::from_secs_f64(args.seconds);
    let mut build = journeys::Build::new(&env);
    let mut fit = journeys::Fit::new(&env, args.seed);
    let mut serve = journeys::Serve::new(args.workload, args.seed, env.corpus.len());
    let mut spent = [0.0f64; 3];
    let start = Instant::now();
    loop {
        if setups.len() < SETUPS && start.elapsed() >= total * setups.len() as u32 / SETUPS as u32 {
            env.stop()?;
            serve.absorb(&env);
            let (e, took) = setup()?;
            env = e;
            setups.push(took);
        }
        let done = [
            build.phase.times.len(),
            fit.phase.times.len(),
            serve.phase.times.len(),
        ];
        let due: Vec<usize> = (0..3)
            .filter(|&k| start.elapsed() < total || done[k] < MIN_JOURNEYS[k])
            .collect();
        let Some(&k) = due
            .iter()
            .min_by(|&&a, &&b| (spent[a] / SPLIT[a]).total_cmp(&(spent[b] / SPLIT[b])))
        else {
            break;
        };
        let t = Instant::now();
        match k {
            0 => build.step(&env, args.trace)?,
            1 => fit.step(args.trace),
            _ => serve.step(&mut env)?,
        }
        spent[k] += t.elapsed().as_secs_f64();
    }
    env.stop()?;
    serve.absorb(&env);
    let build = build.phase;
    let fit = fit.phase;
    let served = serve.served.clone();
    let serve = serve.finish(&env, args.trace)?;

    let attempted = (build.times.len() + fit.times.len() + serve.times.len()) as u64;
    let failed = build.failed + fit.failed + serve.failed;
    let mut metrics = Vec::new();
    if args.trace {
        layer_metrics(&build, "build", &mut metrics);
        layer_metrics(&fit, "fit", &mut metrics);
        layer_metrics(&serve, "serve", &mut metrics);
        for (name, v) in &env.setup_counts {
            metrics.push(metric(name, *v, "count"));
        }
        metrics.push(metric("serve.p50_ms", quantile_ms(&serve.times, 0.5), "ms"));
        metrics.push(metric(
            "serve.p99_ms",
            quantile_ms(&serve.times, 0.99),
            "ms",
        ));
        // The paper's premise as a ratio: compiling, synthesizing and
        // placing-and-routing the designs that were served, over asking
        // congestd about them.
        let builds = build.times.len() as f64;
        let impl_ms: f64 = served
            .iter()
            .zip(&build.design_impl)
            .map(|(&n, d)| n as f64 * ms(*d) / builds)
            .sum();
        metrics.push(metric(
            "estimate_speedup",
            impl_ms / ms(serve.times.iter().sum()),
            "x",
        ));
    } else {
        metrics.push(metric("build_ms", quantile_ms(&build.times, 0.5), "ms"));
        metrics.push(metric("fit_ms", quantile_ms(&fit.times, 0.5), "ms"));
        // The event loop polls with a sleep when idle, so round trips fall
        // into modes a poll period apart, and a quantile jumps between
        // modes when the machine runs a little faster or slower. The mean
        // moves smoothly. The quantiles are traced figures.
        metrics.push(metric("serve_mean_ms", mean_ms(&serve.times), "ms"));
        metrics.push(metric("setup_s", quantile_ms(&setups, 0.5) / 1e3, "s"));
    }
    eprintln!(
        "perfbench: {} build, {} fit, {} serve journeys ({} / {} / {} wrong); set-ups {:?}",
        build.times.len(),
        fit.times.len(),
        serve.times.len(),
        build.failed,
        fit.failed,
        serve.failed,
        setups
    );
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name).into());
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(Outcome {
            attempted,
            failed,
            metrics,
        }) => {
            let correct = failed == 0;
            let body: Vec<String> = metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )
                })
                .collect();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                body.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
