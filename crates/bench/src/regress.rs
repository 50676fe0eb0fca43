//! The perf/accuracy regression gate behind `experiments regress`.
//!
//! The gate loads the committed `BENCH_*.json` baselines (plus their
//! `reports/` mirrors and the optional run ledger), validates them against
//! the `obskit.metrics.v1` schema, and applies tolerance bands: perf
//! gauges get ratio floors, accuracy gauges get absolute bands, and
//! determinism counters must hold exactly. Any violation is a [`Finding`];
//! a non-empty report makes `experiments regress` exit nonzero, which is
//! what CI keys off.
//!
//! Band philosophy: wall-clock derived gauges are noisy, so floors sit
//! well below the committed values (e.g. the routing corpus speedup is
//! 4.1x, the floor is 1.5x) — the gate catches "the optimisation stopped
//! working" or "someone committed a smoke run as a baseline", not 10 %
//! jitter. Tiny designs (`mac16`) are never banded on time. Search-work
//! counters and bit-identity verdicts are deterministic, so those checks
//! are exact. Raising a band on purpose means regenerating the baseline
//! with a full-effort run and committing both the JSON and the band edit
//! in the same change (see DESIGN.md §13).

use obskit::json::{parse, Value};
use std::fs;
use std::path::Path;

/// The committed baselines the gate covers: `(root baseline, reports/
/// mirror)`. Both files come from one serialized string (see
/// [`crate::artifact::write_bench`]), so when the mirror records a
/// full-effort run the two must be byte-identical.
pub const BASELINES: &[(&str, &str)] = &[
    ("BENCH_place.json", "place_bench.json"),
    ("BENCH_route.json", "router_bench.json"),
    ("BENCH_train.json", "train_bench.json"),
    ("BENCH_pipeline.json", "pipeline_bench.json"),
    ("BENCH_serve.json", "serve_bench.json"),
];

/// One violated invariant or tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The artifact the violation was found in.
    pub artifact: String,
    /// Which check tripped (short machine-ish name).
    pub check: String,
    /// Human-readable explanation with the observed and allowed values.
    pub detail: String,
}

impl Finding {
    fn new(artifact: &str, check: &str, detail: String) -> Finding {
        Finding {
            artifact: artifact.to_string(),
            check: check.to_string(),
            detail,
        }
    }
}

/// The gate's verdict over every artifact it could load.
#[derive(Debug, Clone, Default)]
pub struct RegressReport {
    /// Artifacts that were loaded and checked.
    pub checked: Vec<String>,
    /// Checks that could not run (missing optional artifact, fast-effort
    /// mirror) — reported, not fatal.
    pub skipped: Vec<String>,
    /// Violations. Empty means the gate passes.
    pub findings: Vec<Finding>,
}

impl RegressReport {
    /// True when no check found a regression.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable gate report for stdout.
    pub fn render(&self) -> String {
        let mut out = String::from("QUALITY REGRESSION GATE\n");
        for c in &self.checked {
            out.push_str(&format!("  checked {c}\n"));
        }
        for s in &self.skipped {
            out.push_str(&format!("  skipped {s}\n"));
        }
        if self.ok() {
            out.push_str("PASS: all baselines within tolerance bands\n");
        } else {
            for f in &self.findings {
                out.push_str(&format!(
                    "REGRESSION [{}] {}: {}\n",
                    f.artifact, f.check, f.detail
                ));
            }
            out.push_str(&format!("FAIL: {} regression(s)\n", self.findings.len()));
        }
        out
    }
}

fn gauge(doc: &Value, key: &str) -> Option<f64> {
    doc.get("gauges")?.get(key)?.as_f64()
}

fn counter(doc: &Value, key: &str) -> Option<u64> {
    doc.get("counters")?.get(key)?.as_u64()
}

/// Counter-key middle segments: `<prefix>.<design>.<suffix>` → `design`.
fn middle_segments(doc: &Value, prefix: &str, suffix: &str) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(counters) = doc.get("counters").and_then(Value::as_obj) {
        for key in counters.keys() {
            if let Some(rest) = key.strip_prefix(prefix) {
                if let Some(mid) = rest.strip_suffix(suffix) {
                    if !mid.is_empty() && !mid.contains('.') {
                        out.push(mid.to_string());
                    }
                }
            }
        }
    }
    out
}

/// Schema + meta-completeness checks shared by every bench artifact: the
/// `obskit.metrics.v1` tag, the tool/version/git stamps, the effort stamp
/// and all four kernel stamps (satellite: baselines must record which
/// kernels produced them).
fn check_doc_shape(name: &str, doc: &Value) -> Vec<Finding> {
    let mut f = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some("obskit.metrics.v1") {
        f.push(Finding::new(
            name,
            "schema",
            "missing or wrong schema tag (want obskit.metrics.v1)".to_string(),
        ));
        return f; // nothing else is trustworthy
    }
    let meta = doc.get("meta");
    for key in [
        "tool",
        "version",
        "git",
        "effort",
        "kernel.extract",
        "kernel.place",
        "kernel.route",
        "kernel.gbrt",
    ] {
        if meta
            .and_then(|m| m.get(key))
            .and_then(Value::as_str)
            .is_none()
        {
            f.push(Finding::new(
                name,
                "meta",
                format!("meta is missing the `{key}` stamp"),
            ));
        }
    }
    for section in ["counters", "gauges"] {
        if doc.get(section).and_then(Value::as_obj).is_none() {
            f.push(Finding::new(
                name,
                "shape",
                format!("missing `{section}` object"),
            ));
        }
    }
    f
}

/// Require `gauges[key] >= floor` (a perf ratio band).
fn floor_band(f: &mut Vec<Finding>, name: &str, doc: &Value, key: &str, floor: f64) {
    match gauge(doc, key) {
        Some(v) if v >= floor => {}
        Some(v) => f.push(Finding::new(
            name,
            "perf-band",
            format!("{key} = {v:.2} is below the {floor:.2} floor"),
        )),
        None => f.push(Finding::new(
            name,
            "perf-band",
            format!("required gauge `{key}` is missing"),
        )),
    }
}

fn place_checks(name: &str, doc: &Value) -> Vec<Finding> {
    let mut f = Vec::new();
    // Corpus-wide delta-kernel speedup (committed 2.2x).
    floor_band(&mut f, name, doc, "place_bench.total.speedup", 1.3);
    for design in middle_segments(doc, "place_bench.", ".cells") {
        let b = format!("place_bench.{design}");
        // Determinism/quality invariants: the delta kernel must not leave
        // more routed overflow or a materially worse cost than the
        // reference on any design.
        let d_over = counter(doc, &format!("{b}.delta.overflowed_tiles"));
        let r_over = counter(doc, &format!("{b}.reference_anneal.overflowed_tiles"));
        if let (Some(d), Some(r)) = (d_over, r_over) {
            if d > r {
                f.push(Finding::new(
                    name,
                    "quality",
                    format!("{b}: delta kernel leaves more overflow ({d} vs {r})"),
                ));
            }
        }
        let d_cost = gauge(doc, &format!("{b}.delta.cost"));
        let r_cost = gauge(doc, &format!("{b}.reference_anneal.cost"));
        if let (Some(d), Some(r)) = (d_cost, r_cost) {
            if d > r * 1.02 {
                f.push(Finding::new(
                    name,
                    "quality",
                    format!("{b}: delta cost {d:.0} exceeds reference {r:.0} by >2 %"),
                ));
            }
        }
    }
    f
}

fn route_checks(name: &str, doc: &Value) -> Vec<Finding> {
    let mut f = Vec::new();
    // The big-design speedup carries the optimisation's value (committed
    // 4.1x); small designs are sub-millisecond noise and are not banded.
    if gauge(doc, "router_bench.fd_opt.speedup").is_some() {
        floor_band(&mut f, name, doc, "router_bench.fd_opt.speedup", 1.5);
    } else {
        f.push(Finding::new(
            name,
            "coverage",
            "baseline lacks the fd_opt design (full-effort corpus)".to_string(),
        ));
    }
    for design in middle_segments(doc, "router_bench.", ".conns") {
        let b = format!("router_bench.{design}");
        // A* must never search more than the full-grid reference — the
        // window is a strict subset of the grid, so this is exact.
        let a = counter(doc, &format!("{b}.astar.expanded_nodes"));
        let r = counter(doc, &format!("{b}.reference_dijkstra.expanded_nodes"));
        if let (Some(a), Some(r)) = (a, r) {
            if a > r {
                f.push(Finding::new(
                    name,
                    "quality",
                    format!("{b}: astar expanded_nodes {a} exceeds reference {r}"),
                ));
            }
        }
        // Overflow quality gets a small band: the windowed kernel takes
        // slightly different detours, so parity ±5 % (+2 tiles for the
        // tiny designs) is the contract, not strict dominance.
        let a = counter(doc, &format!("{b}.astar.overflowed_tiles"));
        let r = counter(doc, &format!("{b}.reference_dijkstra.overflowed_tiles"));
        if let (Some(a), Some(r)) = (a, r) {
            if a as f64 > r as f64 * 1.05 + 2.0 {
                f.push(Finding::new(
                    name,
                    "quality",
                    format!("{b}: astar overflow {a} exceeds reference {r} by >5 %"),
                ));
            }
        }
    }
    f
}

fn train_checks(name: &str, doc: &Value) -> Vec<Finding> {
    let mut f = Vec::new();
    for target in ["vertical", "horizontal"] {
        let b = format!("train_bench.{target}");
        // Perf: the histogram kernel's fit speedup (committed 6.7x / 3.7x).
        floor_band(&mut f, name, doc, &format!("{b}.fit_speedup"), 1.5);
        let hist = gauge(doc, &format!("{b}.histogram.mae"));
        let serial = gauge(doc, &format!("{b}.histogram_serial.mae"));
        let exact = gauge(doc, &format!("{b}.reference_exact.mae"));
        match (hist, serial, exact) {
            (Some(h), Some(s), Some(e)) => {
                // Accuracy: absolute band against the exact-split kernel
                // (committed gap ≤ 0.1 MAE points) plus a hard ceiling.
                if (h - e).abs() > 2.0 {
                    f.push(Finding::new(
                        name,
                        "accuracy-band",
                        format!("{b}: histogram MAE {h:.2} drifts >2.0 from exact {e:.2}"),
                    ));
                }
                if h > 45.0 {
                    f.push(Finding::new(
                        name,
                        "accuracy-band",
                        format!("{b}: histogram MAE {h:.2} exceeds the 45.0 ceiling"),
                    ));
                }
                // Determinism: the serial and pooled histogram fits are the
                // same model, bit for bit.
                if h.to_bits() != s.to_bits() {
                    f.push(Finding::new(
                        name,
                        "determinism",
                        format!("{b}: worker count changed the model ({h} vs {s})"),
                    ));
                }
            }
            _ => f.push(Finding::new(
                name,
                "coverage",
                format!("{b}: missing histogram/serial/exact MAE gauges"),
            )),
        }
    }
    f
}

fn pipeline_checks(name: &str, doc: &Value) -> Vec<Finding> {
    let mut f = Vec::new();
    // Corpus-wide extraction-kernel speedup (committed 2.8x).
    floor_band(
        &mut f,
        name,
        doc,
        "pipeline_bench.total.features_speedup",
        1.5,
    );
    // Every bit-identity verdict must hold: the optimised stack reproduces
    // the baseline dataset exactly.
    let mut saw_identical = false;
    if let Some(counters) = doc.get("counters").and_then(Value::as_obj) {
        for (key, v) in counters {
            if key.ends_with(".identical") {
                saw_identical = true;
                if v.as_u64() != Some(1) {
                    f.push(Finding::new(
                        name,
                        "determinism",
                        format!("{key} != 1: optimised stack changed the dataset"),
                    ));
                }
            }
        }
    }
    if !saw_identical {
        f.push(Finding::new(
            name,
            "coverage",
            "baseline carries no .identical verdicts".to_string(),
        ));
    }
    f
}

fn serve_checks(name: &str, doc: &Value) -> Vec<Finding> {
    let mut f = Vec::new();
    // Liveness invariant: every request submitted during the paced 2×
    // overload run received exactly one typed reply. This is the serving
    // contract (shed-oldest answers with `overloaded`, never a stall), so
    // the check is exact, not banded.
    match counter(doc, "serve_bench.overload.every_request_answered") {
        Some(1) => {}
        Some(v) => f.push(Finding::new(
            name,
            "liveness",
            format!("overload run dropped replies (every_request_answered = {v})"),
        )),
        None => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.overload.every_request_answered".to_string(),
        )),
    }
    let submitted = counter(doc, "serve_bench.overload.submitted");
    let answered = counter(doc, "serve_bench.overload.answered");
    match (submitted, answered) {
        (Some(s), Some(a)) if s == a => {}
        (Some(s), Some(a)) => f.push(Finding::new(
            name,
            "liveness",
            format!("overload answered {a} of {s} submitted requests"),
        )),
        _ => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.overload.submitted/answered".to_string(),
        )),
    }
    // Shed-rate band: at 2× offered load with shed-oldest admission the
    // steady-state shed rate sits near 0.5; the wide band only rejects a
    // queue that stopped shedding (underload) or shed everything (wedged
    // worker), not scheduler jitter.
    match gauge(doc, "serve_bench.overload.shed_rate") {
        Some(r) if (0.05..=0.95).contains(&r) => {}
        Some(r) => f.push(Finding::new(
            name,
            "quality",
            format!("2x-overload shed rate {r:.2} outside the (0.05, 0.95) band"),
        )),
        None => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.overload.shed_rate".to_string(),
        )),
    }
    // Determinism: the overload phase is driven by a virtual clock (one
    // drain permit released per trace step), so the live shed set must
    // equal `shed_plan(capacity, trace)` verbatim — exact, not banded.
    match counter(doc, "serve_bench.overload.matches_shed_plan") {
        Some(1) => {}
        Some(v) => f.push(Finding::new(
            name,
            "determinism",
            format!("overload shed set diverged from shed_plan (matches_shed_plan = {v})"),
        )),
        None => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.overload.matches_shed_plan".to_string(),
        )),
    }
    // Coalescing contract: merged micro-batch replies are bit-for-bit the
    // per-request replies (exact), and batching a saturated queue of
    // single-row requests must pay off. The committed speedup is well
    // above 2×; 1.5× is the acceptance floor with margin for CI noise.
    match counter(doc, "serve_bench.coalesce.identical") {
        Some(1) => {}
        Some(v) => f.push(Finding::new(
            name,
            "determinism",
            format!("coalesced replies diverged from per-request serving (identical = {v})"),
        )),
        None => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.coalesce.identical".to_string(),
        )),
    }
    match gauge(doc, "serve_bench.coalesce.speedup") {
        Some(s) if s >= 1.5 => {}
        Some(s) => f.push(Finding::new(
            name,
            "perf",
            format!("coalescing speedup {s:.2}x below the 1.5x floor"),
        )),
        None => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.coalesce.speedup".to_string(),
        )),
    }
    // Cache accounting: hits + misses == lookups always (the counters are
    // written under one lock), hit replies are bitwise the miss-path
    // replies, and the hot swap must have invalidated at least once.
    let lookups = counter(doc, "serve_bench.cache.lookups");
    let hits = counter(doc, "serve_bench.cache.hits");
    let misses = counter(doc, "serve_bench.cache.misses");
    match (lookups, hits, misses) {
        (Some(l), Some(h), Some(m)) if h + m == l && h > 0 => {}
        (Some(l), Some(h), Some(m)) => f.push(Finding::new(
            name,
            "quality",
            format!("cache accounting broken: {h} hits + {m} misses vs {l} lookups"),
        )),
        _ => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.cache.lookups/hits/misses".to_string(),
        )),
    }
    match counter(doc, "serve_bench.cache.identical") {
        Some(1) => {}
        Some(v) => f.push(Finding::new(
            name,
            "determinism",
            format!("cache-hit replies diverged from miss-path replies (identical = {v})"),
        )),
        None => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.cache.identical".to_string(),
        )),
    }
    match counter(doc, "serve_bench.cache.invalidations") {
        Some(v) if v >= 1 => {}
        Some(v) => f.push(Finding::new(
            name,
            "quality",
            format!("hot swap did not invalidate the feature cache (invalidations = {v})"),
        )),
        None => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.cache.invalidations".to_string(),
        )),
    }
    // Perf floor: batched compiled-ensemble inference through the full
    // request path (committed ~1M predictions/s); the floor is ~20× under
    // the committed figure to absorb CI-machine noise.
    floor_band(
        &mut f,
        name,
        doc,
        "serve_bench.throughput.predictions_per_sec",
        50_000.0,
    );
    // Latency sanity: the server-side sketch must be populated and ordered.
    let p50 = gauge(doc, "serve_bench.throughput.p50_ms");
    let p99 = gauge(doc, "serve_bench.throughput.p99_ms");
    match (p50, p99) {
        (Some(a), Some(b)) if b + 1e-9 >= a => {}
        (Some(a), Some(b)) => f.push(Finding::new(
            name,
            "quality",
            format!("p99 {b:.3} ms below p50 {a:.3} ms"),
        )),
        _ => f.push(Finding::new(
            name,
            "coverage",
            "missing serve_bench.throughput.p50_ms/p99_ms".to_string(),
        )),
    }
    f
}

/// All checks for one parsed bench document, dispatched on the baseline
/// file name. Exposed so the perturbation test (and future tooling) can
/// gate an in-memory document without touching the filesystem.
pub fn check_metrics_doc(name: &str, doc: &Value) -> Vec<Finding> {
    let mut f = check_doc_shape(name, doc);
    if f.iter().any(|x| x.check == "schema") {
        return f;
    }
    if name.contains("place") {
        f.extend(place_checks(name, doc));
    } else if name.contains("route") {
        f.extend(route_checks(name, doc));
    } else if name.contains("train") {
        f.extend(train_checks(name, doc));
    } else if name.contains("pipeline") {
        f.extend(pipeline_checks(name, doc));
    } else if name.contains("serve") {
        f.extend(serve_checks(name, doc));
    }
    f
}

/// Structural checks over a run-ledger file (`runs.jsonl`): every line is
/// one valid `obskit.run.v1` record with the identity and kernel stamps.
/// Returns the record count alongside any findings.
pub fn check_ledger_text(name: &str, text: &str) -> (usize, Vec<Finding>) {
    let mut f = Vec::new();
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                f.push(Finding::new(
                    name,
                    "ledger-parse",
                    format!("line {}: {e}", i + 1),
                ));
                continue;
            }
        };
        records += 1;
        if rec.get("schema").and_then(Value::as_str) != Some(obskit::RUN_SCHEMA) {
            f.push(Finding::new(
                name,
                "ledger-schema",
                format!("line {}: schema tag is not {}", i + 1, obskit::RUN_SCHEMA),
            ));
            continue;
        }
        for key in ["tool", "kind", "git", "config_digest"] {
            if rec.get(key).and_then(Value::as_str).is_none() {
                f.push(Finding::new(
                    name,
                    "ledger-meta",
                    format!("line {}: record is missing `{key}`", i + 1),
                ));
            }
        }
        if rec.get("kernels").and_then(Value::as_obj).is_none() {
            f.push(Finding::new(
                name,
                "ledger-meta",
                format!("line {}: record is missing the `kernels` stamps", i + 1),
            ));
        }
    }
    (records, f)
}

/// Run the full gate rooted at `root` (the repo checkout): every committed
/// baseline, its `reports/` mirror when that mirror records a full-effort
/// run, and the run ledger when one exists at `ledger`.
pub fn run(root: &Path, ledger: Option<&Path>) -> RegressReport {
    let mut report = RegressReport::default();
    for (baseline, mirror) in BASELINES {
        let path = root.join(baseline);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                report.findings.push(Finding::new(
                    baseline,
                    "missing",
                    format!("cannot read committed baseline: {e}"),
                ));
                continue;
            }
        };
        let doc = match parse(&text) {
            Ok(d) => d,
            Err(e) => {
                report
                    .findings
                    .push(Finding::new(baseline, "parse", e.to_string()));
                continue;
            }
        };
        report.findings.extend(check_metrics_doc(baseline, &doc));
        report.checked.push(baseline.to_string());

        // Pair consistency: the reports/ mirror and the root baseline come
        // from one writer, so a full-effort mirror must be byte-identical.
        // CI bench smokes overwrite the mirror with fast-effort runs; the
        // effort stamp tells the two apart, so those are skipped.
        let mirror_path = root.join("reports").join(mirror);
        match fs::read_to_string(&mirror_path) {
            Ok(mtext) => {
                let effort = parse(&mtext).ok().and_then(|d| {
                    d.get("meta")
                        .and_then(|m| m.get("effort"))
                        .and_then(|v| v.as_str().map(str::to_string))
                });
                if effort.as_deref() == Some("full") {
                    if mtext != text {
                        report.findings.push(Finding::new(
                            baseline,
                            "pair",
                            format!("reports/{mirror} differs from the root baseline"),
                        ));
                    } else {
                        report.checked.push(format!("reports/{mirror} (pair)"));
                    }
                } else {
                    report.skipped.push(format!(
                        "reports/{mirror} pair check (not a full-effort run)"
                    ));
                }
            }
            Err(_) => report
                .skipped
                .push(format!("reports/{mirror} pair check (mirror not present)")),
        }
    }
    if let Some(path) = ledger {
        match fs::read_to_string(path) {
            Ok(text) => {
                let (records, findings) = check_ledger_text(&path.display().to_string(), &text);
                report.findings.extend(findings);
                report
                    .checked
                    .push(format!("{} ({records} run records)", path.display()));
            }
            Err(_) => report
                .skipped
                .push(format!("{} (no ledger found)", path.display())),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Rewrites one gauge inside a parsed document.
    fn set_gauge(doc: &mut Value, key: &str, v: f64) {
        if let Value::Obj(top) = doc {
            if let Some(Value::Obj(gauges)) = top.get_mut("gauges") {
                gauges.insert(key.to_string(), Value::Num(v));
            }
        }
    }

    #[test]
    fn committed_baselines_pass_the_gate() {
        let report = run(&repo_root(), None);
        assert!(report.checked.len() >= 5, "{}", report.render());
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn perturbed_perf_gauge_trips_the_gate() {
        let text = fs::read_to_string(repo_root().join("BENCH_place.json")).unwrap();
        let mut doc = parse(&text).unwrap();
        assert!(check_metrics_doc("BENCH_place.json", &doc).is_empty());
        set_gauge(&mut doc, "place_bench.total.speedup", 1.0);
        let f = check_metrics_doc("BENCH_place.json", &doc);
        assert!(
            f.iter().any(|x| x.check == "perf-band"),
            "perturbed speedup must trip the perf band: {f:?}"
        );
    }

    #[test]
    fn perturbed_accuracy_gauge_trips_the_gate() {
        let text = fs::read_to_string(repo_root().join("BENCH_train.json")).unwrap();
        let mut doc = parse(&text).unwrap();
        assert!(check_metrics_doc("BENCH_train.json", &doc).is_empty());
        set_gauge(&mut doc, "train_bench.vertical.histogram.mae", 99.0);
        let f = check_metrics_doc("BENCH_train.json", &doc);
        assert!(
            f.iter().any(|x| x.check == "accuracy-band"),
            "perturbed MAE must trip the accuracy band: {f:?}"
        );
        // ... and it also breaks the serial-equals-pooled determinism check.
        assert!(f.iter().any(|x| x.check == "determinism"), "{f:?}");
    }

    #[test]
    fn broken_identity_counter_trips_the_gate() {
        let text = fs::read_to_string(repo_root().join("BENCH_pipeline.json")).unwrap();
        let mut doc = parse(&text).unwrap();
        assert!(check_metrics_doc("BENCH_pipeline.json", &doc).is_empty());
        if let Value::Obj(top) = &mut doc {
            if let Some(Value::Obj(counters)) = top.get_mut("counters") {
                counters.insert(
                    "pipeline_bench.total.identical".to_string(),
                    Value::Num(0.0),
                );
            }
        }
        let f = check_metrics_doc("BENCH_pipeline.json", &doc);
        assert!(f.iter().any(|x| x.check == "determinism"), "{f:?}");
    }

    #[test]
    fn dropped_reply_trips_the_serve_gate() {
        let text = fs::read_to_string(repo_root().join("BENCH_serve.json")).unwrap();
        let mut doc = parse(&text).unwrap();
        assert!(check_metrics_doc("BENCH_serve.json", &doc).is_empty());
        // A lost reply shows up as answered < submitted and a zeroed
        // every_request_answered verdict — both must trip the gate.
        if let Value::Obj(top) = &mut doc {
            if let Some(Value::Obj(counters)) = top.get_mut("counters") {
                counters.insert(
                    "serve_bench.overload.every_request_answered".to_string(),
                    Value::Num(0.0),
                );
                let s = counters["serve_bench.overload.submitted"].as_u64().unwrap();
                counters.insert(
                    "serve_bench.overload.answered".to_string(),
                    Value::Num((s - 1) as f64),
                );
            }
        }
        let f = check_metrics_doc("BENCH_serve.json", &doc);
        assert!(
            f.iter().filter(|x| x.check == "liveness").count() >= 2,
            "dropped reply must trip the liveness checks: {f:?}"
        );
        // Shed rate collapsing to zero (queue never sheds under 2×) is a
        // quality finding.
        let mut doc = parse(&text).unwrap();
        set_gauge(&mut doc, "serve_bench.overload.shed_rate", 0.0);
        let f = check_metrics_doc("BENCH_serve.json", &doc);
        assert!(f.iter().any(|x| x.check == "quality"), "{f:?}");
    }

    #[test]
    fn perturbed_coalesce_and_cache_rows_trip_the_serve_gate() {
        let text = fs::read_to_string(repo_root().join("BENCH_serve.json")).unwrap();
        // Divergent batched replies are a determinism finding.
        let mut doc = parse(&text).unwrap();
        if let Value::Obj(top) = &mut doc {
            if let Some(Value::Obj(counters)) = top.get_mut("counters") {
                counters.insert(
                    "serve_bench.coalesce.identical".to_string(),
                    Value::Num(0.0),
                );
            }
        }
        let f = check_metrics_doc("BENCH_serve.json", &doc);
        assert!(f.iter().any(|x| x.check == "determinism"), "{f:?}");
        // A coalescing speedup under the 1.5× acceptance floor is a perf
        // finding.
        let mut doc = parse(&text).unwrap();
        set_gauge(&mut doc, "serve_bench.coalesce.speedup", 1.1);
        let f = check_metrics_doc("BENCH_serve.json", &doc);
        assert!(f.iter().any(|x| x.check == "perf"), "{f:?}");
        // A shed set that diverges from shed_plan is a determinism finding.
        let mut doc = parse(&text).unwrap();
        if let Value::Obj(top) = &mut doc {
            if let Some(Value::Obj(counters)) = top.get_mut("counters") {
                counters.insert(
                    "serve_bench.overload.matches_shed_plan".to_string(),
                    Value::Num(0.0),
                );
            }
        }
        let f = check_metrics_doc("BENCH_serve.json", &doc);
        assert!(f.iter().any(|x| x.check == "determinism"), "{f:?}");
        // Broken hit/miss accounting is a quality finding.
        let mut doc = parse(&text).unwrap();
        if let Value::Obj(top) = &mut doc {
            if let Some(Value::Obj(counters)) = top.get_mut("counters") {
                let l = counters["serve_bench.cache.lookups"].as_u64().unwrap();
                counters.insert(
                    "serve_bench.cache.hits".to_string(),
                    Value::Num((l + 7) as f64),
                );
            }
        }
        let f = check_metrics_doc("BENCH_serve.json", &doc);
        assert!(f.iter().any(|x| x.check == "quality"), "{f:?}");
    }

    #[test]
    fn missing_meta_stamp_is_a_finding() {
        let mut top = BTreeMap::new();
        top.insert(
            "schema".to_string(),
            Value::Str("obskit.metrics.v1".to_string()),
        );
        top.insert("meta".to_string(), Value::Obj(BTreeMap::new()));
        top.insert("counters".to_string(), Value::Obj(BTreeMap::new()));
        top.insert("gauges".to_string(), Value::Obj(BTreeMap::new()));
        let f = check_doc_shape("x.json", &Value::Obj(top));
        assert!(f.iter().filter(|x| x.check == "meta").count() >= 8, "{f:?}");
    }

    #[test]
    fn wrong_schema_short_circuits() {
        let doc = parse(r#"{"schema": "something.else"}"#).unwrap();
        let f = check_metrics_doc("BENCH_place.json", &doc);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].check, "schema");
    }

    #[test]
    fn ledger_checks_accept_real_records_and_reject_garbage() {
        let mut rec = obskit::RunRecord::new("experiments", "bench", "0.1.0", "abc");
        rec.kernels
            .insert("gbrt".to_string(), "histogram".to_string());
        rec.config_digest = "deadbeef".to_string();
        let good = rec.to_json_line();
        let (n, f) = check_ledger_text("runs.jsonl", &format!("{good}\n{good}\n"));
        assert_eq!(n, 2);
        assert!(f.is_empty(), "{f:?}");

        let (_, f) = check_ledger_text("runs.jsonl", "{\"schema\": \"nope\"}\nnot json\n");
        assert!(f.iter().any(|x| x.check == "ledger-schema"));
        assert!(f.iter().any(|x| x.check == "ledger-parse"));
    }

    #[test]
    fn report_renders_pass_and_fail() {
        let mut r = RegressReport::default();
        r.checked.push("BENCH_x.json".to_string());
        assert!(r.render().contains("PASS"));
        r.findings
            .push(Finding::new("BENCH_x.json", "perf-band", "too slow".into()));
        let text = r.render();
        assert!(text.contains("FAIL: 1 regression(s)"));
        assert!(text.contains("REGRESSION [BENCH_x.json] perf-band: too slow"));
    }
}
