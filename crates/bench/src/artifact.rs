//! The canonical bench-artifact writer.
//!
//! Every bench emits its snapshot twice — `reports/<name>_bench.json`
//! (every run) and the committed `BENCH_<name>.json` baseline at the repo
//! root (full-effort runs only). Both copies come from **one** serialized
//! string, so they are byte-identical by construction; the regression gate
//! checks that invariant on the committed tree. The shared `meta` block
//! stamps tool/version/git, the effort and the host's CPU count (`nproc`),
//! so baseline diffs stay apples-to-apples when the host changes.

use obskit::MetricsSnapshot;
use std::fs;
use std::path::Path;

/// Serialize a bench snapshot through the `obskit.metrics.v1` schema with
/// the canonical meta block: tool, version, git, effort and `nproc` (the
/// CPUs the process may use, from [`std::thread::available_parallelism`];
/// 0 if unknown). The effort stamp lets the regression gate tell a
/// committed full-effort baseline from a CI fast smoke sharing the same
/// path; `nproc` says what a wall-clock gauge was measured on.
pub fn bench_json(tool: &str, effort: crate::designs::Effort, snap: &MetricsSnapshot) -> String {
    let nproc = std::thread::available_parallelism()
        .map_or(0, |n| n.get())
        .to_string();
    let meta = [
        ("tool", tool),
        ("version", env!("CARGO_PKG_VERSION")),
        ("git", option_env!("GIT_HASH").unwrap_or("unknown")),
        ("effort", effort.name()),
        ("nproc", nproc.as_str()),
    ];
    obskit::sink::metrics_json(snap, &meta)
}

/// Write one bench artifact from one string: always
/// `reports/<report_name>`, and also `<baseline_name>` at the repo root
/// when `write_baseline` is set (full-effort runs refreshing the committed
/// baseline). Both files get the same bytes.
pub fn write_bench(report_name: &str, baseline_name: &str, json: &str, write_baseline: bool) {
    fs::create_dir_all("reports").ok();
    let report = Path::new("reports").join(report_name);
    if let Err(e) = fs::write(&report, json) {
        eprintln!("warning: could not write {}: {e}", report.display());
    }
    if write_baseline {
        if let Err(e) = fs::write(baseline_name, json) {
            eprintln!("warning: could not write {baseline_name}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_carries_effort_stamps_and_no_kernel_stamp() {
        let snap = MetricsSnapshot::default();
        let j = bench_json(
            "experiments test-bench",
            crate::designs::Effort::Full,
            &snap,
        );
        assert!(j.contains("\"schema\": \"obskit.metrics.v1\""));
        assert!(j.contains("\"tool\": \"experiments test-bench\""));
        assert!(j.contains("\"effort\": \"full\""));
        let doc = obskit::json::parse(&j).expect("bench JSON parses");
        let nproc: usize = doc
            .get("meta")
            .and_then(|m| m.get("nproc"))
            .and_then(|v| v.as_str())
            .expect("meta carries nproc")
            .parse()
            .expect("nproc is an integer");
        assert!(nproc >= 1, "nproc stamp {nproc} in {j}");
        // Each stage runs one kernel, so the meta names none.
        let meta = doc.get("meta").and_then(|m| m.as_obj()).expect("meta");
        assert!(!meta.keys().any(|k| k.starts_with("kernel.")), "{j}");
    }
}
