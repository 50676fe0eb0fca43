//! The canonical bench-artifact writer.
//!
//! Every bench emits its snapshot twice — `reports/<name>_bench.json`
//! (every run) and the committed `BENCH_<name>.json` baseline at the repo
//! root (full-effort runs only). Both copies come from **one** serialized
//! string, so they are byte-identical by construction; the regression gate
//! checks that invariant on the committed tree. The shared `meta` block
//! stamps tool/version/git, the host's CPU count (`nproc`) and the
//! production kernels, so baseline diffs stay apples-to-apples when a
//! kernel default or the host changes.

use congestion_core::cli::kernel_stamps;
use obskit::MetricsSnapshot;
use std::fs;
use std::path::Path;

/// The workspace's production kernels, as `meta` key/value stamps:
/// `kernel.extract`, `kernel.place`, `kernel.gbrt`.
pub fn kernel_meta() -> Vec<(String, String)> {
    kernel_stamps()
        .iter()
        .map(|(stage, kernel)| (format!("kernel.{stage}"), kernel.to_string()))
        .collect()
}

/// Serialize a bench snapshot through the `obskit.metrics.v1` schema with
/// the canonical meta block: tool, version, git, effort, `nproc` (the CPUs
/// the process may use, from [`std::thread::available_parallelism`]; 0 if
/// unknown) and the kernel stamps. The effort stamp lets the regression
/// gate tell a committed full-effort baseline from a CI fast smoke sharing
/// the same path; `nproc` says what a wall-clock gauge was measured on.
pub fn bench_json(tool: &str, effort: crate::designs::Effort, snap: &MetricsSnapshot) -> String {
    let kernels = kernel_meta();
    let nproc = std::thread::available_parallelism()
        .map_or(0, |n| n.get())
        .to_string();
    let mut meta: Vec<(&str, &str)> = vec![
        ("tool", tool),
        ("version", env!("CARGO_PKG_VERSION")),
        ("git", option_env!("GIT_HASH").unwrap_or("unknown")),
        ("effort", effort.name()),
        ("nproc", &nproc),
    ];
    for (k, v) in &kernels {
        meta.push((k.as_str(), v.as_str()));
    }
    obskit::sink::metrics_json(snap, &meta)
}

/// Stamp a ledger record with the same kernel selections the bench meta
/// carries.
pub fn stamp_kernels(rec: &mut obskit::RunRecord) {
    for (stage, kernel) in kernel_stamps() {
        rec.kernel(stage, kernel);
    }
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
    fn meta_stamps_every_kernel() {
        let stamps = kernel_meta();
        let keys: Vec<&str> = stamps.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["kernel.extract", "kernel.place", "kernel.gbrt"]);
        // The stamps reflect the current defaults.
        assert_eq!(stamps[0].1, "soa");
        assert_eq!(stamps[1].1, "delta");
        assert_eq!(stamps[2].1, "histogram");
    }

    #[test]
    fn bench_json_carries_kernel_and_effort_stamps() {
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
        for k in ["kernel.extract", "kernel.place", "kernel.gbrt"] {
            assert!(j.contains(&format!("\"{k}\":")), "missing {k} in {j}");
        }
    }

    #[test]
    fn ledger_stamp_matches_meta_stamp() {
        let mut rec = obskit::RunRecord::new("t", "bench", "0", "0");
        stamp_kernels(&mut rec);
        assert_eq!(rec.kernels["extract"], "soa");
        assert_eq!(rec.kernels["place"], "delta");
        assert_eq!(rec.kernels["gbrt"], "histogram");
    }
}
