//! The append-only run ledger: one structured JSON line per dataset
//! build, training run, or bench run (`runs.jsonl`, schema
//! `obskit.run.v1`).
//!
//! A ledger line answers "what produced this artifact?": which tool and
//! git build, which config digest, which kernels were active, how long
//! each stage took, and the run's metric snapshot (counters, gauges, and
//! histogram summaries). The regression gate (`experiments regress`) and
//! drift tooling read it back; because every map is a `BTreeMap` the
//! serialization is canonical — two identical runs produce byte-identical
//! lines, so ledger content inherits the workspace determinism contract
//! (wall-clock fields excepted, exactly like the metrics registry).

use crate::json;
use crate::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// The ledger line schema identifier.
pub const RUN_SCHEMA: &str = "obskit.run.v1";

/// One run's ledger record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Producing tool (`hls_congest dataset`, `experiments place-bench`, …).
    pub tool: String,
    /// Run kind: `dataset`, `train`, `bench`, `predict`, ….
    pub kind: String,
    /// Crate version of the producing binary.
    pub version: String,
    /// Git hash the binary was built from (`unknown` outside a repo).
    pub git: String,
    /// Digest of the run's configuration (hex, from `faultkit::fnv1a`).
    pub config_digest: String,
    /// Active kernel selections: `extract`, `place`, `route`, `gbrt`.
    pub kernels: BTreeMap<String, String>,
    /// Per-stage wall-clock totals in milliseconds (nondeterministic).
    pub stages_ms: BTreeMap<String, f64>,
    /// Counter snapshot (deterministic).
    pub counters: BTreeMap<String, u64>,
    /// Gauge snapshot (wall-clocks, final losses, speedups, …).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries as `(count, mean, p50, p90, p99)`.
    pub hists: BTreeMap<String, HistSummary>,
    /// Freeform string metadata (effort, corpus, fingerprint digest, …).
    pub notes: BTreeMap<String, String>,
}

/// A histogram compressed to the summary the ledger keeps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Sample count.
    pub count: u64,
    /// Mean of observed values.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl RunRecord {
    /// A record for `tool` performing a run of `kind`, stamped with the
    /// caller's version and git hash.
    pub fn new(tool: &str, kind: &str, version: &str, git: &str) -> RunRecord {
        RunRecord {
            tool: tool.to_string(),
            kind: kind.to_string(),
            version: version.to_string(),
            git: git.to_string(),
            ..Default::default()
        }
    }

    /// Record an active kernel selection (`extract`, `place`, `route`,
    /// `gbrt`).
    pub fn kernel(&mut self, which: &str, choice: &str) -> &mut Self {
        self.kernels.insert(which.to_string(), choice.to_string());
        self
    }

    /// Record a freeform note.
    pub fn note(&mut self, key: &str, value: &str) -> &mut Self {
        self.notes.insert(key.to_string(), value.to_string());
        self
    }

    /// Record one stage's wall-clock total.
    pub fn stage_ms(&mut self, stage: &str, ms: f64) -> &mut Self {
        self.stages_ms.insert(stage.to_string(), ms);
        self
    }

    /// Fold a metrics snapshot in: counters and gauges are copied,
    /// histograms are compressed to [`HistSummary`].
    pub fn absorb_metrics(&mut self, snap: &MetricsSnapshot) -> &mut Self {
        for (k, v) in &snap.counters {
            self.counters.insert(k.clone(), *v);
        }
        for (k, v) in &snap.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &snap.histograms {
            self.hists.insert(
                k.clone(),
                HistSummary {
                    count: h.count(),
                    mean: h.mean(),
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                },
            );
        }
        self
    }

    /// Serialize as one canonical JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let str_map = |m: &BTreeMap<String, String>| {
            let items: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}:{}", json::string(k), json::string(v)))
                .collect();
            format!("{{{}}}", items.join(","))
        };
        let f64_map = |m: &BTreeMap<String, f64>| {
            let items: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
                .collect();
            format!("{{{}}}", items.join(","))
        };
        let u64_map = |m: &BTreeMap<String, u64>| {
            let items: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}:{v}", json::string(k)))
                .collect();
            format!("{{{}}}", items.join(","))
        };
        let hist_map = |m: &BTreeMap<String, HistSummary>| {
            let items: Vec<String> = m
                .iter()
                .map(|(k, h)| {
                    format!(
                        "{}:{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        json::string(k),
                        h.count,
                        json::number(h.mean),
                        json::number(h.p50),
                        json::number(h.p90),
                        json::number(h.p99),
                    )
                })
                .collect();
            format!("{{{}}}", items.join(","))
        };
        format!(
            "{{\"schema\":{},\"tool\":{},\"kind\":{},\"version\":{},\"git\":{},\"config_digest\":{},\"kernels\":{},\"stages_ms\":{},\"counters\":{},\"gauges\":{},\"hists\":{},\"notes\":{}}}",
            json::string(RUN_SCHEMA),
            json::string(&self.tool),
            json::string(&self.kind),
            json::string(&self.version),
            json::string(&self.git),
            json::string(&self.config_digest),
            str_map(&self.kernels),
            f64_map(&self.stages_ms),
            u64_map(&self.counters),
            f64_map(&self.gauges),
            hist_map(&self.hists),
            str_map(&self.notes),
        )
    }

    /// Append this record to the ledger at `path` (one line, created on
    /// first use, parent directories included).
    ///
    /// # Errors
    /// Any I/O error opening or writing the file.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json_line())
    }
}

/// A ledger file read back with torn-write tolerance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerRead {
    /// Lines that parse as complete JSON objects, in file order.
    pub lines: Vec<String>,
    /// Lines skipped as torn or corrupt (a killed process can leave at
    /// most one, but the reader tolerates any number). Surface this as a
    /// warning counter — a skipped line is data loss worth noticing, just
    /// not worth failing the whole read over.
    pub skipped: usize,
}

/// Read a JSONL ledger (run ledger, serve journal) tolerantly: lines that
/// are not complete JSON objects — the signature of a torn
/// write from a SIGKILLed process — are counted in
/// [`LedgerRead::skipped`] instead of failing the read. Blank lines are
/// ignored entirely. A missing file reads as empty (crash-only restart
/// semantics: first boot and post-crash boot share one code path).
///
/// # Errors
/// Only genuine I/O errors (permissions, not-a-file); a missing file is
/// **not** an error.
pub fn read_jsonl(path: &Path) -> std::io::Result<LedgerRead> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LedgerRead::default()),
        Err(e) => return Err(e),
    };
    let mut out = LedgerRead::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if is_object_line(line) {
            out.lines.push(line.to_string());
        } else {
            out.skipped += 1;
        }
    }
    // A torn final write can also leave a line without a trailing newline
    // that `lines()` still yields — the parse above already classifies it,
    // so nothing special is needed here.
    Ok(out)
}

/// True when `line` is one complete JSON object. A prefix of a record —
/// the only corruption an append-only writer plus SIGKILL can produce —
/// never parses, and neither does any other damaged line.
fn is_object_line(line: &str) -> bool {
    matches!(json::parse(line), Ok(json::Value::Obj(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> RunRecord {
        let mut r = Registry::new();
        r.inc("route.expanded_nodes", 41);
        r.set_gauge("dataset.wall_ms", 12.5);
        r.observe("cv.fold.mae", 17.0);
        let mut rec = RunRecord::new("experiments", "bench", "0.1.0", "abc123");
        rec.config_digest = "deadbeef".to_string();
        rec.kernel("place", "delta").kernel("route", "astar");
        rec.stage_ms("route", 3.25);
        rec.note("effort", "full");
        rec.absorb_metrics(&r.snapshot());
        rec
    }

    #[test]
    fn line_is_canonical_and_balanced() {
        let a = sample().to_json_line();
        let b = sample().to_json_line();
        assert_eq!(a, b, "identical runs produce byte-identical lines");
        assert!(!a.contains('\n'));
        assert!(a.starts_with("{\"schema\":\"obskit.run.v1\""));
        assert!(a.contains("\"place\":\"delta\""));
        assert!(a.contains("\"route.expanded_nodes\":41"));
        assert!(a.contains("\"cv.fold.mae\":{\"count\":1"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn torn_final_record_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("obskit-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&path);
        sample().append_to(&path).unwrap();
        sample().append_to(&path).unwrap();
        // Simulate a SIGKILL mid-append: a prefix of a third record with no
        // trailing newline.
        let torn = &sample().to_json_line()[..40];
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{torn}").unwrap();
        drop(f);
        let read = read_jsonl(&path).unwrap();
        assert_eq!(read.lines.len(), 2, "complete records survive");
        assert_eq!(read.skipped, 1, "torn trailer is counted, not fatal");
        assert_eq!(read.lines[0], sample().to_json_line());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_jsonl_missing_file_is_empty() {
        let path = std::env::temp_dir().join("obskit-no-such-ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        let read = read_jsonl(&path).unwrap();
        assert!(read.lines.is_empty());
        assert_eq!(read.skipped, 0);
    }

    #[test]
    fn completeness_check_handles_strings_and_nesting() {
        assert!(is_object_line(r#"{"a":{"b":"}{"},"c":[1,2]}"#));
        assert!(is_object_line(r#"{"esc":"a\"b{","n":1}"#));
        assert!(!is_object_line(r#"{"a":1"#));
        assert!(!is_object_line(r#"{"a":"unterminated"#));
        assert!(!is_object_line(r#"{"a":1}}"#));
        assert!(!is_object_line(r#"{"a":1}garbage"#));
        assert!(!is_object_line("not json"));
        assert!(!is_object_line("[1,2,3]"));
        // Balanced but not JSON: counted as skipped, not kept.
        assert!(!is_object_line(r#"{"a":}"#));
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir().join(format!("obskit-ledger-{}", std::process::id()));
        let path = dir.join("nested/runs.jsonl");
        let _ = std::fs::remove_file(&path);
        sample().append_to(&path).unwrap();
        sample().append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1]);
        assert_eq!(lines[0], sample().to_json_line());
        std::fs::remove_dir_all(&dir).ok();
    }
}
