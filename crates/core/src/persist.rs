//! Dataset persistence: CSV export/import so the expensive training phase
//! (one full HLS + PAR run per design) can be paid once and reused, plus
//! the per-design [`CheckpointStore`] that lets `build_dataset_report`
//! resume a killed run without recomputation.
//!
//! Checkpoint layout (one pair of files per design under the checkpoint
//! directory):
//!
//! ```text
//! <sanitized-name>-<fnv16(name)>.csv    sample rows (successful designs)
//! <sanitized-name>-<fnv16(name)>.json   commit record: digest + outcome
//! ```
//!
//! The JSON meta file is the commit point: it is written last via a
//! `tmp + rename` pair, so a crash mid-store leaves at worst an orphan
//! `.csv`/`.tmp` that the next run overwrites. Entries also record the
//! pipeline *configuration digest*; an entry whose digest disagrees with
//! the current run is treated as a miss, never resumed.

use crate::dataset::{CongestionDataset, Sample};
use crate::features::{feature_names, FEATURE_COUNT};
use hls_ir::{FuncId, OpId, ReplicaTag};
use obskit::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// CSV parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCsvError {
    /// 1-based line number (0 for the header).
    pub line: usize,
    /// Error description.
    pub message: String,
}

impl fmt::Display for ParseCsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csv line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCsvError {}

/// Typed persistence failures. Unlike raw `std::io::Error` these are
/// cloneable and comparable, so they can ride inside per-design pipeline
/// reports and deterministic supervision logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Filesystem-level failure (open/create/rename/write).
    Io {
        /// Path the operation targeted.
        path: String,
        /// OS error description.
        message: String,
    },
    /// A dataset CSV file failed to parse.
    Csv {
        /// Path of the offending file.
        path: String,
        /// Underlying row-level error.
        error: ParseCsvError,
    },
    /// A checkpoint meta (JSON) file failed to parse or is missing fields.
    Meta {
        /// Path of the offending file.
        path: String,
        /// What was wrong.
        message: String,
    },
}

impl PersistError {
    fn io(path: &Path, e: std::io::Error) -> Self {
        PersistError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, message } => write!(f, "io error at {path}: {message}"),
            PersistError::Csv { path, error } => write!(f, "{path}: {error}"),
            PersistError::Meta { path, message } => {
                write!(f, "bad checkpoint meta {path}: {message}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Number of metadata columns before the feature block.
const META_COLS: usize = 8;

/// Write a dataset as CSV (header + one row per sample).
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_csv<W: Write>(data: &CongestionDataset, mut w: W) -> std::io::Result<()> {
    // Header.
    write!(
        w,
        "design,func,op,line,replica_group,replica_index,replica_total,has_replica"
    )?;
    for name in feature_names() {
        write!(w, ",{name}")?;
    }
    writeln!(w, ",label_vertical,label_horizontal")?;
    for (row, s) in data.samples.iter().enumerate() {
        let (g, i, t, has) = match s.replica {
            Some(r) => (r.group, r.index, r.total, 1),
            None => (0, 0, 0, 0),
        };
        write!(
            w,
            "{},{},{},{},{},{},{},{}",
            s.design, s.func.0, s.op.0, s.line, g, i, t, has
        )?;
        for v in data.features_of(row) {
            write!(w, ",{v}")?;
        }
        writeln!(w, ",{},{}", s.vertical, s.horizontal)?;
    }
    Ok(())
}

/// Read a dataset back from CSV produced by [`write_csv`].
///
/// # Errors
/// Returns a [`ParseCsvError`] for malformed rows or an I/O failure
/// (reported as line 0).
pub fn read_csv<R: BufRead>(r: R) -> Result<CongestionDataset, ParseCsvError> {
    let err = |line: usize, message: String| ParseCsvError { line, message };
    let mut lines = r.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(err(0, "empty input".into()));
    };
    let header = header.map_err(|e| err(0, e.to_string()))?;
    let expected_cols = META_COLS + FEATURE_COUNT + 2;
    let got_cols = header.split(',').count();
    if got_cols != expected_cols {
        return Err(err(
            0,
            format!("expected {expected_cols} columns, header has {got_cols}"),
        ));
    }

    let mut ds = CongestionDataset::new();
    for (ln, line) in lines {
        let line = line.map_err(|e| err(ln + 1, e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != expected_cols {
            return Err(err(
                ln + 1,
                format!("expected {expected_cols} columns, got {}", cols.len()),
            ));
        }
        let pu32 = |i: usize| -> Result<u32, ParseCsvError> {
            cols[i]
                .parse()
                .map_err(|_| err(ln + 1, format!("bad integer `{}`", cols[i])))
        };
        let pf64 = |i: usize| -> Result<f64, ParseCsvError> {
            cols[i]
                .parse()
                .map_err(|_| err(ln + 1, format!("bad float `{}`", cols[i])))
        };
        let replica = if pu32(7)? == 1 {
            Some(ReplicaTag {
                group: pu32(4)?,
                index: pu32(5)?,
                total: pu32(6)?,
            })
        } else {
            None
        };
        let mut features = Vec::with_capacity(FEATURE_COUNT);
        for i in 0..FEATURE_COUNT {
            features.push(pf64(META_COLS + i)?);
        }
        ds.push(
            Sample {
                design: cols[0].to_string(),
                func: FuncId(pu32(1)?),
                op: OpId(pu32(2)?),
                line: pu32(3)?,
                replica,
                vertical: pf64(META_COLS + FEATURE_COUNT)?,
                horizontal: pf64(META_COLS + FEATURE_COUNT + 1)?,
            },
            &features,
        );
    }
    Ok(ds)
}

/// Convenience: save to a file path.
///
/// # Errors
/// Returns [`PersistError::Io`] with the offending path on any I/O
/// failure.
pub fn save(data: &CongestionDataset, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let f = std::fs::File::create(path).map_err(|e| PersistError::io(path, e))?;
    write_csv(data, std::io::BufWriter::new(f)).map_err(|e| PersistError::io(path, e))
}

/// Convenience: load from a file path.
///
/// # Errors
/// Returns [`PersistError::Io`] when the file cannot be opened and
/// [`PersistError::Csv`] when its contents are malformed.
pub fn load(path: impl AsRef<Path>) -> Result<CongestionDataset, PersistError> {
    let path = path.as_ref();
    let f = std::fs::File::open(path).map_err(|e| PersistError::io(path, e))?;
    read_csv(std::io::BufReader::new(f)).map_err(|error| PersistError::Csv {
        path: path.display().to_string(),
        error,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// A failure recorded in a checkpoint: the taxonomy `kind`, the pipeline
/// stage it occurred in, and a human-readable message. Resuming a run
/// replays recorded failures instead of re-running the design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedFailure {
    /// Taxonomy bucket (e.g. `synth`, `panic`, `timeout`, `injected`).
    pub kind: String,
    /// Stage where the design failed (`hls`, `par`, `features`, ...).
    pub stage: String,
    /// Failure description.
    pub message: String,
}

/// One design's checkpointed outcome: either its samples or the failure
/// that exhausted its retry budget. Failed designs are checkpointed too —
/// `--resume` re-runs *nothing* that already ran to a verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// Design name (module name).
    pub design: String,
    /// Samples on success, recorded failure otherwise.
    pub outcome: Result<CongestionDataset, RecordedFailure>,
}

/// Result of looking a design up in a [`CheckpointStore`].
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointLookup {
    /// A committed entry with a matching configuration digest.
    Hit(CheckpointEntry),
    /// No committed entry (or one written under a different configuration).
    Miss,
    /// An entry exists but cannot be read back — the design must be
    /// recomputed and the entry overwritten.
    Corrupt(String),
}

/// Incremental per-design checkpoint directory keyed by a pipeline
/// configuration digest.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    digest: u64,
}

/// Strip a design name down to filesystem-safe characters. Uniqueness is
/// restored by the fnv16 suffix added in [`CheckpointStore::stem`].
fn sanitize(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .take(64)
        .collect();
    if safe.is_empty() {
        "design".to_string()
    } else {
        safe
    }
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory. `digest` is the
    /// configuration digest of the current run; entries written under any
    /// other digest are invisible to lookups.
    ///
    /// # Errors
    /// Returns [`PersistError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>, digest: u64) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| PersistError::io(&dir, e))?;
        Ok(CheckpointStore { dir, digest })
    }

    /// The configuration digest this store was opened with.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Unique, filesystem-safe file stem for a design.
    fn stem(&self, design: &str) -> String {
        format!(
            "{}-{:08x}",
            sanitize(design),
            obskit::fnv1a(&[design.as_bytes()]) as u32
        )
    }

    fn meta_path(&self, design: &str) -> PathBuf {
        self.dir.join(format!("{}.json", self.stem(design)))
    }

    fn csv_path(&self, design: &str) -> PathBuf {
        self.dir.join(format!("{}.csv", self.stem(design)))
    }

    /// Look a design up. Missing or digest-mismatched entries are a
    /// [`CheckpointLookup::Miss`]; unreadable ones are
    /// [`CheckpointLookup::Corrupt`] (callers recompute and overwrite in
    /// both cases, but may count corruption separately).
    pub fn lookup(&self, design: &str) -> CheckpointLookup {
        let meta_path = self.meta_path(design);
        let text = match std::fs::read_to_string(&meta_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointLookup::Miss,
            Err(e) => {
                return CheckpointLookup::Corrupt(PersistError::io(&meta_path, e).to_string())
            }
        };
        match self.parse_meta(design, &meta_path, &text) {
            Ok(Some(entry)) => CheckpointLookup::Hit(entry),
            Ok(None) => CheckpointLookup::Miss,
            Err(e) => CheckpointLookup::Corrupt(e.to_string()),
        }
    }

    /// Parse a meta file; `Ok(None)` means a digest mismatch.
    fn parse_meta(
        &self,
        design: &str,
        meta_path: &Path,
        text: &str,
    ) -> Result<Option<CheckpointEntry>, PersistError> {
        let bad = |message: String| PersistError::Meta {
            path: meta_path.display().to_string(),
            message,
        };
        let v = json::parse(text).map_err(|e| bad(e.to_string()))?;
        let field = |key: &str| -> Result<String, PersistError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("missing string field `{key}`")))
        };
        if field("design")? != design {
            return Err(bad("design name mismatch".into()));
        }
        if field("digest")? != format!("{:016x}", self.digest) {
            return Ok(None);
        }
        let entry = match field("outcome")?.as_str() {
            "ok" => {
                let samples = v
                    .get("samples")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad("missing `samples` count".into()))?;
                let csv_path = self.csv_path(design);
                let data = load(&csv_path)?;
                if data.len() as u64 != samples {
                    return Err(bad(format!(
                        "sample count mismatch: meta says {samples}, csv has {}",
                        data.len()
                    )));
                }
                CheckpointEntry {
                    design: design.to_string(),
                    outcome: Ok(data),
                }
            }
            "failed" => {
                let fail = v
                    .get("failure")
                    .ok_or_else(|| bad("missing `failure` object".into()))?;
                let part = |key: &str| -> Result<String, PersistError> {
                    fail.get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| bad(format!("missing failure field `{key}`")))
                };
                CheckpointEntry {
                    design: design.to_string(),
                    outcome: Err(RecordedFailure {
                        kind: part("kind")?,
                        stage: part("stage")?,
                        message: part("message")?,
                    }),
                }
            }
            other => return Err(bad(format!("unknown outcome `{other}`"))),
        };
        Ok(Some(entry))
    }

    /// Persist one design's outcome atomically: payload CSV first (for
    /// successes), then the JSON meta commit record, each via
    /// `tmp + rename`.
    ///
    /// # Errors
    /// Returns [`PersistError::Io`] on any filesystem failure.
    pub fn store(&self, entry: &CheckpointEntry) -> Result<(), PersistError> {
        let mut meta: BTreeMap<String, Value> = BTreeMap::new();
        meta.insert("design".into(), Value::Str(entry.design.clone()));
        meta.insert("digest".into(), Value::Str(format!("{:016x}", self.digest)));
        match &entry.outcome {
            Ok(data) => {
                let csv_path = self.csv_path(&entry.design);
                let tmp = csv_path.with_extension("csv.tmp");
                let mut buf = Vec::new();
                write_csv(data, &mut buf).map_err(|e| PersistError::io(&tmp, e))?;
                std::fs::write(&tmp, &buf).map_err(|e| PersistError::io(&tmp, e))?;
                std::fs::rename(&tmp, &csv_path).map_err(|e| PersistError::io(&csv_path, e))?;
                meta.insert("outcome".into(), Value::Str("ok".into()));
                meta.insert("samples".into(), Value::Num(data.len() as f64));
            }
            Err(f) => {
                let mut failure: BTreeMap<String, Value> = BTreeMap::new();
                failure.insert("kind".into(), Value::Str(f.kind.clone()));
                failure.insert("stage".into(), Value::Str(f.stage.clone()));
                failure.insert("message".into(), Value::Str(f.message.clone()));
                meta.insert("outcome".into(), Value::Str("failed".into()));
                meta.insert("failure".into(), Value::Obj(failure));
            }
        }
        let meta_path = self.meta_path(&entry.design);
        let tmp = meta_path.with_extension("json.tmp");
        std::fs::write(&tmp, Value::Obj(meta).to_json()).map_err(|e| PersistError::io(&tmp, e))?;
        std::fs::rename(&tmp, &meta_path).map_err(|e| PersistError::io(&meta_path, e))
    }

    /// Names of all designs with a committed entry under this store's
    /// digest, in directory order (diagnostics only).
    pub fn committed(&self) -> Vec<String> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = dir
            .filter_map(|e| {
                let path = e.ok()?.path();
                if path.extension()? != "json" {
                    return None;
                }
                let text = std::fs::read_to_string(&path).ok()?;
                let v = json::parse(&text).ok()?;
                if v.get("digest")?.as_str()? != format!("{:016x}", self.digest) {
                    return None;
                }
                Some(v.get("design")?.as_str()?.to_string())
            })
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::error::Error;

    fn toy() -> CongestionDataset {
        let mut ds = CongestionDataset::new();
        for i in 0..20usize {
            let mut features = vec![0.0; FEATURE_COUNT];
            features[0] = i as f64;
            features[100] = 0.125 * i as f64;
            ds.push(
                Sample {
                    design: format!("d{}", i % 2),
                    func: FuncId(0),
                    op: OpId(i as u32),
                    line: i as u32 + 1,
                    replica: (i % 3 == 0).then_some(ReplicaTag {
                        group: 7,
                        index: i as u32,
                        total: 20,
                    }),
                    vertical: 1.5 * i as f64,
                    horizontal: 0.5 * i as f64,
                },
                &features,
            );
        }
        ds
    }

    #[test]
    fn roundtrip_preserves_everything() -> Result<(), Box<dyn Error>> {
        let ds = toy();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf)?;
        let back = read_csv(std::io::Cursor::new(buf))?;
        assert_eq!(back.len(), ds.len());
        for (i, (a, b)) in ds.samples.iter().zip(&back.samples).enumerate() {
            assert_eq!(a.design, b.design);
            assert_eq!(a.op, b.op);
            assert_eq!(a.line, b.line);
            assert_eq!(a.replica, b.replica);
            assert_eq!(ds.features_of(i), back.features_of(i));
            assert_eq!(a.vertical, b.vertical);
            assert_eq!(a.horizontal, b.horizontal);
        }
        Ok(())
    }

    #[test]
    fn header_has_meaningful_names() -> Result<(), Box<dyn Error>> {
        let mut buf = Vec::new();
        write_csv(&toy(), &mut buf)?;
        let text = String::from_utf8(buf)?;
        let header = text.lines().next().ok_or("no header line")?;
        assert!(header.contains("bitwidth"));
        assert!(header.contains("rdt_LUT_pred_per_dtcs_1hop"));
        assert!(header.ends_with("label_vertical,label_horizontal"));
        Ok(())
    }

    #[test]
    fn malformed_rows_rejected() -> Result<(), Box<dyn Error>> {
        let mut buf = Vec::new();
        write_csv(&toy(), &mut buf)?;
        let mut text = String::from_utf8(buf)?;
        text.push_str("short,row\n");
        let e = read_csv(std::io::Cursor::new(text)).unwrap_err();
        assert!(e.message.contains("columns"));
        Ok(())
    }

    #[test]
    fn wrong_header_rejected() {
        let e = read_csv(std::io::Cursor::new("a,b,c\n")).unwrap_err();
        assert_eq!(e.line, 0);
    }

    #[test]
    fn file_roundtrip() -> Result<(), Box<dyn Error>> {
        let dir = std::env::temp_dir().join("congestion_core_persist_test.csv");
        save(&toy(), &dir)?;
        let back = load(&dir)?;
        assert_eq!(back.len(), 20);
        std::fs::remove_file(dir).ok();
        Ok(())
    }

    #[test]
    fn load_missing_file_is_a_typed_io_error() {
        let e = load("/definitely/not/here.csv").unwrap_err();
        assert!(matches!(e, PersistError::Io { .. }));
        assert!(e.to_string().contains("not/here.csv"));
    }

    /// Fresh checkpoint directory per test, removed on drop.
    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p =
                std::env::temp_dir().join(format!("congestion_ckpt_{tag}_{}", std::process::id()));
            std::fs::remove_dir_all(&p).ok();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn checkpoint_roundtrips_success_and_failure() -> Result<(), Box<dyn Error>> {
        let tmp = TempDir::new("roundtrip");
        let store = CheckpointStore::open(&tmp.0, 0xfeed)?;
        let mut ok_data = toy();
        for s in &mut ok_data.samples {
            s.design = "good/design".to_string();
        }
        let ok_entry = CheckpointEntry {
            design: "good/design".to_string(),
            outcome: Ok(ok_data),
        };
        let failed_entry = CheckpointEntry {
            design: "bad design".to_string(),
            outcome: Err(RecordedFailure {
                kind: "panic".into(),
                stage: "par".into(),
                message: "router slipped on a banana peel".into(),
            }),
        };
        store.store(&ok_entry)?;
        store.store(&failed_entry)?;

        assert_eq!(store.lookup("good/design"), CheckpointLookup::Hit(ok_entry));
        assert_eq!(
            store.lookup("bad design"),
            CheckpointLookup::Hit(failed_entry)
        );
        assert_eq!(store.lookup("never ran"), CheckpointLookup::Miss);
        assert_eq!(
            store.committed(),
            vec!["bad design".to_string(), "good/design".to_string()]
        );
        Ok(())
    }

    #[test]
    fn digest_mismatch_is_a_miss_not_a_hit() -> Result<(), Box<dyn Error>> {
        let tmp = TempDir::new("digest");
        let old = CheckpointStore::open(&tmp.0, 1)?;
        old.store(&CheckpointEntry {
            design: "d".into(),
            outcome: Ok(toy()),
        })?;
        let new = CheckpointStore::open(&tmp.0, 2)?;
        assert_eq!(new.lookup("d"), CheckpointLookup::Miss);
        assert!(new.committed().is_empty());
        // The original configuration still sees its entry.
        assert!(matches!(old.lookup("d"), CheckpointLookup::Hit(_)));
        Ok(())
    }

    #[test]
    fn corrupt_entries_are_flagged_for_recomputation() -> Result<(), Box<dyn Error>> {
        let tmp = TempDir::new("corrupt");
        let store = CheckpointStore::open(&tmp.0, 9)?;
        store.store(&CheckpointEntry {
            design: "d".into(),
            outcome: Ok(toy()),
        })?;
        // Truncate the payload: meta commits 20 samples, csv now has none.
        let stem_csv = std::fs::read_dir(&tmp.0)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "csv"))
            .ok_or("no csv written")?;
        let text = std::fs::read_to_string(&stem_csv)?;
        let header = text.lines().next().ok_or("no header")?.to_string();
        std::fs::write(&stem_csv, format!("{header}\n"))?;
        match store.lookup("d") {
            CheckpointLookup::Corrupt(msg) => assert!(msg.contains("mismatch"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Garbage meta is also corrupt, not fatal.
        let meta = stem_csv.with_extension("json");
        std::fs::write(&meta, "{not json")?;
        assert!(matches!(store.lookup("d"), CheckpointLookup::Corrupt(_)));
        // Re-storing heals the entry.
        store.store(&CheckpointEntry {
            design: "d".into(),
            outcome: Ok(toy()),
        })?;
        assert!(matches!(store.lookup("d"), CheckpointLookup::Hit(_)));
        Ok(())
    }

    /// A sample with the given design name and one distinguishing value.
    fn tagged_sample(design: &str, v: f64) -> Sample {
        Sample {
            design: design.to_string(),
            func: FuncId(0),
            op: OpId(0),
            line: 1,
            replica: None,
            vertical: v,
            horizontal: 2.0 * v,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any design name — including hostile characters — and any
        /// outcome round-trips through store + lookup bit-identically.
        #[test]
        fn checkpoint_entry_roundtrip(
            name_seed in 0u64..u64::MAX,
            n_samples in 0usize..4,
            failed in 0u32..2,
            digest in 0u64..u64::MAX,
        ) {
            // No ',' or '\n': the CSV payload format cannot carry them in
            // a design name (pre-existing write_csv limitation).
            let raw: Vec<char> = "ab/λ .:#\\\"'|-_".chars().collect();
            let design: String = (0..6)
                .map(|i| raw[((name_seed >> (i * 8)) as usize) % raw.len()])
                .collect();
            let tmp = TempDir::new(&format!("prop{:x}", digest as u16));
            let store = CheckpointStore::open(&tmp.0, digest).unwrap();
            let outcome = if failed == 1 {
                Err(RecordedFailure {
                    kind: "injected".into(),
                    stage: "hls".into(),
                    message: design.clone(),
                })
            } else {
                let mut data = CongestionDataset::new();
                for i in 0..n_samples {
                    let v = i as f64 + 0.5;
                    data.push(tagged_sample(&design, v), &vec![v; FEATURE_COUNT]);
                }
                Ok(data)
            };
            let entry = CheckpointEntry { design: design.clone(), outcome };
            store.store(&entry).unwrap();
            prop_assert_eq!(store.lookup(&design), CheckpointLookup::Hit(entry));
        }
    }
}
