//! Dataset persistence: CSV export/import so the training phase (one full
//! HLS + PAR run per design) can be paid once and its dataset reused by
//! `train`, `predict` and congestd's swap gate.

use crate::dataset::{CongestionDataset, Sample};
use crate::features::{feature_names, FEATURE_COUNT};
use hls_ir::{FuncId, OpId, ReplicaTag};
use std::fmt;
use std::io::{BufRead, Write};
use std::path::Path;

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
/// cloneable and comparable, and they name the file involved.
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
