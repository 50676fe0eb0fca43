//! Dataset distribution fingerprints and drift detection.
//!
//! A [`DatasetFingerprint`] is the compact statistical identity of a
//! [`CongestionDataset`]: one deterministic [`QuantileSketch`] per feature
//! column of the SoA matrix (plus the V/H label columns), the sample and
//! design counts, and an FNV-1a digest over the raw matrix bits. Because
//! the dataset itself is bit-identical for any worker count, so is its
//! fingerprint — byte for byte.
//!
//! [`drift`] compares two fingerprints feature by feature: a
//! population-stability index (PSI) over the shared sketch bins plus the
//! largest absolute quantile shift. This is the check a deployed predictor
//! runs before trusting a new dataset (or a new corpus) against the
//! distribution its model was trained on.

use crate::dataset::CongestionDataset;
use crate::features::feature_names;
use obskit::json::{parse, Value};
use obskit::{Fnv1a, QuantileSketch};
use std::collections::BTreeSet;

/// The fingerprint file schema identifier.
pub const FINGERPRINT_SCHEMA: &str = "congest.fingerprint.v1";

/// PSI above this marks a feature as drifted (the conventional 0.25
/// "major shift" threshold).
pub const PSI_DRIFTED: f64 = 0.25;

/// One column's named distribution sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSketch {
    /// Column name (`feature_names()` entry or `label.vertical` /
    /// `label.horizontal`).
    pub name: String,
    /// The column's value distribution.
    pub sketch: QuantileSketch,
}

/// The statistical identity of one dataset build.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetFingerprint {
    /// Sample count.
    pub samples: u64,
    /// Sorted unique design names contributing samples.
    pub designs: Vec<String>,
    /// Per-column sketches in matrix column order, labels last.
    pub columns: Vec<ColumnSketch>,
    /// FNV-1a digest (hex) over the raw feature-matrix bits and labels.
    pub matrix_digest: String,
}

impl DatasetFingerprint {
    /// Fingerprint a dataset: sketch every feature column and both label
    /// columns, and digest the raw matrix bits in row-major order.
    pub fn of(ds: &CongestionDataset) -> DatasetFingerprint {
        let names = feature_names();
        let mut columns: Vec<ColumnSketch> = names
            .iter()
            .map(|n| ColumnSketch {
                name: n.clone(),
                sketch: QuantileSketch::new(),
            })
            .collect();
        let mut vertical = QuantileSketch::new();
        let mut horizontal = QuantileSketch::new();
        let mut digest = Fnv1a::default();
        for i in 0..ds.len() {
            let row = ds.features_of(i);
            for (col, &v) in columns.iter_mut().zip(row.iter()) {
                col.sketch.observe(v);
            }
            for &v in row {
                digest.bytes(&v.to_bits().to_le_bytes());
            }
            let s = &ds.samples[i];
            vertical.observe(s.vertical);
            horizontal.observe(s.horizontal);
            digest.bytes(&s.vertical.to_bits().to_le_bytes());
            digest.bytes(&s.horizontal.to_bits().to_le_bytes());
        }
        columns.push(ColumnSketch {
            name: "label.vertical".to_string(),
            sketch: vertical,
        });
        columns.push(ColumnSketch {
            name: "label.horizontal".to_string(),
            sketch: horizontal,
        });
        let designs: BTreeSet<String> = ds.samples.iter().map(|s| s.design.clone()).collect();
        DatasetFingerprint {
            samples: ds.len() as u64,
            designs: designs.into_iter().collect(),
            columns,
            matrix_digest: format!("{:016x}", digest.finish()),
        }
    }

    /// Serialize to the canonical `congest.fingerprint.v1` JSON document.
    /// Columns are an array (order preserved), each embedding its sketch's
    /// canonical form, so identical datasets produce byte-identical files.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema\": \"{FINGERPRINT_SCHEMA}\",\n  \"samples\": {},\n",
            self.samples
        ));
        let designs: Vec<String> = self
            .designs
            .iter()
            .map(|d| obskit::json::string(d))
            .collect();
        out.push_str(&format!("  \"designs\": [{}],\n", designs.join(", ")));
        out.push_str(&format!(
            "  \"matrix_digest\": \"{}\",\n  \"columns\": [\n",
            self.matrix_digest
        ));
        for (i, col) in self.columns.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"sketch\": {}}}{}\n",
                obskit::json::string(&col.name),
                col.sketch.to_json(),
                if i + 1 < self.columns.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a fingerprint document produced by [`Self::to_json`].
    ///
    /// # Errors
    /// A human-readable message on malformed JSON, a wrong schema tag, or
    /// a structurally invalid column entry.
    pub fn from_json(text: &str) -> Result<DatasetFingerprint, String> {
        let v = parse(text).map_err(|e| format!("fingerprint JSON: {e}"))?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != FINGERPRINT_SCHEMA {
            return Err(format!(
                "fingerprint schema mismatch: expected {FINGERPRINT_SCHEMA}, got `{schema}`"
            ));
        }
        let samples = v
            .get("samples")
            .and_then(Value::as_u64)
            .ok_or("fingerprint missing `samples`")?;
        let designs = v
            .get("designs")
            .and_then(Value::as_arr)
            .ok_or("fingerprint missing `designs`")?
            .iter()
            .map(|d| d.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()
            .ok_or("fingerprint `designs` must be strings")?;
        let matrix_digest = v
            .get("matrix_digest")
            .and_then(Value::as_str)
            .ok_or("fingerprint missing `matrix_digest`")?
            .to_string();
        let mut columns = Vec::new();
        for (i, col) in v
            .get("columns")
            .and_then(Value::as_arr)
            .ok_or("fingerprint missing `columns`")?
            .iter()
            .enumerate()
        {
            let name = col
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("column {i}: missing `name`"))?
                .to_string();
            let sketch = sketch_from_value(
                col.get("sketch")
                    .ok_or_else(|| format!("column {i}: missing `sketch`"))?,
            )
            .map_err(|e| format!("column {i} ({name}): {e}"))?;
            columns.push(ColumnSketch { name, sketch });
        }
        Ok(DatasetFingerprint {
            samples,
            designs,
            columns,
            matrix_digest,
        })
    }
}

/// Rebuild a [`QuantileSketch`] from its canonical JSON value.
fn sketch_from_value(v: &Value) -> Result<QuantileSketch, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("sketch missing `{key}`"))
    };
    let bins = |key: &str| -> Result<Vec<(i32, u64)>, String> {
        v.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("sketch missing `{key}`"))?
            .iter()
            .map(|pair| {
                let p = pair.as_arr().filter(|p| p.len() == 2);
                let k = p.and_then(|p| p[0].as_f64()).map(|k| k as i32);
                let c = p.and_then(|p| p[1].as_u64());
                k.zip(c).ok_or_else(|| format!("bad `{key}` bin entry"))
            })
            .collect()
    };
    QuantileSketch::from_parts(
        num("alpha")?,
        v.get("zero")
            .and_then(Value::as_u64)
            .ok_or("sketch missing `zero`")?,
        num("sum")?,
        num("min")?,
        num("max")?,
        &bins("pos")?,
        &bins("neg")?,
    )
    .map_err(|e| e.to_string())
}

/// One feature's drift between two fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureDrift {
    /// Column name.
    pub name: String,
    /// Population-stability index over the shared sketch bins.
    pub psi: f64,
    /// Largest absolute shift across the p10/p25/p50/p75/p90 quantiles,
    /// in the feature's own units.
    pub quantile_shift: f64,
}

/// The drift comparison between two fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Per-feature drift, sorted by descending PSI (ties by name).
    pub features: Vec<FeatureDrift>,
    /// Mean PSI across columns.
    pub mean_psi: f64,
    /// Columns with PSI ≥ [`PSI_DRIFTED`].
    pub drifted: usize,
    /// Sample counts of the two sides.
    pub samples: (u64, u64),
    /// True when the two matrices are bit-identical.
    pub identical: bool,
}

impl DriftReport {
    /// True when any column crossed the major-drift threshold.
    pub fn severe(&self) -> bool {
        self.drifted > 0
    }

    /// Human-readable drift table (the `hls_congest drift` output),
    /// listing the `top` most-drifted columns.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::from("DATASET DRIFT REPORT\n");
        out.push_str(&format!(
            "samples: {} vs {}   matrices identical: {}\n",
            self.samples.0, self.samples.1, self.identical
        ));
        out.push_str(&format!(
            "mean PSI: {:.4}   columns over {:.2}: {}/{}\n",
            self.mean_psi,
            PSI_DRIFTED,
            self.drifted,
            self.features.len()
        ));
        out.push_str(&format!(
            "{:<40} {:>10} {:>16}\n",
            "column", "PSI", "quantile shift"
        ));
        for f in self.features.iter().take(top) {
            out.push_str(&format!(
                "{:<40} {:>10.4} {:>16.4}\n",
                f.name, f.psi, f.quantile_shift
            ));
        }
        out
    }
}

/// Compare two fingerprints column by column.
///
/// # Errors
/// A message naming the first column-set mismatch or the first pair of
/// columns whose sketches differ in accuracy — drift across different
/// feature or bin layouts is meaningless.
pub fn drift(a: &DatasetFingerprint, b: &DatasetFingerprint) -> Result<DriftReport, String> {
    if a.columns.len() != b.columns.len() {
        return Err(format!(
            "column count mismatch: {} vs {}",
            a.columns.len(),
            b.columns.len()
        ));
    }
    let mut features = Vec::with_capacity(a.columns.len());
    for (ca, cb) in a.columns.iter().zip(&b.columns) {
        if ca.name != cb.name {
            return Err(format!(
                "column name mismatch: `{}` vs `{}`",
                ca.name, cb.name
            ));
        }
        if ca.sketch.alpha() != cb.sketch.alpha() {
            return Err(format!(
                "column `{}`: sketch accuracy mismatch: alpha {} vs {}",
                ca.name,
                ca.sketch.alpha(),
                cb.sketch.alpha()
            ));
        }
        let quantile_shift = [0.10, 0.25, 0.50, 0.75, 0.90]
            .iter()
            .map(|&q| (ca.sketch.quantile(q) - cb.sketch.quantile(q)).abs())
            .fold(0.0f64, f64::max);
        features.push(FeatureDrift {
            name: ca.name.clone(),
            psi: ca.sketch.psi(&cb.sketch),
            quantile_shift,
        });
    }
    let mean_psi = if features.is_empty() {
        0.0
    } else {
        features.iter().map(|f| f.psi).sum::<f64>() / features.len() as f64
    };
    let drifted = features.iter().filter(|f| f.psi >= PSI_DRIFTED).count();
    let samples = (a.samples, b.samples);
    let identical = a.matrix_digest == b.matrix_digest;
    features.sort_by(|x, y| y.psi.total_cmp(&x.psi).then_with(|| x.name.cmp(&y.name)));
    Ok(DriftReport {
        features,
        mean_psi,
        drifted,
        samples,
        identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::features::FEATURE_COUNT;
    use hls_ir::{FuncId, OpId};

    /// A synthetic dataset whose column 0 is `scale * i` (other columns 0).
    fn synthetic(n: usize, scale: f64) -> CongestionDataset {
        let mut ds = CongestionDataset::new();
        for i in 0..n {
            let mut row = vec![0.0; FEATURE_COUNT];
            row[0] = scale * i as f64;
            row[1] = (i % 7) as f64;
            ds.push(
                Sample {
                    design: format!("d{}", i % 3),
                    func: FuncId(0),
                    op: OpId(i as u32),
                    line: 0,
                    replica: None,
                    vertical: 10.0 + (i % 5) as f64,
                    horizontal: 20.0 + (i % 4) as f64,
                },
                &row,
            );
        }
        ds
    }

    #[test]
    fn fingerprint_shape_and_determinism() {
        let ds = synthetic(40, 1.0);
        let fp = DatasetFingerprint::of(&ds);
        assert_eq!(fp.samples, 40);
        assert_eq!(fp.columns.len(), FEATURE_COUNT + 2);
        assert_eq!(fp.designs, vec!["d0", "d1", "d2"]);
        assert_eq!(fp.columns[FEATURE_COUNT].name, "label.vertical");
        let again = DatasetFingerprint::of(&synthetic(40, 1.0));
        assert_eq!(fp, again);
        assert_eq!(fp.to_json(), again.to_json(), "byte-identical files");
    }

    #[test]
    fn fingerprint_round_trips_through_json() {
        let fp = DatasetFingerprint::of(&synthetic(25, 2.0));
        let parsed = DatasetFingerprint::from_json(&fp.to_json()).unwrap();
        assert_eq!(parsed, fp);
        assert_eq!(parsed.to_json(), fp.to_json());
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(DatasetFingerprint::from_json("not json").is_err());
        assert!(DatasetFingerprint::from_json("{\"schema\": \"wrong.v9\"}")
            .unwrap_err()
            .contains("schema mismatch"));
        let fp = DatasetFingerprint::of(&synthetic(5, 1.0));
        let broken = fp.to_json().replace("\"samples\": 5", "\"samples\": -1");
        assert!(DatasetFingerprint::from_json(&broken).is_err());
        // A sketch's alpha and bin counts are outside input too: a typed
        // error, not a panic or a wrapped count.
        let json = fp.to_json();
        let alpha = obskit::json::number(QuantileSketch::new().alpha());
        let zero_alpha = json.replacen(&format!("\"alpha\":{alpha}"), "\"alpha\":0", 1);
        assert_ne!(zero_alpha, json);
        assert!(DatasetFingerprint::from_json(&zero_alpha)
            .unwrap_err()
            .contains("sketch alpha must be in (0, 1), got 0"));
        let huge: Vec<String> = (1..=2049)
            .map(|k| format!("[{k},{}]", (1u64 << 53) - 1))
            .collect();
        let overflow = json.replacen("\"neg\":[]", &format!("\"neg\":[{}]", huge.join(",")), 1);
        assert_ne!(overflow, json);
        assert!(DatasetFingerprint::from_json(&overflow)
            .unwrap_err()
            .contains("sketch bin counts overflow u64"));
    }

    #[test]
    fn drift_flags_shifted_columns_and_clears_identical_ones() {
        let a = DatasetFingerprint::of(&synthetic(200, 1.0));
        let b = DatasetFingerprint::of(&synthetic(200, 50.0));
        let report = drift(&a, &b).unwrap();
        assert!(!report.identical);
        assert_eq!(report.features.len(), FEATURE_COUNT + 2);
        // Column 0's distribution moved by 50x: it must rank first with
        // major drift; untouched columns must score ~0.
        let top = &report.features[0];
        assert_eq!(top.name, feature_names()[0]);
        assert!(top.psi > PSI_DRIFTED, "psi = {}", top.psi);
        assert!(top.quantile_shift > 100.0);
        assert!(report.severe());
        let untouched = report
            .features
            .iter()
            .find(|f| f.name == "delay_ns")
            .unwrap();
        assert!(untouched.psi.abs() < 1e-9);

        let same = drift(&a, &DatasetFingerprint::of(&synthetic(200, 1.0))).unwrap();
        assert!(same.identical);
        assert!(!same.severe());
        assert!(same.mean_psi.abs() < 1e-9);
        assert!(same.render(5).contains("matrices identical: true"));
    }

    #[test]
    fn drift_rejects_mismatched_layouts() {
        let a = DatasetFingerprint::of(&synthetic(10, 1.0));
        let mut b = DatasetFingerprint::of(&synthetic(10, 1.0));
        b.columns.pop();
        assert!(drift(&a, &b).unwrap_err().contains("column count"));
        let mut c = DatasetFingerprint::of(&synthetic(10, 1.0));
        c.columns[0].name = "renamed".into();
        assert!(drift(&a, &c).unwrap_err().contains("name mismatch"));
        // A column sketched at another accuracy: PSI would compare bin
        // keys of two different layouts.
        let mut d = a.clone();
        d.columns[0].sketch = QuantileSketch::with_alpha(0.05);
        assert!(drift(&a, &d).unwrap_err().contains("accuracy mismatch"));
    }
}
