//! Versioned model artifacts (`servekit.model.v1`): a pair of compiled
//! ensembles (vertical + horizontal), stored as their raw node tables,
//! with identity metadata, serialized as canonical JSON.
//!
//! Artifacts are the unit of hot-swap: `hls-congest train --model-out`
//! writes one, the registry validates and installs it. Deserialization
//! goes through [`CompiledEnsemble::from_raw`], so a corrupt file (out of
//! bounds children, cycles, non-finite thresholds, trees deeper than
//! `mlkit::compiled::MAX_DEPTH`) is rejected with a typed error before it
//! can ever reach a traversal. Node thresholds are
//! written with Rust's shortest round-trip float formatting, so a
//! save/load cycle is bitwise lossless.

use mlkit::CompiledEnsemble;
use obskit::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// The artifact schema identifier.
pub const MODEL_SCHEMA: &str = "servekit.model.v1";

/// A versioned, swappable model artifact.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Model family/name (`gbrt`, …).
    pub name: String,
    /// Monotonic artifact version (caller-assigned).
    pub version: u64,
    /// Width of the feature rows both ensembles expect.
    pub feature_count: usize,
    /// Freeform provenance note (training corpus, sample count, …).
    pub trained_on: String,
    /// Vertical-congestion ensemble.
    pub vertical: CompiledEnsemble,
    /// Horizontal-congestion ensemble.
    pub horizontal: CompiledEnsemble,
}

impl ModelArtifact {
    /// Display identity: `name@vN`.
    pub fn display_name(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }

    /// Stable content digest (FNV-1a of the canonical JSON).
    pub fn digest(&self) -> u64 {
        obskit::fnv1a(&[self.to_json().as_bytes()])
    }

    /// Serialize to canonical `servekit.model.v1` JSON. Key order is fixed
    /// (BTreeMap), numbers use shortest round-trip formatting, so two
    /// identical artifacts serialize byte-identically.
    pub fn to_json(&self) -> String {
        let ensemble = |e: &CompiledEnsemble| {
            let mut o = BTreeMap::new();
            o.insert("base".into(), Value::Num(e.base()));
            o.insert("scale".into(), Value::Num(e.scale()));
            o.insert(
                "roots".into(),
                Value::Arr(
                    e.roots()
                        .iter()
                        .map(|&r| Value::Num(f64::from(r)))
                        .collect(),
                ),
            );
            o.insert(
                "nodes".into(),
                Value::Arr(
                    e.nodes_raw()
                        .map(|(f, l, r, t)| {
                            Value::Arr(vec![
                                Value::Num(f64::from(f)),
                                Value::Num(f64::from(l)),
                                Value::Num(f64::from(r)),
                                Value::Num(t),
                            ])
                        })
                        .collect(),
                ),
            );
            Value::Obj(o)
        };
        let mut top = BTreeMap::new();
        top.insert("schema".into(), Value::Str(MODEL_SCHEMA.into()));
        top.insert("name".into(), Value::Str(self.name.clone()));
        top.insert("version".into(), Value::Num(self.version as f64));
        top.insert(
            "feature_count".into(),
            Value::Num(self.feature_count as f64),
        );
        top.insert("trained_on".into(), Value::Str(self.trained_on.clone()));
        top.insert("vertical".into(), ensemble(&self.vertical));
        top.insert("horizontal".into(), ensemble(&self.horizontal));
        Value::Obj(top).to_json()
    }

    /// Parse and structurally validate an artifact. Ensembles are rebuilt
    /// through [`CompiledEnsemble::from_raw`], so every traversal
    /// invariant (bounds, acyclicity, finiteness, feature space) holds on
    /// success.
    ///
    /// # Errors
    /// A description of the first malformed field or violated invariant.
    pub fn from_json(text: &str) -> Result<ModelArtifact, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != MODEL_SCHEMA {
            return Err(format!("expected schema `{MODEL_SCHEMA}`, got `{schema}`"));
        }
        let feature_count = doc
            .get("feature_count")
            .and_then(Value::as_u64)
            .ok_or("missing integer `feature_count`")? as usize;
        let ensemble = |key: &str| -> Result<CompiledEnsemble, String> {
            let e = doc.get(key).ok_or_else(|| format!("missing `{key}`"))?;
            let base = e
                .get("base")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{key}: missing number `base`"))?;
            let scale = e
                .get("scale")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{key}: missing number `scale`"))?;
            let roots: Vec<u32> = e
                .get("roots")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{key}: missing `roots` array"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| format!("{key}: bad root index"))
                })
                .collect::<Result<_, _>>()?;
            let nodes: Vec<(u32, u32, u32, f64)> = e
                .get("nodes")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{key}: missing `nodes` array"))?
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    let n = n
                        .as_arr()
                        .filter(|a| a.len() == 4)
                        .ok_or_else(|| format!("{key}: node {i} is not a 4-tuple"))?;
                    let idx = |j: usize| {
                        n[j].as_u64()
                            .and_then(|x| u32::try_from(x).ok())
                            .ok_or_else(|| format!("{key}: node {i} field {j} not a u32"))
                    };
                    let t = n[3]
                        .as_f64()
                        .ok_or_else(|| format!("{key}: node {i} threshold not a number"))?;
                    Ok((idx(0)?, idx(1)?, idx(2)?, t))
                })
                .collect::<Result<_, String>>()?;
            CompiledEnsemble::from_raw(base, scale, roots, nodes, feature_count)
                .map_err(|e| format!("{key}: {e}"))
        };
        Ok(ModelArtifact {
            name: doc
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("model")
                .to_string(),
            version: doc.get("version").and_then(Value::as_u64).unwrap_or(0),
            feature_count,
            trained_on: doc
                .get("trained_on")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            vertical: ensemble("vertical")?,
            horizontal: ensemble("horizontal")?,
        })
    }

    /// Write the artifact to `path` (tmp + rename, so a concurrent swap
    /// never observes a half-written file).
    ///
    /// # Errors
    /// Any I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    /// Read and validate an artifact from `path`.
    ///
    /// # Errors
    /// I/O failure, parse failure, or a violated structural invariant, as
    /// one string.
    pub fn load(path: &Path) -> Result<ModelArtifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The leaf sentinel (`u32::MAX`) — re-exported for tests that build node
/// tables by hand.
pub use mlkit::compiled::LEAF;

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny_artifact(version: u64) -> ModelArtifact {
        // One stump per target: split on feature 0 at 3.0.
        let nodes = vec![(0u32, 1, 2, 3.0), (LEAF, 0, 0, 10.0), (LEAF, 0, 0, 90.0)];
        let v = CompiledEnsemble::from_raw(1.0, 1.0, vec![0], nodes.clone(), 4).unwrap();
        let h = CompiledEnsemble::from_raw(0.5, 1.0, vec![0], nodes, 4).unwrap();
        ModelArtifact {
            name: "gbrt".into(),
            version,
            feature_count: 4,
            trained_on: "unit-test".into(),
            vertical: v,
            horizontal: h,
        }
    }

    #[test]
    fn save_load_round_trip_is_bitwise() {
        use mlkit::{GbrtOptions, GbrtRegressor, Matrix, Regressor};
        // A fitted ensemble, so the loaded layout is checked against the
        // training-side per-tree walk.
        let rows: Vec<Vec<f64>> = (0..90)
            .map(|i| vec![(i % 17) as f64, (i * 7 % 13) as f64, f64::from(i), 1.0])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + r[1].sin()).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: 20,
            ..Default::default()
        });
        m.fit(&x, &y);
        let a = ModelArtifact {
            vertical: m.compiled().clone(),
            ..tiny_artifact(3)
        };
        let dir = std::env::temp_dir().join(format!("servekit-artifact-{}", std::process::id()));
        let path = dir.join("m.json");
        a.save(&path).unwrap();
        let b = ModelArtifact::load(&path).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "canonical JSON is stable");
        assert_eq!(a.digest(), b.digest());
        assert_eq!(b.display_name(), "gbrt@v3");
        let mut out = vec![0.0; x.rows()];
        b.vertical.predict_into(&x, &mut out);
        for (o, row) in out.iter().zip(x.iter_rows()) {
            assert_eq!(o.to_bits(), m.predict_one(row).to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifacts_are_rejected() {
        let good = tiny_artifact(1).to_json();
        // Wrong schema.
        let e = ModelArtifact::from_json(&good.replace("servekit.model.v1", "x")).unwrap_err();
        assert!(e.contains("schema"), "{e}");
        // Out-of-bounds child: point the root's left child past the table.
        let bad = good.replace("[0.0,1.0,2.0,3.0]", "[0.0,1.0,99.0,3.0]");
        let e = ModelArtifact::from_json(&bad).unwrap_err();
        assert!(e.contains("outside"), "{e}");
        // Truncated file.
        assert!(ModelArtifact::from_json(&good[..good.len() / 2]).is_err());
        // Not JSON at all.
        assert!(ModelArtifact::from_json("hello").is_err());
    }
}
