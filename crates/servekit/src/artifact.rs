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

use crate::proto::write_numbers;
use mlkit::CompiledEnsemble;
use obskit::json::{self, JsonError, Reader};
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

    /// Serialize to canonical `servekit.model.v1` JSON: an object with its
    /// keys in sorted order, written straight into one string. Numbers use
    /// shortest round-trip formatting, so two identical artifacts
    /// serialize byte-identically.
    pub fn to_json(&self) -> String {
        let nodes = self.vertical.n_nodes() + self.horizontal.n_nodes();
        let mut out = String::with_capacity(256 + 48 * nodes);
        out.push_str("{\"feature_count\":");
        json::write_number(&mut out, self.feature_count as f64);
        out.push_str(",\"horizontal\":");
        write_ensemble(&mut out, &self.horizontal);
        out.push_str(",\"name\":");
        json::write_string(&mut out, &self.name);
        out.push_str(",\"schema\":");
        json::write_string(&mut out, MODEL_SCHEMA);
        out.push_str(",\"trained_on\":");
        json::write_string(&mut out, &self.trained_on);
        out.push_str(",\"version\":");
        json::write_number(&mut out, self.version as f64);
        out.push_str(",\"vertical\":");
        write_ensemble(&mut out, &self.vertical);
        out.push('}');
        out
    }

    /// Parse and structurally validate an artifact. The reader walks the
    /// document once, putting `roots` and the node 4-tuples straight into
    /// the raw tables, and the ensembles are rebuilt from those through
    /// [`CompiledEnsemble::from_raw`], so every traversal invariant
    /// (bounds, acyclicity, finiteness, feature space) holds on success.
    /// Of a repeated key the last wins, and a field of the wrong type is
    /// reported only once the whole document has read as JSON.
    ///
    /// # Errors
    /// A description of the first malformed field or violated invariant.
    pub fn from_json(text: &str) -> Result<ModelArtifact, String> {
        let (mut schema, mut name, mut trained_on) = (None, None, None);
        let (mut feature_count, mut version) = (None, None);
        let (mut vertical, mut horizontal) = (None, None);
        let mut r = Reader::new(text);
        r.object(|key, r| {
            match key {
                "schema" => schema = r.string()?,
                "name" => name = r.string()?,
                "trained_on" => trained_on = r.string()?,
                "feature_count" => feature_count = r.u64()?,
                "version" => version = r.u64()?,
                "vertical" => vertical = Some(RawEnsemble::read(r)?),
                "horizontal" => horizontal = Some(RawEnsemble::read(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })
        .and_then(|_| r.finish())
        .map_err(|e| e.to_string())?;
        let schema = schema.unwrap_or_default();
        if schema != MODEL_SCHEMA {
            return Err(format!("expected schema `{MODEL_SCHEMA}`, got `{schema}`"));
        }
        let feature_count = feature_count.ok_or("missing integer `feature_count`")? as usize;
        let ensemble = |raw: Option<RawEnsemble>, key: &str| {
            raw.ok_or_else(|| format!("missing `{key}`"))?
                .build(feature_count)
                .map_err(|e| format!("{key}: {e}"))
        };
        Ok(ModelArtifact {
            name: name.unwrap_or_else(|| "model".to_string()),
            version: version.unwrap_or(0),
            feature_count,
            trained_on: trained_on.unwrap_or_default(),
            vertical: ensemble(vertical, "vertical")?,
            horizontal: ensemble(horizontal, "horizontal")?,
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

/// A node as an artifact spells it: `(feature, left, right, threshold)`.
type RawNode = (u32, u32, u32, f64);

/// One ensemble as an artifact spells it: the fields read so far, and
/// the raw node table [`CompiledEnsemble::from_raw`] validates, or why
/// the last value of a field was refused.
struct RawEnsemble {
    base: Option<f64>,
    scale: Option<f64>,
    roots: Result<Vec<u32>, String>,
    nodes: Result<Vec<RawNode>, String>,
}

impl RawEnsemble {
    /// Read one ensemble object; a value of another kind reads as an
    /// ensemble with every field missing.
    fn read(r: &mut Reader) -> Result<RawEnsemble, JsonError> {
        let mut raw = RawEnsemble {
            base: None,
            scale: None,
            roots: Err("missing `roots` array".into()),
            nodes: Err("missing `nodes` array".into()),
        };
        r.object(|key, r| {
            match key {
                "base" => raw.base = r.number()?,
                "scale" => raw.scale = r.number()?,
                "roots" => raw.roots = read_roots(r)?,
                "nodes" => raw.nodes = read_nodes(r)?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(raw)
    }

    fn build(self, feature_count: usize) -> Result<CompiledEnsemble, String> {
        let base = self.base.ok_or("missing number `base`")?;
        let scale = self.scale.ok_or("missing number `scale`")?;
        let (roots, nodes) = (self.roots?, self.nodes?);
        CompiledEnsemble::from_raw(base, scale, roots, nodes, feature_count)
            .map_err(|e| e.to_string())
    }
}

/// The `roots` array: tree root indices, each a `u32`.
fn read_roots(r: &mut Reader) -> Result<Result<Vec<u32>, String>, JsonError> {
    let mut roots = Vec::new();
    let mut bad = false;
    let array = r.array(|r| {
        match r.u64()?.and_then(|n| u32::try_from(n).ok()) {
            Some(root) => roots.push(root),
            None => bad = true,
        }
        Ok(())
    })?;
    Ok(match (array, bad) {
        (false, _) => Err("missing `roots` array".into()),
        (true, true) => Err("bad root index".into()),
        (true, false) => Ok(roots),
    })
}

/// The `nodes` array: one `[feature, left, right, threshold]` 4-tuple
/// per node, or the error the first bad one gets.
fn read_nodes(r: &mut Reader) -> Result<Result<Vec<RawNode>, String>, JsonError> {
    let mut nodes = Vec::new();
    let mut bad = None;
    let array = r.array(|r| {
        if bad.is_some() {
            return r.skip();
        }
        let i = nodes.len();
        let (mut fields, mut threshold, mut len) = ([None; 3], None, 0);
        let tuple = r.array(|r| {
            match len {
                0..=2 => fields[len] = r.u64()?,
                3 => threshold = r.number()?,
                _ => r.skip()?,
            }
            len += 1;
            Ok(())
        })?;
        let index = |j: usize| fields[j].and_then(|x: u64| u32::try_from(x).ok());
        bad = if !tuple || len != 4 {
            Some(format!("node {i} is not a 4-tuple"))
        } else if let Some(t) = threshold {
            match (index(0), index(1), index(2)) {
                (Some(feature), Some(left), Some(right)) => {
                    nodes.push((feature, left, right, t));
                    None
                }
                _ => {
                    let j = (0..3).find(|&j| index(j).is_none()).unwrap_or(0);
                    Some(format!("node {i} field {j} not a u32"))
                }
            }
        } else {
            Some(format!("node {i} threshold not a number"))
        };
        Ok(())
    })?;
    Ok(match (array, bad) {
        (false, _) => Err("missing `nodes` array".into()),
        (true, Some(e)) => Err(e),
        (true, None) => Ok(nodes),
    })
}

/// Append one ensemble as a JSON object, keys in sorted order: `base`,
/// `nodes` (one `[feature, left, right, threshold]` array per node, in
/// table order), `roots`, `scale`.
fn write_ensemble(out: &mut String, e: &CompiledEnsemble) {
    out.push_str("{\"base\":");
    json::write_number(out, e.base());
    out.push_str(",\"nodes\":[");
    for (i, (f, l, r, t)) in e.nodes_raw().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json::write_number(out, f64::from(f));
        out.push(',');
        json::write_number(out, f64::from(l));
        out.push(',');
        json::write_number(out, f64::from(r));
        out.push(',');
        json::write_number(out, t);
        out.push(']');
    }
    out.push_str("],\"roots\":");
    write_numbers(out, e.roots().iter().map(|&r| f64::from(r)));
    out.push_str(",\"scale\":");
    json::write_number(out, e.scale());
    out.push('}');
}

/// The leaf sentinel (`u32::MAX`) — re-exported for tests that build node
/// tables by hand.
pub use mlkit::compiled::LEAF;

#[cfg(test)]
mod tests {
    use super::*;
    use obskit::json::Value;

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

    /// The encoding `ModelArtifact::to_json` had before it wrote its keys
    /// directly: a sorted value tree, serialized by `obskit::json`.
    fn tree_json(a: &ModelArtifact) -> String {
        use std::collections::BTreeMap;
        let ensemble = |e: &CompiledEnsemble| {
            let mut o = BTreeMap::new();
            o.insert("base".into(), Value::Num(e.base()));
            o.insert("scale".into(), Value::Num(e.scale()));
            let roots = e.roots().iter().map(|&r| Value::Num(f64::from(r)));
            o.insert("roots".into(), Value::Arr(roots.collect()));
            let nodes = e.nodes_raw().map(|(f, l, r, t)| {
                Value::Arr(vec![
                    Value::Num(f64::from(f)),
                    Value::Num(f64::from(l)),
                    Value::Num(f64::from(r)),
                    Value::Num(t),
                ])
            });
            o.insert("nodes".into(), Value::Arr(nodes.collect()));
            Value::Obj(o)
        };
        let mut top = BTreeMap::new();
        top.insert("schema".into(), Value::Str(MODEL_SCHEMA.into()));
        top.insert("name".into(), Value::Str(a.name.clone()));
        top.insert("version".into(), Value::Num(a.version as f64));
        top.insert("feature_count".into(), Value::Num(a.feature_count as f64));
        top.insert("trained_on".into(), Value::Str(a.trained_on.clone()));
        top.insert("vertical".into(), ensemble(&a.vertical));
        top.insert("horizontal".into(), ensemble(&a.horizontal));
        Value::Obj(top).to_json()
    }

    #[test]
    fn artifact_json_matches_the_tree_encoding() {
        use mlkit::{GbrtOptions, GbrtRegressor, Matrix, Regressor};
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![f64::from(i % 23) * 0.37, f64::from(i * 7 % 13) - 6.5, 1.0])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() * 40.0 + r[1]).collect();
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: 30,
            ..Default::default()
        });
        m.fit(&Matrix::from_rows(&rows), &y);
        let awkward = "q\"b\\s\n\r\t\u{1}\u{1f} é 日本";
        let artifacts = [
            tiny_artifact(0),
            ModelArtifact {
                name: awkward.into(),
                version: (1 << 53) - 1,
                trained_on: awkward.into(),
                vertical: m.compiled().clone(),
                ..tiny_artifact(0)
            },
            ModelArtifact {
                name: String::new(),
                version: u64::MAX,
                feature_count: usize::MAX,
                trained_on: String::new(),
                vertical: CompiledEnsemble::default(),
                ..tiny_artifact(0)
            },
        ];
        for a in &artifacts {
            assert_eq!(a.to_json(), tree_json(a), "{}", a.display_name());
        }
    }

    /// `ModelArtifact::from_json` as it was before artifacts loaded
    /// straight into their raw tables: a `json::parse` tree, then a copy
    /// out of it.
    fn tree_from_json(text: &str) -> Result<ModelArtifact, String> {
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

    /// Both loaders give the same artifact (compared by its canonical
    /// bytes) and the same error.
    fn loaders_agree(text: &str) -> bool {
        let now = ModelArtifact::from_json(text).map(|a| a.to_json());
        let then = tree_from_json(text).map(|a| a.to_json());
        assert_eq!(now, then, "{text:.300}");
        now.is_ok()
    }

    #[test]
    fn artifact_loader_matches_the_tree_loader() {
        use mlkit::{GbrtOptions, GbrtRegressor, Matrix, Regressor};
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|i| {
                vec![
                    f64::from(i % 19) * 0.41,
                    f64::from(i * 5 % 11) - 4.5,
                    1.0,
                    -0.0,
                ]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].cos() * 30.0 + r[1]).collect();
        let mut m = GbrtRegressor::new(GbrtOptions {
            n_estimators: 25,
            ..Default::default()
        });
        m.fit(&Matrix::from_rows(&rows), &y);
        let fitted = ModelArtifact {
            name: "q\"b\\s\n é".into(),
            version: (1 << 53) - 1,
            vertical: m.compiled().clone(),
            ..tiny_artifact(2)
        };
        let good = [fitted.to_json(), tiny_artifact(1).to_json()];
        for text in &good {
            assert!(loaders_agree(text));
        }
        // Hand-built documents, and the small one corrupted every way.
        let small = tiny_artifact(1).to_json();
        let mut texts: Vec<String> = (0..small.len()).map(|i| small[..i].to_string()).collect();
        let body = &small[1..small.len() - 1];
        let keys = "schema name version feature_count trained_on vertical horizontal junk";
        let values = r#"null 1 -1 4.5 1e400 9007199254740992 "servekit.model.v1" "x" [] {}
            [[0,1,2,3.0]] {"base":1,"scale":1,"roots":[0],"nodes":[[4294967295,0,0,2.5]]}"#;
        for key in keys.split_whitespace() {
            for value in values.split_whitespace() {
                texts.push(format!("{{\"{key}\":{value},{body}}}"));
                texts.push(format!("{{{body},\"{key}\":{value}}}"));
            }
        }
        let ensemble = r#"{"base":1.0,"nodes":[[0.0,1.0,2.0,3.0],[4294967295.0,0.0,0.0,10.0],[4294967295.0,0.0,0.0,90.0]],"roots":[0.0],"scale":1.0}"#;
        assert!(small.contains(ensemble), "{small}");
        let broken = r#""base":"1" "scale":null "roots":{} "roots":[-1] "roots":[4294967296]
            "roots":[0.5] "nodes":3 "nodes":[[0,1,2]] "nodes":[[0,1,2,3,4]] "nodes":[[0,1,2,"t"]]
            "nodes":[[0,-1,2,3]] "nodes":[[0,1,99,3]] "nodes":[[0,1,2,null],[0,1,"x",3]]
            "nodes":[[0,1,2,3],[0,1,2]] "nodes":[{}] "nodes":[[0,1,1,3]] "roots":[0],"roots":[7]
            "nodes":[],"nodes":[[4294967295,0,0,1]]"#;
        for broken in broken.split_whitespace() {
            for at in ["{", ","] {
                let spliced = ensemble.replacen(at, &format!("{at}{broken},"), 1);
                texts.push(small.replacen(ensemble, &spliced, 1));
            }
            texts.push(small.replacen(ensemble, &format!("{{{broken}}}"), 1));
        }
        texts.push(format!("{small} "));
        texts.push(format!("{small}{{}}"));
        texts.push(format!("[{small}]"));
        texts.push(format!("{}{}", "[".repeat(80), "]".repeat(80)));
        let loaded = texts.iter().filter(|t| loaders_agree(t)).count();
        assert!(
            loaded >= 10,
            "{loaded} of {} corrupt variants loaded",
            texts.len()
        );
        assert!(loaded < texts.len() / 2, "{loaded} of {}", texts.len());
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
