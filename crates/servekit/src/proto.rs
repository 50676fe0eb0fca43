//! The `congestd` wire protocol: typed requests and replies, JSON encoded,
//! carried as length-prefixed frames (see [`crate::net`]).
//!
//! Every admitted request produces exactly one reply, and the reply's
//! [`ReplyStatus`] is the *typed* outcome the robustness contract promises:
//! `Ok`, `Degraded` (analytic fallback answered), `Overloaded` (shed at
//! admission), `DeadlineExceeded` (cooperatively cancelled), or `Error`
//! (malformed input or terminal stage failure). The process never answers a
//! request by dying.

use obskit::json::{self, Value};
use std::collections::BTreeMap;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Predict V/H congestion for pre-extracted feature rows.
    Predict {
        /// Feature rows, each `feature_count` wide.
        rows: Vec<Vec<f64>>,
    },
    /// Compile a MiniHLS source, extract per-op features, and predict.
    Source {
        /// Design name (used for diagnostics and fault-plan matching).
        name: String,
        /// MiniHLS source text.
        text: String,
    },
    /// Hot-swap the active model to the artifact at `path` (server-side
    /// path), gated by golden-batch validation.
    Swap {
        /// Path to a `servekit.model.v1` artifact file.
        path: String,
    },
    /// Roll the active model back to the last-good version.
    Rollback,
    /// Report server status (model, queue depth, counters).
    Status,
    /// Begin a clean shutdown.
    Shutdown,
}

impl RequestBody {
    /// Wire name of the request kind.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestBody::Predict { .. } => "predict",
            RequestBody::Source { .. } => "source",
            RequestBody::Swap { .. } => "swap",
            RequestBody::Rollback => "rollback",
            RequestBody::Status => "status",
            RequestBody::Shutdown => "shutdown",
        }
    }
}

/// One request. `id` is caller-assigned and echoed on the reply; the
/// optional deadline is measured from *admission*, cooperatively.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-assigned correlation id, echoed on the reply.
    pub id: u64,
    /// Per-request deadline in milliseconds from admission; `None` uses
    /// the server default.
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub body: RequestBody,
}

impl Request {
    /// A predict request over pre-extracted rows.
    pub fn predict(id: u64, rows: Vec<Vec<f64>>) -> Request {
        Request {
            id,
            deadline_ms: None,
            body: RequestBody::Predict { rows },
        }
    }

    /// Serialize to the wire JSON.
    pub fn to_json(&self) -> String {
        let mut o = BTreeMap::new();
        o.insert("id".into(), Value::Num(self.id as f64));
        o.insert("kind".into(), Value::Str(self.body.kind().into()));
        if let Some(d) = self.deadline_ms {
            o.insert("deadline_ms".into(), Value::Num(d as f64));
        }
        match &self.body {
            RequestBody::Predict { rows } => {
                let rows = rows
                    .iter()
                    .map(|r| Value::Arr(r.iter().map(|&v| Value::Num(v)).collect()))
                    .collect();
                o.insert("rows".into(), Value::Arr(rows));
            }
            RequestBody::Source { name, text } => {
                o.insert("name".into(), Value::Str(name.clone()));
                o.insert("text".into(), Value::Str(text.clone()));
            }
            RequestBody::Swap { path } => {
                o.insert("path".into(), Value::Str(path.clone()));
            }
            RequestBody::Rollback | RequestBody::Status | RequestBody::Shutdown => {}
        }
        Value::Obj(o).to_json()
    }

    /// Parse a request from wire JSON.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.as_obj().is_none() {
            return Err("request must be a JSON object".into());
        }
        let id = match doc.get("id") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or("`id` must be a non-negative integer below 2^53")?,
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("`deadline_ms` must be a non-negative integer below 2^53")?,
            ),
        };
        let kind = doc
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing string field `kind`")?;
        let str_field = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("`{kind}` needs a string `{k}` field"))
        };
        let body = match kind {
            "predict" => {
                let rows = doc
                    .get("rows")
                    .and_then(Value::as_arr)
                    .ok_or("`predict` needs a `rows` array")?;
                let mut out = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    let row = row
                        .as_arr()
                        .ok_or_else(|| format!("row {i}: not an array"))?;
                    let mut vals = Vec::with_capacity(row.len());
                    for v in row {
                        vals.push(v.as_f64().ok_or_else(|| format!("row {i}: non-number"))?);
                    }
                    out.push(vals);
                }
                RequestBody::Predict { rows: out }
            }
            "source" => RequestBody::Source {
                name: str_field("name")?,
                text: str_field("text")?,
            },
            "swap" => RequestBody::Swap {
                path: str_field("path")?,
            },
            "rollback" => RequestBody::Rollback,
            "status" => RequestBody::Status,
            "shutdown" => RequestBody::Shutdown,
            other => return Err(format!("unknown request kind `{other}`")),
        };
        Ok(Request {
            id,
            deadline_ms,
            body,
        })
    }
}

/// The typed outcome of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplyStatus {
    /// Answered by the active model within deadline.
    #[default]
    Ok,
    /// Answered by a fallback (analytic estimator); quality reduced.
    Degraded,
    /// Shed at admission under overload; retry later.
    Overloaded,
    /// Cooperatively cancelled past its deadline.
    DeadlineExceeded,
    /// Malformed input or terminal failure; `error` explains.
    Error,
}

impl ReplyStatus {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            ReplyStatus::Ok => "ok",
            ReplyStatus::Degraded => "degraded",
            ReplyStatus::Overloaded => "overloaded",
            ReplyStatus::DeadlineExceeded => "deadline_exceeded",
            ReplyStatus::Error => "error",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<ReplyStatus> {
        Some(match s {
            "ok" => ReplyStatus::Ok,
            "degraded" => ReplyStatus::Degraded,
            "overloaded" => ReplyStatus::Overloaded,
            "deadline_exceeded" => ReplyStatus::DeadlineExceeded,
            "error" => ReplyStatus::Error,
            _ => return None,
        })
    }
}

/// One reply. Exactly one per admitted request, echoing its `id`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Reply {
    /// Correlation id echoed from the request.
    pub id: u64,
    /// Typed outcome.
    pub status: ReplyStatus,
    /// Model that answered (`name@vN`, or `analytic` when degraded).
    pub model: String,
    /// Per-row (or per-op) vertical congestion predictions.
    pub vertical: Vec<f64>,
    /// Per-row (or per-op) horizontal congestion predictions.
    pub horizontal: Vec<f64>,
    /// Source lines per prediction (source requests only).
    pub lines: Vec<u32>,
    /// Failure description for `Error` replies.
    pub error: Option<String>,
    /// Freeform info (status replies: queue depth, counters, …).
    pub info: BTreeMap<String, String>,
}

impl Reply {
    /// A reply with the given id and status, nothing else.
    pub fn status_only(id: u64, status: ReplyStatus) -> Reply {
        Reply {
            id,
            status,
            ..Default::default()
        }
    }

    /// An `Error` reply carrying `message`.
    pub fn error(id: u64, message: impl Into<String>) -> Reply {
        Reply {
            id,
            status: ReplyStatus::Error,
            error: Some(message.into()),
            ..Default::default()
        }
    }

    /// True when the reply was answered by a fallback path.
    pub fn degraded(&self) -> bool {
        self.status == ReplyStatus::Degraded
    }

    /// Serialize to the wire JSON: an object with its keys in sorted
    /// order, written straight into one string.
    pub fn to_json(&self) -> String {
        let preds = !self.vertical.is_empty() || !self.horizontal.is_empty();
        let mut out = String::with_capacity(
            96 + 20 * (self.vertical.len() + self.horizontal.len()) + 8 * self.lines.len(),
        );
        out.push_str("{\"degraded\":");
        out.push_str(if self.degraded() { "true" } else { "false" });
        if let Some(e) = &self.error {
            out.push_str(",\"error\":");
            json::write_string(&mut out, e);
        }
        if preds {
            out.push_str(",\"horizontal\":");
            write_numbers(&mut out, self.horizontal.iter().copied());
        }
        out.push_str(",\"id\":");
        json::write_number(&mut out, self.id as f64);
        if !self.info.is_empty() {
            out.push_str(",\"info\":{");
            for (i, (k, v)) in self.info.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_string(&mut out, k);
                out.push(':');
                json::write_string(&mut out, v);
            }
            out.push('}');
        }
        if !self.lines.is_empty() {
            out.push_str(",\"lines\":");
            write_numbers(&mut out, self.lines.iter().map(|&l| f64::from(l)));
        }
        if !self.model.is_empty() {
            out.push_str(",\"model\":");
            json::write_string(&mut out, &self.model);
        }
        out.push_str(",\"status\":");
        json::write_string(&mut out, self.status.name());
        if preds {
            out.push_str(",\"vertical\":");
            write_numbers(&mut out, self.vertical.iter().copied());
        }
        out.push('}');
        out
    }

    /// Parse a reply from wire JSON.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Reply, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let status = doc
            .get("status")
            .and_then(Value::as_str)
            .and_then(ReplyStatus::parse)
            .ok_or("missing or unknown `status`")?;
        let floats = |k: &str| -> Result<Vec<f64>, String> {
            match doc.get(k) {
                None => Ok(Vec::new()),
                Some(v) => v
                    .as_arr()
                    .ok_or_else(|| format!("`{k}` must be an array"))?
                    .iter()
                    .map(|x| x.as_f64().ok_or_else(|| format!("`{k}`: non-number")))
                    .collect(),
            }
        };
        let mut info = BTreeMap::new();
        if let Some(Value::Obj(m)) = doc.get("info") {
            for (k, v) in m {
                if let Some(s) = v.as_str() {
                    info.insert(k.clone(), s.to_string());
                }
            }
        }
        Ok(Reply {
            id: doc.get("id").and_then(Value::as_u64).unwrap_or(0),
            status,
            model: doc
                .get("model")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            vertical: floats("vertical")?,
            horizontal: floats("horizontal")?,
            lines: floats("lines")?.into_iter().map(|l| l as u32).collect(),
            error: doc.get("error").and_then(Value::as_str).map(str::to_string),
            info,
        })
    }
}

/// Append `values` as a JSON array of numbers.
pub(crate) fn write_numbers(out: &mut String, values: impl Iterator<Item = f64>) {
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_number(out, v);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_kinds_round_trip() {
        let reqs = [
            Request::predict(7, vec![vec![1.5, -2.0], vec![0.0, 3.25]]),
            Request {
                id: 8,
                deadline_ms: Some(250),
                body: RequestBody::Source {
                    name: "mac".into(),
                    text: "fn f() {}".into(),
                },
            },
            Request {
                id: 9,
                deadline_ms: None,
                body: RequestBody::Swap {
                    path: "/tmp/m.json".into(),
                },
            },
            Request {
                id: 10,
                deadline_ms: None,
                body: RequestBody::Rollback,
            },
            Request {
                id: 11,
                deadline_ms: None,
                body: RequestBody::Status,
            },
            Request {
                id: 12,
                deadline_ms: None,
                body: RequestBody::Shutdown,
            },
        ];
        for r in reqs {
            let back = Request::from_json(&r.to_json()).unwrap();
            assert_eq!(r, back, "{}", r.to_json());
        }
    }

    #[test]
    fn reply_round_trips_with_degraded_stamp() {
        let mut r = Reply {
            id: 3,
            status: ReplyStatus::Degraded,
            model: "analytic".into(),
            vertical: vec![12.5, 80.0],
            horizontal: vec![10.0, 61.25],
            lines: vec![4, 9],
            error: None,
            info: BTreeMap::new(),
        };
        r.info.insert("queue_depth".into(), "3".into());
        let json = r.to_json();
        assert!(json.contains("\"degraded\":true"), "{json}");
        assert_eq!(Reply::from_json(&json).unwrap(), r);
    }

    /// The encoding `Reply::to_json` had before it wrote its keys
    /// directly: a sorted value tree, serialized by `obskit::json`.
    fn tree_json(r: &Reply) -> String {
        let mut o = BTreeMap::new();
        o.insert("id".into(), Value::Num(r.id as f64));
        o.insert("status".into(), Value::Str(r.status.name().into()));
        o.insert("degraded".into(), Value::Bool(r.degraded()));
        if !r.model.is_empty() {
            o.insert("model".into(), Value::Str(r.model.clone()));
        }
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
        if !r.vertical.is_empty() || !r.horizontal.is_empty() {
            o.insert("vertical".into(), nums(&r.vertical));
            o.insert("horizontal".into(), nums(&r.horizontal));
        }
        if !r.lines.is_empty() {
            let lines = r.lines.iter().map(|&l| Value::Num(f64::from(l))).collect();
            o.insert("lines".into(), Value::Arr(lines));
        }
        if let Some(e) = &r.error {
            o.insert("error".into(), Value::Str(e.clone()));
        }
        if !r.info.is_empty() {
            let info = r
                .info
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect();
            o.insert("info".into(), Value::Obj(info));
        }
        Value::Obj(o).to_json()
    }

    #[test]
    fn reply_json_matches_the_tree_encoding() {
        let awkward = "q\"b\\s\n\r\t\u{1}\u{1f} é 日本";
        let mut info = BTreeMap::new();
        info.insert("cache".to_string(), "hit".to_string());
        info.insert(awkward.to_string(), awkward.to_string());
        info.insert(String::new(), String::new());
        let mut replies = vec![
            Reply::status_only(0, ReplyStatus::Ok),
            Reply::status_only((1 << 53) - 1, ReplyStatus::Overloaded),
            Reply::status_only(1 << 53, ReplyStatus::DeadlineExceeded),
            Reply::status_only((1 << 53) + 1, ReplyStatus::Ok),
            Reply::status_only(u64::MAX, ReplyStatus::Ok),
            Reply::error(7, awkward),
            Reply::error(8, ""),
            Reply {
                id: 3,
                status: ReplyStatus::Degraded,
                model: "analytic".into(),
                vertical: vec![12.5, 80.0, -0.0, 0.0, 1e300, 5e-324],
                horizontal: vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 0.1, 1e16],
                lines: vec![0, 4, u32::MAX],
                error: None,
                info: info.clone(),
            },
            // One side empty: both keys are still written.
            Reply {
                id: 4,
                vertical: vec![],
                horizontal: vec![2.0],
                ..Default::default()
            },
            Reply {
                id: 5,
                model: awkward.into(),
                lines: vec![9],
                error: Some(awkward.into()),
                info,
                ..Default::default()
            },
        ];
        // A served reply's worth of ops.
        replies.push(Reply {
            id: 6,
            model: "gbrt@v1".into(),
            vertical: (0..57).map(|i| 17.25 + f64::from(i) * 1.37).collect(),
            horizontal: (0..57).map(|i| 3.0 * f64::from(i)).collect(),
            lines: (1..=57).collect(),
            ..Default::default()
        });
        for r in &replies {
            assert_eq!(r.to_json(), tree_json(r), "{r:?}");
        }
    }

    #[test]
    fn every_status_round_trips() {
        for s in [
            ReplyStatus::Ok,
            ReplyStatus::Degraded,
            ReplyStatus::Overloaded,
            ReplyStatus::DeadlineExceeded,
            ReplyStatus::Error,
        ] {
            assert_eq!(ReplyStatus::parse(s.name()), Some(s));
            let r = Reply::status_only(1, s);
            assert_eq!(Reply::from_json(&r.to_json()).unwrap().status, s);
        }
    }

    #[test]
    fn ids_at_or_above_2_pow_53_are_refused_and_smaller_ones_echo_exactly() {
        // An `f64` holds every integer below 2^53; 2^53 + 1 would come back
        // as 2^53, so anything from 2^53 up is a typed error instead.
        for id in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
        ] {
            let e =
                Request::from_json(&format!("{{\"id\":{id},\"kind\":\"status\"}}")).unwrap_err();
            assert!(e.contains("`id`"), "{id}: {e}");
        }
        let e = Request::from_json(r#"{"kind":"status","deadline_ms":9007199254740992}"#);
        assert!(e.unwrap_err().contains("`deadline_ms`"));
        let max = (1u64 << 53) - 1;
        let req = Request::from_json(&format!("{{\"id\":{max},\"kind\":\"status\"}}")).unwrap();
        assert_eq!(req.id, max);
        let wire = Reply::status_only(req.id, ReplyStatus::Ok).to_json();
        assert!(wire.contains("\"id\":9007199254740991"), "{wire}");
        assert_eq!(Reply::from_json(&wire).unwrap().id, max);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (text, needle) in [
            ("[]", "object"),
            (r#"{"id":1}"#, "kind"),
            (r#"{"id":1,"kind":"teleport"}"#, "unknown"),
            (r#"{"id":1,"kind":"predict"}"#, "rows"),
            (r#"{"id":1,"kind":"predict","rows":[["x"]]}"#, "non-number"),
            (r#"{"id":1,"kind":"swap"}"#, "path"),
        ] {
            let e = Request::from_json(text).unwrap_err();
            assert!(e.contains(needle), "`{text}` → {e}");
        }
    }

    #[test]
    fn deeply_nested_frames_are_typed_errors() {
        // 100 000 levels overflow the stack of a parser without a depth cap.
        let deep = "[".repeat(100_000);
        let rows = format!(r#"{{"id":1,"kind":"predict","rows":{deep}"#);
        for text in [deep.as_str(), rows.as_str()] {
            let e = Request::from_json(text).unwrap_err();
            assert!(e.contains("nesting"), "{e}");
            let e = Reply::from_json(text).unwrap_err();
            assert!(e.contains("nesting"), "{e}");
        }
    }
}
