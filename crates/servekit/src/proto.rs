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

    /// Serialize to the wire JSON.
    pub fn to_json(&self) -> String {
        let mut o = BTreeMap::new();
        o.insert("id".into(), Value::Num(self.id as f64));
        o.insert("status".into(), Value::Str(self.status.name().into()));
        o.insert("degraded".into(), Value::Bool(self.degraded()));
        if !self.model.is_empty() {
            o.insert("model".into(), Value::Str(self.model.clone()));
        }
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
        if !self.vertical.is_empty() || !self.horizontal.is_empty() {
            o.insert("vertical".into(), nums(&self.vertical));
            o.insert("horizontal".into(), nums(&self.horizontal));
        }
        if !self.lines.is_empty() {
            o.insert(
                "lines".into(),
                Value::Arr(
                    self.lines
                        .iter()
                        .map(|&l| Value::Num(f64::from(l)))
                        .collect(),
                ),
            );
        }
        if let Some(e) = &self.error {
            o.insert("error".into(), Value::Str(e.clone()));
        }
        if !self.info.is_empty() {
            let info = self
                .info
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect();
            o.insert("info".into(), Value::Obj(info));
        }
        Value::Obj(o).to_json()
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
