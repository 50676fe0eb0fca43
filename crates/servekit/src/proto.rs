//! The `congestd` wire protocol: typed requests and replies, JSON encoded,
//! carried as length-prefixed frames (see [`crate::net`]).
//!
//! Every admitted request produces exactly one reply, and the reply's
//! [`ReplyStatus`] is the *typed* outcome the robustness contract promises:
//! `Ok`, `Degraded` (analytic fallback answered), `Overloaded` (shed at
//! admission), `DeadlineExceeded` (cooperatively cancelled), or `Error`
//! (malformed input or terminal stage failure). The process never answers a
//! request by dying.

use obskit::json::{self, JsonError, Kind, Reader};
use std::collections::BTreeMap;
use std::ops::Range;

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

    /// Serialize to the wire JSON: an object with its keys in sorted
    /// order, written straight into one string.
    pub fn to_json(&self) -> String {
        let payload = match &self.body {
            RequestBody::Predict { rows } => rows.iter().map(|r| 2 + 20 * r.len()).sum(),
            RequestBody::Source { name, text } => name.len() + text.len(),
            RequestBody::Swap { path } => path.len(),
            RequestBody::Rollback | RequestBody::Status | RequestBody::Shutdown => 0,
        };
        let mut out = String::with_capacity(80 + payload);
        out.push('{');
        if let Some(d) = self.deadline_ms {
            out.push_str("\"deadline_ms\":");
            json::write_number(&mut out, d as f64);
            out.push(',');
        }
        out.push_str("\"id\":");
        json::write_number(&mut out, self.id as f64);
        out.push_str(",\"kind\":");
        json::write_string(&mut out, self.body.kind());
        match &self.body {
            RequestBody::Predict { rows } => {
                out.push_str(",\"rows\":[");
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_numbers(&mut out, row.iter().copied());
                }
                out.push(']');
            }
            RequestBody::Source { name, text } => {
                out.push_str(",\"name\":");
                json::write_string(&mut out, name);
                out.push_str(",\"text\":");
                json::write_string(&mut out, text);
            }
            RequestBody::Swap { path } => {
                out.push_str(",\"path\":");
                json::write_string(&mut out, path);
            }
            RequestBody::Rollback | RequestBody::Status | RequestBody::Shutdown => {}
        }
        out.push('}');
        out
    }

    /// Parse a request from wire JSON, reading each field straight into
    /// its place. Of a repeated key the last wins, and a field of the
    /// wrong type is reported only once the whole frame has read as JSON.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let (mut id, mut deadline_ms) = (None, None);
        let (mut kind, mut name, mut body_text, mut path) = (None, None, None, None);
        let mut rows = Err(NO_ROWS.to_string());
        let mut r = Reader::new(text);
        let object = r
            .object(|key, r| {
                match key {
                    "id" => id = Some(r.u64()?),
                    "deadline_ms" => deadline_ms = Some(r.u64()?),
                    "kind" => kind = r.string()?,
                    "name" => name = r.string()?,
                    "text" => body_text = r.string()?,
                    "path" => path = r.string()?,
                    "rows" => rows = read_rows(r)?,
                    _ => r.skip()?,
                }
                Ok(())
            })
            .and_then(|object| r.finish().map(|()| object))
            .map_err(|e| e.to_string())?;
        if !object {
            return Err("request must be a JSON object".into());
        }
        let id = match id {
            None => 0,
            Some(id) => id.ok_or("`id` must be a non-negative integer below 2^53")?,
        };
        let deadline_ms = match deadline_ms {
            None => None,
            Some(d) => Some(d.ok_or("`deadline_ms` must be a non-negative integer below 2^53")?),
        };
        let kind = kind.ok_or("missing string field `kind`")?;
        let needs = |field: Option<String>, k: &str| {
            field.ok_or_else(|| format!("`{kind}` needs a string `{k}` field"))
        };
        let body = match kind.as_str() {
            "predict" => RequestBody::Predict { rows: rows? },
            "source" => RequestBody::Source {
                name: needs(name, "name")?,
                text: needs(body_text, "text")?,
            },
            "swap" => RequestBody::Swap {
                path: needs(path, "path")?,
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

/// Why a `predict` request without a usable `rows` array is refused.
const NO_ROWS: &str = "`predict` needs a `rows` array";

/// A request's `rows`: every row, or the error its first bad row gets.
fn read_rows(r: &mut Reader) -> Result<Result<Vec<Vec<f64>>, String>, JsonError> {
    let mut rows = Vec::new();
    let mut bad = None;
    let array = r.array(|r| {
        if bad.is_some() {
            return r.skip();
        }
        let i = rows.len();
        let is_array = r.peek() == Some(Kind::Arr);
        let mut row = Vec::new();
        if r.numbers(&mut row)? {
            rows.push(row);
        } else if is_array {
            bad = Some(format!("row {i}: non-number"));
        } else {
            bad = Some(format!("row {i}: not an array"));
        }
        Ok(())
    })?;
    Ok(match (array, bad) {
        (false, _) => Err(NO_ROWS.to_string()),
        (true, Some(e)) => Err(e),
        (true, None) => Ok(rows),
    })
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
        let mut out = String::with_capacity(
            96 + 20 * (self.vertical.len() + self.horizontal.len()) + 8 * self.lines.len(),
        );
        self.write_json(&mut out);
        out
    }

    /// Append the wire JSON to `out`. Returns the range of `out` that
    /// holds the `id` value and the `info` member, if there is one: all
    /// that differs between two replies carrying one answer, which a
    /// cached answer's text leaves out (see `CachedReply`).
    pub(crate) fn write_json(&self, out: &mut String) -> Range<usize> {
        let preds = !self.vertical.is_empty() || !self.horizontal.is_empty();
        out.push_str("{\"degraded\":");
        out.push_str(if self.degraded() { "true" } else { "false" });
        if let Some(e) = &self.error {
            out.push_str(",\"error\":");
            json::write_string(out, e);
        }
        if preds {
            out.push_str(",\"horizontal\":");
            write_numbers(out, self.horizontal.iter().copied());
        }
        out.push_str(",\"id\":");
        let id_start = out.len();
        json::write_number(out, self.id as f64);
        if !self.info.is_empty() {
            out.push_str(",\"info\":{");
            for (i, (k, v)) in self.info.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_string(out, k);
                out.push(':');
                json::write_string(out, v);
            }
            out.push('}');
        }
        let info_end = out.len();
        if !self.lines.is_empty() {
            out.push_str(",\"lines\":");
            write_numbers(out, self.lines.iter().map(|&l| f64::from(l)));
        }
        if !self.model.is_empty() {
            out.push_str(",\"model\":");
            json::write_string(out, &self.model);
        }
        out.push_str(",\"status\":");
        json::write_string(out, self.status.name());
        if preds {
            out.push_str(",\"vertical\":");
            write_numbers(out, self.vertical.iter().copied());
        }
        out.push('}');
        id_start..info_end
    }

    /// Parse a reply from wire JSON, reading each field straight into
    /// its place: numbers into the prediction and line vectors, no value
    /// tree in between. Of a repeated key the last wins, and a field of
    /// the wrong type is reported only once the whole frame has read as
    /// JSON. A missing or non-integer `id` reads as 0, and `info` keeps
    /// only its string values.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Reply, String> {
        let mut reply = Reply::default();
        let mut status = None;
        let mut lines = Vec::new();
        // Per number array (vertical, horizontal, lines): why its last
        // occurrence was refused, if it was.
        let mut refused: [Result<(), String>; 3] = [Ok(()), Ok(()), Ok(())];
        let mut r = Reader::new(text);
        r.object(|key, r| {
            match key {
                "id" => reply.id = r.u64()?.unwrap_or(0),
                "status" => status = r.string()?.as_deref().and_then(ReplyStatus::parse),
                "model" => reply.model = r.string()?.unwrap_or_default(),
                "error" => reply.error = r.string()?,
                "vertical" => refused[0] = read_numbers(r, key, &mut reply.vertical)?,
                "horizontal" => refused[1] = read_numbers(r, key, &mut reply.horizontal)?,
                "lines" => refused[2] = read_numbers(r, key, &mut lines)?,
                "info" => {
                    let mut info = BTreeMap::new();
                    r.object(|k, r| {
                        match r.string()? {
                            Some(v) => info.insert(k.to_string(), v),
                            None => info.remove(k),
                        };
                        Ok(())
                    })?;
                    reply.info = info;
                }
                _ => r.skip()?,
            }
            Ok(())
        })
        .and_then(|_| r.finish())
        .map_err(|e| e.to_string())?;
        reply.status = status.ok_or("missing or unknown `status`")?;
        for why in refused {
            why?;
        }
        reply.lines = lines.iter().map(|&l| l as u32).collect();
        Ok(reply)
    }
}

/// Read the number array under `key` into `out`; the inner result says
/// why the value was refused, if it was.
fn read_numbers(
    r: &mut Reader,
    key: &str,
    out: &mut Vec<f64>,
) -> Result<Result<(), String>, JsonError> {
    let is_array = r.peek() == Some(Kind::Arr);
    Ok(if r.numbers(out)? {
        Ok(())
    } else if is_array {
        Err(format!("`{key}`: non-number"))
    } else {
        Err(format!("`{key}` must be an array"))
    })
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

/// The encoding `Reply::to_json` had before it wrote its keys
/// directly: a sorted value tree, serialized by `obskit::json`. Tests
/// use it as the reference encoding of a reply's fields.
#[cfg(test)]
pub(crate) fn tree_json(r: &Reply) -> String {
    use obskit::json::Value;
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

#[cfg(test)]
mod tests {
    use super::*;
    use obskit::json::Value;

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

    /// Hand-picked replies: every status, ids around 2^53, awkward
    /// strings, special floats, one side of the predictions empty, and a
    /// served reply's worth of ops.
    fn sample_replies() -> Vec<Reply> {
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
        replies
    }

    #[test]
    fn reply_json_matches_the_tree_encoding() {
        for r in &sample_replies() {
            assert_eq!(r.to_json(), tree_json(r), "{r:?}");
        }
    }

    /// The range `write_json` reports holds exactly the id and the info
    /// member: outside it, two replies that differ only there agree.
    #[test]
    fn the_id_and_info_range_is_all_two_replies_of_one_answer_differ_in() {
        for r in &sample_replies() {
            let mut other = r.clone();
            other.id = r.id.wrapping_mul(31).wrapping_add(17);
            other.info = BTreeMap::from([("cache".to_string(), "miss".to_string())]);
            let (mut a, mut b) = (String::new(), String::new());
            let (ra, rb) = (r.write_json(&mut a), other.write_json(&mut b));
            assert_eq!(a, r.to_json());
            assert_eq!(&a[..ra.start], &b[..rb.start], "{r:?}");
            assert_eq!(&a[ra.end..], &b[rb.end..], "{r:?}");
            assert_eq!(
                a[ra.start..].split(',').next(),
                Some(json::number(r.id as f64).as_str())
            );
        }
    }

    /// `Reply::from_json` as it was before replies decoded straight into
    /// their fields: a `json::parse` tree, then a copy out of it.
    fn tree_reply(text: &str) -> Result<Reply, String> {
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

    /// `Request::from_json` as it was before requests decoded straight
    /// into their fields.
    fn tree_request(text: &str) -> Result<Request, String> {
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

    /// `Request::to_json` as it was before it wrote its keys directly.
    fn tree_request_json(r: &Request) -> String {
        let mut o = BTreeMap::new();
        o.insert("id".into(), Value::Num(r.id as f64));
        o.insert("kind".into(), Value::Str(r.body.kind().into()));
        if let Some(d) = r.deadline_ms {
            o.insert("deadline_ms".into(), Value::Num(d as f64));
        }
        match &r.body {
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

    /// Everything a decoded reply carries, floats as bits.
    type ReplyBits = (
        u64,
        ReplyStatus,
        String,
        Vec<u64>,
        Vec<u64>,
        Vec<u32>,
        Option<String>,
        BTreeMap<String, String>,
    );

    fn reply_bits(r: Result<Reply, String>) -> Option<ReplyBits> {
        let r = r.ok()?;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        Some((
            r.id,
            r.status,
            r.model,
            bits(&r.vertical),
            bits(&r.horizontal),
            r.lines,
            r.error,
            r.info,
        ))
    }

    fn request_bits(r: Result<Request, String>) -> Option<String> {
        // `{:?}` prints every float so that it reads back to its bits.
        r.ok().map(|r| format!("{r:?}"))
    }

    /// splitmix64: a fixed, seedable stream of 64-bit words.
    fn words(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Random replies over the awkward values: ±0.0, the smallest
    /// subnormal, 1e300, NaN (written as `null`), any bit pattern, and
    /// ids at 0, 2^53 − 1, 2^53 and `u64::MAX`.
    fn random_replies(seed: u64, n: usize) -> Vec<Reply> {
        let mut next = words(seed);
        let specials = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 17.25, 3.0];
        let ids = [0, (1 << 53) - 1, 1 << 53, u64::MAX, 7];
        let statuses = [
            ReplyStatus::Ok,
            ReplyStatus::Degraded,
            ReplyStatus::Overloaded,
            ReplyStatus::DeadlineExceeded,
            ReplyStatus::Error,
        ];
        (0..n)
            .map(|_| {
                let ops = (next() % 9) as usize;
                let mut float = || match next() % 8 {
                    0 => f64::from_bits(next()),
                    1 if next().is_multiple_of(8) => f64::NAN,
                    _ => specials[(next() % specials.len() as u64) as usize],
                };
                let vertical: Vec<f64> = (0..ops).map(|_| float()).collect();
                let horizontal: Vec<f64> = (0..ops).map(|_| float()).collect();
                let mut info = BTreeMap::new();
                if next().is_multiple_of(2) {
                    info.insert("cache".to_string(), "hit".to_string());
                }
                Reply {
                    id: ids[(next() % ids.len() as u64) as usize],
                    status: statuses[(next() % statuses.len() as u64) as usize],
                    model: if next().is_multiple_of(3) {
                        String::new()
                    } else {
                        "gbrt@v2".into()
                    },
                    vertical,
                    horizontal,
                    lines: (0..ops).map(|_| next() as u32).collect(),
                    error: next().is_multiple_of(4).then(|| "why \"not\"".to_string()),
                    info,
                }
            })
            .collect()
    }

    /// Hostile variations of one encoded document: every cut, values
    /// swapped for the wrong type, repeated and unknown keys, deep
    /// nesting, trailing data.
    fn hostile_variants(json: &str) -> Vec<String> {
        let mut out: Vec<String> = (0..json.len())
            .filter(|&i| json.is_char_boundary(i))
            .map(|i| json[..i].to_string())
            .collect();
        let body = &json[1..json.len() - 1];
        let deep = format!("{}1{}", "[".repeat(70), "]".repeat(70));
        let nested_ok = format!("{}1{}", "[".repeat(60), "]".repeat(60));
        let keys = "id status model error vertical horizontal lines info kind name text path \
                    rows deadline_ms degraded junk";
        let values: Vec<&str> = r#"null true 1 -1 1.5 9007199254740992 "ok" "predict" "source"
            "x" [] [1,2] [1,null] [[1],[2.5]] [[1],3] [["a"]] {} {"a":"b","a":1}
            {"cache":"hit"}"#
            .split_whitespace()
            .chain([deep.as_str(), nested_ok.as_str()])
            .collect();
        for key in keys.split_whitespace() {
            for value in &values {
                // Prepended (the document's own value wins), appended (this
                // one wins), and alone.
                out.push(format!("{{\"{key}\":{value},{body}}}"));
                out.push(format!("{{{body},\"{key}\":{value}}}"));
                out.push(format!("{{\"{key}\":{value}}}"));
            }
        }
        out.push(format!("{json} "));
        out.push(format!("{json}{json}"));
        out.push(format!("{json},"));
        out.push(format!("[{json}]"));
        out.push("[".repeat(100_000));
        out.push(String::new());
        out.push("\"status\"".into());
        out
    }

    #[test]
    fn reply_decoder_matches_the_tree_decoder() {
        let mut texts: Vec<String> = Vec::new();
        let replies: Vec<Reply> = sample_replies()
            .into_iter()
            .chain(random_replies(0x5eed_0003, 400))
            .collect();
        for r in &replies {
            texts.push(r.to_json());
        }
        // A real reply, cut and mangled.
        let served = replies.last().unwrap().to_json();
        texts.extend(hostile_variants(&sample_replies()[10].to_json()));
        texts.extend(hostile_variants(&served));
        let mut decoded = 0;
        for text in &texts {
            let (now, then) = (Reply::from_json(text), tree_reply(text));
            assert_eq!(now.as_ref().err(), then.as_ref().err(), "{text:.200}");
            decoded += usize::from(now.is_ok());
            assert_eq!(reply_bits(now), reply_bits(then), "{text:.200}");
        }
        assert!(decoded > texts.len() / 4, "{decoded} of {}", texts.len());
    }

    fn sample_requests() -> Vec<Request> {
        let awkward = "q\"b\\s\n\r\t\u{1}\u{1f} é 日本";
        let mut next = words(0x5eed_0004);
        let mut rows: Vec<Vec<f64>> = vec![vec![], vec![0.0, -0.0, 5e-324, 1e300, 0.1]];
        rows.push((0..40).map(|_| f64::from_bits(next() >> 2)).collect());
        rows.push((0..40).map(|i| f64::from(i) * 1.5).collect());
        let mut reqs = vec![
            Request::predict(0, vec![]),
            Request::predict((1 << 53) - 1, rows.clone()),
            Request::predict(u64::MAX, rows),
        ];
        for (i, body) in [
            RequestBody::Source {
                name: awkward.into(),
                text: format!("int32 f() {{ return 1; }} // {awkward}"),
            },
            RequestBody::Source {
                name: String::new(),
                text: String::new(),
            },
            RequestBody::Swap {
                path: awkward.into(),
            },
            RequestBody::Rollback,
            RequestBody::Status,
            RequestBody::Shutdown,
        ]
        .into_iter()
        .enumerate()
        {
            reqs.push(Request {
                id: 1 << (i * 10),
                deadline_ms: [None, Some(0), Some(250), Some(u64::MAX)][i % 4],
                body,
            });
        }
        reqs
    }

    #[test]
    fn request_json_matches_the_tree_encoding() {
        for r in &sample_requests() {
            assert_eq!(r.to_json(), tree_request_json(r), "{r:?}");
        }
    }

    #[test]
    fn request_decoder_matches_the_tree_decoder() {
        let mut texts: Vec<String> = Vec::new();
        for r in &sample_requests() {
            let json = r.to_json();
            texts.extend(hostile_variants(&json));
            texts.push(json);
        }
        let mut decoded = 0;
        for text in &texts {
            let (now, then) = (Request::from_json(text), tree_request(text));
            assert_eq!(now, then, "{text:.200}");
            decoded += usize::from(now.is_ok());
            assert_eq!(request_bits(now), request_bits(then), "{text:.200}");
        }
        assert!(decoded > texts.len() / 4, "{decoded} of {}", texts.len());
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
