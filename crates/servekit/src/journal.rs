//! The append-only serve journal (`servekit.journal.v1`) — the crash-only
//! persistence layer.
//!
//! Every state change the daemon must survive (start, swap commit/reject,
//! rollback, periodic in-flight accounting, shutdown) is one sequenced
//! JSON line, appended before the change takes effect elsewhere. Restart —
//! clean or after SIGKILL — replays the journal through the torn-write-
//! tolerant reader ([`obskit::read_jsonl`]): the last committed model and
//! the last progress counters are recovered, the sequence counter resumes
//! strictly after the highest seq on disk (so a crash can never produce a
//! duplicate seq), and the admitted−completed−shed gap at the last
//! progress record is surfaced as `lost_in_flight`. A torn trailing line
//! (the SIGKILL signature) is counted, not fatal — first boot and
//! post-crash boot share one code path.

use obskit::json::{self, Value};
use obskit::read_jsonl;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The journal line schema identifier.
pub const JOURNAL_SCHEMA: &str = "servekit.journal.v1";

/// One journaled event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// Daemon came up with `model` active (`analytic` when none).
    ServeStart {
        /// Active model display name.
        model: String,
    },
    /// A hot-swap passed the validation gate and committed.
    SwapCommit {
        /// New active model display name.
        model: String,
        /// Golden-batch vertical MAE at the gate (0 when no golden batch).
        mae_v: f64,
        /// Golden-batch horizontal MAE at the gate.
        mae_h: f64,
    },
    /// A hot-swap was rejected by the validation gate.
    SwapReject {
        /// Candidate identity (path or display name).
        model: String,
        /// Why the gate refused it.
        reason: String,
    },
    /// The registry fell back to `model` (last-good, or `analytic`).
    Rollback {
        /// Model now active.
        model: String,
    },
    /// Periodic in-flight accounting (cumulative counters).
    Progress {
        /// Requests admitted so far.
        admitted: u64,
        /// Requests answered so far (any status except shed).
        completed: u64,
        /// Requests shed at admission so far.
        shed: u64,
        /// Requests answered degraded so far.
        degraded: u64,
    },
    /// Clean shutdown; absence of this as the last event marks a crash.
    Shutdown,
    /// Appended on restart after recovery, recording what was found.
    Recover {
        /// Requests that were in flight when the previous process died.
        lost_in_flight: u64,
        /// Torn/corrupt journal lines skipped during recovery.
        torn_lines: u64,
    },
}

impl JournalEvent {
    /// Wire name of the event.
    pub fn name(&self) -> &'static str {
        match self {
            JournalEvent::ServeStart { .. } => "serve.start",
            JournalEvent::SwapCommit { .. } => "swap.commit",
            JournalEvent::SwapReject { .. } => "swap.reject",
            JournalEvent::Rollback { .. } => "rollback",
            JournalEvent::Progress { .. } => "progress",
            JournalEvent::Shutdown => "shutdown",
            JournalEvent::Recover { .. } => "recover",
        }
    }

    fn to_line(&self, seq: u64) -> String {
        let mut o = BTreeMap::new();
        o.insert("schema".into(), Value::Str(JOURNAL_SCHEMA.into()));
        o.insert("seq".into(), Value::Num(seq as f64));
        o.insert("event".into(), Value::Str(self.name().into()));
        match self {
            JournalEvent::ServeStart { model } | JournalEvent::Rollback { model } => {
                o.insert("model".into(), Value::Str(model.clone()));
            }
            JournalEvent::SwapCommit {
                model,
                mae_v,
                mae_h,
            } => {
                o.insert("model".into(), Value::Str(model.clone()));
                o.insert("mae_v".into(), Value::Num(*mae_v));
                o.insert("mae_h".into(), Value::Num(*mae_h));
            }
            JournalEvent::SwapReject { model, reason } => {
                o.insert("model".into(), Value::Str(model.clone()));
                o.insert("reason".into(), Value::Str(reason.clone()));
            }
            JournalEvent::Progress {
                admitted,
                completed,
                shed,
                degraded,
            } => {
                o.insert("admitted".into(), Value::Num(*admitted as f64));
                o.insert("completed".into(), Value::Num(*completed as f64));
                o.insert("shed".into(), Value::Num(*shed as f64));
                o.insert("degraded".into(), Value::Num(*degraded as f64));
            }
            JournalEvent::Shutdown => {}
            JournalEvent::Recover {
                lost_in_flight,
                torn_lines,
            } => {
                o.insert("lost_in_flight".into(), Value::Num(*lost_in_flight as f64));
                o.insert("torn_lines".into(), Value::Num(*torn_lines as f64));
            }
        }
        Value::Obj(o).to_json()
    }
}

/// What replaying an existing journal recovered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveredState {
    /// Display name of the last committed model (start / swap / rollback),
    /// if any event named one.
    pub last_model: Option<String>,
    /// Cumulative counters at the last progress record.
    pub admitted: u64,
    /// See `admitted`.
    pub completed: u64,
    /// See `admitted`.
    pub shed: u64,
    /// See `admitted`.
    pub degraded: u64,
    /// True when the last event was a clean `shutdown`.
    pub clean_shutdown: bool,
    /// `admitted − completed − shed` at the last progress record: requests
    /// the dead process had accepted but never answered.
    pub lost_in_flight: u64,
    /// Torn/corrupt lines skipped by the tolerant reader.
    pub torn_lines: u64,
    /// Highest sequence number found on disk (0 for a fresh journal).
    pub max_seq: u64,
    /// Complete records found.
    pub records: u64,
}

/// An open journal: appends sequenced lines, never rewrites.
pub struct Journal {
    path: PathBuf,
    next_seq: u64,
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying any existing
    /// content first. The returned sequence counter resumes strictly after
    /// the highest on-disk seq, so records appended after a crash can
    /// never duplicate a seq already written.
    ///
    /// # Errors
    /// Any I/O error other than the file not existing.
    pub fn open(path: &Path) -> std::io::Result<(Journal, RecoveredState)> {
        let read = read_jsonl(path)?;
        let mut state = RecoveredState {
            torn_lines: read.skipped as u64,
            records: read.lines.len() as u64,
            ..Default::default()
        };
        // `read_jsonl` keeps only lines that parse as JSON objects.
        for doc in read.lines.iter().filter_map(|line| json::parse(line).ok()) {
            let seq = doc.get("seq").and_then(Value::as_u64).unwrap_or(0);
            state.max_seq = state.max_seq.max(seq);
            let event = doc.get("event").and_then(Value::as_str).unwrap_or("");
            state.clean_shutdown = event == "shutdown";
            match event {
                "serve.start" | "swap.commit" | "rollback" => {
                    if let Some(m) = doc.get("model").and_then(Value::as_str) {
                        state.last_model = Some(m.to_string());
                    }
                }
                "progress" => {
                    let n = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
                    state.admitted = n("admitted");
                    state.completed = n("completed");
                    state.shed = n("shed");
                    state.degraded = n("degraded");
                }
                _ => {}
            }
        }
        state.lost_in_flight = state
            .admitted
            .saturating_sub(state.completed)
            .saturating_sub(state.shed);
        if state.clean_shutdown {
            state.lost_in_flight = 0;
        }
        Ok((
            Journal {
                path: path.to_path_buf(),
                next_seq: state.max_seq + 1,
            },
            state,
        ))
    }

    /// Journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event; returns the sequence number it was written with.
    ///
    /// # Errors
    /// Any I/O error opening or writing the file.
    pub fn append(&mut self, event: &JournalEvent) -> std::io::Result<u64> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let seq = self.next_seq;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(f, "{}", event.to_line(seq))?;
        self.next_seq = seq + 1;
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("servekit-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn fresh_journal_starts_at_seq_one() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (mut j, state) = Journal::open(&path).unwrap();
        assert_eq!(state, RecoveredState::default());
        assert_eq!(
            j.append(&JournalEvent::ServeStart {
                model: "gbrt@v1".into()
            })
            .unwrap(),
            1
        );
        assert_eq!(j.append(&JournalEvent::Shutdown).unwrap(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_recovers_model_counts_and_resumes_seq() {
        let path = tmp("replay");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&JournalEvent::ServeStart {
                model: "gbrt@v1".into(),
            })
            .unwrap();
            j.append(&JournalEvent::SwapCommit {
                model: "gbrt@v2".into(),
                mae_v: 1.25,
                mae_h: 1.5,
            })
            .unwrap();
            j.append(&JournalEvent::SwapReject {
                model: "corrupt.json".into(),
                reason: "cycle risk".into(),
            })
            .unwrap();
            j.append(&JournalEvent::Progress {
                admitted: 10,
                completed: 6,
                shed: 1,
                degraded: 2,
            })
            .unwrap();
            // No shutdown record: the process "died" here.
        }
        let (mut j, state) = Journal::open(&path).unwrap();
        assert_eq!(state.last_model.as_deref(), Some("gbrt@v2"));
        assert!(!state.clean_shutdown);
        assert_eq!(state.lost_in_flight, 3, "10 admitted - 6 done - 1 shed");
        assert_eq!(state.max_seq, 4);
        assert_eq!(state.torn_lines, 0);
        // Seqs strictly continue: no duplicates after a crash.
        let seq = j
            .append(&JournalEvent::Recover {
                lost_in_flight: state.lost_in_flight,
                torn_lines: state.torn_lines,
            })
            .unwrap();
        assert_eq!(seq, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_survived() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&JournalEvent::ServeStart {
                model: "gbrt@v7".into(),
            })
            .unwrap();
        }
        // SIGKILL mid-append: half a swap.commit line, no newline.
        let torn = JournalEvent::SwapCommit {
            model: "gbrt@v8".into(),
            mae_v: 0.0,
            mae_h: 0.0,
        }
        .to_line(2);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{}", &torn[..torn.len() / 2]).unwrap();
        drop(f);
        let (_, state) = Journal::open(&path).unwrap();
        assert_eq!(state.torn_lines, 1);
        assert_eq!(
            state.last_model.as_deref(),
            Some("gbrt@v7"),
            "the torn commit never took effect"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_shutdown_zeroes_lost_in_flight() {
        let path = tmp("clean");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&JournalEvent::Progress {
                admitted: 5,
                completed: 3,
                shed: 0,
                degraded: 0,
            })
            .unwrap();
            j.append(&JournalEvent::Shutdown).unwrap();
        }
        let (_, state) = Journal::open(&path).unwrap();
        assert!(state.clean_shutdown);
        assert_eq!(state.lost_in_flight, 0);
        std::fs::remove_file(&path).ok();
    }
}
