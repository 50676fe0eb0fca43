//! Digest-keyed in-memory reply cache for repeated `source` requests.
//!
//! Answering a `source` request costs MiniHLS compile, synthesis,
//! extraction of the 302-wide feature rows, then two GBRT predictions
//! over every row; HLS iteration loops resubmit the same source text many
//! times. The cache maps a **source digest** (computed by the configured
//! key function — the binary wires `congestion_core::source_digest` in)
//! to the answer a miss computed: status, answering model, the V/H
//! predictions and the line map, with its reply's text. A hit is answered
//! from the entry and neither extracts nor predicts; over a socket its
//! frame is that text around the request's id, so it formats no number
//! but the id. An entry holds about 65 bytes per op (20 for two `f64` and
//! a `u32` line, about 45 for their text), not the op's 302 feature
//! values.
//!
//! **Why a stored answer is exact.** An answer depends on the source
//! and the active model only. The cache lives in the server's books, under
//! the one lock that also guards the model registry (`server.rs`), and the
//! registry's generation is the model epoch: a miss's lookup reads it,
//! and its insert is dropped when the epoch moved in between — an
//! extraction or prediction that straddled a hot-swap commit, rollback or
//! mid-request demotion. Each of those changes clears the cache in the
//! critical section that changes the model. So an entry only ever holds
//! the answer of the model that is active now, bit for bit what predicting
//! again would return. The proptest suite in `tests/serve_conformance.rs`
//! drives arbitrary `source`/`swap` interleavings against these rules and
//! checks every reply's bits against the active model.
//!
//! **Determinism.** The cache takes `&mut self` and has no lock of its
//! own, so for a fixed operation order its contents and the
//! `serve.cache.*` counters are a pure function of that order. The
//! counters satisfy `hits + misses == lookups` by construction: every
//! lookup increments exactly one of the two.

use crate::proto::{Reply, ReplyStatus};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// The answer a `source` miss computed, with its reply's text. The
/// server stores only `Ok` and `Degraded` answers.
///
/// Two replies carrying one answer differ only in their `id` and their
/// `info`, which sit next to each other among the reply's sorted keys
/// (`degraded, error, horizontal, id, info, lines, model, status,
/// vertical`). So the entry keeps the text before the `id` value and the
/// text after the `info` member, cut from the miss's one encoding of its
/// reply, and `write_frame` writes any later reply of the answer
/// around a new id without formatting its predictions again.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedReply {
    /// The answer's fields, with id 0 and no `info`.
    answer: Reply,
    /// The reply's text up to its `id` value:
    /// `{"degraded":…,"horizontal":[…],"id":`.
    head: String,
    /// The reply's text after its `info` member:
    /// `,"lines":[…],"model":…,"status":…,"vertical":[…]}`.
    tail: String,
}

impl CachedReply {
    /// Keep the answer `reply` carries, encoding `reply` once and
    /// cutting the text around its id and its `info`.
    pub fn new(reply: Reply) -> CachedReply {
        let mut text = String::with_capacity(
            96 + 20 * (reply.vertical.len() + reply.horizontal.len()) + 8 * reply.lines.len(),
        );
        let cut = reply.write_json(&mut text);
        let tail = text[cut.end..].to_string();
        text.truncate(cut.start);
        text.shrink_to_fit();
        CachedReply {
            answer: Reply {
                id: 0,
                info: Default::default(),
                ..reply
            },
            head: text,
            tail,
        }
    }

    /// `Ok`, or `Degraded` when no model was active.
    pub(crate) fn status(&self) -> ReplyStatus {
        self.answer.status
    }

    /// A reply to request `id` carrying this answer.
    pub fn reply(&self, id: u64) -> Reply {
        Reply {
            id,
            ..self.answer.clone()
        }
    }

    /// [`Self::reply`] with its `info` telling whether it was a cache
    /// `hit`, or the `miss` that computed the entry.
    pub(crate) fn tagged_reply(&self, id: u64, hit: bool) -> Reply {
        let mut r = self.reply(id);
        r.info.insert("cache".into(), cache_tag(hit).into());
        r
    }

    /// Append the frame of [`Self::tagged_reply`] to `out`: its 4-byte
    /// little-endian length, then its JSON. Only the id is formatted; the
    /// rest is the stored text, so the bytes are those of encoding the
    /// reply.
    pub(crate) fn write_frame(&self, id: u64, hit: bool, out: &mut Vec<u8>) {
        let mut id_text = String::new();
        obskit::json::write_number(&mut id_text, id as f64);
        let tag = cache_tag(hit);
        let parts = [
            self.head.as_str(),
            &id_text,
            ",\"info\":{\"cache\":\"",
            tag,
            "\"}",
            &self.tail,
        ];
        let len: usize = parts.iter().map(|p| p.len()).sum();
        out.reserve(4 + len);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        for part in parts {
            out.extend_from_slice(part.as_bytes());
        }
    }
}

/// The `"cache"` info value of a reply from the cache.
fn cache_tag(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

/// `serve.cache.*` counter snapshot. `hits + misses == lookups` always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache probes (disabled caches probe nothing).
    pub lookups: u64,
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to extraction and prediction.
    pub misses: u64,
    /// Entries dropped to stay within capacity (LRU victim).
    pub evictions: u64,
    /// Entries dropped by model changes (swap/rollback/demote), plus
    /// stale inserts from misses that straddled one.
    pub invalidations: u64,
}

/// Bounded LRU reply cache. Capacity 0 disables the cache (every call is
/// a no-op miss-free path).
pub struct ReplyCache {
    map: HashMap<u64, Arc<CachedReply>>,
    lru: VecDeque<u64>, // front = coldest
    stats: CacheStats,
    capacity: usize,
}

impl ReplyCache {
    /// A cache holding at most `capacity` designs; 0 disables caching.
    pub fn new(capacity: usize) -> ReplyCache {
        ReplyCache {
            map: HashMap::new(),
            lru: VecDeque::new(),
            stats: CacheStats::default(),
            capacity,
        }
    }

    /// True when capacity is 0 and the cache never stores anything.
    pub fn disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Probe for `key`. Counts exactly one hit or one miss per call.
    pub fn lookup(&mut self, key: u64) -> Option<Arc<CachedReply>> {
        if self.disabled() {
            return None;
        }
        self.stats.lookups += 1;
        match self.map.get(&key).cloned() {
            Some(v) => {
                self.stats.hits += 1;
                // Refresh LRU position: move key to the hot end.
                if let Some(pos) = self.lru.iter().position(|k| *k == key) {
                    self.lru.remove(pos);
                }
                self.lru.push_back(key);
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key` when `fresh`. A stale answer — one whose
    /// miss straddled a model change, so it may come from a model no
    /// longer active — is dropped and counted as an invalidation.
    pub fn insert(&mut self, key: u64, value: Arc<CachedReply>, fresh: bool) {
        if self.disabled() {
            return;
        }
        if !fresh {
            self.stats.invalidations += 1;
            return;
        }
        if self.map.insert(key, value).is_none() {
            self.lru.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(cold) = self.lru.pop_front() {
                    self.map.remove(&cold);
                    self.stats.evictions += 1;
                } else {
                    break;
                }
            }
        }
    }

    /// Drop every entry. Called on swap commit, rollback, and mid-request
    /// demotion, in the critical section that changes the model.
    pub fn invalidate(&mut self) {
        self.stats.invalidations += self.map.len() as u64;
        self.map.clear();
        self.lru.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer_reply(tag: f64) -> Reply {
        Reply {
            status: ReplyStatus::Ok,
            model: format!("gbrt@v{tag}"),
            vertical: vec![tag, tag + 0.5],
            horizontal: vec![tag + 1.0, tag + 1.5],
            lines: vec![tag as u32, tag as u32 + 1],
            ..Default::default()
        }
    }

    fn answer(tag: f64) -> Arc<CachedReply> {
        Arc::new(CachedReply::new(answer_reply(tag)))
    }

    #[test]
    fn hit_miss_accounting_balances() {
        let mut c = ReplyCache::new(4);
        assert!(c.lookup(1).is_none());
        c.insert(1, answer(1.0), true);
        assert_eq!(c.lookup(1).as_deref(), Some(&*answer(1.0)));
        assert!(c.lookup(2).is_none());
        let s = c.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits + s.misses, s.lookups);
    }

    #[test]
    fn a_reply_carries_the_answer() {
        let want = answer_reply(3.0);
        // The entry keeps the answer, not the id or info it came with.
        let a = CachedReply::new(Reply {
            id: 9,
            info: [("cache".to_string(), "miss".to_string())].into(),
            ..want.clone()
        });
        let r = a.reply(42);
        assert_eq!(r.id, 42);
        assert_eq!(r.status, want.status);
        assert_eq!(r.model, want.model);
        assert_eq!(r.vertical, want.vertical);
        assert_eq!(r.horizontal, want.horizontal);
        assert_eq!(r.lines, want.lines);
        assert!(r.info.is_empty() && r.error.is_none());
        assert_eq!(a.tagged_reply(5, true).info["cache"], "hit");
        assert_eq!(a.tagged_reply(5, false).info["cache"], "miss");
    }

    /// A frame written from the stored text is the frame of the reply's
    /// encoding, with the reference encoded from the reply's fields.
    #[test]
    fn frames_from_stored_text_are_the_encoded_replies() {
        let plain = answer_reply(2.0);
        let answers = [
            plain.clone(),
            Reply {
                status: ReplyStatus::Degraded,
                model: "analytic".into(),
                vertical: vec![-0.0, 5e-324, 1e300, f64::NAN, 0.1],
                horizontal: vec![0.0, -5e-324, -1e300, f64::INFINITY, 1e16],
                lines: vec![0, 1, u32::MAX, 7, 7],
                ..Default::default()
            },
            // No ops: no prediction or line keys at all.
            Reply {
                model: "gbrt@v1".into(),
                ..Default::default()
            },
            // One side empty: both prediction keys are written.
            Reply {
                horizontal: vec![1.5],
                ..plain
            },
        ];
        for answer in answers {
            let entry = CachedReply::new(answer.clone());
            for id in [0, 1, 42, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
                for hit in [true, false] {
                    let mut frame = Vec::new();
                    entry.write_frame(id, hit, &mut frame);
                    let reply = entry.tagged_reply(id, hit);
                    let json = crate::proto::tree_json(&reply);
                    assert_eq!(frame[..4], (json.len() as u32).to_le_bytes());
                    assert_eq!(std::str::from_utf8(&frame[4..]), Ok(json.as_str()));
                    assert_eq!(reply.to_json(), json);
                }
            }
        }
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let mut c = ReplyCache::new(2);
        c.insert(1, answer(1.0), true);
        c.insert(2, answer(2.0), true);
        assert!(c.lookup(1).is_some()); // 1 is now hot, 2 is coldest
        c.insert(3, answer(3.0), true);
        assert!(c.lookup(2).is_none(), "coldest entry evicted");
        assert_eq!(c.lookup(1).as_deref(), Some(&*answer(1.0)));
        assert_eq!(c.lookup(3).as_deref(), Some(&*answer(3.0)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_replaces_the_answer_without_evicting() {
        let mut c = ReplyCache::new(2);
        c.insert(1, answer(1.0), true);
        c.insert(2, answer(2.0), true);
        c.insert(1, answer(5.0), true);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.lookup(1).as_deref(), Some(&*answer(5.0)));
    }

    #[test]
    fn invalidate_drops_everything() {
        let mut c = ReplyCache::new(4);
        c.insert(1, answer(1.0), true);
        c.insert(2, answer(2.0), true);
        c.invalidate();
        assert_eq!(c.len(), 0);
        assert!(c.lookup(1).is_none());
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn stale_insert_is_dropped() {
        let mut c = ReplyCache::new(4);
        // The model changed while the miss was in flight.
        c.insert(9, answer(9.0), false);
        assert!(
            c.lookup(9).is_none(),
            "the old model's answer is not served"
        );
        assert_eq!(c.stats().invalidations, 1);
        c.insert(9, answer(10.0), true);
        assert_eq!(c.lookup(9).as_deref(), Some(&*answer(10.0)));
    }

    #[test]
    fn capacity_zero_disables() {
        let mut c = ReplyCache::new(0);
        c.insert(1, answer(1.0), true);
        assert!(c.lookup(1).is_none());
        let s = c.stats();
        assert_eq!(s.lookups, 0, "disabled cache counts nothing");
    }
}
