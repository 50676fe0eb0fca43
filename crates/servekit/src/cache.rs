//! Digest-keyed in-memory reply cache for repeated `source` requests.
//!
//! Answering a `source` request costs MiniHLS compile, synthesis,
//! extraction of the 302-wide feature rows, then two GBRT predictions
//! over every row; HLS iteration loops resubmit the same source text many
//! times. The cache maps a **source digest** (computed by the configured
//! key function — the binary wires `congestion_core::source_digest` in)
//! to the answer a miss computed: status, answering model, the V/H
//! predictions and the line map. A hit copies that answer into its reply
//! and neither extracts nor predicts. An entry holds 20 bytes per op (two
//! `f64` and a `u32` line), not the op's 302 feature values.
//!
//! **Why a stored answer is exact.** An answer depends on the source
//! and the active model only. Every insert carries the cache
//! *generation* read before its extraction began. Every change of active
//! model (hot-swap commit, rollback, mid-request demotion) bumps the
//! generation and clears the map, and an insert carrying an older
//! generation — an extraction or prediction that straddled the change —
//! is dropped on the floor. So an entry only ever holds the answer of the
//! model that is active now, bit for bit what predicting again would
//! return. The proptest suite in `tests/serve_conformance.rs` drives
//! arbitrary `source`/`swap` interleavings against these rules and checks
//! every reply's bits against the active model.
//!
//! **Determinism.** All decisions (hit/miss, LRU victim, generation
//! check) happen under one lock, so for a fixed operation order the cache
//! contents and the `serve.cache.*` counters are a pure function of that
//! order. The counters satisfy `hits + misses == lookups` by
//! construction: every lookup increments exactly one of the two.

use crate::proto::{Reply, ReplyStatus};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The answer a `source` miss computed, as its reply carries it. The
/// server stores only `Ok` and `Degraded` answers.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedReply {
    /// `Ok`, or `Degraded` when no model was active.
    pub status: ReplyStatus,
    /// Model that answered (`name@vN`, or `analytic`).
    pub model: String,
    /// Per-op vertical congestion predictions.
    pub vertical: Vec<f64>,
    /// Per-op horizontal congestion predictions.
    pub horizontal: Vec<f64>,
    /// Source line of each op.
    pub lines: Vec<u32>,
}

impl CachedReply {
    /// A reply to request `id` carrying this answer.
    pub fn reply(&self, id: u64) -> Reply {
        Reply {
            id,
            status: self.status,
            model: self.model.clone(),
            vertical: self.vertical.clone(),
            horizontal: self.horizontal.clone(),
            lines: self.lines.clone(),
            ..Default::default()
        }
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
    /// Entries dropped by generation bumps (swap/rollback/demote), plus
    /// stale inserts from misses that straddled one.
    pub invalidations: u64,
}

struct CacheInner {
    map: HashMap<u64, Arc<CachedReply>>,
    lru: VecDeque<u64>, // front = coldest
    generation: u64,
    stats: CacheStats,
}

/// Bounded LRU reply cache with generation-checked inserts.
/// Capacity 0 disables the cache (every call is a no-op miss-free path).
pub struct ReplyCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl ReplyCache {
    /// A cache holding at most `capacity` designs; 0 disables caching.
    pub fn new(capacity: usize) -> ReplyCache {
        ReplyCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                lru: VecDeque::new(),
                generation: 0,
                stats: CacheStats::default(),
            }),
            capacity,
        }
    }

    /// True when capacity is 0 and the cache never stores anything.
    pub fn disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Current generation; read it before extracting and pass it to
    /// [`Self::insert`], so a miss that straddles a model change cannot
    /// poison the cache with the old model's answer.
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().generation
    }

    /// Probe for `key`. Counts exactly one hit or one miss per call.
    pub fn lookup(&self, key: u64) -> Option<Arc<CachedReply>> {
        if self.disabled() {
            return None;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.stats.lookups += 1;
        match inner.map.get(&key).cloned() {
            Some(v) => {
                inner.stats.hits += 1;
                // Refresh LRU position: move key to the hot end.
                if let Some(pos) = inner.lru.iter().position(|k| *k == key) {
                    inner.lru.remove(pos);
                }
                inner.lru.push_back(key);
                Some(v)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key` if `generation` is still current —
    /// a stale generation means the active model changed while the miss
    /// ran, so its answer may come from a model no longer active.
    pub fn insert(&self, key: u64, generation: u64, value: Arc<CachedReply>) {
        if self.disabled() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if generation != inner.generation {
            inner.stats.invalidations += 1; // stale insert dropped
            return;
        }
        if inner.map.insert(key, value).is_none() {
            inner.lru.push_back(key);
            while inner.map.len() > self.capacity {
                if let Some(cold) = inner.lru.pop_front() {
                    inner.map.remove(&cold);
                    inner.stats.evictions += 1;
                } else {
                    break;
                }
            }
        }
    }

    /// Bump the generation and drop every entry. Called on swap commit,
    /// rollback, and mid-request demotion.
    pub fn invalidate(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.generation += 1;
        let dropped = inner.map.len() as u64;
        inner.stats.invalidations += dropped;
        inner.map.clear();
        inner.lru.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(tag: f64) -> Arc<CachedReply> {
        Arc::new(CachedReply {
            status: ReplyStatus::Ok,
            model: format!("gbrt@v{tag}"),
            vertical: vec![tag, tag + 0.5],
            horizontal: vec![tag + 1.0, tag + 1.5],
            lines: vec![tag as u32, tag as u32 + 1],
        })
    }

    #[test]
    fn hit_miss_accounting_balances() {
        let c = ReplyCache::new(4);
        assert!(c.lookup(1).is_none());
        c.insert(1, c.generation(), answer(1.0));
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
        let a = answer(3.0);
        let r = a.reply(42);
        assert_eq!(r.id, 42);
        assert_eq!(r.status, a.status);
        assert_eq!(r.model, a.model);
        assert_eq!(r.vertical, a.vertical);
        assert_eq!(r.horizontal, a.horizontal);
        assert_eq!(r.lines, a.lines);
        assert!(r.info.is_empty() && r.error.is_none());
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let c = ReplyCache::new(2);
        let g = c.generation();
        c.insert(1, g, answer(1.0));
        c.insert(2, g, answer(2.0));
        assert!(c.lookup(1).is_some()); // 1 is now hot, 2 is coldest
        c.insert(3, g, answer(3.0));
        assert!(c.lookup(2).is_none(), "coldest entry evicted");
        assert_eq!(c.lookup(1).as_deref(), Some(&*answer(1.0)));
        assert_eq!(c.lookup(3).as_deref(), Some(&*answer(3.0)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_replaces_the_answer_without_evicting() {
        let c = ReplyCache::new(2);
        let g = c.generation();
        c.insert(1, g, answer(1.0));
        c.insert(2, g, answer(2.0));
        c.insert(1, g, answer(5.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.lookup(1).as_deref(), Some(&*answer(5.0)));
    }

    #[test]
    fn invalidate_drops_everything_and_bumps_generation() {
        let c = ReplyCache::new(4);
        let g0 = c.generation();
        c.insert(1, g0, answer(1.0));
        c.insert(2, g0, answer(2.0));
        c.invalidate();
        assert_eq!(c.len(), 0);
        assert!(c.lookup(1).is_none());
        assert_eq!(c.generation(), g0 + 1);
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn stale_insert_is_dropped() {
        let c = ReplyCache::new(4);
        let g0 = c.generation();
        c.invalidate(); // the model changes while the miss is in flight
        c.insert(9, g0, answer(9.0));
        assert!(
            c.lookup(9).is_none(),
            "the old model's answer is not served"
        );
        assert_eq!(c.stats().invalidations, 1);
        c.insert(9, c.generation(), answer(10.0));
        assert_eq!(c.lookup(9).as_deref(), Some(&*answer(10.0)));
    }

    #[test]
    fn capacity_zero_disables() {
        let c = ReplyCache::new(0);
        c.insert(1, c.generation(), answer(1.0));
        assert!(c.lookup(1).is_none());
        let s = c.stats();
        assert_eq!(s.lookups, 0, "disabled cache counts nothing");
    }
}
