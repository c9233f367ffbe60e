//! Serving-layer building blocks: a deterministic result cache, the
//! retry schedule, and the batch-size cap.
//!
//! The gate-by-gate engine's determinism contract makes simulation
//! results *cacheable*: a seeded run is a pure function of
//! `(circuit, backend, options, seed, repetitions)`, so a service
//! fielding heavy traffic can answer a repeated request from memory with
//! a bit-identical result. [`ResultCache`] is that memo table, keyed by
//! [`CacheKey`] and bounded by FIFO eviction.
//!
//! [`BatchPolicy`] caps how many queued requests a service drains per
//! batch. Below the cap a drain takes a fair share of the eligible queue
//! (`ceil(eligible / drainers)`), so batch composition depends on the
//! queue alone, never on wall-clock feedback.

use crate::results::RunResult;
use bgls_linalg::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Cache key of one deterministic simulation request.
///
/// `circuit` is a structural circuit fingerprint
/// (`bgls_circuit::Circuit::structural_hash`) of the *resolved* circuit;
/// `backend` a fingerprint of the backend name plus any
/// result-affecting options; `seed` the exact seed the run executes
/// under (unseeded requests are not cacheable — their results are not
/// reproducible); `repetitions` the shot count; `deliverable` a
/// fingerprint of what is requested (histogram, or which observable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Structural hash of the resolved circuit.
    pub circuit: u64,
    /// Fingerprint of the backend and result-affecting options.
    pub backend: u64,
    /// The seed the run executes under.
    pub seed: u64,
    /// Requested repetitions.
    pub repetitions: u64,
    /// Fingerprint of the requested deliverable (0 for a plain
    /// histogram; observable hash for an expectation).
    pub deliverable: u64,
}

/// Hit/miss counters of a [`ResultCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded FIFO memo table for deterministic simulation results.
///
/// Values are shared via `Arc`, so serving a hit never copies the
/// histogram payload. Capacity 0 disables the cache entirely (every
/// lookup misses, nothing is stored) — the switch the throughput bench
/// uses to measure the cache's effect.
#[derive(Clone, Debug)]
pub struct ResultCache<V = RunResult> {
    map: FxHashMap<CacheKey, Arc<V>>,
    order: VecDeque<CacheKey>,
    capacity: usize,
    stats: CacheStats,
}

impl<V> ResultCache<V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, counting the hit or miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<V>> {
        match self.map.get(key) {
            Some(v) => {
                self.stats.hits += 1;
                Some(Arc::clone(v))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key`, evicting the oldest entries beyond
    /// capacity. Re-inserting an existing key replaces the value without
    /// refreshing its eviction position (results are deterministic, so
    /// the replacement is bit-identical anyway).
    pub fn insert(&mut self, key: CacheKey, value: Arc<V>) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                    self.stats.evictions += 1;
                } else {
                    break;
                }
            }
        }
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Retry budget and exponential-backoff schedule for failed jobs.
///
/// The schedule is a pure function of the attempt index, so a service
/// replaying the same workload against a [`crate::ManualClock`] produces
/// the same re-admission times bit-for-bit. `max_retries` bounds the
/// retries *per degradation rung*: a job that exhausts the budget on one
/// plan falls down the degradation ladder with a fresh budget rather
/// than failing outright.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per degradation rung (0 disables retry — first
    /// failure degrades or fails).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Multiplier applied per further retry (clamped to >= 1).
    pub backoff_multiplier: f64,
    /// Ceiling on any single backoff window, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 1,
            backoff_multiplier: 2.0,
            max_backoff_ms: 1_000,
        }
    }
}

impl RetryPolicy {
    /// Whether a job that has already consumed `retries_on_rung` retries
    /// on its current plan may retry again.
    pub fn should_retry(&self, retries_on_rung: u32) -> bool {
        retries_on_rung < self.max_retries
    }

    /// The backoff window before retry number `retry` (0-based), in
    /// milliseconds: `base * multiplier^retry`, capped at
    /// `max_backoff_ms`.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let mult = self.backoff_multiplier.max(1.0);
        let exp = mult.powi(retry.min(63) as i32);
        let window = (self.base_backoff_ms as f64 * exp).min(self.max_backoff_ms as f64);
        window as u64
    }
}

/// The batch-size cap of a batch service. A drain takes
/// `ceil(eligible / drainers)` queued jobs, clamped to
/// `[1, max_batch]`.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Largest batch a drain takes.
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CacheKey {
        CacheKey {
            circuit: i,
            backend: 1,
            seed: 2,
            repetitions: 100,
            deliverable: 0,
        }
    }

    #[test]
    fn cache_hits_return_the_stored_value() {
        let mut cache: ResultCache<u64> = ResultCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Arc::new(42));
        assert_eq!(*cache.get(&key(1)).unwrap(), 42);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_distinguishes_every_key_component() {
        let base = key(1);
        let mut variants = vec![base];
        variants.push(CacheKey { circuit: 9, ..base });
        variants.push(CacheKey { backend: 9, ..base });
        variants.push(CacheKey { seed: 9, ..base });
        variants.push(CacheKey {
            repetitions: 9,
            ..base
        });
        variants.push(CacheKey {
            deliverable: 9,
            ..base
        });
        let mut cache: ResultCache<usize> = ResultCache::new(16);
        for (i, k) in variants.iter().enumerate() {
            cache.insert(*k, Arc::new(i));
        }
        for (i, k) in variants.iter().enumerate() {
            assert_eq!(*cache.get(k).unwrap(), i);
        }
    }

    #[test]
    fn cache_evicts_fifo_beyond_capacity() {
        let mut cache: ResultCache<u64> = ResultCache::new(2);
        cache.insert(key(1), Arc::new(1));
        cache.insert(key(2), Arc::new(2));
        cache.insert(key(3), Arc::new(3));
        assert!(cache.get(&key(1)).is_none(), "oldest entry evicted");
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_follows_insertion_order_not_access_order() {
        // The cache is FIFO by design (deterministic results make
        // recency worthless for correctness): a recent hit must not
        // rescue an entry from eviction.
        let mut cache: ResultCache<u64> = ResultCache::new(2);
        cache.insert(key(1), Arc::new(1));
        cache.insert(key(2), Arc::new(2));
        assert!(cache.get(&key(1)).is_some(), "touch the oldest entry");
        cache.insert(key(3), Arc::new(3));
        assert!(
            cache.get(&key(1)).is_none(),
            "FIFO evicts the oldest insertion even if it was just read"
        );
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn reinsertion_keeps_the_original_eviction_position() {
        let mut cache: ResultCache<u64> = ResultCache::new(2);
        cache.insert(key(1), Arc::new(10));
        cache.insert(key(2), Arc::new(20));
        // replace key(1)'s value: position in the eviction queue must
        // not refresh, and no phantom order entry may accumulate
        cache.insert(key(1), Arc::new(11));
        assert_eq!(*cache.get(&key(1)).unwrap(), 11, "value replaced");
        cache.insert(key(3), Arc::new(30));
        assert!(
            cache.get(&key(1)).is_none(),
            "reinserted key evicts at its original position"
        );
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache: ResultCache<u64> = ResultCache::new(0);
        cache.insert(key(1), Arc::new(1));
        assert!(cache.is_empty());
        assert!(cache.get(&key(1)).is_none());
    }

    #[test]
    fn retry_backoff_schedule_is_exponential_and_capped() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 2,
            backoff_multiplier: 2.0,
            max_backoff_ms: 10,
        };
        assert_eq!(policy.backoff_ms(0), 2);
        assert_eq!(policy.backoff_ms(1), 4);
        assert_eq!(policy.backoff_ms(2), 8);
        assert_eq!(policy.backoff_ms(3), 10, "capped at max_backoff_ms");
        assert_eq!(policy.backoff_ms(40), 10);
        assert!(policy.should_retry(0));
        assert!(policy.should_retry(2));
        assert!(!policy.should_retry(3));
        // a sub-unit multiplier must not shrink the window
        let decay = RetryPolicy {
            backoff_multiplier: 0.5,
            base_backoff_ms: 4,
            ..policy
        };
        assert_eq!(decay.backoff_ms(5), 4);
    }
}
