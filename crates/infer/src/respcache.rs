//! Exact-match LRU response cache keyed by `(model_hash, clip hash)`.
//!
//! Serving is deterministic — the whole test battery pins logits
//! bitwise — so a repeated clip under the same model version can be
//! answered from memory with *bitwise-identical* logits. The key
//! includes the model hash, which makes hot-swap correctness automatic:
//! a swap changes the serving hash and every cached entry for the old
//! model simply stops matching (entries age out by LRU rather than
//! needing an explicit flush).
//!
//! Eviction is lazy-LRU: a `VecDeque` records touches, and stale queue
//! entries (whose tick no longer matches the map's) are skipped at
//! eviction time. The queue is compacted when it outgrows the map so a
//! hot key cannot inflate memory unboundedly.

use crate::engine::ClipResult;
use p3d_tensor::Tensor;
use std::collections::{HashMap, VecDeque};

/// FNV-1a 64 over a clip's rank, dims, and f32 payload bit patterns.
/// Hashing the *bits* keeps the key exact: two clips that compare equal
/// as floats but differ in bits (e.g. -0.0 vs 0.0) hash differently,
/// matching the cache's bitwise-identity contract.
pub fn clip_hash(clip: &Tensor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let shape = clip.shape();
    let dims = shape.dims();
    eat(&(dims.len() as u64).to_le_bytes());
    for &d in dims {
        eat(&(d as u64).to_le_bytes());
    }
    for &v in clip.data() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// FNV-1a 64 over a model-hash string, folding the provenance key into
/// the composite cache key.
pub fn model_key(model_hash: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in model_hash.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounded exact-match cache with hit/miss telemetry.
pub struct ResponseCache {
    capacity: usize,
    map: HashMap<(u64, u64), (ClipResult, u64)>,
    recency: VecDeque<((u64, u64), u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ResponseCache {
    /// Creates a cache holding at most `capacity` responses. A capacity
    /// of zero is a valid always-miss cache (callers gate on it).
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            capacity,
            map: HashMap::new(),
            recency: VecDeque::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a response, counting the hit or miss and refreshing
    /// recency on hit.
    pub fn get(&mut self, model: u64, clip: u64) -> Option<ClipResult> {
        let key = (model, clip);
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key) {
            Some((result, stamp)) => {
                *stamp = tick;
                self.recency.push_back((key, tick));
                self.hits += 1;
                let out = result.clone();
                self.maybe_compact();
                Some(out)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a response, evicting the least recently
    /// used entry when full. No-op at zero capacity.
    pub fn put(&mut self, model: u64, clip: u64, result: ClipResult) {
        if self.capacity == 0 {
            return;
        }
        let key = (model, clip);
        self.tick += 1;
        let tick = self.tick;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            self.evict_one();
        }
        self.map.insert(key, (result, tick));
        self.recency.push_back((key, tick));
        self.maybe_compact();
    }

    /// Pops recency entries until one still matches its map stamp —
    /// that's the true LRU — and removes it.
    fn evict_one(&mut self) {
        while let Some((key, tick)) = self.recency.pop_front() {
            let live = matches!(self.map.get(&key), Some((_, stamp)) if *stamp == tick);
            if live {
                self.map.remove(&key);
                return;
            }
        }
    }

    /// Drops stale queue entries once the queue is more than twice the
    /// map (plus slack), bounding memory under hot-key traffic.
    fn maybe_compact(&mut self) {
        if self.recency.len() > self.map.len() * 2 + 16 {
            let map = &self.map;
            self.recency
                .retain(|(key, tick)| matches!(map.get(key), Some((_, stamp)) if stamp == tick));
        }
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime (hits, misses).
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: f32) -> ClipResult {
        ClipResult {
            logits: vec![tag, -tag],
            prediction: 0,
        }
    }

    #[test]
    fn clip_hash_is_bit_exact() {
        let a = Tensor::from_vec([1, 2], vec![0.0, 1.0]);
        let b = Tensor::from_vec([1, 2], vec![-0.0, 1.0]);
        let c = Tensor::from_vec([2, 1], vec![0.0, 1.0]);
        assert_eq!(clip_hash(&a), clip_hash(&a));
        assert_ne!(clip_hash(&a), clip_hash(&b), "-0.0 and 0.0 must differ");
        assert_ne!(clip_hash(&a), clip_hash(&c), "shape is part of the key");
    }

    #[test]
    fn hit_returns_bitwise_identical_result_and_counts() {
        let mut cache = ResponseCache::new(4);
        assert!(cache.get(1, 10).is_none());
        cache.put(1, 10, result(0.5));
        let hit = cache.get(1, 10).expect("hit");
        assert_eq!(hit.logits[0].to_bits(), 0.5f32.to_bits());
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn model_hash_partitions_the_key_space() {
        let mut cache = ResponseCache::new(4);
        cache.put(model_key("aaaa"), 10, result(1.0));
        assert!(
            cache.get(model_key("bbbb"), 10).is_none(),
            "other model must miss"
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ResponseCache::new(2);
        cache.put(1, 1, result(1.0));
        cache.put(1, 2, result(2.0));
        assert!(cache.get(1, 1).is_some()); // touch 1 → 2 is now LRU
        cache.put(1, 3, result(3.0)); // evicts 2
        assert!(cache.get(1, 2).is_none(), "LRU entry evicted");
        assert!(cache.get(1, 1).is_some());
        assert!(cache.get(1, 3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hot_key_does_not_inflate_recency_queue() {
        let mut cache = ResponseCache::new(2);
        cache.put(1, 1, result(1.0));
        for _ in 0..10_000 {
            cache.get(1, 1);
        }
        assert!(
            cache.recency.len() <= cache.map.len() * 2 + 17,
            "queue compacted, len {}",
            cache.recency.len()
        );
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut cache = ResponseCache::new(0);
        cache.put(1, 1, result(1.0));
        assert!(cache.get(1, 1).is_none());
        assert!(cache.is_empty());
    }
}
