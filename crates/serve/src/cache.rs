//! The plan cache: a bounded map from (model, topology) fingerprint pairs
//! to rendered plans, with strict-LRU eviction.
//!
//! The cache is pure mechanism — it counts nothing and records nothing.
//! The [`crate::Server`] layered on top translates lookups into hit/miss
//! counters and decides what to seed warm starts from. Everything here is
//! deterministic by construction: entries live in a `BTreeMap` (stable
//! iteration order), recency is a logical tick rather than a timestamp,
//! and ties are impossible because the tick strictly increases.

use std::collections::BTreeMap;

/// A cache key: the model and topology fingerprints, the only inputs a
/// solve reads.
pub(crate) type Key = (u64, u64);

/// One cached solve: the rendered response payloads plus the warm-start
/// seed for near-miss solves.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Entry {
    /// `plan` response payload (everything after the `" | "` separator).
    /// A hit replays these bytes verbatim — that is the byte-identity
    /// contract the cache exists to provide.
    pub plan_payload: String,
    /// `estimate` response payload for the same solve.
    pub estimate_payload: String,
    /// Partition stage sizes, the warm-start seed for near-miss solves.
    pub sizes: Vec<usize>,
    /// Logical recency; the smallest value is the eviction victim.
    last_used: u64,
}

impl Entry {
    /// Builds an entry; recency is assigned by the cache on insert.
    pub fn new(plan_payload: String, estimate_payload: String, sizes: Vec<usize>) -> Self {
        Entry {
            plan_payload,
            estimate_payload,
            sizes,
            last_used: 0,
        }
    }
}

/// Bounded LRU map from [`Key`]s to [`Entry`] values.
#[derive(Debug, Clone)]
pub(crate) struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<Key, Entry>,
}

impl PlanCache {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a cache that can hold nothing
    /// would turn every warm-start seed into a dangling reference.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be at least 1");
        PlanCache {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn lookup(&mut self, key: Key) -> Option<&Entry> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                Some(&*e)
            }
            None => None,
        }
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry
    /// when the cache would exceed capacity. Returns the evicted key.
    pub fn insert(&mut self, key: Key, mut entry: Entry) -> Option<Key> {
        self.tick += 1;
        entry.last_used = self.tick;
        let fresh = !self.entries.contains_key(&key);
        self.entries.insert(key, entry);
        if fresh && self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("over-capacity cache cannot be empty");
            self.entries.remove(&victim);
            return Some(victim);
        }
        None
    }

    /// Removes every entry whose key matches `pred`; returns how many were
    /// removed.
    pub fn invalidate_where(&mut self, pred: impl Fn(&Key) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| !pred(k));
        before - self.entries.len()
    }

    /// The most recently used entry for `model_fp` — the near-miss
    /// warm-start donor: same model on a different topology. Returns its
    /// partition stage sizes.
    pub fn warm_hint(&self, model_fp: u64) -> Option<Vec<usize>> {
        self.entries
            .iter()
            .filter(|((m, _), _)| *m == model_fp)
            .max_by_key(|(_, e)| e.last_used)
            .map(|(_, e)| e.sizes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: &str) -> Entry {
        Entry::new(format!("plan-{tag}"), format!("est-{tag}"), vec![1, 2])
    }

    #[test]
    fn lru_evicts_the_least_recently_used_key() {
        let mut c = PlanCache::new(2);
        assert_eq!(c.insert((7, 1), entry("a")), None);
        assert_eq!(c.insert((7, 2), entry("b")), None);
        // Touch (7, 1) so (7, 2) becomes the LRU victim.
        assert!(c.lookup((7, 1)).is_some());
        assert_eq!(c.insert((7, 3), entry("c")), Some((7, 2)));
        assert_eq!(c.len(), 2);
        assert!(c.lookup((7, 2)).is_none());
        assert!(c.lookup((7, 1)).is_some());
        assert!(c.lookup((7, 3)).is_some());
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut c = PlanCache::new(2);
        c.insert((7, 1), entry("a"));
        c.insert((7, 2), entry("b"));
        assert_eq!(c.insert((7, 1), entry("a2")), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup((7, 1)).unwrap().plan_payload, "plan-a2");
    }

    #[test]
    fn invalidate_where_removes_matches_only() {
        let mut c = PlanCache::new(4);
        c.insert((7, 1), entry("a"));
        c.insert((8, 2), entry("b"));
        c.insert((7, 3), entry("c"));
        assert_eq!(c.invalidate_where(|&(m, _)| m == 7), 2);
        assert_eq!(c.len(), 1);
        assert!(c.lookup((8, 2)).is_some());
    }

    #[test]
    fn warm_hint_prefers_the_most_recent_matching_entry() {
        let mut c = PlanCache::new(4);
        let mut a = entry("a");
        a.sizes = vec![3, 3];
        let mut b = entry("b");
        b.sizes = vec![4, 2];
        c.insert((7, 1), a);
        c.insert((7, 2), b);
        assert_eq!(c.warm_hint(7), Some(vec![4, 2]));
        // Touching the older entry makes it the donor again.
        c.lookup((7, 1));
        assert_eq!(c.warm_hint(7), Some(vec![3, 3]));
        assert_eq!(c.warm_hint(9), None);
    }
}
