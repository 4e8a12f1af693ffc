//! The one bounded map every soft cache in the workspace is built on:
//! a client's capability cache (`nasd_fm::LeaseCache`), the file
//! manager's directory cache and mint memo, and a drive's cache of
//! verified capabilities. DESIGN.md §15 ("One bounded map") states its
//! rule; [`BoundedMap::insert`] is the one place that applies it.
//!
//! The map has no lock of its own: each owner already holds it under a
//! `Mutex`, an `RwLock` or `&mut`. Hits, misses and evictions are
//! [`Counter`]s, so a lookup through a shared reference counts with one
//! relaxed atomic add.

use crate::{Counter, Registry};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Most entries any [`BoundedMap`] holds: as many capabilities as one
/// client may cache, so a drive's verified set and the manager's mint
/// memo hold a client's whole working set (`meta_mix` cycles 1,536
/// capabilities per drive).
pub const CAPACITY: usize = 4_096;

/// A hash map of at most [`CAPACITY`] entries. An insert into a full
/// map empties it first, even when the key is present, and counts the
/// entries it dropped as evictions: no bookkeeping per hit, but a
/// cyclic scan over `CAPACITY + 1` keys never hits.
#[derive(Debug)]
pub struct BoundedMap<K, V> {
    map: HashMap<K, V>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl<K, V> Default for BoundedMap<K, V> {
    fn default() -> Self {
        BoundedMap {
            map: HashMap::new(),
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
        }
    }
}

impl<K: Hash + Eq, V> BoundedMap<K, V> {
    /// An empty map counting into `registry` as `{prefix}/hits`,
    /// `{prefix}/misses` and `{prefix}/evictions`.
    #[must_use]
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        let counter = |leaf: &str| registry.counter(&format!("{prefix}/{leaf}"));
        BoundedMap {
            map: HashMap::new(),
            hits: counter("hits"),
            misses: counter("misses"),
            evictions: counter("evictions"),
        }
    }

    /// The value under `key`; counts a hit or a miss.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_if(key, |_| true)
    }

    /// The value under `key` if `live` accepts it; counts a hit, or a
    /// miss when the key is absent or `live` refuses its value (a
    /// refused entry stays until its owner removes it).
    pub fn get_if(&self, key: &K, live: impl FnOnce(&V) -> bool) -> Option<&V> {
        let found = self.map.get(key).filter(|value| live(value));
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.inc();
        found
    }

    /// Put `value` under `key`, emptying a full map first.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.len() >= CAPACITY {
            self.evictions.add(self.map.len() as u64);
            self.map.clear();
        }
        self.map.insert(key, value);
    }

    /// Drop `key`'s entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key)
    }

    /// Drop every entry. Not counted as evictions: the owner chose to
    /// forget them (a key change, say), the bound did not.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Keep only the entries `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.map.retain(|key, value| keep(key, value));
    }

    /// Entries held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups answered so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Lookups that found nothing live so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Entries dropped by full-map inserts so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule's cliff: emptying when full means a cyclic scan over one
    /// key more than the capacity finds each key just evicted, so its
    /// second pass never hits. A rule that degrades gracefully must
    /// change this test, saying what the scan now keeps.
    #[test]
    fn a_scan_one_past_capacity_never_hits() {
        let mut map = BoundedMap::default();
        let keys = CAPACITY as u64 + 1;
        for pass in 0..2 {
            for key in 0..keys {
                if map.get(&key).is_none() {
                    map.insert(key, pass);
                }
                assert!(map.len() <= CAPACITY);
            }
        }
        assert_eq!(map.hits(), 0);
        assert_eq!(map.misses(), 2 * keys);
        // Two inserts found the map full, each dropping `CAPACITY`
        // entries: the first pass's last key, and the second pass's
        // next-to-last (the map held the first pass's last key and the
        // second pass's first `CAPACITY - 1`). The last key then joins
        // the one survivor.
        assert_eq!(map.evictions(), 2 * CAPACITY as u64);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn inserting_a_present_key_into_a_full_map_still_empties_it() {
        let mut map = BoundedMap::default();
        for key in 0..CAPACITY {
            map.insert(key, ());
        }
        map.insert(0, ());
        assert_eq!((map.len(), map.evictions()), (1, CAPACITY as u64));
    }

    #[test]
    fn a_refused_entry_counts_as_a_miss() {
        let mut map = BoundedMap::default();
        map.insert("lease", 10u64);
        assert_eq!(map.get_if(&"lease", |expires| *expires > 20), None);
        assert_eq!(map.get_if(&"lease", |expires| *expires > 5), Some(&10));
        assert_eq!((map.hits(), map.misses()), (1, 1));
    }
}
