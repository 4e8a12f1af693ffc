//! The client-side capability-cache policy, generic over what is cached.
//!
//! [`NfsClient`](crate::NfsClient) instantiates it over
//! `(path, want_write)` → open file. The `nasd-bench` scale matrix
//! gives each simulated client a bitset over object indices instead:
//! the same policy as `LeaseCache`, pinned op for op by
//! `scale::tests::cap_sets_answer_as_lease_caches_do`, so a change to
//! the policy here fails that test until the simulated hit rates move
//! with it.

use nasd_obs::{Counter, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Per-client capability-cache capacity (entries): what
/// [`NfsClient::enable_cap_cache`](crate::NfsClient::enable_cap_cache)
/// builds and what the scale matrix simulates.
pub const CAP_CACHE_CAPACITY: usize = 4096;

/// Don't serve a cached capability within this many seconds of expiry:
/// it could expire mid-operation and burn a refresh round trip.
const CAP_LEASE_MARGIN: u64 = 5;

/// Observable totals of a client's capability-issue cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CapCacheStats {
    /// Lookups answered from cache (no file-manager RPC).
    pub hits: u64,
    /// Lookups that went to the file manager (includes lease expiries).
    pub misses: u64,
    /// Revocation-driven refreshes (a drive rejected a cached/held
    /// capability and the client re-fetched by handle).
    pub refreshes: u64,
}

/// A capacity-bounded cache of leased values.
///
/// Leased: an entry is served only while inside its own expiry (minus a
/// safety margin). Revocation-safe by construction — the drive, not the
/// cache, is the authority: a revoked cached capability is rejected at
/// the drive, the client refreshes exactly once and purges the entry.
/// Eviction is by epoch (a full cache is cleared): cheaper than
/// tracking LRU order for entries that re-fill in one RPC each.
pub struct LeaseCache<K, V> {
    map: Mutex<HashMap<K, (V, u64)>>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    refreshes: Arc<Counter>,
}

impl<K: Hash + Eq, V: Clone> LeaseCache<K, V> {
    /// An empty cache of at least 16 entries. With `registry`, the
    /// `capcache/hits`, `capcache/misses` and `capcache/refreshes`
    /// counters register there; otherwise they are private to
    /// [`Self::stats`].
    #[must_use]
    pub fn new(capacity: usize, registry: Option<&Registry>) -> Self {
        let counter = |name: &str| match registry {
            Some(r) => r.counter(name),
            None => Arc::new(Counter::new()),
        };
        LeaseCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(16),
            hits: counter("capcache/hits"),
            misses: counter("capcache/misses"),
            refreshes: counter("capcache/refreshes"),
        }
    }

    /// The value cached under `key` if its lease outlives `now`
    /// (seconds, same clock as `expires`); counts a hit or a miss. An
    /// expired entry is dropped.
    pub fn get(&self, key: &K, now: u64) -> Option<V> {
        let mut map = self.map.lock();
        if let Some((value, expires)) = map.get(key) {
            if *expires > now.saturating_add(CAP_LEASE_MARGIN) {
                self.hits.inc();
                return Some(value.clone());
            }
            map.remove(key);
        }
        self.misses.inc();
        None
    }

    /// Cache `value` under `key` until `expires`, clearing a full cache
    /// first.
    pub fn put(&self, key: K, value: V, expires: u64) {
        let mut map = self.map.lock();
        if map.len() >= self.capacity {
            map.clear();
        }
        map.insert(key, (value, expires));
    }

    /// Keep only the entries `keep` accepts.
    pub(crate) fn retain(&self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.map.lock().retain(|key, (value, _)| keep(key, value));
    }

    /// Count one revocation-driven refresh.
    pub(crate) fn note_refresh(&self) {
        self.refreshes.inc();
    }

    /// Totals so far.
    #[must_use]
    pub fn stats(&self) -> CapCacheStats {
        CapCacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            refreshes: self.refreshes.value(),
        }
    }
}
