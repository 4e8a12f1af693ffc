//! The client-side capability cache, generic over what is cached.
//!
//! [`NfsClient`](crate::NfsClient) instantiates it over
//! `(path, want_write)` → open file. The `nasd-bench` scale matrix
//! gives each simulated client a bitset over object indices instead,
//! pinned op for op to `LeaseCache` by
//! `scale::tests::cap_sets_answer_as_lease_caches_do`, so a change to
//! the lease check here or to [`BoundedMap`]'s bound fails that test
//! until the simulated hit rates move with it.

use nasd_obs::{BoundedMap, Counter, Registry};
use parking_lot::Mutex;
use std::hash::Hash;
use std::sync::Arc;

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

/// A [`BoundedMap`] of leased values.
///
/// Leased: an entry is served only while inside its own expiry (minus a
/// safety margin). Revocation-safe by construction — the drive, not the
/// cache, is the authority: a revoked cached capability is rejected at
/// the drive, the client refreshes exactly once and purges the entry.
pub struct LeaseCache<K, V> {
    map: Mutex<BoundedMap<K, (V, u64)>>,
    refreshes: Arc<Counter>,
}

impl<K: Hash + Eq, V: Clone> LeaseCache<K, V> {
    /// An empty cache. With `registry`, the `capcache/hits`,
    /// `capcache/misses`, `capcache/evictions` and `capcache/refreshes`
    /// counters register there; otherwise they are private to
    /// [`Self::stats`].
    #[must_use]
    pub fn new(registry: Option<&Registry>) -> Self {
        let (map, refreshes) = match registry {
            Some(r) => (
                BoundedMap::registered(r, "capcache"),
                r.counter("capcache/refreshes"),
            ),
            None => (BoundedMap::default(), Arc::default()),
        };
        LeaseCache {
            map: Mutex::new(map),
            refreshes,
        }
    }

    /// The value cached under `key` if its lease outlives `now`
    /// (seconds, same clock as `expires`); counts a hit or a miss. An
    /// expired entry is dropped.
    pub fn get(&self, key: &K, now: u64) -> Option<V> {
        let mut map = self.map.lock();
        let live = |(_, expires): &(V, u64)| *expires > now.saturating_add(CAP_LEASE_MARGIN);
        if let Some((value, _)) = map.get_if(key, live) {
            return Some(value.clone());
        }
        map.remove(key);
        None
    }

    /// Cache `value` under `key` until `expires`.
    pub fn put(&self, key: K, value: V, expires: u64) {
        self.map.lock().insert(key, (value, expires));
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
        let map = self.map.lock();
        CapCacheStats {
            hits: map.hits(),
            misses: map.misses(),
            refreshes: self.refreshes.value(),
        }
    }
}
