//! The client's cached snapshot: one database per server per process.
//!
//! Every [`crate::RemoteEngine`] in a process that speaks to one server
//! address shares one [`SnapshotCache`]. It holds the database as of the
//! last `SNAPSHOT_SINCE` answer, marked with the answering server
//! instance and commit stamp ([`SnapshotMark`]). A caller that needs the
//! current database takes a ticket; one caller at a time refreshes the
//! cache over its own connection, and every ticket taken before that
//! refresh's request went out is served by its answer. So each snapshot
//! handed out reflects a server read made after its caller asked, and a
//! refresh ships the commits since the last refresh by *any* connection
//! of the process: with many connections, the catch-ups do not multiply
//! with them.
//!
//! The refresher takes the database out of the cache and applies the
//! answer in place, so it copies only the chunks that handed-out clones
//! still share. A failed refresh leaves no database: the next one
//! downloads the whole database. A refresh rides on its caller's
//! connection, so callers on other connections also wait behind any
//! request that connection has in flight. The cache lives while any
//! handle to its server does.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use esm_engine::EngineError;
use esm_store::Database;

use crate::proto::SnapshotMark;

/// One server's cached database, shared by every handle of the process
/// that speaks to it.
#[derive(Default)]
pub(crate) struct SnapshotCache {
    state: Mutex<CacheState>,
    /// Signalled whenever a refresh ends, well or badly.
    refreshed: Condvar,
}

#[derive(Default)]
struct CacheState {
    /// The database and where it stands; `None` before the first
    /// refresh, during one, and after one failed.
    held: Option<(SnapshotMark, Database)>,
    /// Tickets handed out, one per caller that asked for the database.
    issued: u64,
    /// Every ticket up to this one is served by `held`.
    served: u64,
    /// A refresh is in flight.
    refreshing: bool,
}

impl SnapshotCache {
    /// The cache for the server at `peer`, shared with every other
    /// handle of this process that speaks to it.
    pub(crate) fn for_peer(peer: SocketAddr) -> Arc<SnapshotCache> {
        static CACHES: OnceLock<Mutex<HashMap<SocketAddr, Weak<SnapshotCache>>>> = OnceLock::new();
        let caches = CACHES.get_or_init(Mutex::default);
        let mut caches = caches.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cache) = caches.get(&peer).and_then(Weak::upgrade) {
            return cache;
        }
        caches.retain(|_, cache| cache.strong_count() > 0);
        let cache = Arc::new(SnapshotCache::default());
        caches.insert(peer, Arc::downgrade(&cache));
        cache
    }

    /// Every field is written under one lock hold, so the state is whole
    /// even after a panic elsewhere.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current database, as a chunk-sharing clone: served by the
    /// first refresh whose request goes out after this call. When no
    /// refresh is in flight this caller runs one: `refresh` gets the
    /// mark and database the cache held (or `None` and an empty
    /// database), sends the request and brings the database to the
    /// answer's stamp, returning the new mark. Its error is this
    /// caller's alone; waiters whose tickets it left unserved refresh
    /// again themselves.
    pub(crate) fn fresh(
        &self,
        refresh: &mut dyn FnMut(
            Option<SnapshotMark>,
            Database,
        ) -> Result<(SnapshotMark, Database), EngineError>,
    ) -> Result<Database, EngineError> {
        let mut state = self.state();
        state.issued += 1;
        let ticket = state.issued;
        loop {
            if state.served >= ticket {
                if let Some((_, db)) = &state.held {
                    return Ok(db.clone());
                }
            }
            if state.refreshing {
                state = self
                    .refreshed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Every ticket issued so far was taken before the request
            // below goes out, so its answer serves them all.
            let mut run = Refresh {
                cache: self,
                covers: state.issued,
                done: None,
            };
            state.refreshing = true;
            let held = state.held.take();
            drop(state);
            let (since, db) = match held {
                Some((mark, db)) => (Some(mark), db),
                None => (None, Database::new()),
            };
            run.done = Some(refresh(since, db)?);
            drop(run);
            state = self.state();
        }
    }
}

/// A refresh in flight: ending it — with its result, its error or a
/// panic — clears the flag and wakes the waiters in one lock hold.
struct Refresh<'a> {
    cache: &'a SnapshotCache,
    /// The last ticket the refresh serves.
    covers: u64,
    /// The refreshed database, once there is one.
    done: Option<(SnapshotMark, Database)>,
}

impl Drop for Refresh<'_> {
    fn drop(&mut self) {
        let mut state = self.cache.state();
        state.refreshing = false;
        if let Some(done) = self.done.take() {
            state.held = Some(done);
            state.served = self.covers;
        }
        self.cache.refreshed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn mark(stamp: u64) -> SnapshotMark {
        SnapshotMark { server: 1, stamp }
    }

    #[test]
    fn waiters_share_one_refresh_and_failures_stay_with_their_caller() {
        let cache = SnapshotCache::default();
        let stamp = AtomicU64::new(0);
        let bump = &mut |since: Option<SnapshotMark>, db: Database| {
            let held = stamp.fetch_add(1, Ordering::SeqCst);
            assert_eq!(since.map(|m| m.stamp), (held > 0).then_some(held));
            Ok((mark(held + 1), db))
        };
        cache.fresh(bump).unwrap();
        cache.fresh(bump).unwrap();
        assert_eq!(
            stamp.load(Ordering::SeqCst),
            2,
            "one refresh per call alone"
        );
        // A failed refresh errs for its caller and leaves no database.
        let failed = cache.fresh(&mut |_, _| Err(EngineError::Io("gone".into())));
        assert!(failed.is_err());
        assert!(cache.state().held.is_none());
        cache
            .fresh(&mut |since, db| {
                assert_eq!(since, None, "the next refresh starts from nothing");
                Ok((mark(9), db))
            })
            .unwrap();
        // Concurrent callers: every call is served by a refresh that
        // started after it, and no two refreshes overlap.
        let refreshes = AtomicU64::new(0);
        let inflight = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache
                            .fresh(&mut |since, db| {
                                assert_eq!(inflight.fetch_add(1, Ordering::SeqCst), 0);
                                std::thread::yield_now();
                                refreshes.fetch_add(1, Ordering::SeqCst);
                                inflight.fetch_sub(1, Ordering::SeqCst);
                                Ok((mark(since.map_or(0, |m| m.stamp) + 1), db))
                            })
                            .unwrap();
                    }
                });
            }
        });
        let n = refreshes.load(Ordering::SeqCst);
        assert!((1..=400).contains(&n));
        assert_eq!(
            cache.state().held.as_ref().map(|(m, _)| m.stamp),
            Some(9 + n)
        );
    }
}
