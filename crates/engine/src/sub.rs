//! Subscription support: the engine-side surface a push server builds on.
//!
//! Two pieces, both deliberately tiny:
//!
//! * [`CommitNotifier`] — a monotone "something settled" signal. Commit
//!   paths publish their stamp after dropping every lock; a push pump
//!   parks in [`CommitNotifier::wait_past`] and wakes exactly when the
//!   log has advanced past what it last drained. No subscriber state
//!   lives here, so a slow (or dead) consumer can never slow a commit:
//!   publishing is a mutex'd store + `notify_all`, independent of how
//!   many waiters exist or how far behind they are.
//! * [`ViewDeltas`] — one drained batch for one subscriber cursor: the
//!   coalesced view-level delta covering `(from_seq, to_seq]`, or a
//!   full-window *resync* when the incremental path is unavailable
//!   (cursor truncated out of the WAL, a lens propagation escape hatch,
//!   or an engine without incremental support).
//!
//! The cursor contract: a subscriber's cursor is always a commit stamp
//! (the engine-wide serialization order every [`crate::CommitReceipt`]
//! carries; stamps never repeat across engine restarts, so a cursor
//! carried over a restart resyncs). `Engine::view_deltas_since(name,
//! cursor)` returns everything settled past it, O(delta) on any shard
//! count; applying `delta` to a window that reflects `from_seq` (or
//! adopting `resync` wholesale) yields the window at `to_seq`, the
//! subscriber's next cursor.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use esm_store::{Delta, Table};

/// A monotone commit signal: the highest stamp any commit path has
/// published, plus a condvar for parked push pumps. Cheap to publish
/// (commits never wait on subscribers), cheap to wait on (no polling).
#[derive(Debug, Default)]
pub struct CommitNotifier {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl CommitNotifier {
    /// A notifier that has seen nothing.
    pub fn new() -> CommitNotifier {
        CommitNotifier::default()
    }

    /// Publish a commit stamp. Monotone: an older stamp (a racing
    /// publisher losing the park) never moves the signal backwards.
    pub fn publish(&self, seq: u64) {
        let mut cur = self.seq.lock().expect("notifier lock poisoned");
        if seq > *cur {
            *cur = seq;
            self.cv.notify_all();
        }
    }

    /// The highest published stamp.
    pub fn last(&self) -> u64 {
        *self.seq.lock().expect("notifier lock poisoned")
    }

    /// Park until the signal is past `seen` (returns the new signal) or
    /// `timeout` elapses (returns the current signal, possibly still
    /// `seen`). The timeout keeps pumps responsive to shutdown and to
    /// retry backpressure-stalled subscribers without a commit.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        self.wait_past_unless(seen, &AtomicBool::new(false), timeout)
    }

    /// [`Self::wait_past`] for a waiter that must also leave as soon as
    /// `stop` is set: whoever sets it then calls [`Self::wake`].
    pub fn wait_past_unless(&self, seen: u64, stop: &AtomicBool, timeout: Duration) -> u64 {
        let guard = self.seq.lock().expect("notifier lock poisoned");
        let (guard, _) = self
            .cv
            .wait_timeout_while(guard, timeout, |cur| {
                *cur <= seen && !stop.load(Ordering::SeqCst)
            })
            .expect("notifier lock poisoned");
        *guard
    }

    /// Wake every parked waiter to re-check its stop flag. Taking the
    /// lock first means a waiter that read its flag before it was set
    /// has parked by now, so the wake-up cannot miss it.
    pub fn wake(&self) {
        let _parked = self.seq.lock().expect("notifier lock poisoned");
        self.cv.notify_all();
    }
}

/// One drained batch for one subscriber cursor — what
/// [`crate::Engine::view_deltas_since`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDeltas {
    /// The cursor the batch starts after (the caller's cursor, echoed).
    pub from_seq: u64,
    /// The cursor the batch advances the subscriber to. Equal to
    /// `from_seq` when nothing settled has landed past it.
    pub to_seq: u64,
    /// The coalesced view-level delta covering `(from_seq, to_seq]`.
    /// Empty when nothing changed or when `resync` is set.
    pub delta: Delta,
    /// `Some(window)` when the incremental path was unavailable: adopt
    /// this full window (it reflects `to_seq`) and discard local state.
    pub resync: Option<Table>,
}

impl ViewDeltas {
    /// An empty batch: nothing settled past `cursor` yet.
    pub fn empty(cursor: u64) -> ViewDeltas {
        ViewDeltas {
            from_seq: cursor,
            to_seq: cursor,
            delta: Delta::empty(),
            resync: None,
        }
    }

    /// Does this batch carry anything a subscriber must hear about?
    pub fn is_empty(&self) -> bool {
        self.resync.is_none() && self.delta.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn notifier_is_monotone_and_wakes_waiters() {
        let n = Arc::new(CommitNotifier::new());
        assert_eq!(n.last(), 0);
        n.publish(5);
        n.publish(3); // stale publisher: ignored
        assert_eq!(n.last(), 5);

        let waiter = {
            let n = Arc::clone(&n);
            std::thread::spawn(move || n.wait_past(5, Duration::from_secs(10)))
        };
        // Let the waiter park, then advance.
        std::thread::sleep(Duration::from_millis(20));
        n.publish(7);
        assert_eq!(waiter.join().unwrap(), 7);
    }

    #[test]
    fn wait_past_times_out_without_a_commit() {
        let n = CommitNotifier::new();
        n.publish(2);
        // Already past: returns immediately.
        assert_eq!(n.wait_past(1, Duration::from_secs(10)), 2);
        // Not past: times out at the current signal.
        assert_eq!(n.wait_past(2, Duration::from_millis(10)), 2);
    }

    #[test]
    fn a_stopped_waiter_leaves_without_a_commit() {
        let n = Arc::new(CommitNotifier::new());
        let stop = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (n, stop) = (Arc::clone(&n), Arc::clone(&stop));
            std::thread::spawn(move || {
                let start = std::time::Instant::now();
                n.wait_past_unless(0, &stop, Duration::from_secs(10));
                start.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        n.wake();
        assert!(waiter.join().unwrap() < Duration::from_secs(5));
        assert_eq!(n.last(), 0);
    }

    #[test]
    fn view_deltas_empty_batches_know_it() {
        let b = ViewDeltas::empty(9);
        assert!(b.is_empty());
        assert_eq!((b.from_seq, b.to_seq), (9, 9));
    }
}
