//! [`Session`]: one client's stateful seat at an engine.
//!
//! The paper's entangled state monad is a *session*: a client holds
//! `get`/`put` capabilities over shared hidden state, and the sequence
//! of its operations carries state of its own (what it has registered,
//! what it last observed). This type reifies that client-side state for
//! any [`Engine`] host — in-process, sharded or remote — so callers
//! stop re-threading names, retry budgets and commit positions by hand:
//!
//! * **view registrations** — the handles this session defined or
//!   opened, cached by name;
//! * **commit stamps** — the engine-serialization-order position of the
//!   session's last committed transaction (receipts from
//!   [`Engine::transact`]), a client-visible monotone clock;
//! * **retry policy** — one place to configure how stubbornly the
//!   session's optimistic edits and transactions fight
//!   first-committer-wins conflicts.
//!
//! The network server (`esm-net`) creates one `Session` per accepted
//! connection: per-client state lives here, engine-wide state stays in
//! the engine, and the wire protocol is a thin request/response skin
//! over these methods.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use esm_relational::ViewDef;
use esm_store::{Database, Delta, Table};

use crate::engine::DEFAULT_OPTIMISTIC_ATTEMPTS;
use crate::engine::{ArcEngine, CommitReceipt, Engine};
use crate::error::EngineError;
use crate::view::EntangledView;

/// How stubbornly a session's optimistic operations retry
/// first-committer-wins conflicts before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per optimistic edit or transaction (at least 1).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: DEFAULT_OPTIMISTIC_ATTEMPTS,
        }
    }
}

/// A client session over one engine: cached view handles, the last
/// observed commit stamp, and the session's retry policy.
///
/// The session is also where **causal traces are born**: every
/// operation offers itself to the engine's telemetry registry for head
/// sampling, and an elected request carries a fresh
/// [`esm_obs::TraceId`] through every instrumented layer below it —
/// down the wire for a remote engine, down to the fsync for a local
/// one.
#[derive(Debug)]
pub struct Session {
    engine: ArcEngine,
    retry: RetryPolicy,
    views: Mutex<BTreeMap<String, EntangledView>>,
    last_stamp: AtomicU64,
    /// The registry trace roots are minted from (the engine's own for
    /// in-process hosts, the client-local one for a remote engine).
    /// `None` when the engine exposes no registry: tracing is off.
    tracer: Option<std::sync::Arc<esm_obs::Telemetry>>,
}

impl Session {
    /// A session over `engine` with the default retry policy.
    pub fn new(engine: ArcEngine) -> Session {
        Session::with_retry(engine, RetryPolicy::default())
    }

    /// A session with an explicit retry policy.
    pub fn with_retry(engine: ArcEngine, retry: RetryPolicy) -> Session {
        let tracer = engine.telemetry_handle();
        Session {
            engine,
            retry: RetryPolicy {
                attempts: retry.attempts.max(1),
            },
            views: Mutex::new(BTreeMap::new()),
            last_stamp: AtomicU64::new(0),
            tracer,
        }
    }

    /// Offer this operation for head sampling; the returned guard (if
    /// elected) roots a trace every layer below will attach spans to.
    fn trace_root(&self, name: &str) -> Option<esm_obs::TraceRoot> {
        self.tracer.as_ref().and_then(|t| t.start_trace(name))
    }

    /// The engine this session speaks to.
    pub fn engine(&self) -> &dyn Engine {
        &*self.engine
    }

    /// This session's retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The stamp of the last transaction this session committed through
    /// [`Session::transact`] (0 before any) — its position in the
    /// engine's serialization order.
    pub fn last_stamp(&self) -> u64 {
        self.last_stamp.load(Ordering::Acquire)
    }

    /// View names this session has registered or opened, sorted.
    pub fn view_names(&self) -> Vec<String> {
        self.views
            .lock()
            .expect("session views lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Compile and register a named view on the engine, caching the
    /// handle in this session.
    pub fn define_view(
        &self,
        name: &str,
        table: &str,
        def: &ViewDef,
    ) -> Result<EntangledView, EngineError> {
        let view = self.engine.define_view(name, table, def)?;
        self.views
            .lock()
            .expect("session views lock poisoned")
            .insert(name.to_string(), view.clone());
        Ok(view)
    }

    /// A handle onto a registered view, cached after the first open.
    pub fn view(&self, name: &str) -> Result<EntangledView, EngineError> {
        if let Some(view) = self
            .views
            .lock()
            .expect("session views lock poisoned")
            .get(name)
        {
            return Ok(view.clone());
        }
        let view = self.engine.view(name)?;
        self.views
            .lock()
            .expect("session views lock poisoned")
            .insert(name.to_string(), view.clone());
        Ok(view)
    }

    /// Read a view (opens and caches the handle as needed).
    pub fn read(&self, name: &str) -> Result<Table, EngineError> {
        let _trace = self.trace_root("session:read");
        self.view(name)?.get()
    }

    /// Write an edited view back (lens `put` semantics: replaces the
    /// whole visible window).
    pub fn put(&self, name: &str, view: Table) -> Result<Delta, EngineError> {
        let _trace = self.trace_root("session:put");
        self.view(name)?.put(view)
    }

    /// Transactionally edit a view under this session's retry policy.
    pub fn edit(
        &self,
        name: &str,
        edit: impl Fn(&mut Table) -> Result<(), EngineError>,
    ) -> Result<Delta, EngineError> {
        let _trace = self.trace_root("session:edit");
        self.view(name)?
            .edit_with_attempts(self.retry.attempts, edit)
    }

    /// Run a snapshot transaction under this session's retry policy,
    /// recording the receipt's commit stamp as the session's position.
    pub fn transact(
        &self,
        body: impl Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError> {
        let _trace = self.trace_root("session:transact");
        let receipt = self.engine.transact(self.retry.attempts, &body)?;
        self.last_stamp.fetch_max(receipt.stamp, Ordering::AcqRel);
        Ok(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineServer;
    use esm_store::{row, Schema, ValueType};

    fn engine() -> ArcEngine {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("n", ValueType::Int)], &["id"]).unwrap();
        let t = Table::from_rows(schema, vec![row![1, 10], row![2, 20]]).unwrap();
        let mut db = Database::new();
        db.create_table("t", t).unwrap();
        EngineServer::new(db).as_engine()
    }

    #[test]
    fn sessions_cache_views_and_track_stamps() {
        let s = Session::new(engine());
        s.define_view("all", "t", &ViewDef::base()).unwrap();
        assert_eq!(s.view_names(), vec!["all"]);
        assert_eq!(s.read("all").unwrap().len(), 2);
        assert_eq!(s.last_stamp(), 0);

        let receipt = s
            .transact(|db| {
                db.table_mut("t")?.upsert(row![3, 30])?;
                Ok(())
            })
            .unwrap();
        assert!(receipt.stamp > 0);
        assert_eq!(s.last_stamp(), receipt.stamp);
        assert_eq!(s.read("all").unwrap().len(), 3);

        // Stamps are monotone across the session's commits.
        let again = s
            .transact(|db| {
                db.table_mut("t")?.upsert(row![4, 40])?;
                Ok(())
            })
            .unwrap();
        assert!(again.stamp > receipt.stamp);
        assert_eq!(s.last_stamp(), again.stamp);
    }

    #[test]
    fn sessions_edit_under_their_retry_policy() {
        let s = Session::with_retry(engine(), RetryPolicy { attempts: 3 });
        s.define_view("all", "t", &ViewDef::base()).unwrap();
        let delta = s
            .edit("all", |v| Ok(v.upsert(row![9, 90]).map(|_| ())?))
            .unwrap();
        assert_eq!(delta.inserted, vec![row![9, 90]]);
        // A second session over the same engine opens (not re-defines)
        // the view and sees the entangled state.
        let other = Session::new(s.engine().as_engine());
        assert_eq!(other.read("all").unwrap().len(), 3);
    }
}
