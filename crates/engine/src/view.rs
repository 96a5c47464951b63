//! [`EntangledView`]: a client's handle onto one bidirectional view.
//!
//! This is the paper's entangled-state-monad session made concurrent: the
//! hidden shared state is a base table inside the engine; `get` reads the
//! view of the *current* state; `put` writes an edited view back through
//! the lens as a transaction. Many clients hold views over the same base
//! table — each one's writes show up in every other's reads, because the
//! state is entangled, not copied.
//!
//! A view handle is **host-location-oblivious**: it fronts any
//! [`Engine`] — a [`crate::shard::ShardedEngineServer`] with one shard
//! or with its base table partitioned over many, a read replica, or a
//! `RemoteEngine` speaking the wire protocol from another process. The client API is identical everywhere; routing,
//! two-phase commit and network framing all stay under the trait.

use std::sync::Arc;

use esm_lens::{DeltaLens, DeltaOutcome};
use esm_store::{Delta, Table};

use crate::engine::{ArcEngine, Engine, DEFAULT_OPTIMISTIC_ATTEMPTS};
use crate::error::EngineError;

/// A client handle onto one named view of an engine. Cheap to clone and
/// [`Send`], so each worker thread can own one.
#[derive(Clone, Debug)]
pub struct EntangledView {
    host: ArcEngine,
    name: String,
}

impl EntangledView {
    /// Attach a handle to the view named `name` on `host`. Engines hand
    /// these out from `define_view` / `view` (which validate the name);
    /// attaching to an unregistered name is allowed but every operation
    /// will answer [`EngineError::NoSuchView`].
    pub fn attach(host: ArcEngine, name: impl Into<String>) -> EntangledView {
        EntangledView {
            host,
            name: name.into(),
        }
    }

    /// The view's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine hosting this view — uniform across local, replica and
    /// remote hosts (downcast-free: everything a client needs is on
    /// the [`Engine`] trait).
    pub fn engine(&self) -> &dyn Engine {
        &*self.host
    }

    /// A shared handle to the hosting engine.
    pub fn engine_arc(&self) -> ArcEngine {
        Arc::clone(&self.host)
    }

    /// Read the view against the current base state.
    ///
    /// Served from the engine's maintained materialized window —
    /// committed deltas since the last read are folded in (shard-pruned
    /// under key bounds on a sharded engine), equal to a fresh lens
    /// `get` but O(changes) instead of O(base).
    pub fn get(&self) -> Result<Table, EngineError> {
        self.host.read_view(&self.name)
    }

    /// Write an edited view back (lens `put`, pessimistic path); returns
    /// the delta applied to the base table.
    ///
    /// A `put` replaces the view's whole visible window (last-writer-wins
    /// between racing putters); prefer [`EntangledView::edit`] for
    /// read-modify-write edits that must not lose concurrent updates.
    pub fn put(&self, view: Table) -> Result<Delta, EngineError> {
        self.host.write_view(&self.name, view)
    }

    /// Transactionally edit the view (optimistic path with retries):
    /// read, apply `edit`, write back, revalidating first-committer-wins.
    pub fn edit(
        &self,
        edit: impl Fn(&mut Table) -> Result<(), EngineError>,
    ) -> Result<Delta, EngineError> {
        self.edit_with_attempts(DEFAULT_OPTIMISTIC_ATTEMPTS, edit)
    }

    /// [`EntangledView::edit`] with an explicit retry budget (what a
    /// [`crate::Session`]'s retry policy drives).
    pub fn edit_with_attempts(
        &self,
        attempts: u32,
        edit: impl Fn(&mut Table) -> Result<(), EngineError>,
    ) -> Result<Delta, EngineError> {
        self.host.edit_view_optimistic(&self.name, attempts, &edit)
    }
}

/// The window maintenance algorithm: translate a
/// drained run of committed base deltas through the view's propagator,
/// coalesce it into a single delta, and fold it into the window in
/// place. Returns the number of committed deltas folded in, or `None`
/// when the run needs the escape hatch (a [`DeltaOutcome::Rebuild`] or
/// an application error) — the caller then re-runs the lens `get` and
/// counts a rebuild; nothing from the run survives.
pub(crate) fn drain_into_window<'a>(
    lens: &DeltaLens<Table, Table, Delta>,
    pending: impl IntoIterator<Item = &'a Delta>,
    window: &mut Table,
) -> Option<u64> {
    let mut view_deltas = Vec::new();
    for delta in pending {
        match lens.get_delta(delta) {
            DeltaOutcome::View(view_delta) => view_deltas.push(view_delta),
            DeltaOutcome::Rebuild => return None,
        }
    }
    let drained = view_deltas.len() as u64;
    let key_idx = window.schema().key_indices();
    let combined = Delta::coalesce(&view_deltas, key_idx);
    match combined.apply_in_place(window) {
        Ok(()) => Some(drained),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineServer;
    use esm_relational::ViewDef;
    use esm_store::{row, Database, Operand, Predicate, Schema, Table, ValueType};

    fn engine() -> EngineServer {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("grp", ValueType::Str),
                ("n", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let t = Table::from_rows(schema, vec![row![1, "a", 10], row![2, "b", 20]]).unwrap();
        let mut db = Database::new();
        db.create_table("t", t).unwrap();
        EngineServer::new(db)
    }

    #[test]
    fn handles_route_to_their_view() {
        let e = engine();
        let a = e
            .define_view(
                "a",
                "t",
                &ViewDef::base().select(Predicate::eq(Operand::col("grp"), Operand::val("a"))),
            )
            .unwrap();
        assert_eq!(a.name(), "a");
        assert_eq!(a.get().unwrap().len(), 1);

        let delta = a
            .edit(|v| Ok(v.upsert(row![3, "a", 30]).map(|_| ())?))
            .unwrap();
        assert_eq!(delta.inserted.len(), 1);
        assert_eq!(a.get().unwrap().len(), 2);

        // A second handle to the same engine sees the write immediately.
        let again = e.view("a").unwrap();
        assert_eq!(again.get().unwrap().len(), 2);
    }

    #[test]
    fn put_reports_the_base_delta() {
        let e = engine();
        let all = e.define_view("all", "t", &ViewDef::base()).unwrap();
        let mut v = all.get().unwrap();
        v.delete_by_key(&row![2]);
        let delta = all.put(v).unwrap();
        assert_eq!(delta.deleted, vec![row![2, "b", 20]]);
        assert_eq!(e.shard_wals()[0].len(), 1);
        // The host is reachable uniformly through the trait, whatever
        // kind of engine it is.
        assert_eq!(all.engine().table_names().unwrap(), vec!["t"]);
        assert_eq!(all.engine().metrics().unwrap().commits, 1);
    }

    #[test]
    fn attached_handles_to_unknown_views_error_per_call() {
        let e = engine();
        let ghost = EntangledView::attach(e.as_engine(), "ghost");
        assert!(matches!(ghost.get(), Err(EngineError::NoSuchView(_))));
        assert!(matches!(
            ghost.edit(|_| Ok(())),
            Err(EngineError::NoSuchView(_))
        ));
    }
}
