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

use std::collections::BTreeSet;
use std::sync::Arc;

use esm_lens::{DeltaLens, DeltaOutcome};
use esm_store::row::project_row;
use esm_store::{Delta, Row, Schema, Table};

use crate::engine::{apply_table_delta_checked, ArcEngine, Engine, DEFAULT_OPTIMISTIC_ATTEMPTS};
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

    /// The paper's `set`: write an edited window back and return the
    /// delta applied to the base table.
    ///
    /// A `put` replaces the view's whole visible window. It runs the same
    /// edit loop as [`EntangledView::edit`], with "replace the window" as
    /// the edit, so it costs the rows that differ from the current window,
    /// and racing putters are last-writer-wins; prefer
    /// [`EntangledView::edit`] for read-modify-write edits that must not
    /// lose concurrent updates.
    pub fn put(&self, view: Table) -> Result<Delta, EngineError> {
        self.host.write_view(&self.name, view)
    }

    /// Transactionally edit the view (optimistic path with retries):
    /// read, apply `edit` to a copy, and commit the window delta it made
    /// iff every row it touched is unchanged (first-committer-wins),
    /// retrying from a fresh read otherwise.
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

/// Translate a window delta of view `name` (output schema `schema`) into
/// the base-table delta it makes. The delta's rows must fit the view's
/// schema (a store error otherwise); `slice_at` then supplies the base
/// rows at the keys they touch. Every stage a view compiles to keeps the
/// base key and puts key by key, so the lens `put` over that slice is the
/// whole-window `put` restricted to those keys: a row inserted over a
/// hidden base row replaces it, and the base delta deletes the hidden
/// row's pre-image. The delta's own pre-images are checked against the
/// slice's view first, and a stale one is a conflict.
pub(crate) fn window_delta_to_base(
    lens: &DeltaLens<Table, Table, Delta>,
    schema: &Schema,
    name: &str,
    delta: &Delta,
    slice_at: impl FnOnce(&BTreeSet<Row>) -> Result<Table, EngineError>,
) -> Result<Delta, EngineError> {
    for row in delta.inserted.iter().chain(&delta.deleted) {
        schema.check_row(row)?;
    }
    let keys: BTreeSet<Row> = (delta.inserted.iter().chain(&delta.deleted))
        .map(|row| project_row(row, schema.key_indices()))
        .collect();
    let slice = slice_at(&keys)?;
    let mut window = lens.get(&slice);
    apply_table_delta_checked(&mut window, name, delta)?;
    let put = lens.put(slice.clone(), window);
    Ok(Delta::between(&slice, &put)?)
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
    use esm_store::{row, Database, Operand, Predicate, Schema, Table, Value, ValueType};
    use proptest::prelude::*;

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

    /// Append generated stage `choice` to `def`; the caller keeps it only
    /// when the result still compiles (a project of a renamed-away
    /// column, say, does not).
    fn stage(def: ViewDef, choice: u8, x: i64) -> ViewDef {
        match choice % 9 {
            0 => def.select(Predicate::ge(Operand::col("val"), Operand::val(x))),
            1 => def.select(Predicate::eq(Operand::col("grp"), Operand::val("a"))),
            2 => def.select(Predicate::lt(Operand::col("id"), Operand::val(x + 25))),
            3 => def.project(&["id", "val"], &[("grp", Value::str("z"))]),
            4 => def.project(&["id", "grp"], &[("val", Value::Int(7))]),
            5 => def.rename(&[("grp", "team")]),
            6 => def.rename(&[("val", "amount")]),
            7 => def.select(Predicate::ne(Operand::col("team"), Operand::val("b"))),
            _ => def.select(Predicate::lt(Operand::col("amount"), Operand::val(x))),
        }
    }

    /// A row of `schema` from generated cells: `id` takes the key, every
    /// other column the int or the string.
    fn view_row(schema: &Schema, id: i64, s: usize, n: i64) -> Row {
        schema
            .columns()
            .iter()
            .map(|c| match (c.name.as_str(), c.ty) {
                ("id", _) => Value::Int(id),
                (_, ValueType::Int) => Value::Int(n),
                _ => Value::str(["a", "b", "c", "z"][s % 4]),
            })
            .collect()
    }

    proptest! {
        /// The slice translation is the whole-window `put` restricted to
        /// the keys the window delta touches: over a random keyed table,
        /// a random composed view and a random window edit (upserts,
        /// deletes, inserts over hidden rows' keys, rows failing the
        /// view's predicates), translating the edit's window delta over
        /// the touched base rows gives `Delta::between(base, put(base,
        /// edited))`. A row that does not fit is refused by both, and a
        /// pre-image whose base row went away conflicts.
        #[test]
        fn slice_translation_is_the_whole_put_restricted_to_the_touched_keys(
            rows in proptest::collection::vec((0i64..40, 0usize..3, -20i64..20), 0..40),
            stages in proptest::collection::vec((0u8..9, -10i64..10), 1..5),
            edits in proptest::collection::vec((0u8..4, 0i64..45, 0usize..4, -20i64..20), 1..8),
        ) {
            let schema = Schema::build(
                &[("id", ValueType::Int), ("grp", ValueType::Str), ("val", ValueType::Int)],
                &["id"],
            )
            .unwrap();
            let mut base = Table::new(schema.clone());
            for (id, g, v) in rows {
                base.upsert(row![id, ["a", "b", "c"][g], v]).unwrap();
            }
            let mut def = ViewDef::base();
            for (choice, x) in stages {
                let next = stage(def.clone(), choice, x);
                if next.compile_schema(&schema).is_ok() {
                    def = next;
                }
            }
            let (lens, view_schema) = def.compile_schema(&schema).unwrap();
            let window = lens.get(&base);
            let hidden: Vec<i64> = base
                .rows()
                .filter(|r| window.get_by_key(&base.key_of(r)).is_none())
                .filter_map(|r| r[0].as_int())
                .collect();
            let mut edited = window.clone();
            for (kind, id, s, n) in edits {
                match kind {
                    0 | 1 => {
                        edited.upsert(view_row(&view_schema, id, s, n)).unwrap();
                    }
                    2 => {
                        edited.delete_by_key(&row![id]);
                    }
                    _ if !hidden.is_empty() => {
                        let over = hidden[id as usize % hidden.len()];
                        edited.upsert(view_row(&view_schema, over, s, n)).unwrap();
                    }
                    _ => {}
                }
            }
            let delta = Delta::between(&window, &edited).unwrap();
            let whole = Delta::between(&base, &lens.put(base.clone(), edited.clone())).unwrap();
            let slice_of = |from: &Table| {
                let from = from.clone();
                move |keys: &BTreeSet<Row>| {
                    let rows = keys.iter().filter_map(|k| from.get_by_key(k).cloned());
                    Ok(Table::from_rows(from.schema().clone(), rows)?)
                }
            };
            let sliced = window_delta_to_base(&lens, &view_schema, "v", &delta, slice_of(&base));
            prop_assert_eq!(sliced, Ok(whole));

            // A row of the wrong arity: the window refuses it, and so
            // does the translation, as a store error.
            let mut bad_row = view_row(&view_schema, 41, 0, 0);
            bad_row.push(Value::Int(0));
            prop_assert!(window.clone().upsert(bad_row.clone()).is_err());
            let mut bad = delta.clone();
            bad.inserted.push(bad_row);
            let refused = window_delta_to_base(&lens, &view_schema, "v", &bad, slice_of(&base));
            prop_assert!(matches!(refused, Err(EngineError::Store(_))), "{:?}", refused);

            // A deleted pre-image whose base row went away conflicts.
            if let Some(gone) = delta.deleted.first() {
                let mut moved_on = base.clone();
                moved_on.delete_by_key(&row![gone[view_schema.index_of("id").unwrap()].clone()]);
                let stale = window_delta_to_base(&lens, &view_schema, "v", &delta, slice_of(&moved_on));
                prop_assert!(matches!(stale, Err(EngineError::Conflict { .. })), "{:?}", stale);
            }
        }
    }
}
