//! [`ViewDef`]: a declarative AST for single-table view definitions that
//! compiles to a composed bidirectional lens.
//!
//! This is the "view definition language" a database exposes to clients:
//! a fragment of the relational algebra (select / project / rename) whose
//! every operator is bidirectionalisable, compiled from the base table's
//! schema by [`ViewDef::compile_schema`] into one `Lens<Table, Table>` via
//! ordinary lens composition — and therefore, via Lemma 4, usable as an
//! entangled state monad over the base table.

use esm_lens::{DeltaLens, DeltaOutcome, Lens};
use esm_store::row::project_row;
use esm_store::{BoundPredicate, Delta, Predicate, Row, Schema, StoreError, Table, Value};

use crate::project::project_lens_checked;
use crate::rename::rename_lens;
use crate::select::select_lens;

/// A compiled view: base table to view window, with delta propagation.
pub type ViewLens = DeltaLens<Table, Table, Delta>;

/// A bidirectional view definition over a single base table.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewDef {
    /// The base table itself.
    Base,
    /// Filter rows by a predicate.
    Select(Box<ViewDef>, Predicate),
    /// Keep only the named columns (with defaults for re-created rows).
    Project(Box<ViewDef>, Vec<String>, Vec<(String, Value)>),
    /// Rename columns.
    Rename(Box<ViewDef>, Vec<(String, String)>),
}

impl ViewDef {
    /// Start from the base table.
    pub fn base() -> ViewDef {
        ViewDef::Base
    }

    /// Filter by predicate.
    pub fn select(self, pred: Predicate) -> ViewDef {
        ViewDef::Select(Box::new(self), pred)
    }

    /// Project onto columns, with defaults for hidden columns of created
    /// rows.
    pub fn project(self, cols: &[&str], defaults: &[(&str, Value)]) -> ViewDef {
        ViewDef::Project(
            Box::new(self),
            cols.iter().map(|c| c.to_string()).collect(),
            defaults
                .iter()
                .map(|(c, v)| (c.to_string(), v.clone()))
                .collect(),
        )
    }

    /// Rename columns.
    pub fn rename(self, renames: &[(&str, &str)]) -> ViewDef {
        ViewDef::Rename(
            Box::new(self),
            renames
                .iter()
                .map(|(o, n)| (o.to_string(), n.to_string()))
                .collect(),
        )
    }

    /// Base-table columns that this view's select stages constrain with
    /// index-servable comparisons (`col ⋈ literal` conjuncts), collected
    /// only from stages that still see the base schema (i.e. before any
    /// project/rename). [`crate::RelationalSession`], whose every read
    /// re-runs the lens `get`, indexes these columns so its reads probe
    /// instead of scanning. An engine that maintains its windows from
    /// deltas runs `get` only to build a window, and builds no index.
    pub fn index_candidates(&self) -> Vec<String> {
        // Returns whether `def`'s output schema is still the base schema.
        fn collect(def: &ViewDef, out: &mut Vec<String>) -> bool {
            match def {
                ViewDef::Base => true,
                ViewDef::Select(inner, pred) => {
                    let over_base = collect(inner, out);
                    if over_base {
                        for col in pred.probeable_columns() {
                            if !out.contains(&col) {
                                out.push(col);
                            }
                        }
                    }
                    over_base
                }
                ViewDef::Project(inner, _, _) | ViewDef::Rename(inner, _) => {
                    collect(inner, out);
                    false
                }
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// The tightest bounds every select stage that still sees the base
    /// schema implies on `column` (their conjunction — the same
    /// base-schema discipline as [`ViewDef::index_candidates`]). With
    /// `column` a key column, a sharded engine uses this to prune view
    /// reads and writes to the shards whose key range the view window can
    /// touch; views that do not constrain the key come back unbounded.
    pub fn key_bounds(&self, column: &str) -> (std::ops::Bound<Value>, std::ops::Bound<Value>) {
        // Returns whether `def`'s output schema is still the base schema.
        fn collect(def: &ViewDef, preds: &mut Vec<Predicate>) -> bool {
            match def {
                ViewDef::Base => true,
                ViewDef::Select(inner, pred) => {
                    let over_base = collect(inner, preds);
                    if over_base {
                        preds.push(pred.clone());
                    }
                    over_base
                }
                ViewDef::Project(inner, _, _) | ViewDef::Rename(inner, _) => {
                    collect(inner, preds);
                    false
                }
            }
        }
        let mut preds = Vec::new();
        collect(self, &mut preds);
        match preds.into_iter().reduce(Predicate::and) {
            Some(combined) => combined.value_bounds(column),
            None => (std::ops::Bound::Unbounded, std::ops::Bound::Unbounded),
        }
    }

    /// Compile against the base table's schema: the view's delta lens
    /// and the schema its windows have.
    ///
    /// Each stage is validated against the schema it will see, worked out
    /// statically ([`Schema::project`], [`Schema::rename`]); no lens runs
    /// here, so compiling never touches a row. `Base` adds no stage of its
    /// own — the identity lens is the unit of composition (`id ; l = l`) —
    /// so a select over the base compiles to exactly one select lens. A
    /// view that is `Base` alone is the whole table, and compiles to the
    /// identity.
    ///
    /// The returned lens also maps committed base-table [`Delta`]s to view
    /// deltas, so an engine can maintain a materialized window
    /// incrementally instead of re-running the lens `get` per read. Every
    /// relational stage propagates exactly:
    /// * **select** filters the delta's rows by its predicate (an
    ///   evaluation error falls back to [`DeltaOutcome::Rebuild`]);
    /// * **project** maps rows through the projection — exact because the
    ///   compiled lens retains the key, so distinct base rows never merge;
    /// * **rename** passes rows through untouched (schema-only change).
    pub fn compile_schema(&self, base: &Schema) -> Result<(ViewLens, Schema), StoreError> {
        let (stages, schema) = self.compile_stages(base)?;
        let lens =
            stages.unwrap_or_else(|| DeltaLens::new(esm_lens::combinators::id(), rows_unchanged));
        Ok((lens, schema))
    }

    /// [`ViewDef::compile_schema`] against `base`'s schema (its rows are
    /// never read).
    pub fn compile_delta(&self, base: &Table) -> Result<ViewLens, StoreError> {
        self.compile_schema(base.schema()).map(|(lens, _)| lens)
    }

    /// [`ViewDef::compile_delta`] without the delta propagator: the plain
    /// lens, its stages validated against `base`'s schema.
    pub fn compile(&self, base: &Table) -> Result<Lens<Table, Table>, StoreError> {
        self.compile_delta(base).map(|lens| lens.lens().clone())
    }

    /// The view compiler: the stages after `base` composed into one lens
    /// (`None` for `Base`, which adds none), and the schema they output.
    fn compile_stages(&self, base: &Schema) -> Result<(Option<ViewLens>, Schema), StoreError> {
        let (prefix, stage, out) = match self {
            ViewDef::Base => return Ok((None, base.clone())),
            ViewDef::Select(inner, pred) => {
                let (prefix, mid) = inner.compile_stages(base)?;
                let stage =
                    DeltaLens::new(select_lens(pred.clone()), select_delta(pred.bind(&mid)?));
                (prefix, stage, mid)
            }
            ViewDef::Project(inner, cols, defaults) => {
                let (prefix, mid) = inner.compile_stages(base)?;
                let cols_ref: Vec<&str> = cols.iter().map(String::as_str).collect();
                let defaults_ref: Vec<(&str, Value)> = defaults
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.clone()))
                    .collect();
                let lens = project_lens_checked(&mid, &cols_ref, &defaults_ref)?;
                let indices = mid.indices_of(cols)?;
                let stage = DeltaLens::new(lens, move |d: &Delta| {
                    DeltaOutcome::View(Delta {
                        inserted: d
                            .inserted
                            .iter()
                            .map(|r| project_row(r, &indices))
                            .collect(),
                        deleted: d.deleted.iter().map(|r| project_row(r, &indices)).collect(),
                    })
                });
                (prefix, stage, mid.project(cols)?)
            }
            ViewDef::Rename(inner, renames) => {
                let (prefix, mid) = inner.compile_stages(base)?;
                let out = mid.rename(renames)?;
                // The put renames back; refuse renames it could not undo
                // (one column renamed twice).
                let back: Vec<(String, String)> = renames
                    .iter()
                    .map(|(old, new)| (new.clone(), old.clone()))
                    .collect();
                if out.rename(&back).ok().as_ref() != Some(&mid) {
                    return Err(StoreError::BadQuery(format!(
                        "rename {renames:?} cannot be inverted"
                    )));
                }
                let renames_ref: Vec<(&str, &str)> = renames
                    .iter()
                    .map(|(o, n)| (o.as_str(), n.as_str()))
                    .collect();
                // Renaming changes the header, not the rows.
                let stage = DeltaLens::new(rename_lens(&renames_ref), rows_unchanged);
                (prefix, stage, out)
            }
        };
        let lens = match prefix {
            Some(prefix) => prefix.then(stage),
            None => stage,
        };
        Ok((Some(lens), out))
    }
}

/// The delta propagator of a stage that leaves rows untouched: deltas pass
/// through as they are.
fn rows_unchanged(d: &Delta) -> DeltaOutcome<Delta> {
    DeltaOutcome::View(d.clone())
}

/// The select stage's delta propagator: a base change enters the view iff
/// it satisfies the predicate — inserted rows that satisfy it appear,
/// deleted rows that satisfied it disappear, everything else is invisible.
/// The predicate comes bound to the stage's input schema, so each row is
/// decided in place.
fn select_delta(
    pred: BoundPredicate,
) -> impl Fn(&Delta) -> DeltaOutcome<Delta> + Send + Sync + 'static {
    move |d: &Delta| {
        let visible = |rows: &[Row]| rows.iter().filter(|r| pred.eval(r)).cloned().collect();
        DeltaOutcome::View(Delta {
            inserted: visible(&d.inserted),
            deleted: visible(&d.deleted),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Operand, Row, Schema, ValueType};

    fn employees() -> Table {
        Table::from_rows(
            Schema::build(
                &[
                    ("eid", ValueType::Int),
                    ("name", ValueType::Str),
                    ("dept", ValueType::Str),
                    ("salary", ValueType::Int),
                ],
                &["eid"],
            )
            .unwrap(),
            vec![
                row![1, "ada", "research", 90_000],
                row![2, "alan", "ops", 80_000],
                row![3, "grace", "research", 95_000],
            ],
        )
        .unwrap()
    }

    #[test]
    fn multi_stage_view_compiles_and_roundtrips() {
        let def = ViewDef::base()
            .select(Predicate::eq(
                Operand::col("dept"),
                Operand::val("research"),
            ))
            .project(
                &["eid", "name"],
                &[
                    ("dept", Value::str("research")),
                    ("salary", Value::Int(50_000)),
                ],
            )
            .rename(&[("name", "researcher")]);
        let base = employees();
        let lens = def.compile(&base).unwrap();

        let v = lens.get(&base);
        assert_eq!(v.schema().column_names(), vec!["eid", "researcher"]);
        assert_eq!(v.len(), 2);

        // Edit the view: rename grace, add a new researcher.
        let v2 = Table::from_rows(
            v.schema().clone(),
            vec![row![1, "ada"], row![3, "grace hopper"], row![4, "barbara"]],
        )
        .unwrap();
        let base2 = lens.put(base, v2);
        // grace renamed, salary preserved.
        assert!(base2.contains(&row![3, "grace hopper", "research", 95_000]));
        // barbara created with stage defaults.
        assert!(base2.contains(&row![4, "barbara", "research", 50_000]));
        // ops row untouched.
        assert!(base2.contains(&row![2, "alan", "ops", 80_000]));
    }

    /// Every stage is validated against the schema it will see, which
    /// the compiler works out from the base schema alone: compiling
    /// against the bare schema or an empty table fails the same way as
    /// against a populated table.
    #[test]
    fn compile_validates_against_the_intermediate_schema() {
        let schema = employees().schema().clone();
        let research = || Predicate::eq(Operand::col("dept"), Operand::val("research"));
        let bad = [
            // A select on a column projected away.
            ViewDef::base()
                .project(&["eid", "name"], &[])
                .select(research()),
            // A project that drops the key.
            ViewDef::base().select(research()).project(&["name"], &[]),
            // A rename of an unknown column.
            ViewDef::base().rename(&[("ghost", "x")]),
            // A rename onto an existing column, and one it cannot undo.
            ViewDef::base().rename(&[("name", "dept")]),
            ViewDef::base().rename(&[("name", "a"), ("name", "b")]),
            // A comparison across types.
            ViewDef::base().select(Predicate::eq(Operand::col("salary"), Operand::val("x"))),
            ViewDef::base().select(Predicate::lt(Operand::col("eid"), Operand::col("name"))),
            // Defaults that are mistyped, name no column, or name a kept one.
            ViewDef::base().project(&["eid", "name"], &[("salary", Value::str("x"))]),
            ViewDef::base().project(&["eid", "name"], &[("ghost", Value::Int(1))]),
            ViewDef::base().project(&["eid", "name"], &[("name", Value::str("x"))]),
        ];
        for def in &bad {
            assert!(def.compile_schema(&schema).is_err(), "{def:?}");
            assert!(def.compile(&Table::new(schema.clone())).is_err(), "{def:?}");
            assert!(def.compile_delta(&employees()).is_err(), "{def:?}");
        }
    }

    #[test]
    fn project_must_keep_the_key() {
        let def = ViewDef::base().project(&["name"], &[]);
        assert!(def.compile(&employees()).is_err());
    }

    #[test]
    fn index_candidates_stop_at_schema_changes() {
        let over_base = ViewDef::base()
            .select(Predicate::eq(
                Operand::col("dept"),
                Operand::val("research"),
            ))
            .select(
                Predicate::ge(Operand::col("salary"), Operand::val(1))
                    .and(Predicate::ne(Operand::col("name"), Operand::val("x"))),
            );
        // dept and salary are probe-able; `ne` never is.
        assert_eq!(over_base.index_candidates(), vec!["dept", "salary"]);

        // After a rename the select no longer sees the base schema.
        let after_rename = ViewDef::base()
            .rename(&[("dept", "team")])
            .select(Predicate::eq(
                Operand::col("team"),
                Operand::val("research"),
            ));
        assert!(after_rename.index_candidates().is_empty());
    }

    #[test]
    fn base_view_is_the_identity() {
        let base = employees();
        let lens = ViewDef::base().compile(&base).unwrap();
        assert_eq!(lens.get(&base), base);
        let (_, schema) = ViewDef::base().compile_schema(base.schema()).unwrap();
        assert_eq!(&schema, base.schema());
    }

    /// The reference semantics: fold the definition over the store's own
    /// relational operators.
    fn reference(def: &ViewDef, base: &Table) -> Table {
        match def {
            ViewDef::Base => base.clone(),
            ViewDef::Select(inner, pred) => reference(inner, base).select(pred).unwrap(),
            ViewDef::Project(inner, cols, _) => reference(inner, base).project(cols).unwrap(),
            ViewDef::Rename(inner, renames) => reference(inner, base).rename(renames).unwrap(),
        }
    }

    /// `(id, grp, val)` rows keyed on `id`, as in the engine's
    /// conformance seed.
    fn grouped(ids: impl Iterator<Item = i64>, val: impl Fn(i64) -> i64) -> Table {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("grp", ValueType::Str),
                ("val", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let rows = ids.map(|id| row![id, format!("g{}", id % 5), val(id)]);
        Table::from_rows(schema, rows).unwrap()
    }

    /// One definition, the sources it is checked on, and a view row that
    /// satisfies its predicates under a key no source holds.
    struct Shape {
        def: ViewDef,
        sources: Vec<Table>,
        fresh: Row,
    }

    /// The multi-stage employee view, and every shape of the engine
    /// conformance suite's `view_defs` (whole table, key range, non-key
    /// equality, project + rename, two selects + project).
    fn shapes() -> Vec<Shape> {
        let mut staff = employees();
        staff.upsert(row![2, "alan", "research", 81_000]).unwrap();
        staff.delete_by_key(&row![1]);
        let research = Shape {
            def: ViewDef::base()
                .select(Predicate::eq(
                    Operand::col("dept"),
                    Operand::val("research"),
                ))
                .project(
                    &["eid", "name"],
                    &[
                        ("dept", Value::str("research")),
                        ("salary", Value::Int(50_000)),
                    ],
                )
                .rename(&[("name", "researcher")]),
            sources: vec![employees(), staff, Table::new(employees().schema().clone())],
            fresh: row![9, "barbara"],
        };
        let sources = || {
            vec![
                grouped((0..80).step_by(2), |id| id * 3),
                grouped((0..80).step_by(3), |id| -id),
                grouped(std::iter::empty(), |id| id),
            ]
        };
        let shape = |def: ViewDef, fresh: Row| Shape {
            def,
            sources: sources(),
            fresh,
        };
        vec![
            research,
            shape(ViewDef::base(), row![81, "g1", 5]),
            shape(
                ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(30))),
                row![7, "g2", 70],
            ),
            shape(
                ViewDef::base().select(Predicate::eq(Operand::col("grp"), Operand::val("g1"))),
                row![85, "g1", 1],
            ),
            shape(
                ViewDef::base()
                    .project(&["id", "grp"], &[("val", Value::Int(0))])
                    .rename(&[("grp", "team")]),
                row![83, "g4"],
            ),
            shape(
                ViewDef::base()
                    .select(Predicate::ge(Operand::col("id"), Operand::val(20)))
                    .select(Predicate::lt(Operand::col("id"), Operand::val(60)))
                    .project(&["id", "val"], &[("grp", Value::str("gx"))]),
                row![41, 7],
            ),
        ]
    }

    /// Views to put back for a shape: the first source's window, the
    /// same with its last (never constrained) column changed, and the
    /// window plus the shape's fresh row. Every view holds the first
    /// window's keys, so no put sequence deletes a key and recreates it
    /// with defaults — the one place projections break (PutPut).
    fn law_views(shape: &Shape, window: &Table) -> Vec<Table> {
        let mut edited = Table::new(window.schema().clone());
        for r in window.rows() {
            let mut r = r.clone();
            let last = r.last_mut().unwrap();
            *last = match &*last {
                Value::Int(n) => Value::Int(n + 1),
                Value::Str(s) => Value::str(format!("{s}!")),
                other => other.clone(),
            };
            edited.insert(r).unwrap();
        }
        let mut grown = window.clone();
        grown.insert(shape.fresh.clone()).unwrap();
        vec![window.clone(), edited, grown]
    }

    #[test]
    fn compiled_get_matches_the_reference_evaluator() {
        for shape in shapes() {
            let (lens, schema) = shape.def.compile_schema(shape.sources[0].schema()).unwrap();
            for s in &shape.sources {
                let window = lens.get(s);
                assert_eq!(window, reference(&shape.def, s), "{:?}", shape.def);
                assert_eq!(window.schema(), &schema, "{:?}", shape.def);
            }
        }
    }

    #[test]
    fn compiled_shapes_are_very_well_behaved_in_range() {
        for shape in shapes() {
            let lens = shape.def.compile(&shape.sources[0]).unwrap();
            let views = law_views(&shape, &lens.get(&shape.sources[0]));
            let violations = esm_lens::laws::check_very_well_behaved(&lens, &shape.sources, &views);
            assert!(violations.is_empty(), "{:?}: {violations:?}", shape.def);
        }
    }

    #[test]
    fn compiling_against_an_empty_table_gives_the_same_lens() {
        for shape in shapes() {
            let populated = &shape.sources[0];
            let full = shape.def.compile_delta(populated).unwrap();
            let bare = shape
                .def
                .compile_delta(&Table::new(populated.schema().clone()))
                .unwrap();
            let views = law_views(&shape, &full.get(populated));
            for s in &shape.sources {
                assert_eq!(bare.get(s), full.get(s), "{:?}", shape.def);
                for v in &views {
                    assert_eq!(
                        bare.put(s.clone(), v.clone()),
                        full.put(s.clone(), v.clone()),
                        "{:?}",
                        shape.def
                    );
                }
                let delta = Delta::between(populated, s).unwrap();
                assert_eq!(bare.get_delta(&delta), full.get_delta(&delta));
                assert_incremental(&shape.def, populated, s);
            }
        }
    }

    /// The incremental law: `get_delta(Δbase)` applied to the old view
    /// equals `get` of the new base, for every stage combination.
    fn assert_incremental(def: &ViewDef, old_base: &Table, new_base: &Table) {
        let lens = def.compile_delta(old_base).unwrap();
        let base_delta = Delta::between(old_base, new_base).unwrap();
        match lens.get_delta(&base_delta) {
            DeltaOutcome::View(view_delta) => {
                let maintained = view_delta.apply(&lens.get(old_base)).unwrap();
                assert_eq!(maintained, lens.get(new_base), "def {def:?}");
            }
            DeltaOutcome::Rebuild => panic!("relational stages propagate exactly: {def:?}"),
        }
    }

    #[test]
    fn delta_propagation_matches_recompute_per_stage() {
        let old_base = employees();
        let mut new_base = old_base.clone();
        new_base
            .upsert(row![2, "alan", "research", 81_000])
            .unwrap(); // dept change: enters selects
        new_base.upsert(row![4, "barbara", "ops", 70_000]).unwrap(); // fresh row
        new_base.delete_by_key(&row![3]); // leaves selects

        let defs = [
            ViewDef::base(),
            ViewDef::base().select(Predicate::eq(
                Operand::col("dept"),
                Operand::val("research"),
            )),
            ViewDef::base().project(&["eid", "name"], &[("salary", Value::Int(1))]),
            ViewDef::base().rename(&[("name", "who")]),
            ViewDef::base()
                .select(Predicate::ge(Operand::col("salary"), Operand::val(80_000)))
                .project(&["eid", "name"], &[])
                .rename(&[("name", "earner")]),
        ];
        for def in &defs {
            assert_incremental(def, &old_base, &new_base);
        }
        // Hidden-column-only updates net out of a projected view.
        let mut salary_only = old_base.clone();
        salary_only
            .upsert(row![1, "ada", "research", 99_000])
            .unwrap();
        assert_incremental(&defs[2], &old_base, &salary_only);
    }

    #[test]
    fn key_bounds_intersect_base_schema_selects() {
        use std::ops::Bound;
        let def = ViewDef::base()
            .select(Predicate::ge(Operand::col("eid"), Operand::val(10)))
            .select(Predicate::lt(Operand::col("eid"), Operand::val(20)));
        assert_eq!(
            def.key_bounds("eid"),
            (
                Bound::Included(Value::Int(10)),
                Bound::Excluded(Value::Int(20))
            )
        );
        // Selects after a rename no longer see the base schema: no bound.
        let renamed = ViewDef::base()
            .rename(&[("eid", "id")])
            .select(Predicate::ge(Operand::col("id"), Operand::val(10)));
        assert_eq!(
            renamed.key_bounds("eid"),
            (Bound::Unbounded, Bound::Unbounded)
        );
        // Non-key selects leave the key unconstrained.
        let by_dept = ViewDef::base().select(Predicate::eq(
            Operand::col("dept"),
            Operand::val("research"),
        ));
        assert_eq!(
            by_dept.key_bounds("eid"),
            (Bound::Unbounded, Bound::Unbounded)
        );
    }
}
