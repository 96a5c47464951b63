//! [`ViewDef`]: a declarative AST for single-table view definitions that
//! compiles to a composed bidirectional lens.
//!
//! This is the "view definition language" a database exposes to clients:
//! a fragment of the relational algebra (select / project / rename) whose
//! every operator is bidirectionalisable, compiled by [`ViewDef::compile`]
//! into one `Lens<Table, Table>` via ordinary lens composition — and
//! therefore, via Lemma 4, usable as an entangled state monad over the
//! base table.

use esm_lens::{DeltaLens, DeltaOutcome, Lens};
use esm_store::row::project_row;
use esm_store::{Delta, Predicate, Schema, StoreError, Table, Value};

use crate::project::project_lens_checked;
use crate::rename::rename_lens;
use crate::select::select_lens;

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
    /// project/rename). A session can create secondary indexes on these
    /// columns so reading the view seeks instead of scanning.
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

    /// [`ViewDef::compile`] with a delta propagator: the returned
    /// [`DeltaLens`] additionally maps committed base-table [`Delta`]s to
    /// view deltas, so an engine can maintain a materialized window
    /// incrementally instead of re-running the lens `get` per read.
    ///
    /// Every relational stage propagates exactly:
    /// * **select** filters the delta's rows by its predicate (an
    ///   evaluation error falls back to [`DeltaOutcome::Rebuild`]);
    /// * **project** maps rows through the projection — exact because the
    ///   compiled lens retains the key, so distinct base rows never merge;
    /// * **rename** passes rows through untouched (schema-only change).
    pub fn compile_delta(
        &self,
        base: &Table,
    ) -> Result<DeltaLens<Table, Table, Delta>, StoreError> {
        match self {
            ViewDef::Base => Ok(DeltaLens::new(esm_lens::combinators::id(), |d: &Delta| {
                DeltaOutcome::View(d.clone())
            })),
            ViewDef::Select(inner, pred) => {
                let prefix = inner.compile_delta(base)?;
                let mid = prefix.get(base);
                pred.validate(mid.schema())?;
                let stage = DeltaLens::new(
                    select_lens(pred.clone()),
                    select_delta(pred.clone(), mid.schema().clone()),
                );
                Ok(prefix.then(stage))
            }
            ViewDef::Project(inner, cols, defaults) => {
                let prefix = inner.compile_delta(base)?;
                let mid = prefix.get(base);
                let cols_ref: Vec<&str> = cols.iter().map(String::as_str).collect();
                let defaults_ref: Vec<(&str, Value)> = defaults
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.clone()))
                    .collect();
                let lens = project_lens_checked(&mid, &cols_ref, &defaults_ref)?;
                let indices = mid.schema().indices_of(cols)?;
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
                Ok(prefix.then(stage))
            }
            ViewDef::Rename(inner, renames) => {
                let prefix = inner.compile_delta(base)?;
                let mid = prefix.get(base);
                for (old, _) in renames {
                    mid.schema().index_of(old)?;
                }
                let renames_ref: Vec<(&str, &str)> = renames
                    .iter()
                    .map(|(o, n)| (o.as_str(), n.as_str()))
                    .collect();
                // Renaming changes the header, not the rows: deltas pass
                // through untouched.
                let stage = DeltaLens::new(rename_lens(&renames_ref), |d: &Delta| {
                    DeltaOutcome::View(d.clone())
                });
                Ok(prefix.then(stage))
            }
        }
    }

    /// Compile to a lens, validating each stage against the schema it will
    /// actually see (computed by running the prefix against `base`).
    pub fn compile(&self, base: &Table) -> Result<Lens<Table, Table>, StoreError> {
        match self {
            ViewDef::Base => Ok(esm_lens::combinators::id()),
            ViewDef::Select(inner, pred) => {
                let prefix = inner.compile(base)?;
                let mid = prefix.get(base);
                pred.validate(mid.schema())?;
                Ok(prefix.then(select_lens(pred.clone())))
            }
            ViewDef::Project(inner, cols, defaults) => {
                let prefix = inner.compile(base)?;
                let mid = prefix.get(base);
                let cols_ref: Vec<&str> = cols.iter().map(String::as_str).collect();
                let defaults_ref: Vec<(&str, Value)> = defaults
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.clone()))
                    .collect();
                let l = project_lens_checked(&mid, &cols_ref, &defaults_ref)?;
                Ok(prefix.then(l))
            }
            ViewDef::Rename(inner, renames) => {
                let prefix = inner.compile(base)?;
                let mid = prefix.get(base);
                for (old, _) in renames {
                    mid.schema().index_of(old)?;
                }
                let renames_ref: Vec<(&str, &str)> = renames
                    .iter()
                    .map(|(o, n)| (o.as_str(), n.as_str()))
                    .collect();
                Ok(prefix.then(rename_lens(&renames_ref)))
            }
        }
    }
}

/// The select stage's delta propagator: a base change enters the view iff
/// it satisfies the predicate — inserted rows that satisfy it appear,
/// deleted rows that satisfied it disappear, everything else is invisible.
/// A predicate evaluation error (possible only for column/column
/// comparisons over mixed-type rows) conservatively asks for a rebuild.
fn select_delta(
    pred: Predicate,
    schema: Schema,
) -> impl Fn(&Delta) -> DeltaOutcome<Delta> + Send + Sync + 'static {
    move |d: &Delta| {
        let mut out = Delta::empty();
        for row in &d.inserted {
            match pred.eval(&schema, row) {
                Ok(true) => out.inserted.push(row.clone()),
                Ok(false) => {}
                Err(_) => return DeltaOutcome::Rebuild,
            }
        }
        for row in &d.deleted {
            match pred.eval(&schema, row) {
                Ok(true) => out.deleted.push(row.clone()),
                Ok(false) => {}
                Err(_) => return DeltaOutcome::Rebuild,
            }
        }
        DeltaOutcome::View(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Operand, Schema, ValueType};

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

    #[test]
    fn compile_validates_against_the_intermediate_schema() {
        // Selecting on a column that projection has already dropped.
        let def = ViewDef::base()
            .project(&["eid", "name"], &[])
            .select(Predicate::eq(Operand::col("dept"), Operand::val("x")));
        assert!(def.compile(&employees()).is_err());
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
