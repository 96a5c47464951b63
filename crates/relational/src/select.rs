//! The select lens: `σ_P` as a bidirectional view.

use std::collections::BTreeSet;

use esm_lens::Lens;
use esm_store::{Predicate, Row, StoreError, Table};

/// The select lens for predicate `p`:
///
/// ```text
/// get(s)    = σ_p(s)
/// put(s, v) = (s ∖ σ_p(s)) ⊎ v        (⊎ = key-respecting upsert)
/// ```
///
/// Rows currently visible are replaced wholesale by the edited view; rows
/// invisible to the view survive, except that a view row whose key
/// collides with an invisible row *captures* the key (the view edit is
/// authoritative).
///
/// Well-behavedness domain (checked by the law suites):
/// * (GetPut), (PutPut): unconditional.
/// * (PutGet): requires every view row to satisfy `p` — the relational
///   lens "view typing" obligation, testable with
///   [`validate_select_view`].
pub fn select_lens(p: Predicate) -> Lens<Table, Table> {
    let p_get = p.clone();
    Lens::new(
        move |s: &Table| {
            s.select(&p_get)
                .expect("select lens predicate must fit the schema")
        },
        move |s: Table, v: Table| {
            let visible = s
                .select(&p)
                .expect("select lens predicate must fit the schema");
            let mut out = s;
            // Touch only what differs: a visible row whose key no view row
            // takes is deleted, and a view row is upserted only when it
            // is not already there. Same table as deleting every visible
            // row and upserting every view row, but unchanged rows keep
            // sharing their chunks with the source.
            let same_keys = v.schema().key_indices() == out.schema().key_indices();
            let taken: BTreeSet<Row> = if same_keys {
                BTreeSet::new()
            } else {
                v.rows().map(|row| out.key_of(row)).collect()
            };
            for row in visible.rows() {
                let key = out.key_of(row);
                let kept = if same_keys {
                    v.get_by_key(&key).is_some()
                } else {
                    taken.contains(&key)
                };
                if !kept {
                    out.delete(row);
                }
            }
            for row in v.rows() {
                if !out.contains(row) {
                    out.upsert(row.clone())
                        .expect("view rows must fit the source schema");
                }
            }
            out
        },
    )
}

/// Check the select lens's view-typing obligation: every row of `v` must
/// satisfy `p`. Returns the offending rows.
pub fn validate_select_view(p: &Predicate, v: &Table) -> Result<(), StoreError> {
    let bound = p.bind(v.schema())?;
    for row in v.rows() {
        if !bound.eval(row) {
            return Err(StoreError::BadQuery(format!(
                "view row {row:?} does not satisfy the selection predicate {p}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_lens::laws::{check_put_get, check_very_well_behaved};
    use esm_store::{row, Operand, Schema, Value, ValueType};

    fn people(rows: Vec<Vec<Value>>) -> Table {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("age", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        Table::from_rows(schema, rows).unwrap()
    }

    fn adults() -> Predicate {
        Predicate::ge(Operand::col("age"), Operand::val(18))
    }

    #[test]
    fn get_is_selection() {
        let l = select_lens(adults());
        let t = people(vec![row![1, "ada", 36], row![2, "kid", 9]]);
        let v = l.get(&t);
        assert_eq!(v.len(), 1);
        assert!(v.contains(&row![1, "ada", 36]));
    }

    #[test]
    fn put_replaces_visible_rows_and_keeps_invisible_ones() {
        let l = select_lens(adults());
        let t = people(vec![row![1, "ada", 36], row![2, "kid", 9]]);
        // Edit the view: change ada's age, add alan.
        let v = people(vec![row![1, "ada", 37], row![3, "alan", 41]]);
        let t2 = l.put(t, v);
        assert_eq!(t2.len(), 3);
        assert!(t2.contains(&row![1, "ada", 37]));
        assert!(t2.contains(&row![2, "kid", 9])); // invisible row survives
        assert!(t2.contains(&row![3, "alan", 41]));
    }

    #[test]
    fn deleting_view_rows_deletes_source_rows() {
        let l = select_lens(adults());
        let t = people(vec![row![1, "ada", 36], row![2, "kid", 9]]);
        let empty_view = people(vec![]);
        let t2 = l.put(t, empty_view);
        assert_eq!(t2.len(), 1);
        assert!(t2.contains(&row![2, "kid", 9]));
    }

    #[test]
    fn view_edit_captures_colliding_keys() {
        // A view row re-using an invisible row's key wins.
        let l = select_lens(adults());
        let t = people(vec![row![2, "kid", 9]]);
        let v = people(vec![row![2, "grown kid", 19]]);
        let t2 = l.put(t, v);
        assert_eq!(t2.len(), 1);
        assert!(t2.contains(&row![2, "grown kid", 19]));
    }

    #[test]
    fn lawful_on_predicate_respecting_views() {
        let l = select_lens(adults());
        let sources = [
            people(vec![row![1, "ada", 36], row![2, "kid", 9]]),
            people(vec![]),
            people(vec![row![5, "x", 20]]),
        ];
        let views = [
            people(vec![row![1, "ada", 40]]),
            people(vec![]),
            people(vec![row![9, "new", 77], row![1, "ada", 18]]),
        ];
        assert!(check_very_well_behaved(&l, &sources, &views).is_empty());
    }

    #[test]
    fn put_get_fails_on_invalid_views() {
        // A view row violating the predicate disappears on re-get: the
        // documented typing obligation.
        let l = select_lens(adults());
        let sources = [people(vec![])];
        let bad_views = [people(vec![row![7, "baby", 1]])];
        assert!(!check_put_get(&l, &sources, &bad_views).is_empty());
        assert!(validate_select_view(&adults(), &bad_views[0]).is_err());
    }

    #[test]
    fn validate_accepts_good_views() {
        assert!(validate_select_view(&adults(), &people(vec![row![1, "a", 30]])).is_ok());
    }
}
