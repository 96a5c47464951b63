//! The project lens: `π_cols` as a bidirectional view, with defaults for
//! the hidden columns.

use std::collections::BTreeMap;

use esm_lens::Lens;
use esm_store::{Row, Schema, StoreError, Table, Value};

/// The project lens onto `cols`:
///
/// ```text
/// get(s)    = π_cols(s)
/// put(s, v) = for each view row: merge with the key-matched source row
///             (hidden columns from the source), or extend with `defaults`
///             for fresh keys; source rows whose key is absent from the
///             view are deleted.
/// ```
///
/// `defaults` supplies values for the dropped columns of newly-created
/// rows; unspecified dropped columns use their type's neutral default.
///
/// Well-behavedness domain (checked by the law suites):
/// * requires `cols ⊇ key(s)` — otherwise projection merges rows and
///   `put(s, get(s))` loses data. [`project_lens_checked`] enforces this.
/// * (GetPut)/(PutGet): unconditional given the key condition.
/// * (PutPut): fails across delete-then-recreate sequences (the recreated
///   row gets defaults, not its old hidden values) — the classic
///   relational-lens caveat, demonstrated in tests.
pub fn project_lens(cols: &[&str], defaults: &[(&str, Value)]) -> Lens<Table, Table> {
    let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
    let defaults: BTreeMap<String, Value> = defaults
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let cols_get = cols.clone();
    Lens::new(
        move |s: &Table| s.project(&cols_get).expect("projection columns must exist"),
        move |s: Table, v: Table| put_project(&s, &v, &cols, &defaults).expect("project lens put"),
    )
}

/// [`project_lens`], validated against the source schema up front: the
/// source declares a key and `cols` retains it, every column in `cols`
/// exists, and each default names a column the projection drops and has
/// that column's type — so the lens's `put` never fails on a view of its
/// output schema.
pub fn project_lens_checked(
    source: &Schema,
    cols: &[&str],
    defaults: &[(&str, Value)],
) -> Result<Lens<Table, Table>, StoreError> {
    let key = source.key();
    if key.is_empty() {
        return Err(StoreError::BadQuery(
            "project lens requires the source to declare a key".into(),
        ));
    }
    for k in key {
        if !cols.contains(&k.as_str()) {
            return Err(StoreError::BadQuery(format!(
                "project lens must retain key column {k}"
            )));
        }
    }
    for c in cols {
        source.index_of(c)?;
    }
    for (name, value) in defaults {
        let column = &source.columns()[source.index_of(name)?];
        if cols.contains(name) {
            return Err(StoreError::BadQuery(format!(
                "project default for {name} names a column the projection keeps"
            )));
        }
        if value.value_type() != column.ty {
            return Err(StoreError::TypeMismatch {
                column: column.name.clone(),
                expected: column.ty,
                got: value.value_type(),
            });
        }
    }
    Ok(project_lens(cols, defaults))
}

fn put_project(
    s: &Table,
    v: &Table,
    cols: &[String],
    defaults: &BTreeMap<String, Value>,
) -> Result<Table, StoreError> {
    let src_schema = s.schema();
    let view_schema = v.schema();
    // For each source column: position in the view (if visible).
    let plan: Vec<(usize, Option<usize>)> = src_schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let vpos = cols.iter().position(|vc| *vc == c.name).map(|p| {
                view_schema
                    .index_of(&cols[p])
                    .expect("view schema must expose the projected columns")
            });
            (i, vpos)
        })
        .collect();
    // Key indices of the source, mapped to view positions.
    let key_view_positions: Vec<usize> = src_schema
        .key_indices()
        .iter()
        .map(|&ki| {
            plan[ki]
                .1
                .expect("project lens requires the view to retain all key columns")
        })
        .collect();

    let mut out = Table::new(src_schema.clone());
    for vrow in v.rows() {
        let key: Row = key_view_positions
            .iter()
            .map(|&i| vrow[i].clone())
            .collect();
        let existing = s.get_by_key(&key);
        let mut row: Row = Vec::with_capacity(src_schema.arity());
        for (i, vpos) in &plan {
            match vpos {
                Some(p) => row.push(vrow[*p].clone()),
                None => match existing {
                    Some(srow) => row.push(srow[*i].clone()),
                    None => {
                        let col = &src_schema.columns()[*i];
                        let d = defaults
                            .get(&col.name)
                            .cloned()
                            .unwrap_or_else(|| col.ty.default_value());
                        row.push(d);
                    }
                },
            }
        }
        out.insert(row)?;
    }
    Ok(out)
}

/// Drop a single column (project onto everything else), with a default for
/// re-created rows. The dropped column must not be part of the key.
pub fn drop_lens(
    source: &Table,
    col: &str,
    default: Value,
) -> Result<Lens<Table, Table>, StoreError> {
    let keep: Vec<String> = source
        .schema()
        .column_names()
        .into_iter()
        .filter(|c| *c != col)
        .map(|c| c.to_string())
        .collect();
    if keep.len() == source.schema().arity() {
        return Err(StoreError::NoSuchColumn(col.to_string()));
    }
    let keep_ref: Vec<&str> = keep.iter().map(String::as_str).collect();
    project_lens_checked(source.schema(), &keep_ref, &[(col, default)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_lens::laws::{check_put_put, check_well_behaved};
    use esm_store::{row, ValueType};

    fn people(rows: Vec<Row>) -> Table {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("salary", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        Table::from_rows(schema, rows).unwrap()
    }

    fn view(rows: Vec<Row>) -> Table {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("name", ValueType::Str)], &["id"]).unwrap();
        Table::from_rows(schema, rows).unwrap()
    }

    fn lens() -> Lens<Table, Table> {
        project_lens(&["id", "name"], &[("salary", Value::Int(30_000))])
    }

    #[test]
    fn get_projects() {
        let t = people(vec![row![1, "ada", 90_000]]);
        let v = lens().get(&t);
        assert_eq!(v.schema().column_names(), vec!["id", "name"]);
        assert!(v.contains(&row![1, "ada"]));
    }

    #[test]
    fn put_preserves_hidden_columns_for_matched_keys() {
        let t = people(vec![row![1, "ada", 90_000]]);
        let t2 = lens().put(t, view(vec![row![1, "ada lovelace"]]));
        assert!(t2.contains(&row![1, "ada lovelace", 90_000]));
    }

    #[test]
    fn put_uses_defaults_for_fresh_keys() {
        let t = people(vec![]);
        let t2 = lens().put(t, view(vec![row![7, "newbie"]]));
        assert!(t2.contains(&row![7, "newbie", 30_000]));
    }

    #[test]
    fn put_deletes_rows_missing_from_view() {
        let t = people(vec![row![1, "ada", 90_000], row![2, "alan", 80_000]]);
        let t2 = lens().put(t, view(vec![row![2, "alan"]]));
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn well_behaved_when_key_is_retained() {
        let l = lens();
        let sources = [
            people(vec![row![1, "ada", 90_000], row![2, "alan", 80_000]]),
            people(vec![]),
        ];
        let views = [
            view(vec![row![1, "x"]]),
            view(vec![]),
            view(vec![row![3, "y"]]),
        ];
        assert!(check_well_behaved(&l, &sources, &views).is_empty());
    }

    #[test]
    fn put_put_fails_across_delete_recreate() {
        // Delete row 1 (empty view), then recreate it: the salary resets
        // to the default, so put∘put ≠ put.
        let l = lens();
        let sources = [people(vec![row![1, "ada", 90_000]])];
        let views = [view(vec![]), view(vec![row![1, "ada"]])];
        assert!(!check_put_put(&l, &sources, &views).is_empty());
    }

    #[test]
    fn checked_constructor_rejects_key_dropping() {
        let t = people(vec![]);
        assert!(project_lens_checked(t.schema(), &["name"], &[]).is_err());
        assert!(project_lens_checked(t.schema(), &["id", "name"], &[]).is_ok());
    }

    #[test]
    fn checked_constructor_rejects_ill_fitting_defaults() {
        let schema = people(vec![]).schema().clone();
        let cols = ["id", "name"];
        let check = |defaults: &[(&str, Value)]| project_lens_checked(&schema, &cols, defaults);
        assert!(check(&[("salary", Value::Int(1))]).is_ok());
        assert!(matches!(
            check(&[("salary", Value::str("x"))]),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            check(&[("ghost", Value::Int(1))]),
            Err(StoreError::NoSuchColumn(_))
        ));
        assert!(matches!(
            check(&[("name", Value::str("kept"))]),
            Err(StoreError::BadQuery(_))
        ));
    }

    #[test]
    fn drop_lens_hides_one_column() {
        let t = people(vec![row![1, "ada", 90_000]]);
        let l = drop_lens(&t, "salary", Value::Int(1)).unwrap();
        let v = l.get(&t);
        assert_eq!(v.schema().column_names(), vec!["id", "name"]);
        let t2 = l.put(t, view(vec![row![1, "ada"], row![2, "new"]]));
        assert!(t2.contains(&row![1, "ada", 90_000]));
        assert!(t2.contains(&row![2, "new", 1]));
    }

    #[test]
    fn drop_lens_rejects_unknown_columns() {
        let t = people(vec![]);
        assert!(drop_lens(&t, "ghost", Value::Int(0)).is_err());
    }
}
