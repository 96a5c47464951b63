//! A small predicate language over rows, used by σ (select) and the
//! relational select lens. A predicate names columns; binding it to a
//! schema ([`Predicate::bind`]) resolves them to positions and checks
//! its types once, and the [`BoundPredicate`] decides each row.

use crate::error::StoreError;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{Value, ValueType};

/// A scalar operand: a column reference or a literal value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// The value of a named column in the current row.
    Col(String),
    /// A literal.
    Const(Value),
}

impl Operand {
    /// A column reference.
    pub fn col(name: impl Into<String>) -> Operand {
        Operand::Col(name.into())
    }

    /// A literal value.
    pub fn val(v: impl Into<Value>) -> Operand {
        Operand::Const(v.into())
    }

    fn eval<'a>(&'a self, schema: &Schema, row: &'a Row) -> Result<&'a Value, StoreError> {
        match self {
            Operand::Col(name) => Ok(&row[schema.index_of(name)?]),
            Operand::Const(v) => Ok(v),
        }
    }

    /// The operand under `schema`, with its type.
    fn bind(&self, schema: &Schema) -> Result<(Term<'_>, ValueType), StoreError> {
        match self {
            Operand::Col(name) => {
                let at = schema.index_of(name)?;
                Ok((Term::Cell(at), schema.columns()[at].ty))
            }
            Operand::Const(v) => Ok((Term::Literal(v), v.value_type())),
        }
    }
}

/// A bound operand: a column's position, or a literal.
enum Term<'a> {
    Cell(usize),
    Literal(&'a Value),
}

/// The comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// A boolean predicate over one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Compare two operands.
    Compare(Cmp, Operand, Operand),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `lhs == rhs`.
    pub fn eq(lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::Compare(Cmp::Eq, lhs, rhs)
    }
    /// `lhs != rhs`.
    pub fn ne(lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::Compare(Cmp::Ne, lhs, rhs)
    }
    /// `lhs < rhs`.
    pub fn lt(lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::Compare(Cmp::Lt, lhs, rhs)
    }
    /// `lhs <= rhs`.
    pub fn le(lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::Compare(Cmp::Le, lhs, rhs)
    }
    /// `lhs > rhs`.
    pub fn gt(lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::Compare(Cmp::Gt, lhs, rhs)
    }
    /// `lhs >= rhs`.
    pub fn ge(lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::Compare(Cmp::Ge, lhs, rhs)
    }
    /// Conjunction.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }
    /// Disjunction.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }
    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Check that every referenced column exists and that both sides of
    /// each comparison have the same type: [`Predicate::bind`], with the
    /// result dropped. A predicate that passes never fails to evaluate on
    /// a row of `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<(), StoreError> {
        self.bind(schema).map(drop)
    }

    /// Bind the predicate to `schema`: resolve every column to its
    /// position and check that both sides of each comparison have the
    /// same type, once. The result decides a row of `schema` by reading
    /// its cells in place ([`BoundPredicate::eval`]), and agrees with
    /// [`Predicate::eval`] on every such row. Fails where
    /// [`Predicate::validate`] does, with the same error.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate, StoreError> {
        self.bind_node(schema).map(BoundPredicate)
    }

    fn bind_node(&self, schema: &Schema) -> Result<Node, StoreError> {
        Ok(match self {
            Predicate::True => Node::Const(true),
            Predicate::False => Node::Const(false),
            Predicate::Compare(op, l, r) => {
                let ((l, lt), (r, rt)) = (l.bind(schema)?, r.bind(schema)?);
                if lt != rt {
                    return Err(StoreError::BadQuery(format!(
                        "cannot compare {lt} with {rt}"
                    )));
                }
                match (l, r) {
                    (Term::Cell(l), Term::Cell(r)) => Node::Cells(*op, l, r),
                    (Term::Cell(col), Term::Literal(v)) => Node::Cell(*op, col, v.clone()),
                    (Term::Literal(v), Term::Cell(col)) => Node::Cell(flip(*op), col, v.clone()),
                    (Term::Literal(l), Term::Literal(r)) => Node::Const(op.holds(l, r)),
                }
            }
            Predicate::And(l, r) => Node::And(
                Box::new(l.bind_node(schema)?),
                Box::new(r.bind_node(schema)?),
            ),
            Predicate::Or(l, r) => Node::Or(
                Box::new(l.bind_node(schema)?),
                Box::new(r.bind_node(schema)?),
            ),
            Predicate::Not(p) => Node::Not(Box::new(p.bind_node(schema)?)),
        })
    }

    /// Every single-column constraint a secondary index could serve,
    /// collected from the top-level conjunction (`And` spine): leaves of
    /// the form `col ⋈ literal` (or `literal ⋈ col`, flipped) on one of
    /// `indexed` columns. `Or`/`Not` sub-trees are never descended into —
    /// a probe must be implied by the whole predicate — and the caller
    /// still evaluates the full predicate on every candidate row, so a
    /// probe only narrows the scan. Range leaves on one column come back
    /// as one probe over the tightest bounds they imply together
    /// ([`Predicate::value_bounds`]), so `id >= a and id < b` seeks
    /// `[a, b)` instead of a half-open range.
    pub fn index_probes(&self, indexed: &[&str]) -> Vec<crate::index::IndexProbe> {
        fn walk(p: &Predicate, indexed: &[&str], out: &mut Vec<crate::index::IndexProbe>) {
            match p {
                Predicate::And(l, r) => {
                    walk(l, indexed, out);
                    walk(r, indexed, out);
                }
                leaf => out.extend(leaf_probe(leaf, indexed)),
            }
        }
        let mut leaves = Vec::new();
        walk(self, indexed, &mut leaves);
        let mut out: Vec<crate::index::IndexProbe> = Vec::with_capacity(leaves.len());
        for probe in leaves {
            if probe.is_eq() {
                out.push(probe);
            } else if !out.iter().any(|p| !p.is_eq() && p.column == probe.column) {
                let (lo, hi) = self.value_bounds(&probe.column);
                out.push(crate::index::IndexProbe::range(probe.column, lo, hi));
            }
        }
        out
    }

    /// Extract the narrowest single-column constraint a secondary index on
    /// one of `indexed` columns could serve, *without* index statistics:
    /// equality probes are preferred over range probes structurally. When
    /// the actual indexes are at hand, prefer
    /// [`Predicate::index_probe_with`], which picks by estimated
    /// selectivity instead.
    pub fn index_probe(&self, indexed: &[&str]) -> Option<crate::index::IndexProbe> {
        let mut best: Option<crate::index::IndexProbe> = None;
        for probe in self.index_probes(indexed) {
            let better = match &best {
                None => true,
                Some(b) => probe.is_eq() && !b.is_eq(),
            };
            if better {
                best = Some(probe);
            }
        }
        best
    }

    /// Cost-based probe choice: among every candidate probe the predicate
    /// implies, pick the one whose index estimates the fewest matching
    /// rows — equality probes read their bucket size, range probes count
    /// entries with an early exit at the best estimate so far (see
    /// [`crate::index::ColumnIndex::estimate`]). A tight range on a
    /// high-cardinality column therefore beats an equality probe on a
    /// skewed two-value column, which the structural
    /// [`Predicate::index_probe`] would never choose.
    pub fn index_probe_with(
        &self,
        indexes: &[crate::index::ColumnIndex],
    ) -> Option<crate::index::IndexProbe> {
        let indexed: Vec<&str> = indexes
            .iter()
            .map(crate::index::ColumnIndex::column)
            .collect();
        let mut candidates = self.index_probes(&indexed);
        // A lone candidate needs no estimation — picking it is free, and
        // estimating a wide range would walk the same buckets the caller
        // is about to walk anyway.
        if candidates.len() <= 1 {
            return candidates.pop();
        }
        // Equality probes first: each estimate is one O(log n) bucket
        // lookup, and the winner seeds the cap that lets every range
        // estimate exit early instead of walking its whole bucket run.
        let (eqs, ranges): (Vec<_>, Vec<_>) = candidates
            .into_iter()
            .partition(crate::index::IndexProbe::is_eq);
        let mut best: Option<(crate::index::IndexProbe, usize)> = None;
        for probe in eqs.into_iter().chain(ranges) {
            let idx = indexes
                .iter()
                .find(|i| i.column() == probe.column)
                .expect("candidate probes only name indexed columns");
            let cap = best.as_ref().map_or(usize::MAX, |(_, c)| *c);
            let est = idx.estimate(&probe, cap);
            let better = match &best {
                None => true,
                // Strictly fewer estimated rows wins; at a tie an equality
                // probe is still the cheaper seek.
                Some((b, c)) => est < *c || (est == *c && probe.is_eq() && !b.is_eq()),
            };
            if better {
                best = Some((probe, est));
            }
        }
        best.map(|(p, _)| p)
    }

    /// The tightest bounds this predicate implies on `column`, collected
    /// from the top-level conjunction (`Or`/`Not` sub-trees contribute
    /// nothing — a bound must be implied by the whole predicate). Every
    /// row satisfying the predicate has its `column` value within the
    /// returned `(lower, upper)` bounds; an unconstrained side is
    /// [`std::ops::Bound::Unbounded`]. Sharded engines use this on key
    /// columns to
    /// prune reads to the shards a view's window can touch.
    pub fn value_bounds(&self, column: &str) -> (std::ops::Bound<Value>, std::ops::Bound<Value>) {
        use std::ops::Bound;

        fn lower_is_tighter(new: &Value, new_excl: bool, cur: &Bound<Value>) -> bool {
            match cur {
                Bound::Unbounded => true,
                Bound::Included(c) => new > c || (new == c && new_excl),
                Bound::Excluded(c) => new > c,
            }
        }
        fn upper_is_tighter(new: &Value, new_excl: bool, cur: &Bound<Value>) -> bool {
            match cur {
                Bound::Unbounded => true,
                Bound::Included(c) => new < c || (new == c && new_excl),
                Bound::Excluded(c) => new < c,
            }
        }
        fn walk(p: &Predicate, column: &str, lo: &mut Bound<Value>, hi: &mut Bound<Value>) {
            match p {
                Predicate::And(l, r) => {
                    walk(l, column, lo, hi);
                    walk(r, column, lo, hi);
                }
                Predicate::Compare(op, l, r) => {
                    let (op, col, v) = match (l, r) {
                        (Operand::Col(c), Operand::Const(v)) => (*op, c, v),
                        (Operand::Const(v), Operand::Col(c)) => (flip(*op), c, v),
                        _ => return,
                    };
                    if col != column {
                        return;
                    }
                    let (lo_new, hi_new) = match op {
                        Cmp::Eq => (Some((v, false)), Some((v, false))),
                        Cmp::Lt => (None, Some((v, true))),
                        Cmp::Le => (None, Some((v, false))),
                        Cmp::Gt => (Some((v, true)), None),
                        Cmp::Ge => (Some((v, false)), None),
                        Cmp::Ne => (None, None),
                    };
                    if let Some((v, excl)) = lo_new {
                        if lower_is_tighter(v, excl, lo) {
                            *lo = if excl {
                                Bound::Excluded(v.clone())
                            } else {
                                Bound::Included(v.clone())
                            };
                        }
                    }
                    if let Some((v, excl)) = hi_new {
                        if upper_is_tighter(v, excl, hi) {
                            *hi = if excl {
                                Bound::Excluded(v.clone())
                            } else {
                                Bound::Included(v.clone())
                            };
                        }
                    }
                }
                _ => {}
            }
        }
        let mut lo = Bound::Unbounded;
        let mut hi = Bound::Unbounded;
        walk(self, column, &mut lo, &mut hi);
        (lo, hi)
    }

    /// The columns an index could serve for this predicate: every column
    /// that [`Predicate::index_probe`] would consider, regardless of what
    /// is currently indexed. Sessions use this to decide which secondary
    /// indexes to create; keeping it next to `index_probe` keeps the two
    /// walks in agreement.
    pub fn probeable_columns(&self) -> Vec<String> {
        fn walk(p: &Predicate, out: &mut Vec<String>) {
            match p {
                Predicate::And(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                leaf => {
                    // A column is probe-able iff `index_probe` would
                    // accept the leaf with that column indexed.
                    if let Predicate::Compare(_, l, r) = leaf {
                        let col = match (l, r) {
                            (Operand::Col(c), Operand::Const(_))
                            | (Operand::Const(_), Operand::Col(c)) => c,
                            _ => return,
                        };
                        if leaf.index_probe(&[col.as_str()]).is_some() && !out.contains(col) {
                            out.push(col.clone());
                        }
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Evaluate against one row.
    ///
    /// Comparing values of different runtime types is a
    /// [`StoreError::BadQuery`] (not a silent `false`), so type errors
    /// surface in tests.
    pub fn eval(&self, schema: &Schema, row: &Row) -> Result<bool, StoreError> {
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::Compare(op, l, r) => {
                let lv = l.eval(schema, row)?;
                let rv = r.eval(schema, row)?;
                if lv.value_type() != rv.value_type() {
                    return Err(StoreError::BadQuery(format!(
                        "cannot compare {} with {}",
                        lv.value_type(),
                        rv.value_type()
                    )));
                }
                Ok(op.holds(lv, rv))
            }
            Predicate::And(l, r) => Ok(l.eval(schema, row)? && r.eval(schema, row)?),
            Predicate::Or(l, r) => Ok(l.eval(schema, row)? || r.eval(schema, row)?),
            Predicate::Not(p) => Ok(!p.eval(schema, row)?),
        }
    }
}

impl Cmp {
    /// Does `l ⋈ r` hold?
    fn holds(self, l: &Value, r: &Value) -> bool {
        match self {
            Cmp::Eq => l == r,
            Cmp::Ne => l != r,
            Cmp::Lt => l < r,
            Cmp::Le => l <= r,
            Cmp::Gt => l > r,
            Cmp::Ge => l >= r,
        }
    }
}

/// A [`Predicate`] bound to one schema by [`Predicate::bind`]: each
/// column is a position and each comparison is type-checked, so deciding
/// a row reads its cells in place and cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundPredicate(Node);

/// A bound predicate's tree. A comparison with a literal keeps the
/// column on the left; one between two literals is decided at binding.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Const(bool),
    /// `row[col] ⋈ literal`.
    Cell(Cmp, usize, Value),
    /// `row[l] ⋈ row[r]`.
    Cells(Cmp, usize, usize),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

impl BoundPredicate {
    /// Does `row`, a row of the schema this predicate was bound to,
    /// satisfy it?
    pub fn eval(&self, row: &Row) -> bool {
        self.0.eval(row)
    }
}

impl Node {
    fn eval(&self, row: &Row) -> bool {
        match self {
            Node::Const(b) => *b,
            Node::Cell(op, col, v) => op.holds(&row[*col], v),
            Node::Cells(op, l, r) => op.holds(&row[*l], &row[*r]),
            Node::And(l, r) => l.eval(row) && r.eval(row),
            Node::Or(l, r) => l.eval(row) || r.eval(row),
            Node::Not(p) => !p.eval(row),
        }
    }
}

/// Flip a comparison so `literal ⋈ col` reads as `col ⋈' literal`.
fn flip(op: Cmp) -> Cmp {
    match op {
        Cmp::Lt => Cmp::Gt,
        Cmp::Le => Cmp::Ge,
        Cmp::Gt => Cmp::Lt,
        Cmp::Ge => Cmp::Le,
        other => other,
    }
}

/// The index probe one conjunction leaf implies, if any: `col ⋈ literal`
/// (either operand order) on an indexed column.
fn leaf_probe(p: &Predicate, indexed: &[&str]) -> Option<crate::index::IndexProbe> {
    use crate::index::IndexProbe;
    use std::ops::Bound;

    let Predicate::Compare(op, l, r) = p else {
        return None;
    };
    let (op, col, v) = match (l, r) {
        (Operand::Col(c), Operand::Const(v)) => (*op, c, v),
        (Operand::Const(v), Operand::Col(c)) => (flip(*op), c, v),
        _ => return None,
    };
    if !indexed.contains(&col.as_str()) {
        return None;
    }
    match op {
        Cmp::Eq => Some(IndexProbe::eq(col, v.clone())),
        Cmp::Lt => Some(IndexProbe::range(
            col,
            Bound::Unbounded,
            Bound::Excluded(v.clone()),
        )),
        Cmp::Le => Some(IndexProbe::range(
            col,
            Bound::Unbounded,
            Bound::Included(v.clone()),
        )),
        Cmp::Gt => Some(IndexProbe::range(
            col,
            Bound::Excluded(v.clone()),
            Bound::Unbounded,
        )),
        Cmp::Ge => Some(IndexProbe::range(
            col,
            Bound::Included(v.clone()),
            Bound::Unbounded,
        )),
        Cmp::Ne => None,
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::True => f.write_str("true"),
            Predicate::False => f.write_str("false"),
            Predicate::Compare(op, l, r) => {
                let sym = match op {
                    Cmp::Eq => "=",
                    Cmp::Ne => "!=",
                    Cmp::Lt => "<",
                    Cmp::Le => "<=",
                    Cmp::Gt => ">",
                    Cmp::Ge => ">=",
                };
                let fmt_operand = |o: &Operand| match o {
                    Operand::Col(c) => c.clone(),
                    Operand::Const(v) => format!("{v}"),
                };
                write!(f, "{} {sym} {}", fmt_operand(l), fmt_operand(r))
            }
            Predicate::And(l, r) => write!(f, "({l} and {r})"),
            Predicate::Or(l, r) => write!(f, "({l} or {r})"),
            Predicate::Not(p) => write!(f, "not {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::build(&[("id", ValueType::Int), ("name", ValueType::Str)], &["id"]).unwrap()
    }

    #[test]
    fn comparisons_work_per_type() {
        let s = schema();
        let r = row![5, "ada"];
        assert!(Predicate::gt(Operand::col("id"), Operand::val(3))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::eq(Operand::col("name"), Operand::val("ada"))
            .eval(&s, &r)
            .unwrap());
        assert!(!Predicate::lt(Operand::col("id"), Operand::val(5))
            .eval(&s, &r)
            .unwrap());
    }

    #[test]
    fn boolean_connectives_combine() {
        let s = schema();
        let r = row![5, "ada"];
        let p = Predicate::gt(Operand::col("id"), Operand::val(3))
            .and(Predicate::eq(Operand::col("name"), Operand::val("ada")));
        assert!(p.eval(&s, &r).unwrap());
        assert!(!p.clone().not().eval(&s, &r).unwrap());
        let q = Predicate::False.or(p);
        assert!(q.eval(&s, &r).unwrap());
    }

    #[test]
    fn mixed_type_comparison_is_an_error() {
        let s = schema();
        let r = row![5, "ada"];
        let p = Predicate::eq(Operand::col("id"), Operand::val("ada"));
        assert!(matches!(p.eval(&s, &r), Err(StoreError::BadQuery(_))));
        // Validation catches it from the schema alone, column/column too.
        assert!(matches!(p.validate(&s), Err(StoreError::BadQuery(_))));
        let cols = Predicate::lt(Operand::col("id"), Operand::col("name"));
        assert!(matches!(cols.validate(&s), Err(StoreError::BadQuery(_))));
        let nested = Predicate::True.and(cols.not());
        assert!(matches!(nested.validate(&s), Err(StoreError::BadQuery(_))));
        assert!(Predicate::lt(Operand::col("id"), Operand::val(3))
            .validate(&s)
            .is_ok());
    }

    #[test]
    fn validate_catches_unknown_columns() {
        let s = schema();
        let p = Predicate::eq(Operand::col("nope"), Operand::val(1));
        assert!(matches!(p.validate(&s), Err(StoreError::NoSuchColumn(_))));
    }

    #[test]
    fn value_bounds_tighten_over_the_conjunction() {
        use std::ops::Bound;
        let p = Predicate::ge(Operand::col("id"), Operand::val(10))
            .and(Predicate::lt(Operand::col("id"), Operand::val(20)))
            .and(Predicate::gt(Operand::val(12), Operand::col("id"))); // flipped: id < 12
        let (lo, hi) = p.value_bounds("id");
        assert_eq!(lo, Bound::Included(Value::Int(10)));
        assert_eq!(hi, Bound::Excluded(Value::Int(12)));

        // Equality pins both sides; other columns contribute nothing.
        let (lo, hi) = Predicate::eq(Operand::col("id"), Operand::val(7)).value_bounds("id");
        assert_eq!(lo, Bound::Included(Value::Int(7)));
        assert_eq!(hi, Bound::Included(Value::Int(7)));
        let (lo, hi) = Predicate::eq(Operand::col("name"), Operand::val("x")).value_bounds("id");
        assert_eq!((lo, hi), (Bound::Unbounded, Bound::Unbounded));

        // Or / Not sub-trees are conservative: no bound is implied.
        let p = Predicate::ge(Operand::col("id"), Operand::val(10))
            .or(Predicate::lt(Operand::col("id"), Operand::val(0)));
        assert_eq!(p.value_bounds("id"), (Bound::Unbounded, Bound::Unbounded));

        // An exclusive bound at the same value is tighter than inclusive.
        let p = Predicate::ge(Operand::col("id"), Operand::val(10))
            .and(Predicate::gt(Operand::col("id"), Operand::val(10)));
        assert_eq!(p.value_bounds("id").0, Bound::Excluded(Value::Int(10)));
    }

    #[test]
    fn cost_based_probe_beats_structural_preference_on_skew() {
        use crate::row;
        use crate::schema::Schema;
        use crate::table::Table;
        use crate::value::ValueType;

        // 200 rows: `flag` has 2 distinct values (skewed), `score` is
        // unique. The predicate implies an equality probe on flag (100
        // rows) and a tight range probe on score (5 rows).
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("flag", ValueType::Int),
                ("score", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::from_rows(
            schema,
            (0..200i64).map(|i| row![i, i % 2, i]).collect::<Vec<_>>(),
        )
        .unwrap();
        t.create_index("flag").unwrap();
        t.create_index("score").unwrap();

        let pred = Predicate::eq(Operand::col("flag"), Operand::val(1))
            .and(Predicate::ge(Operand::col("score"), Operand::val(195)));

        // Structural preference picks the equality probe…
        let structural = pred.index_probe(&["flag", "score"]).unwrap();
        assert_eq!(structural.column, "flag");
        assert!(structural.is_eq());

        // …the cost-based planner picks the far more selective range.
        let flag_idx = t.index("flag").unwrap().clone();
        let score_idx = t.index("score").unwrap().clone();
        assert_eq!(flag_idx.distinct_values(), 2);
        assert_eq!(flag_idx.entry_count(), 200);
        let costed = pred.index_probe_with(&[flag_idx, score_idx]).unwrap();
        assert_eq!(costed.column, "score");
        assert!(!costed.is_eq());

        // Either way the select answer is identical.
        let plain = Table::from_rows(t.schema().clone(), t.rows().cloned()).unwrap();
        assert_eq!(t.select(&pred).unwrap(), plain.select(&pred).unwrap());
        assert_eq!(t.select(&pred).unwrap().len(), 3); // 195, 197, 199
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::gt(Operand::col("id"), Operand::val(3))
            .and(Predicate::eq(Operand::col("name"), Operand::val("ada")));
        assert_eq!(p.to_string(), "(id > 3 and name = ada)");
    }
}
