//! Scalar expressions and predicates over flattened rule-body rows.
//!
//! During plan execution a rule body is flattened into one wide row: the
//! columns of every (joined) atom, in body order. Projections to the head
//! and residual predicates (`x != y`, `d < 10`, `MIN(d1 + d2)`'s argument…)
//! are expressions over that wide row.

use crate::Value;

/// A scalar expression over a flattened body row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Column reference (index into the flattened row).
    Col(usize),
    /// Integer literal.
    Const(Value),
    /// Wrapping addition.
    Add(Box<Expr>, Box<Expr>),
    /// Wrapping subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Wrapping multiplication.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluate against a flattened row.
    #[inline]
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            Expr::Col(i) => row[*i],
            Expr::Const(c) => *c,
            Expr::Add(a, b) => a.eval(row).wrapping_add(b.eval(row)),
            Expr::Sub(a, b) => a.eval(row).wrapping_sub(b.eval(row)),
            Expr::Mul(a, b) => a.eval(row).wrapping_mul(b.eval(row)),
        }
    }

    /// Largest column index referenced, if any (used for arity checks).
    pub fn max_col(&self) -> Option<usize> {
        match self {
            Expr::Col(i) => Some(*i),
            Expr::Const(_) => None,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                match (a.max_col(), b.max_col()) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
        }
    }

    /// Call `f` on every column index referenced.
    pub fn for_each_col(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Col(i) => f(*i),
            Expr::Const(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.for_each_col(f);
                b.for_each_col(f);
            }
        }
    }

    /// Convenience constructor: `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }
}

/// Comparison operator of a predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison.
    #[inline]
    pub fn apply(self, l: Value, r: Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }

    /// Surface syntax of the operator (for SQL rendering).
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A residual predicate `lhs op rhs` over a flattened row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Predicate {
    /// Left operand.
    pub lhs: Expr,
    /// Comparison.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Expr,
}

impl Predicate {
    /// Evaluate against a flattened row.
    #[inline]
    pub fn eval(&self, row: &[Value]) -> bool {
        self.op.apply(self.lhs.eval(row), self.rhs.eval(row))
    }
}

/// Evaluate a conjunction of predicates.
#[inline]
pub fn eval_all(preds: &[Predicate], row: &[Value]) -> bool {
    preds.iter().all(|p| p.eval(row))
}

/// Aggregation operators supported in rule heads (paper §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Row count (its argument expression is still evaluated for arity
    /// checking but its value is ignored).
    Count,
    /// Integer average (floor of sum/count), matching the engine's all-`i64`
    /// value domain.
    Avg,
}

impl AggFunc {
    /// Surface syntax (for SQL rendering).
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
        }
    }

    /// Parse a (case-insensitive) aggregate name.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "SUM" => Some(AggFunc::Sum),
            "COUNT" => Some(AggFunc::Count),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic() {
        let row = [10, 20, 30];
        let e = Expr::add(Expr::Col(0), Expr::mul(Expr::Col(1), Expr::Const(2)));
        assert_eq!(e.eval(&row), 50);
        assert_eq!(Expr::sub(Expr::Col(2), Expr::Col(0)).eval(&row), 20);
    }

    #[test]
    fn eval_wraps_instead_of_panicking() {
        let row = [Value::MAX];
        let e = Expr::add(Expr::Col(0), Expr::Const(1));
        assert_eq!(e.eval(&row), Value::MIN);
    }

    #[test]
    fn max_col_tracks_references() {
        let e = Expr::add(Expr::Col(3), Expr::Const(1));
        assert_eq!(e.max_col(), Some(3));
        assert_eq!(Expr::Const(7).max_col(), None);
        let e = Expr::mul(Expr::Const(2), Expr::sub(Expr::Col(1), Expr::Col(5)));
        assert_eq!(e.max_col(), Some(5));
    }

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Eq.apply(1, 1));
        assert!(CmpOp::Ne.apply(1, 2));
        assert!(CmpOp::Lt.apply(1, 2));
        assert!(CmpOp::Le.apply(2, 2));
        assert!(CmpOp::Gt.apply(3, 2));
        assert!(CmpOp::Ge.apply(2, 2));
        assert!(!CmpOp::Lt.apply(2, 2));
    }

    #[test]
    fn predicates_conjunction() {
        let row = [5, 9];
        let p1 = Predicate {
            lhs: Expr::Col(0),
            op: CmpOp::Ne,
            rhs: Expr::Col(1),
        };
        let p2 = Predicate {
            lhs: Expr::Col(1),
            op: CmpOp::Ge,
            rhs: Expr::Const(9),
        };
        assert!(eval_all(&[p1.clone(), p2.clone()], &row));
        let p3 = Predicate {
            lhs: Expr::Col(0),
            op: CmpOp::Gt,
            rhs: Expr::Const(100),
        };
        assert!(!eval_all(&[p1, p2, p3], &row));
    }
}
