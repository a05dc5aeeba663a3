//! Runtime values and cost domains.
//!
//! The engine is dynamically typed: a [`Value`] is a symbol, an extended
//! real, a boolean, or a finite set, and each cost predicate's declared
//! [`DomainSpec`] (one per Figure-1 row) is interpreted by
//! [`RuntimeDomain`], which supplies the order `⊑`, `join`/`meet`, the
//! bottom element (= the default value of default-value cost predicates,
//! Section 2.3.2), and value validation/coercion.

use maglog_datalog::{Const, DomainSpec, Program};
use maglog_lattice::Real;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A ground runtime value.
// Hash/Ord stay derived although `PartialEq` is hand-written below: the
// manual impl only adds an `Arc::ptr_eq` fast path for sets and agrees
// with the structural (derived) relation on every input.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Debug, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An uninterpreted constant symbol.
    Sym(maglog_datalog::Sym),
    /// An extended real (also used for the `N ∪ {∞}` domains).
    Num(Real),
    /// A boolean (the `B` domains).
    Bool(bool),
    /// A finite set (the `2^S` domains).
    Set(Arc<BTreeSet<Value>>),
}

/// Alias used where a value is specifically a cost value.
pub type CostValue = Value;

impl Value {
    pub fn num(v: f64) -> Value {
        Value::Num(Real::new(v))
    }

    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Set(Arc::new(items.into_iter().collect()))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(r) => Some(r.get()),
            Value::Bool(b) => Some(*b as u8 as f64),
            _ => None,
        }
    }

    /// The value as an extended real (booleans coerce to 0/1), preserving
    /// the `Real` wrapper's total order.
    pub fn as_num(&self) -> Option<Real> {
        match self {
            Value::Num(r) => Some(*r),
            Value::Bool(b) => Some(Real::new(*b as u8 as f64)),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Num(r) if r.get() == 0.0 => Some(false),
            Value::Num(r) if r.get() == 1.0 => Some(true),
            _ => None,
        }
    }

    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Estimated heap bytes owned by this value — zero for the inline
    /// variants, the shared `BTreeSet` tree for set costs. A deliberate
    /// under-estimate (B-tree node headers and allocator slack are not
    /// modeled), so sums of `heap_bytes` stay at or below what the
    /// counting allocator reports.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Value::Set(items) => {
                std::mem::size_of::<BTreeSet<Value>>()
                    + items
                        .iter()
                        .map(|v| std::mem::size_of::<Value>() + v.heap_bytes())
                        .sum::<usize>()
            }
            _ => 0,
        }
    }

    pub fn from_const(c: Const) -> Value {
        match c {
            Const::Sym(s) => Value::Sym(s),
            Const::Num(n) => Value::Num(n),
        }
    }

    /// Render using `program`'s symbol table.
    pub fn display(&self, program: &Program) -> String {
        let mut out = String::new();
        self.write_display(program, &mut out);
        out
    }

    /// Append [`display`](Self::display)'s rendering to `out`, without an
    /// intermediate `String` per value.
    pub fn write_display(&self, program: &Program, out: &mut String) {
        use std::fmt::Write;
        match self {
            Value::Sym(s) => program.symbols.with_name(*s, |name| out.push_str(name)),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Bool(b) => out.push(if *b { '1' } else { '0' }),
            Value::Set(items) => {
                out.push('{');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write_display(program, out);
                }
                out.push('}');
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            // Shared-storage fast path: set values flow through the engine
            // as cloned `Arc`s, so most comparisons are pointer-equal and
            // skip the element-wise walk.
            (Value::Set(a), Value::Set(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s}"),
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{}", *b as u8),
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// A cost domain at runtime: a [`DomainSpec`] plus, for `set_intersect`,
/// the universe that serves as its bottom element.
#[derive(Clone, Debug)]
pub struct RuntimeDomain {
    pub spec: DomainSpec,
    /// Universe for `SetIntersect` (its `⊥` is the full set `S`).
    pub universe: Option<Arc<BTreeSet<Value>>>,
}

impl RuntimeDomain {
    pub fn new(spec: DomainSpec) -> Self {
        RuntimeDomain {
            spec,
            universe: None,
        }
    }

    pub fn with_universe(spec: DomainSpec, universe: Arc<BTreeSet<Value>>) -> Self {
        RuntimeDomain {
            spec,
            universe: Some(universe),
        }
    }

    /// `a ⊑ b` in this domain.
    pub fn leq(&self, a: &Value, b: &Value) -> bool {
        use DomainSpec::*;
        match (self.spec, a, b) {
            (MaxReal | NonNegReal | Nat | PosNat, Value::Num(x), Value::Num(y)) => x <= y,
            (MinReal, Value::Num(x), Value::Num(y)) => x >= y,
            (BoolOr, Value::Bool(x), Value::Bool(y)) => !x || *y,
            (BoolAnd, Value::Bool(x), Value::Bool(y)) => *x || !y,
            (SetUnion, Value::Set(x), Value::Set(y)) => x.is_subset(y),
            (SetIntersect, Value::Set(x), Value::Set(y)) => x.is_superset(y),
            _ => false,
        }
    }

    /// Least upper bound in this domain. Values must have the domain's
    /// carrier type (validated on entry).
    pub fn join(&self, a: &Value, b: &Value) -> Value {
        use DomainSpec::*;
        match (self.spec, a, b) {
            (MaxReal | NonNegReal | Nat | PosNat, Value::Num(x), Value::Num(y)) => {
                Value::Num((*x).max(*y))
            }
            (MinReal, Value::Num(x), Value::Num(y)) => Value::Num((*x).min(*y)),
            (BoolOr, Value::Bool(x), Value::Bool(y)) => Value::Bool(*x || *y),
            (BoolAnd, Value::Bool(x), Value::Bool(y)) => Value::Bool(*x && *y),
            // Subset early-outs share the winning side's `Arc` instead of
            // rebuilding the set element by element.
            (SetUnion, Value::Set(x), Value::Set(y)) => {
                if y.is_subset(x) {
                    a.clone()
                } else if x.is_subset(y) {
                    b.clone()
                } else {
                    Value::Set(Arc::new(x.union(y).cloned().collect()))
                }
            }
            (SetIntersect, Value::Set(x), Value::Set(y)) => {
                if x.is_subset(y) {
                    a.clone()
                } else if y.is_subset(x) {
                    b.clone()
                } else {
                    Value::Set(Arc::new(x.intersection(y).cloned().collect()))
                }
            }
            _ => a.clone(),
        }
    }

    /// Greatest lower bound in this domain.
    pub fn meet(&self, a: &Value, b: &Value) -> Value {
        use DomainSpec::*;
        match (self.spec, a, b) {
            (MaxReal | NonNegReal | Nat | PosNat, Value::Num(x), Value::Num(y)) => {
                Value::Num((*x).min(*y))
            }
            (MinReal, Value::Num(x), Value::Num(y)) => Value::Num((*x).max(*y)),
            (BoolOr, Value::Bool(x), Value::Bool(y)) => Value::Bool(*x && *y),
            (BoolAnd, Value::Bool(x), Value::Bool(y)) => Value::Bool(*x || *y),
            (SetUnion, Value::Set(x), Value::Set(y)) => {
                if x.is_subset(y) {
                    a.clone()
                } else if y.is_subset(x) {
                    b.clone()
                } else {
                    Value::Set(Arc::new(x.intersection(y).cloned().collect()))
                }
            }
            (SetIntersect, Value::Set(x), Value::Set(y)) => {
                if y.is_subset(x) {
                    a.clone()
                } else if x.is_subset(y) {
                    b.clone()
                } else {
                    Value::Set(Arc::new(x.union(y).cloned().collect()))
                }
            }
            _ => a.clone(),
        }
    }

    /// The bottom element `⊥` — also the implicit default value of a
    /// default-value cost predicate (the paper insists the default is the
    /// minimal element; Section 2.3.2).
    pub fn bottom(&self) -> Value {
        use DomainSpec::*;
        match self.spec {
            MaxReal => Value::Num(Real::NEG_INFINITY),
            MinReal => Value::Num(Real::INFINITY),
            NonNegReal | Nat => Value::num(0.0),
            PosNat => Value::num(1.0),
            BoolOr => Value::Bool(false),
            BoolAnd => Value::Bool(true),
            SetUnion => Value::set(std::iter::empty()),
            SetIntersect => Value::Set(
                self.universe
                    .clone()
                    .unwrap_or_else(|| Arc::new(BTreeSet::new())),
            ),
        }
    }

    /// Validate and canonicalize an incoming cost value for this domain
    /// (e.g. numerals `0`/`1` coerce to booleans in the `B` domains).
    pub fn coerce(&self, v: Value) -> Result<Value, String> {
        use DomainSpec::*;
        match self.spec {
            MaxReal | MinReal => match v {
                Value::Num(_) => Ok(v),
                other => Err(format!("expected a number in {} domain, got {other}",
                    self.spec.name())),
            },
            NonNegReal => match v {
                Value::Num(n) if n.get() >= 0.0 => Ok(v),
                other => Err(format!(
                    "expected a nonnegative number in {} domain, got {other}",
                    self.spec.name()
                )),
            },
            Nat => match v {
                Value::Num(n) if n.get() >= 0.0 && is_natural(n) => Ok(v),
                other => Err(format!(
                    "expected a natural number (or inf) in {} domain, got {other}",
                    self.spec.name()
                )),
            },
            PosNat => match v {
                Value::Num(n) if n.get() >= 1.0 && is_natural(n) => Ok(v),
                other => Err(format!(
                    "expected a positive natural (or inf) in {} domain, got {other}",
                    self.spec.name()
                )),
            },
            BoolOr | BoolAnd => match v.as_bool() {
                Some(b) => Ok(Value::Bool(b)),
                None => Err(format!(
                    "expected a boolean (0/1) in {} domain",
                    self.spec.name()
                )),
            },
            SetUnion | SetIntersect => match v {
                Value::Set(_) => Ok(v),
                other => Err(format!(
                    "expected a set in {} domain, got {other}",
                    self.spec.name()
                )),
            },
        }
    }
}

fn is_natural(n: Real) -> bool {
    let v = n.get();
    v == f64::INFINITY || (v.fract() == 0.0 && v >= 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use DomainSpec::*;

    fn dom(spec: DomainSpec) -> RuntimeDomain {
        RuntimeDomain::new(spec)
    }

    #[test]
    fn min_real_domain_reverses_order() {
        let d = dom(MinReal);
        assert!(d.leq(&Value::num(5.0), &Value::num(1.0)));
        assert!(!d.leq(&Value::num(1.0), &Value::num(5.0)));
        assert_eq!(d.join(&Value::num(5.0), &Value::num(1.0)), Value::num(1.0));
        assert_eq!(d.bottom(), Value::Num(Real::INFINITY));
    }

    #[test]
    fn max_real_domain_orders_naturally() {
        let d = dom(MaxReal);
        assert!(d.leq(&Value::num(1.0), &Value::num(5.0)));
        assert_eq!(d.join(&Value::num(1.0), &Value::num(5.0)), Value::num(5.0));
        assert_eq!(d.meet(&Value::num(1.0), &Value::num(5.0)), Value::num(1.0));
        assert_eq!(d.bottom(), Value::Num(Real::NEG_INFINITY));
    }

    #[test]
    fn bool_domains() {
        let or = dom(BoolOr);
        assert!(or.leq(&Value::Bool(false), &Value::Bool(true)));
        assert_eq!(or.bottom(), Value::Bool(false));
        let and = dom(BoolAnd);
        assert!(and.leq(&Value::Bool(true), &Value::Bool(false)));
        assert_eq!(and.bottom(), Value::Bool(true));
        assert_eq!(
            and.join(&Value::Bool(true), &Value::Bool(false)),
            Value::Bool(false)
        );
    }

    #[test]
    fn set_domains() {
        let a = Value::set([Value::num(1.0)]);
        let ab = Value::set([Value::num(1.0), Value::num(2.0)]);
        let u = dom(SetUnion);
        assert!(u.leq(&a, &ab));
        assert_eq!(u.join(&a, &ab), ab);
        assert_eq!(u.bottom(), Value::set(std::iter::empty()));

        let universe = Arc::new(
            [Value::num(1.0), Value::num(2.0), Value::num(3.0)]
                .into_iter()
                .collect::<BTreeSet<_>>(),
        );
        let i = RuntimeDomain::with_universe(SetIntersect, universe.clone());
        assert!(i.leq(&ab, &a), "superset order");
        assert_eq!(i.bottom(), Value::Set(universe));
        assert_eq!(i.join(&a, &ab), a);
    }

    #[test]
    fn coercion_enforces_domains() {
        assert_eq!(
            dom(BoolOr).coerce(Value::num(1.0)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            dom(BoolOr).coerce(Value::num(0.0)).unwrap(),
            Value::Bool(false)
        );
        assert!(dom(BoolOr).coerce(Value::num(0.5)).is_err());
        assert!(dom(NonNegReal).coerce(Value::num(-1.0)).is_err());
        assert!(dom(Nat).coerce(Value::num(2.5)).is_err());
        assert!(dom(Nat).coerce(Value::Num(Real::INFINITY)).is_ok());
        assert!(dom(PosNat).coerce(Value::num(0.0)).is_err());
        assert!(dom(MinReal).coerce(Value::num(-3.0)).is_ok());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::num(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::num(1.0).as_bool(), Some(true));
        assert_eq!(Value::num(7.0).as_bool(), None);
        assert!(Value::set([Value::num(1.0)]).as_set().is_some());
    }
}
