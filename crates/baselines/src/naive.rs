//! A small configurable naive evaluator.
//!
//! This evaluator is deliberately simpler than `maglog-engine`'s planned,
//! semi-naive machinery: it re-fires every rule each round, orders body
//! literals greedily at runtime, and supports evaluating negation and
//! aggregate subgoals either against the evolving database or against a
//! **fixed** interpretation. The latter is what reduct-style semantics
//! need:
//!
//! * Kemp–Stuckey stable models: positives against the evolving set,
//!   negation *and aggregates* against the candidate model;
//! * the alternating fixpoint `Γ(I)` of the well-founded semantics:
//!   positives evolving, negation against `I`.
//!
//! It can also record *provenance firings* (head, positive body atoms, and
//! the members of every aggregate group used), which the Kemp–Stuckey
//! analysis uses to build the atom-level dependency graph.

use maglog_datalog::{
    AggEq, Aggregate, Atom, BinOp, CmpOp, Expr, Literal, Pred, Program, Rule, Term, Var,
};
use maglog_engine::{Interp, Tuple, Value};
use maglog_engine::value::RuntimeDomain;
use std::collections::HashMap;

/// Where a literal kind gets its facts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// The evolving database.
    Current,
    /// The fixed interpretation passed to [`NaiveEval::run`].
    Fixed,
}

/// One recorded rule firing (key-level provenance).
#[derive(Clone, Debug)]
pub struct Firing {
    pub head: (Pred, Tuple),
    pub pos_bodies: Vec<(Pred, Tuple)>,
    /// For each aggregate subgoal: every (pred, key) that participated in
    /// the group the subgoal aggregated over.
    pub agg_groups: Vec<Vec<(Pred, Tuple)>>,
}

/// Configuration of the evaluator.
pub struct NaiveEval<'p> {
    pub program: &'p Program,
    pub neg_src: Src,
    pub agg_src: Src,
    /// Cap on rounds; exceeded = divergence (`Err` from `run`).
    pub max_rounds: usize,
    /// Cap on total stored atoms; exceeded = divergence. Rewritten
    /// aggregate programs on cyclic data enumerate unboundedly many cost
    /// atoms (Section 5.4), and this budget cuts them off early.
    pub max_atoms: usize,
}

impl<'p> NaiveEval<'p> {
    pub fn new(program: &'p Program) -> Self {
        NaiveEval {
            program,
            neg_src: Src::Current,
            agg_src: Src::Current,
            max_rounds: 100_000,
            max_atoms: usize::MAX,
        }
    }

    /// Iterate the selected `rules` to a least fixpoint above `base`.
    /// `fixed` serves the `Src::Fixed` literal kinds. Returns the final
    /// database, and (when `collect` is set) the provenance firings of one
    /// extra pass over the fixpoint.
    pub fn run(
        &self,
        rules: &[&Rule],
        base: Interp,
        fixed: &Interp,
        collect: bool,
    ) -> Result<(Interp, Vec<Firing>), String> {
        self.run_traced(rules, base, fixed, collect)
            .map(|(db, firings, _rounds)| (db, firings))
    }

    /// Like [`NaiveEval::run`], but also reports how many rounds the
    /// fixpoint took (including the final no-change round).
    pub fn run_traced(
        &self,
        rules: &[&Rule],
        base: Interp,
        fixed: &Interp,
        collect: bool,
    ) -> Result<(Interp, Vec<Firing>, usize), String> {
        let mut db = base;
        for round in 0..self.max_rounds {
            let derived = self.apply_rules(rules, &db, fixed, None)?;
            let mut changed = false;
            for ((pred, key), cost) in derived {
                changed |= self.merge(&mut db, pred, key, cost);
            }
            if db.size() > self.max_atoms {
                return Err(format!(
                    "no fixpoint: atom budget of {} exceeded (diverging enumeration)",
                    self.max_atoms
                ));
            }
            if !changed {
                let firings = if collect {
                    let mut acc = Vec::new();
                    self.apply_rules(rules, &db, fixed, Some(&mut acc))?;
                    acc
                } else {
                    Vec::new()
                };
                return Ok((db, firings, round + 1));
            }
        }
        Err(format!(
            "naive evaluation did not reach a fixpoint within {} rounds",
            self.max_rounds
        ))
    }

    /// Merge one derived atom; returns whether the database changed. Cost
    /// values are resolved by the lattice join of the declared domain (the
    /// baseline semantics modules only feed it cost-consistent programs).
    fn merge(&self, db: &mut Interp, pred: Pred, key: Tuple, cost: Option<Value>) -> bool {
        let domain = self
            .program
            .cost_spec(pred)
            .map(|c| RuntimeDomain::new(c.domain));
        let rel = db.relation_mut(pred);
        match rel.get(&key) {
            None => {
                rel.insert(key, cost);
                true
            }
            Some(existing) => match (existing.clone(), cost, domain) {
                (Some(old), Some(new), Some(d)) => {
                    let joined = d.join(&old, &new);
                    if joined != old {
                        rel.insert(key, Some(joined));
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            },
        }
    }

    fn apply_rules(
        &self,
        rules: &[&Rule],
        db: &Interp,
        fixed: &Interp,
        mut provenance: Option<&mut Vec<Firing>>,
    ) -> Result<HashMap<(Pred, Tuple), Option<Value>>, String> {
        let mut out = HashMap::new();
        for rule in rules {
            let order = greedy_order(self.program, rule)?;
            let mut binding: HashMap<Var, Value> = HashMap::new();
            let mut trace = FiringTrace::default();
            self.fire(
                rule,
                &order,
                0,
                db,
                fixed,
                &mut binding,
                &mut trace,
                &mut out,
                &mut provenance,
            )?;
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn fire(
        &self,
        rule: &Rule,
        order: &[usize],
        depth: usize,
        db: &Interp,
        fixed: &Interp,
        binding: &mut HashMap<Var, Value>,
        trace: &mut FiringTrace,
        out: &mut HashMap<(Pred, Tuple), Option<Value>>,
        provenance: &mut Option<&mut Vec<Firing>>,
    ) -> Result<(), String> {
        if depth == order.len() {
            let (pred, key, cost) = self.instantiate_head(rule, binding)?;
            if let Some(prov) = provenance.as_deref_mut() {
                prov.push(Firing {
                    head: (pred, key.clone()),
                    pos_bodies: trace.pos.clone(),
                    agg_groups: trace.groups.clone(),
                });
            }
            match out.get(&(pred, key.clone())) {
                None => {
                    out.insert((pred, key), cost);
                }
                Some(existing) => {
                    if let (Some(old), Some(new)) = (existing, &cost) {
                        if old != new {
                            let d = self
                                .program
                                .cost_spec(pred)
                                .map(|c| RuntimeDomain::new(c.domain));
                            if let Some(d) = d {
                                let joined = d.join(old, new);
                                out.insert((pred, key), Some(joined));
                            }
                        }
                    }
                }
            }
            return Ok(());
        }
        let lit = &rule.body[order[depth]];
        match lit {
            Literal::Pos(atom) => {
                let matches = match_atom(self.program, db, atom, binding);
                for m in matches {
                    let undo = apply_match(binding, &m);
                    trace.pos.push((atom.pred, m.key.clone()));
                    self.fire(
                        rule, order, depth + 1, db, fixed, binding, trace, out, provenance,
                    )?;
                    trace.pos.pop();
                    undo_match(binding, undo);
                }
                Ok(())
            }
            Literal::Neg(atom) => {
                let src = if self.neg_src == Src::Fixed { fixed } else { db };
                if !ground_atom_holds(self.program, src, atom, binding)? {
                    self.fire(
                        rule, order, depth + 1, db, fixed, binding, trace, out, provenance,
                    )?;
                }
                Ok(())
            }
            Literal::Builtin(b) => {
                match eval_builtin(b, binding)? {
                    BuiltinOutcome::True => self.fire(
                        rule, order, depth + 1, db, fixed, binding, trace, out, provenance,
                    ),
                    BuiltinOutcome::False => Ok(()),
                    BuiltinOutcome::Bind(v, value) => {
                        binding.insert(v, value);
                        self.fire(
                            rule, order, depth + 1, db, fixed, binding, trace, out, provenance,
                        )?;
                        binding.remove(&v);
                        Ok(())
                    }
                }
            }
            Literal::Agg(agg) => {
                let src = if self.agg_src == Src::Fixed { fixed } else { db };
                let idx = order[depth];
                let groupings = rule.aggregate_grouping_vars(idx);
                let mut groups = collect_groups(self.program, src, agg, &groupings, binding)?;
                let groupings_bound =
                    groupings.iter().all(|v| binding.contains_key(v));
                if agg.eq == AggEq::Total {
                    if !groupings_bound {
                        return Err("`=` aggregate with unbound groupings".into());
                    }
                    let gv: Vec<Value> = groupings
                        .iter()
                        .map(|v| binding[v].clone())
                        .collect();
                    groups.entry(gv).or_default();
                }
                for (gv, group) in groups {
                    let Some(result) =
                        maglog_engine::aggregate::apply(agg.func, &group.elements)
                    else {
                        continue;
                    };
                    let members = group.members;
                    // Bind groupings/result consistently.
                    let mut fresh: Vec<Var> = Vec::new();
                    let mut ok = true;
                    for (v, val) in groupings.iter().zip(&gv) {
                        match binding.get(v) {
                            Some(b) if b == val => {}
                            Some(_) => {
                                ok = false;
                                break;
                            }
                            None => {
                                binding.insert(*v, val.clone());
                                fresh.push(*v);
                            }
                        }
                    }
                    if ok {
                        let result_ok = match &agg.result {
                            Term::Const(c) => {
                                values_equal(&Value::from_const(*c), &result)
                                    .then_some(None)
                            }
                            Term::Var(rv) => match binding.get(rv) {
                                Some(b) => values_equal(b, &result).then_some(None),
                                None => Some(Some(*rv)),
                            },
                        };
                        if let Some(maybe_bind) = result_ok {
                            if let Some(rv) = maybe_bind {
                                binding.insert(rv, result.clone());
                            }
                            trace.groups.push(members.clone());
                            self.fire(
                                rule, order, depth + 1, db, fixed, binding, trace, out,
                                provenance,
                            )?;
                            trace.groups.pop();
                            if let Some(rv) = maybe_bind {
                                binding.remove(&rv);
                            }
                        }
                    }
                    for v in fresh {
                        binding.remove(&v);
                    }
                }
                Ok(())
            }
        }
    }

    fn instantiate_head(
        &self,
        rule: &Rule,
        binding: &HashMap<Var, Value>,
    ) -> Result<(Pred, Tuple, Option<Value>), String> {
        let spec = self.program.cost_spec(rule.head.pred);
        let has_cost = spec.is_some();
        let mut key = Vec::new();
        for t in rule.head.key_args(has_cost) {
            key.push(resolve(t, binding).ok_or("unbound head variable")?);
        }
        let cost = match (spec, rule.head.cost_arg(has_cost)) {
            (Some(spec), Some(t)) => {
                let raw = resolve(t, binding).ok_or("unbound head cost variable")?;
                Some(RuntimeDomain::new(spec.domain).coerce(raw)?)
            }
            _ => None,
        };
        Ok((rule.head.pred, Tuple::new(key), cost))
    }
}

#[derive(Default)]
struct FiringTrace {
    pos: Vec<(Pred, Tuple)>,
    groups: Vec<Vec<(Pred, Tuple)>>,
}

/// Greedy runtime literal ordering: builtins and negation as soon as their
/// variables can be bound, positive atoms by bound-count, aggregates last
/// unless `=r` must enumerate.
fn greedy_order(program: &Program, rule: &Rule) -> Result<Vec<usize>, String> {
    let mut bound: std::collections::BTreeSet<Var> = std::collections::BTreeSet::new();
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    let mut order = Vec::new();
    while !remaining.is_empty() {
        let mut best: Option<(u32, usize)> = None;
        for (pos, &li) in remaining.iter().enumerate() {
            let prio = match &rule.body[li] {
                Literal::Builtin(b) => {
                    let lv = b.lhs.vars();
                    let rv = b.rhs.vars();
                    let lb = lv.iter().all(|v| bound.contains(v));
                    let rb = rv.iter().all(|v| bound.contains(v));
                    if lb && rb {
                        Some(0)
                    } else if b.op == CmpOp::Eq
                        && ((lb && b.rhs.as_var().is_some())
                            || (rb && b.lhs.as_var().is_some()))
                    {
                        Some(1)
                    } else {
                        None
                    }
                }
                Literal::Neg(a) => a.vars().all(|v| bound.contains(&v)).then_some(2),
                Literal::Pos(a) => {
                    let unbound = a
                        .args
                        .iter()
                        .filter(|t| matches!(t, Term::Var(v) if !bound.contains(v)))
                        .count() as u32;
                    Some(10 + unbound)
                }
                Literal::Agg(agg) => {
                    let groupings = rule.aggregate_grouping_vars(li);
                    let all = groupings.iter().all(|v| bound.contains(v));
                    if all {
                        Some(40)
                    } else if agg.eq == AggEq::Restricted {
                        Some(50)
                    } else {
                        None
                    }
                }
            };
            if let Some(p) = prio {
                if best.is_none_or(|(bp, _)| p < bp) {
                    best = Some((p, pos));
                }
            }
        }
        let Some((_, pos)) = best else {
            return Err(format!(
                "cannot order body of rule: {}",
                program.display_rule(rule)
            ));
        };
        let li = remaining.remove(pos);
        match &rule.body[li] {
            Literal::Pos(a) => bound.extend(a.vars()),
            Literal::Builtin(b) => {
                bound.extend(b.lhs.vars());
                bound.extend(b.rhs.vars());
            }
            Literal::Agg(agg) => {
                bound.extend(rule.aggregate_grouping_vars(li));
                if let Term::Var(v) = agg.result {
                    bound.insert(v);
                }
            }
            Literal::Neg(_) => {}
        }
        order.push(li);
    }
    Ok(order)
}

struct Match {
    key: Tuple,
    bindings: Vec<(Var, Value)>,
}

fn apply_match(binding: &mut HashMap<Var, Value>, m: &Match) -> Vec<Var> {
    let mut fresh = Vec::new();
    for (v, val) in &m.bindings {
        if !binding.contains_key(v) {
            binding.insert(*v, val.clone());
            fresh.push(*v);
        }
    }
    fresh
}

fn undo_match(binding: &mut HashMap<Var, Value>, fresh: Vec<Var>) {
    for v in fresh {
        binding.remove(&v);
    }
}

/// All matches of `atom` against `db` consistent with `binding`.
fn match_atom(
    program: &Program,
    db: &Interp,
    atom: &Atom,
    binding: &HashMap<Var, Value>,
) -> Vec<Match> {
    let has_cost = program.is_cost_pred(atom.pred);
    let key_args = atom.key_args(has_cost);
    let mut out = Vec::new();

    // Fully bound fast path with default fallback.
    let key_vals: Vec<Option<Value>> = key_args
        .iter()
        .map(|t| resolve(t, binding))
        .collect();
    if key_vals.iter().all(Option::is_some) {
        let key = Tuple::new(key_vals.into_iter().map(Option::unwrap).collect());
        if let Some(cost) = db.cost(program, atom.pred, &key) {
            if let Some(m) = cost_match(atom, has_cost, &key, &cost, binding) {
                out.push(m);
            }
        }
        return out;
    }

    let Some(rel) = db.relation(atom.pred) else {
        return out;
    };
    // Indexed scan when some key position is already bound.
    let first_bound = key_args
        .iter()
        .position(|t| resolve(t, binding).is_some());
    let postings;
    let candidates: &[std::sync::Arc<Tuple>] = match first_bound {
        Some(pos) => {
            let val = resolve(&key_args[pos], binding).expect("position is bound");
            postings = rel.scan_eq(pos, &val);
            &postings
        }
        None => rel.arc_keys(),
    };
    'keys: for key in candidates {
        let cost = rel.get(key).cloned().unwrap_or(None);
        let cost = &cost;
        if key.arity() != key_args.len() {
            continue;
        }
        let mut bindings = Vec::new();
        for (i, t) in key_args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    if Value::from_const(*c) != key[i] {
                        continue 'keys;
                    }
                }
                Term::Var(v) => match binding.get(v) {
                    Some(b) => {
                        if *b != key[i] {
                            continue 'keys;
                        }
                    }
                    None => {
                        // A variable repeated within the atom must match
                        // consistently.
                        if let Some((_, prev)) =
                            bindings.iter().find(|(bv, _): &&(Var, Value)| bv == v).cloned()
                        {
                            if prev != key[i] {
                                continue 'keys;
                            }
                        } else {
                            bindings.push((*v, key[i].clone()));
                        }
                    }
                },
            }
        }
        // A variable shared by a key position and the cost argument must
        // match both.
        if let (Some(Term::Var(v)), Some(cv)) = (atom.cost_arg(has_cost), cost) {
            if let Some((_, kv)) = bindings.iter().find(|(bv, _)| bv == v) {
                if !values_equal(kv, cv) {
                    continue 'keys;
                }
            }
        }
        if let Some(mut m) = cost_match(
            atom,
            has_cost,
            key,
            cost,
            binding,
        ) {
            m.bindings.extend(bindings);
            out.push(m);
        }
    }
    out
}

fn cost_match(
    atom: &Atom,
    has_cost: bool,
    key: &Tuple,
    cost: &Option<Value>,
    binding: &HashMap<Var, Value>,
) -> Option<Match> {
    if !has_cost {
        return Some(Match {
            key: key.clone(),
            bindings: Vec::new(),
        });
    }
    let cv = cost.as_ref()?;
    match atom.cost_arg(true).expect("cost pred") {
        Term::Const(c) => values_equal(&Value::from_const(*c), cv).then(|| Match {
            key: key.clone(),
            bindings: Vec::new(),
        }),
        Term::Var(v) => match binding.get(v) {
            Some(b) => values_equal(b, cv).then(|| Match {
                key: key.clone(),
                bindings: Vec::new(),
            }),
            None => Some(Match {
                key: key.clone(),
                bindings: vec![(*v, cv.clone())],
            }),
        },
    }
}

fn ground_atom_holds(
    program: &Program,
    db: &Interp,
    atom: &Atom,
    binding: &HashMap<Var, Value>,
) -> Result<bool, String> {
    let has_cost = program.is_cost_pred(atom.pred);
    let mut key = Vec::new();
    for t in atom.key_args(has_cost) {
        key.push(resolve(t, binding).ok_or("unbound variable in negated subgoal")?);
    }
    let key = Tuple::new(key);
    let Some(cost) = db.cost(program, atom.pred, &key) else {
        return Ok(false);
    };
    if !has_cost {
        return Ok(true);
    }
    let want = atom
        .cost_arg(true)
        .and_then(|t| resolve(t, binding))
        .ok_or("unbound cost variable in negated subgoal")?;
    Ok(cost.is_some_and(|cv| values_equal(&cv, &want)))
}

/// One aggregate group: the multiset elements (one per satisfying
/// assignment) and, for provenance, every (pred, key) that participated.
#[derive(Clone, Debug, Default)]
pub struct Group {
    pub elements: Vec<Value>,
    pub members: Vec<(Pred, Tuple)>,
}

/// Enumerate the aggregate's conjunction against `db` and group elements.
fn collect_groups(
    program: &Program,
    db: &Interp,
    agg: &Aggregate,
    groupings: &[Var],
    binding: &HashMap<Var, Value>,
) -> Result<HashMap<Vec<Value>, Group>, String> {
    // Order conjuncts: default-value preds need their keys bound.
    let mut order: Vec<usize> = Vec::new();
    {
        let mut bound: std::collections::BTreeSet<Var> =
            binding.keys().copied().collect();
        let mut remaining: Vec<usize> = (0..agg.conjuncts.len()).collect();
        while !remaining.is_empty() {
            let mut chosen = None;
            for (pos, &ci) in remaining.iter().enumerate() {
                let atom = &agg.conjuncts[ci];
                if program.has_default(atom.pred) {
                    let ok = atom
                        .key_args(true)
                        .iter()
                        .all(|t| !matches!(t, Term::Var(v) if !bound.contains(v)));
                    if !ok {
                        continue;
                    }
                }
                chosen = Some(pos);
                break;
            }
            let pos = chosen.ok_or("cannot order aggregate conjunction")?;
            let ci = remaining.remove(pos);
            bound.extend(agg.conjuncts[ci].vars());
            order.push(ci);
        }
    }

    let mut groups: HashMap<Vec<Value>, Group> = HashMap::new();
    let mut b = binding.clone();
    enumerate(
        program,
        db,
        agg,
        &order,
        0,
        &mut b,
        &mut Vec::new(),
        groupings,
        &mut groups,
    );
    Ok(groups)
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    program: &Program,
    db: &Interp,
    agg: &Aggregate,
    order: &[usize],
    depth: usize,
    binding: &mut HashMap<Var, Value>,
    members: &mut Vec<(Pred, Tuple)>,
    groupings: &[Var],
    groups: &mut HashMap<Vec<Value>, Group>,
) {
    if depth == order.len() {
        let gv: Vec<Value> = groupings
            .iter()
            .map(|v| binding[v].clone())
            .collect();
        let element = match agg.multiset_var {
            Some(e) => binding[&e].clone(),
            None => Value::Bool(true),
        };
        let entry = groups.entry(gv).or_default();
        entry.elements.push(element);
        entry.members.extend(members.iter().cloned());
        return;
    }
    let atom = &agg.conjuncts[order[depth]];
    for m in match_atom(program, db, atom, binding) {
        let fresh = apply_match(binding, &m);
        members.push((atom.pred, m.key.clone()));
        enumerate(
            program, db, agg, order, depth + 1, binding, members, groupings, groups,
        );
        members.pop();
        undo_match(binding, fresh);
    }
}

#[derive(Debug)]
enum BuiltinOutcome {
    True,
    False,
    Bind(Var, Value),
}

fn eval_builtin(
    b: &maglog_datalog::Builtin,
    binding: &HashMap<Var, Value>,
) -> Result<BuiltinOutcome, String> {
    let lv = eval_expr(&b.lhs, binding);
    let rv = eval_expr(&b.rhs, binding);
    match (lv, rv) {
        (Some(l), Some(r)) => Ok(if compare(b.op, &l, &r) {
            BuiltinOutcome::True
        } else {
            BuiltinOutcome::False
        }),
        (Some(l), None) if b.op == CmpOp::Eq => match b.rhs.as_var() {
            Some(v) => Ok(BuiltinOutcome::Bind(v, l)),
            None => Err("unbound complex expression in builtin".into()),
        },
        (None, Some(r)) if b.op == CmpOp::Eq => match b.lhs.as_var() {
            Some(v) => Ok(BuiltinOutcome::Bind(v, r)),
            None => Err("unbound complex expression in builtin".into()),
        },
        _ => Err("unbound variables in builtin".into()),
    }
}

fn eval_expr(e: &Expr, binding: &HashMap<Var, Value>) -> Option<Value> {
    match e {
        Expr::Term(Term::Const(c)) => Some(Value::from_const(*c)),
        Expr::Term(Term::Var(v)) => binding.get(v).cloned(),
        Expr::Neg(inner) => Some(Value::num(-eval_expr(inner, binding)?.as_f64()?)),
        Expr::Bin(op, l, r) => {
            let a = eval_expr(l, binding)?.as_f64()?;
            let b = eval_expr(r, binding)?.as_f64()?;
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                BinOp::Div => {
                    if b == 0.0 {
                        return None;
                    }
                    a / b
                }
            };
            (!v.is_nan()).then(|| Value::num(v))
        }
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    a == b
        || matches!((a.as_f64(), b.as_f64()), (Some(x), Some(y)) if x == y)
}

fn compare(op: CmpOp, a: &Value, b: &Value) -> bool {
    match op {
        CmpOp::Eq => values_equal(a, b),
        CmpOp::Ne => !values_equal(a, b),
        _ => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return false;
            };
            match op {
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
                _ => unreachable!(),
            }
        }
    }
}

/// Resolve a term to a value under a binding.
pub fn resolve(t: &Term, binding: &HashMap<Var, Value>) -> Option<Value> {
    match t {
        Term::Const(c) => Some(Value::from_const(*c)),
        Term::Var(v) => binding.get(v).cloned(),
    }
}

/// Load the inline facts of a program (plus an optional extra EDB) into an
/// interpretation — shared helper for the baseline semantics.
pub fn load_base(program: &Program, edb: &maglog_engine::Edb) -> Result<Interp, String> {
    // Reuse the engine's loader by evaluating an empty component set: the
    // cheapest correct path is to mimic it directly here.
    let mut db = Interp::new();
    for atom in &program.facts {
        let spec = program.cost_spec(atom.pred);
        let has_cost = spec.is_some();
        let key: Vec<Value> = atom
            .key_args(has_cost)
            .iter()
            .map(|t| match t {
                Term::Const(c) => Value::from_const(*c),
                Term::Var(_) => unreachable!("facts are ground"),
            })
            .collect();
        let cost = match (spec, atom.cost_arg(has_cost)) {
            (Some(spec), Some(Term::Const(c))) => {
                Some(RuntimeDomain::new(spec.domain).coerce(Value::from_const(*c))?)
            }
            _ => None,
        };
        db.relation_mut(atom.pred).insert(Tuple::new(key), cost);
    }
    for (pred, key, cost) in edb.coerced(program)? {
        db.relation_mut(pred).insert(key, cost);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::parse_program;
    use maglog_engine::Edb;

    #[test]
    fn naive_fixpoint_matches_engine_on_positive_program() {
        let p = parse_program(
            r#"
            e(a, b). e(b, c). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), e(Z, Y).
            "#,
        )
        .unwrap();
        let base = load_base(&p, &Edb::new()).unwrap();
        let rules: Vec<&Rule> = p.rules.iter().collect();
        let eval = NaiveEval::new(&p);
        let (db, _) = eval.run(&rules, base, &Interp::new(), false).unwrap();
        let tc = p.find_pred("tc").unwrap();
        assert_eq!(db.relation(tc).unwrap().len(), 6);
    }

    #[test]
    fn fixed_negation_implements_reduct() {
        // p(X) :- q(X), ! r(X). With r(a) assumed in `fixed`, p(a) is not
        // derived; with empty fixed, it is.
        let p = parse_program(
            r#"
            q(a).
            p(X) :- q(X), ! r(X).
            "#,
        )
        .unwrap();
        let base = load_base(&p, &Edb::new()).unwrap();
        let rules: Vec<&Rule> = p.rules.iter().collect();
        let mut eval = NaiveEval::new(&p);
        eval.neg_src = Src::Fixed;

        let empty_fixed = Interp::new();
        let (db, _) = eval.run(&rules, base.clone(), &empty_fixed, false).unwrap();
        let pp = p.find_pred("p").unwrap();
        assert_eq!(db.relation(pp).map_or(0, |r| r.len()), 1);

        let mut fixed = Interp::new();
        let r = p.find_pred("r").unwrap();
        fixed
            .relation_mut(r)
            .insert(Tuple::new(vec![Value::Sym(p.symbols.intern("a"))]), None);
        let (db2, _) = eval.run(&rules, base, &fixed, false).unwrap();
        assert_eq!(db2.relation(pp).map_or(0, |r| r.len()), 0);
    }

    #[test]
    fn fixed_aggregates_evaluate_against_candidate() {
        // s(X, C) :- C =r min D : q(X, D) with q taken from `fixed`.
        let p = parse_program(
            r#"
            declare pred q/2 cost min_real.
            declare pred s/2 cost min_real.
            s(X, C) :- C =r min D : q(X, D).
            "#,
        )
        .unwrap();
        let rules: Vec<&Rule> = p.rules.iter().collect();
        let mut eval = NaiveEval::new(&p);
        eval.agg_src = Src::Fixed;

        let mut fixed = Interp::new();
        let q = p.find_pred("q").unwrap();
        let a = Value::Sym(p.symbols.intern("a"));
        fixed
            .relation_mut(q)
            .insert(Tuple::new(vec![a.clone()]), Some(Value::num(3.0)));
        let (db, _) = eval.run(&rules, Interp::new(), &fixed, false).unwrap();
        let s = p.find_pred("s").unwrap();
        assert_eq!(
            db.relation(s).unwrap().get(&Tuple::new(vec![a])),
            Some(&Some(Value::num(3.0)))
        );
    }

    #[test]
    fn provenance_records_firings() {
        let p = parse_program(
            r#"
            e(a, b).
            tc(X, Y) :- e(X, Y).
            "#,
        )
        .unwrap();
        let base = load_base(&p, &Edb::new()).unwrap();
        let rules: Vec<&Rule> = p.rules.iter().collect();
        let eval = NaiveEval::new(&p);
        let (_, firings) = eval.run(&rules, base, &Interp::new(), true).unwrap();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].pos_bodies.len(), 1);
        assert_eq!(firings[0].head.0, p.find_pred("tc").unwrap());
    }

    #[test]
    fn divergence_is_reported() {
        // Counting upward forever.
        let p = parse_program(
            r#"
            n(0).
            n(Y) :- n(X), Y = X + 1.
            "#,
        )
        .unwrap();
        let base = load_base(&p, &Edb::new()).unwrap();
        let rules: Vec<&Rule> = p.rules.iter().collect();
        let mut eval = NaiveEval::new(&p);
        eval.max_rounds = 25;
        assert!(eval.run(&rules, base, &Interp::new(), false).is_err());
    }
}
