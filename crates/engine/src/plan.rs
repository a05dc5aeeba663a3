//! Rule evaluation planning.
//!
//! Before evaluation, each rule body is ordered into a sequence of
//! [`Step`]s so that every literal runs with the variable bindings it
//! needs: built-in tests as early as possible, assignments once their
//! inputs are bound, negation and `=`-aggregates only when their
//! grouping/argument variables are bound, and positive atoms greedily by
//! how many of their arguments are already bound (so indexed scans apply).
//!
//! Range-restricted rules (Definition 2.5) always admit a plan; the
//! planner reports an error otherwise (reachable only with
//! `allow_unchecked`).
//!
//! Each [`Step::Atom`] and each aggregate conjunct also records the **join
//! signature** it will probe — the bitmask of key positions bound at that
//! point of the plan (constants and already-bound variables). The engine
//! registers these signatures on the relations before evaluation, so every
//! planned probe hits a matching multi-column index
//! ([`crate::interp::Relation::probe`]).
//!
//! ## Slot programs
//!
//! Plans are compiled against a dense numbering of the rule's variables
//! ([`Slots`]): slot `i` is the `i`-th distinct variable in ascending
//! [`Var`] order, the same numbering for every plan of the rule, so one
//! frame of `Option<Value>` cells serves all of them. Every atom becomes a
//! [`Probe`] recipe — per argument position a constant, a slot bound
//! before the atom, the first binding of a free slot, or a repeat of a
//! slot bound earlier in the same atom — builtins become [`SlotExpr`]s,
//! and the head becomes an [`Emit`] recipe. The evaluator runs these
//! recipes without looking a variable up by name.

use crate::interp::Sig;
use crate::value::{RuntimeDomain, Value};
use maglog_analysis::AnalysisReport;
use maglog_datalog::{AggEq, Atom, BinOp, CmpOp, Expr, Literal, Pred, Program, Rule, Term, Var};
use std::collections::BTreeSet;

/// Opt-in optimizing rewrites, each gated on a static proof from
/// `maglog-analysis`. Off by default: `--optimize` turns everything on,
/// `--optimize=prem,demand` selects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Optimize {
    /// Premappability-proven aggregate pushdown: dominated derivations of
    /// a proven component are pruned at emit time instead of buffered.
    pub prem: bool,
    /// Demand restriction for point queries
    /// ([`crate::MonotonicEngine::evaluate_goal`]): skip components
    /// outside the goal's derivation cone and filter the goal's component
    /// to tuples carrying the demanded constant.
    pub demand: bool,
}

impl Optimize {
    /// Every rewrite on.
    pub fn all() -> Optimize {
        Optimize {
            prem: true,
            demand: true,
        }
    }

    /// Parse a comma-separated rewrite list (`prem`, `demand`).
    pub fn parse(s: &str) -> Option<Optimize> {
        let mut opt = Optimize::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part {
                "prem" => opt.prem = true,
                "demand" => opt.demand = true,
                _ => return None,
            }
        }
        Some(opt)
    }

    /// Is any rewrite enabled?
    pub fn any(self) -> bool {
        self.prem || self.demand
    }

    /// Names of the enabled rewrites, for stats and profile output.
    pub fn names(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.prem {
            out.push("prem");
        }
        if self.demand {
            out.push("demand");
        }
        out
    }
}

/// The PreM rewrite decisions for a program, index-aligned with
/// [`maglog_datalog::graph::components`]: which components may prune
/// dominated derivations at emit time, and why (or why not), as recorded
/// in [`crate::EvalStats::optimizations`] and profile reports.
#[derive(Clone, Debug, Default)]
pub struct Rewrites {
    /// Per-component: dominance pruning is proven sound and enabled.
    pub prune: Vec<bool>,
    /// Per-component decision line (None for components without a
    /// recursive aggregate, where there is nothing to decide).
    pub decisions: Vec<Option<String>>,
}

/// Decide the PreM pushdown per component from a finished analysis
/// report. Pruning bypasses the same-round Definition 2.6 conflict check
/// for dominated derivations, so it is additionally gated on the program
/// being certified evaluable (statically conflict-free).
pub fn prem_rewrites(program: &Program, report: &AnalysisReport) -> Rewrites {
    let certified = report.evaluable();
    let mut out = Rewrites::default();
    for comp in &report.prem {
        let preds: Vec<String> = comp.preds.iter().map(|p| program.pred_name(*p)).collect();
        let preds = preds.join(", ");
        if !comp.recursive_aggregation {
            out.prune.push(false);
            out.decisions.push(None);
            continue;
        }
        if comp.premappable() && certified {
            out.prune.push(true);
            out.decisions.push(Some(format!(
                "prem: {{{preds}}} premappable — dominance pruning enabled"
            )));
        } else {
            let why = if !certified {
                "program not certified evaluable".to_string()
            } else {
                comp.refusals
                    .first()
                    .map(|r| r.reason.clone())
                    .unwrap_or_else(|| "unproven".to_string())
            };
            out.prune.push(false);
            out.decisions
                .push(Some(format!("prem: {{{preds}}} pushdown refused — {why}")));
        }
    }
    out
}

/// A dense variable number: the index of a variable's cell in a firing's
/// frame.
pub type Slot = usize;

/// The slot numbering of one rule: slot `i` holds the `i`-th distinct
/// variable in ascending [`Var`] order, so ordering slots orders their
/// variables.
#[derive(Clone, Debug, Default)]
pub struct Slots {
    vars: Vec<Var>,
}

impl Slots {
    pub fn of(rule: &Rule) -> Slots {
        let mut vars = rule.all_vars();
        vars.sort_unstable();
        Slots { vars }
    }

    /// Number of slots (the frame size).
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The slot of `v`, which must occur in the rule.
    pub fn slot(&self, v: Var) -> Slot {
        self.vars
            .binary_search(&v)
            .expect("variable occurs in the rule")
    }

    /// The variable held by slot `s`.
    pub fn var(&self, s: Slot) -> Var {
        self.vars[s]
    }
}

/// A head or expression operand: a constant or a slot.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    Const(Value),
    Slot(Slot),
}

impl Arg {
    fn compile(slots: &Slots, t: &Term) -> Arg {
        match t {
            Term::Const(c) => Arg::Const(Value::from_const(*c)),
            Term::Var(v) => Arg::Slot(slots.slot(*v)),
        }
    }
}

/// How one argument position of an atom meets the frame. `Const` and
/// `Bound` positions are known before the atom runs, so they form its
/// probe signature; `Bind` and `Repeat` positions are filled by the
/// matched tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgOp {
    /// A constant: compare.
    Const(Value),
    /// A slot bound before the atom runs: compare.
    Bound(Slot),
    /// The first occurrence of a slot free before the atom: bind it.
    Bind(Slot),
    /// A later occurrence of a slot this atom binds: compare.
    Repeat(Slot),
}

/// The probe recipe of one atom: what each key position and the cost
/// argument do, and the signature of the positions known in advance.
#[derive(Clone, Debug, PartialEq)]
pub struct Probe {
    pub pred: Pred,
    pub keys: Vec<ArgOp>,
    /// Present exactly for cost predicates.
    pub cost: Option<ArgOp>,
    /// The plan-time signature: `Const` and `Bound` key positions below 32.
    pub sig: Sig,
    /// The domain bottom a fully bound lookup falls back to on a
    /// default-value predicate.
    pub default: Option<Value>,
}

impl Probe {
    /// Compile `atom` given the variables `bound` before it runs.
    pub fn compile(program: &Program, slots: &Slots, atom: &Atom, bound: &BTreeSet<Var>) -> Probe {
        let spec = program.cost_spec(atom.pred);
        let has_cost = spec.is_some();
        let mut own: Vec<Var> = Vec::new();
        let mut op = |t: &Term| match t {
            Term::Const(c) => ArgOp::Const(Value::from_const(*c)),
            Term::Var(v) if bound.contains(v) => ArgOp::Bound(slots.slot(*v)),
            Term::Var(v) if own.contains(v) => ArgOp::Repeat(slots.slot(*v)),
            Term::Var(v) => {
                own.push(*v);
                ArgOp::Bind(slots.slot(*v))
            }
        };
        let keys: Vec<ArgOp> = atom.key_args(has_cost).iter().map(&mut op).collect();
        let cost = atom.cost_arg(has_cost).map(&mut op);
        let sig = keys
            .iter()
            .enumerate()
            .filter(|(i, k)| *i < 32 && matches!(k, ArgOp::Const(_) | ArgOp::Bound(_)))
            .fold(0, |sig, (i, _)| sig | (1 << i));
        let default = spec
            .filter(|s| s.has_default)
            .map(|s| RuntimeDomain::new(s.domain).bottom());
        Probe {
            pred: atom.pred,
            keys,
            cost,
            sig,
            default,
        }
    }
}

/// A builtin side compiled onto slots.
#[derive(Clone, Debug, PartialEq)]
pub enum SlotExpr {
    Arg(Arg),
    Neg(Box<SlotExpr>),
    Bin(BinOp, Box<SlotExpr>, Box<SlotExpr>),
}

impl SlotExpr {
    fn compile(slots: &Slots, e: &Expr) -> SlotExpr {
        match e {
            Expr::Term(t) => SlotExpr::Arg(Arg::compile(slots, t)),
            Expr::Neg(inner) => SlotExpr::Neg(Box::new(SlotExpr::compile(slots, inner))),
            Expr::Bin(op, l, r) => SlotExpr::Bin(
                *op,
                Box::new(SlotExpr::compile(slots, l)),
                Box::new(SlotExpr::compile(slots, r)),
            ),
        }
    }
}

/// The emit recipe of a rule head: where each key position and the cost
/// come from, and the cost domain the cost is coerced into.
#[derive(Clone, Debug)]
pub struct Emit {
    pub pred: Pred,
    pub keys: Vec<Arg>,
    /// Present exactly for cost predicates.
    pub cost: Option<(Arg, RuntimeDomain)>,
}

impl Emit {
    pub fn compile(program: &Program, slots: &Slots, rule: &Rule) -> Emit {
        let head = &rule.head;
        let spec = program.cost_spec(head.pred);
        let has_cost = spec.is_some();
        Emit {
            pred: head.pred,
            keys: head
                .key_args(has_cost)
                .iter()
                .map(|t| Arg::compile(slots, t))
                .collect(),
            cost: spec
                .zip(head.cost_arg(has_cost))
                .map(|(spec, t)| (Arg::compile(slots, t), RuntimeDomain::new(spec.domain))),
        }
    }
}

/// One evaluation step.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Join/scan a positive atom at body index `lit` through its probe
    /// recipe (`probe.sig` 0 = full scan).
    Atom { lit: usize, probe: Probe },
    /// Evaluate one side of an `=` builtin and bind the other (a single
    /// variable). At runtime, if the target is already bound this becomes
    /// an equality test.
    Assign {
        lit: usize,
        target: Slot,
        source: SlotExpr,
    },
    /// Check a fully bound builtin.
    Test {
        lit: usize,
        op: CmpOp,
        lhs: SlotExpr,
        rhs: SlotExpr,
    },
    /// Check a fully bound negative literal.
    Neg { lit: usize, probe: Probe },
    /// Evaluate an aggregate subgoal; `conjunct_order` is the join order
    /// of its conjunction given the variables bound at this point, and
    /// `conjuncts[i]` the probe recipe of conjunct `conjunct_order[i]`.
    /// `groupings` are the grouping variables' slots (in
    /// [`Rule::aggregate_grouping_vars`] order), `element` the multiset
    /// variable's, `result` the aggregate's result term.
    Agg {
        lit: usize,
        conjunct_order: Vec<usize>,
        conjuncts: Vec<Probe>,
        groupings: Vec<Slot>,
        element: Option<Slot>,
        result: Arg,
    },
}

/// An ordered evaluation plan for one rule body.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    pub steps: Vec<Step>,
}

impl Plan {
    /// Every (predicate, signature) this plan's probes want indexed —
    /// the engine registers these on the relations before evaluating.
    pub fn probe_sigs(&self) -> Vec<(Pred, Sig)> {
        let mut out = Vec::new();
        for step in &self.steps {
            match step {
                Step::Atom { probe, .. } => out.push((probe.pred, probe.sig)),
                Step::Agg { conjuncts, .. } => {
                    out.extend(conjuncts.iter().map(|c| (c.pred, c.sig)));
                }
                _ => {}
            }
        }
        out
    }

    /// A one-line human rendering of the plan for profiler reports:
    /// `pred[sig=0b101] ; C := expr ; test ; !neg ; agg{...}`, in step
    /// order. Signatures are shown in binary (bit i = key position i
    /// bound), `scan` for an unindexed full scan.
    pub fn summary(&self, program: &Program) -> String {
        let probe_str = |p: &Probe| -> String {
            let sig = if p.sig == 0 {
                "scan".to_string()
            } else {
                format!("sig=0b{:b}", p.sig)
            };
            format!("{}[{sig}]", program.pred_name(p.pred))
        };
        let parts: Vec<String> = self
            .steps
            .iter()
            .map(|step| match step {
                Step::Atom { probe, .. } => probe_str(probe),
                Step::Assign { .. } => ":=".to_string(),
                Step::Test { .. } => "test".to_string(),
                Step::Neg { probe, .. } => format!("!{}", program.pred_name(probe.pred)),
                Step::Agg { conjuncts, .. } => {
                    let inner: Vec<String> = conjuncts.iter().map(probe_str).collect();
                    format!("agg{{{}}}", inner.join(" "))
                }
            })
            .collect();
        parts.join(" ; ")
    }
}

/// Compute a plan for `rule`, assuming `initially_bound` variables are
/// bound on entry and that the literal `skip` (if any) has already been
/// consumed by a semi-naive driver. The steps are compiled against
/// [`Slots::of`]`(rule)`.
pub fn plan_rule(
    program: &Program,
    rule: &Rule,
    initially_bound: &BTreeSet<Var>,
    skip: Option<usize>,
) -> Result<Plan, String> {
    let slots = Slots::of(rule);
    let mut bound = initially_bound.clone();
    let mut remaining: Vec<usize> = (0..rule.body.len())
        .filter(|i| Some(*i) != skip)
        .collect();
    let mut steps = Vec::new();

    while !remaining.is_empty() {
        let Some((pos_in_remaining, step)) =
            pick_next(program, rule, &slots, &remaining, &bound)
        else {
            return Err(format!(
                "cannot order rule body (unbound `=`-aggregate grouping or free \
                 builtin variable): {}",
                program.display_rule(rule)
            ));
        };
        // Update bound variables.
        match &step {
            Step::Atom { lit, .. } => {
                if let Literal::Pos(a) = &rule.body[*lit] {
                    bound.extend(a.vars());
                }
            }
            Step::Assign { target, .. } => {
                bound.insert(slots.var(*target));
            }
            Step::Test { .. } | Step::Neg { .. } => {}
            Step::Agg { lit, .. } => {
                if let Literal::Agg(agg) = &rule.body[*lit] {
                    bound.extend(rule.aggregate_grouping_vars(*lit));
                    if let Term::Var(v) = agg.result {
                        bound.insert(v);
                    }
                }
            }
        }
        steps.push(step);
        remaining.remove(pos_in_remaining);
    }
    Ok(Plan { steps })
}

/// Pick the best ready literal; returns its index within `remaining` and
/// its step, compiled onto `slots`.
fn pick_next(
    program: &Program,
    rule: &Rule,
    slots: &Slots,
    remaining: &[usize],
    bound: &BTreeSet<Var>,
) -> Option<(usize, Step)> {
    // Priority tiers: lower is better.
    let mut best: Option<(u32, usize, Step)> = None;
    for (ri, &li) in remaining.iter().enumerate() {
        let candidate = match &rule.body[li] {
            Literal::Builtin(b) => {
                let lhs_vars = b.lhs.vars();
                let rhs_vars = b.rhs.vars();
                let lhs_bound = lhs_vars.iter().all(|v| bound.contains(v));
                let rhs_bound = rhs_vars.iter().all(|v| bound.contains(v));
                if lhs_bound && rhs_bound {
                    Some((
                        0,
                        Step::Test {
                            lit: li,
                            op: b.op,
                            lhs: SlotExpr::compile(slots, &b.lhs),
                            rhs: SlotExpr::compile(slots, &b.rhs),
                        },
                    ))
                } else if b.op == CmpOp::Eq {
                    // One side a single unbound variable, other side bound.
                    let as_assign = |target: &Expr, source: &Expr, source_bound: bool| {
                        target.as_var().and_then(|v| {
                            (!bound.contains(&v) && source_bound).then(|| Step::Assign {
                                lit: li,
                                target: slots.slot(v),
                                source: SlotExpr::compile(slots, source),
                            })
                        })
                    };
                    as_assign(&b.lhs, &b.rhs, rhs_bound)
                        .or_else(|| as_assign(&b.rhs, &b.lhs, lhs_bound))
                        .map(|s| (16, s))
                } else {
                    None
                }
            }
            Literal::Neg(a) => {
                let ready = a.vars().all(|v| bound.contains(&v));
                ready.then(|| {
                    (
                        32,
                        Step::Neg {
                            lit: li,
                            probe: Probe::compile(program, slots, a, bound),
                        },
                    )
                })
            }
            Literal::Pos(a) => {
                let total = a.args.len();
                let bound_args = a
                    .args
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    })
                    .count();
                // A default-value predicate's implicit tuples are found by
                // lookup, never by a scan: wait until its key variables are
                // bound, as `plan_conjuncts` does. Range restriction
                // guarantees such an order on certified programs; on
                // unchecked ones the atom is scanned only when nothing
                // else is ready.
                let keys_free = program.has_default(a.pred)
                    && a
                        .key_args(program.is_cost_pred(a.pred))
                        .iter()
                        .any(|t| matches!(t, Term::Var(v) if !bound.contains(v)));
                let tier = if keys_free {
                    64
                } else if total == bound_args {
                    3 // pure membership test
                } else if bound_args > 0 {
                    // Prefer more-bound atoms: tier 4 block, refined below.
                    4
                } else {
                    6
                };
                // Encode bound count into priority: more bound = better.
                let refint = (total - bound_args) as u32;
                let probe = Probe::compile(program, slots, a, bound);
                Some((48 + tier * 16 + refint, Step::Atom { lit: li, probe }))
            }
            Literal::Agg(agg) => {
                let groupings = rule.aggregate_grouping_vars(li);
                let all_bound = groupings.iter().all(|v| bound.contains(v));
                let ready = all_bound || agg.eq == AggEq::Restricted;
                if !ready {
                    None
                } else {
                    let tier = if all_bound { 5 } else { 7 };
                    plan_conjuncts(program, rule, slots, li, bound).map(|(order, conjuncts)| {
                        (
                            48 + tier * 16,
                            Step::Agg {
                                lit: li,
                                conjunct_order: order,
                                conjuncts,
                                groupings: groupings.iter().map(|v| slots.slot(*v)).collect(),
                                element: agg.multiset_var.map(|v| slots.slot(v)),
                                result: Arg::compile(slots, &agg.result),
                            },
                        )
                    })
                }
            }
        };
        if let Some((prio, step)) = candidate {
            if best.as_ref().is_none_or(|(bp, _, _)| prio < *bp) {
                best = Some((prio, ri, step));
            }
        }
    }
    best.map(|(_, ri, step)| (ri, step))
}

/// Order the conjuncts of the aggregate at body index `li`, assuming
/// `bound` plus whatever earlier conjuncts bind, and compile the probe
/// recipe of each conjunct in that order. Default-value predicates must
/// have all non-cost arguments bound before they are matched (otherwise
/// their infinite extension would be enumerated).
fn plan_conjuncts(
    program: &Program,
    rule: &Rule,
    slots: &Slots,
    li: usize,
    bound: &BTreeSet<Var>,
) -> Option<(Vec<usize>, Vec<Probe>)> {
    let Literal::Agg(agg) = &rule.body[li] else {
        return None;
    };
    let mut bound = bound.clone();
    let mut order = Vec::new();
    let mut probes = Vec::new();
    let mut remaining: Vec<usize> = (0..agg.conjuncts.len()).collect();
    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, usize)> = None; // (unbound count, pos, idx)
        for (pos, &ci) in remaining.iter().enumerate() {
            let atom = &agg.conjuncts[ci];
            let has_default = program.has_default(atom.pred);
            let key_args = atom.key_args(program.is_cost_pred(atom.pred));
            let unbound = atom
                .args
                .iter()
                .filter(|t| matches!(t, Term::Var(v) if !bound.contains(v)))
                .count();
            if has_default {
                // All key (non-cost) variables must be bound.
                let key_ok = key_args
                    .iter()
                    .all(|t| !matches!(t, Term::Var(v) if !bound.contains(v)));
                if !key_ok {
                    continue;
                }
            }
            if best.is_none_or(|(bu, _, _)| unbound < bu) {
                best = Some((unbound, pos, ci));
            }
        }
        let (_, pos, ci) = best?;
        probes.push(Probe::compile(program, slots, &agg.conjuncts[ci], &bound));
        bound.extend(agg.conjuncts[ci].vars());
        order.push(ci);
        remaining.remove(pos);
    }
    Some((order, probes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::parse_program;

    fn plan_first_rule(src: &str) -> (maglog_datalog::Program, Plan) {
        let p = parse_program(src).unwrap();
        let plan = plan_rule(&p, &p.rules[0], &BTreeSet::new(), None).unwrap();
        (p, plan)
    }

    #[test]
    fn path_rule_orders_join_then_arith() {
        let (_, plan) = plan_first_rule(
            r#"
            declare pred s/3 cost min_real.
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            "#,
        );
        assert!(matches!(plan.steps[0], Step::Atom { lit: 0, .. }));
        assert!(matches!(plan.steps[1], Step::Atom { lit: 1, .. }));
        assert!(matches!(plan.steps[2], Step::Assign { lit: 2, .. }));
    }

    #[test]
    fn restricted_aggregate_can_lead() {
        let (_, plan) = plan_first_rule(
            r#"
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            "#,
        );
        assert!(matches!(plan.steps[0], Step::Agg { lit: 0, .. }));
    }

    #[test]
    fn total_aggregate_requires_bound_groupings() {
        // `=` count with grouping bound by requires: plan succeeds with
        // requires first.
        let (_, plan) = plan_first_rule(
            "coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.",
        );
        assert!(matches!(plan.steps[0], Step::Atom { lit: 0, .. }));
        assert!(matches!(plan.steps[1], Step::Agg { lit: 1, .. }));
        assert!(matches!(plan.steps[2], Step::Test { lit: 2, .. }));
    }

    #[test]
    fn unplannable_total_aggregate_is_an_error() {
        let p = parse_program(
            r#"
            declare pred q/2 cost max_real.
            declare pred p/2 cost max_real.
            p(X, C) :- C = max D : q(X, D).
            "#,
        )
        .unwrap();
        // X is a grouping var with nothing to bind it: no plan.
        assert!(plan_rule(&p, &p.rules[0], &BTreeSet::new(), None).is_err());
    }

    #[test]
    fn default_pred_conjunct_is_ordered_after_binder() {
        let (_, plan) = plan_first_rule(
            r#"
            declare pred t/2 cost bool_or default.
            t(G, C) :- gate(G, and), C = and D : [t(W, D), connect(G, W)].
            "#,
        );
        // Inside the aggregate, connect(G, W) must run before t(W, D).
        let Step::Agg { conjunct_order, .. } = &plan.steps[1] else {
            panic!("expected aggregate step, got {:?}", plan.steps);
        };
        assert_eq!(conjunct_order, &vec![1, 0]);
    }

    #[test]
    fn negation_waits_for_bindings() {
        let (_, plan) =
            plan_first_rule("p(X, Y) :- q(X), ! r(X, Y), e(X, Y).");
        // Neg must come after e(X, Y) binds Y.
        let neg_pos = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::Neg { .. }))
            .unwrap();
        let e_pos = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::Atom { lit: 2, .. }))
            .unwrap();
        assert!(neg_pos > e_pos);
    }

    #[test]
    fn summary_renders_steps_in_order() {
        let (p, plan) = plan_first_rule(
            r#"
            declare pred s/3 cost min_real.
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            "#,
        );
        assert_eq!(plan.summary(&p), "s[scan] ; arc[sig=0b1] ; :=");
    }

    #[test]
    fn seeded_plan_skips_driver_literal() {
        let p = parse_program(
            r#"
            declare pred s/3 cost min_real.
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            "#,
        )
        .unwrap();
        let rule = &p.rules[0];
        let seed_vars: BTreeSet<_> = match &rule.body[0] {
            Literal::Pos(a) => a.vars().collect(),
            _ => unreachable!(),
        };
        let plan = plan_rule(&p, rule, &seed_vars, Some(0)).unwrap();
        assert_eq!(plan.steps.len(), 2);
        assert!(matches!(plan.steps[0], Step::Atom { lit: 1, .. }));
    }
}
