//! Bottom-up evaluation: `T_P`, naive and semi-naive fixpoints, and the
//! iterated minimal-model construction.
//!
//! For each program component (in dependency order, Section 6.3) the
//! engine iterates `J ← J ⊔ T_P(J, I)` from `J_∅`. For monotonic programs
//! this inflationary iteration converges to the least fixpoint of `T_P`
//! (Tarski / Proposition 3.3), i.e. the component's unique minimal model.
//!
//! The **semi-naive** strategy tracks the *delta* — keys that appeared or
//! whose cost strictly grew in `⊑` — and re-fires a rule only from
//! occurrences of changed atoms: positive body atoms are re-joined seeded
//! by the delta tuple, and aggregates are re-evaluated only for the
//! affected grouping bindings (derived by matching the delta tuple against
//! the aggregate's conjunct). This is the lattice generalization of
//! classical semi-naive evaluation and is benchmarked against naive
//! iteration as an ablation.
//!
//! Every firing — naive, semi-naive or greedy — runs the rule's
//! slot program (see [`crate::plan`]) on a reused `Frame`: one
//! `Option<Value>` cell per rule variable, a trail of the slots bound
//! since the firing began (backtracking truncates it to a mark), and
//! scratch buffers for probe projections, lookup keys, the head key,
//! group keys and seed keys. Matching a tuple, seeding a driver and
//! emitting a head therefore allocate nothing; only a derivation that
//! survives the demand and PreM filters allocates its `Arc<Tuple>` key.

use crate::aggregate;
use crate::edb::Edb;
use crate::error::EvalError;
use crate::events::{EventSink, InsertOutcome, NoopSink};
use crate::interp::{Interp, Joined, Sig, Tuple};
use crate::model::Model;
use crate::plan::{
    plan_rule, prem_rewrites, Arg, ArgOp, Emit, Optimize, Plan, Probe, Rewrites, Slot, SlotExpr,
    Slots, Step,
};
use crate::provenance::{
    select_witnesses, AggWitness, BodyAtom, Capture, Goal, NoCapture, Provenance,
    ProvenanceTracker, RuleProbe, WhyNotReport,
};
use crate::value::{RuntimeDomain, Value};
use maglog_analysis::{check_program, derivation_cone, key_arity, uniform_binding};
use maglog_datalog::graph::{components, Component};
use maglog_datalog::{
    AggEq, AggFunc, Atom, BinOp, CmpOp, Expr, Literal, Pred, Program, Rule, Term, Var,
};
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Per-round dedup of aggregate-driver re-evaluations: per (exec slot,
/// driver discriminator), the seed values seen so far, in the driver's
/// seed-slot order. A seed is looked up by slice and copied only when new.
#[derive(Default)]
struct SeenSeeds {
    sets: HashMap<(usize, u64), HashSet<Vec<Value>>>,
}

impl SeenSeeds {
    /// Record `seed` for the driver; false if it was already seen.
    fn insert(&mut self, exec: usize, disc: u64, seed: &[Value]) -> bool {
        let set = self.sets.entry((exec, disc)).or_default();
        !set.contains(seed) && set.insert(seed.to_vec())
    }
}

/// Per-predicate emit-time demand filter: (key position, demanded
/// constant). Only predicates of the goal's component appear.
type DemandFilter = HashMap<Pred, (usize, Value)>;

/// One round's changes, batched per predicate: each changed key with the
/// cost it now holds, so a driver matches its delta tuple without looking
/// the cost up again.
type Delta = HashMap<Pred, Vec<(Arc<Tuple>, Option<Value>)>>;

/// The runtime demand restriction derived from a point query
/// ([`MonotonicEngine::evaluate_goal`] under `--optimize=demand`).
struct DemandPlan {
    /// Predicates the goal transitively depends on; components disjoint
    /// from the cone are skipped.
    cone: BTreeSet<Pred>,
    /// Constant filters applied at emit time within the goal's component.
    filter: DemandFilter,
    /// Human-readable decision line for stats and profile output.
    decision: String,
}

/// Fixpoint strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Re-fire every rule fully each round.
    Naive,
    /// Delta-driven re-firing.
    #[default]
    SemiNaive,
    /// Best-first (Dijkstra-style) settling for *cost-inflationary*
    /// `min_real` components — the greedy technique of Ganguly, Greco &
    /// Zaniolo that Section 7 discusses. Candidate derivations are kept in
    /// a priority queue ordered by cost; the least is settled first and
    /// each key settles exactly once, so zero-weight cycles terminate in
    /// one pass and no dominated tuple is ever expanded. Components that
    /// are not eligible (non-`min_real` CDB domains, non-`min` recursive
    /// aggregates, non-cost CDB predicates) fall back to semi-naive;
    /// instances that violate the inflation assumption at runtime (a
    /// derivation cheaper than the settling frontier — negative weights)
    /// abort with [`EvalError::GreedyViolation`].
    Greedy,
}

impl Strategy {
    /// Stable lowercase name, used by profile reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::SemiNaive => "seminaive",
            Strategy::Greedy => "greedy",
        }
    }

    /// Parse a CLI strategy name (the inverse of [`Strategy::name`]).
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "naive" => Some(Strategy::Naive),
            "seminaive" | "semi-naive" => Some(Strategy::SemiNaive),
            "greedy" => Some(Strategy::Greedy),
            _ => None,
        }
    }
}

/// Evaluation options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    pub strategy: Strategy,
    /// Cap on fixpoint rounds per component (Section 6.2: termination is
    /// only guaranteed on well-founded cost descents).
    pub max_rounds: usize,
    /// Detect cost conflicts within a `T_P` application (Definition 2.6).
    /// When false, conflicting derivations are resolved by the lattice
    /// join instead of erroring.
    pub check_consistency: bool,
    /// Skip the static certification gate (range restriction,
    /// conflict-freedom, admissibility). The fixpoint of a non-monotonic
    /// program — if it terminates — is *some* pre-model, not necessarily
    /// the least one.
    pub allow_unchecked: bool,
    /// Opt-in optimizing rewrites, each applied only where its static
    /// proof (premappability, uniform stable binding) succeeds. The
    /// computed model is identical with or without them.
    pub optimize: Optimize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            strategy: Strategy::SemiNaive,
            max_rounds: 100_000,
            check_consistency: true,
            allow_unchecked: false,
            optimize: Optimize::default(),
        }
    }
}

/// Evaluation statistics.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// Rounds used by each component, in evaluation order.
    pub rounds: Vec<usize>,
    /// Total number of head derivations (including re-derivations).
    pub derivations: u64,
    /// Total number of rule firings attempted.
    pub firings: u64,
    /// Optimizing-rewrite decisions taken this run (empty without
    /// [`EvalOptions::optimize`]), one human-readable line each.
    pub optimizations: Vec<String>,
    /// Derivations skipped by proven-sound filters (PreM dominance
    /// pruning, demand restriction) before they were buffered.
    pub pruned: u64,
}

/// The monotonic-aggregation engine.
pub struct MonotonicEngine<'p> {
    program: &'p Program,
    options: EvalOptions,
}

impl<'p> MonotonicEngine<'p> {
    pub fn new(program: &'p Program) -> Self {
        MonotonicEngine {
            program,
            options: EvalOptions::default(),
        }
    }

    pub fn with_options(program: &'p Program, options: EvalOptions) -> Self {
        MonotonicEngine { program, options }
    }

    /// Compute the iterated minimal model of the program over `edb`.
    pub fn evaluate(&self, edb: &Edb) -> Result<Model, EvalError> {
        self.evaluate_with_sink(edb, &mut NoopSink)
    }

    /// Like [`evaluate`](Self::evaluate), reporting instrumentation events
    /// into `sink` as the fixpoint runs. With [`NoopSink`] this
    /// monomorphizes to the uninstrumented evaluator.
    pub fn evaluate_with_sink<S: EventSink>(
        &self,
        edb: &Edb,
        sink: &mut S,
    ) -> Result<Model, EvalError> {
        self.evaluate_inner(edb, sink, &mut NoCapture, None)
    }

    /// Evaluate a ground point query. Without
    /// [`EvalOptions::optimize`]`.demand` this is a plain
    /// [`evaluate`](Self::evaluate) (the caller reads the answer out of
    /// the full model); with it, components disjoint from the goal's
    /// derivation cone are skipped outright and the goal's own component
    /// is restricted to tuples carrying the demanded constant whenever
    /// the demand analysis proves a uniform stable binding. The answer
    /// for the queried fact is identical either way.
    pub fn evaluate_goal(&self, edb: &Edb, goal: &Goal) -> Result<Model, EvalError> {
        self.evaluate_goal_with_sink(edb, goal, &mut NoopSink)
    }

    /// [`evaluate_goal`](Self::evaluate_goal) with instrumentation.
    pub fn evaluate_goal_with_sink<S: EventSink>(
        &self,
        edb: &Edb,
        goal: &Goal,
        sink: &mut S,
    ) -> Result<Model, EvalError> {
        self.evaluate_inner(edb, sink, &mut NoCapture, Some(goal))
    }

    /// Like [`evaluate`](Self::evaluate), additionally recording the
    /// derivation DAG of every accepted insert/improvement. The greedy
    /// strategy settles keys outside the `T_P` apply loop, so it is
    /// clamped to semi-naive here; the model is identical either way.
    pub fn evaluate_with_provenance(&self, edb: &Edb) -> Result<(Model, Provenance), EvalError> {
        let mut options = self.options.clone();
        if options.strategy == Strategy::Greedy {
            options.strategy = Strategy::SemiNaive;
        }
        let engine = MonotonicEngine {
            program: self.program,
            options,
        };
        let mut cap = ProvenanceTracker::new(self.program);
        let model = engine.evaluate_inner(edb, &mut NoopSink, &mut cap, None)?;
        Ok((model, cap.finish()))
    }

    fn evaluate_inner<S: EventSink, C: Capture>(
        &self,
        edb: &Edb,
        sink: &mut S,
        cap: &mut C,
        query: Option<&Goal>,
    ) -> Result<Model, EvalError> {
        // The PreM rewrite needs the analysis report even when the
        // certification gate is bypassed: pruning is only sound on a
        // certified (statically conflict-free) program.
        let report = (!self.options.allow_unchecked || self.options.optimize.prem)
            .then(|| check_program(self.program));
        if !self.options.allow_unchecked {
            let report = report.as_ref().expect("gate computed the report");
            if !report.evaluable() {
                return Err(EvalError::NotCertified(report.summary(self.program)));
            }
        }
        let rewrites = match &report {
            Some(report) if self.options.optimize.prem => {
                prem_rewrites(self.program, report)
            }
            _ => Rewrites::default(),
        };

        let mut db = Interp::new();
        self.load_facts(&mut db, edb)?;

        let comps = components(self.program);
        let demand = match query {
            Some(goal) if self.options.optimize.demand => {
                Some(self.demand_plan(&comps, goal))
            }
            _ => None,
        };

        let mut stats = EvalStats::default();
        for line in rewrites.decisions.iter().flatten() {
            sink.optimization(line);
            stats.optimizations.push(line.clone());
        }
        if let Some(d) = &demand {
            sink.optimization(&d.decision);
            stats.optimizations.push(d.decision.clone());
        }

        let mut skipped = 0usize;
        for (ci, comp) in comps.iter().enumerate() {
            if let Some(d) = &demand {
                // A component disjoint from the derivation cone cannot
                // influence the query's answer: skip it wholesale. The
                // zero keeps `stats.rounds` index-aligned with components.
                if comp.preds.is_disjoint(&d.cone) {
                    stats.rounds.push(0);
                    skipped += 1;
                    continue;
                }
            }
            let prune = rewrites.prune.get(ci).copied().unwrap_or(false);
            let rounds = self
                .eval_component(
                    &mut db,
                    &comp.preds,
                    &comp.rule_indices,
                    ci,
                    prune,
                    demand.as_ref().map(|d| &d.filter),
                    &mut stats,
                    sink,
                    cap,
                )
                .map_err(|e| match e {
                    EvalError::NonTermination {
                        rounds,
                        preds,
                        last_delta,
                        ..
                    } => EvalError::NonTermination {
                        rounds,
                        component: ci,
                        preds,
                        last_delta,
                    },
                    other => other,
                })?;
            stats.rounds.push(rounds);
        }
        if skipped > 0 {
            let line = format!("demand: skipped {skipped} component(s) outside the cone");
            sink.optimization(&line);
            stats.optimizations.push(line);
        }
        for pred in db.preds().collect::<Vec<_>>() {
            if let Some(rel) = db.relation(pred) {
                sink.index_stats(pred, rel.index_sigs().len(), rel.index_stats());
                // The deep-size walk is O(db); only pay it for sinks that
                // report memory.
                if sink.wants_relation_memory() {
                    sink.relation_memory(pred, rel.heap_bytes());
                }
            }
        }
        Ok(Model::new(db, stats))
    }

    fn load_facts(&self, db: &mut Interp, edb: &Edb) -> Result<(), EvalError> {
        // Inline program facts.
        for atom in &self.program.facts {
            let spec = self.program.cost_spec(atom.pred);
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
                    let domain = RuntimeDomain::new(spec.domain);
                    Some(
                        domain
                            .coerce(Value::from_const(*c))
                            .map_err(EvalError::Domain)?,
                    )
                }
                _ => None,
            };
            self.store_fact(db, atom.pred, Tuple::new(key), cost)?;
        }
        // External EDB.
        for (pred, key, cost) in edb.coerced(self.program).map_err(EvalError::Domain)? {
            self.store_fact(db, pred, key, cost)?;
        }
        Ok(())
    }

    fn store_fact(
        &self,
        db: &mut Interp,
        pred: Pred,
        key: Tuple,
        cost: Option<Value>,
    ) -> Result<(), EvalError> {
        let rel = db.relation_mut(pred);
        match (rel.get(&key), &cost) {
            (Some(Some(old)), Some(new)) if old != new => {
                if self.options.check_consistency {
                    return Err(EvalError::CostConflict {
                        pred: self.program.pred_name(pred),
                        key: format!("{key:?}"),
                        value_a: old.to_string(),
                        value_b: new.to_string(),
                    });
                }
                let domain = RuntimeDomain::new(
                    self.program.cost_spec(pred).expect("cost value").domain,
                );
                let joined = domain.join(old, new);
                rel.insert(key, Some(joined));
            }
            _ => {
                rel.insert(key, cost);
            }
        }
        Ok(())
    }

    /// Build the runtime demand restriction for one point query: the
    /// goal's derivation cone, plus per-predicate constant filters on the
    /// goal's own component when [`uniform_binding`] proves one of the
    /// goal's key positions stable.
    fn demand_plan(&self, comps: &[Component], goal: &Goal) -> DemandPlan {
        let cone = derivation_cone(self.program, goal.pred);
        let gname = self.program.pred_name(goal.pred);
        let mut filter = HashMap::new();
        let mut restricted = None;
        if let Some(comp) = comps.iter().find(|c| c.preds.contains(&goal.pred)) {
            for pos in 0..key_arity(self.program, goal.pred) {
                let Some(want) = goal.key.0.get(pos) else { break };
                if let Some(assign) = uniform_binding(self.program, comp, goal.pred, pos) {
                    for (p, j) in assign {
                        filter.insert(p, (j, want.clone()));
                    }
                    restricted = Some((pos, want.clone()));
                    break;
                }
            }
        }
        let decision = match restricted {
            Some((pos, v)) => format!(
                "demand: restricted the component of {gname} to {gname}[{pos}] = {}",
                v.display(self.program)
            ),
            None => format!("demand: no stable binding for {gname}; cone restriction only"),
        };
        DemandPlan {
            cone,
            filter,
            decision,
        }
    }

    /// Evaluate one component to fixpoint. Returns the number of rounds.
    #[allow(clippy::too_many_arguments)]
    fn eval_component<S: EventSink, C: Capture>(
        &self,
        db: &mut Interp,
        cdb: &BTreeSet<Pred>,
        rule_indices: &[usize],
        ci: usize,
        prune: bool,
        demand: Option<&DemandFilter>,
        stats: &mut EvalStats,
        sink: &mut S,
        cap: &mut C,
    ) -> Result<usize, EvalError> {
        // Precompute each rule's slot programs: the full plan, one seeded
        // plan per semi-naive driver, and the head's emit recipe.
        let mut execs: Vec<RuleExec> = Vec::new();
        for &ri in rule_indices {
            let rule = &self.program.rules[ri];
            let slots = Slots::of(rule);
            let plan = plan_rule(self.program, rule, &BTreeSet::new(), None)
                .map_err(EvalError::Aggregate)?;
            let seed_of = |vars: BTreeSet<Var>| -> Vec<(Var, Slot)> {
                vars.into_iter().map(|v| (v, slots.slot(v))).collect()
            };
            let mut drivers = Vec::new();
            for (li, lit) in rule.body.iter().enumerate() {
                match lit {
                    Literal::Pos(a) if cdb.contains(&a.pred) => {
                        let seed_vars: BTreeSet<Var> = a.vars().collect();
                        let seeded = plan_rule(self.program, rule, &seed_vars, Some(li))
                            .map_err(EvalError::Aggregate)?;
                        drivers.push(Driver {
                            pred: a.pred,
                            lit: li,
                            conjunct: None,
                            disc: li as u64 * 1024 + 1023,
                            atom: Probe::compile(self.program, &slots, a, &BTreeSet::new()),
                            seed: seed_of(seed_vars),
                            plan: seeded,
                            relax: None,
                        });
                    }
                    Literal::Agg(agg) => {
                        // Join-fold relaxation eligibility (see Driver):
                        // single-conjunct `=r` fold whose result variable is
                        // exactly the head cost argument and occurs nowhere
                        // else in the rule.
                        let relax = relaxation_plan(self.program, rule, li, agg).map(|plan| {
                            let Term::Var(result) = agg.result else {
                                unreachable!("relaxation requires a variable result")
                            };
                            Relax {
                                plan,
                                result: slots.slot(result),
                            }
                        });
                        let groupings = rule.aggregate_grouping_vars(li);
                        for (ci, conj) in agg.conjuncts.iter().enumerate() {
                            if cdb.contains(&conj.pred) {
                                // The seed keeps the grouping variables the
                                // conjunct binds (plus the result variable
                                // a relaxation binds to the delta element).
                                let mut seed_vars: BTreeSet<Var> =
                                    conj.vars().filter(|v| groupings.contains(v)).collect();
                                if let Some(relax) = &relax {
                                    seed_vars.insert(slots.var(relax.result));
                                }
                                drivers.push(Driver {
                                    pred: conj.pred,
                                    lit: li,
                                    conjunct: Some(ci),
                                    disc: li as u64 * 1024
                                        + if relax.is_some() { 1022 } else { ci as u64 },
                                    atom: Probe::compile(
                                        self.program,
                                        &slots,
                                        conj,
                                        &BTreeSet::new(),
                                    ),
                                    seed: seed_of(seed_vars),
                                    // Aggregate drivers re-run the default
                                    // plan with grouping vars pre-bound.
                                    plan: plan.clone(),
                                    relax: relax.clone(),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
            execs.push(RuleExec {
                ri,
                rule,
                head: Emit::compile(self.program, &slots, rule),
                slots,
                demand: demand.and_then(|f| f.get(&rule.head.pred)).cloned(),
                plan,
                drivers,
            });
        }

        // Register every plan-selected probe signature on its relation so
        // the join indexes exist before the first probe (plan-time index
        // selection). Aggregate-driver reruns that bind extra grouping
        // positions fall back to lazily created indexes for their wider
        // signatures.
        for exec in &execs {
            let mut wanted: Vec<(Pred, Sig)> = exec.plan.probe_sigs();
            for driver in &exec.drivers {
                wanted.extend(driver.plan.probe_sigs());
                if let Some(relax) = &driver.relax {
                    wanted.extend(relax.plan.probe_sigs());
                }
            }
            for (pred, sig) in wanted {
                db.relation_mut(pred).ensure_index(sig);
            }
        }

        let greedy = self.options.strategy == Strategy::Greedy
            && greedy_eligible(self.program, cdb, rule_indices);
        let used = if greedy {
            Strategy::Greedy
        } else if self.options.strategy == Strategy::Naive {
            Strategy::Naive
        } else {
            // A requested greedy strategy falls back to semi-naive on
            // ineligible components.
            Strategy::SemiNaive
        };
        let cdb_preds: Vec<Pred> = cdb.iter().copied().collect();
        sink.component_start(ci, used, &cdb_preds);

        // Per-exec-slot head-derivation counts, flushed as
        // `rule_derivations` events at component end.
        let mut rule_pushes = vec![0u64; execs.len()];
        // Aggregate-evaluation totals (interior mutability: `Ctx` is shared
        // immutably down the recursive step executor).
        let agg_counters = AggCounters::default();

        if greedy {
            // Dominance pruning is withheld under greedy settling: a
            // dominated derivation there is evidence of a frontier
            // violation (negative weights), which must surface as
            // `GreedyViolation`, not be silently discarded.
            return self.eval_component_greedy(
                db,
                cdb,
                &execs,
                ci,
                &mut rule_pushes,
                &agg_counters,
                stats,
                sink,
                cap,
            );
        }

        let mut rounds = 0usize;
        let mut component_pruned = 0u64;
        let mut frames: Vec<Frame> = execs.iter().map(Frame::for_exec).collect();
        // Per-round delta, batched per predicate: each driver iterates only
        // the changes of its own predicate instead of rescanning the whole
        // round delta per occurrence.
        let mut delta = Delta::new();
        loop {
            if rounds >= self.options.max_rounds {
                return Err(EvalError::NonTermination {
                    rounds,
                    component: 0,
                    preds: cdb.iter().map(|p| self.program.pred_name(*p)).collect(),
                    last_delta: delta.values().map(Vec::len).sum(),
                });
            }
            let full = rounds == 0 || self.options.strategy == Strategy::Naive;
            sink.round_start(rounds + 1, full);
            if C::ENABLED {
                cap.begin_round(ci, rounds + 1);
            }
            let mut derived =
                RoundBuffer::new(self.program, self.options.check_consistency, &mut rule_pushes);
            derived.prune = prune;
            {
                let ctx = Ctx {
                    program: self.program,
                    db,
                    agg: &agg_counters,
                };
                if full {
                    for (slot, exec) in execs.iter().enumerate() {
                        stats.firings += 1;
                        sink.rule_fire_start(exec.ri);
                        if C::ENABLED {
                            cap.begin_rule(exec.ri);
                        }
                        derived.current = slot;
                        fire_full(&ctx, exec, &mut frames[slot], &mut derived, cap)?;
                        sink.rule_fire_end(exec.ri);
                    }
                } else {
                    let mut seen_seeds = SeenSeeds::default();
                    for (ei, exec) in execs.iter().enumerate() {
                        for driver in &exec.drivers {
                            let Some(changed) = delta.get(&driver.pred) else {
                                continue;
                            };
                            for (dkey, dcost) in changed {
                                self.fire_driver(
                                    &ctx,
                                    ei,
                                    exec,
                                    driver,
                                    dkey,
                                    dcost,
                                    &mut frames[ei],
                                    &mut seen_seeds,
                                    &mut derived,
                                    stats,
                                    sink,
                                    cap,
                                )?;
                            }
                        }
                    }
                }
            }
            let derived_count = derived.map.len();
            stats.derivations += derived_count as u64;
            stats.pruned += derived.pruned;
            component_pruned += derived.pruned;

            // Apply derivations: join into db, recording changed keys.
            let new_delta = self.apply_round(db, derived.map, &execs, sink, cap);
            if C::ENABLED {
                cap.end_round();
            }

            rounds += 1;
            let changed: usize = new_delta.values().map(Vec::len).sum();
            for (pred, keys) in &new_delta {
                sink.delta(*pred, keys.len());
            }
            sink.round_end(rounds, derived_count, changed);
            if new_delta.is_empty() {
                // A semi-naive pass that saw no changes is a genuine
                // fixpoint: every rule was either re-fired through a driver
                // or has no dependency on the component.
                for (slot, exec) in execs.iter().enumerate() {
                    sink.rule_derivations(exec.ri, rule_pushes[slot]);
                }
                sink.aggregate_totals(
                    agg_counters.groups.get(),
                    agg_counters.elements.get(),
                    agg_counters.peak_bytes.get(),
                );
                if component_pruned > 0 {
                    sink.pruned(ci, component_pruned);
                }
                sink.component_end(ci, rounds);
                return Ok(rounds);
            }
            delta = new_delta;
        }
    }

    /// Join one round's buffered derivations into the database, emitting
    /// per-derivation insert outcomes and returning the next round's
    /// delta. The buffered `Arc` keys flow straight into the relation and
    /// the delta — no re-cloning of tuple storage.
    fn apply_round<S: EventSink, C: Capture>(
        &self,
        db: &mut Interp,
        derived: HashMap<(Pred, Arc<Tuple>), DerivedEntry>,
        execs: &[RuleExec<'_>],
        sink: &mut S,
        cap: &mut C,
    ) -> Delta {
        let mut new_delta = Delta::new();
        for ((pred, key), entry) in derived {
            let DerivedEntry { cost, slot } = entry;
            let spec = self.program.cost_spec(pred);
            let domain = spec.map(|c| RuntimeDomain::new(c.domain));
            // For default-value predicates, an explicit entry at the
            // default value is not a change.
            let is_default_entry = spec.is_some_and(|c| c.has_default)
                && domain
                    .as_ref()
                    .is_some_and(|d| cost.as_ref() == Some(&d.bottom()));
            let outcome = match db
                .relation_mut(pred)
                .join_arc(key.clone(), cost.clone(), domain.as_ref())
            {
                Joined::New if is_default_entry => InsertOutcome::Noop,
                Joined::New => {
                    if C::ENABLED {
                        cap.commit(pred, &key, &cost, false);
                    }
                    new_delta.entry(pred).or_default().push((key, cost));
                    InsertOutcome::New
                }
                Joined::Improved(joined) => {
                    if C::ENABLED {
                        cap.commit(pred, &key, &joined, true);
                    }
                    new_delta.entry(pred).or_default().push((key, joined));
                    InsertOutcome::Improved
                }
                Joined::Unchanged => InsertOutcome::Noop,
            };
            sink.insert_outcome(execs[slot].ri, pred, outcome);
        }
        new_delta
    }

    /// Best-first evaluation of an eligible `min_real` component.
    ///
    /// Settled keys bypass the `T_P` apply loop, so provenance capture
    /// does not commit nodes here — [`Self::evaluate_with_provenance`]
    /// clamps greedy to semi-naive instead.
    #[allow(clippy::too_many_arguments)]
    fn eval_component_greedy<S: EventSink, C: Capture>(
        &self,
        db: &mut Interp,
        cdb: &BTreeSet<Pred>,
        execs: &[RuleExec],
        ci: usize,
        rule_pushes: &mut [u64],
        agg_counters: &AggCounters,
        stats: &mut EvalStats,
        sink: &mut S,
        cap: &mut C,
    ) -> Result<usize, EvalError> {
        use maglog_lattice::Real;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Move any pre-loaded CDB facts into the candidate queue so that
        // rule-derived cheaper values can still win. Keys stay shared
        // `Arc`s throughout the heap, the cost table, and the relation.
        let mut candidates: BinaryHeap<Reverse<(Real, Pred, Arc<Tuple>)>> = BinaryHeap::new();
        let mut costs: HashMap<(Pred, Arc<Tuple>), Real> = HashMap::new();
        let mut component_pruned = 0u64;
        for &pred in cdb {
            let rel = std::mem::take(db.relation_mut(pred));
            for (key, cost) in rel.iter_arcs() {
                if let Some(Value::Num(r)) = cost {
                    candidates.push(Reverse((*r, pred, key.clone())));
                    costs.insert((pred, key.clone()), *r);
                }
            }
        }

        let mut frames: Vec<Frame> = execs.iter().map(Frame::for_exec).collect();
        // Initial full pass over the (LDB-only) database.
        {
            let ctx = Ctx {
                program: self.program,
                db,
                agg: agg_counters,
            };
            let mut derived = RoundBuffer::new(self.program, false, rule_pushes);
            for (slot, exec) in execs.iter().enumerate() {
                stats.firings += 1;
                sink.rule_fire_start(exec.ri);
                derived.current = slot;
                fire_full(&ctx, exec, &mut frames[slot], &mut derived, cap)?;
                sink.rule_fire_end(exec.ri);
            }
            stats.derivations += derived.map.len() as u64;
            stats.pruned += derived.pruned;
            component_pruned += derived.pruned;
            for ((pred, key), entry) in derived.map {
                if let Some(Value::Num(r)) = entry.cost {
                    let best = costs.entry((pred, key.clone())).or_insert(r);
                    if r <= *best {
                        *best = r;
                        candidates.push(Reverse((r, pred, key)));
                    }
                }
            }
        }

        let mut pops = 0usize;
        let pop_budget = self.options.max_rounds.saturating_mul(64);
        #[allow(unused_assignments)] // set before first read, on first pop
        let mut frontier = Real::NEG_INFINITY;
        while let Some(Reverse((cost, pred, key))) = candidates.pop() {
            // Already settled with an equal-or-better value?
            if db
                .relation(pred)
                .is_some_and(|rel| rel.contains(&key))
            {
                continue;
            }
            pops += 1;
            if pops > pop_budget {
                return Err(EvalError::NonTermination {
                    rounds: pops,
                    component: 0,
                    preds: cdb.iter().map(|p| self.program.pred_name(*p)).collect(),
                    last_delta: candidates.len(),
                });
            }
            sink.round_start(pops, false);
            sink.greedy_settle(pred, &key, cost.get());
            frontier = cost;
            let settled = Some(Value::Num(cost));
            db.relation_mut(pred).insert_arc(key.clone(), settled.clone());

            // Fire the semi-naive drivers for this single settled atom.
            let mut derived = RoundBuffer::new(self.program, false, rule_pushes);
            {
                let ctx = Ctx {
                    program: self.program,
                    db,
                    agg: agg_counters,
                };
                let mut seen_seeds = SeenSeeds::default();
                for (ei, exec) in execs.iter().enumerate() {
                    for driver in &exec.drivers {
                        if driver.pred != pred {
                            continue;
                        }
                        self.fire_driver(
                            &ctx,
                            ei,
                            exec,
                            driver,
                            &key,
                            &settled,
                            &mut frames[ei],
                            &mut seen_seeds,
                            &mut derived,
                            stats,
                            sink,
                            cap,
                        )?;
                    }
                }
            }
            let derived_count = derived.map.len();
            stats.derivations += derived_count as u64;
            stats.pruned += derived.pruned;
            component_pruned += derived.pruned;
            let mut pushed = 0usize;
            for ((dpred, dkey), dentry) in derived.map {
                let Some(Value::Num(r)) = dentry.cost else { continue };
                // Re-derivations of settled atoms are fine as long as they
                // do not *improve* them (alternative equal-cost paths, or
                // dominated ones re-found through a new route).
                if let Some(Some(Value::Num(old))) = db
                    .relation(dpred)
                    .and_then(|rel| rel.get(&dkey))
                    .cloned()
                {
                    if r >= old {
                        continue;
                    }
                    return Err(EvalError::GreedyViolation {
                        detail: format!(
                            "settled atom of {} at {} improved to {} \
                             (negative weights? use the semi-naive strategy)",
                            self.program.pred_name(dpred),
                            old,
                            r
                        ),
                    });
                }
                if r < frontier {
                    return Err(EvalError::GreedyViolation {
                        detail: format!(
                            "derivation for {} at cost {} undercuts the settled frontier {} \
                             (negative weights? use the semi-naive strategy)",
                            self.program.pred_name(dpred),
                            r,
                            frontier
                        ),
                    });
                }
                let slot = costs.entry((dpred, dkey.clone())).or_insert(r);
                if r <= *slot {
                    *slot = r;
                    candidates.push(Reverse((r, dpred, dkey)));
                    pushed += 1;
                }
            }
            // Each pop is a (single-tuple) round: the settled atom is the
            // round's delta, `pushed` counts new frontier candidates.
            sink.delta(pred, 1);
            sink.round_end(pops, derived_count, pushed);
        }
        for (slot, exec) in execs.iter().enumerate() {
            sink.rule_derivations(exec.ri, rule_pushes[slot]);
        }
        sink.aggregate_totals(
            agg_counters.groups.get(),
            agg_counters.elements.get(),
            agg_counters.peak_bytes.get(),
        );
        if component_pruned > 0 {
            sink.pruned(ci, component_pruned);
        }
        sink.component_end(ci, pops);
        Ok(pops)
    }

    /// Fire one semi-naive driver for one delta tuple on the exec's `frame`.
    #[allow(clippy::too_many_arguments)]
    fn fire_driver<S: EventSink, C: Capture>(
        &self,
        ctx: &Ctx<'_>,
        exec_index: usize,
        exec: &RuleExec<'_>,
        driver: &Driver,
        delta_key: &Tuple,
        cost: &Option<Value>,
        frame: &mut Frame,
        seen_seeds: &mut SeenSeeds,
        derived: &mut RoundBuffer<'_>,
        stats: &mut EvalStats,
        sink: &mut S,
        cap: &mut C,
    ) -> Result<(), EvalError> {
        let rule = exec.rule;
        // Match the driver atom against the delta tuple to get a seed.
        frame.reset();
        if !(match_keys(frame, &driver.atom, delta_key, 0) && match_cost(frame, &driver.atom, cost))
        {
            return Ok(());
        }
        if let Some(relax) = &driver.relax {
            // Join-fold relaxation: bind the result variable to the delta
            // element and skip the aggregate entirely.
            let Some(element) = cost.clone() else {
                return Ok(());
            };
            frame.retain(&driver.seed);
            frame.bind(relax.result, element);
        } else if driver.conjunct.is_some() {
            // For aggregate drivers, keep only the grouping variables: the
            // aggregate recomputes its group in full.
            frame.retain(&driver.seed);
        }
        // A positive driver's seed is a function of its delta tuple, and a
        // round's delta lists each tuple once, so only aggregate drivers —
        // whose groups many delta tuples share — can repeat a seed.
        if driver.conjunct.is_some() {
            let Frame { vals, seed, .. } = &mut *frame;
            seed.clear();
            seed.extend(
                driver
                    .seed
                    .iter()
                    .map(|&(_, s)| vals[s].clone().expect("seed slot bound")),
            );
            if !seen_seeds.insert(exec_index, driver.disc, seed) {
                return Ok(());
            }
        }
        stats.firings += 1;
        sink.rule_fire_start(exec.ri);
        if C::ENABLED {
            cap.begin_rule(exec.ri);
            if let Some(Literal::Agg(rule_agg)) =
                driver.relax.as_ref().map(|_| &rule.body[driver.lit])
            {
                // The relaxed derivation's aggregate witness is the delta
                // element itself: the group was not rescanned, the lattice
                // join resolves the rest (marked `partial`).
                let elem = cost.clone().expect("relax driver has an element");
                cap.push_agg(AggWitness {
                    lit: driver.lit,
                    func: rule_agg.func,
                    result: elem.clone(),
                    elements: 1,
                    witnesses: vec![(
                        elem,
                        vec![BodyAtom {
                            pred: driver.pred,
                            key: Arc::new(delta_key.clone()),
                            cost: cost.clone(),
                        }],
                    )],
                    witnesses_total: 1,
                    partial: true,
                });
            } else if driver.conjunct.is_none() {
                // A positive-atom driver's seeded plan skips re-matching
                // the delta atom, so put it on the trail by hand.
                // (Aggregate drivers re-run the full plan: their trail is
                // complete.)
                cap.push_atom(driver.pred, delta_key, cost);
            }
        }
        derived.current = exec_index;
        let r = match &driver.relax {
            Some(relax) => {
                derived.joining = true;
                let r = exec_steps(ctx, exec, &relax.plan.steps, frame, derived, cap);
                derived.joining = false;
                if C::ENABLED {
                    cap.pop_agg();
                }
                r
            }
            None => {
                let r = exec_steps(ctx, exec, &driver.plan.steps, frame, derived, cap);
                if C::ENABLED && driver.conjunct.is_none() {
                    cap.pop_atom();
                }
                r
            }
        };
        sink.rule_fire_end(exec.ri);
        r
    }
}

/// Build the relaxation plan for an aggregate at body index `li` if the
/// join-fold conditions hold (see [`Driver::relax`]).
fn relaxation_plan(
    program: &Program,
    rule: &Rule,
    li: usize,
    agg: &maglog_datalog::Aggregate,
) -> Option<Plan> {
    if agg.eq != AggEq::Restricted || agg.conjuncts.len() != 1 {
        return None;
    }
    let Term::Var(result) = agg.result else {
        return None;
    };
    // The head cost argument must be exactly the result variable.
    let spec = program.cost_spec(rule.head.pred)?;
    if rule.head.cost_arg(true) != Some(&Term::Var(result)) {
        return None;
    }
    if !is_join_fold(agg.func, spec.domain) {
        return None;
    }
    // The conjunct's cost domain must match the head domain.
    let conj = &agg.conjuncts[0];
    let conj_spec = program.cost_spec(conj.pred)?;
    if conj_spec.domain != spec.domain {
        return None;
    }
    // The result variable must not occur anywhere else in the body.
    for (i, lit) in rule.body.iter().enumerate() {
        let used = match lit {
            Literal::Pos(a) | Literal::Neg(a) => a.vars().any(|v| v == result),
            Literal::Builtin(b) => b.vars().contains(&result),
            Literal::Agg(a2) => {
                (i != li && a2.result == Term::Var(result))
                    || a2.inner_vars().contains(&result)
            }
        };
        if used {
            return None;
        }
    }
    // Seed: grouping vars plus the result var (bound to the delta element).
    let mut seed: BTreeSet<Var> = rule.aggregate_grouping_vars(li).into_iter().collect();
    seed.insert(result);
    plan_rule(program, rule, &seed, Some(li)).ok()
}

/// Is a component eligible for the greedy strategy? All CDB predicates
/// must be `min_real` cost predicates and every recursive aggregate must
/// be `min`.
fn greedy_eligible(
    program: &Program,
    cdb: &BTreeSet<Pred>,
    rule_indices: &[usize],
) -> bool {
    let all_min = cdb.iter().all(|p| {
        program
            .cost_spec(*p)
            .is_some_and(|c| c.domain == maglog_datalog::DomainSpec::MinReal)
    });
    if !all_min {
        return false;
    }
    rule_indices.iter().all(|&ri| {
        program.rules[ri].body.iter().all(|lit| match lit {
            Literal::Agg(agg) => {
                let recursive = agg.conjuncts.iter().any(|a| cdb.contains(&a.pred));
                !recursive || agg.func == AggFunc::Min
            }
            Literal::Neg(a) => !cdb.contains(&a.pred),
            _ => true,
        })
    })
}

struct RuleExec<'p> {
    /// Index of the rule in `program.rules` (event attribution).
    ri: usize,
    rule: &'p Rule,
    /// The rule's slot numbering, shared by every plan below.
    slots: Slots,
    head: Emit,
    /// Demand filter (`--optimize=demand`) on the head: discard
    /// derivations not carrying the demanded constant at this key
    /// position.
    demand: Option<(usize, Value)>,
    plan: Plan,
    drivers: Vec<Driver>,
}

struct Driver {
    pred: Pred,
    lit: usize,
    conjunct: Option<usize>,
    /// Distinguishes the exec's drivers in seed dedup.
    disc: u64,
    /// The driver atom compiled with nothing bound: matching a delta
    /// tuple binds every variable it holds.
    atom: Probe,
    /// The seed a firing keeps after that match, as `(variable, slot)` in
    /// ascending order: every variable of a positive driver's atom; the
    /// grouping variables an aggregate driver's conjunct binds, plus the
    /// result variable under relaxation. Dedup keys on it.
    seed: Vec<(Var, Slot)>,
    plan: Plan,
    relax: Option<Relax>,
}

/// Join-fold relaxation: when the aggregate is a pure lattice fold
/// (`=r min/max/or/and/union/intersect` matching the domain) whose result
/// variable flows straight into the head cost argument, a changed element
/// can be *relaxed* into the head directly — the accumulated lattice join
/// over all relaxations equals the aggregate of the full group, at O(1)
/// per delta instead of a group rescan.
#[derive(Clone)]
struct Relax {
    /// The rule planned with the groupings and the result pre-bound and
    /// the aggregate skipped.
    plan: Plan,
    /// The result variable's slot, bound to the delta element.
    result: Slot,
}

/// Is `func` the lattice join-fold of `domain` (so that
/// `F(S ∪ {d}) = F(S) ⊔ d`)?
pub(crate) fn is_join_fold(func: AggFunc, domain: maglog_datalog::DomainSpec) -> bool {
    use maglog_datalog::DomainSpec::*;
    matches!(
        (func, domain),
        (AggFunc::Min, MinReal)
            | (AggFunc::Max, MaxReal)
            | (AggFunc::Max, NonNegReal)
            | (AggFunc::Max, Nat)
            | (AggFunc::Or, BoolOr)
            | (AggFunc::And, BoolAnd)
            | (AggFunc::Union, SetUnion)
            | (AggFunc::Intersect, SetIntersect)
    )
}

/// Per-component aggregate-evaluation totals. `Cell`s because `Ctx` flows
/// immutably through the recursive step executor.
#[derive(Debug, Default)]
struct AggCounters {
    /// Streaming accumulators created (one per enumerated group).
    groups: Cell<u64>,
    /// Multiset elements folded across all groups.
    elements: Cell<u64>,
    /// Largest estimated footprint of a live accumulator table seen by
    /// any single aggregate evaluation (struct + set working states).
    peak_bytes: Cell<u64>,
}

/// Evaluation context: the program and the current database view (`J ∪ I`
/// merged, since CDB and LDB predicates are disjoint).
struct Ctx<'a> {
    program: &'a Program,
    db: &'a Interp,
    agg: &'a AggCounters,
}

/// A firing's variable frame: one cell per rule slot, the trail of slots
/// bound since the firing began, and scratch buffers reused by every
/// firing of the rule, so matching, seeding and emitting allocate nothing.
#[derive(Debug)]
struct Frame {
    vals: Vec<Option<Value>>,
    /// Slots bound since the firing began, in binding order; undo
    /// truncates it back to a mark.
    trail: Vec<Slot>,
    /// Probe projection: the values of the runtime signature's positions.
    proj: Vec<Value>,
    /// Fully bound lookup keys, one scratch tuple per arity.
    lookups: Vec<Tuple>,
    /// The head key under construction.
    head: Tuple,
    /// Aggregate group key.
    group: Vec<Value>,
    /// Driver seed dedup key.
    seed: Vec<Value>,
}

/// A scratch tuple of `arity` placeholder values.
fn blank_tuple(arity: usize) -> Tuple {
    Tuple::new(vec![Value::Bool(false); arity])
}

impl Frame {
    fn new(slots: usize, head_arity: usize) -> Frame {
        Frame {
            vals: vec![None; slots],
            trail: Vec::new(),
            proj: Vec::new(),
            lookups: Vec::new(),
            head: blank_tuple(head_arity),
            group: Vec::new(),
            seed: Vec::new(),
        }
    }

    fn for_exec(exec: &RuleExec<'_>) -> Frame {
        Frame::new(exec.slots.len(), exec.head.keys.len())
    }

    fn get(&self, s: Slot) -> Option<&Value> {
        self.vals[s].as_ref()
    }

    fn bind(&mut self, s: Slot, v: Value) {
        self.vals[s] = Some(v);
        self.trail.push(s);
    }

    fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unbind every slot bound since `mark`.
    fn undo(&mut self, mark: usize) {
        for s in self.trail.drain(mark..) {
            self.vals[s] = None;
        }
    }

    /// Unbind everything (a firing starts on an empty frame).
    fn reset(&mut self) {
        self.undo(0);
    }

    /// Unbind every bound slot not listed in `keep`.
    fn retain(&mut self, keep: &[(Var, Slot)]) {
        let vals = &mut self.vals;
        self.trail.retain(|&s| {
            let kept = keep.iter().any(|&(_, k)| k == s);
            if !kept {
                vals[s] = None;
            }
            kept
        });
    }

    /// Fill the lookup tuple of `keys`' arity from the frame; false if a
    /// position is unbound.
    fn fill_lookup(&mut self, keys: &[ArgOp]) -> bool {
        let n = keys.len();
        if self.lookups.len() <= n {
            self.lookups.resize_with(n + 1, || Tuple::new(Vec::new()));
        }
        if self.lookups[n].arity() != n {
            self.lookups[n] = blank_tuple(n);
        }
        let Frame { vals, lookups, .. } = self;
        for (cell, op) in lookups[n].0.iter_mut().zip(keys) {
            let Some(v) = op_value(vals, op) else {
                return false;
            };
            *cell = v.clone();
        }
        true
    }
}

/// The value an argument op stands for right now: its constant, or its
/// slot's binding.
fn op_value<'a>(vals: &'a [Option<Value>], op: &'a ArgOp) -> Option<&'a Value> {
    match op {
        ArgOp::Const(c) => Some(c),
        ArgOp::Bound(s) | ArgOp::Bind(s) | ArgOp::Repeat(s) => vals[*s].as_ref(),
    }
}

fn arg_value<'a>(vals: &'a [Option<Value>], arg: &'a Arg) -> Option<&'a Value> {
    match arg {
        Arg::Const(c) => Some(c),
        Arg::Slot(s) => vals[*s].as_ref(),
    }
}

/// Meet slot `s` with `v`: compare under `eq` if bound, bind otherwise.
fn unify_slot(frame: &mut Frame, s: Slot, v: &Value, eq: fn(&Value, &Value) -> bool) -> bool {
    match frame.get(s) {
        Some(bound) => eq(bound, v),
        None => {
            frame.bind(s, v.clone());
            true
        }
    }
}

fn unify(frame: &mut Frame, op: &ArgOp, v: &Value, eq: fn(&Value, &Value) -> bool) -> bool {
    match op {
        ArgOp::Const(c) => eq(c, v),
        ArgOp::Bound(s) | ArgOp::Bind(s) | ArgOp::Repeat(s) => unify_slot(frame, *s, v, eq),
    }
}

/// Match `key` against `probe`'s key ops, skipping the positions in
/// `known` (guaranteed equal by the index probe that produced `key`).
/// Binds free slots on the trail; the caller undoes to its mark.
fn match_keys(frame: &mut Frame, probe: &Probe, key: &Tuple, known: Sig) -> bool {
    key.arity() == probe.keys.len()
        && probe.keys.iter().enumerate().all(|(i, op)| {
            (i < 32 && known & (1 << i) != 0) || unify(frame, op, &key[i], Value::eq)
        })
}

/// Match a stored cost against `probe`'s cost op; always true for
/// predicates without a cost.
fn match_cost(frame: &mut Frame, probe: &Probe, cost: &Option<Value>) -> bool {
    match (&probe.cost, cost) {
        (None, _) => true,
        (Some(op), Some(cv)) => unify(frame, op, cv, values_equal),
        (Some(_), None) => false,
    }
}

/// Buffered derivations of one `T_P` application, with the Definition 2.6
/// consistency check. Each buffered (pred, key) remembers the exec slot of
/// the rule that first derived it this round, so the apply loop can
/// attribute insert outcomes; `pushes` accumulates per-slot derivation
/// counts across the whole component.
struct RoundBuffer<'a> {
    program: &'a Program,
    check: bool,
    /// Relaxed (join-fold) derivations are intentionally partial values:
    /// resolve same-key collisions by lattice join instead of flagging a
    /// cost conflict.
    joining: bool,
    /// Exec slot of the rule currently firing (set before `exec_steps`).
    current: usize,
    /// PreM dominance pruning (`--optimize=prem`, proven component only):
    /// discard derivations whose cost is already dominated by the
    /// database value instead of buffering them. Such a derivation would
    /// be a no-op at apply time, so the model is unchanged; it does
    /// bypass the same-round Definition 2.6 check for the discarded
    /// value, which is why the rewrite additionally requires the program
    /// to be certified conflict-free.
    prune: bool,
    /// Derivations discarded by either filter.
    pruned: u64,
    /// Per-exec-slot head-derivation counts (component lifetime).
    pushes: &'a mut [u64],
    map: HashMap<(Pred, Arc<Tuple>), DerivedEntry>,
}

/// One buffered derivation of a round: the (possibly already joined)
/// cost and the exec slot of the first rule to derive the key this round
/// (insert-outcome attribution).
#[derive(Debug)]
struct DerivedEntry {
    cost: Option<Value>,
    slot: usize,
}

impl<'a> RoundBuffer<'a> {
    fn new(program: &'a Program, check: bool, pushes: &'a mut [u64]) -> Self {
        RoundBuffer {
            program,
            check,
            joining: false,
            current: 0,
            prune: false,
            pruned: 0,
            pushes,
            map: HashMap::new(),
        }
    }

    fn push(
        &mut self,
        pred: Pred,
        key: Arc<Tuple>,
        cost: Option<Value>,
    ) -> Result<(), EvalError> {
        use std::collections::hash_map::Entry;
        self.pushes[self.current] += 1;
        match self.map.entry((pred, key)) {
            Entry::Vacant(slot) => {
                slot.insert(DerivedEntry {
                    cost,
                    slot: self.current,
                });
                Ok(())
            }
            Entry::Occupied(mut slot) => {
                if slot.get().cost == cost {
                    return Ok(());
                }
                if self.check && !self.joining {
                    return Err(EvalError::CostConflict {
                        pred: self.program.pred_name(pred),
                        key: render_key(self.program, &slot.key().1),
                        value_a: slot
                            .get()
                            .cost
                            .as_ref()
                            .map(|v| v.display(self.program))
                            .unwrap_or_default(),
                        value_b: cost
                            .as_ref()
                            .map(|v| v.display(self.program))
                            .unwrap_or_default(),
                    });
                }
                // Lenient mode: lattice join. Attribution stays with the
                // first deriver.
                let domain = self
                    .program
                    .cost_spec(pred)
                    .map(|c| RuntimeDomain::new(c.domain));
                let entry = slot.get_mut();
                if let (Some(old), Some(new), Some(d)) = (entry.cost.clone(), &cost, &domain) {
                    entry.cost = Some(d.join(&old, new));
                }
                Ok(())
            }
        }
    }
}

fn render_key(program: &Program, key: &Tuple) -> String {
    key.0
        .iter()
        .map(|v| v.display(program))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One full (unseeded) firing of `exec` on its frame.
fn fire_full<C: Capture>(
    ctx: &Ctx<'_>,
    exec: &RuleExec<'_>,
    frame: &mut Frame,
    out: &mut RoundBuffer<'_>,
    cap: &mut C,
) -> Result<(), EvalError> {
    frame.reset();
    exec_steps(ctx, exec, &exec.plan.steps, frame, out, cap)
}

/// Execute the remaining plan steps on `frame`, emitting head derivations
/// into `out`. `cap` observes matched body tuples and aggregate
/// witnesses; with [`NoCapture`] every hook compiles away.
fn exec_steps<C: Capture>(
    ctx: &Ctx<'_>,
    exec: &RuleExec<'_>,
    steps: &[Step],
    frame: &mut Frame,
    out: &mut RoundBuffer<'_>,
    cap: &mut C,
) -> Result<(), EvalError> {
    let Some((step, rest)) = steps.split_first() else {
        return emit_head(ctx, exec, frame, out, cap);
    };
    match step {
        Step::Atom { probe, .. } => for_each_match(ctx, probe, frame, &mut |frame, key, cost| {
            if C::ENABLED {
                cap.push_atom(probe.pred, key, cost);
            }
            let r = exec_steps(ctx, exec, rest, frame, out, cap);
            if C::ENABLED {
                cap.pop_atom();
            }
            r
        }),
        Step::Assign { target, source, .. } => {
            let Some(value) = eval_expr(source, frame) else {
                return Ok(()); // type mismatch: unsatisfiable
            };
            match frame
                .get(*target)
                .map(|existing| values_equal(existing, &value))
            {
                Some(true) => exec_steps(ctx, exec, rest, frame, out, cap),
                Some(false) => Ok(()),
                None => {
                    let mark = frame.mark();
                    frame.bind(*target, value);
                    let r = exec_steps(ctx, exec, rest, frame, out, cap);
                    frame.undo(mark);
                    r
                }
            }
        }
        Step::Test { op, lhs, rhs, .. } => {
            let (Some(l), Some(r)) = (eval_expr(lhs, frame), eval_expr(rhs, frame)) else {
                return Ok(());
            };
            if compare_values(*op, &l, &r) {
                exec_steps(ctx, exec, rest, frame, out, cap)
            } else {
                Ok(())
            }
        }
        Step::Neg { probe, .. } => {
            if atom_holds(ctx, probe, frame) {
                Ok(())
            } else {
                exec_steps(ctx, exec, rest, frame, out, cap)
            }
        }
        Step::Agg { .. } => eval_aggregate(ctx, exec.rule, step, frame, cap, &mut |frame, cap| {
            exec_steps(ctx, exec, rest, frame, out, cap)
        }),
    }
}

/// Assemble the head in the frame's scratch key, then apply the demand
/// filter and the PreM dominance check to it. Only a derivation that
/// survives both allocates its shared key.
fn emit_head<C: Capture>(
    ctx: &Ctx<'_>,
    exec: &RuleExec<'_>,
    frame: &mut Frame,
    out: &mut RoundBuffer<'_>,
    cap: &mut C,
) -> Result<(), EvalError> {
    let head = &exec.head;
    let unbound = |what: &str| {
        EvalError::Aggregate(format!(
            "unbound head {what} in {}",
            ctx.program.display_rule(exec.rule)
        ))
    };
    let Frame {
        vals, head: key, ..
    } = &mut *frame;
    for (cell, arg) in key.0.iter_mut().zip(&head.keys) {
        *cell = arg_value(vals, arg)
            .ok_or_else(|| unbound("variable"))?
            .clone();
    }
    let cost = match &head.cost {
        Some((arg, domain)) => {
            let raw = arg_value(vals, arg).ok_or_else(|| unbound("cost variable"))?;
            Some(domain.coerce(raw.clone()).map_err(EvalError::Domain)?)
        }
        None => None,
    };
    if let Some((pos, want)) = &exec.demand {
        if !key.0.get(*pos).is_some_and(|v| values_equal(v, want)) {
            out.pruned += 1;
            return Ok(());
        }
    }
    if out.prune {
        if let (Some(new), Some((_, domain))) = (&cost, &head.cost) {
            if let Some(Some(old)) = ctx.db.relation(head.pred).and_then(|rel| rel.get(key)) {
                if &domain.join(old, new) == old {
                    out.pruned += 1;
                    return Ok(());
                }
            }
        }
    }
    let key = Arc::new(key.clone());
    if C::ENABLED {
        cap.head(head.pred, &key, &cost);
    }
    out.push(head.pred, key, cost)
}

/// Continuation invoked once per match with the extended frame, the
/// matched key, and its stored cost.
type MatchCont<'a> = dyn FnMut(&mut Frame, &Tuple, &Option<Value>) -> Result<(), EvalError> + 'a;

/// Enumerate matches of `probe` against the database on `frame`, calling
/// `k` for each extension with the matched key and its stored cost.
/// Handles default-value predicates: a fully-keyed lookup that misses the
/// core yields the default cost.
fn for_each_match(
    ctx: &Ctx<'_>,
    probe: &Probe,
    frame: &mut Frame,
    k: &mut MatchCont<'_>,
) -> Result<(), EvalError> {
    // The runtime signature: every key position whose value is known now.
    // That is the plan's signature plus any slot a firing bound ahead of
    // the plan — an aggregate driver re-running the rule's plan with its
    // groupings pre-bound probes a wider, lazily built signature.
    let Frame { vals, proj, .. } = &mut *frame;
    proj.clear();
    let mut sig: Sig = 0;
    let mut all_known = true;
    for (i, op) in probe.keys.iter().enumerate() {
        match op_value(vals, op) {
            Some(v) if i < 32 => {
                sig |= 1 << i;
                proj.push(v.clone());
            }
            Some(_) => {}
            None => all_known = false,
        }
    }

    // Fast path: fully bound key — direct lookup (with default fallback).
    if all_known {
        frame.fill_lookup(&probe.keys);
        let lookup = &frame.lookups[probe.keys.len()];
        return match ctx
            .db
            .relation(probe.pred)
            .and_then(|rel| rel.get_key_value(lookup))
        {
            Some((key, cost)) => continue_match(frame, probe, key, cost, k),
            // The only match that copies its key: a default-value tuple
            // that is not stored.
            None => match &probe.default {
                Some(bottom) => {
                    let key = lookup.clone();
                    continue_match(frame, probe, &key, &Some(bottom.clone()), k)
                }
                None => Ok(()),
            },
        };
    }

    let Some(rel) = ctx.db.relation(probe.pred) else {
        return Ok(());
    };
    // Indexed probe on the runtime signature: the postings hold exactly
    // the keys matching all known positions, so the per-key match below
    // skips them and only binds the free positions. Sig 0 (nothing known)
    // walks the insertion log directly.
    let postings;
    let candidates: &[Arc<Tuple>] = if sig != 0 {
        match rel.probe(sig, &frame.proj) {
            Some(hits) => {
                postings = hits;
                &postings
            }
            None => return Ok(()),
        }
    } else {
        rel.arc_keys()
    };
    for key in candidates {
        let mark = frame.mark();
        if match_keys(frame, probe, key, sig) {
            let cost = match probe.cost {
                Some(_) => rel.get(key).cloned().unwrap_or(None),
                None => None,
            };
            if match_cost(frame, probe, &cost) {
                k(frame, key, &cost)?;
            }
        }
        frame.undo(mark);
    }
    Ok(())
}

/// Match the cost of a looked-up key and continue.
fn continue_match(
    frame: &mut Frame,
    probe: &Probe,
    key: &Tuple,
    cost: &Option<Value>,
    k: &mut MatchCont<'_>,
) -> Result<(), EvalError> {
    let mark = frame.mark();
    let r = if match_cost(frame, probe, cost) {
        k(frame, key, cost)
    } else {
        Ok(())
    };
    frame.undo(mark);
    r
}

/// Does a ground atom hold in the database (with default fallback)?
fn atom_holds(ctx: &Ctx<'_>, probe: &Probe, frame: &mut Frame) -> bool {
    if !frame.fill_lookup(&probe.keys) {
        return false;
    }
    let key = &frame.lookups[probe.keys.len()];
    let Some(cost) = ctx.db.cost(ctx.program, probe.pred, key) else {
        return false;
    };
    match &probe.cost {
        None => true,
        Some(op) => match (op_value(&frame.vals, op), cost) {
            (Some(want), Some(cv)) => values_equal(&cv, want),
            _ => false,
        },
    }
}

/// Evaluate the aggregate step `step`: enumerate the conjunction on the
/// same frame, group, apply the function, and continue per satisfying
/// (grouping, result) binding.
fn eval_aggregate<C: Capture>(
    ctx: &Ctx<'_>,
    rule: &Rule,
    step: &Step,
    frame: &mut Frame,
    cap: &mut C,
    k: &mut dyn FnMut(&mut Frame, &mut C) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let Step::Agg {
        lit,
        conjuncts,
        groupings,
        element,
        result,
        ..
    } = step
    else {
        unreachable!("aggregate evaluation of a non-aggregate step")
    };
    let Literal::Agg(agg) = &rule.body[*lit] else {
        unreachable!("Agg step on non-aggregate")
    };

    // Enumerate all assignments of the conjunction (restricted by the
    // current bindings), folding each multiset element straight into its
    // group's streaming accumulator — no per-group element buffering. The
    // group key is assembled in the frame's scratch buffer and looked up
    // by slice; only a new group copies it. Under capture, each element
    // additionally buffers the conjunct tuples that supplied it (the
    // trail slice since `mark`), so the winner's supports can be reported
    // without re-deriving them.
    let mark = if C::ENABLED { cap.trail_mark() } else { 0 };
    let mut groups: HashMap<Vec<Value>, aggregate::Accumulator> = HashMap::new();
    let mut buffers: HashMap<Vec<Value>, Vec<(Value, Vec<BodyAtom>)>> = HashMap::new();
    let unit = Value::Bool(true);
    let mut gkey = std::mem::take(&mut frame.group);
    enumerate_conjuncts(
        ctx,
        conjuncts,
        frame,
        cap,
        &mut |frame: &Frame, cap: &mut C| {
            gkey.clear();
            gkey.extend(
                groupings
                    .iter()
                    .map(|&s| frame.get(s).cloned().expect("grouping bound at collection")),
            );
            let element = match element {
                Some(e) => frame.get(*e).expect("multiset var bound"),
                None => &unit,
            };
            if C::ENABLED {
                buffers
                    .entry(gkey.clone())
                    .or_default()
                    .push((element.clone(), cap.trail_since(mark)));
            }
            match groups.get_mut(gkey.as_slice()) {
                Some(acc) => acc.push(element),
                None => {
                    let mut acc = aggregate::Accumulator::new(agg.func);
                    acc.push(element);
                    groups.insert(gkey.clone(), acc);
                }
            }
        },
    )?;

    // For `=` with fully bound groupings, the (possibly empty) group for
    // the bound values must be considered even if no tuple matched.
    if agg.eq == AggEq::Total {
        gkey.clear();
        for &s in groupings {
            let Some(v) = frame.get(s) else {
                return Err(EvalError::Aggregate(format!(
                    "`=` aggregate with unbound grouping variables in {}",
                    ctx.program.display_rule(rule)
                )));
            };
            gkey.push(v.clone());
        }
        if !groups.contains_key(gkey.as_slice()) {
            groups.insert(gkey.clone(), aggregate::Accumulator::new(agg.func));
        }
    }
    frame.group = gkey;

    ctx.agg.groups.set(ctx.agg.groups.get() + groups.len() as u64);
    let mut elements = 0u64;
    let mut live_bytes =
        (groups.len() * std::mem::size_of::<aggregate::Accumulator>()) as u64;
    for acc in groups.values() {
        elements += acc.count() as u64;
        live_bytes += acc.heap_bytes() as u64;
    }
    ctx.agg.elements.set(ctx.agg.elements.get() + elements);
    ctx.agg
        .peak_bytes
        .set(ctx.agg.peak_bytes.get().max(live_bytes));

    for (gv, acc) in groups {
        let elements = acc.count();
        let winner = acc.winner();
        let Some(value) = acc.finish() else {
            continue; // undefined (empty avg / type error): unsatisfiable
        };
        // Bind grouping slots (fresh ones only) and the result.
        let mark = frame.mark();
        let ok = groupings
            .iter()
            .zip(&gv)
            .all(|(&s, val)| unify_slot(frame, s, val, Value::eq));
        if ok {
            if C::ENABLED {
                let (witnesses, witnesses_total) =
                    select_witnesses(winner, buffers.remove(&gv).unwrap_or_default());
                cap.push_agg(AggWitness {
                    lit: *lit,
                    func: agg.func,
                    result: value.clone(),
                    elements,
                    witnesses,
                    witnesses_total,
                    partial: false,
                });
            }
            let matched = match result {
                Arg::Const(c) => values_equal(c, &value),
                Arg::Slot(s) => unify_slot(frame, *s, &value, values_equal),
            };
            if matched {
                k(frame, cap)?;
            }
            if C::ENABLED {
                cap.pop_agg();
            }
        }
        frame.undo(mark);
    }
    Ok(())
}

/// Enumerate all satisfying assignments of the aggregate's conjunction in
/// the planned order.
fn enumerate_conjuncts<C: Capture>(
    ctx: &Ctx<'_>,
    conjuncts: &[Probe],
    frame: &mut Frame,
    cap: &mut C,
    emit: &mut dyn FnMut(&Frame, &mut C),
) -> Result<(), EvalError> {
    let Some((probe, rest)) = conjuncts.split_first() else {
        emit(frame, cap);
        return Ok(());
    };
    for_each_match(ctx, probe, frame, &mut |frame, key, cost| {
        if C::ENABLED {
            cap.push_atom(probe.pred, key, cost);
        }
        let r = enumerate_conjuncts(ctx, rest, frame, cap, emit);
        if C::ENABLED {
            cap.pop_atom();
        }
        r
    })
}

/// Evaluate an arithmetic expression. `None` on unbound variables or type
/// mismatches (the branch is then unsatisfiable).
fn eval_expr(e: &SlotExpr, frame: &Frame) -> Option<Value> {
    match e {
        SlotExpr::Arg(a) => arg_value(&frame.vals, a).cloned(),
        SlotExpr::Neg(inner) => {
            let v = eval_expr(inner, frame)?;
            Some(Value::num(-v.as_f64()?))
        }
        SlotExpr::Bin(op, l, r) => {
            let lv = eval_expr(l, frame)?;
            let rv = eval_expr(r, frame)?;
            let (a, b) = (lv.as_f64()?, rv.as_f64()?);
            let out = match op {
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
            if out.is_nan() {
                None
            } else {
                Some(Value::num(out))
            }
        }
    }
}

/// Structural equality with numeric/boolean bridging (`1 = true`).
fn values_equal(a: &Value, b: &Value) -> bool {
    if a == b {
        return true;
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

fn compare_values(op: CmpOp, a: &Value, b: &Value) -> bool {
    match op {
        CmpOp::Eq => values_equal(a, b),
        CmpOp::Ne => !values_equal(a, b),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
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

// ---------------------------------------------------------------------
// Why-not probing
// ---------------------------------------------------------------------

/// Probe every rule whose head predicate matches an absent (or
/// differently-costed) goal against the *final* model: unify the head with
/// the goal constants, then walk the rule's plan recording the deepest
/// subgoal any binding reached — the first failing subgoal is the why-not
/// answer.
pub fn why_not(program: &Program, db: &Interp, goal: &Goal) -> WhyNotReport {
    let goal_text = format!(
        "{}({})",
        program.pred_name(goal.pred),
        goal.key
            .0
            .iter()
            .map(|v| v.display(program))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let present = db
        .cost(program, goal.pred, &goal.key)
        .map(|c| c.map(|v| v.display(program)));
    let counters = AggCounters::default();
    let ctx = Ctx {
        program,
        db,
        agg: &counters,
    };
    let mut rules = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        if rule.head.pred != goal.pred {
            continue;
        }
        let rule_text = program.display_rule(rule);
        let slots = Slots::of(rule);
        let head = Emit::compile(program, &slots, rule);
        let mut frame = Frame::new(slots.len(), head.keys.len());
        let unified = head.keys.len() == goal.key.arity()
            && head
                .keys
                .iter()
                .zip(goal.key.0.iter())
                .all(|(arg, val)| match arg {
                    Arg::Const(c) => values_equal(c, val),
                    Arg::Slot(s) => unify_slot(&mut frame, *s, val, values_equal),
                });
        if !unified {
            rules.push(RuleProbe {
                rule: ri,
                rule_text,
                unified: false,
                reached: 0,
                total: 0,
                failed: None,
                derivable: None,
            });
            continue;
        }
        let seed: BTreeSet<Var> = frame.trail.iter().map(|&s| slots.var(s)).collect();
        let plan = match plan_rule(program, rule, &seed, None) {
            Ok(p) => p,
            Err(e) => {
                rules.push(RuleProbe {
                    rule: ri,
                    rule_text,
                    unified: true,
                    reached: 0,
                    total: 0,
                    failed: Some(format!("(unplannable: {e})")),
                    derivable: None,
                });
                continue;
            }
        };
        let total = plan.steps.len();
        let mut st = ProbeState::default();
        let probe = RuleProbeCtx {
            ctx: &ctx,
            rule,
            slots: &slots,
            head: &head,
            steps: &plan.steps,
        };
        // A probe error (e.g. a `=` aggregate whose groupings the goal
        // left unbound) leaves the failure description of the step that
        // raised it — exactly the answer we want.
        let _ = probe_steps(&probe, 0, &mut frame, &mut st);
        let derivable = if st.satisfied {
            Some(match (&st.derived_cost, head.cost.is_some()) {
                (Some(v), true) => v.display(program),
                _ => "true".to_string(),
            })
        } else {
            None
        };
        rules.push(RuleProbe {
            rule: ri,
            rule_text,
            unified: true,
            reached: st.frontier,
            total,
            failed: if st.satisfied { None } else { st.desc },
            derivable,
        });
    }
    WhyNotReport {
        goal: goal_text,
        present,
        rules,
    }
}

#[derive(Default)]
struct ProbeState {
    /// Deepest plan step any binding attempted.
    frontier: usize,
    /// That step's literal, rendered with the bindings that reached it.
    desc: Option<String>,
    satisfied: bool,
    derived_cost: Option<Value>,
}

/// What a why-not probe walks: one rule's plan with its slot numbering.
struct RuleProbeCtx<'a> {
    ctx: &'a Ctx<'a>,
    rule: &'a Rule,
    slots: &'a Slots,
    head: &'a Emit,
    steps: &'a [Step],
}

fn probe_steps(
    p: &RuleProbeCtx<'_>,
    idx: usize,
    frame: &mut Frame,
    st: &mut ProbeState,
) -> Result<(), EvalError> {
    let Some(step) = p.steps.get(idx) else {
        if !st.satisfied {
            st.satisfied = true;
            st.derived_cost = p
                .head
                .cost
                .as_ref()
                .and_then(|(arg, _)| arg_value(&frame.vals, arg).cloned());
        }
        return Ok(());
    };
    if st.desc.is_none() || idx > st.frontier {
        st.frontier = idx;
        let named = Named {
            slots: p.slots,
            frame,
        };
        st.desc = Some(subst_literal(
            p.ctx.program,
            &p.rule.body[step_lit(step)],
            &named,
        ));
    }
    match step {
        Step::Atom { probe, .. } => {
            for_each_match(p.ctx, probe, frame, &mut |frame, _key, _cost| {
                probe_steps(p, idx + 1, frame, st)
            })
        }
        Step::Assign { target, source, .. } => {
            let Some(value) = eval_expr(source, frame) else {
                return Ok(());
            };
            match frame
                .get(*target)
                .map(|existing| values_equal(existing, &value))
            {
                Some(true) => probe_steps(p, idx + 1, frame, st),
                Some(false) => Ok(()),
                None => {
                    let mark = frame.mark();
                    frame.bind(*target, value);
                    let r = probe_steps(p, idx + 1, frame, st);
                    frame.undo(mark);
                    r
                }
            }
        }
        Step::Test { op, lhs, rhs, .. } => {
            let (Some(l), Some(r)) = (eval_expr(lhs, frame), eval_expr(rhs, frame)) else {
                return Ok(());
            };
            if compare_values(*op, &l, &r) {
                probe_steps(p, idx + 1, frame, st)
            } else {
                Ok(())
            }
        }
        Step::Neg { probe, .. } => {
            if atom_holds(p.ctx, probe, frame) {
                Ok(())
            } else {
                probe_steps(p, idx + 1, frame, st)
            }
        }
        Step::Agg { .. } => eval_aggregate(
            p.ctx,
            p.rule,
            step,
            frame,
            &mut NoCapture,
            &mut |frame, _cap| probe_steps(p, idx + 1, frame, st),
        ),
    }
}

fn step_lit(step: &Step) -> usize {
    match step {
        Step::Atom { lit, .. }
        | Step::Assign { lit, .. }
        | Step::Test { lit, .. }
        | Step::Neg { lit, .. }
        | Step::Agg { lit, .. } => *lit,
    }
}

/// A frame read by variable name, for rendering why-not subgoals.
struct Named<'a> {
    slots: &'a Slots,
    frame: &'a Frame,
}

impl Named<'_> {
    fn get(&self, v: Var) -> Option<&Value> {
        self.frame.get(self.slots.slot(v))
    }
}

/// Render a term with the probe's current bindings substituted in.
fn subst_term(program: &Program, t: &Term, binding: &Named<'_>) -> String {
    match t {
        Term::Const(c) => Value::from_const(*c).display(program),
        Term::Var(v) => match binding.get(*v) {
            Some(val) => val.display(program),
            None => program.var_name(*v),
        },
    }
}

fn subst_atom(program: &Program, atom: &Atom, binding: &Named<'_>) -> String {
    format!(
        "{}({})",
        program.pred_name(atom.pred),
        atom.args
            .iter()
            .map(|t| subst_term(program, t, binding))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn subst_expr(program: &Program, e: &Expr, binding: &Named<'_>) -> String {
    match e {
        Expr::Term(t) => subst_term(program, t, binding),
        Expr::Neg(inner) => format!("-({})", subst_expr(program, inner, binding)),
        Expr::Bin(op, l, r) => {
            let ls = subst_expr(program, l, binding);
            let rs = subst_expr(program, r, binding);
            match op {
                BinOp::Add => format!("{ls} + {rs}"),
                BinOp::Sub => format!("{ls} - {rs}"),
                BinOp::Mul => format!("{ls} * {rs}"),
                BinOp::Div => format!("{ls} / {rs}"),
                BinOp::Min => format!("min({ls}, {rs})"),
                BinOp::Max => format!("max({ls}, {rs})"),
            }
        }
    }
}

fn subst_literal(program: &Program, lit: &Literal, binding: &Named<'_>) -> String {
    match lit {
        Literal::Pos(a) => subst_atom(program, a, binding),
        Literal::Neg(a) => format!("! {}", subst_atom(program, a, binding)),
        Literal::Builtin(b) => {
            let op = match b.op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!(
                "{} {op} {}",
                subst_expr(program, &b.lhs, binding),
                subst_expr(program, &b.rhs, binding)
            )
        }
        Literal::Agg(agg) => {
            let eq = match agg.eq {
                AggEq::Total => "=",
                AggEq::Restricted => "=r",
            };
            let mvar = agg
                .multiset_var
                .map(|v| format!(" {}", program.var_name(v)))
                .unwrap_or_default();
            let conj: Vec<String> = agg
                .conjuncts
                .iter()
                .map(|a| subst_atom(program, a, binding))
                .collect();
            let conj = if conj.len() == 1 {
                conj[0].clone()
            } else {
                format!("[{}]", conj.join(", "))
            };
            format!(
                "{} {eq} {}{mvar} : {conj}",
                subst_term(program, &agg.result, binding),
                agg.func.name()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::parse_program;

    fn run(src: &str) -> (maglog_datalog::Program, Model) {
        let p = parse_program(src).unwrap();
        let model = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        (p, model)
    }

    #[test]
    fn plain_datalog_transitive_closure() {
        let (p, m) = run(
            r#"
            e(a, b). e(b, c). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), e(Z, Y).
            "#,
        );
        assert!(m.holds(&p, "tc", &["a", "d"]));
        assert!(m.holds(&p, "tc", &["b", "d"]));
        assert!(!m.holds(&p, "tc", &["d", "a"]));
        assert_eq!(m.tuples_of(&p, "tc").len(), 6);
    }

    #[test]
    fn example_3_1_shortest_path_minimal_model() {
        let (p, m) = run(
            r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 1).
            arc(b, b, 0).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
            "#,
        );
        // The paper's M1: s(a,b,1), s(b,b,0) — NOT M2's s(a,b,0).
        assert_eq!(m.cost_of(&p, "s", &["a", "b"]).unwrap().as_f64(), Some(1.0));
        assert_eq!(m.cost_of(&p, "s", &["b", "b"]).unwrap().as_f64(), Some(0.0));
        assert_eq!(
            m.cost_of(&p, "path", &["a", "b", "b"]).unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let naive = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Naive,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        let semi = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        assert_eq!(naive.render(&p), semi.render(&p));
        assert_eq!(
            semi.cost_of(&p, "s", &["a", "c"]).unwrap().as_f64(),
            Some(5.0)
        );
    }

    #[test]
    fn company_control_example_2_7() {
        // a owns 40% of b directly; a owns 60% of c; c owns 20% of b.
        // a controls c (0.6 > 0.5), hence controls 0.4 + 0.2 of b.
        let (p, m) = run(
            r#"
            declare pred s/3 cost nonneg_real.
            declare pred cv/4 cost nonneg_real.
            declare pred m/3 cost nonneg_real.
            s(a, b, 0.4). s(a, c, 0.6). s(c, b, 0.2).
            cv(X, X, Y, N) :- s(X, Y, N).
            cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
            m(X, Y, N) :- N =r sum M : cv(X, Z, Y, M).
            c(X, Y) :- m(X, Y, N), N > 0.5.
            "#,
        );
        assert!(m.holds(&p, "c", &["a", "c"]));
        assert!(m.holds(&p, "c", &["a", "b"]));
        let frac = m.cost_of(&p, "m", &["a", "b"]).unwrap().as_f64().unwrap();
        assert!((frac - 0.6).abs() < 1e-12, "got {frac}");
    }

    #[test]
    fn party_example_4_3_with_cyclic_knows() {
        // ann requires 0; bob requires 1 and knows ann; cal and dan know
        // only each other and require 1: they stay undecided... no — in the
        // minimal model they simply do not come.
        let (p, m) = run(
            r#"
            requires(ann, 0). requires(bob, 1). requires(cal, 1). requires(dan, 1).
            knows(bob, ann). knows(cal, dan). knows(dan, cal).
            coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
            kc(X, Y) :- knows(X, Y), coming(Y).
            "#,
        );
        assert!(m.holds(&p, "coming", &["ann"]));
        assert!(m.holds(&p, "coming", &["bob"]));
        assert!(!m.holds(&p, "coming", &["cal"]));
        assert!(!m.holds(&p, "coming", &["dan"]));
    }

    #[test]
    fn circuit_example_4_4_with_cycle() {
        // AND gate g1 feeding itself evaluates to false (minimal behaviour);
        // OR gate g2 with a true input is true even on a cycle with g3.
        let (p, m) = run(
            r#"
            declare pred t/2 cost bool_or default.
            declare pred input/2 cost bool_or.
            input(w1, 1). input(w2, 0).
            gate(g1, and). gate(g2, or). gate(g3, or).
            connect(g1, g1). connect(g1, w1).
            connect(g2, w1). connect(g2, g3).
            connect(g3, g2). connect(g3, w2).
            t(W, C) :- input(W, C).
            t(G, C) :- gate(G, or), C = or D : [connect(G, W), t(W, D)].
            t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].
            constraint :- gate(G, or), gate(G, and).
            constraint :- gate(G, T), input(G, C).
            "#,
        );
        assert_eq!(m.cost_of(&p, "t", &["g1"]), Some(Value::Bool(false)));
        assert_eq!(m.cost_of(&p, "t", &["g2"]), Some(Value::Bool(true)));
        assert_eq!(m.cost_of(&p, "t", &["g3"]), Some(Value::Bool(true)));
        assert_eq!(m.cost_of(&p, "t", &["w2"]), Some(Value::Bool(false)));
    }

    #[test]
    fn halfsum_example_5_1_reaches_the_limit() {
        // The paper's least model is {p(a,1), p(b,1)}; T_P is monotonic but
        // not continuous, so ω iterations are needed — IEEE-754 rounding
        // reaches the limit exactly after ~55 rounds (the ulp near 1.0 is
        // 2^-53, and round-to-even closes the final gap).
        let (p, m) = run(
            r#"
            declare pred p/2 cost nonneg_real.
            p(b, 1).
            p(a, C) :- C =r halfsum D : p(X, D).
            "#,
        );
        assert_eq!(m.cost_of(&p, "p", &["a"]).unwrap().as_f64(), Some(1.0));
        assert_eq!(m.cost_of(&p, "p", &["b"]).unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn negative_cycle_hits_round_cap() {
        let p = parse_program(
            r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 1). arc(b, a, -2).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
            "#,
        )
        .unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                max_rounds: 50,
                ..Default::default()
            },
        );
        match engine.evaluate(&Edb::new()) {
            Err(EvalError::NonTermination { .. }) => {}
            other => panic!("expected NonTermination, got {other:?}"),
        }
    }

    #[test]
    fn greedy_matches_seminaive_on_nonneg_graphs() {
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10). arc(c, c, 0).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let semi = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        let greedy = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Greedy,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        assert_eq!(semi.render(&p), greedy.render(&p));
    }

    #[test]
    fn greedy_rejects_negative_weights() {
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 5). arc(b, c, -3).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Greedy,
                ..Default::default()
            },
        );
        match engine.evaluate(&Edb::new()) {
            Err(EvalError::GreedyViolation { .. }) => {}
            other => panic!("expected GreedyViolation, got {other:?}"),
        }
    }

    #[test]
    fn greedy_falls_back_on_ineligible_components() {
        // Company control: nonneg_real sums — not greedy-eligible; the
        // strategy silently falls back to semi-naive and stays correct.
        let src = r#"
            declare pred s/3 cost nonneg_real.
            declare pred cv/4 cost nonneg_real.
            declare pred m/3 cost nonneg_real.
            s(a, b, 0.4). s(a, c, 0.6). s(c, b, 0.2).
            cv(X, X, Y, N) :- s(X, Y, N).
            cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
            m(X, Y, N) :- N =r sum M : cv(X, Z, Y, M).
            c(X, Y) :- m(X, Y, N), N > 0.5.
        "#;
        let p = parse_program(src).unwrap();
        let greedy = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Greedy,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        assert!(greedy.holds(&p, "c", &["a", "b"]));
        assert!(greedy.holds(&p, "c", &["a", "c"]));
    }

    #[test]
    fn greedy_handles_cdb_edb_facts() {
        // A pre-loaded s fact competes with derived values; the cheaper
        // derived value must win.
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 1).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let mut edb = Edb::new();
        edb.push_cost_fact(&p, "s", &["a", "b"], 9.0);
        let greedy = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Greedy,
                ..Default::default()
            },
        )
        .evaluate(&edb)
        .unwrap();
        assert_eq!(
            greedy.cost_of(&p, "s", &["a", "b"]).unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn uncertified_program_is_refused() {
        let p = parse_program(
            r#"
            declare pred q/3 cost max_real.
            declare pred p/2 cost max_real.
            p(X, C) :- q(X, Y, C).
            "#,
        )
        .unwrap();
        match MonotonicEngine::new(&p).evaluate(&Edb::new()) {
            Err(EvalError::NotCertified(_)) => {}
            other => panic!("expected NotCertified, got {other:?}"),
        }
    }

    #[test]
    fn cost_conflict_is_detected_when_unchecked() {
        let p = parse_program(
            r#"
            declare pred q/2 cost min_real.
            declare pred r/2 cost min_real.
            declare pred p/2 cost min_real.
            q(x, 1). r(x, 2).
            p(X, C) :- q(X, C).
            p(X, C) :- r(X, C).
            "#,
        )
        .unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                allow_unchecked: true,
                ..Default::default()
            },
        );
        match engine.evaluate(&Edb::new()) {
            Err(EvalError::CostConflict { .. }) => {}
            other => panic!("expected CostConflict, got {other:?}"),
        }
    }

    #[test]
    fn grades_example_2_1() {
        let (p, m) = run(
            r#"
            declare pred record/3 cost max_real.
            declare pred s_avg/2 cost max_real.
            declare pred c_avg/2 cost max_real.
            declare pred all_avg/1 cost max_real.
            declare pred class_count/2 cost nat.
            record(john, db, 80). record(john, os, 60).
            record(mary, db, 90). record(mary, ai, 70).
            s_avg(S, G) :- G =r avg G2 : record(S, C, G2).
            c_avg(C, G) :- G =r avg G2 : record(S, C, G2).
            all_avg(G) :- G =r avg G2 : c_avg(S, G2).
            class_count(C, N) :- N =r count : record(S, C, G).
            "#,
        );
        assert_eq!(
            m.cost_of(&p, "s_avg", &["john"]).unwrap().as_f64(),
            Some(70.0)
        );
        assert_eq!(
            m.cost_of(&p, "c_avg", &["db"]).unwrap().as_f64(),
            Some(85.0)
        );
        // all_avg over class averages {85, 60, 70} = 71.666...
        let g = m.cost_of(&p, "all_avg", &[]).unwrap().as_f64().unwrap();
        assert!((g - (85.0 + 60.0 + 70.0) / 3.0).abs() < 1e-9);
        assert_eq!(
            m.cost_of(&p, "class_count", &["db"]).unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn alt_class_count_counts_empty_classes() {
        let (p, m) = run(
            r#"
            declare pred record/3 cost max_real.
            declare pred alt_class_count/2 cost nat.
            courses(db). courses(logic).
            record(john, db, 80).
            alt_class_count(C, N) :- courses(C), N = count : record(S, C, G).
            "#,
        );
        assert_eq!(
            m.cost_of(&p, "alt_class_count", &["db"]).unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            m.cost_of(&p, "alt_class_count", &["logic"])
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    const OPT_SHORTEST: &str = r#"
        declare pred arc/3 cost min_real.
        declare pred path/4 cost min_real.
        declare pred s/3 cost min_real.
        arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10).
        arc(b, d, 1). arc(d, c, 1).
        path(X, direct, Y, C) :- arc(X, Y, C).
        path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
        s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
        constraint :- arc(direct, Z, C).
    "#;

    fn run_opt(src: &str, optimize: Optimize) -> (maglog_datalog::Program, Model) {
        let p = parse_program(src).unwrap();
        let model = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                optimize,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        (p, model)
    }

    #[test]
    fn prem_pruning_preserves_the_model_and_cuts_derivations() {
        let (p, plain) = run(OPT_SHORTEST);
        let (p2, optimized) = run_opt(
            OPT_SHORTEST,
            Optimize {
                prem: true,
                demand: false,
            },
        );
        assert_eq!(plain.render(&p), optimized.render(&p2));
        assert_eq!(plain.stats().pruned, 0);
        assert!(plain.stats().optimizations.is_empty());
        assert!(optimized.stats().pruned > 0);
        assert!(
            optimized.stats().derivations < plain.stats().derivations,
            "{} !< {}",
            optimized.stats().derivations,
            plain.stats().derivations
        );
        assert!(optimized
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("premappable")));
    }

    #[test]
    fn refused_pushdown_is_never_pruned_nonlinear_recursion() {
        // Doubling (non-linear) recursion: the PreM proof refuses the
        // pushdown, so `--optimize=prem` must change nothing.
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 2). arc(b, c, 3). arc(c, d, 4).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), s(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
            constraint :- s(direct, Z, C).
        "#;
        let (p, plain) = run(src);
        let (p2, optimized) = run_opt(
            src,
            Optimize {
                prem: true,
                demand: false,
            },
        );
        assert_eq!(plain.render(&p), optimized.render(&p2));
        assert_eq!(optimized.stats().pruned, 0);
        assert_eq!(
            optimized.stats().derivations,
            plain.stats().derivations,
            "a refused pushdown must not change the evaluation"
        );
        assert!(optimized
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("refused")));
    }

    #[test]
    fn refused_pushdown_is_never_pruned_total_aggregate() {
        // Example 4.3's party program: the count aggregate uses total
        // equality, which is not a join fold — refusal, no pruning.
        let src = r#"
            requires(ann, 0). requires(bob, 1). requires(cal, 1). requires(dan, 1).
            knows(bob, ann). knows(cal, dan). knows(dan, cal).
            coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
            kc(X, Y) :- knows(X, Y), coming(Y).
        "#;
        let (p, plain) = run(src);
        let (p2, optimized) = run_opt(
            src,
            Optimize {
                prem: true,
                demand: false,
            },
        );
        assert_eq!(plain.render(&p), optimized.render(&p2));
        assert_eq!(optimized.stats().pruned, 0);
        assert!(optimized
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("refused")));
    }

    #[test]
    fn demand_restricted_goal_agrees_with_the_full_model() {
        use crate::provenance::parse_goal;
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10).
            arc(b, d, 1). arc(d, c, 1).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            e(p, q). e(q, r).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), e(Z, Y).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let full = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        let goal = parse_goal(&p, "s(a, c)").unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                optimize: Optimize {
                    prem: false,
                    demand: true,
                },
                ..Default::default()
            },
        );
        let m = engine.evaluate_goal(&Edb::new(), &goal).unwrap();
        // Every s-fact from the demanded source survives, at its exact
        // full-model cost.
        for target in ["b", "c", "d"] {
            assert_eq!(
                m.cost_of(&p, "s", &["a", target]),
                full.cost_of(&p, "s", &["a", target]),
                "s(a, {target})"
            );
        }
        // The unrelated tc component was skipped outright...
        assert!(m.stats().rounds.contains(&0));
        assert!(m.tuples_of(&p, "tc").is_empty());
        // ...and derivations from other sources were filtered.
        assert!(m.stats().pruned > 0);
        assert!(m.stats().derivations < full.stats().derivations);
        assert!(m
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("demand: restricted")));
    }

    #[test]
    fn demand_goal_without_a_stable_binding_still_answers() {
        use crate::provenance::parse_goal;
        // The party component admits no uniform binding: the engine must
        // fall back to cone-only restriction and still answer correctly.
        let src = r#"
            requires(ann, 0). requires(bob, 1). requires(cal, 1). requires(dan, 1).
            knows(bob, ann). knows(cal, dan). knows(dan, cal).
            coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
            kc(X, Y) :- knows(X, Y), coming(Y).
        "#;
        let p = parse_program(src).unwrap();
        let goal = parse_goal(&p, "coming(bob)").unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                optimize: Optimize {
                    prem: false,
                    demand: true,
                },
                ..Default::default()
            },
        );
        let m = engine.evaluate_goal(&Edb::new(), &goal).unwrap();
        assert!(m.holds(&p, "coming", &["bob"]));
        assert!(!m.holds(&p, "coming", &["cal"]));
        assert!(m
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("no stable binding")));
    }
}
