//! Parallel-evaluation support: deterministic seed sharding, the
//! barrier-merge of per-shard costs through mergeable accumulators, and
//! the worker-side event tally.
//!
//! The parallel evaluator (`--parallel[=N]`) keeps the *logical* fixpoint
//! identical to the sequential one. Each semi-naive round, every worker
//! walks the full round delta but fires only the seeds whose hash lands
//! in its shard ([`shard_of`]); because a given seed always hashes to the
//! same worker, worker-local seed dedup is global dedup, and the union of
//! the shard firings is exactly the sequential firing set. Derivations
//! buffered by different workers for the same `(pred, key)` meet at the
//! round barrier, where join-fold relaxation entries are combined through
//! [`Accumulator::merge`] — the `create/process/merge/convert` interface
//! — which for those lattice folds coincides with the cost domain's join,
//! so the merged round buffer matches what one sequential buffer would
//! have held.

use crate::aggregate::Accumulator;
use crate::value::{RuntimeDomain, Value};
use maglog_datalog::{AggFunc, DomainSpec, Var};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Worker count actually available on this machine (the `--parallel`
/// default, and the meaning of `workers == 0` in
/// [`EvalOptions`](crate::eval::EvalOptions)).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a requested worker count: `0` means "use the machine".
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        available_workers()
    } else {
        requested
    }
}

/// The shard (worker index in `0..workers`) that owns a semi-naive seed.
///
/// The hash runs over the same `(exec slot, driver discriminator, seed
/// binding)` triple the sequential evaluator deduplicates on, with the
/// seed given as `(variable, value)` pairs in ascending variable order and
/// hashed exactly as the slice `[(Var, Value)]` would be (its length, then
/// each pair), through `DefaultHasher::new()` — SipHash with fixed keys, so
/// the assignment is stable within a run and across runs of the same
/// binary. Determinism of the *result* never depends on the hash values:
/// any assignment yields the same model, this one just makes runs
/// reproducible to observe.
pub(crate) fn shard_of<'a>(
    exec_index: usize,
    disc: u64,
    seed: impl ExactSizeIterator<Item = (Var, &'a Value)>,
    workers: usize,
) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    exec_index.hash(&mut h);
    disc.hash(&mut h);
    h.write_usize(seed.len());
    for (var, value) in seed {
        var.hash(&mut h);
        value.hash(&mut h);
    }
    (h.finish() % workers as u64) as usize
}

/// The aggregate function whose fold is `domain`'s lattice join — the
/// inverse of the join-fold relaxation test. `PosNat` (product) has no
/// join-fold aggregate, matching the relaxation's refusal to fire there.
pub(crate) fn join_fold_func(domain: DomainSpec) -> Option<AggFunc> {
    use DomainSpec::*;
    match domain {
        MinReal => Some(AggFunc::Min),
        MaxReal | NonNegReal | Nat => Some(AggFunc::Max),
        BoolOr => Some(AggFunc::Or),
        BoolAnd => Some(AggFunc::And),
        SetUnion => Some(AggFunc::Union),
        SetIntersect => Some(AggFunc::Intersect),
        PosNat => None,
    }
}

/// Combine two shards' partial costs for one derived key at the round
/// barrier: route through [`Accumulator::merge`] when the domain has a
/// join-fold aggregate (each partial cost is a one-element accumulator;
/// the merged fold *is* the domain join), and fall back to the domain
/// join directly otherwise.
pub(crate) fn merge_costs(domain: DomainSpec, a: Value, b: Value) -> Value {
    if let Some(func) = join_fold_func(domain) {
        let mut acc = Accumulator::new(func);
        acc.push(&a);
        let mut other = Accumulator::new(func);
        other.push(&b);
        acc.merge(other);
        if let Some(v) = acc.finish() {
            return v;
        }
    }
    RuntimeDomain::new(domain).join(&a, &b)
}

/// Worker-side event sink: counts rule firings per program rule index so
/// the orchestrator can replay `rule_fire_start`/`rule_fire_end` pairs
/// into the real sink at the barrier. Workers cannot share the caller's
/// sink (it is `&mut` on the orchestrating thread), and counting sinks
/// only need the totals. When the orchestrator's sink hands out a
/// [`Meter`](crate::metrics::Meter), the tally additionally times each
/// firing into worker-local [`Histogram`](crate::metrics::Histogram)s —
/// per-firing *ordering* is meaningless under interleaving, but the
/// latency *distribution* is exactly what the metrics sink wants, and
/// histograms merge losslessly at the barrier.
#[derive(Debug, Default)]
pub(crate) struct FireTally {
    pub(crate) counts: HashMap<usize, u64>,
    meter: Option<crate::metrics::Meter>,
    started: u64,
    pub(crate) rule_nanos: HashMap<usize, crate::metrics::Histogram>,
}

impl FireTally {
    pub(crate) fn with_meter(meter: Option<crate::metrics::Meter>) -> FireTally {
        FireTally {
            meter,
            ..FireTally::default()
        }
    }

    /// Drain the timed histograms (empty when unmetered).
    pub(crate) fn take_rule_nanos(&mut self) -> Vec<(usize, crate::metrics::Histogram)> {
        let mut v: Vec<_> = std::mem::take(&mut self.rule_nanos).into_iter().collect();
        v.sort_by_key(|(ri, _)| *ri);
        v
    }
}

impl crate::events::EventSink for FireTally {
    fn rule_fire_start(&mut self, rule: usize) {
        *self.counts.entry(rule).or_insert(0) += 1;
        if let Some(m) = &self.meter {
            self.started = m.now_nanos();
        }
    }

    fn rule_fire_end(&mut self, rule: usize) {
        if let Some(m) = &self.meter {
            let elapsed = m.now_nanos().saturating_sub(self.started);
            self.rule_nanos.entry(rule).or_default().record(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::Sym;
    use maglog_lattice::Real;

    fn shard(exec: usize, disc: u64, seed: &[(Var, Value)], workers: usize) -> usize {
        shard_of(exec, disc, seed.iter().map(|(v, x)| (*v, x)), workers)
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        let seed = vec![
            (Var(Sym(3)), Value::num(1.0)),
            (Var(Sym(7)), Value::num(2.5)),
        ];
        for workers in 1..=8 {
            let s = shard(2, 1022, &seed, workers);
            assert!(s < workers);
            assert_eq!(s, shard(2, 1022, &seed, workers));
        }
        // Every component of the triple discriminates.
        assert!(
            (0..64).any(|i| shard(i, 0, &seed, 8) != shard(0, 0, &seed, 8))
                || (0..64).any(|d| shard(0, d, &seed, 8) != shard(0, 0, &seed, 8))
        );
    }

    #[test]
    fn shard_hash_equals_the_seed_slice_hash() {
        // Parallel goldens depend on shards staying where hashing the
        // sorted `[(Var, Value)]` slice puts them.
        let seed = vec![
            (Var(Sym(1)), Value::num(4.0)),
            (Var(Sym(5)), Value::Sym(Sym(9))),
            (Var(Sym(6)), Value::Bool(true)),
        ];
        for (exec, disc) in [(0usize, 1023u64), (3, 2 * 1024 + 1022), (1, 0)] {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            exec.hash(&mut h);
            disc.hash(&mut h);
            seed.as_slice().hash(&mut h);
            for workers in 2..=7 {
                assert_eq!(
                    shard(exec, disc, &seed, workers),
                    (h.finish() % workers as u64) as usize
                );
            }
        }
    }

    #[test]
    fn shards_spread_across_workers() {
        // 256 distinct seeds over 4 workers: every worker owns some.
        let mut owned = [0usize; 4];
        for i in 0..256 {
            let seed = vec![(Var(Sym(0)), Value::num(i as f64))];
            owned[shard(0, 1023, &seed, 4)] += 1;
        }
        assert!(owned.iter().all(|&n| n > 0), "degenerate spread: {owned:?}");
    }

    #[test]
    fn join_fold_func_inverts_the_relaxation_test() {
        use DomainSpec::*;
        for domain in [
            MaxReal, MinReal, NonNegReal, BoolOr, BoolAnd, Nat, PosNat, SetUnion, SetIntersect,
        ] {
            match join_fold_func(domain) {
                Some(func) => assert!(
                    crate::eval::is_join_fold(func, domain),
                    "{func:?} is not the join-fold of {domain:?}"
                ),
                None => assert!(
                    ![
                        AggFunc::Min,
                        AggFunc::Max,
                        AggFunc::Or,
                        AggFunc::And,
                        AggFunc::Union,
                        AggFunc::Intersect
                    ]
                    .iter()
                    .any(|&f| crate::eval::is_join_fold(f, domain)),
                    "{domain:?} has a join-fold this map misses"
                ),
            }
        }
    }

    #[test]
    fn merge_costs_agrees_with_the_domain_join() {
        let cases = [
            (DomainSpec::MinReal, 3.0, 7.0),
            (DomainSpec::MaxReal, 3.0, 7.0),
            (DomainSpec::NonNegReal, 0.0, 2.0),
            (DomainSpec::Nat, 5.0, 2.0),
            (DomainSpec::PosNat, 5.0, 2.0),
        ];
        for (domain, x, y) in cases {
            let a = Value::Num(Real::new(x));
            let b = Value::Num(Real::new(y));
            let want = RuntimeDomain::new(domain).join(&a, &b);
            assert_eq!(merge_costs(domain, a, b), want, "{domain:?}");
        }
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        assert_eq!(merge_costs(DomainSpec::BoolOr, f.clone(), t.clone()), t);
        assert_eq!(merge_costs(DomainSpec::BoolAnd, f.clone(), t), f);
    }

    #[test]
    fn fire_tally_counts_per_rule() {
        use crate::events::EventSink;
        let mut t = FireTally::default();
        t.rule_fire_start(3);
        t.rule_fire_start(3);
        t.rule_fire_start(5);
        t.rule_fire_end(3); // ends are not counted
        assert_eq!(t.counts.get(&3), Some(&2));
        assert_eq!(t.counts.get(&5), Some(&1));
        assert_eq!(t.counts.get(&0), None);
        // Unmetered: no latency histograms accumulate.
        assert!(t.take_rule_nanos().is_empty());
    }

    #[test]
    fn metered_fire_tally_times_each_firing() {
        use crate::events::{EventSink, ManualClock};
        use crate::metrics::Meter;
        use std::sync::Arc;
        let meter = Meter::with_clock(Arc::new(ManualClock::with_step(10)));
        let mut t = FireTally::with_meter(Some(meter));
        t.rule_fire_start(3); // clock: 0
        t.rule_fire_end(3); // clock: 10 → elapsed 10
        t.rule_fire_start(5); // clock: 20
        t.rule_fire_end(5); // clock: 30 → elapsed 10
        assert_eq!(t.counts.get(&3), Some(&1));
        let nanos = t.take_rule_nanos();
        assert_eq!(nanos.len(), 2);
        assert_eq!(nanos[0].0, 3);
        assert_eq!(nanos[0].1.max(), Some(10));
        assert_eq!(nanos[1].1.count(), 1);
    }
}
