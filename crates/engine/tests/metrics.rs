//! Histogram merge-law property tests and end-to-end `HistogramSink`
//! runs through the OpenMetrics round trip.

use maglog_engine::{
    parse_openmetrics, Edb, Fanout, Histogram, HistogramSink, ManualClock, Meter, MetricsSink,
    MonotonicEngine, Registry, Strategy,
};
use std::sync::Arc;

const TC: &str = "e(a, b). e(b, c). e(c, d).\n\
                  tc(X, Y) :- e(X, Y).\n\
                  tc(X, Y) :- tc(X, Z), e(Z, Y).";

/// Deterministic value stream (xorshift) so the property tests are
/// reproducible without a random dependency.
fn values(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Spread across magnitudes: mask to a varying width.
            x % (1u64 << (x % 63 + 1))
        })
        .collect()
}

fn hist_of(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

#[test]
fn merge_is_associative_and_commutative() {
    let a = hist_of(&values(0xA11CE, 200));
    let b = hist_of(&values(0xB0B, 150));
    let c = hist_of(&values(0xC0FFEE, 75));

    // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ab_c = ab.clone();
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(ab_c, a_bc, "merge is not associative");

    // a ⊔ b == b ⊔ a
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba, "merge is not commutative");
}

#[test]
fn empty_histogram_is_a_two_sided_identity() {
    let a = hist_of(&values(7, 100));
    let empty = Histogram::new();
    let mut left = empty.clone();
    left.merge(&a);
    assert_eq!(left, a);
    let mut right = a.clone();
    right.merge(&empty);
    assert_eq!(right, a);
    // Empty ⊔ empty stays empty.
    let mut ee = Histogram::new();
    ee.merge(&empty);
    assert!(ee.is_empty());
    assert_eq!(ee, empty);
}

#[test]
fn merge_counts_are_deliberately_not_idempotent() {
    // Like the engine's counting aggregate folds: merging a histogram with
    // itself double-counts. Only a fresh histogram is safe to fold twice.
    let a = hist_of(&values(99, 64));
    let mut doubled = a.clone();
    doubled.merge(&a);
    assert_eq!(doubled.count(), 2 * a.count());
    assert_eq!(doubled.sum(), 2 * a.sum());
    assert_ne!(doubled, a);
    // ... but the *distribution shape* is idempotent: doubling every
    // bucket moves no quantile, and the extrema are exact.
    assert_eq!(doubled.min(), a.min());
    assert_eq!(doubled.max(), a.max());
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(doubled.quantile(q), a.quantile(q), "q={q} moved");
    }
}

#[test]
fn quantile_error_is_bounded_by_the_bucket_width() {
    let vals = values(0xDEAD, 5000);
    let mut sorted = vals.clone();
    sorted.sort_unstable();
    let h = hist_of(&vals);
    for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = h.quantile(q).unwrap();
        // The estimate is the upper bound of the truth's bucket: never
        // below the truth, and within one sub-bucket (relative error
        // ≤ 2⁻⁵ once past the exact range).
        assert!(est >= truth, "q={q}: est {est} < truth {truth}");
        if truth < 32 {
            assert_eq!(est, truth, "exact range must be exact");
        } else {
            let rel = (est - truth) as f64 / truth as f64;
            assert!(rel <= 1.0 / 32.0 + 1e-12, "q={q}: rel error {rel}");
        }
    }
}

#[test]
fn saturates_at_u64_max_instead_of_wrapping() {
    let mut h = Histogram::new();
    h.record(u64::MAX);
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    assert_eq!(h.count(), 3);
    assert_eq!(h.sum(), u64::MAX, "sum must saturate, not wrap");
    assert_eq!(h.max(), Some(u64::MAX));
    assert_eq!(h.quantile(1.0), Some(u64::MAX));
    // Merging two saturated histograms stays saturated.
    let mut other = h.clone();
    other.merge(&h);
    assert_eq!(other.sum(), u64::MAX);
    assert_eq!(other.count(), 6);
}

#[test]
fn sequential_run_records_all_core_families() {
    let p = maglog_datalog::parse_program(TC).unwrap();
    let meter = Meter::with_clock(Arc::new(ManualClock::with_step(1)));
    let registry = Registry::new();
    let mut sink = HistogramSink::with_meter(&p, &[("strategy", "seminaive")], meter)
        .publish_to(registry.clone());
    MonotonicEngine::new(&p)
        .evaluate_with_sink(&Edb::new(), &mut sink)
        .unwrap();
    let set = sink.finish();
    let text = set.render_openmetrics();
    for family in [
        "maglog_rule_fire_duration_seconds",
        "maglog_round_duration_seconds",
        "maglog_round_buffer_tuples",
        "maglog_heap_live_bytes",
        "maglog_rounds_total",
        "maglog_firings_total",
        "maglog_derivations_total",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    // Base label and the rule-head label are stamped.
    assert!(text.contains("strategy=\"seminaive\""), "{text}");
    assert!(text.contains("head=\"tc\""), "{text}");
    // The exposition round-trips through the bundled parser exactly.
    let exp = parse_openmetrics(&text).expect(&text);
    assert_eq!(exp.all_samples(), set.samples());
    // The registry holds the published snapshot: same families live.
    let live = registry.render();
    assert!(live.contains("maglog_round_duration_seconds"), "{live}");
    parse_openmetrics(&live).expect(&live);
}

#[test]
fn fanout_delivers_every_event_to_both_sinks() {
    let p = maglog_datalog::parse_program(TC).unwrap();
    let meter = Meter::with_clock(Arc::new(ManualClock::with_step(1)));
    let hist = HistogramSink::with_meter(&p, &[], meter);
    let metrics = MetricsSink::with_clock(
        &p,
        Strategy::SemiNaive,
        Box::new(ManualClock::with_step(1)),
    );
    let mut sink = Fanout(metrics, hist);
    MonotonicEngine::new(&p)
        .evaluate_with_sink(&Edb::new(), &mut sink)
        .unwrap();
    let Fanout(metrics, hist) = sink;
    let report = metrics.finish();
    let set = hist.finish();
    // Both observed the same firing count.
    let firings = set
        .samples()
        .into_iter()
        .find(|s| s.name == "maglog_firings_total")
        .unwrap();
    assert_eq!(firings.value as u64, report.total_firings());
    // Blocks summarize what the profile report will attach.
    let blocks = set.blocks();
    assert!(blocks
        .iter()
        .any(|b| b.metric == "maglog_round_duration_seconds"));
}
