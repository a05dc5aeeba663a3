//! End-to-end and per-layer benchmark of the `maglog run` path.
//!
//! One op does in process what `maglog run` does for a program file:
//! parse the program text with its inline facts, build the engine,
//! evaluate (or evaluate a point goal), and render the model (or look up
//! the one answer `run --query` prints). Process start and the stdout
//! write are outside the op. Ops run in a closed loop on one thread. See
//! `README.md` in this directory for the workloads and the metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload apsp --seed 1 --seconds 36 --trace 0
//! ```

mod alloc;
mod trace;
mod workloads;

use maglog_analysis::check_program;
use maglog_datalog::{parse_program, Program};
use maglog_engine::{parse_goal, Edb, EvalOptions, Goal, Model, MonotonicEngine, Optimize};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;
use workloads::{Instance, Kind};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <apsp|party|sssp_query|all> --seed <n> \
--seconds <s> --trace <0|1> [--spans <file>]
       perfbench --self-test";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 36.0,
        trace: false,
        spans: None,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--spans" => args.spans = Some(value()?),
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !args.self_test && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn step<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// What `run --query` prints for a point goal (`cmd_run` in the CLI).
fn answer(program: &Program, model: &Model, goal: &Goal) -> String {
    let name = program.pred_name(goal.pred);
    let mut parts: Vec<String> = goal.key.0.iter().map(|v| v.display(program)).collect();
    match model
        .interp()
        .relation(goal.pred)
        .and_then(|rel| rel.get(&goal.key))
    {
        Some(cost) => {
            if let Some(c) = cost {
                parts.push(c.display(program));
            }
            format!("{name}({}).", parts.join(", "))
        }
        None => format!("{name}({}) is not in the model.", parts.join(", ")),
    }
}

/// Steps 1–4 of an op on case `c` of the instance. The caller drops the
/// returned program and model as the op's last step.
fn op(
    inst: &Instance,
    c: usize,
    tr: &mut Option<&mut Tracer>,
) -> Result<(Program, Model, String), String> {
    let case = &inst.cases[c];
    let source = &inst.sources[case.source];
    let program =
        step(tr, "datalog.parse_program", || parse_program(source)).map_err(|e| e.to_string())?;
    let goal = match &case.query {
        Some(text) => Some(step(tr, "provenance.parse_goal", || {
            parse_goal(&program, text)
        })?),
        None => None,
    };
    let optimize = if goal.is_some() {
        Optimize::all()
    } else {
        Optimize::default()
    };
    let engine = step(tr, "eval.with_options", || {
        MonotonicEngine::with_options(
            &program,
            EvalOptions {
                optimize,
                ..Default::default()
            },
        )
    });
    let (model, output) = match &goal {
        Some(goal) => {
            let model = step(tr, "eval.evaluate_goal", || {
                engine.evaluate_goal(&Edb::new(), goal)
            })
            .map_err(|e| e.to_string())?;
            let out = step(tr, "model.answer", || answer(&program, &model, goal));
            (model, out)
        }
        None => {
            let model = step(tr, "eval.evaluate", || engine.evaluate(&Edb::new()))
                .map_err(|e| e.to_string())?;
            let out = step(tr, "model.render", || model.render(&program));
            (model, out)
        }
    };
    Ok((program, model, output))
}

fn hash_of(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// A workload set up for timing: its instance and, per case, the hash of
/// the warm-up op's output once it passed the value-by-value check (`None`
/// for a query case, whose every answer is checked).
struct Bench {
    inst: Instance,
    golden: Result<Vec<Option<u64>>, String>,
}

impl Bench {
    /// Generate the instance, render its sources, solve the reference and
    /// warm up: run the first op of every full-model case, or the first
    /// query, and check its output value by value.
    fn set_up(kind: Kind, seed: u64, corrupt: bool) -> Bench {
        let mut inst = Instance::build(kind, seed);
        if corrupt {
            inst.corrupt_reference();
        }
        let golden = (0..inst.cases.len())
            .map(|c| {
                let query = inst.cases[c].query.is_some();
                if query && c > 0 {
                    return Ok(None);
                }
                match catch_unwind(AssertUnwindSafe(|| op(&inst, c, &mut None))) {
                    Ok(Ok((_, _, out))) => inst
                        .check(c, &out)
                        .map(|()| (!query).then(|| hash_of(&out))),
                    Ok(Err(e)) => Err(e),
                    Err(_) => Err("the warm-up op panicked".into()),
                }
            })
            .collect();
        Bench { inst, golden }
    }

    /// Is a later op's output right? Full-model output must hash like its
    /// case's checked warm-up output; a query answer is checked against
    /// its reference distance.
    fn verify(&self, c: usize, out: &str) -> bool {
        match &self.golden {
            Err(_) => false,
            Ok(golden) => match golden[c] {
                Some(hash) => hash_of(out) == hash,
                None => self.inst.check(c, out).is_ok(),
            },
        }
    }
}

/// Per-op figures read from the model and the spans of the first cycle
/// of traced ops, averaged over the cycle. They are deterministic for a
/// seed.
#[derive(Default)]
struct Ledger {
    ops: u64,
    rounds: u64,
    firings: u64,
    derivations: u64,
    pruned: u64,
    model_tuples: u64,
    probes: u64,
    hits: u64,
    lazy_builds: u64,
    cow_clones: u64,
    replayed_entries: u64,
    output_bytes: u64,
}

impl Ledger {
    fn add(&mut self, model: &Model, output: &str) {
        let stats = model.stats();
        self.ops += 1;
        self.rounds += stats.rounds.iter().sum::<usize>() as u64;
        self.firings += stats.firings;
        self.derivations += stats.derivations;
        self.pruned += stats.pruned;
        let interp = model.interp();
        self.model_tuples += interp.size() as u64;
        for pred in interp.preds() {
            let ix = interp.relation(pred).expect("listed pred").index_stats();
            self.probes += ix.probes;
            self.hits += ix.hits;
            self.lazy_builds += ix.lazy_builds;
            self.cow_clones += ix.cow_clones;
            self.replayed_entries += ix.replayed_entries;
        }
        self.output_bytes += output.len() as u64;
    }

    fn mean(&self, total: u64) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }
}

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Name → (value, unit), in output order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable notes for stderr.
    notes: Vec<String>,
    spans: Option<Tracer>,
}

impl Report {
    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set up [`SETUPS`] times, then run ops back to back for `seconds`. With
/// `traced`, untraced and traced ops alternate and the report holds the
/// per-layer metrics; otherwise it holds the end-to-end ones. `corrupt`
/// spoils one reference value (the self-test).
fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, corrupt: bool) -> Report {
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut solve_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t = Instant::now();
        let b = Bench::set_up(kind, seed, corrupt);
        setup_s.push(t.elapsed().as_secs_f64());
        gen_s.push(b.inst.gen_s);
        solve_s.push(b.inst.solve_s);
        bench = Some(b);
    }
    let bench = bench.expect("at least one setup");
    let inst = &bench.inst;
    let cycle = inst.cases.len();

    let mut tracer = Tracer::new();
    let mut ledger = Ledger::default();
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let (mut attempted, mut failed, mut peak_max, mut ok_secs) = (0u64, 0u64, 0usize, 0.0);
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if traced && traced_walls.len() < untraced.len() {
            let n = traced_walls.len();
            let (c, in_ledger) = (n % cycle, n < cycle);
            tracer.set_op(n as u64);
            let depth = tracer.depth();
            let root = tracer.open("op");
            let mut aside_s = 0.0;
            let r = catch_unwind(AssertUnwindSafe(|| {
                let (program, model, out) = op(inst, c, &mut Some(&mut tracer))?;
                let aside = tracer.open("bench.aside");
                tracer.span("analysis.check_program", || {
                    black_box(check_program(black_box(&program)))
                });
                if in_ledger {
                    ledger.add(&model, &out);
                }
                tracer.close();
                aside_s = tracer.spans()[aside].secs();
                tracer.span("op.drop", || drop((model, program)));
                Ok::<_, String>(out)
            }));
            tracer.unwind_to(depth);
            traced_walls.push(tracer.spans()[root].secs() - aside_s);
            attempted += 1;
            if !matches!(&r, Ok(Ok(out)) if bench.verify(c, out)) {
                failed += 1;
            }
        } else {
            let c = untraced.len() % cycle;
            let base = alloc::reset_peak();
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                op(inst, c, &mut None).map(|(program, model, out)| {
                    drop((model, program));
                    out
                })
            }));
            let secs = t.elapsed().as_secs_f64();
            peak_max = peak_max.max(alloc::peak_above(base));
            untraced.push(secs);
            attempted += 1;
            if matches!(&r, Ok(Ok(out)) if bench.verify(c, out)) {
                ok_secs += secs;
            } else {
                failed += 1;
            }
        }
    }

    let mut notes = Vec::new();
    if let Err(e) = &bench.golden {
        notes.push(format!("warm-up failed its check: {e}"));
    }
    let mut sorted = untraced.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond_p90 = n - (0.9 * n as f64).ceil() as usize;
    notes.push(format!(
        "{} untraced op(s), {beyond_p90} beyond p90; {} traced op(s); error_rate {}",
        n,
        traced_walls.len(),
        failed as f64 / attempted as f64
    ));
    if beyond_p90 < 10 {
        notes.push("op_s.p90 has fewer than ten samples beyond it".into());
    }

    let mut report = Report {
        correct: bench.golden.is_ok() && failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
        notes,
        spans: None,
    };
    if !traced {
        report.metrics = vec![
            ("setup_s", median(&setup_s), "s"),
            ("op_s.p50", quantile(&sorted, 0.5), "s"),
            ("op_s.p90", quantile(&sorted, 0.9), "s"),
            ("ops_per_s", (attempted - failed) as f64 / ok_secs, "1/s"),
            ("peak_heap_mb", peak_max as f64 / (1024.0 * 1024.0), "MiB"),
            ("success_rate", 1.0 - report.error_rate(), "ratio"),
        ];
        return report;
    }

    // Per-layer figures from the spans: times are medians over every
    // traced op, counts are per-op means over the ledger cycle.
    let spans = tracer.spans();
    let times = |names: &[&str]| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.secs())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let in_ledger = |names: &[&str], f: &dyn Fn(&trace::Span) -> u64| -> f64 {
        let total: u64 = spans
            .iter()
            .filter(|s| (s.op as usize) < cycle && names.contains(&s.name))
            .map(f)
            .sum();
        ledger.mean(total)
    };
    let source_bytes =
        inst.sources.iter().map(String::len).sum::<usize>() as f64 / inst.sources.len() as f64;
    let parse = ["datalog.parse_program"];
    let eval = ["eval.evaluate", "eval.evaluate_goal"];
    let render = ["model.render", "model.answer"];
    let parse_s = times(&parse);
    let eval_s = times(&eval);
    let render_s = times(&render);
    let ref_s = median(&solve_s);
    let derivations = ledger.mean(ledger.derivations);
    let eval_allocs = in_ledger(&eval, &|s| s.allocs);

    // Coverage: layer spans directly under each op root, over the op's
    // wall time; `bench.aside` (the separate check and the ledger reads)
    // is not part of the op.
    let (mut covered, mut wall) = (0.0, 0.0);
    let mut self_s: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.secs();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let e = self_s.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs() - child_s[i];
        match (s.parent, s.name) {
            (None, _) => wall += s.secs(),
            (Some(_), "bench.aside") => wall -= s.secs(),
            (Some(p), _) if spans[p].parent.is_none() => covered += s.secs(),
            _ => {}
        }
    }
    for (name, (count, secs)) in &self_s {
        report.notes.push(format!(
            "self time {name:<24} {count:>6} span(s) {:>12.6} s total {:>12.9} s each",
            secs,
            secs / *count as f64
        ));
    }

    report.metrics = vec![
        ("datalog.parse_s", parse_s, "s"),
        (
            "datalog.parse_mb_per_s",
            source_bytes / 1e6 / parse_s,
            "MB/s",
        ),
        ("datalog.allocs", in_ledger(&parse, &|s| s.allocs), "count"),
        ("analysis.check_s", times(&["analysis.check_program"]), "s"),
        ("eval.evaluate_s", eval_s, "s"),
        ("eval.derivations_per_s", derivations / eval_s, "1/s"),
        ("eval.rounds", ledger.mean(ledger.rounds), "count"),
        ("eval.firings", ledger.mean(ledger.firings), "count"),
        ("eval.derivations", derivations, "count"),
        ("eval.pruned", ledger.mean(ledger.pruned), "count"),
        (
            "eval.model_tuples",
            ledger.mean(ledger.model_tuples),
            "count",
        ),
        (
            "eval.tuples_per_derivation",
            (ledger.mean(ledger.model_tuples) - inst.edb_facts as f64) / derivations,
            "ratio",
        ),
        (
            "eval.allocs_per_derivation",
            eval_allocs / derivations,
            "ratio",
        ),
        ("eval.allocs", eval_allocs, "count"),
        (
            "eval.alloc_bytes",
            in_ledger(&eval, &|s| s.alloc_bytes),
            "B",
        ),
        (
            "eval.peak_heap_bytes",
            in_ledger(&eval, &|s| s.peak_bytes),
            "B",
        ),
        ("eval.gap_to_ref", eval_s / ref_s, "ratio"),
        ("interp.index_probes", ledger.mean(ledger.probes), "count"),
        (
            "interp.index_hit_ratio",
            ledger.hits as f64 / ledger.probes as f64,
            "ratio",
        ),
        (
            "interp.index_lazy_builds",
            ledger.mean(ledger.lazy_builds),
            "count",
        ),
        ("interp.cow_clones", ledger.mean(ledger.cow_clones), "count"),
        (
            "interp.log_replayed_entries",
            ledger.mean(ledger.replayed_entries),
            "count",
        ),
        ("model.render_s", render_s, "s"),
        (
            "model.render_mb_per_s",
            ledger.mean(ledger.output_bytes) / 1e6 / render_s,
            "MB/s",
        ),
        (
            "model.render_allocs",
            in_ledger(&render, &|s| s.allocs),
            "count",
        ),
        ("ref.solve_s", ref_s, "s"),
        ("setup.gen_s", median(&gen_s), "s"),
        ("setup.source_bytes", source_bytes, "B"),
        ("setup.edb_facts", inst.edb_facts as f64, "count"),
        ("trace.coverage", covered / wall, "ratio"),
        (
            "trace.overhead",
            median(&traced_walls) / median(&untraced) - 1.0,
            "ratio",
        ),
    ];
    report.spans = Some(tracer);
    report
}

fn print_human(kind: Kind, report: &Report) {
    for note in &report.notes {
        eprintln!("-- {}: {note}", kind.name());
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("{:<12} {name:<28} {value:>18.9} {unit}", kind.name());
    }
}

/// Run every workload with a corrupted reference: each must report
/// failed ops and a non-zero exit.
fn self_test() -> i32 {
    let mut code = 0;
    for kind in Kind::ALL {
        let report = run(kind, 1, 0.5, false, true);
        let caught = report.error_rate() > 0.0 && exit_code(&report) != 0;
        println!(
            "self-test {:<12} error_rate {} exit {}: {}",
            kind.name(),
            report.error_rate(),
            exit_code(&report),
            if caught { "caught" } else { "MISSED" }
        );
        if !caught {
            code = 1;
        }
    }
    code
}

fn exit_code(report: &Report) -> i32 {
    if report.correct {
        0
    } else {
        1
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        std::process::exit(self_test());
    }
    if args.workload == "all" {
        // Every workload's end-to-end metrics, by name with their units.
        let mut code = 0;
        for kind in Kind::ALL {
            let report = run(kind, args.seed, args.seconds, false, false);
            for note in &report.notes {
                println!("-- {}: {note}", kind.name());
            }
            for (name, value, unit) in &report.metrics {
                println!("{:<12} {name:<14} {value:>16.9} {unit}", kind.name());
            }
            println!(
                "{:<12} {:<14} {:>16.9} ratio",
                kind.name(),
                "error_rate",
                report.error_rate()
            );
            code = code.max(exit_code(&report));
        }
        std::process::exit(code);
    }
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let report = run(kind, args.seed, args.seconds, args.trace, false);
    print_human(kind, &report);
    if let Some(tracer) = &report.spans {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| format!(".bench_out/spans-{}-seed{}.jsonl", kind.name(), args.seed));
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("-- spans: wrote {path} ({} span(s))", tracer.spans().len()),
            Err(e) => eprintln!("-- spans: could not write {path}: {e}"),
        }
    }
    println!("{}", report.json());
    std::process::exit(exit_code(&report));
}
