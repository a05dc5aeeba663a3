//! The benchmark's inputs: its own copies of the paper's programs, a
//! seeded PRNG, O(edges) instance generators, the source text each op
//! parses, and a reference solver for every workload.
//!
//! Nothing here comes from the repository's workload or PRNG crates, so
//! what the benchmark measures changes only when these files change.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Example 2.6 of Ross & Sagiv (PODS 1992): shortest paths through the
/// `=r min` aggregate, with the integrity constraint of Example 2.5.
const SHORTEST_PATH: &str = "\
declare pred arc/3 cost min_real.
declare pred path/4 cost min_real.
declare pred s/3 cost min_real.
path(X, direct, Y, C) :- arc(X, Y, C).
path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
constraint :- arc(direct, Z, C).
";

/// Example 4.3: party invitations through the `=` count aggregate.
const PARTY: &str = "\
coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
kc(X, Y) :- knows(X, Y), coming(Y).
";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Apsp,
    Party,
    SsspQuery,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Apsp, Kind::Party, Kind::SsspQuery];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Apsp => "apsp",
            Kind::Party => "party",
            Kind::SsspQuery => "sssp_query",
        }
    }
}

/// Nodes of each `apsp` digraph.
const APSP_NODES: usize = 96;
/// Digraphs an `apsp` run cycles through.
const APSP_GRAPHS: usize = 4;
/// Nodes of the `sssp_query` digraph.
const SSSP_NODES: usize = 256;
/// Point queries an `sssp_query` run cycles through.
const SSSP_QUERIES: usize = 32;
/// Guests of each `party` instance.
const PARTY_GUESTS: usize = 4096;
/// Party instances a `party` run cycles through.
const PARTY_INSTANCES: usize = 2;
/// Average `knows` degree (each undirected acquaintance gives two facts).
const PARTY_DEGREE: usize = 6;
/// Share of guests, in percent, who require nobody.
const PARTY_SEED_PERCENT: u64 = 15;

/// splitmix64 (Steele, Lea & Flood): a small seeded generator whose
/// stream is fixed by this file alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` by widening multiply; the bias, below
    /// `bound / 2^64`, is immaterial at these sizes.
    fn below(&mut self, bound: usize) -> usize {
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

/// A weighted digraph on nodes `0..n` with integer weights, so that the
/// source text and every sum in the model are exact.
struct Graph {
    n: usize,
    arcs: Vec<(usize, usize, u64)>,
}

/// Each node gets an arc to its ring successor plus two arcs to distinct
/// random other nodes, all with weights 1–9. The ring makes the graph
/// strongly connected, so the model's size is the same for every seed and
/// only the weights and chords vary.
fn ring_digraph(n: usize, rng: &mut Rng) -> Graph {
    let mut arcs = Vec::with_capacity(3 * n);
    for u in 0..n {
        let mut heads = vec![(u + 1) % n];
        while heads.len() < 3 {
            let v = rng.below(n);
            if v != u && !heads.contains(&v) {
                heads.push(v);
            }
        }
        for v in heads {
            arcs.push((u, v, 1 + rng.below(9) as u64));
        }
    }
    Graph { n, arcs }
}

/// Single-source Dijkstra: shortest distance from `src` to every node
/// (`dist[src] = 0`, the empty path).
fn dijkstra(g: &Graph, adj: &[Vec<(usize, u64)>], src: usize) -> Vec<Option<u64>> {
    let mut dist = vec![None; g.n];
    let mut heap = BinaryHeap::new();
    dist[src] = Some(0);
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u].is_some_and(|best| d > best) {
            continue;
        }
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if dist[v].is_none_or(|best| nd < best) {
                dist[v] = Some(nd);
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

fn adjacency(g: &Graph) -> Vec<Vec<(usize, u64)>> {
    let mut adj = vec![Vec::new(); g.n];
    for &(u, v, w) in &g.arcs {
        adj[u].push((v, w));
    }
    adj
}

/// The program's `s(X, Y)`: the shortest *non-empty* path from `x` to
/// `y`, i.e. the best first arc `x → w` plus the shortest path `w → y`.
/// One Dijkstra run per arc head.
fn nonempty_shortest(g: &Graph) -> Vec<Vec<Option<u64>>> {
    let adj = adjacency(g);
    let from: Vec<Vec<Option<u64>>> = (0..g.n).map(|w| dijkstra(g, &adj, w)).collect();
    let mut s = vec![vec![None; g.n]; g.n];
    for &(u, w, c) in &g.arcs {
        for v in 0..g.n {
            if let Some(rest) = from[w][v] {
                let cell: &mut Option<u64> = &mut s[u][v];
                if cell.is_none_or(|b| c + rest < b) {
                    *cell = Some(c + rest);
                }
            }
        }
    }
    s
}

/// A party instance: a symmetric `knows` relation and each guest's
/// required number of coming acquaintances.
struct Party {
    knows: Vec<Vec<usize>>,
    requires: Vec<usize>,
}

/// `n * degree / 2` distinct random acquaintances, drawn in O(edges).
fn random_party(n: usize, rng: &mut Rng) -> Party {
    let target = n * PARTY_DEGREE / 2;
    let mut seen = HashSet::with_capacity(target);
    let mut knows = vec![Vec::new(); n];
    while seen.len() < target {
        let (x, y) = (rng.below(n), rng.below(n));
        if x != y && seen.insert((x.min(y), x.max(y))) {
            knows[x].push(y);
            knows[y].push(x);
        }
    }
    let requires = knows
        .iter()
        .map(|friends| {
            let picky = rng.below(100) as u64 >= PARTY_SEED_PERCENT;
            if picky && !friends.is_empty() {
                1 + rng.below(friends.len())
            } else {
                0
            }
        })
        .collect();
    Party { knows, requires }
}

/// The least model's `coming` set by a linear-time cascade: a guest comes
/// once as many acquaintances as it requires have come.
fn party_cascade(p: &Party) -> Vec<bool> {
    let n = p.requires.len();
    let mut known_by = vec![Vec::new(); n];
    for (x, friends) in p.knows.iter().enumerate() {
        for &y in friends {
            known_by[y].push(x);
        }
    }
    let mut count = vec![0usize; n];
    let mut coming: Vec<bool> = p.requires.iter().map(|&k| k == 0).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&x| coming[x]).collect();
    while let Some(y) = queue.pop() {
        for &x in &known_by[y] {
            count[x] += 1;
            if !coming[x] && count[x] >= p.requires[x] {
                coming[x] = true;
                queue.push(x);
            }
        }
    }
    coming
}

/// What an op must print: the whole model or one point query's answer.
pub enum Expected {
    /// `pred(key args` → the cost, or `None` for a predicate without one;
    /// `cost_preds` lists the predicates whose last argument is a cost.
    Model {
        atoms: HashMap<String, Option<f64>>,
        cost_preds: &'static [&'static str],
    },
    /// The shortest distance the query asks for.
    Answer(f64),
}

/// One op's input: which source it parses, the goal it evaluates (none
/// for a full-model op) and the reference output.
pub struct Case {
    pub source: usize,
    pub query: Option<String>,
    pub expected: Expected,
}

/// One workload instance: the sources its ops parse and the cases a run
/// cycles through. A full-model workload has one case per generated
/// program, so every run averages over several random instances; a query
/// workload has one program and one case per query.
pub struct Instance {
    pub sources: Vec<String>,
    pub cases: Vec<Case>,
    /// EDB facts per source (the same for every source of a workload).
    pub edb_facts: usize,
    /// Wall time to generate the instances and render their source text.
    pub gen_s: f64,
    /// Reference solve time per case.
    pub solve_s: f64,
}

impl Instance {
    pub fn build(kind: Kind, seed: u64) -> Instance {
        let mut rng = Rng::new(seed);
        let t = Instant::now();
        let mut inst = Instance {
            sources: Vec::new(),
            cases: Vec::new(),
            edb_facts: 0,
            gen_s: 0.0,
            solve_s: 0.0,
        };
        match kind {
            Kind::Apsp => {
                let graphs: Vec<Graph> = (0..APSP_GRAPHS)
                    .map(|_| ring_digraph(APSP_NODES, &mut rng))
                    .collect();
                inst.sources = graphs.iter().map(graph_source).collect();
                inst.edb_facts = graphs[0].arcs.len();
                inst.gen_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                for (source, g) in graphs.iter().enumerate() {
                    let expected = apsp_model(g, &nonempty_shortest(g));
                    inst.cases.push(Case {
                        source,
                        query: None,
                        expected,
                    });
                }
                inst.solve_s = t.elapsed().as_secs_f64();
            }
            Kind::Party => {
                let parties: Vec<Party> = (0..PARTY_INSTANCES)
                    .map(|_| random_party(PARTY_GUESTS, &mut rng))
                    .collect();
                inst.sources = parties.iter().map(party_source).collect();
                inst.edb_facts = parties[0].knows.iter().map(Vec::len).sum::<usize>()
                    + parties[0].requires.len();
                inst.gen_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                for (source, p) in parties.iter().enumerate() {
                    let expected = party_model(p, &party_cascade(p));
                    inst.cases.push(Case {
                        source,
                        query: None,
                        expected,
                    });
                }
                inst.solve_s = t.elapsed().as_secs_f64();
            }
            Kind::SsspQuery => {
                let g = ring_digraph(SSSP_NODES, &mut rng);
                let pairs: Vec<(usize, usize)> = (0..SSSP_QUERIES)
                    .map(|_| {
                        let u = rng.below(g.n);
                        (u, (u + 1 + rng.below(g.n - 1)) % g.n)
                    })
                    .collect();
                inst.sources = vec![graph_source(&g)];
                inst.edb_facts = g.arcs.len();
                inst.gen_s = t.elapsed().as_secs_f64();
                // v != u, so the shortest path is the non-empty one.
                let t = Instant::now();
                let adj = adjacency(&g);
                for (u, v) in pairs {
                    let dist = dijkstra(&g, &adj, u)[v].expect("the ring connects every pair");
                    inst.cases.push(Case {
                        source: 0,
                        query: Some(format!("s(n{u}, n{v})")),
                        expected: Expected::Answer(dist as f64),
                    });
                }
                inst.solve_s = t.elapsed().as_secs_f64();
            }
        }
        inst.solve_s /= inst.cases.len() as f64;
        inst
    }

    /// Make the reference wrong in one value, for the self-test.
    pub fn corrupt_reference(&mut self) {
        match &mut self.cases[0].expected {
            Expected::Model { atoms, .. } => {
                let key = atoms.keys().min().expect("non-empty model").clone();
                atoms.remove(&key);
                atoms.insert(format!("{key}_corrupted"), None);
            }
            Expected::Answer(dist) => *dist += 1.0,
        }
    }

    /// Check an op's output against its case's reference: a model value by
    /// value, a query answer (`s(nU, nV, C).`) by its distance.
    pub fn check(&self, case: usize, output: &str) -> Result<(), String> {
        let case = &self.cases[case];
        match (&case.expected, &case.query) {
            (Expected::Model { atoms, cost_preds }, _) => check_model(atoms, cost_preds, output),
            (Expected::Answer(want), Some(goal)) => {
                let cost = output
                    .strip_prefix(&goal[..goal.len() - 1])
                    .and_then(|rest| rest.strip_prefix(", "))
                    .and_then(|rest| rest.strip_suffix(")."))
                    .and_then(|c| c.parse::<f64>().ok())
                    .ok_or_else(|| format!("`{goal}`: unexpected answer `{output}`"))?;
                if cost != *want {
                    return Err(format!("`{goal}`: expected {want}, got {cost}"));
                }
                Ok(())
            }
            (Expected::Answer(_), None) => Err("an answer case without a query".into()),
        }
    }
}

fn check_model(
    atoms: &HashMap<String, Option<f64>>,
    cost_preds: &[&str],
    rendered: &str,
) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(atoms.len());
    for line in rendered.lines() {
        let (key, cost) = split_atom(line, cost_preds)
            .ok_or_else(|| format!("unparseable model line `{line}`"))?;
        match atoms.get(key) {
            Some(want) if *want == cost => {}
            Some(want) => return Err(format!("`{line}`: expected cost {want:?}, got {cost:?}")),
            None => return Err(format!("`{line}` is not in the reference model")),
        }
        if !seen.insert(key) {
            return Err(format!("`{line}` rendered twice"));
        }
    }
    if seen.len() != atoms.len() {
        return Err(format!(
            "model has {} atoms, reference has {}",
            seen.len(),
            atoms.len()
        ));
    }
    Ok(())
}

/// Split a rendered atom `pred(a, b, c)` into its key text `pred(a, b`
/// and, for a cost predicate, the cost `c`.
fn split_atom<'a>(line: &'a str, cost_preds: &[&str]) -> Option<(&'a str, Option<f64>)> {
    let body = line.strip_suffix(')')?;
    let pred = &body[..body.find('(')?];
    if !cost_preds.contains(&pred) {
        return Some((line, None));
    }
    let (key, cost) = body.rsplit_once(", ")?;
    Some((key, Some(cost.parse().ok()?)))
}

fn graph_source(g: &Graph) -> String {
    let mut src = String::with_capacity(SHORTEST_PATH.len() + 24 * g.arcs.len());
    src.push_str(SHORTEST_PATH);
    for &(u, v, w) in &g.arcs {
        writeln!(src, "arc(n{u}, n{v}, {w}).").expect("writing to a String");
    }
    src
}

fn party_source(p: &Party) -> String {
    let mut src = String::with_capacity(PARTY.len() + 20 * (p.requires.len() * 7));
    src.push_str(PARTY);
    for (x, k) in p.requires.iter().enumerate() {
        writeln!(src, "requires(g{x}, {k}).").expect("writing to a String");
    }
    for (x, friends) in p.knows.iter().enumerate() {
        for y in friends {
            writeln!(src, "knows(g{x}, g{y}).").expect("writing to a String");
        }
    }
    src
}

fn apsp_model(g: &Graph, s: &[Vec<Option<u64>>]) -> Expected {
    let adj = adjacency(g);
    let mut atoms = HashMap::new();
    let mut put = |key: String, cost: u64| atoms.insert(key, Some(cost as f64));
    for &(u, v, w) in &g.arcs {
        put(format!("arc(n{u}, n{v}"), w);
        put(format!("path(n{u}, direct, n{v}"), w);
    }
    for (x, row) in s.iter().enumerate() {
        for (z, cost) in row.iter().enumerate() {
            let Some(c1) = cost else { continue };
            put(format!("s(n{x}, n{z}"), *c1);
            for &(y, c2) in &adj[z] {
                put(format!("path(n{x}, n{z}, n{y}"), c1 + c2);
            }
        }
    }
    Expected::Model {
        atoms,
        cost_preds: &["arc", "path", "s"],
    }
}

fn party_model(p: &Party, coming: &[bool]) -> Expected {
    let mut atoms = HashMap::new();
    for (x, k) in p.requires.iter().enumerate() {
        atoms.insert(format!("requires(g{x}, {k})"), None);
        if coming[x] {
            atoms.insert(format!("coming(g{x})"), None);
        }
    }
    for (x, friends) in p.knows.iter().enumerate() {
        for &y in friends {
            atoms.insert(format!("knows(g{x}, g{y})"), None);
            if coming[y] {
                atoms.insert(format!("kc(g{x}, g{y})"), None);
            }
        }
    }
    Expected::Model {
        atoms,
        cost_preds: &[],
    }
}
