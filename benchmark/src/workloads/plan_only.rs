//! `plan_only`: parse → LP → planner choice → shares → plan compilation
//! over a seeded set of query texts, plus skew-resilient plans over small
//! Zipf databases. No tuple moves, so `sim`, `storage` and `net` do nothing.
//!
//! One iteration is one pass over every text with the process-wide LP cache
//! cleared first: each pass sees the same closed-form / miss / hit mix. The
//! set holds far fewer distinct signatures than the cache's 4096 entries.

use std::collections::BTreeMap;
use std::time::Instant;

use mpc_core::analysis::QueryAnalysis;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_core::shares::ShareAllocation;
use mpc_cq::parser::parse_query;
use mpc_cq::{families, Query};
use mpc_data::skew::zipf_database;
use mpc_data::{DbStatistics, StatsMode};
use mpc_lp::{LpCache, QueryLps, Rational};
use mpc_sim::MpcProgram;
use mpc_skew::{HeavyHitterDetector, HeavyHitterPolicy, ResidualPlanSet, SkewResilientProgram};
use mpc_storage::Database;

use super::{lp_path_metric, step, Samples, Step, Workload};
use crate::metrics::Metrics;
use crate::seed::{derive, SplitMix64};
use crate::span::Tracer;

/// Servers every plan of the pass is compiled for.
const P: usize = 64;
/// Longest cycle and chain of the set. Planning cost grows steeply with the
/// atom count (C8 plans in 3 ms, L9 in 30 ms, L24 in 260 ms), and a pass has
/// to stay near 100 ms for a run to hold enough of them.
const MAX_CYCLE: usize = 8;
const MAX_CHAIN: usize = 8;
/// Random connected hypergraphs outside the recognised families.
const RANDOM_SHAPES: usize = 30;
const SHAPE_SEED: u64 = 0x5eed;
/// Tuples per relation the planned load is quoted at.
const NOMINAL_TUPLES: f64 = 1_000.0;
/// Domain size and tuples per relation of the Zipf databases.
const ZIPF_TUPLES: usize = 2_000;

/// What planning one text produced: a fingerprint of every decision taken,
/// and the load the chosen shares promise.
#[derive(Debug)]
struct Planned {
    fingerprint: String,
    /// Planned bytes per server at [`NOMINAL_TUPLES`] per relation.
    load_bytes: f64,
    /// Planned replication rate of the input.
    replication: f64,
}

/// One skew-resilient planning job.
struct SkewJob {
    query: Query,
    db: Database,
    /// `(residual plans, heavy values)` of the plan set.
    expected: (usize, usize),
}

pub struct PlanOnly {
    texts: Vec<String>,
    expected: Vec<String>,
    skew: Vec<SkewJob>,
    program_seed: u64,
    load: (f64, f64),
    /// Analyses of the last traced pass per LP solver path, by metric name.
    paths: BTreeMap<&'static str, u64>,
    cache_hit_rate: f64,
    scanned_tuples: usize,
}

impl PlanOnly {
    pub fn new(seed: u64, corrupt: bool) -> Self {
        let mut rng = SplitMix64::new(derive(seed, "plan.queries"));
        let program_seed = derive(seed, "program");

        let mut shapes: Vec<Query> = Vec::new();
        shapes.extend((3..=MAX_CYCLE).map(families::cycle));
        shapes.extend((2..=MAX_CHAIN).map(families::chain));
        shapes.extend((2..=10).map(families::star));
        shapes.extend((1..=4).map(families::spoke));
        for (k, m) in [(4, 3), (5, 3), (5, 4), (6, 5)] {
            shapes.push(families::binomial(k, m).expect("valid binomial"));
        }
        shapes.extend((3..=6).map(|k| families::clique(k).expect("valid clique")));
        shapes.push(families::witness_query());
        // The shapes — the renamed copies' permutations included — are the
        // same for every seed, so that runs on different seeds do comparable
        // work: planning cost depends on atom and variable order. The seed
        // picks the order of the texts, the Zipf data and the hash seeds.
        let mut shape_rng = SplitMix64::new(SHAPE_SEED);
        let mut randoms = Vec::new();
        while randoms.len() < RANDOM_SHAPES {
            let text = random_query_text(&mut shape_rng, randoms.len());
            // Keep the shapes the planners accept, so that a later failure
            // is a failure of the program and not of the generator.
            if plan_text(&mut Tracer::disabled(), &text, program_seed).is_ok() {
                randoms.push(parse_query(&text).expect("planned text parses"));
            }
        }

        // Every shape, a renamed isomorphic copy of every shape, and a
        // second copy of the random ones (cache hits within the pass).
        let mut texts: Vec<String> = shapes.iter().chain(&randoms).map(Query::to_string).collect();
        for (i, q) in shapes.iter().chain(&randoms).chain(&randoms).enumerate() {
            texts.push(renamed_copy(q, &mut shape_rng, i));
        }
        let mut order: Vec<usize> = (0..texts.len()).collect();
        shuffle(&mut order, &mut rng);
        let texts: Vec<String> = order.into_iter().map(|i| texts[i].clone()).collect();

        // The references come from a pass as cold as the timed ones: which
        // optimal cover an isomorphic copy gets depends on what the LP cache
        // already holds.
        LpCache::global().clear();
        let mut expected = Vec::with_capacity(texts.len());
        for text in &texts {
            let planned = plan_text(&mut Tracer::disabled(), text, program_seed)
                .unwrap_or_else(|e| panic!("{text} does not plan: {e}"));
            // The dense-tableau solver is the independent oracle for tau*.
            let query = parse_query(text).expect("text parses");
            let dense = QueryLps::solve_dense(&query).expect("dense LP").covering_number();
            assert!(planned.fingerprint.starts_with(&format!("tau={dense} ")), "{text}: tau*");
            expected.push(if corrupt { String::new() } else { planned.fingerprint });
        }

        let binary = [
            families::chain(2),
            families::chain(3),
            families::chain(4),
            families::triangle(),
            families::cycle(4),
            families::star(2),
            families::star(3),
            families::star(4),
        ];
        let skew = binary
            .iter()
            .flat_map(|q| [0.8, 1.2].map(|theta| (q.clone(), theta)))
            .enumerate()
            .map(|(i, (query, theta))| {
                let db_seed = derive(seed, &format!("plan.zipf.{i}"));
                let db = zipf_database(&query, ZIPF_TUPLES as u64, ZIPF_TUPLES, theta, db_seed);
                let expected = step(SkewResilientProgram::new(
                    &query,
                    &db,
                    P,
                    &HeavyHitterPolicy::default(),
                    program_seed,
                ))
                .map(|program| skew_shape(program.plan_set()))
                .expect("skew-resilient plan builds");
                let expected = if corrupt { (0, 0) } else { expected };
                SkewJob { query, db, expected }
            })
            .collect();

        PlanOnly {
            texts,
            expected,
            skew,
            program_seed,
            load: (0.0, 0.0),
            paths: BTreeMap::new(),
            cache_hit_rate: 0.0,
            scanned_tuples: 0,
        }
    }

    fn queries_per_pass(&self) -> usize {
        self.texts.len() + self.skew.len()
    }

    /// Compare one pass's results with the set-up references and record the
    /// load its plans promise; returns the number of queries that failed or
    /// differ.
    fn check(&mut self, planned: &[Step<Planned>], skewed: &[Step<(usize, usize)>]) -> u64 {
        let mut failed = 0;
        let (mut load, mut replication) = (0.0, 0.0);
        for (result, expected) in planned.iter().zip(&self.expected) {
            match result {
                Ok(p) => {
                    if &p.fingerprint != expected {
                        eprintln!(
                            "plan differs from set-up: {} instead of {expected}",
                            p.fingerprint
                        );
                        failed += 1;
                    }
                    load += p.load_bytes;
                    replication += p.replication;
                }
                Err(e) => {
                    eprintln!("planning failed: {e}");
                    failed += 1;
                }
            }
        }
        for (result, job) in skewed.iter().zip(&self.skew) {
            failed += u64::from(result.as_ref() != Ok(&job.expected));
        }
        let n = planned.len() as f64;
        self.load = (load / n, replication / n);
        failed
    }
}

impl Workload for PlanOnly {
    fn iterate(&mut self, out: &mut Samples) {
        let start = Instant::now();
        LpCache::global().clear();
        let mut t = Tracer::disabled();
        let planned: Vec<Step<Planned>> =
            self.texts.iter().map(|text| plan_text(&mut t, text, self.program_seed)).collect();
        let policy = HeavyHitterPolicy::default();
        let skewed: Vec<Step<(usize, usize)>> = self
            .skew
            .iter()
            .map(|job| {
                step(SkewResilientProgram::new(&job.query, &job.db, P, &policy, self.program_seed))
                    .map(|program| skew_shape(program.plan_set()))
            })
            .collect();
        let pass_ms = start.elapsed().as_secs_f64() * 1e3;

        out.query_ms.push(pass_ms / self.queries_per_pass() as f64);
        out.timed_s += pass_ms / 1e3;
        out.attempted += self.queries_per_pass() as u64;
        out.failed += self.check(&planned, &skewed);
    }

    fn load(&self) -> (f64, f64) {
        self.load
    }

    fn queries_per_iteration(&self) -> f64 {
        self.queries_per_pass() as f64
    }

    fn trace(&mut self, t: &mut Tracer) -> bool {
        // The LP probe: the pass's LP calls alone, on a cache as cold as
        // the one the pass itself starts from.
        LpCache::global().clear();
        let mut paths = BTreeMap::new();
        for text in &self.texts {
            let Ok(query) = parse_query(text) else { continue };
            match t.scope("lp.solve", |_| QueryLps::solve_traced(&query)) {
                Ok((_, path)) => *paths.entry(lp_path_metric(path)).or_default() += 1,
                Err(e) => eprintln!("LP probe failed: {e}"),
            }
        }
        self.paths = paths;

        LpCache::global().clear();
        let before = LpCache::global().stats();
        let mut scanned_tuples = 0;
        let (planned, skewed) = t.query(|t| {
            let planned: Vec<Step<Planned>> =
                self.texts.iter().map(|text| plan_text(t, text, self.program_seed)).collect();
            let skewed: Vec<Step<(usize, usize)>> = self
                .skew
                .iter()
                .map(|job| plan_skew_staged(t, job, self.program_seed, &mut scanned_tuples))
                .collect();
            (planned, skewed)
        });
        let after = LpCache::global().stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        if hits + misses > 0 {
            self.cache_hit_rate = hits as f64 / (hits + misses) as f64;
        }
        self.scanned_tuples = scanned_tuples;
        self.check(&planned, &skewed) == 0
    }

    fn layer_metrics(&mut self, _untraced_p50_ms: f64, m: &mut Metrics) {
        for (metric, analyses) in &self.paths {
            m.set(metric, *analyses as f64);
        }
        m.set("lp.cache_hit_rate", self.cache_hit_rate);
        m.set("data.stats_scanned_tuples", self.scanned_tuples as f64);
        let plans: usize = self.skew.iter().map(|job| job.expected.0).sum();
        let heavy: usize = self.skew.iter().map(|job| job.expected.1).sum();
        m.set("skew.residual_plans", plans as f64);
        m.set("skew.heavy_values", heavy as f64);
    }
}

/// Plan one query text: everything a planner decides before data moves.
fn plan_text(t: &mut Tracer, text: &str, seed: u64) -> Step<Planned> {
    let query = step(t.scope("cq.parse", |_| parse_query(text)))?;
    let analysis = step(t.scope("core.analyze", |_| QueryAnalysis::analyze(&query)))?;
    t.scope("core.plan", |_| {
        let at_zero = step(analysis.planner_choice(Rational::ZERO, false))?;
        let at_half = step(analysis.planner_choice(Rational::new(1, 2), false))?;
        let alloc = step(ShareAllocation::optimal(&query, P))?;
        let plan = step(MultiRoundPlan::build(&query, Rational::ZERO))?;
        let program = step(PlanProgram::new(&plan, P, seed))?;

        let cells = alloc.num_cells() as f64;
        let (mut load_bytes, mut copies, mut arities) = (0.0, 0.0, 0.0);
        for (id, atom) in query.atom_ids().zip(query.atoms()) {
            let replication = step(alloc.replication_of_atom(&query, id))? as f64;
            let arity = atom.arity() as f64;
            load_bytes += NOMINAL_TUPLES * arity * 8.0 * replication / cells;
            copies += arity * replication;
            arities += arity;
        }
        Ok(Planned {
            fingerprint: format!(
                "tau={} rho={} eps0={at_zero} eps1/2={at_half} shares={:?} rounds={} operators={} compiled={}",
                analysis.tau_star,
                analysis.rho_star,
                alloc.shares,
                plan.num_rounds(),
                plan.num_operators(),
                program.num_rounds(),
            ),
            load_bytes,
            replication: copies / arities,
        })
    })
}

fn skew_shape(plans: &ResidualPlanSet) -> (usize, usize) {
    (plans.plans().len(), plans.heavy().num_heavy_values())
}

/// `SkewResilientProgram::new`, stage by stage from its public parts.
fn plan_skew_staged(
    t: &mut Tracer,
    job: &SkewJob,
    seed: u64,
    scanned_tuples: &mut usize,
) -> Step<(usize, usize)> {
    let SkewJob { query, db, .. } = job;
    let base = step(t.scope("core.plan", |_| ShareAllocation::optimal(query, P)))?;
    let stats = t.scope("data.stats_scan", |_| DbStatistics::collect(db, StatsMode::Exact));
    *scanned_tuples += stats.scanned_tuples();
    t.scope("skew.plan", |_| {
        let detector = HeavyHitterDetector::new(HeavyHitterPolicy::default());
        let heavy = step(detector.detect_from_stats(query, &stats, &base))?;
        let plans = step(ResidualPlanSet::build_with_stats(query, db, heavy, P, &stats))?;
        let program = SkewResilientProgram::with_plans(query, plans, seed);
        Ok(skew_shape(program.plan_set()))
    })
}

/// A random connected full conjunctive query over 4–6 variables with 3–5
/// atoms of arity 2–3 (plus binary atoms tying in any variable left over).
fn random_query_text(rng: &mut SplitMix64, index: usize) -> String {
    let k = 4 + rng.below(3);
    let atoms = 3 + rng.below(3);
    let mut used: Vec<usize> = Vec::new();
    let mut bodies: Vec<Vec<usize>> = Vec::new();
    for _ in 0..atoms {
        let arity = 2 + rng.below(2);
        let mut vars = Vec::with_capacity(arity);
        if let Some(&anchor) = used.get(rng.below(used.len().max(1))) {
            vars.push(anchor);
        }
        while vars.len() < arity {
            let v = rng.below(k);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        for &v in &vars {
            if !used.contains(&v) {
                used.push(v);
            }
        }
        bodies.push(vars);
    }
    for v in 0..k {
        if !used.contains(&v) {
            bodies.push(vec![used[rng.below(used.len())], v]);
            used.push(v);
        }
    }
    let head: Vec<String> = (0..k).map(|v| format!("v{v}")).collect();
    let body: Vec<String> = bodies
        .iter()
        .enumerate()
        .map(|(j, vars)| {
            let vars: Vec<String> = vars.iter().map(|v| format!("v{v}")).collect();
            format!("R{index}_{j}({})", vars.join(","))
        })
        .collect();
    format!("Q{index}({}) :- {}", head.join(","), body.join(", "))
}

/// The text of a query isomorphic to `q`: variables and relations renamed,
/// atoms and head variables reordered.
fn renamed_copy(q: &Query, rng: &mut SplitMix64, index: usize) -> String {
    let var_name = |v: usize| format!("u{index}_{v}");
    let mut head: Vec<usize> = (0..q.num_vars()).collect();
    shuffle(&mut head, rng);
    let mut atoms: Vec<usize> = (0..q.num_atoms()).collect();
    shuffle(&mut atoms, rng);
    let head: Vec<String> = head.into_iter().map(var_name).collect();
    let body: Vec<String> = atoms
        .into_iter()
        .map(|a| {
            let vars: Vec<String> = q.atoms()[a].vars.iter().map(|v| var_name(v.0)).collect();
            format!("N{index}_{a}({})", vars.join(","))
        })
        .collect();
    format!("{}r{index}({}) :- {}", q.name(), head.join(","), body.join(", "))
}

fn shuffle(items: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_texts_parse_connected_and_repeat_per_seed() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for i in 0..50 {
            let text = random_query_text(&mut a, i);
            assert_eq!(text, random_query_text(&mut b, i));
            let q = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(q.diameter().is_some(), "{text} is disconnected");
        }
    }

    #[test]
    fn renamed_copies_are_isomorphic() {
        let mut rng = SplitMix64::new(3);
        for q in [families::cycle(5), families::witness_query(), families::spoke(2)] {
            let copy = parse_query(&renamed_copy(&q, &mut rng, 4)).expect("copy parses");
            assert_ne!(copy.to_string(), q.to_string());
            assert_eq!(copy.canonical_form().signature, q.canonical_form().signature);
        }
    }
}
