//! Self-contained job descriptions for spawned workers.
//!
//! A spawned worker process shares no memory with the master, so a
//! [`JobSpec`] must carry everything needed to rebuild the job
//! deterministically on the other side: the query (as re-parseable text —
//! [`mpc_cq::Query`]'s display form), the database generator and its
//! seed, the program family and its parameters, and the cluster shape.
//! Both sides building from the same spec are guaranteed the same
//! program, the same database and therefore the same routing — the
//! property the spawned-mode differential smoke asserts.
//!
//! The wire form is deliberately primitive: one `key=value` pair per
//! line. (The workspace's offline `serde` shim serialises but does not
//! deserialise, so the format is hand-rolled; it is also trivially
//! greppable in logs.)

use mpc_core::analysis::QueryAnalysis;
use mpc_core::plan::PlannerChoice;
use mpc_cq::parser::parse_query;
use mpc_cq::Query;
use mpc_lp::Rational;
use mpc_sim::{Cluster, MpcConfig, MpcProgram};
use mpc_storage::Database;

use crate::{NetError, Result};

/// How the input database is (re)generated.
#[derive(Debug, Clone, PartialEq)]
pub enum DbSpec {
    /// [`mpc_data::matching_database`]: every relation a random matching.
    Matching {
        /// Domain size / tuples per relation.
        n: u64,
        /// Generator seed.
        seed: u64,
    },
    /// [`mpc_data::skew::zipf_database`]: Zipf-skewed binary relations.
    Zipf {
        /// Domain size.
        n: u64,
        /// Tuples per relation.
        tuples: usize,
        /// Zipf exponent θ.
        theta: f64,
        /// Generator seed.
        seed: u64,
    },
    /// [`mpc_data::skew::heavy_hitter_database`]: one planted heavy key
    /// per relation — the input that activates the WCO heavy side.
    HeavyHitter {
        /// Domain size.
        n: u64,
        /// Tuples per relation.
        tuples: usize,
        /// Fraction of tuples sharing the heavy key.
        frac: f64,
        /// Generator seed.
        seed: u64,
    },
}

/// Everything a worker process needs to run its share of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The planner, with its parameters.
    pub program: PlannerChoice,
    /// The query, in `mpc_cq` parseable text form.
    pub query: String,
    /// The database generator.
    pub db: DbSpec,
    /// Number of worker servers.
    pub p: usize,
    /// The cluster's space exponent ε (budget accounting).
    pub epsilon: f64,
    /// Routing seed shared by all workers.
    pub seed: u64,
    /// Tuples per block.
    pub block_capacity: usize,
}

/// A job rebuilt from its spec: the program, its input and the cluster.
pub struct BuiltJob {
    /// The executable program.
    pub program: Box<dyn MpcProgram + Send + Sync>,
    /// The deterministically regenerated database.
    pub db: Database,
    /// The cluster (budget accounting shape).
    pub cluster: Cluster,
    /// The parsed query.
    pub query: Query,
}

fn parse_rational(s: &str) -> Result<Rational> {
    let bad = || NetError::Protocol(format!("bad rational {s:?}"));
    let (n, d) = s.split_once('/').unwrap_or((s, "1"));
    let n: i128 = n.trim().parse().map_err(|_| bad())?;
    let d: i128 = d.trim().parse().map_err(|_| bad())?;
    // Wire text: zero and un-negatable parts are errors, never panics.
    Rational::checked_new(n, d).map_err(|_| bad())
}

impl JobSpec {
    /// Serialise to the `key=value` wire form carried by
    /// [`crate::Frame::Job`].
    pub(crate) fn to_wire(&self) -> String {
        let mut out = String::new();
        let (prog, prog_arg) = match &self.program {
            PlannerChoice::Broadcast => ("broadcast", None),
            PlannerChoice::OneRoundHyperCube => ("hypercube", None),
            PlannerChoice::MultiRound { plan_epsilon } => {
                ("multiround", Some(format!("plan_epsilon={plan_epsilon}")))
            }
            PlannerChoice::OneRoundSkewResilient { scale } => {
                ("skew", Some(format!("scale={scale}")))
            }
            PlannerChoice::WorstCaseOptimal => ("wco", None),
        };
        out.push_str(&format!("program={prog}\n"));
        if let Some(arg) = prog_arg {
            out.push_str(&format!("{arg}\n"));
        }
        out.push_str(&format!("query={}\n", self.query));
        match &self.db {
            DbSpec::Matching { n, seed } => {
                out.push_str(&format!("db=matching\nn={n}\ndb_seed={seed}\n"));
            }
            DbSpec::Zipf { n, tuples, theta, seed } => {
                out.push_str(&format!(
                    "db=zipf\nn={n}\ntuples={tuples}\ntheta={theta}\ndb_seed={seed}\n"
                ));
            }
            DbSpec::HeavyHitter { n, tuples, frac, seed } => {
                out.push_str(&format!(
                    "db=heavy\nn={n}\ntuples={tuples}\nfrac={frac}\ndb_seed={seed}\n"
                ));
            }
        }
        out.push_str(&format!(
            "p={}\nepsilon={}\nseed={}\nblock_capacity={}\n",
            self.p, self.epsilon, self.seed, self.block_capacity
        ));
        out
    }

    /// Parse the wire form back.
    ///
    /// Unknown keys are **ignored**, by design: the wire form is
    /// extensible, and a master appends lines of its own — the
    /// `recovery=1` flag of a [`MasterConfig`](crate::MasterConfig) that
    /// may re-spawn workers, for instance — that parsing skips over.
    ///
    /// # Errors
    ///
    /// Fails on missing required keys, malformed numbers or unknown
    /// program/database kinds.
    pub(crate) fn from_wire(wire: &str) -> Result<Self> {
        let mut kv = std::collections::BTreeMap::new();
        for line in wire.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(NetError::Protocol(format!("job spec line without '=': {line:?}")));
            };
            kv.insert(k.trim().to_string(), v.to_string());
        }
        let get = |k: &str| {
            kv.get(k).cloned().ok_or_else(|| NetError::Protocol(format!("job spec missing {k}")))
        };
        let num = |k: &str| -> Result<u64> {
            get(k)?.trim().parse().map_err(|_| NetError::Protocol(format!("bad number for {k}")))
        };
        let fnum = |k: &str| -> Result<f64> {
            get(k)?.trim().parse().map_err(|_| NetError::Protocol(format!("bad float for {k}")))
        };
        let program = match get("program")?.as_str() {
            "broadcast" => PlannerChoice::Broadcast,
            "hypercube" => PlannerChoice::OneRoundHyperCube,
            "multiround" => {
                PlannerChoice::MultiRound { plan_epsilon: parse_rational(&get("plan_epsilon")?)? }
            }
            "skew" => PlannerChoice::OneRoundSkewResilient { scale: fnum("scale")? },
            "wco" => PlannerChoice::WorstCaseOptimal,
            other => return Err(NetError::Protocol(format!("unknown program kind {other:?}"))),
        };
        let db = match get("db")?.as_str() {
            "matching" => DbSpec::Matching { n: num("n")?, seed: num("db_seed")? },
            "zipf" => DbSpec::Zipf {
                n: num("n")?,
                tuples: num("tuples")? as usize,
                theta: fnum("theta")?,
                seed: num("db_seed")?,
            },
            "heavy" => DbSpec::HeavyHitter {
                n: num("n")?,
                tuples: num("tuples")? as usize,
                frac: fnum("frac")?,
                seed: num("db_seed")?,
            },
            other => return Err(NetError::Protocol(format!("unknown db kind {other:?}"))),
        };
        Ok(JobSpec {
            program,
            query: get("query")?,
            db,
            p: num("p")? as usize,
            epsilon: fnum("epsilon")?,
            seed: num("seed")?,
            block_capacity: num("block_capacity")? as usize,
        })
    }

    /// Rebuild the executable job: parse the query, regenerate the
    /// database and construct the program. Deterministic — every process
    /// building from the same spec gets identical routing.
    ///
    /// # Errors
    ///
    /// Fails on parse errors, invalid cluster configuration, generator
    /// parameters the generators cannot honour, and program construction
    /// errors.
    pub fn build(&self) -> Result<BuiltJob> {
        let query =
            parse_query(&self.query).map_err(|e| NetError::Protocol(format!("job query: {e}")))?;
        if let PlannerChoice::OneRoundSkewResilient { scale } = self.program {
            // With such a scale detection finds no heavy value, and the
            // skew planner would plan as if the data had no skew.
            if !(scale.is_finite() && scale > 0.0) {
                return Err(NetError::Protocol(format!("job program: scale={scale}")));
            }
        }
        self.check_generator(&query)?;
        let db = match &self.db {
            DbSpec::Matching { n, seed } => mpc_data::matching_database(&query, *n, *seed),
            DbSpec::Zipf { n, tuples, theta, seed } => {
                mpc_data::skew::zipf_database(&query, *n, *tuples, *theta, *seed)
            }
            DbSpec::HeavyHitter { n, tuples, frac, seed } => {
                mpc_data::skew::heavy_hitter_database(&query, *n, *tuples, *frac, *seed)
            }
        };
        let cluster = Cluster::new(MpcConfig::new(self.p, self.epsilon)).map_err(NetError::Sim)?;
        let analysis =
            QueryAnalysis::analyze(&query).map_err(|e| NetError::Protocol(format!("job: {e}")))?;
        let program = self
            .program
            .build(&analysis, &db, self.p, self.seed)
            .map_err(|e| NetError::Protocol(format!("{} program: {e}", self.program)))?;
        Ok(BuiltJob { program, db, cluster, query })
    }

    /// Refuse what the skew generators would assert on (or, for a heavy
    /// relation with more tuples than `n²` distinct rows, loop forever on):
    /// a spec comes off the wire, so it is an error, not a panic.
    fn check_generator(&self, query: &Query) -> Result<()> {
        let bad = |what: String| Err(NetError::Protocol(format!("job db: {what}")));
        let n = match &self.db {
            DbSpec::Matching { .. } => return Ok(()),
            DbSpec::Zipf { theta, .. } if !theta.is_finite() => {
                return bad(format!("theta={theta}"))
            }
            DbSpec::HeavyHitter { frac, .. } if !(0.0..=1.0).contains(frac) => {
                return bad(format!("frac={frac} is not in [0, 1]"));
            }
            DbSpec::HeavyHitter { n, tuples, .. } if *tuples as u128 > u128::from(*n).pow(2) => {
                return bad(format!("{tuples} distinct pairs over a domain of {n}"));
            }
            DbSpec::Zipf { n, .. } | DbSpec::HeavyHitter { n, .. } => *n,
        };
        if n == 0 {
            return bad("n=0".to_string());
        }
        match query.atoms().iter().find(|atom| atom.arity() != 2) {
            Some(atom) => bad(format!("atom {} is not binary", atom.name)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn spec(program: PlannerChoice) -> JobSpec {
        JobSpec {
            program,
            query: families::triangle().to_string(),
            db: DbSpec::Matching { n: 500, seed: 11 },
            p: 8,
            epsilon: 0.5,
            seed: 42,
            block_capacity: 128,
        }
    }

    #[test]
    fn wire_round_trips_every_program_kind() {
        for program in [
            PlannerChoice::Broadcast,
            PlannerChoice::OneRoundHyperCube,
            PlannerChoice::MultiRound { plan_epsilon: Rational::new(1, 3) },
            PlannerChoice::OneRoundSkewResilient { scale: 1.5 },
            PlannerChoice::WorstCaseOptimal,
        ] {
            let s = spec(program);
            let back = JobSpec::from_wire(&s.to_wire()).unwrap();
            assert_eq!(s, back, "wire form round-trips");
            assert!(back.build().is_ok(), "{program} builds");
        }
    }

    #[test]
    fn zipf_db_round_trips() {
        let mut s = spec(PlannerChoice::OneRoundHyperCube);
        s.db = DbSpec::Zipf { n: 300, tuples: 600, theta: 0.8, seed: 3 };
        let back = JobSpec::from_wire(&s.to_wire()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn wco_job_round_trips_and_builds_two_rounds_under_skew() {
        let mut s = spec(PlannerChoice::WorstCaseOptimal);
        // 0.6 · 800 = 480 planted copies; 480 · share > 800 at any share
        // ≥ 2, so the heavy side activates and the program is 2 rounds.
        s.db = DbSpec::HeavyHitter { n: 600, tuples: 800, frac: 0.6, seed: 19 };
        let back = JobSpec::from_wire(&s.to_wire()).unwrap();
        assert_eq!(s, back);
        let built = back.build().unwrap();
        assert_eq!(built.program.num_rounds(), 2, "heavy hitter activates the broadcast round");
    }

    #[test]
    fn query_text_survives_the_wire() {
        let s = spec(PlannerChoice::OneRoundHyperCube);
        let built = JobSpec::from_wire(&s.to_wire()).unwrap().build().unwrap();
        assert_eq!(built.query.to_string(), families::triangle().to_string());
        assert_eq!(built.db.relations().count(), 3);
        assert_eq!(built.program.num_rounds(), 1);
    }

    #[test]
    fn build_is_deterministic_across_processes_in_spirit() {
        // Two independent builds (as two processes would do) must agree on
        // the database bytes and program shape.
        let s = spec(PlannerChoice::MultiRound { plan_epsilon: Rational::ZERO });
        let a = s.build().unwrap();
        let b = s.build().unwrap();
        assert_eq!(a.db.total_bytes(), b.db.total_bytes());
        assert_eq!(a.program.num_rounds(), b.program.num_rounds());
        for (ra, rb) in a.db.relations().zip(b.db.relations()) {
            assert!(ra.same_tuples(rb), "regenerated relations identical");
        }
    }

    #[test]
    fn unknown_keys_are_ignored_for_forward_compatibility() {
        // Masters append lines of their own (the `recovery=1` flag) and
        // older ones sent keys this parser no longer reads; parsing must
        // skip what it does not understand rather than reject the job.
        let s = spec(PlannerChoice::OneRoundHyperCube);
        let wire = format!("{}recovery=1\nqueue_capacity=64\nfuture_knob=whatever\n", s.to_wire());
        assert_eq!(JobSpec::from_wire(&wire).unwrap(), s);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(JobSpec::from_wire("program=warp\nquery=q() :- R(x)").is_err());
        assert!(JobSpec::from_wire("no equals sign").is_err());
        assert!(JobSpec::from_wire("program=hypercube\n").is_err(), "missing keys");
        assert!(parse_rational("1/0").is_err());
        // i128::MIN parses as an integer but has no negation.
        let min = "-170141183460469231731687303715884105728";
        for text in [format!("1/{min}"), format!("{min}/1"), format!("{min}/{min}"), min.into()] {
            assert!(parse_rational(&text).is_err(), "{text}");
        }
        // The same text inside a Job frame's spec: an error, not a dead worker.
        let job = spec(PlannerChoice::MultiRound { plan_epsilon: Rational::ZERO }).to_wire();
        assert!(JobSpec::from_wire(&job).is_ok());
        let hostile = job.replace("plan_epsilon=0\n", &format!("plan_epsilon=1/{min}\n"));
        assert_ne!(hostile, job);
        assert!(matches!(JobSpec::from_wire(&hostile), Err(NetError::Protocol(_))));
        assert_eq!(parse_rational("2/3").unwrap(), Rational::new(2, 3));
        assert_eq!(parse_rational("0").unwrap(), Rational::ZERO);
        // Generator parameters the generators assert on parse fine but
        // must not build: master and workers call `build` on them.
        let ternary = "q(x,y,z) :- R(x,y,z), S(z,x)".to_string();
        for (db, query) in [
            (DbSpec::Zipf { n: 0, tuples: 10, theta: 1.0, seed: 1 }, None),
            (DbSpec::Zipf { n: 10, tuples: 10, theta: f64::NAN, seed: 1 }, None),
            (DbSpec::HeavyHitter { n: 10, tuples: 10, frac: 1.5, seed: 1 }, None),
            (DbSpec::HeavyHitter { n: 10, tuples: 10, frac: f64::NAN, seed: 1 }, None),
            (DbSpec::HeavyHitter { n: 3, tuples: 10, frac: 0.5, seed: 1 }, None),
            (DbSpec::Zipf { n: 10, tuples: 10, theta: 1.0, seed: 1 }, Some(&ternary)),
            (DbSpec::HeavyHitter { n: 10, tuples: 10, frac: 0.5, seed: 1 }, Some(&ternary)),
        ] {
            let mut s = spec(PlannerChoice::OneRoundHyperCube);
            s.query = query.cloned().unwrap_or(s.query);
            s.db = db;
            let wire = JobSpec::from_wire(&s.to_wire()).unwrap();
            assert!(matches!(wire.build(), Err(NetError::Protocol(_))), "{:?}", s.db);
        }
        // So are skew scales that are not a positive number.
        for scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let s = spec(PlannerChoice::OneRoundSkewResilient { scale });
            let wire = JobSpec::from_wire(&s.to_wire()).unwrap();
            assert!(matches!(wire.build(), Err(NetError::Protocol(_))), "scale={scale}");
        }
        let s = spec(PlannerChoice::OneRoundSkewResilient { scale: 0.5 });
        assert!(JobSpec::from_wire(&s.to_wire()).unwrap().build().is_ok());
    }
}
