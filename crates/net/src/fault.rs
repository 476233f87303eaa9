//! Deterministic fault injection for the distributed runner.
//!
//! A [`FaultPlan`] is a small, reproducible script of failures — kill a
//! worker at a given phase, delay it, drop or corrupt one of its data
//! links — described in a compact text grammar so the same plan can drive
//! unit tests, `mpc_workerd --fault` arguments and the
//! `distributed_smoke --inject` CI flag:
//!
//! ```text
//! kill:w2@round1        kill worker 2 as it enters round 1
//! kill:w0@handshake     kill worker 0 before it dials the master
//! kill:w1@barrier2      kill worker 1 at the round-2 barrier
//! kill:w3@summary       kill worker 3 before it reports its summary
//! delay:w2@round1:50    pause worker 2 for 50 ms entering round 1
//! drop:w2@round1:3      sever worker 2's data link to peer 3 in round 1
//! corrupt:w2@round1:3   corrupt one frame from worker 2 to peer 3
//! ```
//!
//! Plans can also be drawn from a seed ([`FaultPlan::seeded_kill`]), in
//! the style of `mpc_sim::schedule::StragglerSpec`, so randomized fault
//! campaigns replay exactly.
//!
//! Faults fire **process-globally**: a worker process arms its share of
//! the plan once at startup ([`arm`]) and the runner/transport code calls
//! the cheap [`trip`] / [`link_fault`] hooks at each phase boundary. An
//! unarmed process (every in-process run, every production worker) pays
//! one relaxed atomic load per hook.

use std::str::FromStr;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::NetError;

/// Where in a worker's lifecycle a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Before the worker dials the master (the job never sees it).
    Handshake,
    /// Entering data round `r` (1-based), before any send.
    RoundStart(u32),
    /// At the end of round `r`, before the checkpoint/barrier exchange.
    Barrier(u32),
    /// After the last barrier, before the worker reports its summary.
    Summary,
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPhase::Handshake => write!(f, "handshake"),
            FaultPhase::RoundStart(r) => write!(f, "round{r}"),
            FaultPhase::Barrier(r) => write!(f, "barrier{r}"),
            FaultPhase::Summary => write!(f, "summary"),
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The process exits immediately (exit code 137, like `SIGKILL`).
    Kill,
    /// The worker sleeps before continuing — a deterministic straggler.
    Delay(Duration),
    /// The data link to `peer` is severed (fatal: the job aborts).
    DropLink {
        /// The peer whose link is cut.
        peer: u32,
    },
    /// One frame to `peer` has a payload byte flipped (fatal: the
    /// receiver rejects it as a protocol error).
    CorruptLink {
        /// The peer that receives the corrupted frame.
        peer: u32,
    },
}

/// One scripted failure: `kind` fires on `worker` at `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The worker (server id) the fault targets.
    pub worker: u32,
    /// When it fires.
    pub phase: FaultPhase,
    /// What it does.
    pub kind: FaultKind,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (w, p) = (self.worker, self.phase);
        match self.kind {
            FaultKind::Kill => write!(f, "kill:w{w}@{p}"),
            FaultKind::Delay(d) => write!(f, "delay:w{w}@{p}:{}", d.as_millis()),
            FaultKind::DropLink { peer } => write!(f, "drop:w{w}@{p}:{peer}"),
            FaultKind::CorruptLink { peer } => write!(f, "corrupt:w{w}@{p}:{peer}"),
        }
    }
}

fn parse_phase(s: &str) -> Result<FaultPhase, NetError> {
    let bad = || NetError::Protocol(format!("bad fault phase '{s}'"));
    if s == "handshake" {
        Ok(FaultPhase::Handshake)
    } else if s == "summary" {
        Ok(FaultPhase::Summary)
    } else if let Some(r) = s.strip_prefix("round") {
        Ok(FaultPhase::RoundStart(r.parse().map_err(|_| bad())?))
    } else if let Some(r) = s.strip_prefix("barrier") {
        Ok(FaultPhase::Barrier(r.parse().map_err(|_| bad())?))
    } else {
        Err(bad())
    }
}

impl FromStr for Fault {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, NetError> {
        let bad = |why: &str| NetError::Protocol(format!("bad fault spec '{s}': {why}"));
        let (verb, rest) = s.split_once(':').ok_or_else(|| bad("expected verb:w<id>@phase"))?;
        let (target, rest) = rest.split_once('@').ok_or_else(|| bad("expected w<id>@phase"))?;
        let worker: u32 = target
            .strip_prefix('w')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad("worker must be w<id>"))?;
        let (phase_str, arg) = match rest.split_once(':') {
            Some((p, a)) => (p, Some(a)),
            None => (rest, None),
        };
        let phase = parse_phase(phase_str)?;
        let kind = match (verb, arg) {
            ("kill", None) => FaultKind::Kill,
            ("delay", Some(ms)) => FaultKind::Delay(Duration::from_millis(
                ms.parse().map_err(|_| bad("delay wants milliseconds"))?,
            )),
            ("drop", Some(peer)) => {
                FaultKind::DropLink { peer: peer.parse().map_err(|_| bad("drop wants a peer id"))? }
            }
            ("corrupt", Some(peer)) => FaultKind::CorruptLink {
                peer: peer.parse().map_err(|_| bad("corrupt wants a peer id"))?,
            },
            _ => return Err(bad("unknown verb or missing argument")),
        };
        Ok(Fault { worker, phase, kind })
    }
}

/// A reproducible script of [`Fault`]s for one job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scripted faults, in no particular order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parse a comma-separated list of fault specs
    /// (e.g. `"kill:w2@round1,delay:w0@round2:50"`).
    ///
    /// # Errors
    ///
    /// Fails on any malformed spec.
    pub fn parse(s: &str) -> crate::Result<Self> {
        let faults = s
            .split(',')
            .filter(|part| !part.trim().is_empty())
            .map(|part| part.trim().parse())
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(FaultPlan { faults })
    }

    /// A seeded one-kill plan: some worker among `0..p` dies entering
    /// some data round among `1..=rounds`. Same seed, same kill — the
    /// `StragglerSpec` idiom, for randomized-but-replayable campaigns.
    pub fn seeded_kill(seed: u64, p: usize, rounds: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_1E57);
        let worker = rng.gen_range(0..p.max(1)) as u32;
        let round = rng.gen_range(1..=rounds.max(1)) as u32;
        FaultPlan {
            faults: vec![Fault {
                worker,
                phase: FaultPhase::RoundStart(round),
                kind: FaultKind::Kill,
            }],
        }
    }

    /// The fault specs targeting `worker`, in wire/CLI text form — the
    /// `--fault` arguments the master passes to that worker's process.
    pub fn for_worker(&self, worker: u32) -> Vec<String> {
        self.faults.iter().filter(|f| f.worker == worker).map(|f| f.to_string()).collect()
    }
}

impl FromStr for FaultPlan {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, NetError> {
        FaultPlan::parse(s)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// The faults armed in this process, each firing at most once.
static ARMED: OnceLock<Mutex<Vec<(Fault, bool)>>> = OnceLock::new();

/// Arm `faults` process-globally. Called once by `mpc_workerd` before the
/// worker dials in; later calls add to the same list. In-process runs
/// never arm anything, so the hooks below stay inert there.
pub fn arm(faults: &[Fault]) {
    let armed = ARMED.get_or_init(|| Mutex::new(Vec::new()));
    armed.lock().expect("fault list lock").extend(faults.iter().map(|&f| (f, false)));
}

fn fire<T>(worker: u32, mut pick: impl FnMut(&Fault) -> Option<T>) -> Option<T> {
    let armed = ARMED.get()?;
    let mut armed = armed.lock().expect("fault list lock");
    for (fault, fired) in armed.iter_mut() {
        if *fired || fault.worker != worker {
            continue;
        }
        if let Some(out) = pick(fault) {
            *fired = true;
            return Some(out);
        }
    }
    None
}

/// Phase-boundary hook: fire any armed [`FaultKind::Kill`] or
/// [`FaultKind::Delay`] scheduled for `worker` at `phase`. A kill exits
/// the process with code 137 (the `SIGKILL` convention) and never
/// returns; a delay sleeps inline. No-op when nothing is armed.
pub fn trip(worker: u32, phase: FaultPhase) {
    let kind = fire(worker, |f| match f.kind {
        FaultKind::Kill | FaultKind::Delay(_) if f.phase == phase => Some(f.kind),
        _ => None,
    });
    match kind {
        Some(FaultKind::Kill) => {
            eprintln!("mpc_workerd: injected kill of w{worker} at {phase}");
            std::process::exit(137);
        }
        Some(FaultKind::Delay(d)) => std::thread::sleep(d),
        _ => {}
    }
}

/// Transport hook: the link fault (drop/corrupt), if any, armed for
/// `worker`'s frames to `peer` during data round `round`. Consumes the
/// fault — each fires at most once.
pub fn link_fault(worker: u32, round: u32, peer: u32) -> Option<FaultKind> {
    fire(worker, |f| match f.kind {
        FaultKind::DropLink { peer: p } | FaultKind::CorruptLink { peer: p }
            if p == peer && f.phase == FaultPhase::RoundStart(round) =>
        {
            Some(f.kind)
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let specs = [
            "kill:w2@round1",
            "kill:w0@handshake",
            "kill:w1@barrier2",
            "kill:w3@summary",
            "delay:w2@round1:50",
            "drop:w2@round1:3",
            "corrupt:w2@round3:1",
        ];
        for s in specs {
            let f: Fault = s.parse().unwrap();
            assert_eq!(f.to_string(), s);
        }
        let plan = FaultPlan::parse("kill:w2@round1, delay:w0@round2:5").unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert_eq!(plan.for_worker(2), vec!["kill:w2@round1".to_string()]);
        assert_eq!(plan.for_worker(1), Vec::<String>::new());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for s in [
            "",
            "kill",
            "kill:2@round1",
            "kill:w2@roundx",
            "boom:w2@round1",
            "delay:w2@round1",
            "drop:w2@round1",
        ] {
            assert!(s.parse::<Fault>().is_err(), "'{s}' must not parse");
        }
    }

    #[test]
    fn seeded_kill_is_deterministic_and_in_range() {
        let a = FaultPlan::seeded_kill(9, 4, 3);
        let b = FaultPlan::seeded_kill(9, 4, 3);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 1);
        let f = a.faults[0];
        assert!(f.worker < 4);
        assert!(matches!(f.phase, FaultPhase::RoundStart(r) if (1..=3).contains(&r)));
        assert_eq!(f.kind, FaultKind::Kill);
        assert_ne!(a, FaultPlan::seeded_kill(10, 400, 300), "different seed moves the kill");
    }
}
