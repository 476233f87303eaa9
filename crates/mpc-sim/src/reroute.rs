//! Mid-round adaptive rerouting: shift *movable* final-round work away
//! from observed stragglers, without changing the computed output.
//!
//! The adaptive runtime closes a feedback loop over the event-driven
//! backend:
//!
//! 1. **Observe** — [`Cluster::run_async`] executes the static schedule;
//!    the run's [`ScheduleStats`] timeline carries the signal: per-server
//!    round-1 finish times under the injected [`crate::StragglerSpec`].
//! 2. **Decide** — [`RerouteController::plan`] compares each server's
//!    round-1 finish against the cohort median; servers lagging more than
//!    50% behind it are stragglers. Movable cells homed on a straggler
//!    (declared by [`MpcProgram::reroutable_cells`]) are reassigned to the
//!    fastest non-straggling servers. The plan is a pure function of
//!    `(schedule, cells)` — deterministic, so runs replay exactly.
//! 3. **Act** — [`RerouteHost`] wraps the program. Final-round emissions
//!    towards a moved home `h` are re-tagged `reroute#h#<tag>` in flight,
//!    by a sink adapter in front of the executor's sink, and sent to the
//!    replacement server, which reconstructs `h`'s inbound as a
//!    ghost [`ServerState`] and evaluates the *inner* program's
//!    `output(h, ·)` on it. Everything else — earlier rounds, unmoved
//!    destinations, the senders' emission order — is untouched.
//!
//! **Why the output cannot change.** A reroutable cell's contract (see
//! [`MpcProgram::reroutable_cells`]) is that its final-round inbound is
//! consumed only by `output`, a pure function of the tuples routed at it.
//! Relocation moves that inbound wholesale: every tuple still reaches
//! exactly one evaluation site (exactly-once — destinations are
//! *replaced*, never duplicated), the re-tagged flows ride the same
//! per-link lanes in the same sender order (per-link FIFO is untouched),
//! and the ghost state rebuilds precisely the relations the home server
//! would have held. Per-server output *placement* shifts; the output
//! *union* is invariant — which [`AdaptiveRunResult::divergence`] checks
//! on every adaptive run.
//!
//! ```
//! use mpc_sim::{AsyncConfig, Cluster, MpcConfig, StragglerSpec};
//! use mpc_sim::program::BroadcastProgram;
//!
//! let q = mpc_cq::families::triangle();
//! let db = mpc_data::matching_database(&q, 100, 7);
//! let cluster = Cluster::new(MpcConfig::new(4, 1.0))?;
//! let cfg = AsyncConfig::new().with_straggler(StragglerSpec::new(3, 1, 8));
//! let run = cluster.run_adaptive(&BroadcastProgram::new(q), &db, &cfg)?;
//! // Broadcast declares nothing movable: rerouting degenerates to the
//! // static schedule, and the differential check passes trivially.
//! assert!(run.plan.is_empty());
//! assert_eq!(run.divergence(), None);
//! # Ok::<(), mpc_sim::SimError>(())
//! ```

use std::collections::BTreeMap;

use mpc_storage::{Database, Relation, Value};

use crate::cluster::Cluster;
use crate::cluster_async::{AsyncConfig, AsyncRunResult};
use crate::program::{MpcProgram, RouteSink};
use crate::schedule::ScheduleStats;
use crate::server::ServerState;
use crate::Result;

/// Tag prefix of relocated final-round flows: `reroute#<home>#<tag>`.
const REROUTE_PREFIX: &str = "reroute#";

/// The guest tag a flow towards moved home `home` travels under.
fn guest_tag(home: usize, tag: &str) -> String {
    format!("{REROUTE_PREFIX}{home}#{tag}")
}

/// Parse a guest tag back into `(home, original tag)`.
fn parse_guest_tag(tag: &str) -> Option<(usize, &str)> {
    let rest = tag.strip_prefix(REROUTE_PREFIX)?;
    let (home, orig) = rest.split_once('#')?;
    Some((home.parse().ok()?, orig))
}

/// A deterministic value mix for tie-breaking (splitmix64 core).
fn mix(v: u64) -> u64 {
    let mut x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x.wrapping_mul(0x94D0_49BB_1331_11EB)
}

// ---------------------------------------------------------------------------
// The controller.
// ---------------------------------------------------------------------------

/// A server straggles when its round-1 finish exceeds this percentage of
/// the cohort median (150 = "50% slower than typical").
const LAG_PERCENT: u64 = 150;

/// Maximum number of cells one plan relocates.
const MAX_MOVES: usize = 8;

/// An immutable relocation decision: `moves[home] = target`.
///
/// Invariants established by [`RerouteController::plan`]: every home is a
/// declared reroutable cell on a straggling server, every target is a
/// non-straggling server, and the home and target sets are disjoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReroutePlan {
    moves: BTreeMap<usize, usize>,
}

impl ReroutePlan {
    /// True when nothing moves (rerouting degenerates to the static
    /// schedule).
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of relocated cells.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// The replacement server of `home`, if it was moved.
    pub fn target(&self, home: usize) -> Option<usize> {
        self.moves.get(&home).copied()
    }

    /// All `(home, target)` moves in ascending home order.
    pub fn moves(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.moves.iter().map(|(&h, &t)| (h, t))
    }
}

/// Turns an observed schedule into a [`ReroutePlan`].
#[derive(Debug, Clone, Copy)]
pub struct RerouteController;

impl RerouteController {
    /// Decide which of `cells` (the program's reroutable cells) to move,
    /// given the observed `schedule` of a static run.
    ///
    /// Stragglers are servers whose round-1 finish exceeds 150% of the
    /// cohort median; moved cells go to the fastest non-straggling servers
    /// round-robin (ties broken by a fixed hash), at most 8 of them. The
    /// result is a pure function of the inputs: same observation, same
    /// plan.
    pub fn plan(schedule: &ScheduleStats, cells: &[usize]) -> ReroutePlan {
        let p = schedule.servers.len();
        let mut plan = ReroutePlan::default();
        if p == 0 || cells.is_empty() {
            return plan;
        }
        let finish = |s: usize| schedule.servers[s].round_finish.first().copied().unwrap_or(0);
        let mut finishes: Vec<u64> = (0..p).map(finish).collect();
        finishes.sort_unstable();
        // The *lower* median: with an even cohort split this sides with
        // the fast half, so up to half the servers may straggle before
        // the signal drowns.
        let median = finishes[(p - 1) / 2];
        if median == 0 {
            // A free cost model times nothing; there is no signal.
            return plan;
        }
        let threshold = median.saturating_mul(LAG_PERCENT) / 100;
        let straggling: Vec<bool> = (0..p).map(|s| finish(s) > threshold).collect();
        let mut targets: Vec<usize> = (0..p).filter(|&s| !straggling[s]).collect();
        if targets.is_empty() {
            return plan;
        }
        targets.sort_by_key(|&s| (finish(s), mix(s as u64)));

        let mut homes: Vec<usize> =
            cells.iter().copied().filter(|&c| c < p && straggling[c]).collect();
        homes.sort_unstable();
        homes.dedup();
        for home in homes.into_iter().take(MAX_MOVES) {
            let target = targets[plan.moves.len() % targets.len()];
            plan.moves.insert(home, target);
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// The host program.
// ---------------------------------------------------------------------------

/// A program wrapper that applies a [`ReroutePlan`] to the final round.
///
/// Rounds `1..last` pass through unchanged. In the final round, each
/// emission towards a moved home `h` is re-tagged `reroute#h#<tag>` and
/// redirected to `h`'s replacement; at output time the replacement
/// rebuilds `h`'s would-have-been state from those guest tags and
/// evaluates the inner program's `output(h, ·)` on it, unioned with its
/// own share. See the [module docs](self) for the invariance argument.
#[derive(Debug)]
pub struct RerouteHost<'a, P: MpcProgram> {
    inner: &'a P,
    plan: ReroutePlan,
}

impl<'a, P: MpcProgram> RerouteHost<'a, P> {
    /// Wrap `inner` under `plan`. An empty plan makes the host a
    /// transparent pass-through.
    pub fn new(inner: &'a P, plan: ReroutePlan) -> Self {
        RerouteHost { inner, plan }
    }
}

impl<P: MpcProgram> MpcProgram for RerouteHost<'_, P> {
    fn num_rounds(&self) -> usize {
        self.inner.num_rounds()
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> Result<()> {
        // Round 1 is never remapped: reroutable cells' movable inbound is
        // final-round `route_tuples_into` traffic (programs with reroutable
        // cells have ≥ 2 rounds — single-round inbound is input routing,
        // which the contract excludes).
        self.inner.route_input_into(relation, p, sink)
    }

    fn compute(&self, round: usize, server: usize, state: &ServerState) -> Result<Vec<Relation>> {
        self.inner.compute(round, server, state)
    }

    fn route_tuples_into(
        &self,
        round: usize,
        server: usize,
        state: &ServerState,
        sink: &mut dyn RouteSink,
    ) -> Result<()> {
        if self.plan.is_empty() || round != self.inner.num_rounds() {
            return self.inner.route_tuples_into(round, server, state, sink);
        }
        let mut rewrite = Rewrite { plan: &self.plan, sink, stay: Vec::new(), moved: Vec::new() };
        self.inner.route_tuples_into(round, server, state, &mut rewrite)
    }

    fn output(&self, server: usize, state: &ServerState) -> Result<Relation> {
        // A moved home's own call returns empty naturally: its movable
        // inbound never arrived, so the inner gate (all atom relations
        // present) fails. The replacement answers for it instead.
        let mut out = self.inner.output(server, state)?;
        for (home, target) in self.plan.moves() {
            if target != server {
                continue;
            }
            let mut ghost = ServerState::new(home, state.domain_size());
            for tag in state.tags() {
                let Some((h, orig)) = parse_guest_tag(tag) else { continue };
                if h != home {
                    continue;
                }
                let rel = state.relation(tag).expect("tag was just listed");
                ghost.add_local(rel.with_name(orig));
            }
            out.extend_from(&self.inner.output(home, &ghost)?)?;
        }
        Ok(out)
    }

    fn reroutable_cells(&self) -> Vec<usize> {
        // No nested rerouting: the host's cells are already placed.
        Vec::new()
    }

    fn output_name(&self) -> String {
        self.inner.output_name()
    }

    fn output_arity(&self) -> usize {
        self.inner.output_arity()
    }
}

/// The final-round sink adapter of a [`RerouteHost`]: a copy bound for a
/// moved home `h` leaves under `reroute#h#<tag>` for `h`'s replacement
/// (once per home, however often the program lists it); the others pass
/// through unchanged, after the moved ones.
struct Rewrite<'a> {
    plan: &'a ReroutePlan,
    sink: &'a mut dyn RouteSink,
    /// Scratch: this row's destinations that stay, and its moved homes.
    stay: Vec<usize>,
    moved: Vec<usize>,
}

impl RouteSink for Rewrite<'_> {
    fn emit(&mut self, tag: &str, row: &[Value], dests: &[usize]) -> Result<()> {
        self.stay.clear();
        self.moved.clear();
        for &dest in dests {
            match self.plan.target(dest) {
                None => self.stay.push(dest),
                Some(_) if self.moved.contains(&dest) => {}
                Some(target) => {
                    self.moved.push(dest);
                    self.sink.emit(&guest_tag(dest, tag), row, &[target])?;
                }
            }
        }
        if self.stay.is_empty() {
            return Ok(());
        }
        self.sink.emit(tag, row, &self.stay)
    }
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

/// The outcome of an adaptive run: the static observation, the rerouted
/// execution and the plan that connected them.
#[derive(Debug, Clone)]
pub struct AdaptiveRunResult {
    /// The static (observation) run.
    pub baseline: AsyncRunResult,
    /// The rerouted run under the same configuration and stragglers.
    pub adaptive: AsyncRunResult,
    /// The relocation decision derived from the observation.
    pub plan: ReroutePlan,
}

impl AdaptiveRunResult {
    /// Fraction of the static makespan the rerouted schedule recovered:
    /// `(static − adaptive) / static`. Positive means rerouting helped;
    /// 0 when nothing moved; negative would mean it hurt.
    pub fn recovery(&self) -> f64 {
        let base = self.baseline.schedule.makespan;
        if base == 0 {
            return 0.0;
        }
        let adapt = self.adaptive.schedule.makespan;
        (base as f64 - adapt as f64) / base as f64
    }

    /// The first divergence between the static and rerouted runs, if any
    /// — the differential wall of the adaptive runtime. Checked: output
    /// tuple sets, round counts, and (when the static run partitions its
    /// answers across servers) that the rerouted run still does. Per-
    /// server *placement* legitimately differs and is not compared.
    pub fn divergence(&self) -> Option<String> {
        let base = &self.baseline.result;
        let adapt = &self.adaptive.result;
        if !base.output.same_tuples(&adapt.output) {
            return Some(format!(
                "outputs differ: {} tuples static vs {} rerouted",
                base.output.len(),
                adapt.output.len()
            ));
        }
        if base.rounds.len() != adapt.rounds.len() {
            return Some(format!(
                "round counts differ: {} vs {}",
                base.rounds.len(),
                adapt.rounds.len()
            ));
        }
        let base_sum: usize = base.per_server_output.iter().sum();
        let adapt_sum: usize = adapt.per_server_output.iter().sum();
        if base_sum == base.output.len() && adapt_sum != adapt.output.len() {
            return Some(format!(
                "rerouting broke the answer partition: {} placed vs {} total",
                adapt_sum,
                adapt.output.len()
            ));
        }
        None
    }
}

impl Cluster {
    /// Observe, decide, act: run `program` statically, derive a
    /// [`ReroutePlan`] from the observed schedule, and re-run under a
    /// [`RerouteHost`] with the *same* configuration (including injected
    /// stragglers).
    ///
    /// Programs that declare no [`MpcProgram::reroutable_cells`] — or
    /// observations without stragglers — yield an empty plan, and the
    /// adaptive run replays the static schedule exactly.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::run_async`], for either run.
    pub fn run_adaptive<P: MpcProgram>(
        &self,
        program: &P,
        db: &Database,
        async_config: &AsyncConfig,
    ) -> Result<AdaptiveRunResult> {
        let baseline = self.run_async(program, db, async_config)?;
        let cells = program.reroutable_cells();
        let plan = RerouteController::plan(&baseline.schedule, &cells);
        let host = RerouteHost::new(program, plan.clone());
        let adaptive = self.run_async(&host, db, async_config)?;
        Ok(AdaptiveRunResult { baseline, adaptive, plan })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ServerTimeline;

    fn timeline(server: usize, round1_finish: u64) -> ServerTimeline {
        ServerTimeline {
            server,
            busy: 0,
            blocked: 0,
            idle: 0,
            finish: round1_finish,
            round_finish: vec![round1_finish],
        }
    }

    fn schedule_of(finishes: &[u64]) -> ScheduleStats {
        ScheduleStats {
            makespan: finishes.iter().copied().max().unwrap_or(0),
            critical_path: 0,
            servers: finishes.iter().enumerate().map(|(s, &f)| timeline(s, f)).collect(),
            barrier_wait: Vec::new(),
            stragglers: Vec::new(),
            queue_window: 1,
        }
    }

    #[test]
    fn guest_tags_round_trip() {
        let tag = guest_tag(7, "wco.stage##R");
        assert_eq!(tag, "reroute#7#wco.stage##R");
        assert_eq!(parse_guest_tag(&tag), Some((7, "wco.stage##R")));
        assert_eq!(parse_guest_tag("R"), None);
        assert_eq!(parse_guest_tag("reroute#x#R"), None);
    }

    #[test]
    fn controller_moves_straggler_cells_to_fast_servers() {
        // Server 3 lags 10×; cells live on 1 and 3.
        let sched = schedule_of(&[100, 100, 110, 1000]);
        let plan = RerouteController::plan(&sched, &[1, 3]);
        assert_eq!(plan.len(), 1, "only the straggler-homed cell moves");
        let target = plan.target(3).expect("cell 3 moves");
        assert!(target != 3, "a move must relocate");
        assert!([0, 1].contains(&target), "the fastest servers host");
        assert_eq!(plan.target(1), None, "cell 1 is on a healthy server");
    }

    #[test]
    fn controller_is_deterministic_and_seed_sensitive_only_on_ties() {
        let sched = schedule_of(&[50, 50, 50, 900, 60]);
        let a = RerouteController::plan(&sched, &[3]);
        let b = RerouteController::plan(&sched, &[3]);
        assert_eq!(a, b, "same inputs, same plan");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn controller_caps_moves_and_ignores_foreign_cells() {
        // Half of 20 servers straggle, each homing a cell: more than the cap.
        let finishes: Vec<u64> = (0..20).map(|s| if s < 10 { 10 } else { 500 }).collect();
        let sched = schedule_of(&finishes);
        let cells: Vec<usize> = (10..20).chain([99]).collect();
        let plan = RerouteController::plan(&sched, &cells);
        assert_eq!(plan.len(), MAX_MOVES, "MAX_MOVES caps the plan");
        for (home, target) in plan.moves() {
            assert!((10..20).contains(&home));
            assert!(target < 10, "targets are the healthy servers");
        }
        // A majority of stragglers defeats the median signal: decline.
        let majority = schedule_of(&[10, 10, 500, 500, 500, 500]);
        assert!(RerouteController::plan(&majority, &[2, 3]).is_empty());
    }

    #[test]
    fn controller_declines_without_signal_or_targets() {
        // Free cost model: every finish is 0 — no signal.
        let silent = schedule_of(&[0, 0, 0, 0]);
        assert!(RerouteController::plan(&silent, &[0, 1]).is_empty());
        // Uniform finishes: no straggler.
        let uniform = schedule_of(&[70, 70, 70, 70]);
        assert!(RerouteController::plan(&uniform, &[0, 1]).is_empty());
        // No cells declared.
        let skew = schedule_of(&[10, 10, 10, 400]);
        assert!(RerouteController::plan(&skew, &[]).is_empty());
    }
}
