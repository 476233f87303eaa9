//! The virtual clock of the event-driven backend: cost models, straggler
//! injection, and the deterministic schedule simulation that turns a
//! run's message traffic into a [`ScheduleStats`] timeline.
//!
//! The synchronous backend measures *volumes* — how many bytes move. This
//! module measures *schedules* — **when** they move. Every server is
//! modelled as a single resource that is, at any virtual instant, doing
//! exactly one of: **serializing** an outgoing packet onto its uplink,
//! **ingesting** an arrived packet, **computing** its local join, sitting
//! **blocked** on backpressure (a full per-link window), or **idle**
//! waiting for data. Those five states partition each server's timeline,
//! which is what makes the per-server `busy/blocked/idle` spans of
//! [`ServerTimeline`] well-defined.
//!
//! The simulation is a conservative discrete-event loop over virtual
//! *ticks* driven by a [`CostModel`]; it is a pure function of the traffic
//! and the model, so two runs of the same program on the same input get
//! identical schedules — stragglers included, because straggler selection
//! is seeded ([`StragglerSpec`]). The **critical path** is a lower bound
//! computed directly from the traffic: the maximum over servers and
//! rounds of the longest data-dependency chain and the server's
//! cumulative per-round work, both of which every execution must respect
//! — hence `makespan ≥ critical_path` by construction, whatever the
//! window size or event interleaving.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Virtual-tick costs of communication and computation.
///
/// Ticks are an abstract unit; only ratios matter. The defaults make
/// communication and computation comparable so schedules show both kinds
/// of waiting.
///
/// ```
/// use mpc_sim::schedule::CostModel;
///
/// let cost = CostModel::default();
/// assert!(cost.link_latency > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Wire latency added between a packet's departure and its arrival.
    pub link_latency: u64,
    /// Uplink serialization cost per byte sent.
    pub send_ticks_per_byte: u64,
    /// Ingest cost per byte received.
    pub recv_ticks_per_byte: u64,
    /// Local-computation cost per tuple received in the round.
    pub compute_ticks_per_tuple: u64,
    /// Fixed per-round computation overhead (scheduling, hashing setup).
    pub round_overhead: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            link_latency: 4,
            send_ticks_per_byte: 1,
            recv_ticks_per_byte: 1,
            compute_ticks_per_tuple: 8,
            round_overhead: 16,
        }
    }
}

impl CostModel {
    /// A model in which everything is free (all costs zero). Every event
    /// happens at tick 0; handy as a degenerate test case.
    pub fn free() -> Self {
        CostModel {
            link_latency: 0,
            send_ticks_per_byte: 0,
            recv_ticks_per_byte: 0,
            compute_ticks_per_tuple: 0,
            round_overhead: 0,
        }
    }
}

/// Deterministic straggler injection: `count` servers, drawn by `seed`,
/// run `slowdown`× slower (their serialize/ingest/compute ticks are all
/// multiplied).
///
/// ```
/// use mpc_sim::schedule::StragglerSpec;
///
/// let spec = StragglerSpec::new(42, 2, 8);
/// let picked = spec.pick(16);
/// assert_eq!(picked.len(), 2);
/// assert_eq!(picked, spec.pick(16)); // same seed, same stragglers
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StragglerSpec {
    /// Seed for the straggler draw.
    pub seed: u64,
    /// How many servers to slow down (clamped to `p`).
    pub count: usize,
    /// Slowdown multiplier (clamped to at least 1).
    pub slowdown: u64,
}

impl StragglerSpec {
    /// A spec slowing `count` seeded-random servers down by `slowdown`×.
    pub fn new(seed: u64, count: usize, slowdown: u64) -> Self {
        StragglerSpec { seed, count, slowdown: slowdown.max(1) }
    }

    /// The straggler server ids among `0..p` (sorted, distinct).
    pub fn pick(&self, p: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x57A6_617E);
        let mut picked = rand::seq::index::sample(&mut rng, p, self.count.min(p)).into_vec();
        picked.sort_unstable();
        picked
    }

    /// Per-server slowdown multipliers (1 for non-stragglers).
    pub fn slowdown_vector(&self, p: usize) -> Vec<u64> {
        let mut slow = vec![1u64; p];
        for s in self.pick(p) {
            slow[s] = self.slowdown.max(1);
        }
        slow
    }
}

/// One delivered packet, as recorded by the event-driven backend: enough
/// for the schedule simulation (sizes and endpoints; payloads don't
/// matter for timing).
///
/// `from` may be `>= p`: round-1 packets originate at the per-relation
/// input servers, numbered `p, p+1, …`. A packet is a
/// [`crate::block::TupleBlock`] on the batched data plane, so it carries
/// `tuples ≥ 1` tuples; per-tuple traffic sets `tuples = 1`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MsgRecord {
    /// Round the packet belongs to (1-based).
    pub round: usize,
    /// Sending server (`>= p` for input servers).
    pub from: usize,
    /// Receiving worker (`< p`).
    pub to: usize,
    /// Sequence number within `(from, round)`, in generation order.
    pub seq: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Tuples carried by the packet (drives the receiver's compute cost).
    pub tuples: u64,
}

/// The virtual-time account of one worker across the whole run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ServerTimeline {
    /// Worker id in `0..p`.
    pub server: usize,
    /// Ticks spent serializing, ingesting or computing.
    pub busy: u64,
    /// Ticks stalled on backpressure (a full per-link send window).
    pub blocked: u64,
    /// Ticks waiting for packets to arrive.
    pub idle: u64,
    /// Virtual time at which this worker finished its last round. The
    /// timeline `[0, finish]` is exactly partitioned by the three spans.
    pub finish: u64,
    /// Virtual time at which each round's local computation finished
    /// (index `r-1` for round `r`).
    pub round_finish: Vec<u64>,
}

impl ServerTimeline {
    /// Whether `busy + blocked + idle` exactly tiles `[0, finish]` — an
    /// invariant of the simulation, exposed for tests.
    pub fn span_partition_holds(&self) -> bool {
        self.busy + self.blocked + self.idle == self.finish
    }
}

/// The schedule of one event-driven run: what the synchronous backend
/// cannot see.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScheduleStats {
    /// Virtual time at which the last worker finished — wall-clock in
    /// ticks.
    pub makespan: u64,
    /// A lower bound on any execution of this traffic under the cost
    /// model: the maximum, over servers and rounds, of the longest
    /// data-dependency chain and the server's cumulative work. Always
    /// `<= makespan`.
    pub critical_path: u64,
    /// Per-worker busy/blocked/idle accounts.
    pub servers: Vec<ServerTimeline>,
    /// Per round `r` (index `r-1`): the spread between the last and first
    /// worker to finish round `r` — the stall a global barrier would
    /// impose on the fastest worker. Zero means the round was perfectly
    /// level.
    pub barrier_wait: Vec<u64>,
    /// Servers slowed down by straggler injection (empty when none).
    pub stragglers: Vec<usize>,
    /// The per-link send window (packets) the run was simulated with.
    pub queue_window: usize,
}

impl ScheduleStats {
    /// Number of rounds covered by the schedule.
    pub fn num_rounds(&self) -> usize {
        self.barrier_wait.len()
    }

    /// Total ticks all workers spent blocked on backpressure.
    pub fn total_blocked(&self) -> u64 {
        self.servers.iter().map(|s| s.blocked).sum()
    }

    /// Total ticks all workers spent idle waiting for data.
    pub fn total_idle(&self) -> u64 {
        self.servers.iter().map(|s| s.idle).sum()
    }

    /// The worst per-round barrier wait.
    pub fn max_barrier_wait(&self) -> u64 {
        self.barrier_wait.iter().copied().max().unwrap_or(0)
    }

    /// `makespan / critical_path` — how much of the wall clock is
    /// explained by dependencies alone (1.0 means backpressure never
    /// mattered). 1.0 for degenerate zero-tick schedules.
    pub fn schedule_efficiency(&self) -> f64 {
        if self.makespan == 0 {
            1.0
        } else {
            self.critical_path as f64 / self.makespan as f64
        }
    }

    /// One-line digest mirroring [`crate::RunResult::summary`].
    pub fn summary(&self) -> String {
        format!(
            "makespan {} ticks, critical path {} ({:.0}% dependency-bound), \
             max barrier wait {}, blocked {} / idle {} ticks total",
            self.makespan,
            self.critical_path,
            self.schedule_efficiency() * 100.0,
            self.max_barrier_wait(),
            self.total_blocked(),
            self.total_idle(),
        )
    }
}

impl std::fmt::Display for ScheduleStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Simulate the schedule of a run: `p` workers, `num_rounds` rounds, the
/// recorded `traffic`, a cost model, per-worker slowdown multipliers
/// (length `p`; from [`StragglerSpec::slowdown_vector`] or all ones) and
/// the per-link send window in packets.
///
/// The traffic is canonicalised (sorted per sender) before simulation, so
/// the result is independent of the arrival interleaving of the real
/// threaded execution.
///
/// Rounds are **double-buffered**, like the data plane: a worker that has
/// nothing left to do in its current round may already ingest the next
/// round's arrived packets (hashing round `r+1` while round `r` lanes
/// drain) instead of sitting idle. Packets of the current round always
/// take priority, so overlap never reorders a per-link FIFO — the loop
/// asserts this.
pub fn simulate(
    p: usize,
    num_rounds: usize,
    traffic: &[MsgRecord],
    cost: &CostModel,
    slowdown: &[u64],
    window: usize,
) -> ScheduleStats {
    let window = window.max(1);
    let run = EventLoop::new(p, num_rounds, traffic, cost, slowdown, window).run();

    let servers: Vec<ServerTimeline> = (0..p)
        .map(|i| ServerTimeline {
            server: i,
            busy: run.busy[i],
            blocked: run.blocked[i],
            idle: run.idle[i],
            finish: run.finish[i],
            round_finish: run.round_finish[i].clone(),
        })
        .collect();
    let barrier_wait: Vec<u64> = (0..num_rounds)
        .map(|r| {
            let max = (0..p).map(|i| run.round_finish[i][r]).max().unwrap_or(0);
            let min = (0..p).map(|i| run.round_finish[i][r]).min().unwrap_or(0);
            max - min
        })
        .collect();
    ScheduleStats {
        makespan: run.finish.iter().copied().max().unwrap_or(0),
        critical_path: critical_path_bound(p, num_rounds, traffic, cost, slowdown),
        servers,
        barrier_wait,
        stragglers: slowdown.iter().enumerate().filter(|(_, &s)| s > 1).map(|(i, _)| i).collect(),
        queue_window: window,
    }
}

/// The critical-path lower bound: the latest round-`R` compute finish any
/// execution of this traffic could achieve, considering only (a) chains of
/// data dependencies (a packet cannot be ingested before its sender's
/// round started, its predecessors on the same uplink serialized, the wire
/// latency elapsed, and its own ingest ran), (b) each server's per-round
/// sends (they sit between the previous compute and this one; its ingests
/// may overlap the previous round) and (c) a per-server **total-work
/// floor**: one resource must eventually do *all* of its serialization,
/// ingest and compute ticks.
///
/// All three are true of the event loop regardless of window size or
/// action interleaving, so `makespan >= critical_path` holds by
/// construction — scheduling choices and backpressure can only add waiting
/// on top.
fn critical_path_bound(
    p: usize,
    num_rounds: usize,
    traffic: &[MsgRecord],
    cost: &CostModel,
    slowdown: &[u64],
) -> u64 {
    let slow = |id: usize| if id < p { slowdown[id].max(1) } else { 1 };
    let num_actors = traffic.iter().map(|m| m.from + 1).max().unwrap_or(p).max(p);
    // Canonical send order, bucketed by round (one pass over the traffic;
    // the prefix-sum chain below needs each uplink's packets in order).
    let mut by_round: Vec<Vec<&MsgRecord>> = vec![Vec::new(); num_rounds];
    for m in traffic {
        by_round[m.round - 1].push(m);
    }
    for bucket in &mut by_round {
        bucket.sort_unstable_by_key(|m| (m.from, m.to, m.bytes, m.seq));
    }

    // `ready[id]` = earliest possible start of the current round.
    let mut ready = vec![0u64; num_actors];
    let mut finish = vec![0u64; p];
    let mut total_work = vec![0u64; p];
    for round in 1..=num_rounds {
        // Chain bound: prefix serialization on each uplink, then latency,
        // then the packet's own ingest.
        let mut uplink = ready.clone();
        let mut ingest_chain = vec![0u64; p]; // max over packets to i
        let mut send_work = vec![0u64; num_actors];
        let mut recv_work = vec![0u64; p];
        let mut recv_tuples = vec![0u64; p];
        for m in &by_round[round - 1] {
            let ser = m.bytes.saturating_mul(cost.send_ticks_per_byte).saturating_mul(slow(m.from));
            let ing = m.bytes.saturating_mul(cost.recv_ticks_per_byte).saturating_mul(slow(m.to));
            uplink[m.from] = uplink[m.from].saturating_add(ser);
            send_work[m.from] = send_work[m.from].saturating_add(ser);
            recv_work[m.to] = recv_work[m.to].saturating_add(ing);
            recv_tuples[m.to] = recv_tuples[m.to].saturating_add(m.tuples);
            ingest_chain[m.to] = ingest_chain[m.to]
                .max(uplink[m.from].saturating_add(cost.link_latency).saturating_add(ing));
        }
        for i in 0..p {
            // Work bound: one resource does all the round's sends before
            // computing.
            let work = ready[i].saturating_add(send_work[i]);
            let compute = recv_tuples[i]
                .saturating_mul(cost.compute_ticks_per_tuple)
                .saturating_add(cost.round_overhead)
                .saturating_mul(slow(i));
            finish[i] = work.max(ingest_chain[i]).saturating_add(compute);
            total_work[i] = total_work[i]
                .saturating_add(send_work[i])
                .saturating_add(recv_work[i])
                .saturating_add(compute);
        }
        ready[..p].copy_from_slice(&finish);
    }
    let chain = finish.iter().copied().max().unwrap_or(0);
    let floor = total_work.iter().copied().max().unwrap_or(0);
    chain.max(floor)
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

/// What an actor is waiting for while parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitKind {
    /// Waiting for packets to arrive (accounted as idle).
    Arrival,
    /// Waiting for a full send window to drain (accounted as blocked).
    Window,
}

/// An outgoing packet in canonical send order.
#[derive(Debug, Clone)]
struct OutMsg {
    to: usize,
    bytes: u64,
    round: usize,
}

/// An arrived-but-not-yet-ingested packet in a worker's inbox, ordered by
/// `(arrival, from, seq)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Offer {
    arrival: u64,
    from: usize,
    seq: u64,
    bytes: u64,
    round: usize,
}

#[derive(Debug)]
struct Actor {
    /// Worker (`id < p`) or input server (`id >= p`, round-1 sends only).
    is_worker: bool,
    clock: u64,
    busy: u64,
    blocked: u64,
    idle: u64,
    round: usize,
    /// Outgoing packets per round (index `round - 1`), canonical order.
    out: Vec<Vec<OutMsg>>,
    out_idx: usize,
    /// Arrived-but-not-ingested packets, per round (index `round - 1`).
    /// A server ingests its *current* round's packets first and the next
    /// round's only while it waits; packets that race further ahead wait
    /// here, like the thread backend's stash.
    pending: Vec<BinaryHeap<Reverse<Offer>>>,
    /// Packets ingested so far, per round (index `round - 1`).
    ingested: Vec<u64>,
    /// Packets this worker will receive, per round.
    expected: Vec<u64>,
    /// Tuples this worker will receive, per round (a packet is a
    /// block carrying one or more tuples; compute cost scales with
    /// tuples, not packets).
    expected_tuples: Vec<u64>,
    wait: Option<(WaitKind, u64)>,
    round_finish: Vec<u64>,
    done: bool,
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    /// A packet reaches its receiver's inbox.
    Deliver(usize, Offer),
    /// An actor is runnable again at its clock.
    Step(usize),
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    time: u64,
    /// Delivers before steps at equal times so a stepping server sees
    /// everything that has arrived "by now".
    prio: u8,
    /// Strictly monotone stamp: a deterministic total order.
    stamp: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.prio, self.stamp).cmp(&(other.time, other.prio, other.stamp))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct RunOutcome {
    busy: Vec<u64>,
    blocked: Vec<u64>,
    idle: Vec<u64>,
    finish: Vec<u64>,
    round_finish: Vec<Vec<u64>>,
}

struct EventLoop<'a> {
    p: usize,
    num_rounds: usize,
    cost: &'a CostModel,
    slowdown: &'a [u64],
    window: usize,
    actors: Vec<Actor>,
    /// In-flight (sent, not yet ingested) packet count per link
    /// `from * p + to`.
    in_flight: Vec<usize>,
    /// `(round, seq)` of the last packet ingested per link `from * p + to`
    /// — overlap must never reorder a per-link FIFO, asserted on every
    /// ingest.
    last_ingest: Vec<(usize, u64)>,
    events: BinaryHeap<Reverse<Event>>,
    stamp: u64,
}

impl<'a> EventLoop<'a> {
    fn new(
        p: usize,
        num_rounds: usize,
        traffic: &[MsgRecord],
        cost: &'a CostModel,
        slowdown: &'a [u64],
        window: usize,
    ) -> Self {
        assert_eq!(slowdown.len(), p, "one slowdown multiplier per worker");
        let num_actors = traffic.iter().map(|m| m.from + 1).max().unwrap_or(p).max(p);

        // Canonical per-sender send order: independent of the threaded
        // execution's arrival interleaving.
        let mut sorted: Vec<&MsgRecord> = traffic.iter().collect();
        sorted.sort_unstable_by_key(|m| (m.from, m.round, m.to, m.bytes, m.seq));

        let mut actors: Vec<Actor> = (0..num_actors)
            .map(|id| Actor {
                is_worker: id < p,
                clock: 0,
                busy: 0,
                blocked: 0,
                idle: 0,
                round: 1,
                out: vec![Vec::new(); num_rounds],
                out_idx: 0,
                pending: (0..num_rounds).map(|_| BinaryHeap::new()).collect(),
                ingested: vec![0; num_rounds],
                expected: vec![0; num_rounds],
                expected_tuples: vec![0; num_rounds],
                wait: None,
                round_finish: vec![0; num_rounds],
                done: false,
            })
            .collect();
        for m in sorted {
            debug_assert!(m.to < p && m.round >= 1 && m.round <= num_rounds);
            actors[m.from].out[m.round - 1].push(OutMsg {
                to: m.to,
                bytes: m.bytes,
                round: m.round,
            });
            actors[m.to].expected[m.round - 1] += 1;
            actors[m.to].expected_tuples[m.round - 1] += m.tuples;
        }

        let mut el = EventLoop {
            p,
            num_rounds,
            cost,
            slowdown,
            window,
            actors,
            in_flight: vec![0; num_actors * p],
            last_ingest: vec![(0, 0); num_actors * p],
            events: BinaryHeap::new(),
            stamp: 0,
        };
        for id in 0..num_actors {
            el.schedule_step(id, 0);
        }
        el
    }

    fn slow(&self, id: usize) -> u64 {
        if id < self.p {
            self.slowdown[id].max(1)
        } else {
            1 // input servers are never stragglers
        }
    }

    fn push_event(&mut self, time: u64, prio: u8, kind: EventKind) {
        self.stamp += 1;
        self.events.push(Reverse(Event { time, prio, stamp: self.stamp, kind }));
    }

    fn schedule_step(&mut self, id: usize, time: u64) {
        self.push_event(time, 1, EventKind::Step(id));
    }

    /// Wake a parked actor at `time`, charging the elapsed wait to the
    /// span its wait kind dictates.
    fn wake(&mut self, id: usize, time: u64) {
        if let Some((kind, since)) = self.actors[id].wait.take() {
            let span = time.saturating_sub(since);
            match kind {
                WaitKind::Arrival => self.actors[id].idle += span,
                WaitKind::Window => self.actors[id].blocked += span,
            }
            self.actors[id].clock = time;
            self.schedule_step(id, time);
        }
    }

    fn run(mut self) -> RunOutcome {
        while let Some(Reverse(ev)) = self.events.pop() {
            match ev.kind {
                EventKind::Deliver(to, offer) => {
                    self.actors[to].pending[offer.round - 1].push(Reverse(offer));
                    self.wake(to, ev.time);
                }
                EventKind::Step(id) => self.step(id),
            }
        }
        let p = self.p;
        RunOutcome {
            busy: self.actors[..p].iter().map(|a| a.busy).collect(),
            blocked: self.actors[..p].iter().map(|a| a.blocked).collect(),
            idle: self.actors[..p].iter().map(|a| a.idle).collect(),
            finish: self.actors[..p].iter().map(|a| a.clock).collect(),
            round_finish: self.actors[..p].iter().map(|a| a.round_finish.clone()).collect(),
        }
    }

    /// Perform one action for `id` at its clock, then reschedule or park.
    fn step(&mut self, id: usize) {
        if self.actors[id].done || self.actors[id].wait.is_some() {
            return;
        }
        let now = self.actors[id].clock;
        let slow = self.slow(id);

        // 1. Ingest the earliest arrived packet of the *current* round,
        //    if any (workers only — nothing is ever addressed to an input
        //    server). Future-round packets wait in their pending heap, so
        //    every round's ingest work lands inside that round's span of
        //    the timeline.
        let current = self.actors[id].round - 1;
        if let Some(Reverse(offer)) = self.actors[id].pending[current].pop() {
            self.ingest_offer(id, offer, now, slow);
            return;
        }

        // 2. Serialize the next outgoing packet of the current round.
        let round_idx = self.actors[id].round - 1;
        if let Some(msg) = self.actors[id].out[round_idx].get(self.actors[id].out_idx).cloned() {
            if self.in_flight[id * self.p + msg.to] < self.window {
                let dur =
                    msg.bytes.saturating_mul(self.cost.send_ticks_per_byte).saturating_mul(slow);
                let a = &mut self.actors[id];
                a.busy = a.busy.saturating_add(dur);
                a.clock = now.saturating_add(dur);
                let seq = a.out_idx as u64;
                a.out_idx += 1;
                let depart = a.clock;
                self.in_flight[id * self.p + msg.to] += 1;
                let offer = Offer {
                    arrival: depart.saturating_add(self.cost.link_latency),
                    from: id,
                    seq,
                    bytes: msg.bytes,
                    round: msg.round,
                };
                self.push_event(offer.arrival, 0, EventKind::Deliver(msg.to, offer));
                self.schedule_step(id, depart);
            } else {
                // Backpressure: park until the receiver drains the window.
                self.actors[id].wait = Some((WaitKind::Window, now));
            }
            return;
        }

        // 3. All sends of this round done. Input servers are finished;
        //    workers compute once the round's inbound is fully ingested.
        if !self.actors[id].is_worker {
            self.actors[id].done = true;
            return;
        }
        if self.actors[id].ingested[round_idx] == self.actors[id].expected[round_idx] {
            let tuples = self.actors[id].expected_tuples[round_idx];
            let dur = tuples
                .saturating_mul(self.cost.compute_ticks_per_tuple)
                .saturating_add(self.cost.round_overhead)
                .saturating_mul(slow);
            let a = &mut self.actors[id];
            a.busy = a.busy.saturating_add(dur);
            a.clock = now.saturating_add(dur);
            a.round_finish[round_idx] = a.clock;
            if a.round == self.num_rounds {
                a.done = true;
            } else {
                a.round += 1;
                a.out_idx = 0;
                let t = a.clock;
                self.schedule_step(id, t);
            }
            return;
        }

        // 4. The current round is waiting on arrivals. Fill the wait by
        //    pre-ingesting an arrived packet of the next round — the
        //    double-buffered data plane hashing round `r+1` tuples while
        //    round `r` lanes drain. The current round always takes
        //    priority (steps 1–3), so overlap never reorders a per-link
        //    FIFO; packets further ahead keep waiting in their pending
        //    heap.
        let ahead = self.actors[id].pending.get_mut(current + 1).and_then(BinaryHeap::pop);
        if let Some(Reverse(offer)) = ahead {
            self.ingest_offer(id, offer, now, slow);
            return;
        }

        // 5. Nothing to do until more packets arrive.
        self.actors[id].wait = Some((WaitKind::Arrival, now));
    }

    /// Charge the ingest of `offer` to worker `id` starting at `now`,
    /// decrement the link's in-flight window (possibly unblocking the
    /// sender), and reschedule the worker.
    fn ingest_offer(&mut self, id: usize, offer: Offer, now: u64, slow: u64) {
        let link = offer.from * self.p + id;
        assert!(
            (offer.round, offer.seq) > self.last_ingest[link],
            "per-link FIFO reordered: link {} ingested {:?} after {:?}",
            link,
            (offer.round, offer.seq),
            self.last_ingest[link],
        );
        self.last_ingest[link] = (offer.round, offer.seq);
        let dur = offer.bytes.saturating_mul(self.cost.recv_ticks_per_byte).saturating_mul(slow);
        let a = &mut self.actors[id];
        a.busy = a.busy.saturating_add(dur);
        a.clock = now.saturating_add(dur);
        a.ingested[offer.round - 1] += 1;
        let done_at = a.clock;
        self.in_flight[link] -= 1;
        // The freed window slot may unblock the sender.
        if self.actors[offer.from].wait.map(|(k, _)| k) == Some(WaitKind::Window) {
            let s = offer.from;
            let next_ok = {
                let sa = &self.actors[s];
                sa.out[sa.round - 1]
                    .get(sa.out_idx)
                    .is_some_and(|m| self.in_flight[s * self.p + m.to] < self.window)
            };
            if next_ok {
                self.wake(s, done_at.max(self.actors[s].clock));
            }
        }
        self.schedule_step(id, done_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-1 traffic: one input server fanning `n` packets of `bytes`
    /// bytes out to `p` workers, round-robin.
    fn fanout(p: usize, n: usize, bytes: u64) -> Vec<MsgRecord> {
        (0..n)
            .map(|i| MsgRecord { round: 1, from: p, to: i % p, seq: i as u64, bytes, tuples: 1 })
            .collect()
    }

    #[test]
    fn empty_traffic_still_pays_round_overhead() {
        let cost = CostModel::default();
        let stats = simulate(4, 2, &[], &cost, &[1; 4], 8);
        assert_eq!(stats.num_rounds(), 2);
        // Every worker computes twice with no inputs: 2 * overhead.
        for s in &stats.servers {
            assert_eq!(s.finish, 2 * cost.round_overhead);
            assert_eq!(s.busy, 2 * cost.round_overhead);
            assert!(s.span_partition_holds());
        }
        assert_eq!(stats.makespan, stats.critical_path);
        assert_eq!(stats.barrier_wait, vec![0, 0]);
    }

    #[test]
    fn free_model_collapses_to_zero_ticks() {
        let stats = simulate(4, 1, &fanout(4, 100, 16), &CostModel::free(), &[1; 4], 4);
        assert_eq!(stats.makespan, 0);
        assert_eq!(stats.critical_path, 0);
        assert_eq!(stats.schedule_efficiency(), 1.0);
    }

    #[test]
    fn balanced_fanout_levels_rounds_better_than_a_skewed_one() {
        let balanced = simulate(4, 1, &fanout(4, 40, 8), &CostModel::default(), &[1; 4], 8);
        // Same volume, but everything lands on worker 0.
        let skewed: Vec<MsgRecord> = (0..40)
            .map(|i| MsgRecord { round: 1, from: 4, to: 0, seq: i as u64, bytes: 8, tuples: 1 })
            .collect();
        let skewed = simulate(4, 1, &skewed, &CostModel::default(), &[1; 4], 8);
        assert!(balanced.barrier_wait[0] < skewed.barrier_wait[0]);
        assert!(balanced.makespan >= balanced.critical_path);
        for s in &balanced.servers {
            assert!(s.span_partition_holds());
        }
    }

    #[test]
    fn straggler_inflates_makespan_and_barrier_wait() {
        let traffic = fanout(4, 40, 8);
        let plain = simulate(4, 1, &traffic, &CostModel::default(), &[1; 4], 8);
        let slowed = simulate(4, 1, &traffic, &CostModel::default(), &[1, 1, 6, 1], 8);
        assert!(slowed.makespan > plain.makespan);
        assert!(slowed.barrier_wait[0] > 0);
        // The slowdown changes the schedule, never the traffic.
        assert_eq!(plain.num_rounds(), slowed.num_rounds());
    }

    #[test]
    fn straggler_spec_is_deterministic_and_clamped() {
        let spec = StragglerSpec::new(7, 100, 0);
        assert_eq!(spec.slowdown, 1, "slowdown clamps to >= 1");
        assert_eq!(spec.pick(4).len(), 4, "count clamps to p");
        let v = StragglerSpec::new(7, 1, 5).slowdown_vector(8);
        assert_eq!(v.iter().filter(|&&s| s == 5).count(), 1);
        assert_eq!(v.iter().filter(|&&s| s == 1).count(), 7);
    }

    #[test]
    fn tight_window_inflates_makespan_above_the_critical_path() {
        // Everything funnels into worker 0: the sender feels backpressure
        // through a window of 1 (each packet's serialization waits for the
        // previous packet's ingest), stretching the makespan well above
        // the dependency/work lower bound.
        let p = 4;
        let traffic: Vec<MsgRecord> = (0..60)
            .map(|i| MsgRecord { round: 1, from: p, to: 0, seq: i as u64, bytes: 64, tuples: 1 })
            .collect();
        let tight = simulate(p, 1, &traffic, &CostModel::default(), &[1; 4], 1);
        assert!(tight.makespan > tight.critical_path);
        // A generous window lets the uplink pipeline: here arrivals keep
        // exact pace with worker 0's ingest, so the bound is achieved.
        let wide = simulate(p, 1, &traffic, &CostModel::default(), &[1; 4], 1024);
        assert_eq!(wide.makespan, wide.critical_path);
        assert!(tight.makespan > wide.makespan);
    }

    #[test]
    fn extreme_costs_saturate_instead_of_overflowing() {
        // A pathological slowdown must saturate the virtual clock, not
        // wrap it (wrapping would make the straggler look *fast*).
        let stats = simulate(2, 1, &fanout(2, 10, 8), &CostModel::default(), &[u64::MAX, 1], 4);
        assert_eq!(stats.makespan, u64::MAX);
        assert!(stats.makespan >= stats.critical_path);
        let huge = CostModel {
            link_latency: u64::MAX / 2,
            send_ticks_per_byte: u64::MAX / 2,
            recv_ticks_per_byte: u64::MAX / 2,
            compute_ticks_per_tuple: u64::MAX / 2,
            round_overhead: u64::MAX / 2,
        };
        let stats = simulate(2, 1, &fanout(2, 10, 8), &huge, &[1; 2], 4);
        assert!(stats.makespan >= stats.critical_path);
    }

    #[test]
    fn makespan_dominates_critical_path_on_random_traffic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Brute-force the invariant over adversarial shapes: arbitrary
        // fan-in/fan-out, zero-cost components, heavy slowdowns, tiny
        // windows — the regime where greedy scheduling anomalies lurk.
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for case in 0..300 {
            let p = rng.gen_range(2..5usize);
            let rounds = rng.gen_range(1..4usize);
            let n = rng.gen_range(0..80usize);
            let traffic: Vec<MsgRecord> = (0..n)
                .map(|s| {
                    let round = rng.gen_range(1..=rounds);
                    let from =
                        if round == 1 { p + rng.gen_range(0..2usize) } else { rng.gen_range(0..p) };
                    MsgRecord {
                        round,
                        from,
                        to: rng.gen_range(0..p),
                        seq: s as u64,
                        bytes: rng.gen_range(8..128),
                        tuples: rng.gen_range(1..16),
                    }
                })
                .collect();
            let cost = CostModel {
                link_latency: rng.gen_range(0..8),
                send_ticks_per_byte: rng.gen_range(0..4),
                recv_ticks_per_byte: rng.gen_range(0..4),
                compute_ticks_per_tuple: rng.gen_range(0..64),
                round_overhead: rng.gen_range(0..32),
            };
            let slowdown: Vec<u64> = (0..p).map(|_| rng.gen_range(1..8)).collect();
            let window = [1usize, 2, 8, 64][rng.gen_range(0..4usize)];
            let stats = simulate(p, rounds, &traffic, &cost, &slowdown, window);
            assert!(
                stats.makespan >= stats.critical_path,
                "case {case}: makespan {} < critical path {}",
                stats.makespan,
                stats.critical_path
            );
            for s in &stats.servers {
                assert!(s.span_partition_holds(), "case {case}: server {} leaks", s.server);
            }
        }
    }

    #[test]
    fn pre_ingesting_the_next_round_fills_idle_time() {
        // Worker 0 waits ~1000 ticks for a huge round-1 packet while
        // worker 1's round-2 packet sits arrived in its inbox from tick
        // 120. The wait absorbs that packet's 100 ingest ticks: round 1
        // finishes at 1004 + 1000 + 24 and round 2 only computes (24),
        // where a strict round-by-round replay would end at 2152.
        let traffic = vec![
            MsgRecord { round: 1, from: 2, to: 0, seq: 0, bytes: 1000, tuples: 1 },
            MsgRecord { round: 2, from: 1, to: 0, seq: 0, bytes: 100, tuples: 1 },
        ];
        let piped = simulate(2, 2, &traffic, &CostModel::default(), &[1; 2], 8);
        assert_eq!(piped.makespan, 2052);
        assert_eq!(piped.servers[0].round_finish, [2028, 2052]);
        assert!(piped.makespan >= piped.critical_path);
        for s in &piped.servers {
            assert!(s.span_partition_holds());
        }
        // Worker 0 idles 0..120 and 220..1004 only.
        assert_eq!(piped.servers[0].idle, 120 + 784);
    }

    #[test]
    fn blockwise_traffic_pays_compute_per_tuple_not_per_packet() {
        // One 10-tuple block must cost the same compute as ten 1-tuple
        // packets of the same total size.
        let block = vec![MsgRecord { round: 1, from: 2, to: 0, seq: 0, bytes: 80, tuples: 10 }];
        let tuples: Vec<MsgRecord> = (0..10)
            .map(|i| MsgRecord { round: 1, from: 2, to: 0, seq: i, bytes: 8, tuples: 1 })
            .collect();
        let cost = CostModel::default();
        let a = simulate(2, 1, &block, &cost, &[1; 2], 64);
        let b = simulate(2, 1, &tuples, &cost, &[1; 2], 64);
        let busy_compute = |s: &ScheduleStats| s.servers[0].busy;
        // Same ingest bytes, same compute tuples; only per-packet latency
        // overlap may differ, which busy ticks don't include.
        assert_eq!(busy_compute(&a), busy_compute(&b));
    }

    #[test]
    fn schedule_is_independent_of_traffic_permutation() {
        let mut traffic = fanout(3, 30, 8);
        let a = simulate(3, 1, &traffic, &CostModel::default(), &[1; 3], 4);
        traffic.reverse();
        let b = simulate(3, 1, &traffic, &CostModel::default(), &[1; 3], 4);
        assert_eq!(a, b, "canonicalisation makes the schedule order-independent");
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let stats = simulate(2, 1, &fanout(2, 10, 8), &CostModel::default(), &[1; 2], 4);
        let s = stats.summary();
        assert!(s.contains("makespan"));
        assert!(s.contains("critical path"));
        assert_eq!(s, stats.to_string());
    }
}
