//! The control protocol, as two state machines: the master's half and the
//! worker's.
//!
//! The coordination pattern follows the distributed-FDB design: a master
//! owns one control connection per worker and moves the job through
//! global barriers, one frame from every worker and one reply each —
//!
//! ```text
//! worker                          master
//!   Hello{id, data_port}  ───▶
//!   ◀───  Job{spec}                   (spawned mode only)
//!   ◀───  Checkpoint{...}             (recovery replacement only)
//!   ◀───  Peers{addr table}
//!   ... mesh-connect to peers (DataHello [+ ReplayRequest]) ...
//!   MeshReady  ───▶                   barrier 0
//!   ◀───  Proceed(0)
//!   Checkpoint(r)  ───▶               (recovery runs, every round)
//!   Ready(r)  ───▶                    barrier r, for each round r
//!   ◀───  Proceed(r)
//!   Summary{output, volumes}  ───▶    barrier rounds + 1 (spawned mode only)
//!   ◀───  Shutdown
//! ```
//!
//! with `Abort` valid in either direction at any time.
//!
//! [`Master`] and [`Worker`] are that protocol and nothing else: they hold
//! no socket, process, clock or sleep. [`Master::on`] takes one [`Event`]
//! — a connection accepted, a frame, a connection closed, a worker process
//! exited, a clock tick — and returns the [`Action`]s it decides: frames
//! to send, worker processes to start, and the end of the job. One driver,
//! `master::serve`, runs it over sockets and processes. [`Worker::on`]
//! takes one [`Input`] — a frame from the master, the control connection
//! closing, or the worker's own progress — and returns the frames to send
//! and whether the worker may [`Go`] on; one wait, `transport::Control`'s,
//! runs it for the handshake, the mesh, every barrier and the shutdown.
//! The tests below run both machines together under a seeded simulator.
//!
//! Each worker is in its own [`Phase`]: started, dialing in, joined (its
//! `Hello` is in), then owing or at a barrier. The cluster releases its
//! barrier once every worker reached it. A worker that dies before its
//! address went out in a peer table, or while in step with the cluster,
//! is re-spawned while [`MasterConfig::max_respawns`] lasts, after a
//! back-off. Its replacement says `Hello`, receives its latest checkpoint
//! and the peer table — once no other worker is still starting, so every
//! address in it is current — rejoins the mesh, and catches up on the
//! barriers the cluster already passed, each released to it alone. A
//! death while the mesh forms or while a replacement catches up fails
//! the job, as does a spent budget: the master then sends `Abort` to every
//! worker it knows and ends with the root cause.
//!
//! [`MasterConfig::max_respawns`]: crate::MasterConfig::max_respawns

use std::time::Duration;

use mpc_sim::{RestorePoint, SimError, WorkerSummary};

use crate::frame::Frame;
use crate::recovery::recovery_requested;
use crate::{NetError, Result};

/// The pause before the first re-spawn; it doubles per re-spawn already
/// used, five times at most.
const RESPAWN_BACKOFF: Duration = Duration::from_millis(50);

/// The pause before re-spawn number `used` (0-based).
fn respawn_pause(used: usize) -> Duration {
    RESPAWN_BACKOFF * (1 << used.min(5))
}

/// What the master hears. Connections are numbered from 0 in the order
/// they were accepted.
#[derive(Debug)]
pub(crate) enum Event {
    /// The next connection was accepted, from `host`.
    Accepted { host: String },
    /// A frame arrived on connection `conn`.
    Frame { conn: usize, frame: Frame },
    /// Connection `conn` closed, or a read or write on it failed.
    Closed { conn: usize, why: String },
    /// Worker `worker`'s process exited (spawned mode).
    Exited { worker: usize, status: String },
    /// The driver failed (a malformed frame, a failed accept or spawn).
    Failed(NetError),
    /// `now` has passed since the master started.
    Tick(Duration),
}

/// What the master decides.
#[derive(Debug)]
pub(crate) enum Action {
    /// Write `frame` to connection `conn`.
    Send { conn: usize, frame: Frame },
    /// Start worker `worker`'s process: the first one armed with its
    /// faults, or — `replacing` says why — a clean replacement of the
    /// dead one.
    Spawn { worker: usize, replacing: Option<String> },
    /// The job is over: the workers' summaries in id order (none in
    /// threaded mode), or the root cause.
    Finish(Result<Vec<WorkerSummary>>),
}

/// Where one worker is in the protocol.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// No live process: start one at `at`, for the reason `replacing`
    /// (`None`: the first start).
    Spawn { at: Duration, replacing: Option<String> },
    /// Started; its `Hello` is due by `by`.
    Dialing { by: Duration },
    /// Said `Hello`; awaits the peer table.
    Joined,
    /// Owes the frame that reaches barrier `k`.
    Owes(usize),
    /// Reached barrier `k`; awaits its release.
    At(usize),
}

struct Member {
    phase: Phase,
    conn: Option<usize>,
    /// Where its peers reach its data listener.
    addr: String,
    /// Its latest checkpoint, with the round it closes: at first the empty
    /// one of round 0, which a replacement restores as a fresh start.
    checkpoint: (usize, Frame),
    summary: Option<WorkerSummary>,
}

/// The master's side of one job. See the module docs.
#[derive(Default)]
pub(crate) struct Master {
    workers: Vec<Member>,
    /// Per accepted connection, its host while it has yet to say `Hello`.
    /// A worker's connection is the one it names.
    conns: Vec<Option<String>>,
    rounds: usize,
    /// The job wire form (spawned mode), handed to every worker.
    job: Option<String>,
    max_respawns: usize,
    respawns: usize,
    /// How long a started worker has to say `Hello`.
    deadline: Duration,
    now: Duration,
    /// The barrier being collected: 0 the mesh, `1..=rounds` the rounds,
    /// `rounds + 1` the summaries.
    round: usize,
    done: bool,
}

fn protocol(msg: String) -> NetError {
    NetError::Protocol(msg)
}

impl Master {
    /// A master for `p` workers running `rounds` rounds. With `job` the
    /// master starts the worker processes, hands them the job and
    /// collects their summaries; without, the workers are already
    /// dialing in (threads of this process).
    pub(crate) fn new(
        p: usize,
        rounds: usize,
        job: Option<String>,
        max_respawns: usize,
        deadline: Duration,
    ) -> Master {
        let phase = match job {
            Some(_) => Phase::Spawn { at: Duration::ZERO, replacing: None },
            None => Phase::Dialing { by: deadline },
        };
        let (relations, per_round_bytes, per_round_tuples) = (Vec::new(), Vec::new(), Vec::new());
        let empty = Frame::Checkpoint { round: 0, relations, per_round_bytes, per_round_tuples };
        let worker = |_| Member {
            phase: phase.clone(),
            conn: None,
            addr: String::new(),
            checkpoint: (0, empty.clone()),
            summary: None,
        };
        let workers = (0..p).map(worker).collect();
        Master { workers, rounds, job, max_respawns, deadline, ..Master::default() }
    }

    /// How many re-spawns the job consumed.
    pub(crate) fn respawns(&self) -> usize {
        self.respawns
    }

    /// Whether some worker has yet to dial in: the driver accepts only then.
    pub(crate) fn accepting(&self) -> bool {
        self.workers.iter().any(|w| matches!(w.phase, Phase::Dialing { .. }))
    }

    /// The connections a frame is due on, the workers' in id order: the
    /// driver polls these and no others.
    pub(crate) fn awaited(&self) -> Vec<usize> {
        let owed = self.workers.iter().filter(|w| matches!(w.phase, Phase::Owes(_)));
        let hellos = (0..self.conns.len()).filter(|&c| self.conns[c].is_some() && self.accepting());
        owed.filter_map(|w| w.conn).chain(hellos).collect()
    }

    /// The one transition function: take `event`, return what to do.
    /// Once the job is over, every event is ignored.
    pub(crate) fn on(&mut self, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        if self.done {
            return out;
        }
        if let Err(e) = self.step(event, &mut out) {
            self.done = true;
            let abort = Frame::Abort { reason: e.to_string() };
            for conn in self.workers.iter().filter_map(|w| w.conn) {
                out.push(Action::Send { conn, frame: abort.clone() });
            }
            out.push(Action::Finish(Err(e)));
        }
        out
    }

    fn step(&mut self, event: Event, out: &mut Vec<Action>) -> Result<()> {
        let owner = |conn| self.workers.iter().position(|w| w.conn == Some(conn));
        match event {
            Event::Accepted { host } => self.conns.push(Some(host)),
            Event::Frame { conn, frame } => match owner(conn) {
                Some(w) => self.reach(w, frame, out)?,
                None if self.conns[conn].is_some() => self.hello(conn, frame, out)?,
                // The connection of a worker given up for dead.
                None => {}
            },
            Event::Closed { conn, why } => match owner(conn) {
                Some(w) => self.died(w, format!("worker {w} died ({why})"))?,
                // A connection that never said who it is tells nothing.
                None => self.conns[conn] = None,
            },
            Event::Exited { worker, status } => {
                self.died(worker, format!("worker {worker} exited ({status})"))?;
            }
            Event::Failed(e) => return Err(e),
            Event::Tick(now) => self.tick(now, out)?,
        }
        Ok(())
    }

    /// A dialing worker's `Hello` on `conn`: any other frame, an id out of
    /// range or an id not dialing is refused.
    fn hello(&mut self, conn: usize, frame: Frame, out: &mut Vec<Action>) -> Result<()> {
        let host = self.conns[conn].take().expect("an awaited Hello has a host");
        let Frame::Hello { worker_id, data_port } = frame else {
            return Err(protocol(format!("expected Hello, got {frame:?}")));
        };
        let (w, p) = (worker_id as usize, self.workers.len());
        let Some(worker) = self.workers.get_mut(w) else {
            return Err(protocol(format!(
                "Hello from worker {w}, but the cluster has {p} workers"
            )));
        };
        if !matches!(worker.phase, Phase::Dialing { .. }) {
            return Err(protocol(format!("Hello from worker {w}, which is already connected")));
        }
        worker.phase = Phase::Joined;
        worker.conn = Some(conn);
        worker.addr = format!("{host}:{data_port}");
        if let Some(spec) = &self.job {
            out.push(Action::Send { conn, frame: Frame::Job { spec: spec.clone() } });
        }
        self.mesh(out);
        Ok(())
    }

    /// Hand every joined worker the peer table, once no worker is still
    /// starting. After the handshake a joined worker is a replacement: its
    /// latest checkpoint goes first and tells it to rejoin the running
    /// mesh.
    fn mesh(&mut self, out: &mut Vec<Action>) {
        let starting = |w: &Member| matches!(w.phase, Phase::Spawn { .. } | Phase::Dialing { .. });
        if self.workers.iter().any(starting) {
            return;
        }
        let peers = self.workers.iter().enumerate().map(|(id, w)| (id as u32, w.addr.clone()));
        let peers = Frame::Peers { peers: peers.collect() };
        let round = self.round;
        for w in self.workers.iter_mut().filter(|w| w.phase == Phase::Joined) {
            let conn = w.conn.expect("a joined worker has a connection");
            if round > 0 {
                out.push(Action::Send { conn, frame: w.checkpoint.1.clone() });
            }
            out.push(Action::Send { conn, frame: peers.clone() });
            w.phase = Phase::Owes(0);
        }
    }

    /// A frame from worker `w`, which owes one: a checkpoint is kept, an
    /// abort is the job's end, and the owed frame reaches its barrier.
    fn reach(&mut self, w: usize, frame: Frame, out: &mut Vec<Action>) -> Result<()> {
        let rounds = self.rounds;
        let worker = &mut self.workers[w];
        let Phase::Owes(k) = worker.phase else {
            return Err(protocol(format!("worker {w}: expected nothing, got {frame:?}")));
        };
        match frame {
            frame @ Frame::Checkpoint { round, .. } => {
                worker.checkpoint = (round as usize, frame);
                return Ok(());
            }
            Frame::Abort { reason } => {
                return Err(protocol(format!("worker {w} aborted: {reason}")))
            }
            Frame::MeshReady if k == 0 => {}
            Frame::Ready { round } if k > 0 && k <= rounds && round as usize == k => {}
            Frame::Summary { output, per_round_bytes, per_round_tuples } if k == rounds + 1 => {
                let traffic = Vec::new();
                worker.summary =
                    Some(WorkerSummary { output, per_round_bytes, per_round_tuples, traffic });
            }
            other => {
                return Err(protocol(format!("worker {w}: at barrier {k}, got {other:?}")));
            }
        }
        worker.phase = Phase::At(k);
        if k < self.round {
            // A replacement catching up: the others passed this barrier.
            self.release(w, k, out);
        }
        self.advance(out);
        Ok(())
    }

    /// Release worker `w` from barrier `k`: `Proceed(k)`, or `Shutdown`
    /// after the summaries. Barrier 0 leads to the round after the
    /// worker's checkpoint: round 1, or a replacement's restored round + 1.
    fn release(&mut self, w: usize, k: usize, out: &mut Vec<Action>) {
        let worker = &mut self.workers[w];
        let conn = worker.conn.expect("a worker at a barrier is connected");
        let frame =
            if k <= self.rounds { Frame::Proceed { round: k as u32 } } else { Frame::Shutdown };
        out.push(Action::Send { conn, frame });
        worker.phase = Phase::Owes(if k == 0 { worker.checkpoint.0 + 1 } else { k + 1 });
    }

    /// Release the cluster's barrier once every worker reached it — a
    /// replacement restored past it counts — and end the job after the
    /// last one.
    fn advance(&mut self, out: &mut Vec<Action>) {
        let last = self.rounds + usize::from(self.job.is_some());
        loop {
            let r = self.round;
            let reached = |w: &Member| match w.phase {
                Phase::At(k) => k >= r,
                Phase::Owes(k) => k > r,
                _ => false,
            };
            if !self.workers.iter().all(reached) {
                return;
            }
            for w in 0..self.workers.len() {
                if self.workers[w].phase == Phase::At(r) {
                    self.release(w, r, out);
                }
            }
            self.round += 1;
            if r == last {
                self.done = true;
                let summaries = self.workers.iter_mut().filter_map(|w| w.summary.take());
                out.push(Action::Finish(Ok(summaries.collect())));
                return;
            }
        }
    }

    /// Worker `w` is gone, as `why` says: re-spawn it after the back-off,
    /// or fail.
    fn died(&mut self, w: usize, why: String) -> Result<()> {
        match self.workers[w].phase {
            // Already being replaced.
            Phase::Spawn { .. } => return Ok(()),
            // The mesh forms around it, or it is a replacement catching up.
            Phase::Owes(k) | Phase::At(k) if self.round == 0 || k < self.round => {
                return Err(protocol(why));
            }
            _ => {}
        }
        if self.respawns >= self.max_respawns {
            let budget = match self.max_respawns {
                0 => String::new(),
                max => format!(", and all {max} respawns are used"),
            };
            return Err(protocol(format!("{why}{budget}")));
        }
        let at = self.now + respawn_pause(self.respawns);
        self.respawns += 1;
        let note = format!("{why}; re-spawning (respawn {}/{})", self.respawns, self.max_respawns);
        let worker = &mut self.workers[w];
        worker.conn = None;
        worker.phase = Phase::Spawn { at, replacing: Some(note) };
        Ok(())
    }

    /// Start the workers whose time came, and fail on any that did not
    /// say `Hello` in time.
    fn tick(&mut self, now: Duration, out: &mut Vec<Action>) -> Result<()> {
        self.now = now;
        let by = now + self.deadline;
        for (worker, w) in self.workers.iter_mut().enumerate() {
            if let Phase::Spawn { at, replacing } = &mut w.phase {
                if *at <= now {
                    out.push(Action::Spawn { worker, replacing: replacing.take() });
                    w.phase = Phase::Dialing { by };
                }
            }
        }
        let late = |w: &usize| matches!(self.workers[*w].phase, Phase::Dialing { by } if by < now);
        let late: Vec<usize> = (0..self.workers.len()).filter(late).collect();
        if late.is_empty() {
            Ok(())
        } else {
            Err(protocol(format!("workers {late:?} never dialed in")))
        }
    }
}

/// What a worker hears from the master, or reaches on its own.
#[derive(Debug)]
pub(crate) enum Input {
    /// It dialed in; its peers reach its data listener on this port.
    Hello(u16),
    /// A frame from the master.
    Frame(Frame),
    /// The control connection closed or failed, as the reason says.
    Closed(String),
    /// Its data mesh is formed.
    Meshed,
    /// Round `r` is done, with its checkpoint when the job recovers.
    RoundDone(usize, Option<Frame>),
    /// Its summary (spawned mode).
    Summary(Frame),
}

/// Whether a worker may go on.
#[derive(Debug)]
pub(crate) enum Go {
    /// Not yet.
    Wait,
    /// The peer table is in: form this data mesh.
    Mesh(Mesh),
    /// Released from the barrier it was at, or shut down.
    On,
}

/// The data mesh a worker forms, as the peer table and its checkpoint
/// decide.
#[derive(Debug)]
pub(crate) struct Mesh {
    /// The cluster size.
    pub(crate) p: usize,
    /// The peers it dials, with their addresses: the lower ids on a fresh
    /// mesh, every peer for a replacement.
    pub(crate) dial: Vec<(usize, String)>,
    /// How many peers dial in: the higher ids on a fresh mesh, none for a
    /// replacement (its peers are running already).
    pub(crate) accept: usize,
    /// What opens each dialed connection: `DataHello`, and for a
    /// replacement the `ReplayRequest` for the rounds after its checkpoint.
    pub(crate) hello: Vec<Frame>,
    /// The job's wire form (spawned mode).
    pub(crate) job: Option<String>,
    /// The checkpoint a replacement restores.
    pub(crate) restore: Option<RestorePoint>,
    /// Whether the job recovers: checkpoint every round, keep a replay
    /// log, let replaced peers rejoin.
    pub(crate) recovery: bool,
}

/// Where a worker is in the protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Awaits the peer table (after `Job` and a replacement's `Checkpoint`).
    Handshake,
    /// Forms the data mesh; no frame is due from the master.
    Meshing,
    /// Reached barrier `k`; awaits `Proceed(k)`.
    Barrier(usize),
    /// Runs a round; no frame is due from the master.
    Running,
    /// Sent its summary; awaits `Shutdown`.
    Summary,
}

/// The worker's side of one job. See the module docs.
pub(crate) struct Worker {
    id: usize,
    stage: Stage,
    job: Option<String>,
    /// A replacement's checkpoint, until the peer table is in.
    checkpoint: Option<Frame>,
}

impl Worker {
    /// The machine of worker `id`, before it dialed in.
    pub(crate) fn new(id: usize) -> Worker {
        Worker { id, stage: Stage::Handshake, job: None, checkpoint: None }
    }

    /// Whether a frame from the master is due: else the worker forms its
    /// mesh or runs a round, and the master speaks only to abort.
    pub(crate) fn awaits_master(&self) -> bool {
        !matches!(self.stage, Stage::Meshing | Stage::Running)
    }

    /// The one transition function: take `input`, return the frames to send
    /// the master and whether the worker may go on. An `Abort` is the
    /// master's reason as [`SimError::Aborted`]; any frame the stage does
    /// not await is a protocol error naming the stage.
    pub(crate) fn on(&mut self, input: Input) -> Result<(Vec<Frame>, Go)> {
        let (id, stage) = (self.id, self.stage);
        let (send, next, go) = match (stage, input) {
            (_, Input::Frame(Frame::Abort { reason })) => {
                return Err(SimError::Aborted(format!("master aborted: {reason}")).into());
            }
            (_, Input::Closed(why)) => return Err(protocol(format!("master {why} ({stage:?})"))),
            (Stage::Handshake, Input::Hello(data_port)) => {
                (vec![Frame::Hello { worker_id: id as u32, data_port }], stage, Go::Wait)
            }
            (Stage::Handshake, Input::Frame(Frame::Job { spec })) => {
                self.job = Some(spec);
                (vec![], stage, Go::Wait)
            }
            (Stage::Handshake, Input::Frame(checkpoint @ Frame::Checkpoint { .. })) => {
                self.checkpoint = Some(checkpoint);
                (vec![], stage, Go::Wait)
            }
            (Stage::Handshake, Input::Frame(Frame::Peers { peers })) => {
                (vec![], Stage::Meshing, Go::Mesh(self.mesh(peers)?))
            }
            (Stage::Meshing, Input::Meshed) => {
                (vec![Frame::MeshReady], Stage::Barrier(0), Go::Wait)
            }
            (Stage::Running, Input::RoundDone(r, checkpoint)) => {
                let ready = Frame::Ready { round: r as u32 };
                (checkpoint.into_iter().chain([ready]).collect(), Stage::Barrier(r), Go::Wait)
            }
            (Stage::Running, Input::Summary(summary)) => (vec![summary], Stage::Summary, Go::Wait),
            (Stage::Barrier(k), Input::Frame(Frame::Proceed { round })) if round as usize == k => {
                (vec![], Stage::Running, Go::On)
            }
            (Stage::Barrier(k), Input::Frame(Frame::Proceed { round })) => {
                return Err(protocol(format!(
                    "barrier skew: waiting on round {k}, master proceeded {round}"
                )));
            }
            (Stage::Summary, Input::Frame(Frame::Shutdown)) => (vec![], Stage::Running, Go::On),
            (_, input) => {
                return Err(protocol(format!("worker {id} ({stage:?}): unexpected {input:?}")));
            }
        };
        self.stage = next;
        Ok((send, go))
    }

    /// The mesh the peer table `peers` asks for: a replacement dials every
    /// peer and asks each to replay; a fresh worker dials the lower ids and
    /// accepts the higher ones.
    fn mesh(&mut self, peers: Vec<(u32, String)>) -> Result<Mesh> {
        let (id, p) = (self.id, peers.len());
        if id >= p {
            return Err(protocol(format!("worker {id} got a peer table of {p} entries")));
        }
        let mut addrs = vec![String::new(); p];
        for (peer, addr) in peers {
            let bad = || protocol(format!("peer table names bad worker {peer}"));
            *addrs.get_mut(peer as usize).ok_or_else(bad)? = addr;
        }
        let restore = match self.checkpoint.take() {
            Some(Frame::Checkpoint { round, relations, per_round_bytes, per_round_tuples }) => {
                let round = round as usize;
                Some(RestorePoint { round, relations, per_round_bytes, per_round_tuples })
            }
            _ => None,
        };
        let mut hello = vec![Frame::DataHello { from: id as u32 }];
        if let Some(point) = &restore {
            hello.push(Frame::ReplayRequest { from_round: point.round as u32 });
        }
        let (dial_below, accept) = if restore.is_some() { (p, 0) } else { (id, p - id - 1) };
        let dial = addrs.into_iter().enumerate().take(dial_below).filter(|(peer, _)| *peer != id);
        let recovery = self.job.as_deref().is_some_and(recovery_requested);
        let job = self.job.take();
        Ok(Mesh { p, dial: dial.collect(), accept, hello, job, restore, recovery })
    }
}

#[cfg(test)]
mod tests {
    //! A seeded simulator for both halves: the master and one worker
    //! machine per process, over in-memory control links and virtual
    //! time, driven the way `master::serve` and `transport::Control::wait`
    //! drive them. The data plane is reduced to the mesh: a process dials
    //! its peers' listeners (a dead one refuses) and says `MeshReady` once
    //! every peer it accepts dialed in. Nothing sleeps and nothing touches
    //! a socket; a seed decides which connections are accepted, which
    //! frames arrive and which meshes form in each driver round.

    use std::collections::VecDeque;

    use mpc_storage::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::fault::FaultPhase;

    const P: usize = 3;
    const ROUNDS: usize = 2;
    /// Virtual time per driver round.
    const STEP: Duration = Duration::from_millis(10);
    const DEADLINE: Duration = Duration::from_secs(1);
    /// Every case must end within this many events, and before a worker's
    /// dial to its master would have given up.
    const MAX_EVENTS: usize = 2_000;
    const MAX_TIME: Duration = Duration::from_secs(10);
    const SEEDS: u64 = 32;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(respawn_pause(0), Duration::from_millis(50));
        assert_eq!(respawn_pause(1), Duration::from_millis(100));
        assert_eq!(respawn_pause(2), Duration::from_millis(200));
        assert_eq!(respawn_pause(60), Duration::from_millis(1600), "exponent capped, no overflow");
    }

    /// One deviation from the honest protocol.
    #[derive(Clone, Debug)]
    enum Twist {
        /// Process number `life` of `worker` (0: the first) dies at `at`.
        /// A `Barrier(r)` death falls between the round's checkpoint and
        /// its `Ready`; a `RoundStart(r)` one before both.
        Kill { worker: usize, life: usize, at: FaultPhase },
        /// `worker`'s first process dies once its peer table is in, before
        /// it dials a peer.
        DiesMeshing(usize),
        /// When a replacement of `rejoiner` gets its peer table, the first
        /// process of `victim` — named in that table — dies.
        KillOnTable { rejoiner: usize, victim: usize },
        /// `worker` never checkpoints, so its replacement starts over.
        NoCheckpoints(usize),
        /// `worker`'s first process connects and never says a word.
        Mute(usize),
        /// A connection from no worker, which never says a word.
        Lurker,
        /// Process number `life` of `worker` says `Hello` as `claims`.
        Impostor { worker: usize, life: usize, claims: u32 },
        /// `worker`'s first process sends `frame` in place of `Ready(round)`.
        Sends { worker: usize, round: usize, frame: Frame },
        /// The master's `Proceed(round)` reaches `worker`'s first process
        /// as `Proceed(round + 1)`.
        Skews { worker: usize, round: usize },
        /// The master's driver fails on the frame that would complete
        /// barrier `k`.
        FailsAt(usize),
    }

    struct Proc {
        worker: usize,
        life: usize,
        alive: bool,
        /// Whether the master was told it is gone.
        mourned: bool,
        /// Its half of the protocol.
        machine: Worker,
        /// The mesh it forms, until it said `MeshReady`.
        mesh: Option<Mesh>,
        /// Whether it dialed the peers of its mesh.
        dialed: bool,
        /// How many peers dialed in.
        accepted: usize,
        /// Whether its job recovers (it checkpoints every round).
        recovery: bool,
        /// The round of the checkpoint it restored (0: a fresh start).
        resume: usize,
        /// The barrier it reached and awaits the release of.
        awaits: Option<usize>,
        /// How its machine failed.
        failed: Option<String>,
    }

    /// One connection: the frames on their way to the master, then maybe
    /// its close.
    #[derive(Default)]
    struct Link {
        owner: Option<usize>,
        frames: VecDeque<Frame>,
        closed: bool,
    }

    struct Sim {
        master: Master,
        spawned: bool,
        twists: Vec<Twist>,
        rng: StdRng,
        procs: Vec<Proc>,
        /// Each worker's latest process.
        latest: Vec<Option<usize>>,
        /// Every connection made, in order; the first `accepted` were.
        links: Vec<Link>,
        accepted: usize,
        /// The highest barrier some process of each worker reached; a
        /// checkpoint reaches its round.
        reached: Vec<Option<usize>>,
        /// Dials refused by a dead peer, whose link stayed down.
        refused: usize,
        queue: VecDeque<Event>,
        events: usize,
        outcome: Option<Result<Vec<WorkerSummary>>>,
    }

    impl Sim {
        fn new(spawned: bool, budget: usize, twists: &[Twist], seed: u64) -> Sim {
            let recovery = if budget > 0 { "recovery=1\n" } else { "" };
            let job = spawned.then(|| format!("the job\n{recovery}"));
            let mut sim = Sim {
                master: Master::new(P, ROUNDS, job, budget, DEADLINE),
                spawned,
                twists: twists.to_vec(),
                rng: StdRng::seed_from_u64(seed),
                procs: Vec::new(),
                latest: vec![None; P],
                links: Vec::new(),
                accepted: 0,
                reached: vec![None; P],
                refused: 0,
                queue: VecDeque::new(),
                events: 0,
                outcome: None,
            };
            if twists.iter().any(|t| matches!(t, Twist::Lurker)) {
                sim.links.push(Link::default());
            }
            if !spawned {
                (0..P).for_each(|w| sim.start(w));
            }
            sim
        }

        fn dies(&self, worker: usize, life: usize, phase: FaultPhase) -> bool {
            let kill = |t: &Twist| matches!(*t, Twist::Kill { worker: w, life: l, at } if (w, l, at) == (worker, life, phase));
            self.twists.iter().any(kill)
        }

        /// The data port of process `life` of `worker`: a peer table
        /// holds the latest.
        fn port(worker: usize, life: usize) -> u16 {
            (7000 + 10 * worker + life) as u16
        }

        fn addr(worker: usize, life: usize) -> String {
            format!("10.0.0.1:{}", Sim::port(worker, life))
        }

        /// Start a process for `worker`, replacing (and killing) its last;
        /// it dials in and says `Hello`.
        fn start(&mut self, worker: usize) {
            let (me, life) =
                (self.procs.len(), self.procs.iter().filter(|p| p.worker == worker).count());
            if let Some(old) = self.latest[worker].replace(me) {
                self.kill(old);
            }
            let claims = self.twists.iter().find_map(|t| match *t {
                Twist::Impostor { worker: w, life: l, claims } if (w, l) == (worker, life) => {
                    Some(claims as usize)
                }
                _ => None,
            });
            self.procs.push(Proc {
                worker,
                life,
                alive: true,
                mourned: false,
                machine: Worker::new(claims.unwrap_or(worker)),
                mesh: None,
                dialed: false,
                accepted: 0,
                recovery: false,
                resume: 0,
                awaits: None,
                failed: None,
            });
            if self.dies(worker, life, FaultPhase::Handshake) {
                self.procs[me].alive = false;
                return;
            }
            self.links.push(Link { owner: Some(me), ..Link::default() });
            let mute = life == 0
                && self.twists.iter().any(|t| matches!(*t, Twist::Mute(w) if w == worker));
            if !mute {
                self.input(me, Input::Hello(Sim::port(worker, life)));
            }
        }

        fn kill(&mut self, me: usize) {
            self.procs[me].alive = false;
            if let Some(link) = self.links.iter_mut().find(|l| l.owner == Some(me)) {
                link.closed = true;
            }
        }

        fn push(&mut self, me: usize, frame: Frame) {
            let link = self.links.iter_mut().find(|l| l.owner == Some(me)).expect("a link");
            link.frames.push_back(frame);
        }

        /// The barrier a frame reaches.
        fn barrier(frame: &Frame) -> Option<usize> {
            match frame {
                Frame::MeshReady => Some(0),
                Frame::Ready { round } => Some(*round as usize),
                Frame::Summary { .. } => Some(ROUNDS + 1),
                _ => None,
            }
        }

        /// Process `me`'s machine takes `input`. What it sends goes on its
        /// link, unless the process dies on the way; a failure ends the
        /// process, as it ends a real worker; and where the machine lets it
        /// go on, it does.
        fn input(&mut self, me: usize, input: Input) {
            let (w, life) = (self.procs[me].worker, self.procs[me].life);
            let (frames, go) = match self.procs[me].machine.on(input) {
                Ok(decided) => decided,
                Err(e) => {
                    self.procs[me].failed = Some(e.to_string());
                    return self.kill(me);
                }
            };
            for frame in frames {
                let dies = match frame {
                    Frame::Ready { round } => self.dies(w, life, FaultPhase::Barrier(round)),
                    Frame::Summary { .. } => self.dies(w, life, FaultPhase::Summary),
                    _ => false,
                };
                if dies {
                    return self.kill(me);
                }
                if let Frame::Checkpoint { round, .. } = frame {
                    self.reached[w] = self.reached[w].max(Some(round as usize));
                }
                if let Some(k) = Sim::barrier(&frame) {
                    self.reached[w] = self.reached[w].max(Some(k));
                    self.procs[me].awaits = Some(k);
                }
                self.push(me, frame);
            }
            match go {
                Go::Wait => {}
                Go::Mesh(mesh) => self.meshing(me, mesh),
                Go::On => {
                    let k = self.procs[me].awaits.take().expect("released from a barrier reached");
                    assert!(
                        self.reached.iter().all(|r| *r >= Some(k)),
                        "{k} early: {:?}",
                        self.reached
                    );
                    match k {
                        0 => self.enter(me, self.procs[me].resume + 1),
                        k if k <= ROUNDS => self.enter(me, k + 1),
                        _ => {}
                    }
                }
            }
        }

        /// Process `me` has its peer table: it forms `mesh` in a later
        /// driver round, unless it dies first.
        fn meshing(&mut self, me: usize, mesh: Mesh) {
            let (w, life) = (self.procs[me].worker, self.procs[me].life);
            let proc = &mut self.procs[me];
            proc.resume = mesh.restore.as_ref().map_or(0, |point| point.round);
            proc.recovery = mesh.recovery;
            proc.mesh = Some(mesh);
            if life == 0
                && self.twists.iter().any(|t| matches!(*t, Twist::DiesMeshing(v) if v == w))
            {
                return self.kill(me);
            }
            let victim = self.twists.iter().find_map(|t| match *t {
                Twist::KillOnTable { rejoiner, victim } if rejoiner == w && life > 0 => {
                    Some(victim)
                }
                _ => None,
            });
            if let Some(victim) = victim.and_then(|v| self.latest[v]) {
                if self.procs[victim].life == 0 {
                    self.kill(victim);
                }
            }
        }

        /// Process `me` forms its mesh: it dials its peers — a dead one
        /// refuses, and its link stays down — and says `MeshReady` once
        /// every peer it accepts dialed in.
        fn mesh_step(&mut self, me: usize) {
            let Some(mesh) = &self.procs[me].mesh else { return };
            if !self.procs[me].dialed {
                let listening = |addr: &String| {
                    let named = |p: &Proc| p.alive && Sim::addr(p.worker, p.life) == *addr;
                    self.procs.iter().position(named)
                };
                let reached: Vec<usize> =
                    mesh.dial.iter().filter_map(|(_, a)| listening(a)).collect();
                self.refused += mesh.dial.len() - reached.len();
                reached.into_iter().for_each(|peer| self.procs[peer].accepted += 1);
                self.procs[me].dialed = true;
            }
            let mesh = self.procs[me].mesh.as_ref().expect("still forming");
            if self.procs[me].accepted >= mesh.accept {
                self.procs[me].mesh = None;
                self.input(me, Input::Meshed);
            }
        }

        /// Process `me` works through round `n` — or, past the last, its
        /// summary — unless it dies on the way.
        fn enter(&mut self, me: usize, n: usize) {
            let (w, life) = (self.procs[me].worker, self.procs[me].life);
            if n > ROUNDS {
                let (output, per_round_bytes) = (Relation::empty("out", 1), vec![w as u64; ROUNDS]);
                let per_round_tuples = Vec::new();
                let summary = Frame::Summary { output, per_round_bytes, per_round_tuples };
                // Threads report no summary: the master is done already.
                if self.spawned {
                    self.input(me, Input::Summary(summary));
                }
                return;
            }
            if self.dies(w, life, FaultPhase::RoundStart(n as u32)) {
                return self.kill(me);
            }
            let sends = self.twists.iter().find_map(|t| match t {
                Twist::Sends { worker, round, frame } if (*worker, *round, life) == (w, n, 0) => {
                    Some(frame.clone())
                }
                _ => None,
            });
            if let Some(frame) = sends {
                return self.push(me, frame);
            }
            let quiet = self.twists.iter().any(|t| matches!(*t, Twist::NoCheckpoints(q) if q == w));
            let checkpoint = (self.procs[me].recovery && !quiet).then(|| {
                let (relations, per_round_bytes, per_round_tuples) = (vec![], vec![], vec![]);
                Frame::Checkpoint { round: n as u32, relations, per_round_bytes, per_round_tuples }
            });
            self.input(me, Input::RoundDone(n, checkpoint));
        }

        /// The master writes `frame` on `conn`.
        fn deliver(&mut self, conn: usize, mut frame: Frame) {
            let Some(me) = self.links[conn].owner else { return };
            if !self.procs[me].alive {
                // A write to a dead process fails, or vanishes unread.
                if self.rng.gen_bool(0.5) {
                    self.queue.push_back(Event::Closed { conn, why: "broken pipe".to_string() });
                }
                return;
            }
            if let Frame::Peers { peers } = &frame {
                // No address in the table is one the master knows dead.
                for (v, addr) in peers {
                    let named =
                        |p: &&Proc| p.worker == *v as usize && Sim::addr(p.worker, p.life) == *addr;
                    let named = self.procs.iter().find(named).expect("a process's address");
                    assert!(!named.mourned, "a stale address: {addr}");
                }
            }
            let (w, life) = (self.procs[me].worker, self.procs[me].life);
            if let Frame::Proceed { round } = &mut frame {
                let skew = |t: &Twist| matches!(*t, Twist::Skews { worker, round: r } if (worker, r, 0) == (w, *round as usize, life));
                if self.twists.iter().any(skew) {
                    *round += 1;
                }
            }
            self.input(me, Input::Frame(frame));
        }

        fn feed(&mut self, event: Event) {
            self.queue.push_back(event);
            while let Some(event) = self.queue.pop_front() {
                let gone = match event {
                    Event::Closed { conn, .. } => self.links[conn].owner,
                    Event::Exited { worker, .. } => self.latest[worker],
                    _ => None,
                };
                if let Some(me) = gone {
                    self.procs[me].mourned = true;
                }
                self.events += 1;
                assert!(self.events <= MAX_EVENTS, "no end within {MAX_EVENTS} events");
                for action in self.master.on(event) {
                    match action {
                        Action::Send { conn, frame } => self.deliver(conn, frame),
                        Action::Spawn { worker, replacing } => {
                            assert_eq!(replacing.is_some(), self.latest[worker].is_some());
                            self.start(worker);
                        }
                        Action::Finish(outcome) => {
                            assert!(self.outcome.replace(outcome).is_none(), "finished twice");
                        }
                    }
                }
            }
        }

        /// Whether `frame`, read off a link, is the one the master's driver
        /// fails on: it would complete barrier `k` of a `FailsAt(k)`.
        fn garbled(&self, frame: &Frame) -> Option<NetError> {
            let k = Sim::barrier(frame)?;
            let fails = self.twists.iter().any(|t| matches!(*t, Twist::FailsAt(b) if b == k));
            let complete = self.reached.iter().all(|r| *r >= Some(k));
            (fails && complete).then(|| protocol(format!("a garbled frame at barrier {k}")))
        }

        /// Drive both halves to the end: per round a tick, the exited
        /// processes, the waiting connections, the awaited frames and the
        /// meshes being formed.
        fn run(&mut self) -> Result<Vec<WorkerSummary>> {
            let mut now = Duration::ZERO;
            loop {
                assert!(now < MAX_TIME, "no end within {MAX_TIME:?}");
                self.feed(Event::Tick(now));
                let processes = if self.spawned { 0..P } else { 0..0 };
                for w in processes {
                    // A process takes a while to die: its last frames may
                    // still be read first.
                    let dead = self.latest[w].is_some_and(|me| !self.procs[me].alive);
                    if dead && self.rng.gen_bool(0.5) {
                        self.feed(Event::Exited { worker: w, status: "signal: 9".to_string() });
                    }
                }
                while self.master.accepting() && self.accepted < self.links.len() {
                    if self.rng.gen_bool(0.2) {
                        break;
                    }
                    self.accepted += 1;
                    self.feed(Event::Accepted { host: "10.0.0.1".to_string() });
                }
                let mut arrived = Vec::new();
                for conn in self.master.awaited() {
                    if self.rng.gen_bool(0.3) {
                        continue;
                    }
                    let link = &mut self.links[conn];
                    if let Some(frame) = link.frames.pop_front() {
                        let garbled = self.garbled(&frame);
                        arrived.push(garbled.map_or(Event::Frame { conn, frame }, Event::Failed));
                    } else if link.closed {
                        let why = "control connection closed".to_string();
                        arrived.push(Event::Closed { conn, why });
                    }
                }
                arrived.into_iter().for_each(|event| self.feed(event));
                for me in 0..self.procs.len() {
                    if self.procs[me].alive && self.rng.gen_bool(0.5) {
                        self.mesh_step(me);
                    }
                }
                if let Some(outcome) = self.outcome.take() {
                    return outcome;
                }
                now += STEP;
            }
        }
    }

    fn kill(worker: usize, life: usize, at: FaultPhase) -> Twist {
        Twist::Kill { worker, life, at }
    }

    /// Under every seed the job ends with each worker's summary, after
    /// `respawns` re-spawns, and no worker's machine failed. Returns the
    /// simulations.
    fn ends_well(spawned: bool, budget: usize, twists: &[Twist], respawns: usize) -> Vec<Sim> {
        let run = |seed| {
            let mut sim = Sim::new(spawned, budget, twists, seed);
            let summaries = sim.run().unwrap_or_else(|e| panic!("{twists:?}, seed {seed}: {e}"));
            let ids: Vec<u64> = summaries.iter().map(|s| s.per_round_bytes[0]).collect();
            let expected: Vec<u64> = (0..P as u64).filter(|_| spawned).collect();
            assert_eq!(ids, expected, "{twists:?}, seed {seed}");
            assert_eq!(sim.master.respawns(), respawns, "{twists:?}, seed {seed}");
            let failed: Vec<&String> = sim.procs.iter().filter_map(|p| p.failed.as_ref()).collect();
            assert!(failed.is_empty(), "{twists:?}, seed {seed}: {failed:?}");
            sim
        };
        (0..SEEDS).map(run).collect()
    }

    /// Under every seed the job fails with an error saying each of `says`,
    /// and every worker's machine that failed ended with the master's
    /// reason — or with the barrier skew a `Skews` twist injects: a release
    /// from a barrier the worker is not at fails every case. Returns the
    /// simulations.
    fn fails(spawned: bool, budget: usize, twists: &[Twist], says: &[&str]) -> Vec<Sim> {
        let skews: Vec<String> = twists
            .iter()
            .filter_map(|t| match *t {
                Twist::Skews { round, .. } => Some(format!(
                    "barrier skew: waiting on round {round}, master proceeded {}",
                    round + 1
                )),
                _ => None,
            })
            .collect();
        let run = |seed| {
            let mut sim = Sim::new(spawned, budget, twists, seed);
            let outcome = sim.run();
            let err =
                outcome.map(|_| ()).expect_err(&format!("{twists:?} seed {seed}")).to_string();
            for said in says {
                assert!(err.contains(said), "{twists:?}, seed {seed}: {err}");
            }
            let aborted = format!("master aborted: {err}");
            for failed in sim.procs.iter().filter_map(|p| p.failed.as_ref()) {
                let skewed = skews.iter().any(|skew| failed.contains(skew.as_str()));
                assert!(failed.ends_with(&aborted) || skewed, "{twists:?}, seed {seed}: {failed}");
            }
            sim
        };
        (0..SEEDS).map(run).collect()
    }

    /// How each worker's latest process ended, if its machine failed.
    fn failures(sim: &Sim) -> Vec<Option<&str>> {
        sim.latest.iter().map(|me| me.and_then(|me| sim.procs[me].failed.as_deref())).collect()
    }

    #[test]
    fn a_clean_job_releases_every_barrier_once() {
        ends_well(true, 0, &[], 0);
        ends_well(true, 2, &[], 0);
        ends_well(false, 0, &[], 0);
    }

    #[test]
    fn a_death_at_every_phase_recovers_on_a_budget_and_fails_without() {
        let phases = [
            FaultPhase::Handshake,
            FaultPhase::RoundStart(1),
            FaultPhase::Barrier(1),
            FaultPhase::RoundStart(2),
            FaultPhase::Barrier(2),
            FaultPhase::Summary,
        ];
        for (i, at) in phases.into_iter().enumerate() {
            let w = i % P;
            ends_well(true, 2, &[kill(w, 0, at)], 1);
            let says = format!("worker {w} ");
            fails(true, 0, &[kill(w, 0, at)], &[&says]);
            if !matches!(at, FaultPhase::Handshake | FaultPhase::Summary) {
                fails(false, 0, &[kill(w, 0, at)], &[&says]);
            }
        }
        // A worker thread that never dials in is named at the deadline.
        fails(false, 0, &[kill(1, 0, FaultPhase::Handshake)], &["workers [1] never dialed in"]);
    }

    #[test]
    fn two_deaths_in_one_round_need_two_respawns() {
        for round in [1, 2] {
            let at = FaultPhase::RoundStart(round);
            let twists = [kill(1, 0, at), kill(2, 0, at)];
            fails(true, 1, &twists, &["and all 1 respawns are used"]);
            ends_well(true, 2, &twists, 2);
        }
    }

    #[test]
    fn a_replacement_catches_up_alone_and_its_death_there_is_fatal() {
        let died = kill(1, 0, FaultPhase::RoundStart(2));
        ends_well(true, 2, &[Twist::NoCheckpoints(1), died.clone()], 1);
        let again = kill(1, 1, FaultPhase::RoundStart(1));
        let twists = [Twist::NoCheckpoints(1), died, again];
        fails(true, 2, &twists, &["worker 1 "]);
        let err = Sim::new(true, 2, &twists, 0).run().map(|_| ()).expect_err("fatal").to_string();
        assert!(!err.contains("respawns are used"), "not a budget matter: {err}");
    }

    /// A worker that checkpointed round 1 and died before its `Ready(1)`
    /// is replaced from that checkpoint: the replacement is past barrier
    /// 1, which is released without it. Depending on what the master read
    /// before it saw the death, the replacement restores round 0 or 1;
    /// the seeds see both.
    #[test]
    fn a_replacement_restored_past_the_barrier_is_not_released_from_it() {
        let sims = ends_well(true, 2, &[kill(1, 0, FaultPhase::Barrier(1))], 1);
        let restored = |sim: &Sim| sim.procs.iter().find(|p| p.life == 1).map(|p| p.resume);
        let mut rounds: Vec<usize> = sims.iter().filter_map(restored).collect();
        rounds.sort_unstable();
        rounds.dedup();
        assert_eq!(rounds, vec![0, 1]);
    }

    #[test]
    fn a_silent_connection_holds_up_nothing_but_its_worker() {
        ends_well(true, 0, &[Twist::Lurker], 0);
        fails(true, 2, &[Twist::Mute(1)], &["workers [1] never dialed in"]);
        fails(false, 0, &[Twist::Mute(1)], &["workers [1] never dialed in"]);
    }

    #[test]
    fn hellos_out_of_range_or_for_a_connected_worker_are_refused() {
        let impostor = |life, claims| [Twist::Impostor { worker: 1, life, claims }];
        fails(true, 0, &impostor(0, 7), &["worker 7, but the cluster has 3 workers"]);
        fails(true, 0, &impostor(0, 0), &["worker 0, which is already connected"]);
        let impostor = Twist::Impostor { worker: 1, life: 1, claims: 2 };
        let twists = [kill(1, 0, FaultPhase::RoundStart(1)), impostor];
        fails(true, 1, &twists, &["worker 2, which is already connected"]);
    }

    #[test]
    fn a_ready_for_the_wrong_round_is_refused() {
        let frame = Frame::Ready { round: 2 };
        let twists = [Twist::Sends { worker: 1, round: 1, frame }];
        fails(true, 2, &twists, &["worker 1: at barrier 1, got Ready { round: 2 }"]);
    }

    #[test]
    fn a_worker_sent_abort_ends_the_job_with_its_reason() {
        let frame = Frame::Abort { reason: "disk full".to_string() };
        let twists = [Twist::Sends { worker: 1, round: 2, frame }];
        fails(true, 2, &twists, &["worker 1 aborted: disk full"]);
        fails(false, 0, &twists, &["worker 1 aborted: disk full"]);
    }

    /// A peer that dies before it dials leaves the workers that accept
    /// from it waiting: the master fails the job — a death while the mesh
    /// forms is fatal, whatever the budget — and its `Abort` ends their
    /// wait with its reason.
    #[test]
    fn a_peer_that_never_dials_fails_the_mesh_and_every_waiter_hears_why() {
        for (spawned, budget) in [(true, 2), (false, 0)] {
            for sim in fails(spawned, budget, &[Twist::DiesMeshing(2)], &["worker 2 "]) {
                let waiting = &failures(&sim)[..2];
                assert!(waiting.iter().all(|f| f.is_some_and(|f| f.contains("master aborted"))));
            }
        }
    }

    /// A replacement's peer table names a worker that dies before the
    /// replacement dials it. Its dial is refused and the link stays down —
    /// no dial is waited out — while the master re-spawns the dead worker,
    /// whose own replacement dials in: the job recovers on a budget of two,
    /// and on a budget of one fails naming the dead worker.
    #[test]
    fn a_rejoin_whose_peer_then_dies_recovers_on_two_respawns_and_fails_on_one() {
        let twists =
            [kill(1, 0, FaultPhase::RoundStart(2)), Twist::KillOnTable { rejoiner: 1, victim: 2 }];
        let sims = ends_well(true, 2, &twists, 2);
        assert!(sims.iter().all(|sim| sim.refused == 1), "the dead peer refused one dial");
        fails(true, 1, &twists, &["worker 2 ", "and all 1 respawns are used"]);
    }

    #[test]
    fn a_proceed_for_the_wrong_round_fails_the_worker() {
        let twists = [Twist::Skews { worker: 1, round: 1 }];
        for sim in fails(true, 0, &twists, &["worker 1 "]) {
            let why = "barrier skew: waiting on round 1, master proceeded 2";
            assert!(failures(&sim)[1].is_some_and(|f| f.contains(why)), "{:?}", failures(&sim));
        }
    }

    /// The master fails on the frame that completes barrier `k`: its
    /// `Abort` ends every worker's wait there with the master's reason.
    fn an_abort_at(spawned: bool, k: usize) {
        let says = format!("a garbled frame at barrier {k}");
        for sim in fails(spawned, 0, &[Twist::FailsAt(k)], &[&says]) {
            for failed in failures(&sim) {
                assert!(failed.is_some_and(|f| f.contains("master aborted")), "{k}: {failed:?}");
            }
        }
    }

    /// Spawned barrier `ROUNDS + 1` is the summaries': its `Abort` comes in
    /// place of `Shutdown`.
    #[test]
    fn an_abort_at_every_barrier_ends_every_wait_with_the_masters_reason() {
        (0..=ROUNDS + 1).for_each(|k| an_abort_at(true, k));
        (0..=ROUNDS).for_each(|k| an_abort_at(false, k));
    }
}
