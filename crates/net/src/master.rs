//! The master control plane and the spawned-process execution mode.
//!
//! The coordination pattern follows the distributed-FDB design: a master
//! owns one control connection per worker and drives the job through a
//! fixed state machine —
//!
//! ```text
//! worker            master
//!   Hello{id, data_port}  ───▶
//!   ◀───  Job{spec}              (spawned mode only)
//!   ◀───  Checkpoint{...}        (recovery re-spawn only)
//!   ◀───  Peers{addr table}
//!   ... mesh-connect to peers (DataHello [+ ReplayRequest]) ...
//!   MeshReady  ───▶
//!   ◀───  Proceed(0)             (all meshed: the job starts)
//!   Checkpoint(r)  ───▶          (recovery runs, every round)
//!   Ready(r)  ───▶               (each round)
//!   ◀───  Proceed(r)
//!   Summary{output, volumes}  ───▶   (spawned mode only)
//!   ◀───  Shutdown
//! ```
//!
//! with `Abort` valid in either direction at any time. Each step has one
//! routine: one dial-in accept with one `Hello` check (for the handshake
//! and for a replacement alike), one barrier loop, one summary
//! collection and one respawn. The master polls every control socket
//! with a short read timeout while it waits, so a worker process dying
//! (its socket closing) surfaces fast instead of deadlocking the barrier.
//!
//! What happens next depends on [`MasterConfig::max_respawns`]: by
//! default the master broadcasts `Abort` and fails the job (fail-fast).
//! Above zero it instead re-spawns the dead worker from the same
//! [`JobSpec`], restores it from the latest [`Frame::Checkpoint`] it
//! holds for that worker, lets it rejoin the data mesh (surviving peers
//! replay the in-flight rounds from their bounded logs), drives its solo
//! catch-up barriers, and resumes the cluster-wide barrier protocol —
//! the recovered run produces a byte-identical [`RunResult`]. When the
//! respawn budget is exhausted the master falls back to the abort.
//!
//! [`run_spawned`] / [`run_spawned_with`] are the top of the stack: they
//! spawn one `mpc_workerd` OS process per server over localhost, serve
//! the control plane, and fold the workers' summaries into the same
//! [`RunResult`] as [`mpc_sim::Cluster::run`]. [`worker_main`] is the
//! matching worker-side entry point, rebuilding the job from its
//! [`JobSpec`] wire form.

use std::io::{BufReader, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use mpc_sim::{fold_summaries, BlockPool, RunResult, Transport as _, WorkerSummary};

use crate::fault::{FaultPhase, FaultPlan};
use crate::frame::{poll_frame, read_frame, write_frame, Frame, Polled};
use crate::recovery::{respawn_pause, MasterConfig};
use crate::runner::{run_tcp_worker, tcp_worker_setup};
use crate::spec::JobSpec;
use crate::{NetError, Result};

/// How long the master waits for all workers to dial in before declaring
/// the job dead (covers a worker binary that fails to start). Also the
/// budget for a recovery replacement to dial back in.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// How the master waits while no worker is dialing in: it yields for the
/// first `ACCEPT_YIELDS` empty polls after each connection, then sleeps,
/// doubling from `ACCEPT_PAUSE_MIN` up to `ACCEPT_PAUSE_CAP`. Workers on
/// threads of this process dial in within microseconds, so a fixed sleep
/// would idle the CPU for its whole length on every job — the one stretch
/// of a threaded run whose length the machine's timer latency decides —
/// while worker processes that take their time to start must be awaited
/// without spinning.
const ACCEPT_YIELDS: u32 = 64;
const ACCEPT_PAUSE_MIN: Duration = Duration::from_micros(50);
const ACCEPT_PAUSE_CAP: Duration = Duration::from_millis(5);

/// Give way after the `idle_polls`-th consecutive empty poll of the
/// accept socket.
fn accept_pause(idle_polls: u32) {
    match idle_polls.checked_sub(ACCEPT_YIELDS) {
        None => std::thread::yield_now(),
        // Seven doublings already pass the cap.
        Some(doublings) => {
            std::thread::sleep((ACCEPT_PAUSE_MIN * (1 << doublings.min(7))).min(ACCEPT_PAUSE_CAP));
        }
    }
}

/// The poll interval while waiting on worker control frames: short enough
/// that a dead worker fails the job promptly, long enough not to spin.
const POLL: Duration = Duration::from_millis(25);

/// One worker's control connection, reads buffered.
type Control = BufReader<TcpStream>;

fn unexpected(id: usize, what: &str, got: &Frame) -> NetError {
    NetError::Protocol(format!("worker {id}: expected {what}, got {got:?}"))
}

/// The worker processes of a spawned job and what the master needs to
/// replace one: the listener a replacement dials back in on, the job
/// wire form to re-send, and the respawn budget.
pub(crate) struct Recoverer<'a> {
    listener: &'a TcpListener,
    job_wire: &'a str,
    worker_bin: &'a Path,
    faults: Option<&'a FaultPlan>,
    children: Vec<Child>,
    max_respawns: usize,
    used: usize,
}

impl Recoverer<'_> {
    /// Start worker `id` (`worker_bin --master ADDR --worker ID`), armed
    /// with its faults when `with_faults`; replacements always run clean.
    fn spawn(&self, id: usize, with_faults: bool) -> Result<Child> {
        let mut cmd = Command::new(self.worker_bin);
        cmd.arg("--master").arg(self.listener.local_addr()?.to_string());
        cmd.arg("--worker").arg(id.to_string());
        let faults = self.faults.filter(|_| with_faults);
        for fault in faults.iter().flat_map(|plan| plan.for_worker(id as u32)) {
            cmd.arg("--fault").arg(fault);
        }
        Ok(cmd.stdin(Stdio::null()).spawn()?)
    }

    /// The first worker process found exited, if any.
    fn exited(&mut self) -> Option<(usize, ExitStatus)> {
        self.children
            .iter_mut()
            .enumerate()
            .find_map(|(id, child)| child.try_wait().ok().flatten().map(|status| (id, status)))
    }

    /// Replace dead worker `id` with a fresh process — the one respawn
    /// path, for a death during the handshake and mid-job alike — or fail
    /// with `why` once the budget is spent.
    fn respawn(&mut self, id: usize, why: &str) -> Result<()> {
        if self.used >= self.max_respawns {
            let budget = match self.max_respawns {
                0 => String::new(),
                max => format!(", and all {max} respawns are used"),
            };
            return Err(NetError::Protocol(format!("{why}{budget}")));
        }
        std::thread::sleep(respawn_pause(self.used));
        self.used += 1;
        eprintln!(
            "mpc-net master: {why}; re-spawning (respawn {}/{})",
            self.used, self.max_respawns
        );
        let replacement = self.spawn(id, false)?;
        let mut dead = std::mem::replace(&mut self.children[id], replacement);
        let _ = dead.kill();
        let _ = dead.wait();
        Ok(())
    }
}

/// The master's side of the protocol: `p` control connections, indexed
/// by worker id, plus the per-worker recovery state (current data
/// addresses and latest checkpoints).
pub(crate) struct ControlPlane {
    workers: Vec<Control>,
    /// Current data-plane address of each worker (replacements update
    /// their slot, so later recoveries hand out a live peer table).
    addrs: Vec<String>,
    /// Latest `Frame::Checkpoint` seen from each worker, with its round.
    checkpoints: Vec<Option<(usize, Frame)>>,
    pool: BlockPool,
}

impl ControlPlane {
    fn new(p: usize) -> ControlPlane {
        ControlPlane {
            workers: Vec::with_capacity(p),
            addrs: vec![String::new(); p],
            checkpoints: (0..p).map(|_| None).collect(),
            pool: BlockPool::new(),
        }
    }

    /// Accept `p` worker hellos on `listener`, hand each the `job` spec
    /// (spawned mode), broadcast the peer address table, collect every
    /// `MeshReady` and release the cluster with `Proceed(0)`.
    ///
    /// `watch` runs while nobody is dialing in; an error from it fails the
    /// handshake (the spawned mode uses it to notice a worker process
    /// dying before it ever dials in — and, budget permitting, to
    /// re-spawn it on the spot).
    ///
    /// # Errors
    ///
    /// Fails (after aborting every connected worker) when a worker never
    /// dials in before the deadline, dies mid-handshake or violates the
    /// protocol.
    pub(crate) fn accept(
        listener: &TcpListener,
        p: usize,
        job: Option<&str>,
        watch: &mut dyn FnMut() -> Result<()>,
    ) -> Result<ControlPlane> {
        let mut plane = ControlPlane::new(p);
        match plane.handshake(listener, job, watch) {
            Ok(()) => Ok(plane),
            Err(e) => Err(plane.fail(format!("handshake failed: {e}"), e)),
        }
    }

    fn handshake(
        &mut self,
        listener: &TcpListener,
        job: Option<&str>,
        watch: &mut dyn FnMut() -> Result<()>,
    ) -> Result<()> {
        let p = self.addrs.len();
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        let mut slots: Vec<Option<Control>> = (0..p).map(|_| None).collect();
        let mut connected = vec![false; p];
        for _ in 0..p {
            let (id, control, addr) =
                self.accept_hello(listener, &connected, job, deadline, watch)?;
            connected[id] = true;
            slots[id] = Some(control);
            self.addrs[id] = addr;
        }
        self.workers = slots.into_iter().flatten().collect();
        let peers = self.peer_table();
        self.broadcast(&peers)?;
        for id in 0..p {
            self.await_from(id, |f| matches!(f, Frame::MeshReady), "MeshReady")?;
        }
        self.broadcast(&Frame::Proceed { round: 0 })
    }

    /// Accept the next worker on `listener` and check its `Hello` — the
    /// one dial-in routine, for the handshake and for a replacement alike.
    /// The accept is non-blocking, paced by [`accept_pause`] and bounded
    /// by `deadline`, and runs `watch` while nobody dials in. The `Hello`
    /// must name a worker of the cluster that is not `connected` yet.
    /// Hands the worker the `job` spec (spawned mode) and returns its id,
    /// control connection and data-plane address.
    fn accept_hello(
        &self,
        listener: &TcpListener,
        connected: &[bool],
        job: Option<&str>,
        deadline: Instant,
        watch: &mut dyn FnMut() -> Result<()>,
    ) -> Result<(usize, Control, String)> {
        listener.set_nonblocking(true)?;
        let mut idle_polls = 0u32;
        let (stream, peer) = loop {
            match listener.accept() {
                Ok(conn) => break conn,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    watch()?;
                    if Instant::now() > deadline {
                        let missing: Vec<usize> =
                            (0..connected.len()).filter(|&id| !connected[id]).collect();
                        return Err(NetError::Protocol(format!(
                            "workers {missing:?} never dialed in"
                        )));
                    }
                    accept_pause(idle_polls);
                    idle_polls = idle_polls.saturating_add(1);
                }
                Err(e) => return Err(e.into()),
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true).ok();
        let mut control = BufReader::new(stream);
        let (id, data_port) = match read_frame(&mut control, &self.pool)? {
            Frame::Hello { worker_id, data_port } => (worker_id as usize, data_port),
            other => return Err(NetError::Protocol(format!("expected Hello, got {other:?}"))),
        };
        match connected.get(id) {
            Some(false) => {}
            Some(true) => {
                return Err(NetError::Protocol(format!(
                    "Hello from worker {id}, which is already connected"
                )));
            }
            None => {
                return Err(NetError::Protocol(format!(
                    "Hello from worker {id}, but the cluster has {} workers",
                    connected.len()
                )));
            }
        }
        if let Some(spec) = job {
            write_frame(control.get_mut(), &Frame::Job { spec: spec.to_string() })?;
        }
        Ok((id, control, format!("{}:{data_port}", peer.ip())))
    }

    /// The `Peers` frame: every worker's current data-plane address.
    fn peer_table(&self) -> Frame {
        let peers = self.addrs.iter().enumerate().map(|(id, a)| (id as u32, a.clone())).collect();
        Frame::Peers { peers }
    }

    /// Serve the per-round barrier for `rounds` rounds: collect a
    /// `Ready(r)` from every worker, then release them with `Proceed(r)`.
    /// With `rec`, a dead worker is re-spawned and spliced back into the
    /// barrier instead of failing the job.
    ///
    /// # Errors
    ///
    /// Fails (after broadcasting `Abort`) on a worker death `rec` cannot
    /// repair, a worker-sent abort or barrier skew.
    pub(crate) fn serve_barriers(
        &mut self,
        rounds: usize,
        mut rec: Option<&mut Recoverer<'_>>,
    ) -> Result<()> {
        for round in 1..=rounds {
            if let Err(e) = self.barrier_round(round, rec.as_deref_mut()) {
                return Err(self.fail(format!("barrier for round {round} failed: {e}"), e));
            }
        }
        Ok(())
    }

    /// One round's barrier: await `Ready(round)` from everyone (storing
    /// checkpoints as they stream in, recovering dead workers when
    /// allowed), then release with `Proceed(round)`.
    fn barrier_round(&mut self, round: usize, mut rec: Option<&mut Recoverer<'_>>) -> Result<()> {
        let p = self.workers.len();
        let mut ready = vec![false; p];
        // Workers whose restore point already covers this round must not
        // receive this round's Proceed: their next barrier is round + 1.
        let mut past = vec![false; p];
        let mut missing = p;
        while missing > 0 {
            for id in 0..p {
                if ready[id] {
                    continue;
                }
                match self.poll(id)? {
                    Polled::Pending => {}
                    Polled::Got(Frame::Ready { round: r }) if r as usize == round => {
                        ready[id] = true;
                        missing -= 1;
                    }
                    Polled::Got(other) => {
                        return Err(unexpected(id, &format!("Ready({round})"), &other));
                    }
                    Polled::Dead(why) => {
                        if self.recover(id, round, &why, rec.as_deref_mut())? >= round {
                            // The checkpoint already covers the round
                            // being awaited; the replacement resumes at
                            // round + 1.
                            ready[id] = true;
                            past[id] = true;
                            missing -= 1;
                        }
                    }
                }
            }
        }
        let proceed = Frame::Proceed { round: round as u32 };
        for id in (0..p).filter(|&id| !past[id]) {
            if let Err(e) = write_frame(self.workers[id].get_mut(), &proceed) {
                // The worker died between its Ready and our Proceed: the
                // replacement catches up through this round.
                self.recover(
                    id,
                    round + 1,
                    &format!("worker {id} died ({e})"),
                    rec.as_deref_mut(),
                )?;
            }
        }
        Ok(())
    }

    /// Collect the end-of-job `Summary` from every worker (spawned mode),
    /// in worker-id order. `rounds` is the job's round count: a
    /// replacement whose checkpoint predates the last round catches up
    /// through it first.
    ///
    /// # Errors
    ///
    /// Fails (after broadcasting `Abort`) on a worker death `rec` cannot
    /// repair or a non-summary frame.
    fn collect_summaries(
        &mut self,
        rounds: usize,
        rec: Option<&mut Recoverer<'_>>,
    ) -> Result<Vec<WorkerSummary>> {
        self.await_summaries(rounds, rec).map_err(|e| self.fail(e.to_string(), e))
    }

    fn await_summaries(
        &mut self,
        rounds: usize,
        mut rec: Option<&mut Recoverer<'_>>,
    ) -> Result<Vec<WorkerSummary>> {
        let mut out: Vec<Option<WorkerSummary>> = (0..self.workers.len()).map(|_| None).collect();
        let mut missing = out.len();
        while missing > 0 {
            for (id, slot) in out.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                match self.poll(id)? {
                    Polled::Pending => {}
                    Polled::Got(Frame::Summary { output, per_round_bytes, per_round_tuples }) => {
                        let traffic = Vec::new();
                        *slot = Some(WorkerSummary {
                            output,
                            per_round_bytes,
                            per_round_tuples,
                            traffic,
                        });
                        missing -= 1;
                    }
                    Polled::Got(other) => return Err(unexpected(id, "Summary", &other)),
                    Polled::Dead(why) => {
                        self.recover(id, rounds + 1, &why, rec.as_deref_mut())?;
                    }
                }
            }
        }
        Ok(out.into_iter().flatten().collect())
    }

    /// Re-spawn dead worker `dead` through `rec` and splice the
    /// replacement back into the live cluster: hand it the job and its
    /// latest checkpoint, let it rejoin the data mesh (peers replay from
    /// their logs), then drive its solo catch-up barriers for every round
    /// before `awaiting` — the round whose barrier the caller is currently
    /// serving. Returns the checkpoint round the replacement restored
    /// from. Without `rec` the death is the error `why`.
    fn recover(
        &mut self,
        dead: usize,
        awaiting: usize,
        why: &str,
        rec: Option<&mut Recoverer<'_>>,
    ) -> Result<usize> {
        let Some(rec) = rec else {
            return Err(NetError::Protocol(why.to_string()));
        };
        rec.respawn(dead, why)?;
        let connected: Vec<bool> = (0..self.workers.len()).map(|id| id != dead).collect();
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        let (_, mut control, addr) =
            self.accept_hello(rec.listener, &connected, Some(rec.job_wire), deadline, &mut || {
                Ok(())
            })?;
        // A replacement always gets a checkpoint — the empty round-0 one
        // when the worker died before its first snapshot. Receiving it is
        // what tells the worker to rejoin the mesh (dial every survivor
        // and request replay) instead of running the fresh handshake.
        let fresh = Frame::Checkpoint {
            round: 0,
            relations: Vec::new(),
            per_round_bytes: Vec::new(),
            per_round_tuples: Vec::new(),
        };
        let (c, checkpoint) = match &self.checkpoints[dead] {
            Some((round, frame)) => (*round, frame),
            None => (0, &fresh),
        };
        write_frame(control.get_mut(), checkpoint)?;
        self.addrs[dead] = addr;
        write_frame(control.get_mut(), &self.peer_table())?;
        self.workers[dead] = control;
        // The replacement now rejoins the mesh: it dials every survivor's
        // rejoin acceptor and asks for replay. The survivors' transports
        // service those rejoins from their own send/recv/barrier paths.
        self.await_from(dead, |f| matches!(f, Frame::MeshReady), "MeshReady")?;
        write_frame(self.workers[dead].get_mut(), &Frame::Proceed { round: 0 })?;
        // Solo catch-up: the replacement re-executes rounds c+1.. and the
        // master answers its barriers alone — the survivors already got
        // those Proceeds. The barrier for `awaiting` stays with the
        // caller.
        for k in (c + 1)..awaiting {
            self.await_from(
                dead,
                |f| matches!(f, Frame::Ready { round } if *round as usize == k),
                &format!("Ready({k})"),
            )?;
            write_frame(self.workers[dead].get_mut(), &Frame::Proceed { round: k as u32 })?;
        }
        Ok(c)
    }

    /// Wait for one worker to send a frame matching `expect`. Death here
    /// is not recoverable (it would mean a replacement died mid-recovery).
    fn await_from(&mut self, id: usize, expect: impl Fn(&Frame) -> bool, what: &str) -> Result<()> {
        loop {
            match self.poll(id)? {
                Polled::Pending => {}
                Polled::Got(f) if expect(&f) => return Ok(()),
                Polled::Got(other) => return Err(unexpected(id, what, &other)),
                Polled::Dead(why) => return Err(NetError::Protocol(why)),
            }
        }
    }

    /// Poll worker `id`'s control socket once. A checkpoint streaming past
    /// is stored (and reads as `Pending`), a worker-sent abort is an
    /// error, and a dead socket is reported with the worker named.
    fn poll(&mut self, id: usize) -> Result<Polled> {
        Ok(match poll_frame(&mut self.workers[id], POLL, &self.pool)? {
            Polled::Got(frame @ Frame::Checkpoint { round, .. }) => {
                self.checkpoints[id] = Some((round as usize, frame));
                Polled::Pending
            }
            Polled::Got(Frame::Abort { reason }) => {
                return Err(NetError::Protocol(format!("worker {id} aborted: {reason}")));
            }
            Polled::Dead(why) => Polled::Dead(format!("worker {id} died ({why})")),
            polled => polled,
        })
    }

    /// Best-effort fail-fast: broadcast `Abort` and annotate `e` with any
    /// workers the abort could not be delivered to (already-dead sockets).
    fn fail(&mut self, reason: String, e: NetError) -> NetError {
        let abort = Frame::Abort { reason };
        let unreachable: Vec<usize> = (self.workers.iter_mut().enumerate())
            .filter_map(|(id, w)| write_frame(w.get_mut(), &abort).err().map(|_| id))
            .collect();
        if unreachable.is_empty() {
            e
        } else {
            NetError::Protocol(format!("{e} (abort undeliverable to workers {unreachable:?})"))
        }
    }

    fn broadcast(&mut self, frame: &Frame) -> Result<()> {
        for w in &mut self.workers {
            write_frame(w.get_mut(), frame)?;
        }
        Ok(())
    }
}

/// Outcome of a spawned-process run under a [`MasterConfig`].
#[derive(Debug)]
pub struct SpawnedReport {
    /// The assembled result — byte-identical to a fault-free run even
    /// when recovery re-spawned workers along the way.
    pub result: RunResult,
    /// How many worker re-spawns the run consumed (0 on a clean run).
    pub respawns: usize,
}

/// Run `job` on a cluster of `job.p` spawned worker processes
/// (`worker_bin --master ADDR --worker ID`) coordinated over localhost,
/// and return the same [`RunResult`] as [`mpc_sim::Cluster::run`] on the
/// equivalent single-process cluster. Fail-fast: the first dead worker
/// aborts the job. See [`run_spawned_with`] for crash recovery.
///
/// Children are killed (and always reaped) when anything fails.
///
/// # Errors
///
/// Fails on spawn errors, worker death and protocol violations.
pub fn run_spawned(job: &JobSpec, worker_bin: &Path) -> Result<RunResult> {
    run_spawned_with(job, worker_bin, &MasterConfig::default()).map(|r| r.result)
}

/// [`run_spawned`] with a [`MasterConfig`]: a respawn budget for
/// re-spawning dead workers from their round checkpoints, and an optional
/// [`FaultPlan`] injected into the initial worker processes
/// (replacements always run clean).
///
/// # Errors
///
/// As [`run_spawned`]; with a respawn budget, worker deaths only fail
/// the job once it is exhausted.
pub fn run_spawned_with(
    job: &JobSpec,
    worker_bin: &Path,
    cfg: &MasterConfig,
) -> Result<SpawnedReport> {
    let built = job.build()?;
    let total_rounds = built.program.num_rounds();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let wire = cfg.job_wire(job);
    let mut rec = Recoverer {
        listener: &listener,
        job_wire: &wire,
        worker_bin,
        faults: cfg.faults.as_ref(),
        children: Vec::with_capacity(job.p),
        max_respawns: cfg.max_respawns,
        used: 0,
    };

    let outcome = (|| -> Result<Vec<WorkerSummary>> {
        for id in 0..job.p {
            let child = rec.spawn(id, true)?;
            rec.children.push(child);
        }
        // A worker process exiting before it dials in would otherwise
        // only surface at the accept deadline; re-spawning it (budget
        // permitting) heals the handshake in place.
        let mut watch = || match rec.exited() {
            Some((id, status)) => {
                rec.respawn(id, &format!("worker {id} exited during handshake ({status})"))
            }
            None => Ok(()),
        };
        let mut plane = ControlPlane::accept(&listener, job.p, Some(&wire), &mut watch)?;
        plane.serve_barriers(total_rounds, Some(&mut rec))?;
        let summaries = plane.collect_summaries(total_rounds, Some(&mut rec))?;
        let _ = plane.broadcast(&Frame::Shutdown);
        Ok(summaries)
    })();

    if outcome.is_err() {
        for c in &mut rec.children {
            let _ = c.kill();
        }
    }
    for c in &mut rec.children {
        let _ = c.wait();
    }
    let summaries = outcome?;
    let (config, program) = (built.cluster.config(), built.program.as_ref());
    let result = fold_summaries(config, program, built.db.total_bytes(), summaries)?;
    Ok(SpawnedReport { result, respawns: rec.used })
}

/// The worker-process entry point behind `mpc_workerd`: dial the master,
/// receive the job (and, for a recovery replacement, the checkpoint to
/// restore from), rebuild program and database from the spec, run the
/// worker loop over TCP, report the summary and wait for shutdown.
///
/// # Errors
///
/// Fails on protocol violations, job build errors and program errors; a
/// failure aborts the rest of the cluster before returning.
pub fn worker_main(master_addr: &str, worker_id: usize) -> Result<()> {
    crate::fault::trip(worker_id as u32, FaultPhase::Handshake);
    let setup = tcp_worker_setup(worker_id, None, master_addr)?;
    let mut transport = setup.transport;
    let job = setup.job;
    let resume = setup.restore;
    let run = (|| -> Result<WorkerSummary> {
        let wire =
            job.ok_or_else(|| NetError::Protocol("spawned worker received no job".to_string()))?;
        let spec = JobSpec::from_wire(&wire)?;
        if spec.p != transport.parties() {
            return Err(NetError::Protocol(format!(
                "job says p = {}, peer table says {}",
                spec.p,
                transport.parties()
            )));
        }
        let built = spec.build()?;
        let (program, capacity) = (built.program.as_ref(), spec.block_capacity);
        run_tcp_worker(&mut transport, program, &built.db, worker_id, capacity, resume)
    })();
    match run {
        Ok(summary) => {
            crate::fault::trip(worker_id as u32, FaultPhase::Summary);
            transport.send_control(&Frame::Summary {
                output: summary.output,
                per_round_bytes: summary.per_round_bytes,
                per_round_tuples: summary.per_round_tuples,
            })?;
            // Keep data sockets open until the master confirms every
            // worker drained; only then tear down.
            match transport.read_control()? {
                Frame::Shutdown => {}
                Frame::Abort { reason } => {
                    transport.abort();
                    return Err(NetError::Protocol(format!("master aborted: {reason}")));
                }
                other => {
                    return Err(NetError::Protocol(format!("expected Shutdown, got {other:?}")));
                }
            }
            transport.shutdown();
            Ok(())
        }
        Err(e) => {
            transport.abort();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that dials in long after the master stopped yielding (the
    /// pauses have reached their cap by then) is still accepted.
    #[test]
    fn a_late_worker_is_accepted_after_the_master_backs_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || -> Result<Frame> {
            std::thread::sleep(Duration::from_millis(40));
            let mut control = TcpStream::connect(addr)?;
            let pool = BlockPool::new();
            write_frame(&mut control, &Frame::Hello { worker_id: 0, data_port: 9 })?;
            let peers = read_frame(&mut control, &pool)?;
            write_frame(&mut control, &Frame::MeshReady)?;
            assert!(matches!(read_frame(&mut control, &pool)?, Frame::Proceed { round: 0 }));
            Ok(peers)
        });
        let started = Instant::now();
        ControlPlane::accept(&listener, 1, None, &mut || Ok(())).expect("handshake");
        assert!(started.elapsed() >= Duration::from_millis(40));
        match worker.join().unwrap().expect("worker side") {
            Frame::Peers { peers } => assert_eq!(peers, vec![(0, "127.0.0.1:9".to_string())]),
            other => panic!("expected Peers, got {other:?}"),
        }
    }

    /// The one dial-in routine refuses a `Hello` that names no awaited
    /// worker — out of range, a duplicate during the handshake, a
    /// replacement dialing in under a survivor's id — with a protocol
    /// error that names the id, and without waiting for the deadline.
    #[test]
    fn bad_hellos_are_protocol_errors_naming_the_id() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let plane = ControlPlane::new(3);
        let deadline = Instant::now() + Duration::from_secs(10);
        for (connected, claimed, why) in [
            ([false, false, false], 7, "the cluster has 3 workers"),
            ([true, false, false], 0, "already connected"),
            // The replacement awaited for worker 1 claims to be worker 2.
            ([true, false, true], 2, "already connected"),
        ] {
            let dialer = std::thread::spawn(move || {
                let mut control = TcpStream::connect(addr).unwrap();
                write_frame(&mut control, &Frame::Hello { worker_id: claimed, data_port: 9 })
                    .unwrap();
            });
            let refused = plane.accept_hello(&listener, &connected, None, deadline, &mut || Ok(()));
            dialer.join().unwrap();
            match refused.expect_err("a bad Hello") {
                NetError::Protocol(msg) => {
                    assert!(msg.contains(&format!("worker {claimed}")), "{msg}");
                    assert!(msg.contains(why), "{msg}");
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
        assert!(Instant::now() < deadline, "no refusal waited for the deadline");
    }

    #[test]
    fn accept_pauses_double_up_to_the_cap() {
        let timed = |idle_polls| {
            let start = Instant::now();
            accept_pause(idle_polls);
            start.elapsed()
        };
        assert!(timed(ACCEPT_YIELDS) >= ACCEPT_PAUSE_MIN);
        assert!(timed(ACCEPT_YIELDS + 3) >= ACCEPT_PAUSE_MIN * 8);
        for idle_polls in [ACCEPT_YIELDS + 7, ACCEPT_YIELDS + 40, u32::MAX] {
            let pause = timed(idle_polls);
            assert!(pause >= ACCEPT_PAUSE_CAP, "{idle_polls}: {pause:?}");
            assert!(pause < Duration::from_secs(2), "{idle_polls}: {pause:?}");
        }
    }
}
