//! The master's driver and the spawned-process execution mode.
//!
//! The master's protocol is one state machine, [`Master`]
//! ([`crate::control`]); [`serve`] is the one driver that runs it over a
//! listener, the accepted control connections and — in spawned mode —
//! the worker processes. It accepts without blocking, polls only the
//! connections the machine awaits, each with one short timed read
//! ([`poll_frame`]), checks the worker processes for exits, and feeds all
//! of it, plus a clock tick, to the machine. No wait of the master is
//! unbounded: a dead worker surfaces within one poll, and a connection
//! that never says `Hello` at the accept deadline.
//!
//! [`run_spawned`] / [`run_spawned_with`] are the top of the stack: they
//! spawn one `mpc_workerd` OS process per server over localhost, serve
//! the control plane, and fold the workers' summaries into the same
//! [`RunResult`] as [`mpc_sim::Cluster::run`]. With
//! [`MasterConfig::max_respawns`] above zero a dead worker is re-spawned
//! from the same [`JobSpec`] and restored from its latest checkpoint, and
//! the recovered run produces a byte-identical [`RunResult`]. The worker's
//! half of the protocol is `control.rs::Worker`, driven by
//! `transport.rs::Control`.

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mpc_sim::{fold_summaries, BlockPool, RunResult, WorkerSummary};

use crate::control::{Action, Event, Master};
use crate::fault::FaultPlan;
use crate::frame::{poll_frame, write_frame, Polled};
use crate::recovery::MasterConfig;
use crate::spec::JobSpec;
use crate::Result;

/// How long a started worker has to dial in and say `Hello` before the
/// job is declared dead (covers a worker binary that fails to start, and
/// a recovery replacement).
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// How the master waits while it awaits no frame: it yields for the
/// first `ACCEPT_YIELDS` empty rounds after a connection, then sleeps,
/// doubling from `ACCEPT_PAUSE_MIN` up to `ACCEPT_PAUSE_CAP`. Workers on
/// threads of this process dial in within microseconds, so a fixed sleep
/// would idle the CPU for its whole length on every job — the one stretch
/// of a threaded run whose length the machine's timer latency decides —
/// while worker processes that take their time to start must be awaited
/// without spinning. A worker paces its dials to the master, and its
/// waits while it forms its mesh, the same way.
const ACCEPT_YIELDS: u32 = 64;
const ACCEPT_PAUSE_MIN: Duration = Duration::from_micros(50);
pub(crate) const ACCEPT_PAUSE_CAP: Duration = Duration::from_millis(5);

/// The pause after the `idle_polls`-th consecutive empty round: `None`
/// to yield, else how long to give way.
pub(crate) fn pause(idle_polls: u32) -> Option<Duration> {
    let doublings = idle_polls.checked_sub(ACCEPT_YIELDS)?;
    // Seven doublings already pass the cap.
    Some((ACCEPT_PAUSE_MIN * (1 << doublings.min(7))).min(ACCEPT_PAUSE_CAP))
}

/// Give way after the `idle_polls`-th consecutive empty round.
pub(crate) fn accept_pause(idle_polls: u32) {
    pause(idle_polls).map_or_else(std::thread::yield_now, std::thread::sleep);
}

/// The poll interval while waiting on worker control frames: short enough
/// that a dead worker fails the job promptly, long enough not to spin.
const POLL: Duration = Duration::from_millis(25);

/// One worker's control connection, reads buffered.
type Control = BufReader<TcpStream>;

/// The worker processes of a spawned job, indexed by worker id.
struct Procs<'a> {
    bin: &'a Path,
    master: String,
    faults: Option<&'a FaultPlan>,
    children: Vec<Option<Child>>,
}

impl Procs<'_> {
    /// Start worker `id` (`bin --master ADDR --worker ID`): the first
    /// process armed with its faults, a replacement clean — and only then
    /// is the process it replaces killed and reaped.
    fn spawn(&mut self, id: usize, replacing: Option<String>) -> Result<()> {
        let mut cmd = Command::new(self.bin);
        cmd.arg("--master").arg(&self.master).arg("--worker").arg(id.to_string());
        let faults = self.faults.filter(|_| replacing.is_none());
        for fault in faults.iter().flat_map(|plan| plan.for_worker(id as u32)) {
            cmd.arg("--fault").arg(fault);
        }
        if let Some(why) = replacing {
            eprintln!("mpc-net master: {why}");
        }
        let child = cmd.stdin(Stdio::null()).spawn()?;
        if let Some(mut dead) = self.children[id].replace(child) {
            let _ = dead.kill();
            let _ = dead.wait();
        }
        Ok(())
    }

    /// One event per worker process found exited.
    fn exited(&mut self) -> Vec<Event> {
        let exited = |(worker, child): (usize, &mut Option<Child>)| {
            let status = child.as_mut()?.try_wait().ok()??;
            Some(Event::Exited { worker, status: status.to_string() })
        };
        self.children.iter_mut().enumerate().filter_map(exited).collect()
    }
}

/// Accept the next connection on the non-blocking `listener`, if one is
/// waiting.
fn accept(listener: &TcpListener) -> Result<Option<(Control, String)>> {
    match listener.accept() {
        Ok((stream, peer)) => {
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true).ok();
            Ok(Some((BufReader::new(stream), peer.ip().to_string())))
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Run `master` until the job is over — the one driver of the threaded
/// and the spawned master (`procs`: the worker processes to start and
/// watch). It feeds the machine, in turn, a clock tick; the exited
/// processes and the waiting connections (while a worker is dialing in);
/// and one timed poll of every connection it awaits — or, awaiting none,
/// pauses ([`accept_pause`]) — and carries out what the machine decides.
/// A failed write comes back as its connection's close.
fn serve(
    listener: &TcpListener,
    master: &mut Master,
    mut procs: Option<&mut Procs<'_>>,
) -> Result<Vec<WorkerSummary>> {
    listener.set_nonblocking(true)?;
    let (start, pool) = (Instant::now(), BlockPool::new());
    let (mut conns, mut events, mut idle_polls) = (Vec::new(), VecDeque::new(), 0u32);
    for stage in [0, 1, 2].into_iter().cycle() {
        match stage {
            0 => events.push_back(Event::Tick(start.elapsed())),
            // Exits are looked for after the tick, which may replace a process.
            1 => {
                events.extend(procs.as_deref_mut().map(Procs::exited).unwrap_or_default());
                while master.accepting() {
                    match accept(listener) {
                        Ok(Some((control, host))) => {
                            conns.push(control);
                            events.push_back(Event::Accepted { host });
                            idle_polls = 0;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            events.push_back(Event::Failed(e));
                            break;
                        }
                    }
                }
            }
            _ => {
                let awaited = master.awaited();
                if awaited.is_empty() {
                    accept_pause(idle_polls);
                    idle_polls = idle_polls.saturating_add(1);
                }
                for conn in awaited {
                    events.push_back(match poll_frame(&mut conns[conn], POLL, &pool) {
                        Ok(Polled::Pending) => continue,
                        Ok(Polled::Got(frame)) => Event::Frame { conn, frame },
                        Ok(Polled::Dead(why)) => Event::Closed { conn, why },
                        Err(e) => Event::Failed(e),
                    });
                }
            }
        }
        while let Some(event) = events.pop_front() {
            for action in master.on(event) {
                match action {
                    Action::Send { conn, frame } => {
                        if let Err(e) = write_frame(conns[conn].get_mut(), &frame) {
                            events.push_back(Event::Closed { conn, why: e.to_string() });
                        }
                    }
                    Action::Spawn { worker, replacing } => {
                        let procs = procs.as_deref_mut().expect("only a spawned master spawns");
                        if let Err(e) = procs.spawn(worker, replacing) {
                            events.push_back(Event::Failed(e));
                        }
                    }
                    Action::Finish(outcome) => return outcome,
                }
            }
        }
    }
    unreachable!("the driver's stages cycle until the job is over")
}

/// Serve the control plane of `p` worker threads of this process running
/// `rounds` rounds: no job to hand out, no summaries, no respawns.
pub(crate) fn serve_threads(listener: &TcpListener, p: usize, rounds: usize) -> Result<()> {
    serve(listener, &mut Master::new(p, rounds, None, 0, ACCEPT_DEADLINE), None).map(drop)
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
    let rounds = built.program.num_rounds();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut procs = Procs {
        bin: worker_bin,
        master: listener.local_addr()?.to_string(),
        faults: cfg.faults.as_ref(),
        children: (0..job.p).map(|_| None).collect(),
    };
    let wire = Some(cfg.job_wire(job));
    let mut master = Master::new(job.p, rounds, wire, cfg.max_respawns, ACCEPT_DEADLINE);
    let outcome = serve(&listener, &mut master, Some(&mut procs));
    for child in procs.children.iter_mut().flatten() {
        if outcome.is_err() {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    let summaries = outcome?;
    let (config, program) = (built.cluster.config(), built.program.as_ref());
    let result = fold_summaries(config, program, built.db.total_bytes(), summaries)?;
    Ok(SpawnedReport { result, respawns: master.respawns() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, Frame};
    use crate::NetError;

    fn threads_master(p: usize, deadline: Duration) -> Master {
        Master::new(p, 0, None, 0, deadline)
    }

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
        serve(&listener, &mut threads_master(1, ACCEPT_DEADLINE), None).expect("handshake");
        assert!(started.elapsed() >= Duration::from_millis(40));
        match worker.join().unwrap().expect("worker side") {
            Frame::Peers { peers } => assert_eq!(peers, vec![(0, "127.0.0.1:9".to_string())]),
            other => panic!("expected Peers, got {other:?}"),
        }
    }

    /// The driver refuses a `Hello` that names no awaited worker — out of
    /// range, or a duplicate — with a protocol error that names the id,
    /// and without waiting for the deadline.
    #[test]
    fn bad_hellos_are_protocol_errors_naming_the_id() {
        let deadline = Duration::from_secs(10);
        let started = Instant::now();
        for (claims, why) in
            [(vec![7], "the cluster has 3 workers"), (vec![0, 0], "already connected")]
        {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let dialers: Vec<TcpStream> = (claims.iter())
                .map(|&id| {
                    let mut control = TcpStream::connect(addr).unwrap();
                    write_frame(&mut control, &Frame::Hello { worker_id: id, data_port: 9 })
                        .unwrap();
                    control
                })
                .collect();
            match serve(&listener, &mut threads_master(3, deadline), None).expect_err("a bad Hello")
            {
                NetError::Protocol(msg) => {
                    assert!(msg.contains(&format!("worker {}", claims[0])), "{msg}");
                    assert!(msg.contains(why), "{msg}");
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
            drop(dialers);
        }
        assert!(started.elapsed() < deadline, "no refusal waited for the deadline");
    }

    /// A connection that never says `Hello` holds up nothing: at the
    /// deadline the job fails, naming the worker that never dialed in.
    #[test]
    fn a_silent_connection_fails_at_the_deadline_naming_the_missing_worker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let silent = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (deadline, started) = (Duration::from_millis(300), Instant::now());
        let err = serve(&listener, &mut threads_master(1, deadline), None).expect_err("no Hello");
        let waited = started.elapsed();
        assert!(err.to_string().contains("workers [0] never dialed in"), "{err}");
        assert!(waited >= deadline && waited < Duration::from_secs(5), "{waited:?}");
        drop(silent);
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
