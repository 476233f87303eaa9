//! The transport-parametrised runner.
//!
//! [`run_distributed`] executes a program on `p` workers — one
//! [`WorkerCore`] per server, [`mpc_sim::worker`] describes the protocol —
//! and returns the exact [`RunResult`] of [`mpc_sim::Cluster::run`].
//! Over [`TransportKind::InProcess`] that is literally
//! [`mpc_sim::Cluster::run_async`]. Over [`TransportKind::Tcp`] the same
//! driver loop ([`mpc_sim::worker::drive`]) runs each core over a
//! [`TcpTransport`], which adds what only a network needs: there is no
//! shared input router across processes, so input relation `ri` is routed
//! by worker `ri mod p` ([`Input::Sharded`], the original input server id
//! `p + ri` preserved on its blocks) and **every** worker broadcasts a
//! round-1 FIN; and after each round the worker checkpoints (when recovery
//! is on) and waits on the master's barrier. Since routing is a pure
//! function of the tuple, the delivered multiset — and therefore every
//! volume statistic — is identical on every path, which the differential
//! tests assert.
//!
//! This is also the worker's side of the master protocol, for a thread
//! and for a spawned process ([`worker_main`]) alike: the handshake and
//! the mesh ([`TcpTransport::join`]), the rounds, and in spawned mode the
//! summary.

use std::net::TcpListener;
use std::sync::Arc;

use mpc_sim::worker::drive;
use mpc_sim::{
    fold_summaries, resolve_reports, AsyncConfig, BlockPool, Cluster, Input, MpcProgram,
    RestorePoint, RunResult, SimError, Transport as _, WorkerCore, WorkerSummary,
};
use mpc_storage::Database;

use crate::fault::{self, FaultPhase};
use crate::frame::Frame;
use crate::master::serve_threads;
use crate::spec::JobSpec;
use crate::transport::TcpTransport;
use crate::{NetError, Result};

/// Which fabric moves the packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Bounded in-process lanes: the run *is* [`Cluster::run_async`].
    InProcess,
    /// Real TCP sockets over localhost, with an in-process master serving
    /// the control plane.
    Tcp,
}

/// Configuration of a distributed run. The in-process transport runs on
/// [`AsyncConfig`]'s default lanes; TCP backpressure comes from the
/// kernel's socket buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct DistConfig {
    /// The transport implementation.
    pub transport: TransportKind,
    /// Tuples per block.
    pub block_capacity: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        let block_capacity = AsyncConfig::default().block_capacity;
        DistConfig { transport: TransportKind::InProcess, block_capacity }
    }
}

impl DistConfig {
    /// A default configuration over the given transport.
    pub fn new(transport: TransportKind) -> Self {
        DistConfig { transport, ..DistConfig::default() }
    }
}

/// Run server `id`'s share of `program` over its meshed `transport`; the
/// caller provides the (deterministically reconstructed or shared) input
/// database. With `resume`, the core starts from that checkpoint and
/// re-executes only the rounds after it: surviving peers drop the
/// duplicates it re-sends by watermark while the frames it missed arrive
/// via their replay logs. A failing worker aborts its peers before the
/// error is returned.
///
/// # Errors
///
/// Fails on program errors, protocol violations and dead peers.
fn run_tcp_worker<P: MpcProgram + ?Sized>(
    transport: &mut TcpTransport,
    program: &P,
    db: &Database,
    id: usize,
    block_capacity: usize,
    resume: Option<RestorePoint>,
) -> Result<WorkerSummary> {
    let pool = Arc::new(BlockPool::new());
    let input = Input::Sharded(db);
    let mut core = WorkerCore::new(program, id, transport.parties(), input, pool, block_capacity)?;
    let mut first_round = 1;
    if let Some(point) = resume {
        first_round = point.round + 1;
        core = core.resume(point)?;
    }
    fault::trip(id as u32, FaultPhase::RoundStart(first_round as u32));
    drive(&mut core, transport)
}

/// Execute `program` over `db` on a distributed cluster of `p` workers
/// (one thread per server) connected by the configured transport, and
/// return the same [`RunResult`] as [`Cluster::run`].
///
/// # Errors
///
/// Fails on program errors, worker death and protocol violations. Of
/// several failing workers, the root cause is reported, as on every
/// backend ([`resolve_reports`]).
pub fn run_distributed<P: MpcProgram>(
    cluster: &Cluster,
    program: &P,
    db: &Database,
    cfg: &DistConfig,
) -> Result<RunResult> {
    match cfg.transport {
        TransportKind::InProcess => {
            let lanes = AsyncConfig::new().with_block_capacity(cfg.block_capacity);
            Ok(cluster.run_async(program, db, &lanes)?.result)
        }
        TransportKind::Tcp => {
            let summaries = run_tcp_threads(program, db, cluster.config().p, cfg)?;
            Ok(fold_summaries(cluster.config(), program, db.total_bytes(), summaries)?)
        }
    }
}

/// The TCP fabric with in-process workers: a real localhost socket mesh
/// and a real master control plane, but each server on a thread sharing
/// `program`/`db` — the differential-testing configuration.
fn run_tcp_threads<P: MpcProgram>(
    program: &P,
    db: &Database,
    p: usize,
    cfg: &DistConfig,
) -> Result<Vec<WorkerSummary>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let master_addr = listener.local_addr()?.to_string();
    let total_rounds = program.num_rounds();

    std::thread::scope(|scope| {
        let master = scope.spawn(move || serve_threads(&listener, p, total_rounds));
        let handles: Vec<_> = (0..p)
            .map(|id| {
                let master_addr = &master_addr;
                scope.spawn(move || -> Result<WorkerSummary> {
                    let (mut transport, _) = TcpTransport::join(id, master_addr)?;
                    let out =
                        run_tcp_worker(&mut transport, program, db, id, cfg.block_capacity, None);
                    transport.shutdown();
                    out
                })
            })
            .collect();
        let panicked = |who: &str| NetError::Protocol(format!("{who} thread panicked"));
        // A worker's root cause wins over the workers that only unwound
        // after it, and the master's error counts only when every worker
        // came through. (The scope joins whatever is left.)
        let reports =
            handles.into_iter().map(|h| h.join().unwrap_or_else(|_| Err(panicked("worker"))));
        let unwound = |e: &NetError| matches!(e, NetError::Sim(SimError::Aborted(_)));
        let summaries = resolve_reports(reports, unwound);
        let served = master.join().unwrap_or_else(|_| Err(panicked("master")));
        summaries.and_then(|summaries| served.map(|()| summaries))
    })
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
    fault::trip(worker_id as u32, FaultPhase::Handshake);
    let (mut transport, mesh) = TcpTransport::join(worker_id, master_addr)?;
    let run = (|| -> Result<()> {
        let no_job = || NetError::Protocol("spawned worker received no job".to_string());
        let spec = JobSpec::from_wire(&mesh.job.ok_or_else(no_job)?)?;
        if spec.p != mesh.p {
            let msg = format!("job says p = {}, peer table says {}", spec.p, mesh.p);
            return Err(NetError::Protocol(msg));
        }
        let built = spec.build()?;
        let (program, capacity) = (built.program.as_ref(), spec.block_capacity);
        let summary =
            run_tcp_worker(&mut transport, program, &built.db, worker_id, capacity, mesh.restore)?;
        fault::trip(worker_id as u32, FaultPhase::Summary);
        let WorkerSummary { output, per_round_bytes, per_round_tuples, .. } = summary;
        transport.report(Frame::Summary { output, per_round_bytes, per_round_tuples })
    })();
    match run {
        Ok(()) => transport.shutdown(),
        Err(_) => transport.abort(),
    }
    run
}
