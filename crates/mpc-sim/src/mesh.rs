//! The reactor mesh: `p` worker threads that host [`WorkerCore`]s for any
//! number of concurrent jobs — the one in-process driver of the round
//! protocol ([`crate::worker`] describes the protocol a core speaks).
//!
//! A [`Mesh`] is the submitter's end; [`Mesh::new`] also hands back the
//! `p` [`Reactor`]s, which the caller hosts on threads of its choice:
//! [`Cluster::run_async`](crate::Cluster::run_async) runs them under
//! `std::thread::scope` with `H = &P` and submits one job, while
//! `mpc-net`'s query service detaches them with `H = Arc<dyn MpcProgram +
//! Send + Sync>` and submits many. [`Mesh::close`] (and dropping the mesh)
//! lets each reactor stop as soon as it holds no job, so a one-job host
//! closes right after submitting and its reactors exit one by one as they
//! finish, not all at once behind the last one.
//!
//! **Fabric.** One [`Inbox`] per reactor with `p + 1` bounded lanes: lane
//! `s < p` for peer `s`, lane `p` for the submitter. Every packet travels in
//! an envelope naming its job (`Start`, `Data`, `Shutdown`), so a reactor
//! feeds whatever arrives to that job's core and steps the cores whose
//! rounds it completed. A core that sends onto a full lane drains its
//! reactor's inbox — dispatching other jobs' packets as usual — before it
//! retries, so bounded lanes cannot deadlock. There is no cross-job barrier.
//!
//! **Input.** [`Mesh::submit`] routes the job's input on the caller's thread
//! (one logical input server `p + ri` per relation, one round-1 FIN per
//! reactor: [`Input::Routed`]), under the same panic guard as the cores.
//!
//! **Failure policy.** A core that errors or panics is dropped, and its
//! reactor force-sends `Abort` to every peer in that job's envelope, so each
//! of the `p` reactors reports exactly once per job: one `(job, server,
//! Result<WorkerSummary>)` on a channel that [`Mesh::next_done`] folds. A
//! routing error (or panic) cancels the job on every reactor. The job's
//! result is the routing error if there was one, else what
//! [`resolve_reports`] makes of the `p` reports: the error of the lowest
//! server that is not [`SimError::Aborted`], else `Aborted`, else the `p`
//! summaries in server order. Jobs start in id order, so a reactor drops
//! any late packet of a job that is over on it and buffers only packets that
//! raced ahead of their job's `Start`: no reactor keeps a core or a packet
//! of a finished or failed job.

use std::collections::HashMap;
use std::fmt::Display;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mpc_storage::Database;

use crate::error::SimError;
use crate::pool::{BlockPool, PoolStats};
use crate::program::MpcProgram;
use crate::queue::{Inbox, InboxReceiver, LinkSender, SendAttempt};
use crate::worker::{
    resolve_reports, route_input, Input, Link, Packet, SendOutcome, Step, WorkerCore, WorkerSummary,
};
use crate::Result;

/// How long a reactor parks on a full peer lane before draining its own
/// inbox and retrying.
const REACTOR_POLL: Duration = Duration::from_micros(200);

/// A packet on the mesh fabric.
enum Envelope<H> {
    /// A job starts: create its core on this reactor.
    Start { job: u64, program: H, domain_size: u64 },
    /// One packet of job `job`'s round protocol.
    Data { job: u64, pkt: Packet },
    /// Stop the reactor once it holds no job.
    Shutdown,
}

/// One reactor's word on one job: its summary, or why its core is gone.
type Report = (u64, usize, Result<WorkerSummary>);

/// Run `task`, turning a panic inside it into a [`SimError::Program`] naming
/// `who`.
fn guarded<T>(who: impl Display, task: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(task))
        .unwrap_or_else(|_| Err(SimError::Program(format!("{who} panicked"))))
}

/// One of the mesh's `p` worker threads: server `id` of every job.
pub struct Reactor<H> {
    id: usize,
    p: usize,
    rx: InboxReceiver<Envelope<H>>,
    /// `peers[dest]` is this reactor's lane into `dest`'s inbox.
    peers: Vec<LinkSender<Envelope<H>>>,
    /// One core per job in flight here (the one being stepped is out).
    cores: HashMap<u64, WorkerCore<'static, H>>,
    /// Packets that raced ahead of their job's `Start`.
    pending: HashMap<u64, Vec<Packet>>,
    /// Jobs `< started` have had their `Start` here.
    started: u64,
    /// Jobs that took a FIN since they were last stepped.
    dirty: Vec<u64>,
    reports: mpsc::Sender<Report>,
    pool: Arc<BlockPool>,
    block_capacity: usize,
    scratch: Vec<Envelope<H>>,
    stopping: bool,
}

impl<H> Reactor<H>
where
    H: Deref + Clone,
    H::Target: MpcProgram,
{
    /// Serve jobs until the mesh is closed and every job held here is
    /// done.
    pub fn run(&mut self) {
        let mut buf = Vec::new();
        while !(self.stopping && self.cores.is_empty()) {
            self.rx.recv_many(&mut buf);
            buf.drain(..).for_each(|env| self.dispatch(env));
            while let Some(job) = self.dirty.pop() {
                self.advance(job);
            }
        }
    }

    fn dispatch(&mut self, env: Envelope<H>) {
        match env {
            Envelope::Start { job, program, domain_size } => {
                self.started = job + 1;
                let (id, p, pool) = (self.id, self.p, Arc::clone(&self.pool));
                let input = Input::Routed { domain_size };
                let cap = self.block_capacity;
                match guarded(format_args!("worker {id}"), || {
                    WorkerCore::new(program, id, p, input, pool, cap)
                }) {
                    Ok(core) => {
                        self.cores.insert(job, core);
                        for pkt in self.pending.remove(&job).unwrap_or_default() {
                            self.feed(job, pkt);
                        }
                    }
                    Err(e) => {
                        self.pending.remove(&job);
                        self.fail(job, e);
                    }
                }
            }
            Envelope::Data { job, pkt } => self.feed(job, pkt),
            Envelope::Shutdown => self.stopping = true,
        }
    }

    /// Hand one protocol packet to its job's core. Only FINs can complete
    /// a round, so only they mark the job dirty.
    fn feed(&mut self, job: u64, pkt: Packet) {
        let Some(core) = self.cores.get_mut(&job) else {
            if job >= self.started {
                self.pending.entry(job).or_default().push(pkt);
            }
            return;
        };
        let (id, fin) = (self.id, matches!(pkt, Packet::Fin { .. }));
        match guarded(format_args!("worker {id}"), || core.accept(pkt)) {
            Ok(()) if fin => self.dirty.push(job),
            Ok(()) => {}
            Err(e) => {
                self.cores.remove(&job);
                self.fail(job, e);
            }
        }
    }

    /// Step `job`'s core through as many rounds as its FIN counts allow.
    fn advance(&mut self, job: u64) {
        let Some(mut core) = self.cores.remove(&job) else { return };
        let id = self.id;
        let mut link = JobLink { reactor: self, job };
        let stepped = guarded(format_args!("worker {id}"), || loop {
            match core.step(&mut link)? {
                Step::RoundDone(_) => {}
                Step::NeedInput => return Ok(None),
                Step::Finished(summary) => return Ok(Some(summary)),
            }
        });
        match stepped {
            Ok(None) => {
                self.cores.insert(job, core);
            }
            Ok(Some(summary)) => {
                let _ = self.reports.send((job, id, Ok(summary)));
            }
            Err(e) => self.fail(job, e),
        }
    }

    /// Report `job` failed here and tell every peer to unwind it (aborts
    /// jump the queue; this reactor's own copy finds no core and is
    /// dropped).
    fn fail(&mut self, job: u64, error: SimError) {
        for lane in &self.peers {
            let _ = lane.force_send(Envelope::Data { job, pkt: Packet::Abort });
        }
        let _ = self.reports.send((job, self.id, Err(error)));
    }
}

/// The fabric as the one core being stepped sees it: its sends go out in
/// its job's envelope, and draining the reactor's inbox hands it its own
/// packets while everything else is dispatched as usual.
struct JobLink<'r, H> {
    reactor: &'r mut Reactor<H>,
    job: u64,
}

impl<H> Link for JobLink<'_, H>
where
    H: Deref + Clone,
    H::Target: MpcProgram,
{
    fn send(&mut self, dest: usize, pkt: Packet) -> SendOutcome {
        let env = Envelope::Data { job: self.job, pkt };
        match self.reactor.peers[dest].send_timeout(env, REACTOR_POLL) {
            SendAttempt::Sent => SendOutcome::Sent,
            SendAttempt::Full(Envelope::Data { pkt, .. }) => SendOutcome::Full(pkt),
            SendAttempt::Full(_) | SendAttempt::Closed(_) => SendOutcome::Closed,
        }
    }

    fn try_recv(&mut self, buf: &mut Vec<Packet>) {
        let mut batch = std::mem::take(&mut self.reactor.scratch);
        self.reactor.rx.try_recv_many(&mut batch);
        for env in batch.drain(..) {
            match env {
                Envelope::Data { job, pkt } if job == self.job => buf.push(pkt),
                other => self.reactor.dispatch(other),
            }
        }
        self.reactor.scratch = batch;
    }
}

/// A job whose reports are still coming in.
struct Job {
    /// Index = server.
    reports: Vec<Option<Result<WorkerSummary>>>,
    routing: Option<SimError>,
}

/// The submitting end of a reactor mesh (see the module docs).
pub struct Mesh<H> {
    /// `lanes[w]` is the submitter's lane (index `p`) into reactor `w`.
    lanes: Vec<LinkSender<Envelope<H>>>,
    reports: mpsc::Receiver<Report>,
    jobs: HashMap<u64, Job>,
    next_job: u64,
    pool: Arc<BlockPool>,
    block_capacity: usize,
}

impl<H> Mesh<H>
where
    H: Deref + Clone,
    H::Target: MpcProgram,
{
    /// A mesh of `p` reactors over lanes of `queue_capacity` packets and
    /// blocks of `block_capacity` tuples. Run each returned [`Reactor`] on
    /// its own thread.
    pub fn new(p: usize, queue_capacity: usize, block_capacity: usize) -> (Self, Vec<Reactor<H>>) {
        let pool = Arc::new(BlockPool::new());
        let (report_tx, reports) = mpsc::channel();
        let (lanes, inboxes): (Vec<_>, Vec<_>) =
            (0..p).map(|_| Inbox::channel(p + 1, queue_capacity)).unzip();
        let reactors = inboxes
            .into_iter()
            .enumerate()
            .map(|(id, rx)| Reactor {
                id,
                p,
                rx,
                peers: lanes.iter().map(|inbox| inbox[id].clone()).collect(),
                cores: HashMap::new(),
                pending: HashMap::new(),
                started: 0,
                dirty: Vec::new(),
                reports: report_tx.clone(),
                pool: Arc::clone(&pool),
                block_capacity,
                scratch: Vec::new(),
                stopping: false,
            })
            .collect();
        let lanes = lanes.iter().map(|inbox| inbox[p].clone()).collect();
        let mesh = Mesh { lanes, reports, jobs: HashMap::new(), next_job: 0, pool, block_capacity };
        (mesh, reactors)
    }

    /// Start `program` on every reactor and route `db` into it on this
    /// thread; returns the job id. A routing error or panic cancels the job
    /// and becomes its result.
    pub fn submit(&mut self, program: H, db: &Database) -> u64 {
        let (job, p) = (self.next_job, self.lanes.len());
        self.next_job += 1;
        let gone = |dest: usize| SimError::Aborted(format!("input router: reactor {dest} is gone"));
        let send = |dest: usize, env| self.lanes[dest].send(env).map_err(|_| gone(dest));
        let routed = guarded("the input router", || {
            let domain_size = db.domain_size();
            for (w, lane) in self.lanes.iter().enumerate() {
                // Like an abort, a start takes no lane slot: the job's first
                // block need not wait for the reactor to pick it up.
                let start = Envelope::Start { job, program: program.clone(), domain_size };
                lane.force_send(start).map_err(|_| gone(w))?;
            }
            let (pool, cap) = (&self.pool, self.block_capacity);
            route_input(&*program, db, p, None, pool, cap, |dest, block| {
                send(dest, Envelope::Data { job, pkt: Packet::Block(block) })
            })?;
            (0..p).try_for_each(|w| send(w, Envelope::Data { job, pkt: Packet::Fin { round: 1 } }))
        });
        if routed.is_err() {
            for lane in &self.lanes {
                let _ = lane.force_send(Envelope::Data { job, pkt: Packet::Abort });
            }
        }
        self.jobs
            .insert(job, Job { reports: (0..p).map(|_| None).collect(), routing: routed.err() });
        job
    }

    /// The next job all `p` of whose reports are in, resolved by the
    /// failure policy. Waits for one when `block` is set; `None` when no
    /// job is complete yet (not blocking), none is outstanding, or the
    /// reactors are gone.
    pub fn next_done(&mut self, block: bool) -> Option<(u64, Result<Vec<WorkerSummary>>)> {
        while !self.jobs.is_empty() {
            let (job, server, report) =
                if block { self.reports.recv().ok()? } else { self.reports.try_recv().ok()? };
            let Some(entry) = self.jobs.get_mut(&job) else { continue };
            entry.reports[server] = Some(report);
            if entry.reports.iter().all(Option::is_some) {
                let Job { reports, routing } = self.jobs.remove(&job)?;
                if let Some(e) = routing {
                    return Some((job, Err(e)));
                }
                let unwound = |e: &SimError| matches!(e, SimError::Aborted(_));
                return Some((job, resolve_reports(reports.into_iter().flatten(), unwound)));
            }
        }
        None
    }

    /// The block pool's accounting across every job so far.
    pub(crate) fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

impl<H> Mesh<H> {
    /// Let every reactor stop once the jobs it holds are done (their
    /// reports still arrive). Submit nothing after this: a stopped reactor
    /// serves no new job.
    pub fn close(&self) {
        for lane in &self.lanes {
            let _ = lane.force_send(Envelope::Shutdown);
        }
    }
}

impl<H> Drop for Mesh<H> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RouteSink;
    use crate::server::ServerState;
    use crate::worker::fold_summaries;
    use crate::{Cluster, MpcConfig};
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_storage::Relation;

    /// Two rounds: every relation is hashed on its first column, then each
    /// server forwards what it holds to the next server under `hop`; the
    /// output is the forwarded rows. `fail` picks the sabotage.
    struct Relay {
        fail: Option<&'static str>,
    }

    impl MpcProgram for Relay {
        fn num_rounds(&self) -> usize {
            2
        }
        fn route_input_into(
            &self,
            rel: &Relation,
            p: usize,
            sink: &mut dyn RouteSink,
        ) -> Result<()> {
            rel.iter().try_for_each(|t| sink.emit("in", t, &[t[0] as usize % p]))
        }
        fn route_tuples_into(
            &self,
            _: usize,
            server: usize,
            state: &ServerState,
            sink: &mut dyn RouteSink,
        ) -> Result<()> {
            let Some(held) = state.relation("in") else { return Ok(()) };
            held.iter().try_for_each(|t| sink.emit("hop", t, &[(server + 1) % 3]))
        }
        fn compute(&self, round: usize, server: usize, _: &ServerState) -> Result<Vec<Relation>> {
            if (self.fail, round, server) == (Some("compute"), 2, 0) {
                return Err(SimError::Program("round 2 failed".into()));
            }
            Ok(Vec::new())
        }
        fn output(&self, server: usize, state: &ServerState) -> Result<Relation> {
            assert!((self.fail, server) != (Some("output"), 1), "output panics on server 1");
            Ok(state.relation("hop").map_or_else(|| Relation::empty("out", 2), |r| r.clone()))
        }
        fn output_arity(&self) -> usize {
            2
        }
    }

    #[test]
    fn job_link_moves_packets_and_reports_full() {
        let (mesh, reactors) = Mesh::<&Relay>::new(2, 1, 16);
        let [mut r0, mut r1]: [Reactor<&Relay>; 2] = reactors.try_into().ok().unwrap();
        // Reactor 1's lane into reactor 0's inbox holds one packet.
        let mut link = JobLink { reactor: &mut r1, job: 0 };
        assert!(matches!(link.send(0, Packet::Fin { round: 1 }), SendOutcome::Sent));
        assert!(matches!(
            link.send(0, Packet::Fin { round: 2 }),
            SendOutcome::Full(Packet::Fin { round: 2 })
        ));
        // An abort jumps the full lane, and the failure is reported.
        r1.fail(0, SimError::Program("bug".into()));
        assert!(matches!(mesh.reports.try_recv(), Ok((0, 1, Err(SimError::Program(_))))));
        // Draining for job 0 keeps its packets; job 5's, which has not
        // started here, is buffered until its `Start`.
        assert!(mesh.lanes[0]
            .send(Envelope::Data { job: 5, pkt: Packet::Fin { round: 1 } })
            .is_ok());
        let mut got = Vec::new();
        JobLink { reactor: &mut r0, job: 0 }.try_recv(&mut got);
        assert!(matches!(got[..], [Packet::Fin { round: 1 }, Packet::Abort]), "{got:?}");
        assert_eq!(r0.pending[&5].len(), 1);
        drop(r0);
        let mut link = JobLink { reactor: &mut r1, job: 0 };
        assert!(matches!(link.send(0, Packet::Fin { round: 2 }), SendOutcome::Closed));
    }

    #[test]
    fn failing_jobs_beside_good_ones_report_once_and_leave_nothing_behind() {
        let q = families::chain(2);
        let db = matching_database(&q, 300, 5);
        let config = MpcConfig::new(3, 1.0);
        let good = Relay { fail: None };
        let reference = Cluster::new(config.clone()).unwrap().run(&good, &db).unwrap();
        let (compute, output) = (Relay { fail: Some("compute") }, Relay { fail: Some("output") });
        let programs: [&dyn MpcProgram; 4] = [&compute, &good, &output, &good];

        let reactors = std::thread::scope(|scope| {
            let (mut mesh, reactors) = Mesh::<&dyn MpcProgram>::new(3, 2, 16);
            let hosts: Vec<_> = reactors
                .into_iter()
                .map(|mut reactor| {
                    scope.spawn(move || {
                        reactor.run();
                        reactor
                    })
                })
                .collect();
            let jobs: Vec<u64> =
                programs.iter().map(|&program| mesh.submit(program, &db)).collect();
            let mut done: Vec<_> = (0..4).map(|_| mesh.next_done(true).unwrap()).collect();
            assert!(mesh.next_done(false).is_none(), "each job is reported once");
            done.sort_by_key(|(job, _)| *job);
            assert_eq!(done.iter().map(|(job, _)| *job).collect::<Vec<_>>(), jobs);
            for (i, (_, result)) in done.into_iter().enumerate() {
                match (i, result) {
                    (0, Err(e)) => assert_eq!(e, SimError::Program("round 2 failed".into())),
                    (2, Err(SimError::Program(msg))) => assert_eq!(msg, "worker 1 panicked"),
                    (1 | 3, Ok(summaries)) => {
                        let run = fold_summaries(&config, &good, db.total_bytes(), summaries);
                        assert_eq!(reference.divergence(&run.unwrap()), None, "good job {i}");
                    }
                    (i, other) => panic!("job {i}: {other:?}"),
                }
            }
            // The mesh still serves after the failures.
            let next = mesh.submit(&good, &db);
            let (job, summaries) = mesh.next_done(true).unwrap();
            assert_eq!(job, next);
            let run = fold_summaries(&config, &good, db.total_bytes(), summaries.unwrap());
            assert_eq!(reference.divergence(&run.unwrap()), None, "the job after the failures");
            drop(mesh);
            hosts.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for reactor in reactors {
            assert!(reactor.cores.is_empty(), "reactor {} kept a core", reactor.id);
            assert!(reactor.pending.is_empty(), "reactor {} kept a packet", reactor.id);
        }
    }
}
