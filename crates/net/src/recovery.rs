//! Crash recovery for the spawned-process master: one knob.
//!
//! The MPC protocol is round-synchronous: every round ends at a global
//! `Ready`/`Proceed` barrier, which makes the barrier the natural
//! checkpoint cut. With [`MasterConfig::max_respawns`] above zero the
//! master says so with one `recovery=1` line on its workers' job wire
//! form; each worker then sends a
//! [`Frame::Checkpoint`](crate::Frame::Checkpoint) at every barrier and
//! keeps its outbound frames of the last two rounds for replay. When the
//! master finds a worker dead (its connection closed or its process
//! exited) it re-spawns the worker from the same [`JobSpec`] after a
//! back-off, restores it from its latest
//! checkpoint, and has the surviving peers retransmit the in-flight round
//! from their replay logs — the query never restarts. Once the respawn
//! budget is spent the master falls back to the fail-fast abort.
//!
//! A recoverable worker's bookkeeping of its data links is one value,
//! [`Ledger`], free of sockets: what it sent, for replay, and what it was
//! delivered, so re-sent traffic counts once.

use std::collections::{BTreeMap, HashMap, HashSet};

use mpc_sim::Packet;

use crate::fault::FaultPlan;
use crate::spec::JobSpec;

/// Everything configurable about a spawned-process run beyond the
/// [`JobSpec`] itself.
#[derive(Debug, Clone, Default)]
pub struct MasterConfig {
    /// How many re-spawns the whole job may consume. `0` (the default)
    /// disables recovery: the first dead worker aborts the job.
    pub max_respawns: usize,
    /// Deterministic faults to inject into the spawned workers (passed
    /// as `--fault` arguments; `None` runs clean).
    pub faults: Option<FaultPlan>,
}

/// The job wire line that makes a worker recoverable.
const RECOVERY_LINE: &str = "recovery=1";

/// Rounds of outbound frames a recoverable worker keeps for replay.
/// Workers checkpoint every round, so a rejoining peer restores from at
/// most one round back: the log holds the round in flight and the one
/// before it.
pub(crate) const REPLAY_ROUNDS: usize = 2;

impl MasterConfig {
    /// The wire form this master hands `job`'s workers: the spec's own,
    /// plus [`RECOVERY_LINE`] when it may re-spawn them
    /// ([`JobSpec::from_wire`] skips it like any unknown key).
    pub(crate) fn job_wire(&self, job: &JobSpec) -> String {
        let mut wire = job.to_wire();
        if self.max_respawns > 0 {
            wire.push_str(RECOVERY_LINE);
            wire.push('\n');
        }
        wire
    }
}

/// Whether a job wire form asks its worker to stay recoverable: keep a
/// replay log, accept rejoining peers, and checkpoint every round.
pub(crate) fn recovery_requested(wire: &str) -> bool {
    wire.lines().any(|line| line.trim() == RECOVERY_LINE)
}

/// A recoverable worker's data-link bookkeeping. Outbound: every data
/// frame of the last [`REPLAY_ROUNDS`] rounds, encoded, in send order,
/// with its destination — what a replaced peer is replayed. Inbound: per
/// `(sender, round)` the next block sequence number due (a sender seals a
/// round's blocks in sequence), and the `(link, round)` FINs delivered —
/// so a replacement's re-sent traffic, arriving beside what its
/// predecessor sent, is delivered exactly once.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    log: BTreeMap<usize, Vec<(usize, Vec<u8>)>>,
    next_seq: HashMap<(usize, usize), u64>,
    fins: HashSet<(usize, usize)>,
}

impl Ledger {
    /// Whether `pkt`, read off the link from `link`, is new; it is then
    /// counted as delivered.
    pub(crate) fn admit(&mut self, link: usize, pkt: &Packet) -> bool {
        match pkt {
            Packet::Block(b) => {
                let next = self.next_seq.entry((b.from, b.round)).or_default();
                let new = b.seq >= *next;
                *next = (*next).max(b.seq + 1);
                new
            }
            Packet::Fin { round } => self.fins.insert((link, *round)),
            Packet::Abort => true,
        }
    }

    /// Keep `frame`, sent to `dest` in `round`, for replay.
    pub(crate) fn log(&mut self, dest: usize, round: usize, frame: &[u8]) {
        self.log.entry(round).or_default().push((dest, frame.to_vec()));
    }

    /// The frames a replacement of `dest` restored from round `from_round`
    /// is due, in send order.
    pub(crate) fn replay(&self, dest: usize, from_round: usize) -> impl Iterator<Item = &[u8]> {
        let frames = self.log.range(from_round + 1..).flat_map(|(_, frames)| frames);
        frames.filter(move |(to, _)| *to == dest).map(|(_, frame)| frame.as_slice())
    }

    /// Barrier `round` passed: a replacement restores from a checkpoint at
    /// most one round back, so only the last [`REPLAY_ROUNDS`] rounds stay.
    pub(crate) fn prune(&mut self, round: usize) {
        self.log = self.log.split_off(&(round + 1).saturating_sub(REPLAY_ROUNDS));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use mpc_core::plan::PlannerChoice;
    use mpc_sim::TupleBlock;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::spec::DbSpec;

    fn job() -> JobSpec {
        JobSpec {
            program: PlannerChoice::OneRoundHyperCube,
            query: mpc_cq::families::triangle().to_string(),
            db: DbSpec::Matching { n: 10, seed: 1 },
            p: 2,
            epsilon: 0.5,
            seed: 1,
            block_capacity: 16,
        }
    }

    #[test]
    fn policy_defaults_fail_fast() {
        let cfg = MasterConfig::default();
        assert_eq!(cfg.max_respawns, 0);
        assert!(!recovery_requested(&cfg.job_wire(&job())));
    }

    #[test]
    fn settings_ride_the_job_wire_form() {
        let cfg = MasterConfig { max_respawns: 2, faults: None };
        let wire = cfg.job_wire(&job());
        assert!(recovery_requested(&wire));
        assert_eq!(JobSpec::from_wire(&wire).unwrap(), job(), "the flag is skipped as a key");
        assert!(!recovery_requested(&job().to_wire()));
    }

    /// What sender `from` puts on its link: per round its blocks, in
    /// sequence (`blocks[r - 1]` of them, each holding its sequence
    /// number), then its FIN.
    fn traffic(from: usize, blocks: &[u64]) -> VecDeque<Packet> {
        let mut out = VecDeque::new();
        for (round, &n) in (1..).zip(blocks) {
            for seq in 0..n {
                let tag = Arc::from("R");
                out.push_back(Packet::Block(TupleBlock::from_parts(
                    tag,
                    round,
                    from,
                    seq,
                    1,
                    1,
                    vec![seq],
                )));
            }
            out.push_back(Packet::Fin { round });
        }
        out
    }

    /// A packet as `(round, Some(seq))` for a block, `(round, None)` for a FIN.
    fn what(pkt: &Packet) -> (usize, Option<u64>) {
        match pkt {
            Packet::Block(b) => (b.round, Some(b.values()[0])),
            Packet::Fin { round } => (*round, None),
            Packet::Abort => unreachable!("no sender here aborts"),
        }
    }

    /// A sender dies after some prefix of its traffic went out on its old
    /// link, and its replacement sends all of it again on a new one. The
    /// two links are read concurrently, each in FIFO order; under every
    /// seed the ledger lets each block and each FIN through exactly once,
    /// in the order the sender sent them.
    #[test]
    fn resent_traffic_is_delivered_exactly_once_in_sequence_order() {
        let (from, blocks) = (2, [3, 0, 5]);
        let sent: Vec<_> = traffic(from, &blocks).iter().map(what).collect();
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut old = traffic(from, &blocks);
            old.truncate(rng.gen_range(0..=sent.len()));
            let mut links = [old, traffic(from, &blocks)];
            let (mut ledger, mut delivered) = (Ledger::default(), Vec::new());
            while links.iter().any(|link| !link.is_empty()) {
                let link = &mut links[rng.gen_range(0..2)];
                if let Some(pkt) = link.pop_front() {
                    if ledger.admit(from, &pkt) {
                        delivered.push(what(&pkt));
                    }
                }
            }
            assert_eq!(delivered, sent, "seed {seed}");
        }
    }

    /// The log replays a replacement its frames of the rounds after its
    /// checkpoint, in send order, and after each barrier keeps only the
    /// last [`REPLAY_ROUNDS`] rounds.
    #[test]
    fn the_log_keeps_the_last_rounds_and_replays_a_peers_frames_in_order() {
        let mut ledger = Ledger::default();
        for round in 1..=5 {
            for (dest, nth) in [(0, 0), (2, 0), (0, 1)] {
                ledger.log(dest, round, &[round as u8, dest as u8, nth]);
            }
            ledger.prune(round);
            let kept: Vec<usize> = ledger.log.keys().copied().collect();
            let last: Vec<usize> = (round.saturating_sub(REPLAY_ROUNDS) + 1..=round).collect();
            assert_eq!(kept, last, "after barrier {round}");
        }
        let replayed: Vec<&[u8]> = ledger.replay(0, 4).collect();
        assert_eq!(replayed, [[5, 0, 0], [5, 0, 1]]);
        let replayed: Vec<&[u8]> = ledger.replay(2, 3).collect();
        assert_eq!(replayed, [[4, 2, 0], [5, 2, 0]]);
    }
}
