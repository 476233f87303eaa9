//! The claim table: one row per artefact of the paper the repository
//! reproduces, in README order.

mod lp;
mod one_round;
mod rounds;
mod runtime;
mod skew;

use crate::Claim;

/// Every claim, in README order. `tests/claims.rs` checks README's
/// experiments table against it.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "T1",
        artefact: "table1",
        paper: "Table 1; Lemma 3.4",
        shows: "family analysis: answer sizes, covers, shares, τ*, ε*; fails if the three LP \
                solver paths disagree on a row",
        run: lp::table1,
    },
    Claim {
        id: "T2",
        artefact: "table2",
        paper: "Table 2; Theorem 4.5",
        shows: "rounds vs space exponent for `C_k`/`L_k`/`T_k`/`SP_k`; fails unless `C_k` and \
                `L_k` take `⌈log_{kε} k⌉` rounds, `T_k` one and `SP_k` two at ε = 0, and every \
                executed plan computes the join",
        run: rounds::table2,
    },
    Claim {
        id: "F1",
        artefact: "figure1_lps",
        paper: "Figure 1 / Example 2.2",
        shows: "the cover/packing LPs solved exactly, with the solver path; fails if the three \
                LP solver paths disagree on a row",
        run: lp::figure1_lps,
    },
    Claim {
        id: "E1",
        artefact: "exp_hypercube_load",
        paper: "Example 3.1 / Prop 3.2",
        shows: "HC load on `C_3` falls like `3·n·16/p^{2/3}` bytes within budget while \
                broadcast stays at `3·n·16`; fails outside 1–2× of that load",
        run: one_round::hypercube_load,
    },
    Claim {
        id: "E2",
        artefact: "exp_one_round_fraction",
        paper: "Theorem 3.3 / Prop 3.11",
        shows: "below ε* only a `1/p^{τ*(1−ε)−1}` answer fraction is reportable; fails unless \
                `L_3`'s fraction is within 2× of it and falls with `p`",
        run: one_round::one_round_fraction,
    },
    Claim {
        id: "E3",
        artefact: "exp_chain_rounds",
        paper: "Example 4.2 / Lemma 4.6",
        shows: "chain round counts vs the `⌈log_{kε} k⌉` bound; fails unless lower bound, plan \
                and execution all equal it",
        run: rounds::chain_rounds,
    },
    Claim {
        id: "E4",
        artefact: "exp_spoke_tradeoff",
        paper: "Section 4.1 (`SP_k`)",
        shows: "one round at `p^{1−1/k}` replication vs two rounds at none; fails unless the \
                one-round replication grows with `k` and the two-round one is 1",
        run: rounds::spoke_tradeoff,
    },
    Claim {
        id: "E5",
        artefact: "exp_connected_components",
        paper: "Theorem 4.10",
        shows: "sparse CC needs rounds growing with `p`; dense needs two, within budget only \
                while its degree reaches `p²`; the two-round algorithm blows the budget on \
                sparse input",
        run: rounds::connected_components,
    },
    Claim {
        id: "E6",
        artefact: "exp_join_witness",
        paper: "Proposition 3.12",
        shows: "JOIN-WITNESS fails in one round below ε = 1/2; fails unless two rounds find \
                every witness and one round at most a quarter, no more as `p` grows",
        run: one_round::join_witness,
    },
    Claim {
        id: "E7",
        artefact: "exp_skew_ablation",
        paper: "§2.5/§3.3 + Beame et al. 2014",
        shows: "skew-resilient routing restores the budget vanilla HC blows; fails on a \
                resilient row over budget or with a different answer",
        run: skew::skew_ablation,
    },
    Claim {
        id: "E8",
        artefact: "exp_share_rounding",
        paper: "§3.1 ablation",
        shows: "the integer share-rounding penalty; fails unless a perfect-power `p` uses every \
                server, `p = 50` idles some and every penalty stays within 2×",
        run: one_round::share_rounding,
    },
    Claim {
        id: "E9",
        artefact: "exp_straggler_schedule",
        paper: "journal version (arXiv:1602.06236); the event-driven backend",
        shows: "stragglers inflate makespan and barrier waits while volume stats stay constant; \
                fails on async/sync divergence or an uninflated makespan, also at block \
                capacity 1",
        run: runtime::straggler_schedule,
    },
    Claim {
        id: "E10",
        artefact: "exp_output_sensitive",
        paper: "journal version (arXiv:1602.06236), output-sensitive bounds",
        shows: "sweeps the output cardinality `m` on planted databases; fails if a simulated \
                load beats the proven lower bound or blows the rounding-aware upper bound",
        run: runtime::output_sensitive,
    },
    Claim {
        id: "E11",
        artefact: "exp_service_throughput",
        paper: "the `mpc-net` query service",
        shows: "queries/sec, p99 latency and per-template planning cost of concurrent queries \
                on one shared service; fails on an outcome unlike its dedicated run or fewer \
                than 4 queries in flight",
        run: runtime::service_throughput,
    },
    Claim {
        id: "E12",
        artefact: "exp_wco_crossover",
        paper: "BKS 2018 (arXiv:1604.01848)",
        shows: "one round vs worst-case optimal on `C_3`/`C_4`/`K_4` under a planted \
                degree-`n/2` hitter; fails if one round still wins at the largest `p`, outputs \
                differ, or a WCO load escapes its predicted bracket",
        run: skew::wco_crossover,
    },
    Claim {
        id: "E13",
        artefact: "exp_adaptive_runtime",
        paper: "Beame et al. 2014 §5; the adaptive runtime",
        shows: "sampled statistics keep planning flat as `n` grows 4×; rerouting recovers ≥ 30% \
                of a pinned straggler's makespan; the output is identical across {exact, \
                sampled} × {static, reroute} × {sync, async}",
        run: skew::adaptive_runtime,
    },
];
