//! The one server-group type both skew planners carve: the residual plans
//! of `mpc_core::skew` and the pattern groups of the worst-case optimal plan are
//! `mpc_core::heavy::Group`s, and `group_of_server` is the one owner lookup
//! the programs route and report by.

use mpc_query::core::heavy::{group_of_server, Group};
use mpc_query::cq::families;
use mpc_query::data::skew::{degree_planted_database, heavy_hitter_database, zipf_database};
use mpc_query::data::{DbStatistics, StatsMode};
use mpc_query::prelude::*;
use mpc_query::skew::{HeavyHitterDetector, ResidualPlanSet};

/// `groups` partition a prefix of the `p` servers: back to back from server
/// 0, the light group first, one group per heavy configuration, every used
/// server owned by exactly the group `group_of_server` names and the idle
/// ones beyond `Σ cells` by none.
fn assert_partition(groups: &[Group], p: usize, label: &str) {
    assert!(groups[0].heavy_vars.is_empty(), "{label}: the light group comes first");
    let mut end = 0;
    for (i, g) in groups.iter().enumerate() {
        assert_eq!(g.offset, end, "{label}: group {i} starts where group {} ends", i.max(1) - 1);
        assert!(g.cells() <= g.group_size, "{label}: group {i} fits its servers");
        assert!(groups[..i].iter().all(|h| h.heavy_vars != g.heavy_vars), "{label}: group {i}");
        end += g.cells();
    }
    assert!(end <= p, "{label}: {end} cells on {p} servers");
    for s in 0..p + 2 {
        let owners: Vec<usize> = (0..groups.len()).filter(|&i| groups[i].owns_server(s)).collect();
        let expected = if s < end { vec![group_of_server(groups, s).unwrap()] } else { vec![] };
        assert_eq!(owners, expected, "{label}: server {s}");
    }
}

#[test]
fn heavy_groups_partition_the_servers() {
    let mut heavy_plans = [0, 0];
    let mut idle = [0, 0];
    for (q, p) in
        [(families::chain(2), 32usize), (families::triangle(), 27), (families::cycle(4), 16)]
    {
        for (kind, db) in [
            ("zipf", zipf_database(&q, 3000, 3000, 1.2, 5)),
            ("heavy hitter", heavy_hitter_database(&q, 1000, 2000, 0.5, 11)),
            ("degree-planted", degree_planted_database(&q, 2400, 600, 2, 250, 17)),
        ] {
            let alloc = ShareAllocation::optimal(&q, p).unwrap();
            let stats = DbStatistics::collect(&db, StatsMode::Exact);
            let heavy =
                HeavyHitterDetector::default().detect_from_stats(&q, &stats, &alloc).unwrap();
            let residual = ResidualPlanSet::build(&q, &db, heavy, p).unwrap();
            let wco = WorstCaseOptimalPlan::build(&q, &db, p).unwrap();
            for (i, groups) in [residual.plans(), wco.patterns()].into_iter().enumerate() {
                assert_partition(groups, p, &format!("{} on {kind}, planner {i}", q.name()));
                heavy_plans[i] += usize::from(groups.len() > 1);
                idle[i] += usize::from(groups.iter().map(Group::cells).sum::<usize>() < p);
            }
        }
    }
    // Both planners carved heavy groups somewhere, and left servers idle.
    assert!(heavy_plans.iter().all(|&n| n > 0), "{heavy_plans:?}");
    assert!(idle.iter().all(|&n| n > 0), "{idle:?}");
}
