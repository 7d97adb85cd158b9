//! Batch planning: collapse duplicate queries and attach window-contained
//! queries to the unit whose result already covers them.
//!
//! The planner turns the flat query list of a batch into a [`BatchPlan`] of
//! executable [`PlanUnit`]s. Two reductions are applied, both purely
//! syntactic on the canonical query forms (no graph access):
//!
//! 1. **Dedup** — queries with identical canonical form share one unit; the
//!    unit's result is copied into every duplicate's result slot.
//! 2. **Window sharing** — a query whose window is *contained* in another
//!    query's window on the same `(s, t)` pair is attached to the covering
//!    unit as a [`Follower`]. Every temporal simple path of the narrower
//!    query lies within the covering window, hence inside the covering
//!    unit's tspG (Definition 2); the follower is therefore answered exactly
//!    by re-running the pipeline *on that tspG* — usually orders of
//!    magnitude smaller than the input graph — instead of on the full graph.
//!
//! Every unit is a query the batch asked: the planner never synthesizes a
//! window, so each unit costs exactly the one VUG run the paper prescribes
//! for it. The planner never changes answers, only who computes them: the
//! executor runs one full-graph pipeline per unit and one tspG-sized
//! pipeline per follower, and the assembly step fans results back out to
//! the original query order.

use crate::engine::cache::CacheStats;
use crate::engine::{QueryEngine, QuerySpec};
use std::collections::HashMap;
use tspg_graph::{TimeInterval, VertexId};

/// One executable unit of a [`BatchPlan`]: a canonical query, the original
/// batch positions it answers directly, and the narrower queries answered
/// from its result.
#[derive(Clone, Debug)]
pub struct PlanUnit {
    /// The canonical query the executor runs against the full graph.
    pub query: QuerySpec,
    /// Positions in the original batch answered by this unit's result
    /// verbatim (the unit's own query plus exact duplicates); never empty.
    pub direct: Vec<usize>,
    /// Distinct narrower queries answered by re-running the pipeline on
    /// this unit's tspG.
    pub followers: Vec<Follower>,
}

impl PlanUnit {
    /// The smallest original batch position this unit answers (through its
    /// direct slots or its followers) — the deterministic ordering key.
    fn first_index(&self) -> usize {
        self.followers.iter().map(|f| f.indexes[0]).fold(self.direct[0], usize::min)
    }
}

/// A distinct query whose window is contained in its unit's window.
#[derive(Clone, Debug)]
pub struct Follower {
    /// The narrower canonical query.
    pub query: QuerySpec,
    /// Positions in the original batch answered by this follower's result
    /// (the follower plus its exact duplicates).
    pub indexes: Vec<usize>,
}

/// The execution plan of one batch: units to run, and counters describing
/// how much work planning saved.
#[derive(Clone, Debug, Default)]
pub struct BatchPlan {
    units: Vec<PlanUnit>,
    planned_queries: usize,
    dedup_answered: usize,
    shared_answered: usize,
}

impl BatchPlan {
    /// The executable units, ordered by their first appearance in the batch.
    pub fn units(&self) -> &[PlanUnit] {
        &self.units
    }

    /// Number of full-graph pipeline executions the plan requires.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Number of queries handed to the planner.
    pub fn planned_queries(&self) -> usize {
        self.planned_queries
    }

    /// Queries answered by copying another identical query's result
    /// (duplicates beyond the first occurrence, including duplicate
    /// followers).
    pub fn dedup_answered(&self) -> usize {
        self.dedup_answered
    }

    /// Queries answered from a covering unit's tspG instead of the full
    /// graph (counting duplicates of followers once each).
    pub fn shared_answered(&self) -> usize {
        self.shared_answered
    }
}

/// One distinct query being grouped, with the batch positions it answers.
struct Member {
    query: QuerySpec,
    indexes: Vec<usize>,
}

/// Builds the execution plan for `pending`: pairs of (original batch
/// position, canonical query). Degenerate queries and cache hits must
/// already have been filtered out by the caller.
pub fn plan_batch(pending: &[(usize, QuerySpec)]) -> BatchPlan {
    // 1. Dedup: canonical query -> every batch position asking it. The
    //    distinct list preserves first-appearance order so that planning is
    //    deterministic regardless of hash iteration order.
    let mut by_query: HashMap<QuerySpec, usize> = HashMap::with_capacity(pending.len());
    let mut distinct: Vec<Member> = Vec::new();
    for &(index, query) in pending {
        match by_query.get(&query) {
            Some(&slot) => distinct[slot].indexes.push(index),
            None => {
                by_query.insert(query, distinct.len());
                distinct.push(Member { query, indexes: vec![index] });
            }
        }
    }
    let mut plan = BatchPlan {
        planned_queries: pending.len(),
        dedup_answered: pending.len() - distinct.len(),
        ..BatchPlan::default()
    };

    // 2. Group distinct queries by endpoint pair.
    let mut groups: HashMap<(VertexId, VertexId), Vec<usize>> = HashMap::new();
    for (slot, member) in distinct.iter().enumerate() {
        groups.entry((member.query.source, member.query.target)).or_default().push(slot);
    }

    // 3. Per-group containment sweep. Sorting windows by (begin asc, end
    //    desc) means every earlier window starts no later than the current
    //    one, so "is the current window inside the group's last unit?" is
    //    the whole containment test: an earlier unit that covers it ends no
    //    later than the last unit (else it would have covered that unit
    //    too), so the last unit covers it as well.
    for mut slots in groups.into_values() {
        slots.sort_by_key(|&slot| {
            let w = distinct[slot].query.window;
            (w.begin(), std::cmp::Reverse(w.end()))
        });
        let mut cover: Option<TimeInterval> = None;
        for slot in slots {
            let member = &distinct[slot];
            let (query, indexes) = (member.query, member.indexes.clone());
            match plan.units.last_mut() {
                Some(unit) if cover.is_some_and(|w| w.contains_interval(&query.window)) => {
                    unit.followers.push(Follower { query, indexes });
                    plan.shared_answered += 1;
                }
                _ => {
                    cover = Some(query.window);
                    plan.units.push(PlanUnit { query, direct: indexes, followers: Vec::new() });
                }
            }
        }
    }

    // 4. Deterministic unit order: first batch appearance.
    plan.units.sort_by_key(PlanUnit::first_index);
    plan
}

// Compatibility surface for `benchmark/`, which builds against the
// engine's public API and still calls the planner policy, density signals
// and profile layers this crate no longer has: `benchmark/src/replay.rs`
// calls `plan`, `QueryEngine::planner_config`,
// `QueryEngine::observed_density`, `QueryEngine::observed_profile_density`
// and `BatchPlan::profile_groups`; `benchmark/src/verify.rs` calls
// `QueryEngine::without_profile_cache`; `benchmark/src/batch.rs` calls
// `QueryEngine::profile_cache_stats`. Every item returns the neutral value
// (no groups, `None`, a no-op). Delete the block once the benchmark stops
// calling it.

/// The retired planner policy; it has no settings left.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerConfig;

/// A same-source profile group; the planner never forms one.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct ProfileGroup {
    /// The shared source vertex.
    pub source: VertexId,
    /// The hull window of the group.
    pub window: TimeInterval,
}

/// [`plan_batch`] under its former signature; the policy and the density
/// signals are ignored.
#[doc(hidden)]
pub fn plan(
    pending: &[(usize, QuerySpec)],
    _config: &PlannerConfig,
    _observed_density: Option<f64>,
    _observed_profile_density: Option<f64>,
) -> BatchPlan {
    plan_batch(pending)
}

#[doc(hidden)]
impl BatchPlan {
    /// Always empty.
    pub fn profile_groups(&self) -> &[ProfileGroup] {
        &[]
    }
}

#[doc(hidden)]
impl QueryEngine {
    /// The (empty) planner policy.
    pub fn planner_config(&self) -> &PlannerConfig {
        &PlannerConfig
    }

    /// Always `None`.
    pub fn observed_density(&self) -> Option<f64> {
        None
    }

    /// Always `None`.
    pub fn observed_profile_density(&self) -> Option<f64> {
        None
    }

    /// A no-op.
    pub fn without_profile_cache(self) -> Self {
        self
    }

    /// Always `None`; typed as the result cache's stats so a caller's
    /// `.key_values()` still compiles.
    pub fn profile_cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: u32, t: u32, b: i64, e: i64) -> QuerySpec {
        QuerySpec::new(s, t, TimeInterval::new(b, e))
    }

    fn plan_default(queries: &[QuerySpec]) -> BatchPlan {
        let pending: Vec<(usize, QuerySpec)> = queries.iter().copied().enumerate().collect();
        plan_batch(&pending)
    }

    /// Every batch position must be answered by exactly one plan entry.
    fn assert_covers_batch(plan: &BatchPlan, len: usize) {
        let mut seen = vec![0usize; len];
        for unit in plan.units() {
            for &i in &unit.direct {
                seen[i] += 1;
            }
            for f in &unit.followers {
                assert!(unit.query.covers(&f.query), "{:?} must cover {:?}", unit.query, f.query);
                for &i in &f.indexes {
                    seen[i] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each query answered exactly once: {seen:?}");
    }

    #[test]
    fn exact_duplicates_collapse_to_one_unit() {
        let plan = plan_default(&[q(0, 7, 2, 7), q(1, 5, 1, 4), q(0, 7, 2, 7), q(0, 7, 2, 7)]);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.dedup_answered(), 2);
        assert_eq!(plan.shared_answered(), 0);
        let unit = &plan.units()[0];
        assert_eq!(unit.query, q(0, 7, 2, 7));
        assert_eq!(unit.direct, vec![0, 2, 3]);
        assert_eq!(plan.units()[1].direct, vec![1]);
    }

    #[test]
    fn contained_windows_attach_to_the_covering_unit() {
        let plan = plan_default(&[q(0, 7, 0, 10), q(0, 7, 2, 7), q(0, 7, 3, 5)]);
        assert_eq!(plan.num_units(), 1, "both narrower windows share the wide unit");
        assert_eq!(plan.shared_answered(), 2);
        let unit = &plan.units()[0];
        assert_eq!(unit.query, q(0, 7, 0, 10));
        assert_eq!(unit.followers.len(), 2);
        assert_covers_batch(&plan, 3);
    }

    #[test]
    fn containment_chains_attach_to_the_widest_window() {
        // A ⊇ B ⊇ C: both B and C become followers of A, not of each other.
        let plan = plan_default(&[q(1, 2, 3, 4), q(1, 2, 1, 8), q(1, 2, 2, 6)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.units()[0].query, q(1, 2, 1, 8));
        assert_eq!(plan.units()[0].followers.len(), 2);
        assert_eq!(plan.units()[0].direct, vec![1]);
    }

    #[test]
    fn overlap_without_containment_stays_separate_in_containment_mode() {
        let plan = plan_default(&[q(0, 1, 0, 5), q(0, 1, 3, 8)]);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.shared_answered(), 0);
        assert_eq!(plan.units()[0].query, q(0, 1, 0, 5));
        assert_eq!(plan.units()[1].query, q(0, 1, 3, 8));
    }

    #[test]
    fn mixed_nested_overlapping_and_disjoint_groups() {
        let queries = [
            q(0, 1, 0, 10),  // covers the next one
            q(0, 1, 2, 5),   // nested -> follower of [0,10]
            q(0, 1, 8, 15),  // overlaps [0,10] -> own unit
            q(0, 1, 9, 12),  // nested in [8,15] only -> its follower
            q(0, 1, 40, 45), // disjoint -> own unit
            q(2, 3, 0, 10),  // different endpoints -> own unit
        ];
        let plan = plan_default(&queries);
        assert_eq!(plan.num_units(), 4);
        assert_eq!(plan.shared_answered(), 2);
        let units: Vec<(QuerySpec, usize)> =
            plan.units().iter().map(|u| (u.query, u.followers.len())).collect();
        assert_eq!(
            units,
            vec![
                (q(0, 1, 0, 10), 1),
                (q(0, 1, 8, 15), 1),
                (q(0, 1, 40, 45), 0),
                (q(2, 3, 0, 10), 0)
            ]
        );
        assert_covers_batch(&plan, 6);
    }

    #[test]
    fn gapped_windows_never_merge() {
        let plan = plan_default(&[q(0, 1, 0, 5), q(0, 1, 7, 12)]);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.shared_answered(), 0);
    }

    #[test]
    fn different_endpoints_never_share() {
        let plan = plan_default(&[q(0, 1, 0, 10), q(1, 0, 2, 7), q(0, 2, 2, 7)]);
        assert_eq!(plan.num_units(), 3);
        assert_eq!(plan.shared_answered(), 0);
    }

    #[test]
    fn duplicate_followers_count_once_as_shared() {
        let plan = plan_default(&[q(0, 1, 0, 10), q(0, 1, 2, 5), q(0, 1, 2, 5)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.dedup_answered(), 1);
        assert_eq!(plan.shared_answered(), 1);
        assert_eq!(plan.units()[0].followers[0].indexes, vec![1, 2]);
    }

    #[test]
    fn equal_begin_prefers_the_wider_window_as_unit() {
        let plan = plan_default(&[q(0, 1, 2, 5), q(0, 1, 2, 9)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.units()[0].query, q(0, 1, 2, 9));
        assert_eq!(plan.units()[0].direct, vec![1]);
        assert_eq!(plan.units()[0].followers[0].query, q(0, 1, 2, 5));
    }

    #[test]
    fn unit_order_follows_first_batch_appearance() {
        let plan = plan_default(&[q(5, 6, 1, 2), q(3, 4, 1, 2), q(1, 2, 1, 2)]);
        let firsts: Vec<usize> = plan.units().iter().map(|u| u.direct[0]).collect();
        assert_eq!(firsts, vec![0, 1, 2]);
        // A unit whose follower was asked first orders by that follower.
        let plan = plan_default(&[q(5, 6, 4, 6), q(3, 4, 1, 2), q(5, 6, 1, 9)]);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.units()[0].query, q(5, 6, 1, 9));
        assert_eq!(plan.units()[0].followers[0].indexes, vec![0]);
        assert_eq!(plan.units()[1].direct, vec![1]);
    }

    #[test]
    fn extreme_windows_plan_by_containment() {
        // Saturating spans must not matter: [MIN, 0] and [-5, MAX] overlap
        // without containment and stay separate units, while [MAX-1, MAX]
        // is contained in [-5, MAX] and attaches as a follower.
        let queries =
            [q(0, 1, i64::MIN, 0), q(0, 1, -5, i64::MAX), q(0, 1, i64::MAX - 1, i64::MAX)];
        let plan = plan_default(&queries);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.shared_answered(), 1);
        assert_covers_batch(&plan, 3);
    }

    #[test]
    fn empty_input_yields_an_empty_plan() {
        let plan = plan_default(&[]);
        assert_eq!(plan.num_units(), 0);
        assert_eq!(plan.planned_queries(), 0);
        assert_eq!(plan.dedup_answered(), 0);
        assert_eq!(plan.shared_answered(), 0);
    }
}
