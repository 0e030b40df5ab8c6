//! Scatter-gather sharded execution: the fact table hash- or
//! range-partitioned on one dimension into N independent
//! [`SharedViewStore`] shards, one physical plan per shard, and a monoid
//! merge stage gathering the partial answers.
//!
//! The layering deliberately mirrors a distributed statistical database
//! front end (the paper's §4 "summary data server" sits in front of many
//! base holdings): every shard is a complete serving stack — its own
//! sealed page store, epochs, answer cache, and (optionally) write-ahead
//! journal — and the coordinator here owns only the routing policy and the
//! merge. Three invariants anchor the design:
//!
//! 1. **Partition is a disjoint cover.** [`ShardRouter::route`] is a pure
//!    function of one dimension's coordinate, so every fact row lives on
//!    exactly one shard and the per-shard cuboids of any mask sum to the
//!    unsharded cuboid — cell-by-cell, because [`AggState`] is a
//!    commutative monoid and the merge runs in fixed shard order
//!    (deterministic float association, hence bit-for-bit reproducible).
//! 2. **Merge before enforce.** Shards run
//!    [`statcube_core::plan::execute_partial`] — derivation only, *no*
//!    privacy pass — and [`statcube_core::plan::merge_partials`] enforces
//!    the policy exactly once on the merged blocks. A suppression
//!    threshold applied per shard would both over-suppress (a cell with 2
//!    units on each of 3 shards is a 6-unit cell) and leak (complementary
//!    suppression chosen from partial marginals is unsound).
//! 3. **A dead shard degrades the answer, never corrupts it.** When a
//!    shard's every source fails verification, its partial is dropped and
//!    the gathered answer carries the shard in
//!    [`ShardAnswer::missing_shards`]: a typed *partial* answer over the
//!    surviving partitions — never an error while any shard lives, and
//!    never a silently wrong global total.
//!
//! Scatter is `std::thread::scope` fan-out (the in-repo parallelism
//! idiom); everything a remote deployment would need crosses the
//! object-safe [`ShardNode`] boundary, so a process-per-shard transport
//! can replace the threads without touching the coordinator.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use statcube_core::error::{Error, Result};
use statcube_core::measure::AggState;
use statcube_core::plan::{
    self, CatalogEntry, CodedPredicate, PartialExecution, Plan, PlannedQuery, Planner,
    PlannerConfig, PrivacyPolicy, ShardedExecution,
};
use statcube_core::trace;

use crate::cache::{CacheConfig, CacheStats};
use crate::cube_op::Degradation;
use crate::durable::RecoveryReport;
use crate::groupby::Cuboid;
use crate::input::FactInput;
use crate::query::DeltaReport;
use crate::shared::{DurableParts, SharedViewStore};

/// Hard ceiling on shard count: [`ShardAnswer::missing_shards`] is a `u32`
/// bit mask, one bit per shard.
pub const MAX_SHARDS: usize = 32;

/// The partitioning policy: which dimension routes a fact row, and how its
/// coordinate maps to a shard index. Routing is deterministic and
/// stateless, so loads, deltas, and recovery all agree on row ownership
/// without any shared routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardRouter {
    /// `shard = mix64(coord) % n`: uniform spread regardless of the
    /// dimension's value skew. The mix is a fixed splitmix64 finalizer, so
    /// the placement is stable across runs and processes.
    Hash {
        /// The routing dimension (index into the fact coordinates).
        dim: usize,
    },
    /// Contiguous coordinate ranges: shard `i` owns
    /// `bounds[i-1] <= coord < bounds[i]` (shard 0 owns everything below
    /// `bounds[0]`, the last shard everything at or above the last bound).
    /// Keeps range-correlated dimensions (time, geography) colocated.
    Range {
        /// The routing dimension (index into the fact coordinates).
        dim: usize,
        /// Strictly ascending split points; `bounds.len() + 1` shards.
        bounds: Vec<u32>,
    },
}

impl ShardRouter {
    /// The dimension this router partitions on.
    pub fn dim(&self) -> usize {
        match self {
            ShardRouter::Hash { dim } | ShardRouter::Range { dim, .. } => *dim,
        }
    }

    /// The shard index owning a row with these coordinates. Total for any
    /// `u32` coordinate: hash wraps by modulus, range clamps coordinates
    /// past the last bound into the last shard (so deltas introducing new
    /// high coordinates still route).
    pub fn route(&self, coords: &[u32], shards: usize) -> usize {
        self.route_coord(coords.get(self.dim()).copied().unwrap_or(0), shards)
    }

    /// [`ShardRouter::route`] given just the routing dimension's
    /// coordinate — what scatter pruning calls per allowed filter value.
    pub fn route_coord(&self, c: u32, shards: usize) -> usize {
        match self {
            ShardRouter::Hash { .. } => (mix64(u64::from(c)) % shards.max(1) as u64) as usize,
            ShardRouter::Range { bounds, .. } => {
                bounds.partition_point(|&b| b <= c).min(shards.saturating_sub(1))
            }
        }
    }

    /// Checks the router against a store shape: the routing dimension must
    /// exist, the shard count must fit the mask width, and a range
    /// router's bounds must be strictly ascending with exactly one split
    /// point between adjacent shards.
    pub fn validate(&self, dim_count: usize, shards: usize) -> Result<()> {
        if shards == 0 || shards > MAX_SHARDS {
            return Err(Error::InvalidSchema(format!(
                "shard count {shards} outside 1..={MAX_SHARDS}"
            )));
        }
        if self.dim() >= dim_count {
            return Err(Error::InvalidSchema(format!(
                "routing dimension {} out of range for {dim_count} dimensions",
                self.dim()
            )));
        }
        if let ShardRouter::Range { bounds, .. } = self {
            if bounds.len() + 1 != shards {
                return Err(Error::InvalidSchema(format!(
                    "{} range bounds imply {} shards, store has {shards}",
                    bounds.len(),
                    bounds.len() + 1
                )));
            }
            if bounds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Error::InvalidSchema("range bounds must be strictly ascending".into()));
            }
        }
        Ok(())
    }
}

/// splitmix64's finalizer: a fixed, high-quality 64-bit mix so hash
/// routing is uniform even on small sequential coordinate domains.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The process-ready interface one shard exposes to the coordinator.
/// Everything the scatter-gather path needs crosses this object-safe
/// boundary — planning inputs ([`ShardNode::dim_count`],
/// [`ShardNode::catalog`]), pre-enforcement execution
/// ([`ShardNode::partial`]), and the write path — so the thread-backed
/// [`SharedViewStore`] impl here could be swapped for an RPC proxy
/// without touching [`ShardedViewStore`].
pub trait ShardNode: Send + Sync {
    /// Dimension count of the shard's lattice (identical across shards).
    fn dim_count(&self) -> usize;

    /// The shard's publication generation (bumps on every delta/rebuild).
    fn generation(&self) -> u64;

    /// The shard's materialized-view catalog, for per-shard planning.
    fn catalog(&self) -> Vec<CatalogEntry>;

    /// Executes a physical plan on this shard *without* privacy
    /// enforcement — the scatter half of the protocol. Enforcement belongs
    /// to the merge stage, once, on global cells.
    fn partial(&self, planned: &PlannedQuery) -> Result<PartialExecution>;

    /// Validates a routed sub-batch against the shard without applying it.
    fn validate_delta(&self, delta: &FactInput) -> Result<()>;

    /// Applies a routed sub-batch to the shard.
    fn apply_delta(&self, delta: &FactInput) -> Result<DeltaReport>;

    /// Masks of the shard's materialized views.
    fn materialized(&self) -> Vec<u32>;

    /// Chaos hook: flips one stored bit of the shard's view `mask`.
    fn corrupt_view(&self, mask: u32, bit: u64) -> Result<()>;
}

impl ShardNode for SharedViewStore {
    fn dim_count(&self) -> usize {
        SharedViewStore::dim_count(self)
    }

    fn generation(&self) -> u64 {
        SharedViewStore::generation(self)
    }

    fn catalog(&self) -> Vec<CatalogEntry> {
        self.snapshot().store().catalog()
    }

    fn partial(&self, planned: &PlannedQuery) -> Result<PartialExecution> {
        plan::execute_partial(planned, &self.plan_source())
    }

    fn validate_delta(&self, delta: &FactInput) -> Result<()> {
        self.snapshot().store().validate_delta(delta)
    }

    fn apply_delta(&self, delta: &FactInput) -> Result<DeltaReport> {
        SharedViewStore::apply_delta(self, delta)
    }

    fn materialized(&self) -> Vec<u32> {
        SharedViewStore::materialized(self)
    }

    fn corrupt_view(&self, mask: u32, bit: u64) -> Result<()> {
        SharedViewStore::corrupt_view(self, mask, bit)
    }
}

/// A gathered cuboid answer. `cuboid` covers every *surviving* shard;
/// when [`ShardAnswer::is_partial`] the caller knows exactly which
/// partitions are absent — the PR-2 degraded-answer contract generalized
/// from "a worse source served this" to "these partitions are missing".
#[derive(Debug)]
pub struct ShardAnswer {
    /// Merged, privacy-enforced cells (suppressed cells omitted).
    pub cuboid: Cuboid,
    /// Cells scanned across all shards (0 when every shard hit cache).
    pub cells_scanned: u64,
    /// True when every surviving shard answered from its cache.
    pub cache_hit: bool,
    /// How many shards the plan was scattered to.
    pub shard_count: usize,
    /// Bit `i` set ⇔ shard `i` contributed nothing (see
    /// [`ShardedExecution::missing_shards`]).
    pub missing_shards: u32,
    /// Bit `i` set ⇔ shard `i` was *pruned*: a scan filter on the routing
    /// dimension proved it owns no matching row, so it was never
    /// scattered to. Pruned is not missing — the answer is complete.
    pub pruned_shards: u32,
    /// The typed per-shard failures behind the missing bits, in shard
    /// order.
    pub failed: Vec<(usize, Error)>,
    /// Within-shard source degradation (some shard detoured to a worse
    /// source but still answered), when any.
    pub degraded: Option<Degradation>,
}

impl ShardAnswer {
    /// True when at least one shard is missing from the answer.
    pub fn is_partial(&self) -> bool {
        self.missing_shards != 0
    }

    /// Indices of the missing shards, ascending.
    pub fn missing_indices(&self) -> Vec<usize> {
        (0..self.shard_count).filter(|i| self.missing_shards >> i & 1 == 1).collect()
    }
}

/// What a routed delta did, shard by shard.
#[derive(Debug)]
pub struct ShardedDeltaReport {
    /// Fact rows in the batch (across all shards).
    pub rows: u64,
    /// Cells merged across all shards' materialized views.
    pub cells_touched: u64,
    /// Per-shard fold reports, in shard order (empty sub-batches included:
    /// every shard reseals so lattice shapes stay in lockstep).
    pub per_shard: Vec<DeltaReport>,
}

/// N independent [`SharedViewStore`] shards behind one routing policy:
/// the coordinator of the scatter-gather protocol described at module
/// level. Cloning is cheap (each shard is `Arc`-shared) and clones serve
/// concurrently, like [`SharedViewStore`] itself.
#[derive(Debug, Clone)]
pub struct ShardedViewStore {
    router: ShardRouter,
    shards: Vec<SharedViewStore>,
}

impl ShardedViewStore {
    /// Partitions `input` by `router` and builds `shards` independent
    /// stores, each materializing the same `selected` views over its rows
    /// alone. Shards left empty by the partition are built too (an empty
    /// store answers every mask with zero cells), so shard topology never
    /// depends on data skew.
    pub fn build(
        input: &FactInput,
        selected: &[u32],
        router: ShardRouter,
        shards: usize,
        config: CacheConfig,
    ) -> Result<Self> {
        router.validate(input.dim_count(), shards)?;
        let parts = split_facts(input, &router, shards)?;
        let built = parts
            .iter()
            .map(|p| SharedViewStore::build(p, selected, config))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { router, shards: built })
    }

    /// [`ShardedViewStore::build`] with one write-ahead journal *per
    /// shard* (`parts[i]` backs shard `i`), so durability and recovery
    /// stay shard-local and parallel.
    pub fn build_durable_on(
        input: &FactInput,
        selected: &[u32],
        router: ShardRouter,
        config: CacheConfig,
        parts: &[DurableParts],
    ) -> Result<Self> {
        let shards = parts.len();
        router.validate(input.dim_count(), shards)?;
        let split = split_facts(input, &router, shards)?;
        let built = split
            .iter()
            .zip(parts)
            .map(|(p, d)| SharedViewStore::build_durable_on(p, selected, config, d.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { router, shards: built })
    }

    /// Recovers every shard from its own journal + manifest, in parallel
    /// (shard recoveries are independent by construction — no cross-shard
    /// ordering exists to violate). Reports come back in shard order.
    pub fn recover(
        router: ShardRouter,
        parts: &[DurableParts],
        config: CacheConfig,
    ) -> Result<(Self, Vec<RecoveryReport>)> {
        let recovered: Vec<Result<(SharedViewStore, RecoveryReport)>> = thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .map(|d| s.spawn(move || SharedViewStore::recover(d, config)))
                .collect();
            handles.into_iter().map(join_shard).collect()
        });
        let mut shards = Vec::with_capacity(parts.len());
        let mut reports = Vec::with_capacity(parts.len());
        for r in recovered {
            let (store, report) = r?;
            shards.push(store);
            reports.push(report);
        }
        let me = Self { router, shards };
        me.router.validate(me.dim_count(), me.shards.len())?;
        Ok((me, reports))
    }

    /// The routing policy.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to shard `i` (tests, benchmarks, chaos hooks).
    pub fn shard(&self, i: usize) -> Option<&SharedViewStore> {
        self.shards.get(i)
    }

    /// The shards as coordinator-facing nodes, in shard order.
    pub fn nodes(&self) -> Vec<&dyn ShardNode> {
        self.shards.iter().map(|s| s as &dyn ShardNode).collect()
    }

    /// Dimension count (identical across shards; 0 only if shardless,
    /// which construction forbids).
    pub fn dim_count(&self) -> usize {
        self.shards.first().map_or(0, |s| s.dim_count())
    }

    /// The top (base) cuboid mask.
    pub fn top(&self) -> u32 {
        self.shards.first().map_or(0, |s| s.top())
    }

    /// Sum of per-shard publication generations: changes whenever any
    /// shard republishes, so it keys plan caches exactly like
    /// [`SharedViewStore::generation`] does for one store.
    pub fn generation(&self) -> u64 {
        self.shards.iter().map(|s| s.generation()).sum()
    }

    /// Aggregated answer-cache statistics across shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut acc = CacheStats::default();
        for s in &self.shards {
            let st = s.cache_stats();
            acc.hits += st.hits;
            acc.misses += st.misses;
            acc.insertions += st.insertions;
            acc.evictions += st.evictions;
            acc.rejected += st.rejected;
            acc.invalidations += st.invalidations;
            acc.degraded_skips += st.degraded_skips;
            acc.bytes_used += st.bytes_used;
            acc.entries += st.entries;
        }
        acc
    }

    /// Plans one physical query per shard through a caller-supplied
    /// planner (the SQL layer passes a schema-aware one). Plans come back
    /// in shard order, ready for [`ShardedViewStore::execute_planned`].
    /// Planning failure is query-invalidity, not shard death, so the
    /// first failure aborts the whole scatter.
    pub fn plan_each<F>(&self, mut plan_for: F) -> Result<Vec<Arc<PlannedQuery>>>
    where
        F: FnMut(&dyn ShardNode) -> Result<PlannedQuery>,
    {
        self.shards.iter().map(|s| plan_for(s as &dyn ShardNode).map(Arc::new)).collect()
    }

    /// Per-shard physical plans for a logical plan under a policy: the
    /// standard cube-mask planning path, per shard (each shard's catalog
    /// carries its own cell counts, so fallback chains may differ).
    pub fn plan_shards(
        &self,
        logical: &Plan,
        policy: &PrivacyPolicy,
        config: PlannerConfig,
    ) -> Result<Vec<Arc<PlannedQuery>>> {
        self.plan_each(|node| {
            Planner::for_store(node.dim_count(), &node.catalog())
                .with_policy(policy.clone())
                .with_config(config)
                .plan(logical)
        })
    }

    /// The shards that can own a row whose routing-dimension coordinate
    /// is in `allowed` (`None` = unconstrained): routes every allowed
    /// value and collects the distinct owners, ascending. An empty filter
    /// set keeps shard 0, so the scatter still yields one (empty) partial
    /// rather than a vacuous no-answer error.
    fn owned_shards(&self, allowed: Option<&[u32]>) -> Vec<usize> {
        let n = self.shards.len();
        let Some(values) = allowed else { return (0..n).collect() };
        let mut owned: Vec<usize> = values.iter().map(|&v| self.router.route_coord(v, n)).collect();
        owned.sort_unstable();
        owned.dedup();
        if owned.is_empty() {
            owned.push(0);
        }
        owned
    }

    /// The routing-dimension constraint the executor will actually apply,
    /// if any. Pruning reads the compiled plan's *pushed* scan filters —
    /// never the logical query — so a shard is only skipped when the scan
    /// itself would reject every row it owns. (`leaf_predicates` are a
    /// SQL-layer concern the core executor ignores, so they never prune.)
    fn router_filter<'p>(&self, planned: &'p PlannedQuery) -> Option<&'p [u32]> {
        let dim = self.router.dim();
        planned.scan_filters.iter().find(|(d, _)| *d == dim).map(|(_, allowed)| allowed.as_slice())
    }

    /// The scatter-gather core: fans `plans[i]` out to shard `i` on scoped
    /// threads, gathers pre-enforcement partials, merges them in shard
    /// order through the [`statcube_core::plan::merge_blocks`] monoid, and
    /// enforces `policy` once on the merged cells. When the plan carries a
    /// scan filter on the routing dimension, shards that provably own no
    /// matching row are pruned from the scatter entirely (reported in
    /// [`ShardedExecution::pruned_shards`], not as missing). A scattered
    /// shard whose execution errors becomes a missing bit plus its typed
    /// error; only when *every* scattered shard fails does the call error
    /// (with the first shard's error — an invalid query fails identically
    /// everywhere).
    pub fn execute_planned(
        &self,
        plans: &[Arc<PlannedQuery>],
        policy: &PrivacyPolicy,
    ) -> Result<(ShardedExecution, Vec<(usize, Error)>)> {
        if plans.len() != self.shards.len() {
            return Err(Error::InvalidSchema(format!(
                "{} plans for {} shards",
                plans.len(),
                self.shards.len()
            )));
        }
        let owned = self.owned_shards(plans.first().and_then(|p| self.router_filter(p)));
        let subset: Vec<(usize, &Arc<PlannedQuery>)> =
            owned.iter().map(|&i| (i, &plans[i])).collect();
        self.scatter(&subset, policy)
    }

    /// Scatters to exactly the listed `(shard index, plan)` pairs and
    /// gathers/merges as documented on [`ShardedViewStore::execute_planned`].
    /// Shard indices absent from the list come back as pruned bits.
    fn scatter(
        &self,
        subset: &[(usize, &Arc<PlannedQuery>)],
        policy: &PrivacyPolicy,
    ) -> Result<(ShardedExecution, Vec<(usize, Error)>)> {
        let n = self.shards.len();
        let scattered: u32 = subset.iter().fold(0, |m, &(i, _)| m | (1u32 << i));
        let all = if n >= 32 { u32::MAX } else { (1u32 << n) - 1 };
        let pruned = all & !scattered;
        let mut sp = trace::span("cube.scatter");
        sp.record("shards", n as u64);
        sp.record("pruned", u64::from(pruned.count_ones()));
        let results: Vec<Result<PartialExecution>> = if let [(i, planned)] = *subset {
            // Single-shard fast path: a pruned slice (or N=1) has nothing
            // to overlap, and a per-query thread spawn would cost more
            // than the one shard's scan it fronts. Same panic contract as
            // the scoped worker.
            vec![std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (&self.shards[i] as &dyn ShardNode).partial(planned)
            }))
            .unwrap_or_else(|_| Err(Error::InvalidSchema("shard worker panicked".into())))]
        } else {
            thread::scope(|s| {
                let handles: Vec<_> = subset
                    .iter()
                    .map(|&(i, planned)| {
                        let node: &dyn ShardNode = &self.shards[i];
                        s.spawn(move || node.partial(planned))
                    })
                    .collect();
                handles.into_iter().map(join_shard).collect()
            })
        };
        let mut parts = Vec::with_capacity(results.len());
        let mut failed = Vec::new();
        for (&(i, _), r) in subset.iter().zip(results) {
            match r {
                Ok(p) => parts.push(Some(p)),
                Err(e) => {
                    failed.push((i, e));
                    parts.push(None);
                }
            }
        }
        sp.record("failed", failed.len() as u64);
        drop(sp);
        if parts.iter().all(Option::is_none) {
            // Every scattered shard refused: surface the (shared) cause
            // rather than a vacuous empty answer.
            let (_, e) = failed
                .into_iter()
                .next()
                .ok_or_else(|| Error::InvalidSchema("scatter over zero shards".into()))?;
            return Err(e);
        }
        let mut exec = plan::merge_partials(policy, &parts)?;
        // merge_partials saw the compacted scatter list; re-key its masks
        // to global shard indices and stamp the pruned set.
        let mut missing = 0u32;
        for (j, &(i, _)) in subset.iter().enumerate() {
            if exec.missing_shards >> j & 1 == 1 {
                missing |= 1 << i;
            }
        }
        exec.missing_shards = missing;
        exec.shard_count = n;
        exec.pruned_shards = pruned;
        Ok((exec, failed))
    }

    /// Answers cuboid `mask` with no privacy policy.
    pub fn answer(&self, mask: u32) -> Result<ShardAnswer> {
        self.answer_with_policy(mask, &PrivacyPolicy::none(), PlannerConfig::default())
    }

    /// Answers cuboid `mask` under a policy: plan per shard, scatter,
    /// merge, enforce once, and project the merged block to a [`Cuboid`]
    /// (suppressed cells omitted, as on the unsharded path).
    pub fn answer_with_policy(
        &self,
        mask: u32,
        policy: &PrivacyPolicy,
        config: PlannerConfig,
    ) -> Result<ShardAnswer> {
        self.answer_filtered(mask, &[], policy, config)
    }

    /// Plans, prunes, scatters, and merges a filtered cuboid query,
    /// returning the merged [`ShardedExecution`] (enforced cell blocks)
    /// plus per-shard failures — the block-level serving entry a SQL
    /// session drives directly. [`ShardedViewStore::answer_filtered`]
    /// wraps this and additionally projects the block into a [`Cuboid`]
    /// map for the cube-level API; servers that stream blocks onward
    /// should stay at this layer and skip that projection.
    ///
    /// A filter on the routing dimension prunes the scatter: only shards
    /// that can own a matching row are planned and executed at all, so a
    /// selective slice on the shard key costs one shard's scan, not N
    /// (the subcube-partitioning payoff of §6.4).
    pub fn execute_filtered(
        &self,
        mask: u32,
        filters: &[CodedPredicate],
        policy: &PrivacyPolicy,
        config: PlannerConfig,
    ) -> Result<(ShardedExecution, Vec<(usize, Error)>)> {
        let logical = Plan::scan("cube").aggregate_mask(mask);
        let plan_for = |node: &dyn ShardNode| {
            Planner::for_store(node.dim_count(), &node.catalog())
                .with_policy(policy.clone())
                .with_config(config)
                .with_coded_filters(filters.to_vec())
                .plan(&logical)
        };
        let first = self
            .shards
            .first()
            .map(|s| plan_for(s as &dyn ShardNode).map(Arc::new))
            .transpose()?
            .ok_or_else(|| Error::InvalidSchema("scatter over zero shards".into()))?;
        if !first.leaf_predicates.is_empty() {
            // The core executor applies pushed scan filters only; a plan
            // that parked predicates at the (SQL-layer) leaf would come
            // back silently unfiltered here.
            return Err(Error::InvalidSchema(
                "filtered cuboid answers require predicate pushdown".into(),
            ));
        }
        // One representative plan decides pruning — plans differ across
        // shards only in catalog cell counts, never in filters — so
        // non-owning shards are skipped before they are even planned.
        let owned = self.owned_shards(self.router_filter(&first));
        let mut subset: Vec<(usize, Arc<PlannedQuery>)> = Vec::with_capacity(owned.len());
        for &i in &owned {
            let planned = if i == 0 {
                Arc::clone(&first)
            } else {
                Arc::new(plan_for(&self.shards[i] as &dyn ShardNode)?)
            };
            subset.push((i, planned));
        }
        let borrowed: Vec<(usize, &Arc<PlannedQuery>)> =
            subset.iter().map(|(i, p)| (*i, p)).collect();
        self.scatter(&borrowed, policy)
    }

    /// Answers cuboid `mask` restricted by dimension-coded slice filters —
    /// [`ShardedViewStore::execute_filtered`] plus a projection of the
    /// merged block into a [`Cuboid`] (suppressed cells omitted, as on the
    /// unsharded path).
    pub fn answer_filtered(
        &self,
        mask: u32,
        filters: &[CodedPredicate],
        policy: &PrivacyPolicy,
        config: PlannerConfig,
    ) -> Result<ShardAnswer> {
        let (exec, failed) = self.execute_filtered(mask, filters, policy, config)?;
        let shard_count = exec.shard_count;
        let missing_shards = exec.missing_shards;
        let pruned_shards = exec.pruned_shards;
        let sa = exec
            .execution
            .sets
            .into_iter()
            .next()
            .ok_or_else(|| Error::InvalidSchema("planner produced no grouping set".into()))?;
        let block = &sa.cells;
        let mut cuboid: Cuboid = HashMap::with_capacity(block.len());
        for i in 0..block.len() {
            if block.is_suppressed(i) {
                continue;
            }
            let state =
                if block.measure_count() == 0 { AggState::EMPTY } else { block.state(0, i) };
            cuboid.insert(block.key(i).to_vec().into_boxed_slice(), state);
        }
        let degraded = sa.degraded.map(|d| Degradation {
            requested: d.requested,
            served_from: d.served_from,
            failed: d.failed,
            extra_cells: d.extra_cells,
        });
        Ok(ShardAnswer {
            cuboid,
            cells_scanned: sa.cells_scanned,
            cache_hit: sa.cache_hit,
            shard_count,
            missing_shards,
            pruned_shards,
            failed,
            degraded,
        })
    }

    /// Routes a delta batch to its owning shards and folds them in
    /// parallel. Every shard is validated against its sub-batch *first*
    /// (all-or-nothing admission: a batch any shard would refuse is
    /// refused before any shard journals or folds it), then every shard —
    /// including those with empty sub-batches — applies its part on a
    /// scoped thread, so lattice cardinalities grow in lockstep and
    /// per-shard journals stay independently replayable.
    pub fn apply_delta(&self, delta: &FactInput) -> Result<ShardedDeltaReport> {
        if delta.dim_count() != self.dim_count() {
            return Err(Error::ArityMismatch {
                expected: self.dim_count(),
                got: delta.dim_count(),
            });
        }
        let parts = split_facts(delta, &self.router, self.shards.len())?;
        for (shard, part) in self.shards.iter().zip(&parts) {
            ShardNode::validate_delta(shard, part)?;
        }
        let results: Vec<Result<DeltaReport>> = thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .zip(&parts)
                .map(|(shard, part)| {
                    let node: &dyn ShardNode = shard;
                    s.spawn(move || node.apply_delta(part))
                })
                .collect();
            handles.into_iter().map(join_shard).collect()
        });
        let per_shard = results.into_iter().collect::<Result<Vec<_>>>()?;
        let cells_touched = per_shard.iter().map(|r| r.cells_touched).sum();
        Ok(ShardedDeltaReport { rows: delta.len() as u64, cells_touched, per_shard })
    }

    /// Chaos hook: corrupts every materialized view of shard `i`, so its
    /// next scatter finds no healthy source and the gathered answer goes
    /// partial with bit `i` set. Pair with [`ShardedViewStore::heal`] (or
    /// any delta, which reseals every shard) to bring it back.
    pub fn kill_shard(&self, i: usize) -> Result<()> {
        let shard =
            self.shards.get(i).ok_or_else(|| Error::InvalidSchema(format!("no shard {i}")))?;
        for mask in ShardNode::materialized(shard) {
            ShardNode::corrupt_view(shard, mask, 1)?;
        }
        Ok(())
    }

    /// Reseals every shard by applying an empty delta: corrupted sealed
    /// files are rebuilt from resident cuboids, reviving killed shards.
    pub fn heal(&self) -> Result<ShardedDeltaReport> {
        let cards: Vec<usize> = self
            .shards
            .first()
            .map(|s| s.snapshot().store().lattice().cards())
            .ok_or_else(|| Error::InvalidSchema("no shards to heal".into()))?;
        let empty = FactInput::new(&cards)?;
        self.apply_delta(&empty)
    }

    /// Runs every shard's verification scrub, erroring on the first shard
    /// reporting damage.
    pub fn verify_all(&self) -> Result<()> {
        for s in &self.shards {
            s.verify_all()?;
        }
        Ok(())
    }
}

/// Joins a scoped shard worker, converting a panic into a typed error so
/// one poisoned shard can degrade — not sink — the gather.
fn join_shard<T>(h: thread::ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    h.join().unwrap_or_else(|_| Err(Error::InvalidSchema("shard worker panicked".into())))
}

/// Partitions `facts` into `n` sub-inputs by router, all declaring the
/// parent's cardinalities (so every shard's lattice has the same shape,
/// populated or not).
fn split_facts(facts: &FactInput, router: &ShardRouter, n: usize) -> Result<Vec<FactInput>> {
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        parts.push(FactInput::new(facts.cards())?);
    }
    for row in 0..facts.len() {
        let coords = facts.coords(row);
        let s = router.route(&coords, n);
        if let Some(p) = parts.get_mut(s) {
            p.push(&coords, facts.measure()[row])?;
        }
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(rows: usize, seed: u64) -> FactInput {
        let mut f = FactInput::new(&[16, 6, 4, 3]).unwrap();
        let mut x = seed | 1;
        for _ in 0..rows {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.push(
                &[
                    (x % 16) as u32,
                    ((x >> 8) % 6) as u32,
                    ((x >> 16) % 4) as u32,
                    ((x >> 24) % 3) as u32,
                ],
                (x % 100) as f64,
            )
            .unwrap();
        }
        f
    }

    fn bit_identical(a: &Cuboid, b: &Cuboid) -> bool {
        a.len() == b.len()
            && a.iter().all(|(k, s)| {
                b.get(k).is_some_and(|t| {
                    s.sum.to_bits() == t.sum.to_bits()
                        && s.count == t.count
                        && s.min.to_bits() == t.min.to_bits()
                        && s.max.to_bits() == t.max.to_bits()
                })
            })
    }

    #[test]
    fn routers_are_total_and_deterministic() {
        let h = ShardRouter::Hash { dim: 0 };
        let r = ShardRouter::Range { dim: 1, bounds: vec![2, 4] };
        for c in 0..1000u32 {
            let s1 = h.route(&[c, 0], 4);
            assert_eq!(s1, h.route(&[c, 0], 4));
            assert!(s1 < 4);
            let s2 = r.route(&[0, c], 3);
            let expect = if c < 2 {
                0
            } else if c < 4 {
                1
            } else {
                2
            };
            assert_eq!(s2, expect, "coord {c}");
        }
        assert!(r.validate(2, 3).is_ok());
        assert!(r.validate(1, 3).is_err(), "dim out of range");
        assert!(r.validate(2, 4).is_err(), "bounds/shards mismatch");
        assert!(ShardRouter::Range { dim: 0, bounds: vec![4, 2] }.validate(1, 3).is_err());
        assert!(h.validate(1, 0).is_err());
        assert!(h.validate(1, MAX_SHARDS + 1).is_err());
    }

    #[test]
    fn sharded_matches_unsharded_bit_for_bit() {
        let f = facts(1200, 7);
        let unsharded = SharedViewStore::build(&f, &[0b0111], CacheConfig::default()).unwrap();
        for router in
            [ShardRouter::Hash { dim: 0 }, ShardRouter::Range { dim: 0, bounds: vec![4, 8, 12] }]
        {
            let sharded =
                ShardedViewStore::build(&f, &[0b0111], router, 4, CacheConfig::default()).unwrap();
            for mask in [0b0000u32, 0b0001, 0b0101, 0b1111] {
                let a = unsharded.answer(mask).unwrap();
                let b = sharded.answer(mask).unwrap();
                assert!(!b.is_partial());
                assert!(bit_identical(&a.cuboid, &b.cuboid), "mask {mask:04b}");
            }
        }
    }

    #[test]
    fn empty_shards_answer_and_fold_deltas() {
        let f = facts(300, 9);
        // Range bounds past every coordinate: shards 1 and 2 start empty.
        let router = ShardRouter::Range { dim: 0, bounds: vec![100, 200] };
        let sharded = ShardedViewStore::build(&f, &[], router, 3, CacheConfig::default()).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        let whole = sharded.answer(0b0001).unwrap();
        assert!(!whole.is_partial());
        let mut delta = FactInput::new(f.cards()).unwrap();
        delta.push(&[15, 5, 3, 2], 42.0).unwrap();
        let report = sharded.apply_delta(&delta).unwrap();
        assert_eq!(report.rows, 1);
        assert_eq!(report.per_shard.len(), 3);
        let after = sharded.answer(0b0001).unwrap();
        let total: f64 = after.cuboid.values().map(|s| s.sum).sum();
        let before: f64 = whole.cuboid.values().map(|s| s.sum).sum();
        assert_eq!(total, before + 42.0);
    }

    #[test]
    fn dead_shard_is_a_typed_partial_answer() {
        let f = facts(800, 21);
        let sharded = ShardedViewStore::build(
            &f,
            &[0b0011],
            ShardRouter::Hash { dim: 0 },
            4,
            CacheConfig::disabled(),
        )
        .unwrap();
        let whole = sharded.answer(0b0011).unwrap();
        assert!(!whole.is_partial());
        sharded.kill_shard(2).unwrap();
        let partial = sharded.answer(0b0011).unwrap();
        assert!(partial.is_partial());
        assert_eq!(partial.missing_shards, 1 << 2);
        assert_eq!(partial.missing_indices(), vec![2]);
        assert_eq!(partial.failed.len(), 1);
        assert_eq!(partial.failed[0].0, 2);
        // Survivors only: never a silently wrong global total.
        let alive: f64 = partial.cuboid.values().map(|s| s.sum).sum();
        let total: f64 = whole.cuboid.values().map(|s| s.sum).sum();
        assert!(alive < total);
        // Healing reseals the corrupted shard and restores the full answer.
        sharded.heal().unwrap();
        let healed = sharded.answer(0b0011).unwrap();
        assert!(!healed.is_partial());
        assert!(bit_identical(&whole.cuboid, &healed.cuboid));
    }

    #[test]
    fn all_shards_dead_surfaces_the_error() {
        let f = facts(400, 33);
        let sharded = ShardedViewStore::build(
            &f,
            &[],
            ShardRouter::Hash { dim: 0 },
            2,
            CacheConfig::disabled(),
        )
        .unwrap();
        sharded.kill_shard(0).unwrap();
        sharded.kill_shard(1).unwrap();
        assert!(sharded.answer(0b0001).is_err());
    }

    #[test]
    fn merge_then_enforce_differs_from_enforce_per_shard() {
        // A cell with one unit per shard: global count 3 survives k=3
        // suppression, while any per-shard pass would have zeroed it.
        let mut f = FactInput::new(&[4, 2]).unwrap();
        for c in 0..3u32 {
            f.push(&[c, 0], 10.0).unwrap();
        }
        let sharded = ShardedViewStore::build(
            &f,
            &[],
            ShardRouter::Hash { dim: 0 },
            3,
            CacheConfig::default(),
        )
        .unwrap();
        let policy = PrivacyPolicy::suppress(3);
        let ans = sharded.answer_with_policy(0b10, &policy, PlannerConfig::default()).unwrap();
        let cell = ans.cuboid.get(&vec![0u32].into_boxed_slice());
        assert!(cell.is_some(), "globally-large cell must survive suppression");
        assert_eq!(cell.map(|s| s.count), Some(3));
    }

    /// Unsharded filtered oracle: the same coded filters through the
    /// plan layer against one store, projected to a cuboid.
    fn filtered_oracle(store: &SharedViewStore, mask: u32, filters: &[CodedPredicate]) -> Cuboid {
        let catalog = ShardNode::catalog(store);
        let planned = Planner::for_store(store.dim_count(), &catalog)
            .with_coded_filters(filters.to_vec())
            .plan(&Plan::scan("cube").aggregate_mask(mask))
            .unwrap();
        let exec = plan::execute(&planned, &store.plan_source()).unwrap();
        let block = &exec.sets[0].cells;
        let mut out: Cuboid = HashMap::new();
        for i in 0..block.len() {
            if !block.is_suppressed(i) {
                out.insert(block.key(i).to_vec().into_boxed_slice(), block.state(0, i));
            }
        }
        out
    }

    #[test]
    fn router_dim_filter_prunes_the_scatter_and_stays_exact() {
        let f = facts(1500, 11);
        let unsharded = SharedViewStore::build(&f, &[], CacheConfig::disabled()).unwrap();
        for router in
            [ShardRouter::Hash { dim: 0 }, ShardRouter::Range { dim: 0, bounds: vec![4, 8, 12] }]
        {
            let sharded =
                ShardedViewStore::build(&f, &[], router.clone(), 4, CacheConfig::disabled())
                    .unwrap();
            for v in 0..16u32 {
                let filters = vec![CodedPredicate { dim: 0, allowed: vec![v] }];
                for mask in [0b0001u32, 0b0110, 0b1111] {
                    let ans = sharded
                        .answer_filtered(
                            mask,
                            &filters,
                            &PrivacyPolicy::none(),
                            PlannerConfig::default(),
                        )
                        .unwrap();
                    // A single-value slice on the shard key touches
                    // exactly one shard; the rest are pruned, not missing.
                    assert!(!ans.is_partial());
                    let owner = router.route_coord(v, 4);
                    assert_eq!(ans.pruned_shards, 0b1111 & !(1u32 << owner), "value {v}");
                    let oracle = filtered_oracle(&unsharded, mask, &filters);
                    assert!(
                        bit_identical(&oracle, &ans.cuboid),
                        "router {router:?} value {v} mask {mask:04b}"
                    );
                }
            }
            // A filter on a non-routing dimension prunes nothing.
            let off_dim = vec![CodedPredicate { dim: 1, allowed: vec![2] }];
            let ans = sharded
                .answer_filtered(0b0011, &off_dim, &PrivacyPolicy::none(), PlannerConfig::default())
                .unwrap();
            assert_eq!(ans.pruned_shards, 0);
            assert!(bit_identical(&filtered_oracle(&unsharded, 0b0011, &off_dim), &ans.cuboid));
            // A contradiction (empty allowed set) answers empty, no error.
            let none = vec![CodedPredicate { dim: 0, allowed: vec![] }];
            let ans = sharded
                .answer_filtered(0b0001, &none, &PrivacyPolicy::none(), PlannerConfig::default())
                .unwrap();
            assert!(ans.cuboid.is_empty());
            assert!(!ans.is_partial());
        }
    }

    #[test]
    fn pruned_dead_shard_does_not_go_missing() {
        let f = facts(900, 17);
        let router = ShardRouter::Range { dim: 0, bounds: vec![8] };
        let sharded = ShardedViewStore::build(&f, &[], router, 2, CacheConfig::disabled()).unwrap();
        sharded.kill_shard(1).unwrap();
        // Values below 8 live on shard 0; dead shard 1 is pruned away, so
        // the slice is complete even though half the store is down.
        let filters = vec![CodedPredicate { dim: 0, allowed: vec![3] }];
        let ans = sharded
            .answer_filtered(0b0001, &filters, &PrivacyPolicy::none(), PlannerConfig::default())
            .unwrap();
        assert!(!ans.is_partial(), "a pruned shard must not be reported missing");
        assert_eq!(ans.pruned_shards, 0b10);
        assert!(!ans.cuboid.is_empty());
        // A slice owned entirely by the dead shard has no surviving data
        // at all: that is the all-scattered-shards-failed case, which
        // surfaces the typed error (as when every shard of an unfiltered
        // scatter dies) rather than fabricating an empty "answer".
        let dead_side = vec![CodedPredicate { dim: 0, allowed: vec![12] }];
        assert!(sharded
            .answer_filtered(0b0001, &dead_side, &PrivacyPolicy::none(), PlannerConfig::default())
            .is_err());
    }

    #[test]
    fn generation_tracks_every_shard() {
        let f = facts(200, 5);
        let sharded = ShardedViewStore::build(
            &f,
            &[],
            ShardRouter::Hash { dim: 0 },
            2,
            CacheConfig::default(),
        )
        .unwrap();
        let g0 = sharded.generation();
        let mut delta = FactInput::new(f.cards()).unwrap();
        delta.push(&[0, 0, 0, 0], 1.0).unwrap();
        sharded.apply_delta(&delta).unwrap();
        assert!(sharded.generation() > g0);
    }
}
