//! Physical execution: SQL queries routed through the cube engine and the
//! checksummed page store, with an `EXPLAIN ANALYZE` profile.
//!
//! [`exec::execute`] evaluates queries directly over the in-memory
//! statistical algebra — correct, but it exercises none of the machinery
//! §6 of the paper is about: materialized cuboids, verified page I/O,
//! lattice routing. This module is the *physical* counterpart, built on
//! the same plan layer: the query compiles to the shared logical plan
//! ([`exec::plan_of_query`]), the planner validates it, the object's
//! populated cells become a fact table ([`FactInput::from_object`]), the
//! plan is **retargeted** onto the sealed [`ViewStore`]'s catalog (the
//! lattice pass re-runs against real materialized views), and the one
//! workspace executor answers every grouping set — so a single `GROUP BY
//! CUBE` query yields a [`QueryProfile`] whose span tree crosses all three
//! layers (sql parse and plan, cube answers with lattice-fallback
//! provenance, storage page reads with retry counts).
//!
//! ## Semantics caveat (macro-data aggregates)
//!
//! The fact table holds one fact per populated *cell*, valued at the
//! cell's `sum` — the object's macro-data grain. `SUM` therefore agrees
//! exactly with the algebraic executor, but `COUNT(*)` counts populated
//! cells (not the micro records a cell may summarize), and `MIN`/`MAX`/
//! `AVG` range over cell sums. For objects built from one record per cell
//! the two executors agree on everything.
//!
//! ## Cached execution
//!
//! [`execute_physical`] rebuilds the fact table and seals a fresh store
//! per query — the right shape for one-shot queries, wasteful for a
//! serving workload that asks many queries of one object.
//! [`CachedSession`] builds the [`SharedViewStore`] **once** and answers
//! every subsequent query through its cost-aware cache, so repeated
//! grouping sets hit instead of rescanning sealed pages. `WHERE` filters
//! are pushed into the store scan by the planner (the executor derives
//! while filtering, and skips the cache so filtered derivations never
//! pollute unfiltered keys). Only plans that *rewrite the object itself* —
//! hierarchy-level groupings, or leaf predicates when pushdown is disabled
//! — bypass the session store and take the uncached path.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use statcube_core::error::{Error, Result};
use statcube_core::object::StatisticalObject;
use statcube_core::plan::{self, GroupLabels, PlannedQuery, Planner, PlannerConfig, PrivacyPolicy};
use statcube_core::trace::{self, QueryProfile};
use statcube_cube::cache::{CacheConfig, CacheStats};
use statcube_cube::input::FactInput;
use statcube_cube::query::ViewStore;
use statcube_cube::sharded::{ShardRouter, ShardedViewStore};
use statcube_cube::shared::SharedViewStore;

use crate::ast::Query;
use crate::exec::{self, ResultSet};

/// A physically executed query: the result plus its profile, the
/// degraded-answer count (non-zero when sealed views failed verification
/// and answers detoured through healthy ancestors), and — for
/// [`CachedSession`] execution — where the grouping-set answers came from.
#[derive(Debug)]
pub struct PhysicalAnswer {
    /// The query result, same shape as [`exec::execute`] produces. Shared:
    /// a [`CachedSession`] replaying memoized rows hands out another handle
    /// to the same rendering instead of re-materializing it.
    pub result: Arc<ResultSet>,
    /// The cross-layer span tree. Present only when [`trace`] was enabled
    /// and this query was the calling thread's outermost traced unit of
    /// work.
    pub profile: Option<QueryProfile>,
    /// Grouping-set answers that were served from a fallback ancestor.
    pub degraded_answers: u64,
    /// Grouping-set answers served from the session cache (always 0 on the
    /// uncached [`execute_physical`] path).
    pub cache_hits: u64,
    /// Grouping-set answers that missed the session cache and were derived
    /// from sealed pages (always 0 on the uncached path).
    pub cache_misses: u64,
    /// True when a [`CachedSession`] query bypassed the session store
    /// because its plan rewrites the object (level groupings, or leaf
    /// predicates under disabled pushdown).
    pub bypassed_cache: bool,
    /// Source cells scanned to derive the grouping sets (0 for sets served
    /// from the cache) — the lattice pass's cost metric.
    pub cells_scanned: u64,
}

/// Executes a parsed query through the cube engine and page store.
///
/// The object must have exactly one measure (the [`FactInput`] contract);
/// see the module docs for the macro-data aggregate semantics.
pub fn execute_physical(obj: &StatisticalObject, query: &Query) -> Result<PhysicalAnswer> {
    execute_physical_with_options(obj, query, &PrivacyPolicy::none(), PlannerConfig::default())
}

/// [`execute_physical`] with an explicit privacy policy and planner
/// configuration (the config switches exist for the E26 rewrite-ablation
/// experiment; production callers keep the default).
pub fn execute_physical_with_options(
    obj: &StatisticalObject,
    query: &Query,
    policy: &PrivacyPolicy,
    config: PlannerConfig,
) -> Result<PhysicalAnswer> {
    let mut root = trace::span("sql.execute");
    root.note("physical");
    trace::counter("sql.queries", 1);
    trace::counter("sql.physical_queries", 1);
    let attach_profile = root.is_root();
    if query.select.is_empty() {
        return Err(Error::InvalidSchema("empty SELECT list".into()));
    }
    let display_dims: Vec<String> = query.grouping.dims().to_vec();

    // Plan against the object's schema: name resolution, summarizability,
    // predicate placement, the mandatory privacy barrier.
    let plan_span = trace::span("sql.plan");
    let mut planned = Planner::for_object(obj.schema())
        .with_policy(policy.clone())
        .with_config(config)
        .plan(&exec::plan_of_query(query))?;
    // FactInput carries a single measure; every aggregate must target it.
    if planned.aggs.iter().any(|a| a.measure != 0) || obj.schema().measures().len() != 1 {
        return Err(Error::MultipleMeasures(obj.schema().measures().len()));
    }
    // Leaf program: filters and level roll-ups apply before the facts are
    // extracted — the sealed store then holds the rewritten object.
    let leaf = exec::apply_leaf_program(obj, &planned)?;
    let label_schema = leaf.schema().clone();
    drop(plan_span);

    // Materialize: cells → facts, facts → sealed base cuboid. (Only the
    // base view is materialized; every grouping set routes through it, the
    // §6.3 one-view degenerate case. The point here is the *path*, not the
    // view-selection policy — exp20/exp21 cover that.) The lattice pass
    // re-runs against the store's real catalog.
    let facts = FactInput::from_object(&leaf)?;
    let store = ViewStore::build(&facts, &[])?;
    planned.retarget(store.lattice().dim_count(), &store.catalog(), config.lattice);

    // One executor answers every grouping set from the sealed store.
    let mut eval_span = trace::span("sql.eval");
    let executed = plan::execute(&planned, &store)?;
    let degraded_answers = executed.degraded_answers() as u64;
    let cells_scanned = executed.cells_scanned();
    let rows = exec::rows_from_plan(&planned, &executed, &label_schema)?;
    eval_span.record("grouping_sets", planned.sets.len() as u64);
    eval_span.record("rows", rows.len() as u64);
    drop(eval_span);
    root.record("rows", rows.len() as u64);
    if degraded_answers > 0 {
        root.note(format!("{degraded_answers} degraded answer(s)"));
    }
    drop(root);

    let result = Arc::new(ResultSet {
        group_columns: display_dims,
        agg_columns: query.select.iter().map(|a| a.to_sql()).collect(),
        rows,
    });
    let profile = if attach_profile { Some(trace::take_profile()) } else { None };
    Ok(PhysicalAnswer {
        result,
        profile,
        degraded_answers,
        cache_hits: 0,
        cache_misses: 0,
        bypassed_cache: false,
        cells_scanned,
    })
}

/// Parses and physically executes in one step, keeping the tokenize and
/// parse spans inside the query's profile.
pub fn execute_physical_str(obj: &StatisticalObject, sql: &str) -> Result<PhysicalAnswer> {
    let mut root = trace::span("sql.query");
    let attach_profile = root.is_root();
    let query = crate::parser::parse(sql)?;
    let mut ans = execute_physical(obj, &query)?;
    root.record("rows", ans.result.rows.len() as u64);
    drop(root);
    if attach_profile {
        ans.profile = Some(trace::take_profile());
    }
    Ok(ans)
}

/// A serving-layer SQL session: one object, one [`SharedViewStore`], many
/// queries. The store (base cuboid plus any `selected` views) is built and
/// sealed once at construction; each [`CachedSession::execute`] plans
/// against the store's catalog and answers its grouping sets through the
/// store's cost-aware cache, so repeated queries hit instead of rebuilding
/// and rescanning.
///
/// The session is `Sync`: clones of the inner store are cheap and the
/// session itself can be shared across reader threads by reference.
///
/// `WHERE` filters are pushed into the store scan by the planner: the
/// executor derives the grouping sets while filtering, skipping the cache
/// for those sets (a filtered derivation cached under an unfiltered key
/// would corrupt later answers). Only queries that rewrite the object
/// itself — hierarchy-level groupings, or leaf predicates when pushdown is
/// disabled — bypass the session store and run the uncached
/// [`execute_physical`] path against the session's object
/// ([`PhysicalAnswer::bypassed_cache`] is set).
#[derive(Debug)]
pub struct CachedSession {
    obj: StatisticalObject,
    store: SharedViewStore,
    policy: PrivacyPolicy,
    config: PlannerConfig,
    /// Plan cache, keyed by the parsed query. Entries are generation-pinned
    /// (see [`CachedPlan`]) and the builder methods that change plan
    /// semantics ([`CachedSession::with_policy`],
    /// [`CachedSession::with_planner_config`]) clear it.
    plans: Mutex<HashMap<Query, Arc<CachedPlan>>>,
}

/// One planned query, pinned to the store publication generation it was
/// planned against. Replaying it skips the planner (name resolution,
/// summarizability, rewrite passes) and the label-table resolution on every
/// repeat of the same SQL text.
#[derive(Debug)]
struct CachedPlan {
    /// [`SharedViewStore::generation`] at plan time; a published delta
    /// bumps it and orphans the entry (the catalog's view sizes moved, so
    /// routing must re-run).
    generation: u64,
    planned: Arc<PlannedQuery>,
    labels: Arc<GroupLabels>,
    agg_columns: Vec<String>,
    /// Memoized row rendering from the last execution of this plan (see
    /// [`RenderedRows`]); replayed when every grouping-set answer is the
    /// same block by identity.
    rendered: Mutex<Option<RenderedRows>>,
}

/// The rendered rows of one plan execution, keyed by the identity of the
/// post-enforcement answer blocks they were rendered from. Rows are a pure
/// function of (plan, label tables, blocks), and the session's answer
/// cache serves repeats as handles to the *same* immutable blocks — so
/// pointer equality on every set proves the rendering is still exact, and
/// holding the `Arc`s pins the allocations against address reuse. Any
/// fresh derivation (filtered sets, evicted entries, a policy that copied
/// on write) fails the identity check and re-renders.
#[derive(Debug)]
struct RenderedRows {
    blocks: Vec<Arc<plan::CellBlock>>,
    result: Arc<ResultSet>,
}

/// Poison-proof lock on a plan's memoized rendering.
fn rendered_lock(
    m: &Mutex<Option<RenderedRows>>,
) -> std::sync::MutexGuard<'_, Option<RenderedRows>> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl CachedSession {
    /// Builds a session over `obj` (single measure required) with the base
    /// cuboid materialized, fronted by a cache sized by `config`.
    pub fn new(obj: &StatisticalObject, config: CacheConfig) -> Result<Self> {
        Self::with_views(obj, &[], config)
    }

    /// [`CachedSession::new`], additionally materializing `selected` view
    /// masks (over the object's dimension order) for lattice routing.
    pub fn with_views(
        obj: &StatisticalObject,
        selected: &[u32],
        config: CacheConfig,
    ) -> Result<Self> {
        if obj.schema().measures().len() != 1 {
            return Err(Error::MultipleMeasures(obj.schema().measures().len()));
        }
        let facts = FactInput::from_object(obj)?;
        let store = SharedViewStore::build(&facts, selected, config)?;
        Ok(Self {
            obj: obj.clone(),
            store,
            policy: PrivacyPolicy::none(),
            config: PlannerConfig::default(),
            plans: Mutex::new(HashMap::new()),
        })
    }

    fn plans_lock(&self) -> std::sync::MutexGuard<'_, HashMap<Query, Arc<CachedPlan>>> {
        self.plans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sets the privacy policy every session query is planned with. The
    /// session cache partitions on the policy fingerprint, so answers
    /// enforced under one policy are never replayed under another.
    #[must_use]
    pub fn with_policy(mut self, policy: PrivacyPolicy) -> Self {
        self.policy = policy;
        self.plans_lock().clear();
        self
    }

    /// Overrides the planner's rewrite-pass switches (E26 ablations only).
    #[must_use]
    pub fn with_planner_config(mut self, config: PlannerConfig) -> Self {
        self.config = config;
        self.plans_lock().clear();
        self
    }

    /// The object the session serves.
    pub fn object(&self) -> &StatisticalObject {
        &self.obj
    }

    /// The shared store behind the session (for fault injection, scrubbing,
    /// or handing clones to other threads).
    pub fn store(&self) -> &SharedViewStore {
        &self.store
    }

    /// Cache counters accumulated by the session store.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.cache_stats()
    }

    /// Executes a parsed query through the session store's cache.
    pub fn execute(&self, query: &Query) -> Result<PhysicalAnswer> {
        // Plans that rewrite the object itself evaluate a different cube
        // than the sealed one: route them to the uncached path. (Pushed-
        // down WHERE filters are served by the store; level groupings — a
        // group name that is no schema dimension — are not.)
        let rewrites =
            query.grouping.dims().iter().any(|d| self.obj.schema().dim_index(d).is_err())
                || (!self.config.pushdown && !query.filters.is_empty());
        if rewrites {
            trace::counter("sql.cache_bypass", 1);
            let mut ans =
                execute_physical_with_options(&self.obj, query, &self.policy, self.config)?;
            ans.bypassed_cache = true;
            return Ok(ans);
        }

        let mut root = trace::span("sql.execute");
        root.note("cached");
        trace::counter("sql.queries", 1);
        trace::counter("sql.cached_queries", 1);
        let attach_profile = root.is_root();
        if query.select.is_empty() {
            return Err(Error::InvalidSchema("empty SELECT list".into()));
        }
        let display_dims: Vec<String> = query.grouping.dims().to_vec();

        // Plan against the store's materialized catalog: the lattice pass
        // routes each set to its cheapest ancestor, pushdown moves WHERE
        // into the store scan. A generation-pinned plan cache replays the
        // planned query (and its resolved label tables) on repeats; a
        // published delta bumps the generation and forces a re-plan, since
        // the catalog's measured view sizes — the routing input — moved.
        let src = self.store.plan_source();
        let plan_span = trace::span("sql.plan");
        let generation = self.store.generation();
        let cached =
            self.plans_lock().get(query).filter(|e| e.generation == generation).map(Arc::clone);
        let entry = match cached {
            Some(entry) => entry,
            None => {
                let catalog = src.catalog();
                let planned = Planner::for_store(src.dim_count(), &catalog)
                    .with_schema(self.obj.schema())
                    .with_policy(self.policy.clone())
                    .with_config(self.config)
                    .plan(&exec::plan_of_query(query))?;
                if planned.aggs.iter().any(|a| a.measure != 0)
                    || self.obj.schema().measures().len() != 1
                {
                    return Err(Error::MultipleMeasures(self.obj.schema().measures().len()));
                }
                let labels = Arc::new(plan::group_labels(&planned, self.obj.schema())?);
                let entry = Arc::new(CachedPlan {
                    generation,
                    planned: Arc::new(planned),
                    labels,
                    agg_columns: query.select.iter().map(|a| a.to_sql()).collect(),
                    rendered: Mutex::new(None),
                });
                self.plans_lock().insert(query.clone(), Arc::clone(&entry));
                entry
            }
        };
        let planned = &*entry.planned;
        drop(plan_span);

        let mut eval_span = trace::span("sql.eval");
        let executed = plan::execute(planned, &src)?;
        let cache_hits = executed.cache_hits() as u64;
        let cache_misses = planned.sets.len() as u64 - cache_hits;
        let degraded_answers = executed.degraded_answers() as u64;
        let cells_scanned = executed.cells_scanned();
        // Replay the memoized rendering when every answer is the same block
        // by identity (see [`RenderedRows`]); otherwise render and memoize.
        let memo = {
            let guard = rendered_lock(&entry.rendered);
            guard
                .as_ref()
                .filter(|r| {
                    r.blocks.len() == executed.sets.len()
                        && r.blocks
                            .iter()
                            .zip(&executed.sets)
                            .all(|(b, s)| Arc::ptr_eq(b, &s.cells))
                })
                .map(|r| Arc::clone(&r.result))
        };
        let replayed = memo.is_some();
        let result = match memo {
            Some(result) => result,
            None => {
                let rows = exec::rows_from_plan_with_labels(planned, &executed, &entry.labels)?;
                let result = Arc::new(ResultSet {
                    group_columns: display_dims,
                    agg_columns: entry.agg_columns.clone(),
                    rows,
                });
                *rendered_lock(&entry.rendered) = Some(RenderedRows {
                    blocks: executed.sets.iter().map(|s| Arc::clone(&s.cells)).collect(),
                    result: Arc::clone(&result),
                });
                result
            }
        };
        if replayed {
            trace::counter("sql.rendered_replays", 1);
        }
        eval_span.record("grouping_sets", planned.sets.len() as u64);
        eval_span.record("rows", result.rows.len() as u64);
        eval_span.record("cache_hits", cache_hits);
        drop(eval_span);
        root.record("rows", result.rows.len() as u64);
        if degraded_answers > 0 {
            root.note(format!("{degraded_answers} degraded answer(s)"));
        }
        drop(root);
        let profile = if attach_profile { Some(trace::take_profile()) } else { None };
        Ok(PhysicalAnswer {
            result,
            profile,
            degraded_answers,
            cache_hits,
            cache_misses,
            bypassed_cache: false,
            cells_scanned,
        })
    }

    /// Parses and executes in one step (see [`CachedSession::execute`]).
    pub fn execute_str(&self, sql: &str) -> Result<PhysicalAnswer> {
        let mut root = trace::span("sql.query");
        let attach_profile = root.is_root();
        let query = crate::parser::parse(sql)?;
        let mut ans = self.execute(&query)?;
        root.record("rows", ans.result.rows.len() as u64);
        drop(root);
        if attach_profile {
            ans.profile = Some(trace::take_profile());
        }
        Ok(ans)
    }
}

/// A sharded SQL answer: the ordinary [`PhysicalAnswer`] plus the shard
/// bookkeeping — when [`ShardedPhysicalAnswer::is_partial`], the rows
/// cover only the surviving shards and `missing_shards` names the rest.
#[derive(Debug)]
pub struct ShardedPhysicalAnswer {
    /// The merged result and its counters.
    pub answer: PhysicalAnswer,
    /// How many shards the query was scattered to.
    pub shard_count: usize,
    /// Bit `i` set ⇔ shard `i` contributed nothing to the rows.
    pub missing_shards: u32,
    /// Bit `i` set ⇔ shard `i` was pruned: a filter on the routing
    /// dimension proved it owns no matching row, so it was never scattered
    /// to. Pruned is not missing — the rows are complete.
    pub pruned_shards: u32,
}

impl ShardedPhysicalAnswer {
    /// True when at least one shard is missing from the rows.
    pub fn is_partial(&self) -> bool {
        self.missing_shards != 0
    }
}

/// [`CachedSession`]'s scatter-gather sibling: one object partitioned
/// across a [`ShardedViewStore`], many queries. Each query compiles once
/// per shard (the per-shard catalogs differ in measured view sizes, so
/// routing runs per shard), scatters as pre-enforcement partials, merges
/// through the plan-layer monoid, and enforces the session policy once on
/// the merged cells — never per shard. The per-shard plan vector is
/// cached keyed by the summed shard generation, exactly as
/// [`CachedSession`] pins plans to one store's generation.
///
/// A dead shard surfaces as a *partial* result
/// ([`ShardedPhysicalAnswer::missing_shards`]), not an error — the SQL
/// face of the cube layer's degraded-answer contract.
#[derive(Debug)]
pub struct ShardedSession {
    obj: StatisticalObject,
    store: ShardedViewStore,
    policy: PrivacyPolicy,
    config: PlannerConfig,
    plans: Mutex<HashMap<Query, Arc<ShardedPlan>>>,
}

/// One query's per-shard physical plans, pinned to the summed shard
/// generation they were planned against (any shard's delta orphans the
/// entry). No rendered-row memoization here: merged blocks are fresh
/// allocations per gather, so the identity replay check can never pass.
#[derive(Debug)]
struct ShardedPlan {
    generation: u64,
    plans: Vec<Arc<PlannedQuery>>,
    labels: Arc<GroupLabels>,
    agg_columns: Vec<String>,
}

impl ShardedSession {
    /// Builds a session partitioning `obj`'s facts by `router` into
    /// `shards` stores, each materializing the base cuboid plus
    /// `selected` views over its own rows.
    pub fn with_views(
        obj: &StatisticalObject,
        selected: &[u32],
        router: ShardRouter,
        shards: usize,
        config: CacheConfig,
    ) -> Result<Self> {
        if obj.schema().measures().len() != 1 {
            return Err(Error::MultipleMeasures(obj.schema().measures().len()));
        }
        let facts = FactInput::from_object(obj)?;
        let store = ShardedViewStore::build(&facts, selected, router, shards, config)?;
        Ok(Self {
            obj: obj.clone(),
            store,
            policy: PrivacyPolicy::none(),
            config: PlannerConfig::default(),
            plans: Mutex::new(HashMap::new()),
        })
    }

    fn plans_lock(&self) -> std::sync::MutexGuard<'_, HashMap<Query, Arc<ShardedPlan>>> {
        self.plans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sets the privacy policy — enforced once on merged cells, see the
    /// type docs. Clears the plan cache.
    #[must_use]
    pub fn with_policy(mut self, policy: PrivacyPolicy) -> Self {
        self.policy = policy;
        self.plans_lock().clear();
        self
    }

    /// The sharded store behind the session (chaos hooks, deltas).
    pub fn store(&self) -> &ShardedViewStore {
        &self.store
    }

    /// Executes a parsed query scatter-gather across the shards.
    pub fn execute(&self, query: &Query) -> Result<ShardedPhysicalAnswer> {
        // Plans that rewrite the object evaluate a different cube than the
        // sealed shards: run the uncached single-store path, which is
        // whole-object and therefore never partial.
        let rewrites =
            query.grouping.dims().iter().any(|d| self.obj.schema().dim_index(d).is_err())
                || (!self.config.pushdown && !query.filters.is_empty());
        if rewrites {
            trace::counter("sql.cache_bypass", 1);
            let mut ans =
                execute_physical_with_options(&self.obj, query, &self.policy, self.config)?;
            ans.bypassed_cache = true;
            return Ok(ShardedPhysicalAnswer {
                answer: ans,
                shard_count: self.store.shard_count(),
                missing_shards: 0,
                pruned_shards: 0,
            });
        }

        let mut root = trace::span("sql.execute");
        root.note("sharded");
        trace::counter("sql.queries", 1);
        trace::counter("sql.sharded_queries", 1);
        let attach_profile = root.is_root();
        if query.select.is_empty() {
            return Err(Error::InvalidSchema("empty SELECT list".into()));
        }
        let display_dims: Vec<String> = query.grouping.dims().to_vec();

        let plan_span = trace::span("sql.plan");
        let generation = self.store.generation();
        let cached =
            self.plans_lock().get(query).filter(|e| e.generation == generation).map(Arc::clone);
        let entry = match cached {
            Some(entry) => entry,
            None => {
                let logical = exec::plan_of_query(query);
                let plans = self.store.plan_each(|node| {
                    Planner::for_store(node.dim_count(), &node.catalog())
                        .with_schema(self.obj.schema())
                        .with_policy(self.policy.clone())
                        .with_config(self.config)
                        .plan(&logical)
                })?;
                let first = plans
                    .first()
                    .ok_or_else(|| Error::InvalidSchema("session has no shards".into()))?;
                if first.aggs.iter().any(|a| a.measure != 0)
                    || self.obj.schema().measures().len() != 1
                {
                    return Err(Error::MultipleMeasures(self.obj.schema().measures().len()));
                }
                let labels = Arc::new(plan::group_labels(first, self.obj.schema())?);
                let entry = Arc::new(ShardedPlan {
                    generation,
                    plans,
                    labels,
                    agg_columns: query.select.iter().map(|a| a.to_sql()).collect(),
                });
                self.plans_lock().insert(query.clone(), Arc::clone(&entry));
                entry
            }
        };
        drop(plan_span);

        let mut eval_span = trace::span("sql.eval");
        let (gathered, _failed) = self.store.execute_planned(&entry.plans, &self.policy)?;
        let executed = &gathered.execution;
        let cache_hits = executed.cache_hits() as u64;
        let set_count = entry.plans.first().map_or(0, |p| p.sets.len()) as u64;
        let degraded_answers = executed.degraded_answers() as u64;
        let cells_scanned = executed.cells_scanned();
        // Shard targets and keeps agree by construction, so shard 0's plan
        // renders the merged execution.
        let first = entry
            .plans
            .first()
            .ok_or_else(|| Error::InvalidSchema("session has no shards".into()))?;
        let rows = exec::rows_from_plan_with_labels(first, executed, &entry.labels)?;
        eval_span.record("grouping_sets", set_count);
        eval_span.record("rows", rows.len() as u64);
        eval_span.record("missing_shards", u64::from(gathered.missing_shards));
        drop(eval_span);
        root.record("rows", rows.len() as u64);
        if gathered.is_partial() {
            root.note(format!("partial: missing shards {:?}", gathered.missing_indices()));
        }
        drop(root);

        let result = Arc::new(ResultSet {
            group_columns: display_dims,
            agg_columns: entry.agg_columns.clone(),
            rows,
        });
        let profile = if attach_profile { Some(trace::take_profile()) } else { None };
        Ok(ShardedPhysicalAnswer {
            answer: PhysicalAnswer {
                result,
                profile,
                degraded_answers,
                cache_hits,
                cache_misses: set_count.saturating_sub(cache_hits),
                bypassed_cache: false,
                cells_scanned,
            },
            shard_count: gathered.shard_count,
            missing_shards: gathered.missing_shards,
            pruned_shards: gathered.pruned_shards,
        })
    }

    /// Parses and executes in one step (see [`ShardedSession::execute`]).
    pub fn execute_str(&self, sql: &str) -> Result<ShardedPhysicalAnswer> {
        let query = crate::parser::parse(sql)?;
        self.execute(&query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statcube_core::dimension::Dimension;
    use statcube_core::measure::{MeasureKind, SummaryAttribute, SummaryFunction};
    use statcube_core::schema::Schema;
    use std::sync::Mutex;

    /// Serializes tests that flip the global trace flag.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    fn retail() -> StatisticalObject {
        let schema = Schema::builder("sales")
            .dimension(Dimension::categorical("product", ["apple", "pear", "plum"]))
            .dimension(Dimension::categorical("store", ["s1", "s2"]))
            .dimension(Dimension::categorical("month", ["jan", "feb"]))
            .measure(SummaryAttribute::new("amount", MeasureKind::Flow))
            .function(SummaryFunction::Sum)
            .build()
            .unwrap();
        let mut o = StatisticalObject::empty(schema);
        let data: &[(&str, &str, &str, f64)] = &[
            ("apple", "s1", "jan", 10.0),
            ("apple", "s2", "jan", 4.0),
            ("pear", "s1", "feb", 7.0),
            ("pear", "s2", "jan", 3.0),
            ("plum", "s1", "feb", 9.0),
            ("plum", "s2", "feb", 1.0),
        ];
        for (p, s, m, v) in data {
            o.insert(&[p, s, m], *v).unwrap();
        }
        o
    }

    /// A single-measure object with a store → city hierarchy, for
    /// level-grouping (object-rewriting) queries.
    fn shops() -> StatisticalObject {
        use statcube_core::hierarchy::Hierarchy;
        let location = Hierarchy::builder("loc")
            .level("store")
            .level("city")
            .edge("s1", "seattle")
            .edge("s2", "seattle")
            .edge("s3", "portland")
            .build()
            .unwrap();
        let schema = Schema::builder("sales")
            .dimension(Dimension::classified("store", location))
            .dimension(Dimension::categorical("product", ["a", "b"]))
            .measure(SummaryAttribute::new("amount", MeasureKind::Flow))
            .build()
            .unwrap();
        let mut o = StatisticalObject::empty(schema);
        o.insert(&["s1", "a"], 10.0).unwrap();
        o.insert(&["s2", "a"], 5.0).unwrap();
        o.insert(&["s3", "b"], 7.0).unwrap();
        o
    }

    fn row_key(rs: &ResultSet) -> Vec<(Vec<Option<String>>, String)> {
        let mut v: Vec<(Vec<Option<String>>, String)> = rs
            .rows
            .iter()
            .map(|r| {
                let group = r.group.iter().map(|g| g.as_deref().map(str::to_owned)).collect();
                (group, format!("{:?}", r.values))
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn physical_cube_matches_algebraic_executor() {
        let o = retail();
        let sql = "SELECT SUM(amount) FROM sales GROUP BY CUBE(product, store)";
        let algebraic = crate::execute_str(&o, sql).unwrap();
        let physical = execute_physical_str(&o, sql).unwrap();
        assert_eq!(physical.result.group_columns, algebraic.group_columns);
        assert_eq!(physical.result.agg_columns, algebraic.agg_columns);
        assert_eq!(physical.degraded_answers, 0);
        assert!(physical.cells_scanned > 0, "derivation scans the sealed base");
        assert_eq!(row_key(&physical.result), row_key(&algebraic));
    }

    #[test]
    fn physical_rollup_where_and_plain_group_by() {
        let o = retail();
        for sql in [
            "SELECT SUM(amount) FROM sales GROUP BY ROLLUP(product, month)",
            "SELECT SUM(amount) FROM sales WHERE store = 's1' GROUP BY month",
            "SELECT SUM(amount) FROM sales",
        ] {
            let algebraic = crate::execute_str(&o, sql).unwrap();
            let physical = execute_physical_str(&o, sql).unwrap();
            let sum = |rs: &ResultSet| rs.rows.iter().filter_map(|r| r.values[0]).sum::<f64>();
            assert_eq!(physical.result.rows.len(), algebraic.rows.len(), "{sql}");
            assert!((sum(&physical.result) - sum(&algebraic)).abs() < 1e-9, "{sql}");
        }
    }

    #[test]
    fn profile_spans_all_three_layers() {
        let _l = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        trace::enable();
        let _ = trace::take_profile();
        let ans = execute_physical_str(
            &retail(),
            "SELECT SUM(amount) FROM sales GROUP BY CUBE(product, store, month)",
        )
        .unwrap();
        trace::disable();
        let profile = ans.profile.expect("tracing was enabled and this is the root");
        // sql stages…
        for name in
            ["sql.query", "sql.tokenize", "sql.parse", "sql.execute", "sql.plan", "sql.eval"]
        {
            assert!(profile.find(name).is_some(), "missing span {name}");
        }
        // …cube stages with cost fields…
        let answer = profile.find("cube.answer").expect("cube.answer span");
        assert!(answer.field("cells_scanned").unwrap_or(0) > 0);
        // one answer per grouping set of a 3-dim CUBE
        assert_eq!(
            profile.roots[0]
                .children
                .iter()
                .flat_map(|c| {
                    fn named<'a>(n: &'a statcube_core::trace::ProfileNode, out: &mut Vec<&'a str>) {
                        out.push(n.name.as_str());
                        for c in &n.children {
                            named(c, out);
                        }
                    }
                    let mut v = Vec::new();
                    named(c, &mut v);
                    v
                })
                .filter(|n| *n == "cube.answer")
                .count(),
            8
        );
        // …and storage reads with page counts underneath the cube answers.
        let read = profile.find("storage.read").expect("storage.read span");
        assert!(read.field("pages").unwrap_or(0) > 0);
        assert_eq!(read.field("retries"), Some(0));
        assert!(profile.field_total("pages") > 0);
        // Rendering shows the tree and the counts.
        let text = profile.render();
        assert!(text.contains("sql.query"));
        assert!(text.contains("cube.answer"));
        assert!(text.contains("pages="));
    }

    #[test]
    fn disabled_trace_yields_no_profile() {
        let _l = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        trace::disable();
        let ans = execute_physical_str(
            &retail(),
            "SELECT SUM(amount) FROM sales GROUP BY CUBE(product, store)",
        )
        .unwrap();
        assert!(ans.profile.is_none());
    }

    #[test]
    fn cached_session_hits_on_repeat_queries_and_stays_exact() {
        let o = retail();
        let session = CachedSession::new(&o, CacheConfig::default()).unwrap();
        let sql = "SELECT SUM(amount) FROM sales GROUP BY CUBE(product, store)";
        let cold = session.execute_str(sql).unwrap();
        assert!(!cold.bypassed_cache);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, 4, "one miss per grouping set of CUBE(a, b)");
        let warm = session.execute_str(sql).unwrap();
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(warm.cache_misses, 0);
        // Both runs agree with the one-shot physical executor row for row.
        let oneshot = execute_physical_str(&o, sql).unwrap();
        assert_eq!(row_key(&cold.result), row_key(&oneshot.result));
        assert_eq!(row_key(&warm.result), row_key(&oneshot.result));
        // A different grouping over the same dims reuses cached cuboids:
        // ROLLUP(product, store)'s sets are a subset of the CUBE's.
        let rollup = session
            .execute_str("SELECT SUM(amount) FROM sales GROUP BY ROLLUP(product, store)")
            .unwrap();
        assert_eq!(rollup.cache_hits, 3);
        assert_eq!(rollup.cache_misses, 0);
        assert!(session.cache_stats().hits >= 7);
    }

    #[test]
    fn cached_session_pushes_filters_down_without_polluting_the_cache() {
        let o = retail();
        let session = CachedSession::new(&o, CacheConfig::default()).unwrap();
        // A WHERE filter is pushed into the store scan: served by the
        // session store (no bypass), but never cached — a filtered cuboid
        // under an unfiltered key would corrupt later answers.
        let sql = "SELECT SUM(amount) FROM sales WHERE store = 's1' GROUP BY month";
        let filtered = session.execute_str(sql).unwrap();
        assert!(!filtered.bypassed_cache, "pushdown serves filters from the store");
        assert_eq!((filtered.cache_hits, filtered.cache_misses), (0, 1));
        assert_eq!(session.cache_stats().entries, 0, "filtered plans must not pollute the cache");
        let algebraic = crate::execute_str(&o, sql).unwrap();
        assert_eq!(row_key(&filtered.result), row_key(&algebraic));
        // …and the filter skips the cache on the read side too: a cached
        // unfiltered cuboid must not answer a filtered query.
        let unfiltered =
            session.execute_str("SELECT SUM(amount) FROM sales GROUP BY month").unwrap();
        assert_eq!(unfiltered.cache_misses, 1);
        let refiltered = session.execute_str(sql).unwrap();
        assert_eq!(refiltered.cache_hits, 0, "filtered sets never read the cache");
        assert_eq!(row_key(&refiltered.result), row_key(&algebraic));
    }

    #[test]
    fn cached_session_bypasses_object_rewriting_plans() {
        let o = shops();
        let session = CachedSession::new(&o, CacheConfig::default()).unwrap();
        // A hierarchy-level grouping rolls the object up before the facts
        // exist: bypass, nothing cached.
        let leveled = session.execute_str("SELECT SUM(amount) FROM sales GROUP BY city").unwrap();
        assert!(leveled.bypassed_cache);
        assert_eq!((leveled.cache_hits, leveled.cache_misses), (0, 0));
        assert_eq!(session.cache_stats().entries, 0, "bypassed plans must not pollute the cache");
        let algebraic =
            crate::execute_str(&o, "SELECT SUM(amount) FROM sales GROUP BY city").unwrap();
        assert_eq!(row_key(&leveled.result), row_key(&algebraic));
        // An ordinary query afterwards uses the store as usual.
        let plain = session.execute_str("SELECT SUM(amount) FROM sales GROUP BY product").unwrap();
        assert!(!plain.bypassed_cache);
        assert_eq!(plain.cache_misses, 1);
    }

    #[test]
    fn cached_session_with_views_routes_and_serves_concurrently() {
        let o = retail();
        // Materialize the {product, store} view: plain GROUP BY product
        // routes through it instead of the base.
        let session = CachedSession::with_views(&o, &[0b011], CacheConfig::default()).unwrap();
        assert_eq!(session.store().materialized(), vec![0b011, 0b111]);
        let sql = "SELECT SUM(amount) FROM sales GROUP BY CUBE(product, store, month)";
        let expected = row_key(&session.execute_str(sql).unwrap().result);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let session = &session;
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..8 {
                        let ans = session.execute_str(sql).unwrap();
                        assert_eq!(&row_key(&ans.result), expected);
                    }
                });
            }
        });
        assert!(session.cache_stats().hit_rate() > 0.9, "warm session should mostly hit");
    }

    #[test]
    fn cached_session_policy_partitions_answers() {
        let o = retail();
        let plain = CachedSession::new(&o, CacheConfig::default()).unwrap();
        let strict = CachedSession::new(&o, CacheConfig::default())
            .unwrap()
            .with_policy(PrivacyPolicy::suppress(10));
        let sql = "SELECT SUM(amount) FROM sales GROUP BY product";
        let open = plain.execute_str(sql).unwrap();
        assert!(open.result.rows.iter().all(|r| !r.suppressed));
        // Every product cell merges < 10 micro units → all suppressed.
        let closed = strict.execute_str(sql).unwrap();
        assert_eq!(closed.result.rows.len(), open.result.rows.len());
        assert!(closed.result.rows.iter().all(|r| r.suppressed));
        assert!(closed.result.rows.iter().all(|r| r.values.iter().all(Option::is_none)));
    }

    #[test]
    fn sharded_session_matches_cached_session_row_for_row() {
        let o = retail();
        let cached = CachedSession::new(&o, CacheConfig::default()).unwrap();
        for router in [ShardRouter::Hash { dim: 0 }, ShardRouter::Range { dim: 0, bounds: vec![1] }]
        {
            let sharded =
                ShardedSession::with_views(&o, &[], router, 2, CacheConfig::default()).unwrap();
            for sql in [
                "SELECT SUM(amount) FROM sales GROUP BY CUBE(product, store)",
                "SELECT SUM(amount) FROM sales GROUP BY ROLLUP(product, month)",
                "SELECT SUM(amount) FROM sales WHERE store = 's1' GROUP BY month",
                "SELECT SUM(amount) FROM sales",
            ] {
                let a = cached.execute_str(sql).unwrap();
                let b = sharded.execute_str(sql).unwrap();
                assert!(!b.is_partial(), "{sql}");
                assert_eq!(row_key(&a.result), row_key(&b.answer.result), "{sql}");
            }
        }
    }

    #[test]
    fn sharded_session_replans_after_delta_and_stays_exact() {
        let o = retail();
        let session = ShardedSession::with_views(
            &o,
            &[],
            ShardRouter::Hash { dim: 0 },
            2,
            CacheConfig::default(),
        )
        .unwrap();
        let sql = "SELECT SUM(amount) FROM sales GROUP BY product";
        let before = session.execute_str(sql).unwrap();
        let sum = |rs: &ResultSet| rs.rows.iter().filter_map(|r| r.values[0]).sum::<f64>();
        // Route one more apple sale through the sharded delta path; the
        // plan cache is generation-keyed, so the next query re-plans.
        let mut delta = FactInput::new(&[3, 2, 2]).unwrap();
        delta.push(&[0, 0, 0], 5.0).unwrap();
        session.store().apply_delta(&delta).unwrap();
        let after = session.execute_str(sql).unwrap();
        assert!((sum(&after.answer.result) - sum(&before.answer.result) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_session_reports_pruned_shards() {
        let o = retail();
        let session = ShardedSession::with_views(
            &o,
            &[],
            ShardRouter::Hash { dim: 0 },
            3,
            CacheConfig::default(),
        )
        .unwrap();
        let slice = session
            .execute_str("SELECT SUM(amount) FROM sales WHERE product = 'pear' GROUP BY store")
            .unwrap();
        assert_eq!(slice.pruned_shards.count_ones(), 2, "a product slice owns one of 3 shards");
        assert!(!slice.is_partial(), "pruned shards are not missing");
        let whole = session.execute_str("SELECT SUM(amount) FROM sales GROUP BY store").unwrap();
        assert_eq!(whole.pruned_shards, 0);
    }

    #[test]
    fn sharded_session_surfaces_dead_shards_as_partial_rows() {
        let o = retail();
        let session = ShardedSession::with_views(
            &o,
            &[],
            ShardRouter::Hash { dim: 0 },
            3,
            CacheConfig::disabled(),
        )
        .unwrap();
        let sql = "SELECT SUM(amount) FROM sales GROUP BY product";
        let whole = session.execute_str(sql).unwrap();
        assert!(!whole.is_partial());
        session.store().kill_shard(1).unwrap();
        let partial = session.execute_str(sql).unwrap();
        assert!(partial.is_partial());
        assert_eq!(partial.missing_shards, 1 << 1);
        let sum = |rs: &ResultSet| rs.rows.iter().filter_map(|r| r.values[0]).sum::<f64>();
        assert!(sum(&partial.answer.result) <= sum(&whole.answer.result));
    }

    #[test]
    fn cached_session_rejects_multi_measure_objects() {
        let schema = Schema::builder("census")
            .dimension(Dimension::categorical("state", ["AL", "CA"]))
            .measure(SummaryAttribute::new("population", MeasureKind::Stock))
            .measure(SummaryAttribute::new("births", MeasureKind::Flow))
            .build()
            .unwrap();
        let o = StatisticalObject::empty(schema);
        assert!(matches!(
            CachedSession::new(&o, CacheConfig::default()),
            Err(Error::MultipleMeasures(2))
        ));
    }

    #[test]
    fn physical_rejects_multi_measure_objects() {
        let schema = Schema::builder("census")
            .dimension(Dimension::categorical("state", ["AL", "CA"]))
            .measure(SummaryAttribute::new("population", MeasureKind::Stock))
            .measure(SummaryAttribute::new("births", MeasureKind::Flow))
            .build()
            .unwrap();
        let o = StatisticalObject::empty(schema);
        let err = execute_physical_str(&o, "SELECT SUM(births) FROM census GROUP BY state");
        assert!(matches!(err, Err(Error::MultipleMeasures(2))));
    }
}
