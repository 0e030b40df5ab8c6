//! The one adapter between the benchmark and the system under test.
//!
//! Every call into a `statcube_*` crate is made here, and each is annotated
//! `[feeds: …]` with the layer metric (or end-to-end metric) it is timed
//! for. The workloads see only the types of this module, so when the store
//! tower and the session zoo collapse into one façade (ROADMAP item 3) this
//! file is the whole follow-up.
//!
//! Each front door comes in two forms. The *front door* proper is the call
//! a user makes (`execute_str`, `apply_delta`, `answer_with_policy`,
//! `recover`); end-to-end metrics time only that. The *staged* form makes
//! the same public calls the front door makes inside, one stage at a time,
//! with a span around each — the outside-in trace. A staged result must
//! equal the front-door result for the same operation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use statcube_core::dimension::Dimension;
use statcube_core::error::{Error, Result};
use statcube_core::hierarchy::Hierarchy;
use statcube_core::measure::{MeasureKind, SummaryAttribute};
use statcube_core::object::StatisticalObject;
use statcube_core::plan::{
    self, enforce, CellBlock, GroupLabels, PartialExecution, Plan, PlanExecution, PlanSource,
    PlannedQuery, PlannedSet, Planner, PlannerConfig, PrivacyPolicy, SetAnswer,
};
use statcube_core::schema::Schema;
use statcube_core::trace;
use statcube_cube::cache::CacheConfig;
use statcube_cube::durable;
use statcube_cube::groupby::Cuboid;
use statcube_cube::input::FactInput;
use statcube_cube::query::ViewStore;
use statcube_cube::sharded::{ShardRouter, ShardedViewStore};
use statcube_cube::shared::{DurableParts, SharedViewStore, StoreSnapshot};
use statcube_sql::ast::Query;
use statcube_sql::exec::{self, ResultRow, ResultSet};
use statcube_sql::parser;
use statcube_sql::physical::{CachedSession, ShardedSession};
use statcube_storage::page_store::PageStore;
use statcube_storage::wal::{self, DeltaJournal, RecordKind};

use crate::gen::{Names, Rows, Shape};
use crate::spans::Recorder;

/// Span names of the staged forms; the per-layer metrics are read off them.
pub mod span {
    /// One whole staged operation (parent of every stage below).
    pub const OP: &str = "op";
    pub const PARSE: &str = "sql.parser.parse";
    pub const PLAN: &str = "core.plan.planner.plan";
    pub const PROBE: &str = "cube.cache.probe";
    pub const LOAD: &str = "cube.query.load";
    pub const DERIVE: &str = "core.plan.kernels.derive";
    pub const ENFORCE: &str = "core.plan.enforce.enforce";
    pub const RENDER: &str = "core.plan.exec.render";
    pub const PLAN_SHARDS: &str = "cube.sharded.plan_shards";
    pub const SCATTER: &str = "cube.sharded.scatter";
    pub const SHARD: &str = "cube.sharded.shard";
    pub const MERGE: &str = "core.plan.kernels.merge";
    pub const VALIDATE: &str = "cube.query.validate";
    pub const ENCODE: &str = "cube.durable.encode";
    pub const WAL_APPEND: &str = "storage.wal.append";
    pub const FOLD: &str = "cube.query.fold";
    pub const PROJECT: &str = "cube.query.project";
}

/// The views every unsharded store materializes besides the base:
/// `{product, store}` and `{store, day}`.
pub const VIEWS: [u32; 2] = [0b011, 0b110];

/// Shards of the `sharded_scatter` store. Fixed, not `nproc`, so the work
/// per query is the same on every machine.
pub const SHARDS: usize = 4;

/// The privacy policy a workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No enforcement (`warm_sql`: the rendered-row memo needs untouched
    /// blocks).
    Open,
    /// `PrivacyPolicy::suppress(3)`, enforced in the query path.
    Suppress3,
}

impl Policy {
    fn build(self) -> PrivacyPolicy {
        match self {
            Policy::Open => PrivacyPolicy::none(),
            Policy::Suppress3 => PrivacyPolicy::suppress(3),
        }
    }
}

/// The answer cache in front of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Disabled,
    /// The engine's default configuration: 16 MiB over 8 shards. The
    /// working set of `warm_sql` fits.
    Default,
}

impl Cache {
    fn build(self) -> CacheConfig {
        match self {
            Cache::Disabled => CacheConfig::disabled(),
            Cache::Default => CacheConfig::default(),
        }
    }
}

/// Aborts on an enabled engine tracer: every number here is taken with
/// `core::trace` off.
pub fn assert_engine_trace_disabled() {
    assert!(!trace::is_enabled(), "core::trace must stay disabled while the benchmark runs");
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The engine types the workloads hold but never look inside.
pub type Object = StatisticalObject;
pub type Facts = FactInput;
pub type SutError = Error;

/// The statistical object the SQL sessions serve: one insert per populated
/// cell, so the store-free executor (which counts micro records) and the
/// physical path (which counts cells) agree on every suppression verdict.
/// [feeds: setup_s]
pub fn build_object(shape: &Shape, names: &Names, cells: &Rows) -> Result<StatisticalObject> {
    let mut product = Hierarchy::builder("product category").level("product").level("category");
    for (p, cat) in names.products.iter().zip(&names.category_of) {
        product = product.edge(p, cat);
    }
    let mut location =
        Hierarchy::builder("store location").level("store").id_dependent().level("city");
    for (s, city) in names.stores.iter().zip(&names.city_of) {
        location = location.edge(s, city);
    }
    let mut calendar = Hierarchy::builder("calendar").level("day").id_dependent().level("month");
    for (d, month) in names.days.iter().zip(&names.month_of) {
        calendar = calendar.edge(d, month);
    }
    let schema = Schema::builder("sales")
        .dimension(Dimension::classified("product", product.build()?))
        .dimension(Dimension::classified("store", location.build()?))
        .dimension(Dimension::classified_temporal("day", calendar.build()?))
        .measure(SummaryAttribute::new("amount", MeasureKind::Flow).with_unit("dollars"))
        .build()?;
    if schema.cardinalities() != shape.cards() {
        return Err(Error::InvalidSchema("generated schema does not match its shape".into()));
    }
    let mut object = StatisticalObject::empty(schema);
    for (coords, &amount) in cells.coords.iter().zip(&cells.amounts) {
        object.insert_ids(coords, &[amount])?;
    }
    Ok(object)
}

/// Plain rows as the engine's fact table. [feeds: setup_s]
pub fn fact_input(shape: &Shape, rows: &Rows) -> Result<FactInput> {
    let mut input = FactInput::new(&shape.cards())?;
    for (coords, &amount) in rows.coords.iter().zip(&rows.amounts) {
        input.push(coords, amount)?;
    }
    Ok(input)
}

/// The fact table a session derives from its object (one fact per cell).
pub fn object_facts(object: &StatisticalObject) -> Result<FactInput> {
    FactInput::from_object(object)
}

// ---------------------------------------------------------------------------
// Answers and the oracle
// ---------------------------------------------------------------------------

/// Rows of a SQL answer, shared with the engine's own handle.
pub type SqlRows = Arc<ResultSet>;

/// The store-free reference answer: `sql::exec::execute_with_policy` over
/// the object, touching no store, cache or kernel.
pub fn oracle(object: &StatisticalObject, sql: &str, policy: Policy) -> Result<ResultSet> {
    exec::execute_with_policy(object, &parser::parse(sql)?, &policy.build())
}

fn same_row(a: &ResultRow, b: &ResultRow) -> bool {
    a.group == b.group
        && a.suppressed == b.suppressed
        && a.values.len() == b.values.len()
        && a.values.iter().zip(&b.values).all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

/// Same columns and the same rows in the same order, values bit for bit.
pub fn same_rows(a: &ResultSet, b: &ResultSet) -> bool {
    a.group_columns == b.group_columns
        && a.agg_columns == b.agg_columns
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| same_row(x, y))
}

/// Counts taken at the stage boundaries of the staged forms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub cells_scanned: u64,
    pub rows_out: u64,
    pub suppressed: u64,
    pub shards_pruned: u64,
    pub shards_total: u64,
}

/// Answer-cache counters of a store (summed over shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheCounters {
    pub fn since(self, earlier: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    pub fn hit_ratio(self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

fn sealed_bytes(pages: &PageStore) -> u64 {
    (0..pages.file_count()).map(|id| pages.file_len(id) as u64).sum()
}

/// Reads every sealed file of `pages` once through the verifying read path
/// and returns (reads made, time spent). [feeds: storage.page_store.read_us]
fn read_every_file(pages: &PageStore) -> Result<(u64, Duration)> {
    let mut spent = Duration::ZERO;
    for id in 0..pages.file_count() {
        let t = Instant::now();
        let bytes = pages.read(id)?;
        spent += t.elapsed();
        std::hint::black_box(bytes.len());
    }
    Ok((pages.file_count() as u64, spent))
}

// ---------------------------------------------------------------------------
// Staged grouping-set answers (shared by every staged read path)
// ---------------------------------------------------------------------------

/// One grouping set the way the executor's `answer_set` answers it — probe,
/// else load the first-choice source and derive — with a span per call.
/// The fallback chain is left out: on a healthy store the first candidate
/// always serves, and a failure here fails the operation.
fn staged_set<S: PlanSource>(
    q: &PlannedQuery,
    set: &PlannedSet,
    src: &S,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<SetAnswer> {
    let probing = src.probes() && q.scan_filters.is_empty();
    if probing {
        // [feeds: cube.cache.hit_ratio]
        if let Some((cells, source)) = rec.time(span::PROBE, |_| src.probe(set.target)) {
            return Ok(SetAnswer {
                keep: set.keep.clone(),
                target: set.target,
                source,
                cells,
                cells_scanned: 0,
                cache_hit: true,
                degraded: None,
            });
        }
    }
    let &(source, _) = set
        .candidates
        .first()
        .ok_or_else(|| Error::InvalidSchema("no ancestor materialized".into()))?;
    // [feeds: cube.query.load_us, storage.page_store.pages_read_per_query]
    let loaded = rec.time(span::LOAD, |_| src.load(source))?;
    // [feeds: core.plan.kernels.cells_scanned_per_query]
    tally.cells_scanned += loaded.scanned;
    let cells = if source == set.target && q.scan_filters.is_empty() {
        loaded.cells
    } else {
        // [feeds: core.plan.kernels.derive_us]
        Arc::new(rec.time(span::DERIVE, |_| {
            plan::derive_block(&loaded.cells, source, set.target, &q.scan_filters)
        }))
    };
    if probing {
        src.admit(set.target, source, loaded.scanned, &cells, false);
    }
    Ok(SetAnswer {
        keep: set.keep.clone(),
        target: set.target,
        source,
        cells,
        cells_scanned: loaded.scanned,
        cache_hit: false,
        degraded: None,
    })
}

/// The privacy pass, once, over answered sets.
/// [feeds: core.plan.enforce.enforce_us, core.plan.enforce.suppressed_per_query]
fn staged_enforce(
    policy: &PrivacyPolicy,
    sets: &mut [SetAnswer],
    rec: &mut Recorder,
    tally: &mut Tally,
) {
    let stats = rec.time(span::ENFORCE, |_| enforce::enforce(policy, sets));
    tally.suppressed += stats.suppressed + stats.complementary;
}

/// Row rendering against pre-resolved labels.
/// [feeds: core.plan.exec.render_us, core.plan.exec.rows_per_query]
fn staged_render(
    planned: &PlannedQuery,
    executed: &PlanExecution,
    labels: &GroupLabels,
    query: &Query,
    agg_columns: &[String],
    rec: &mut Recorder,
) -> Result<ResultSet> {
    let rows =
        rec.time(span::RENDER, |_| plan::result_rows_with_labels(planned, executed, labels))?;
    Ok(ResultSet {
        group_columns: query.grouping.dims().to_vec(),
        agg_columns: agg_columns.to_vec(),
        rows: rows
            .into_iter()
            .map(|r| ResultRow { group: r.group, values: r.values, suppressed: r.suppressed })
            .collect(),
    })
}

// ---------------------------------------------------------------------------
// warm_sql / cold_scan: SQL strings through CachedSession
// ---------------------------------------------------------------------------

/// A front-door answer with the counters the engine reports beside it.
#[derive(Debug)]
pub struct SqlAnswer {
    pub rows: SqlRows,
    /// Operations that were refused, partial or degraded count as failed.
    pub complete: bool,
}

/// What the three SQL workloads need from their front door.
pub trait SqlDoor {
    /// The front door: one SQL string in, rows out.
    fn execute(&self, sql: &str) -> Result<SqlAnswer>;
    /// The same statement one public call at a time; the scatter shape is
    /// present on a sharded door.
    fn staged(
        &mut self,
        sql: &str,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(SqlRows, Option<ScatterShape>)>;
    fn cache_counters(&self) -> CacheCounters;
    fn stored_bytes(&self) -> u64;
    fn pages_read(&self) -> u64;
    fn read_every_file(&self) -> Result<(u64, Duration)>;
}

/// The staged twin of one `CachedSession` plan-cache entry.
struct StagedPlan {
    generation: u64,
    planned: PlannedQuery,
    labels: GroupLabels,
    agg_columns: Vec<String>,
    /// The engine's rendered-row memo: rows keyed by the identity of the
    /// blocks they were rendered from.
    rendered: Option<(Vec<Arc<CellBlock>>, SqlRows)>,
}

/// `CachedSession` over the object, with the base cuboid and [`VIEWS`].
pub struct SqlSession {
    session: CachedSession,
    policy: PrivacyPolicy,
    staged_plans: HashMap<Query, StagedPlan>,
}

impl SqlSession {
    /// [feeds: setup_s]
    pub fn build(object: &StatisticalObject, cache: Cache, policy: Policy) -> Result<Self> {
        let policy = policy.build();
        let session =
            CachedSession::with_views(object, &VIEWS, cache.build())?.with_policy(policy.clone());
        Ok(Self { session, policy, staged_plans: HashMap::new() })
    }

    /// `SharedViewStore::answer` on `mask`; true on a cache hit.
    /// [feeds: cube.shared.answer_hit_us]
    pub fn answer(&self, mask: u32) -> Result<bool> {
        Ok(self.session.store().answer(mask)?.cache_hit)
    }
}

impl SqlDoor for SqlSession {
    /// The front door. [feeds: query_ops_s, query_p50_us, query_p99_us]
    fn execute(&self, sql: &str) -> Result<SqlAnswer> {
        let ans = self.session.execute_str(sql)?;
        Ok(SqlAnswer {
            complete: ans.degraded_answers == 0 && !ans.bypassed_cache,
            rows: ans.result,
        })
    }

    /// The same statement, one public call at a time (see the module docs).
    fn staged(
        &mut self,
        sql: &str,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(SqlRows, Option<ScatterShape>)> {
        let Self { session, policy, staged_plans } = self;
        rec.time(span::OP, |rec| {
            // [feeds: sql.parser.parse_us]
            let query = rec.time(span::PARSE, |_| parser::parse(sql))?;
            let store = session.store();
            let src = store.plan_source();
            let generation = store.generation();
            if staged_plans.get(&query).is_none_or(|e| e.generation != generation) {
                // [feeds: core.plan.planner.plan_us]
                let (planned, labels) = rec.time(span::PLAN, |_| {
                    let catalog = src.catalog();
                    let planned = Planner::for_store(src.dim_count(), &catalog)
                        .with_schema(session.object().schema())
                        .with_policy(policy.clone())
                        .plan(&exec::plan_of_query(&query))?;
                    let labels = plan::group_labels(&planned, session.object().schema())?;
                    Ok::<_, Error>((planned, labels))
                })?;
                let agg_columns = query.select.iter().map(|a| a.to_sql()).collect();
                staged_plans.insert(
                    query.clone(),
                    StagedPlan { generation, planned, labels, agg_columns, rendered: None },
                );
            }
            let entry = staged_plans
                .get_mut(&query)
                .ok_or_else(|| Error::InvalidSchema("staged plan cache lost its entry".into()))?;
            let mut sets = Vec::with_capacity(entry.planned.sets.len());
            for set in &entry.planned.sets {
                sets.push(staged_set(&entry.planned, set, &src, rec, tally)?);
            }
            staged_enforce(policy, &mut sets, rec, tally);
            let executed = PlanExecution { sets, enforcement: Default::default() };
            let replay = entry.rendered.as_ref().filter(|(blocks, _)| {
                blocks.len() == executed.sets.len()
                    && blocks.iter().zip(&executed.sets).all(|(b, s)| Arc::ptr_eq(b, &s.cells))
            });
            let rows = match replay {
                Some((_, rows)) => Arc::clone(rows),
                None => {
                    let rows = Arc::new(staged_render(
                        &entry.planned,
                        &executed,
                        &entry.labels,
                        &query,
                        &entry.agg_columns,
                        rec,
                    )?);
                    let blocks = executed.sets.iter().map(|s| Arc::clone(&s.cells)).collect();
                    entry.rendered = Some((blocks, Arc::clone(&rows)));
                    rows
                }
            };
            tally.rows_out += rows.rows.len() as u64;
            Ok((rows, None))
        })
    }

    /// [feeds: cube.cache.hit_ratio, cube.cache.evictions]
    fn cache_counters(&self) -> CacheCounters {
        let s = self.session.cache_stats();
        CacheCounters { hits: s.hits, misses: s.misses, evictions: s.evictions }
    }

    /// Sealed page bytes of the published store.
    /// [feeds: stored_bytes_per_fact_byte, storage.page_store.stored_bytes]
    fn stored_bytes(&self) -> u64 {
        sealed_bytes(self.session.store().snapshot().store().page_store())
    }

    /// [feeds: storage.page_store.pages_read_per_query]
    fn pages_read(&self) -> u64 {
        self.session.store().snapshot().store().page_store().io().pages_read()
    }

    fn read_every_file(&self) -> Result<(u64, Duration)> {
        read_every_file(self.session.store().snapshot().store().page_store())
    }
}

// ---------------------------------------------------------------------------
// sharded_scatter: SQL strings through ShardedSession
// ---------------------------------------------------------------------------

struct StagedShardedPlan {
    generation: u64,
    plans: Vec<Arc<PlannedQuery>>,
    labels: GroupLabels,
    agg_columns: Vec<String>,
}

/// `ShardedSession`: [`SHARDS`] hash shards on product, base cuboid only,
/// cache disabled, `suppress(3)`.
pub struct ShardedSql {
    session: ShardedSession,
    schema: Schema,
    policy: PrivacyPolicy,
    staged_plans: HashMap<Query, StagedShardedPlan>,
}

/// What a staged sharded operation found besides its rows.
#[derive(Debug, Clone)]
pub struct ScatterShape {
    /// Shards the engine skipped by proof (the filter names the shard key):
    /// `ShardedExecution::pruned_shards` of `execute_planned`, the call the
    /// front door makes. `ShardedSession` does not pass the mask on, so it
    /// is read one floor below.
    pub pruned: usize,
    /// Shards the staged form left out of its scatter; must equal `pruned`.
    pub staged_pruned: usize,
    /// Wall time of each shard's partial execution.
    pub shard_times: Vec<Duration>,
}

impl ShardedSql {
    /// [feeds: setup_s]
    pub fn build(object: &StatisticalObject) -> Result<Self> {
        let policy = Policy::Suppress3.build();
        let session = ShardedSession::with_views(
            object,
            &[],
            ShardRouter::Hash { dim: 0 },
            SHARDS,
            CacheConfig::disabled(),
        )?
        .with_policy(policy.clone());
        Ok(Self { session, schema: object.schema().clone(), policy, staged_plans: HashMap::new() })
    }

    /// The shards the staged form scatters to: every shard, or — when the
    /// plan pushes a filter on the routing dimension — only the owners of
    /// the allowed values. The engine's own choice is observed separately
    /// ([`ScatterShape::pruned`]) and the two must agree.
    fn owned_shards(store: &ShardedViewStore, planned: &PlannedQuery) -> Vec<usize> {
        let n = store.shard_count();
        let dim = store.router().dim();
        let Some((_, allowed)) = planned.scan_filters.iter().find(|(d, _)| *d == dim) else {
            return (0..n).collect();
        };
        let mut owned: Vec<usize> =
            allowed.iter().map(|&v| store.router().route_coord(v, n)).collect();
        owned.sort_unstable();
        owned.dedup();
        if owned.is_empty() {
            owned.push(0);
        }
        owned
    }

    /// One shard's pre-enforcement partial, staged.
    /// [feeds: cube.sharded.shard_skew]
    fn staged_partial(
        shard: &SharedViewStore,
        planned: &PlannedQuery,
        rec: &mut Recorder,
    ) -> (Result<PartialExecution>, Tally) {
        let mut tally = Tally::default();
        let out = rec.time(span::SHARD, |rec| {
            let src = shard.plan_source();
            let mut sets = Vec::with_capacity(planned.sets.len());
            for set in &planned.sets {
                sets.push(staged_set(planned, set, &src, rec, &mut tally)?);
            }
            Ok(PartialExecution { sets })
        });
        (out, tally)
    }

    /// The published store of every shard, pinned.
    fn shard_snapshots(&self) -> Vec<StoreSnapshot> {
        let store = self.session.store();
        (0..store.shard_count()).filter_map(|i| store.shard(i)).map(|s| s.snapshot()).collect()
    }
}

impl SqlDoor for ShardedSql {
    /// The front door; an answer with a missing shard is not complete.
    /// [feeds: query_ops_s, query_p50_us, query_p99_us]
    fn execute(&self, sql: &str) -> Result<SqlAnswer> {
        let ans = self.session.execute_str(sql)?;
        Ok(SqlAnswer {
            complete: !ans.is_partial()
                && ans.answer.degraded_answers == 0
                && !ans.answer.bypassed_cache,
            rows: ans.answer.result,
        })
    }

    /// The same statement through plan-per-shard, prune, scatter, merge,
    /// enforce once, render — each as its own call.
    fn staged(
        &mut self,
        sql: &str,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(SqlRows, Option<ScatterShape>)> {
        let Self { session, schema, policy, staged_plans } = self;
        let (rows, staged_pruned, shard_times, plans) = rec.time(span::OP, |rec| {
            let query = rec.time(span::PARSE, |_| parser::parse(sql))?;
            let store = session.store();
            let generation = store.generation();
            if staged_plans.get(&query).is_none_or(|e| e.generation != generation) {
                // [feeds: cube.sharded.plan_shards_us]
                let plans = rec.time(span::PLAN_SHARDS, |_| {
                    let logical = exec::plan_of_query(&query);
                    store.plan_each(|node| {
                        Planner::for_store(node.dim_count(), &node.catalog())
                            .with_schema(schema)
                            .with_policy(policy.clone())
                            .plan(&logical)
                    })
                })?;
                let first = plans
                    .first()
                    .ok_or_else(|| Error::InvalidSchema("session has no shards".into()))?;
                let labels = plan::group_labels(first, schema)?;
                let agg_columns = query.select.iter().map(|a| a.to_sql()).collect();
                staged_plans.insert(
                    query.clone(),
                    StagedShardedPlan { generation, plans, labels, agg_columns },
                );
            }
            let entry = staged_plans
                .get(&query)
                .ok_or_else(|| Error::InvalidSchema("staged plan cache lost its entry".into()))?;
            let first = &entry.plans[0];
            let owned = Self::owned_shards(store, first);
            let shards = owned
                .iter()
                .map(|&i| {
                    let shard = store.shard(i);
                    shard
                        .map(|s| (s, &*entry.plans[i]))
                        .ok_or_else(|| Error::InvalidSchema(format!("no shard {i}")))
                })
                .collect::<Result<Vec<_>>>()?;
            // [feeds: cube.sharded.scatter_us]
            let gathered: Vec<(Result<PartialExecution>, Tally, Recorder)> =
                rec.time(span::SCATTER, |rec| {
                    if let [(shard, planned)] = shards[..] {
                        // A single owner runs inline, as in the engine.
                        let mut local = rec.fork();
                        let (part, t) = Self::staged_partial(shard, planned, &mut local);
                        return Ok(vec![(part, t, local)]);
                    }
                    std::thread::scope(|s| {
                        let handles: Vec<_> = shards
                            .iter()
                            .map(|&(shard, planned)| {
                                let mut local = rec.fork();
                                s.spawn(move || {
                                    let (part, t) =
                                        Self::staged_partial(shard, planned, &mut local);
                                    (part, t, local)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| {
                                h.join().map_err(|_| {
                                    Error::InvalidSchema("shard worker panicked".into())
                                })
                            })
                            .collect::<Result<Vec<_>>>()
                    })
                })?;
            let mut parts = Vec::with_capacity(gathered.len());
            let mut shard_times = Vec::with_capacity(gathered.len());
            for (part, t, local) in gathered {
                shard_times.push(Duration::from_nanos(local.total_ns(span::SHARD)));
                rec.graft(local);
                tally.cells_scanned += t.cells_scanned;
                parts.push(Some(part?));
            }
            // The gather: the merge monoid alone (enforcement comes next,
            // once, on global counts). [feeds: core.plan.kernels.merge_us]
            let mut merged =
                rec.time(span::MERGE, |_| plan::merge_partials(&PrivacyPolicy::none(), &parts))?;
            staged_enforce(policy, &mut merged.execution.sets, rec, tally);
            let rows = Arc::new(staged_render(
                first,
                &merged.execution,
                &entry.labels,
                &query,
                &entry.agg_columns,
                rec,
            )?);
            tally.rows_out += rows.rows.len() as u64;
            let staged_pruned = store.shard_count() - owned.len();
            Ok::<_, Error>((rows, staged_pruned, shard_times, entry.plans.clone()))
        })?;
        // What the engine pruned for the same plans, outside the staged
        // time. [feeds: cube.sharded.pruned_ratio, cube.sharded.pruned_p50_us,
        // cube.sharded.scatter_p50_us]
        let store = session.store();
        let (gathered, _) = store.execute_planned(&plans, policy)?;
        let pruned = gathered.pruned_shards.count_ones() as usize;
        tally.shards_pruned += pruned as u64;
        tally.shards_total += store.shard_count() as u64;
        Ok((rows, Some(ScatterShape { pruned, staged_pruned, shard_times })))
    }

    fn stored_bytes(&self) -> u64 {
        self.shard_snapshots().iter().map(|s| sealed_bytes(s.store().page_store())).sum()
    }

    fn pages_read(&self) -> u64 {
        self.shard_snapshots().iter().map(|s| s.store().page_store().io().pages_read()).sum()
    }

    fn read_every_file(&self) -> Result<(u64, Duration)> {
        let mut total = (0, Duration::ZERO);
        for s in self.shard_snapshots() {
            let (n, d) = read_every_file(s.store().page_store())?;
            total = (total.0 + n, total.1 + d);
        }
        Ok(total)
    }

    fn cache_counters(&self) -> CacheCounters {
        let s = self.session.store().cache_stats();
        CacheCounters { hits: s.hits, misses: s.misses, evictions: s.evictions }
    }
}

// ---------------------------------------------------------------------------
// ingest_mixed: a durable SharedViewStore, its reader, and recovery
// ---------------------------------------------------------------------------

/// A cuboid answer reduced to what the workload compares and counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CuboidAnswer {
    pub cache_hit: bool,
    pub cells: Arc<Cuboid>,
}

impl CuboidAnswer {
    /// Whether this answer holds exactly `cells`, states bit for bit.
    pub fn has_cells(&self, cells: &Cuboid) -> bool {
        same_cuboid(&self.cells, cells)
    }
}

/// What one recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    pub replayed_deltas: u64,
    pub replayed_rows: u64,
}

/// `SharedViewStore::build_durable_on` over the fact rows and [`VIEWS`].
pub struct DurableStore {
    store: SharedViewStore,
    parts: DurableParts,
    policy: PrivacyPolicy,
}

impl DurableStore {
    /// Default cache, `suppress(3)`. [feeds: setup_s]
    pub fn build(facts: &FactInput) -> Result<Self> {
        let parts = DurableParts::new();
        let store = SharedViewStore::build_durable_on(
            facts,
            &VIEWS,
            Cache::Default.build(),
            parts.clone(),
        )?;
        Ok(Self { store, parts, policy: Policy::Suppress3.build() })
    }

    /// The write front door: validate, journal, fold, seal, publish,
    /// invalidate, commit. [feeds: ingest_rows_s, ingest_batch_p50_ms,
    /// ingest_batch_p95_ms, cube.shared.publish_us]
    pub fn apply_delta(&self, batch: &FactInput) -> Result<()> {
        self.store.apply_delta(batch).map(drop)
    }

    /// The read front door of a durable store (the SQL sessions cannot
    /// front one). [feeds: query_p99_us on ingest_mixed]
    pub fn read(&self, mask: u32) -> Result<CuboidAnswer> {
        let ans = self.store.answer_with_policy(mask, &self.policy, PlannerConfig::default())?;
        if ans.degraded.is_some() {
            return Err(Error::InvalidSchema(format!("degraded answer for mask {mask:#b}")));
        }
        Ok(CuboidAnswer { cache_hit: ans.cache_hit, cells: ans.cuboid })
    }

    /// [feeds: storage.wal.journal_bytes_per_row, stored_bytes_per_fact_byte]
    pub fn journal_bytes(&self) -> u64 {
        self.parts.journal().len()
    }

    /// [feeds: storage.page_store.sealed_bytes_per_delta_row,
    /// stored_bytes_per_fact_byte]
    pub fn sealed_bytes(&self) -> u64 {
        sealed_bytes(self.store.snapshot().store().page_store())
    }

    pub fn cache_counters(&self) -> CacheCounters {
        let s = self.store.cache_stats();
        CacheCounters { hits: s.hits, misses: s.misses, evictions: s.evictions }
    }

    /// A copy of the journal device, as a restarted process would find it.
    pub fn journal_image(&self) -> Vec<u8> {
        self.parts.journal().image()
    }

    /// `SharedViewStore::recover` over a journal image. [feeds: recover_ms,
    /// cube.durable.replay_rows_s]
    pub fn recover(image: Vec<u8>) -> Result<(Self, Recovered)> {
        let parts = DurableParts::from_journal_image(image);
        let (store, report) = SharedViewStore::recover(&parts, Cache::Default.build())?;
        if report.stopped_at_undecodable.is_some() || report.truncated_bytes != 0 {
            return Err(Error::InvalidSchema("recovery did not replay the whole journal".into()));
        }
        let recovered = Recovered {
            replayed_deltas: report.replayed_deltas,
            replayed_rows: report.replayed_rows,
        };
        Ok((Self { store, parts, policy: Policy::Suppress3.build() }, recovered))
    }

    /// Decodes the newest snapshot record of a journal image and returns
    /// the time that took. [feeds: cube.durable.snapshot_decode_ms]
    pub fn time_snapshot_decode(image: &[u8]) -> Result<Duration> {
        let (records, _) = wal::decode_records(image);
        let snapshot = records
            .iter()
            .rev()
            .find(|r| r.kind == RecordKind::Snapshot)
            .ok_or_else(|| Error::InvalidSchema("journal image holds no snapshot".into()))?;
        let t = Instant::now();
        let store = durable::decode_snapshot(&snapshot.payload)?;
        let spent = t.elapsed();
        std::hint::black_box(store.stored_cells());
        Ok(spent)
    }

    /// Whether this store answers every cuboid mask exactly like `other`,
    /// with no policy in the way: same cells, same states, bit for bit.
    pub fn answers_like(&self, other: &MirrorStore) -> Result<bool> {
        let snap = self.store.snapshot();
        for mask in 0..=snap.store().lattice().top() {
            let mine = snap.store().answer(mask)?.cuboid;
            let theirs = other.0.answer(mask)?.cuboid;
            if !same_cuboid(&mine, &theirs) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

fn same_cuboid(a: &Cuboid, b: &Cuboid) -> bool {
    a.len() == b.len()
        && a.iter().all(|(key, x)| {
            b.get(key).is_some_and(|y| {
                x.count == y.count
                    && x.sum.to_bits() == y.sum.to_bits()
                    && x.min.to_bits() == y.min.to_bits()
                    && x.max.to_bits() == y.max.to_bits()
            })
        })
}

/// A plain `ViewStore` the benchmark owns: the rebuild oracle of phase C,
/// and the store the staged write and read forms run on, fed the same
/// batches as the front-door store so both see the same cold and warm
/// states.
pub struct MirrorStore(ViewStore);

impl MirrorStore {
    /// [feeds: cube.query.build_ms]
    pub fn build(facts: &FactInput) -> Result<Self> {
        Ok(Self(ViewStore::build(facts, &VIEWS)?))
    }

    /// The write path one stage at a time: validate, encode, journal append
    /// (on a scratch journal), fold + seal; the successor then replaces
    /// this store, as publication would.
    pub fn staged_apply(
        &mut self,
        batch: &FactInput,
        scratch: &ScratchJournal,
        rec: &mut Recorder,
    ) -> Result<()> {
        let next = rec.time(span::OP, |rec| {
            // [feeds: cube.query.validate_us]
            rec.time(span::VALIDATE, |_| self.0.validate_delta(batch))?;
            // [feeds: cube.durable.encode_us]
            let payload = rec.time(span::ENCODE, |_| durable::encode_fact_input(batch));
            // [feeds: storage.wal.append_us]
            rec.time(span::WAL_APPEND, |_| scratch.0.append(RecordKind::Delta, 0, &payload))?;
            // [feeds: cube.query.fold_ms]
            rec.time(span::FOLD, |_| self.0.fold_delta(batch)).map(|(next, _)| next)
        })?;
        self.0 = next;
        Ok(())
    }

    /// Folds `batch` into a successor that is then dropped; returns the
    /// fold's time. [feeds: cube.query.fold_ms.b20, cube.query.fold_ms.b2000]
    pub fn time_fold(&self, batch: &FactInput) -> Result<Duration> {
        let t = Instant::now();
        let (next, _) = self.0.fold_delta(batch)?;
        let spent = t.elapsed();
        std::hint::black_box(next.stored_cells());
        Ok(spent)
    }

    /// A cuboid read the way the durable store's `answer_with_policy` makes
    /// it on a cache miss: plan against the catalog, load, derive, enforce
    /// `suppress(3)`, project to a map.
    pub fn staged_read(&self, mask: u32, rec: &mut Recorder, tally: &mut Tally) -> Result<Cuboid> {
        let policy = Policy::Suppress3.build();
        rec.time(span::OP, |rec| {
            // [feeds: core.plan.planner.plan_us (re-plan after each publish)]
            let planned = rec.time(span::PLAN, |_| {
                let catalog = self.0.catalog();
                Planner::for_store(self.0.lattice().dim_count(), &catalog)
                    .with_policy(policy.clone())
                    .plan(&Plan::scan("cube").aggregate_mask(mask))
            })?;
            let set = planned
                .sets
                .first()
                .ok_or_else(|| Error::InvalidSchema("planner produced no grouping set".into()))?;
            let mut sets = vec![staged_set(&planned, set, &self.0, rec, tally)?];
            staged_enforce(&policy, &mut sets, rec, tally);
            let block = Arc::clone(&sets[0].cells);
            let cuboid = rec.time(span::PROJECT, |_| {
                let mut cuboid: Cuboid = HashMap::with_capacity(block.len());
                for i in 0..block.len() {
                    if !block.is_suppressed(i) {
                        cuboid.insert(block.key(i).to_vec().into_boxed_slice(), block.state(0, i));
                    }
                }
                cuboid
            });
            tally.rows_out += cuboid.len() as u64;
            Ok(cuboid)
        })
    }

    pub fn sealed_bytes(&self) -> u64 {
        sealed_bytes(self.0.page_store())
    }

    pub fn pages_read(&self) -> u64 {
        self.0.page_store().io().pages_read()
    }

    pub fn read_every_file(&self) -> Result<(u64, Duration)> {
        read_every_file(self.0.page_store())
    }
}

/// A journal nothing recovers from: the staged write path appends to it so
/// `storage.wal.append_us` is timed without double-journaling the real one.
#[derive(Default)]
pub struct ScratchJournal(DeltaJournal);

impl ScratchJournal {
    pub fn new() -> Self {
        Self::default()
    }
}
