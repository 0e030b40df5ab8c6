//! The concurrent serving layer: epoch-published [`ViewStore`] snapshots,
//! fronted by the cost-aware [`AnswerCache`], shared across reader threads
//! by cheap clone.
//!
//! [`ViewStore`] turned the lattice into a *query* path; this module turns
//! it into a *serving* path. A [`SharedViewStore`] is `Clone + Send +
//! Sync`: hand one clone per reader thread and every `answer`/`answer_cell`
//! call pins a [`StoreSnapshot`] — an `Arc` to the currently published
//! store, cloned out under a read lock held only for the clone itself —
//! and runs entirely on that snapshot: cache first, then (on a miss) the
//! verified page-store path, admitting the result for the next caller.
//!
//! **Writers never block readers.** [`SharedViewStore::apply_delta`] folds
//! the batch into a *successor* store off-lock ([`ViewStore::fold_delta`]:
//! one base aggregation, propagated down the lattice by the AggState
//! monoid) while readers keep serving the current snapshot, then publishes
//! with one pointer swap under the write lock — the "short epoch bump".
//! Readers mid-query keep their pinned snapshot; the store they see is
//! always entirely before or entirely after a maintenance batch, never
//! half-applied. Afterwards only cache entries whose (cuboid, cell)
//! intersects the batch's touched keys drop
//! ([`AnswerCache::invalidate_delta`]); the rest — provided their epoch
//! shows they came from the snapshot the fold consumed, not a reader racing
//! in from an even older one — are re-pinned and keep hitting.
//!
//! Consistency with the fault model:
//!
//! * **degraded answers are never cached** — a lattice-fallback detour is
//!   served but not admitted, so the detour is retried (and the preferred
//!   source used again) as soon as the store heals;
//! * **cache entries pin their source's epoch** — any mutation of a sealed
//!   view (delta reseal, corruption, a persisted injected fault) moves the
//!   file's epoch and orphans dependent entries at the next probe. A
//!   successor store's epochs *continue* its predecessor's sequence, so an
//!   entry admitted by a reader still on the old snapshot can never
//!   falsely match the new store;
//! * **scrub failures evict eagerly** — [`SharedViewStore::scrub`] maps
//!   failing files back to view masks and drops dependent entries at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use statcube_core::error::{Error, Result};
use statcube_core::measure::AggState;
use statcube_core::plan::{CellBlock, PlanSource, PlannerConfig, PrivacyPolicy, SourceBlock};
use statcube_core::trace;
use statcube_storage::page_store::{FaultPlan, FaultStats};
use statcube_storage::verify::ScrubReport;
use statcube_storage::wal::{
    CrashInjector, CrashPoint, DeltaJournal, Manifest, ManifestCell, RecordKind,
};

use crate::cache::{
    block_bytes, cuboid_bytes, AnswerCache, CacheConfig, CacheKey, CacheStats, CachedValue,
    CELL_BYTES,
};
use crate::cube_op::Degradation;
use crate::durable::{self, RecoveryReport};
use crate::groupby::Cuboid;
use crate::input::FactInput;
use crate::query::{mask_of_view_file, DeltaReport, ViewStore};

/// A cuboid answer from the serving path. On a cache hit the cuboid is the
/// shared resident copy and `cells_scanned` is 0 — nothing was scanned.
#[derive(Debug)]
pub struct SharedAnswer {
    /// The cells of the requested cuboid (shared, do not mutate).
    pub cuboid: Arc<Cuboid>,
    /// The materialized view the answer was (originally) derived from.
    pub source: u32,
    /// Cells scanned to produce this answer; 0 on a cache hit.
    pub cells_scanned: u64,
    /// Whether the answer came from the cache.
    pub cache_hit: bool,
    /// Present when the store had to detour around failed sources; such
    /// answers are never admitted to the cache.
    pub degraded: Option<Degradation>,
}

/// A point/slice answer: one cell's aggregate state (`None` when the cell
/// is empty — itself a cacheable answer).
#[derive(Debug, Clone, Copy)]
pub struct CellAnswer {
    /// The cell's aggregate state, if the cell is populated.
    pub state: Option<AggState>,
    /// Whether the answer came from the cache.
    pub cache_hit: bool,
    /// Whether the backing cuboid answer was degraded (not cached if so).
    pub degraded: bool,
}

/// The simulated durable devices of one durable store: the write-ahead
/// delta journal, the commit-point manifest, and the crash injector that
/// can kill the writer between any two protocol steps.
///
/// The parts are `Arc`-shared handles — clone them out before "killing the
/// process" (dropping the [`SharedViewStore`]) and hand them to
/// [`SharedViewStore::recover`], exactly as a restarted process re-opens
/// the journal and manifest files its predecessor left on disk.
#[derive(Debug, Clone, Default)]
pub struct DurableParts {
    journal: Arc<DeltaJournal>,
    manifest: Arc<ManifestCell>,
    crash: Arc<CrashInjector>,
}

impl DurableParts {
    /// Fresh, empty devices (a new database directory).
    pub fn new() -> Self {
        Self::default()
    }

    /// Devices over an existing journal image (what recovery found on
    /// "disk"); the manifest starts empty — recovery falls back to a full
    /// journal scan.
    pub fn from_journal_image(bytes: Vec<u8>) -> Self {
        Self { journal: Arc::new(DeltaJournal::from_bytes(bytes)), ..Self::default() }
    }

    /// The write-ahead delta journal.
    pub fn journal(&self) -> &DeltaJournal {
        &self.journal
    }

    /// The atomically-swapped commit-point manifest.
    pub fn manifest(&self) -> &ManifestCell {
        &self.manifest
    }

    /// The kill-point injector ([`CrashPoint`]); arming one makes the next
    /// write path panic at that step, exactly once.
    pub fn crash(&self) -> &CrashInjector {
        &self.crash
    }
}

/// Holds the writer mutex and *heals* it on the way out: if the fold
/// panics (an injected crash, or a genuine bug) the guard's drop during
/// unwind poisons the mutex, and without clearing it every future writer
/// would find the lock poisoned forever. The lock guards no data — it only
/// serializes writers — so clearing the poison is sound: the published
/// snapshot is untouched by a failed fold (publication is the last step).
struct WriterLease<'a> {
    lock: &'a Mutex<()>,
    guard: Option<MutexGuard<'a, ()>>,
}

impl<'a> WriterLease<'a> {
    fn acquire(lock: &'a Mutex<()>) -> Self {
        let guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        Self { lock, guard: Some(guard) }
    }
}

impl Drop for WriterLease<'_> {
    fn drop(&mut self) {
        // Drop the inner guard first (this is what poisons the mutex when
        // unwinding), then clear the poison it may have just set.
        self.guard.take();
        self.lock.clear_poison();
    }
}

#[derive(Debug)]
struct Inner {
    /// The published store. Readers clone the `Arc` out (the read lock is
    /// held for the clone only) and run whole queries on the pinned
    /// snapshot; a writer swaps in a successor under the write lock.
    current: RwLock<Arc<ViewStore>>,
    /// Publication counter, bumped inside the write lock so a snapshot's
    /// `(store, generation)` pair is always consistent.
    generation: AtomicU64,
    /// Serializes writers (delta folds, rebuilds). Readers never touch it.
    writer: Mutex<()>,
    cache: AnswerCache,
    /// The durable devices, when this store was built with
    /// [`SharedViewStore::build_durable`] / recovered. `None` keeps the
    /// purely in-memory PR 6 behavior.
    durability: Option<DurableParts>,
}

/// A pinned, immutable view of the store at one publication generation,
/// from [`SharedViewStore::snapshot`]. Holding one blocks nothing: a
/// concurrent delta publishes a *successor* store and this snapshot simply
/// keeps answering from the generation it pinned.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    store: Arc<ViewStore>,
    generation: u64,
}

impl StoreSnapshot {
    /// The publication generation this snapshot pinned (0 before any
    /// delta/rebuild has published).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pinned store, with the full read-only [`ViewStore`] API.
    pub fn store(&self) -> &ViewStore {
        &self.store
    }
}

/// A sealed view store shared across reader threads, fronted by the
/// cost-aware answer cache. Clones are cheap (`Arc`) and all address the
/// same store and cache.
#[derive(Debug, Clone)]
pub struct SharedViewStore {
    inner: Arc<Inner>,
}

impl SharedViewStore {
    /// Wraps an already built [`ViewStore`] with a cache sized by `config`.
    pub fn new(store: ViewStore, config: CacheConfig) -> Self {
        Self::assemble(store, config, None)
    }

    fn assemble(store: ViewStore, config: CacheConfig, durability: Option<DurableParts>) -> Self {
        Self {
            inner: Arc::new(Inner {
                current: RwLock::new(Arc::new(store)),
                generation: AtomicU64::new(0),
                writer: Mutex::new(()),
                cache: AnswerCache::new(config),
                durability,
            }),
        }
    }

    /// Materializes `selected` (plus the base cuboid) from `input` and
    /// wraps the sealed store; see [`ViewStore::build`].
    pub fn build(input: &FactInput, selected: &[u32], config: CacheConfig) -> Result<Self> {
        Ok(Self::new(ViewStore::build(input, selected)?, config))
    }

    /// [`SharedViewStore::build`] with the crash-consistent durability
    /// layer underneath: fresh devices are created, the built store is
    /// written to the journal as the initial snapshot record, and the
    /// manifest's commit point is installed. Every later
    /// [`SharedViewStore::apply_delta`] journals the batch before folding
    /// it; [`SharedViewStore::recover`] rebuilds the store after a crash.
    pub fn build_durable(input: &FactInput, selected: &[u32], config: CacheConfig) -> Result<Self> {
        Self::build_durable_on(input, selected, config, DurableParts::new())
    }

    /// [`SharedViewStore::build_durable`] over caller-supplied devices
    /// (tests keep the parts to simulate process death and recovery).
    pub fn build_durable_on(
        input: &FactInput,
        selected: &[u32],
        config: CacheConfig,
        parts: DurableParts,
    ) -> Result<Self> {
        let store = ViewStore::build(input, selected)?;
        Self::write_snapshot_record(&parts, &store, 0)?;
        Ok(Self::assemble(store, config, Some(parts)))
    }

    /// Rebuilds a durable store from the journal + manifest a dead process
    /// left behind: restart from the newest intact snapshot, replay the
    /// intact journal tail through the ordinary fold path (idempotent via
    /// record sequence numbers), truncate the torn tail, and resume over
    /// the same devices. See [`crate::durable::recover_replay`] for the
    /// state machine and [`RecoveryReport`] for what happened.
    pub fn recover(parts: &DurableParts, config: CacheConfig) -> Result<(Self, RecoveryReport)> {
        let (store, report) = durable::recover_replay(parts.journal(), parts.manifest())?;
        Ok((Self::assemble(store, config, Some(parts.clone())), report))
    }

    /// The durable devices, when this store has them (`Arc`-shared handles;
    /// cloning is how a test keeps the "disk" across a simulated crash).
    pub fn durable_parts(&self) -> Option<DurableParts> {
        self.inner.durability.clone()
    }

    /// Appends a fresh snapshot record of the currently published store and
    /// moves the manifest's commit point past it, so recovery replays from
    /// here instead of the journal's origin. Errors when the store has no
    /// durability layer.
    pub fn checkpoint(&self) -> Result<()> {
        let _writer = WriterLease::acquire(&self.inner.writer);
        let d = self
            .inner
            .durability
            .as_ref()
            .ok_or_else(|| Error::InvalidSchema("store has no durability layer".into()))?;
        let snap = self.snapshot();
        Self::write_snapshot_record(d, snap.store(), snap.generation())
    }

    fn write_snapshot_record(
        parts: &DurableParts,
        store: &ViewStore,
        generation: u64,
    ) -> Result<()> {
        let payload = durable::encode_snapshot(store);
        let info = parts.journal.append(RecordKind::Snapshot, generation, &payload)?;
        parts.manifest.install(&Manifest {
            snapshot_epoch: generation,
            snapshot_offset: info.offset,
            committed_seq: info.seq,
            committed_offset: info.end_offset,
        });
        Ok(())
    }

    /// Pins the currently published store. The read lock is held only for
    /// the `Arc` clone — microseconds — so readers never wait on a fold in
    /// progress, and holding the snapshot never blocks the next publish.
    pub fn snapshot(&self) -> StoreSnapshot {
        // The lock guards a plain pointer; recover poison rather than
        // spread it.
        let guard = self.inner.current.read().unwrap_or_else(|p| p.into_inner());
        let store = Arc::clone(&guard);
        // Read inside the lock: the writer bumps it while holding the write
        // lock, so (store, generation) is consistent here.
        let generation = self.inner.generation.load(Ordering::Acquire);
        StoreSnapshot { store, generation }
    }

    /// How many maintenance publications (delta folds, rebuilds) have
    /// happened since construction.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    fn publish(&self, store: ViewStore) {
        let mut guard = self.inner.current.write().unwrap_or_else(|p| p.into_inner());
        *guard = Arc::new(store);
        self.inner.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Answers the query for cuboid `mask`: cache first, then the verified
    /// page-store path, admitting non-degraded results (cost-weighted; see
    /// [`crate::cache`]). Many threads may call this concurrently.
    pub fn answer(&self, mask: u32) -> Result<SharedAnswer> {
        let snap = self.snapshot();
        self.answer_on(snap.store(), mask, &PrivacyPolicy::none(), PlannerConfig::default())
    }

    /// [`SharedViewStore::answer`] under an explicit privacy policy and
    /// planner configuration. Cache entries are keyed by the policy's
    /// fingerprint, so an answer enforced under one policy can never be
    /// served to a query running under another — and the same mask cached
    /// under two policies yields two independent entries.
    pub fn answer_with_policy(
        &self,
        mask: u32,
        policy: &PrivacyPolicy,
        config: PlannerConfig,
    ) -> Result<SharedAnswer> {
        let snap = self.snapshot();
        self.answer_on(snap.store(), mask, policy, config)
    }

    fn answer_on(
        &self,
        store: &ViewStore,
        mask: u32,
        policy: &PrivacyPolicy,
        config: PlannerConfig,
    ) -> Result<SharedAnswer> {
        let mut sp = trace::span("cube.cache");
        sp.record("mask", mask as u64);
        let key = CacheKey::Cuboid(mask, policy.fingerprint());
        if let Some((CachedValue::Cuboid(cuboid), source)) =
            self.inner.cache.get(&key, |s| store.view_epoch(s))
        {
            sp.record("hit", 1);
            return Ok(SharedAnswer {
                cuboid,
                source,
                cells_scanned: 0,
                cache_hit: true,
                degraded: None,
            });
        }
        sp.record("hit", 0);
        let ans = store.answer_with_policy(mask, policy, config)?;
        let cuboid = Arc::new(ans.cuboid);
        match (&ans.degraded, store.view_epoch(ans.source)) {
            (None, Some(epoch)) => {
                // Cost = cells scanned × lattice distance travelled: what a
                // repeat derivation would pay, the HRU linear model's unit.
                let distance = u64::from(ans.source.count_ones() - mask.count_ones());
                let cost = ans.cells_scanned.saturating_mul(distance + 1).max(1);
                self.inner.cache.insert(
                    key,
                    CachedValue::Cuboid(Arc::clone(&cuboid)),
                    cuboid_bytes(&cuboid),
                    cost,
                    ans.source,
                    epoch,
                );
            }
            (Some(_), _) => self.inner.cache.note_degraded_skip(),
            (None, None) => {}
        }
        Ok(SharedAnswer {
            cuboid,
            source: ans.source,
            cells_scanned: ans.cells_scanned,
            cache_hit: false,
            degraded: ans.degraded,
        })
    }

    /// Answers a point/slice query: `pattern` has one entry per dimension,
    /// `Some(coord)` fixing a dimension and `None` aggregating it away (the
    /// [`crate::cube_op::CubeResult::get_all`] convention). The cell is
    /// served from the cell cache, the cached cuboid, or the store, in that
    /// order of preference.
    pub fn answer_cell(&self, pattern: &[Option<u32>]) -> Result<CellAnswer> {
        let snap = self.snapshot();
        let store = snap.store();
        let n = store.lattice().dim_count();
        if pattern.len() != n {
            return Err(Error::ArityMismatch { expected: n, got: pattern.len() });
        }
        let mask =
            pattern
                .iter()
                .enumerate()
                .fold(0u32, |m, (i, c)| if c.is_some() { m | (1 << i) } else { m });
        let coords: Box<[u32]> = pattern.iter().flatten().copied().collect();
        let mut sp = trace::span("cube.cache.cell");
        sp.record("mask", mask as u64);
        let key = CacheKey::Cell(mask, 0, coords.clone());
        if let Some((CachedValue::Cell(state), _)) =
            self.inner.cache.get(&key, |s| store.view_epoch(s))
        {
            sp.record("hit", 1);
            return Ok(CellAnswer { state, cache_hit: true, degraded: false });
        }
        sp.record("hit", 0);
        let ans = self.answer_on(store, mask, &PrivacyPolicy::none(), PlannerConfig::default())?;
        let state = ans.cuboid.get(&coords).copied();
        if ans.degraded.is_none() {
            if let Some(epoch) = store.view_epoch(ans.source) {
                // A cell from a resident cuboid is nearly free to rederive;
                // one computed through the store carries that scan cost.
                let cost = ans.cells_scanned.max(1);
                self.inner.cache.insert(
                    key,
                    CachedValue::Cell(state),
                    CELL_BYTES + coords.len() * 4,
                    cost,
                    ans.source,
                    epoch,
                );
            }
        } else {
            self.inner.cache.note_degraded_skip();
        }
        Ok(CellAnswer { state, cache_hit: false, degraded: ans.degraded.is_some() })
    }

    /// Applies an append batch **incrementally and without blocking
    /// readers**: the fold — one base aggregation, lattice propagation,
    /// epoch-continuous resealing — runs entirely off-lock on a pinned
    /// snapshot ([`ViewStore::fold_delta`]) while readers keep serving;
    /// publication is a single pointer swap under the write lock. Then only
    /// cache entries the batch touched are dropped; survivors whose epoch
    /// proves they were derived from the pre-fold snapshot are re-pinned to
    /// the resealed files' epochs and keep hitting (entries raced in from
    /// an older snapshot drop as stale — see
    /// [`AnswerCache::invalidate_delta`]). A batch that fails validation
    /// publishes nothing and drops nothing.
    ///
    /// **Durable stores** run the crash-consistent protocol around the same
    /// fold: validate (so a rejected batch never reaches the log), append
    /// the serialized batch to the write-ahead journal and sync it, fold,
    /// publish, then stamp a commit record and swap the manifest's commit
    /// point. A crash at *any* step — the armed [`CrashPoint`]s bracket all
    /// of them, and a torn journal append surfaces as a typed error with
    /// the batch unacknowledged — leaves a journal from which
    /// [`SharedViewStore::recover`] rebuilds bit-for-bit the pre-delta or
    /// post-delta store, never a hybrid: the batch is acknowledged only
    /// once it is durably replayable.
    pub fn apply_delta(&self, delta: &FactInput) -> Result<DeltaReport> {
        let _writer = WriterLease::acquire(&self.inner.writer);
        let snap = self.snapshot();
        let durable = self.inner.durability.as_ref();
        let mut appended = None;
        if let Some(d) = durable {
            d.crash.hit(CrashPoint::PreAppend);
            snap.store().validate_delta(delta)?;
            let payload = durable::encode_fact_input(delta);
            let info = d.journal.append(RecordKind::Delta, snap.generation() + 1, &payload)?;
            appended = Some(info);
            d.crash.hit(CrashPoint::PostAppend);
        }
        let folded = match durable {
            Some(d) => {
                snap.store().fold_delta_observed(delta, &mut || d.crash.hit(CrashPoint::MidSeal))
            }
            None => snap.store().fold_delta(delta),
        };
        let (next, report) = match folded {
            Ok(ok) => ok,
            Err(e) => {
                // The fold refused a batch that was already journaled
                // (validation covers every refusal in practice, so this is
                // belt-and-braces): rewind the log so recovery can never
                // replay a batch this store rejected.
                if let (Some(d), Some(info)) = (durable, appended) {
                    d.journal.truncate_image(info.offset);
                }
                return Err(e);
            }
        };
        if let Some(d) = durable {
            d.crash.hit(CrashPoint::PrePublish);
        }
        self.publish(next);
        let fresh = self.snapshot();
        self.inner.cache.invalidate_delta(
            &report.touched_base,
            |s| snap.store().view_epoch(s),
            |s| fresh.store().view_epoch(s),
        );
        if let (Some(d), Some(info)) = (durable, appended) {
            d.crash.hit(CrashPoint::PreCommitRecord);
            let end = d.journal.append(
                RecordKind::Commit,
                fresh.generation(),
                &info.seq.to_le_bytes(),
            )?;
            let prev = d.manifest.load().ok().flatten().unwrap_or_default();
            d.manifest.install(&Manifest {
                committed_seq: info.seq,
                committed_offset: end.end_offset,
                ..prev
            });
        }
        Ok(report)
    }

    /// Recomputes every materialized view from `facts` and swaps the result
    /// in wholesale, dropping the whole cache — the pre-incremental
    /// maintenance path, kept for full re-materializations.
    /// The successor's file epochs continue the current store's, so entries
    /// admitted by readers mid-swap can never falsely match it. On a durable
    /// store the rebuilt content is checkpointed — a fresh snapshot record
    /// and manifest — since no journaled delta could re-derive it.
    pub fn rebuild(&self, facts: &FactInput) -> Result<()> {
        let _writer = WriterLease::acquire(&self.inner.writer);
        let snap = self.snapshot();
        let next = ViewStore::build(facts, &snap.store().materialized())?;
        next.succeed(snap.store());
        self.publish(next);
        self.inner.cache.clear();
        if let Some(d) = self.inner.durability.as_ref() {
            let fresh = self.snapshot();
            Self::write_snapshot_record(d, fresh.store(), fresh.generation())?;
        }
        Ok(())
    }

    /// Chaos hook: corrupts view `mask`'s sealed file and eagerly evicts
    /// every cache entry derived from it (the epoch bump would catch them
    /// lazily; scrub/corrupt paths evict at once).
    pub fn corrupt_view(&self, mask: u32, bit: u64) -> Result<()> {
        self.snapshot().store().corrupt_view(mask, bit)?;
        self.inner.cache.invalidate_source(mask);
        Ok(())
    }

    /// Maintenance scrub: verifies every sealed page and evicts cache
    /// entries whose source view failed, so later probes re-derive (and
    /// detour) instead of serving results pinned to a corrupt file.
    pub fn scrub(&self) -> ScrubReport {
        let snap = self.snapshot();
        let report = snap.store().scrub();
        for failure in &report.failures {
            if let Some(mask) = mask_of_view_file(&failure.object) {
                self.inner.cache.invalidate_source(mask);
            }
        }
        report
    }

    /// [`SharedViewStore::scrub`], converted to a typed error on first
    /// failure (dependent cache entries are still evicted).
    pub fn verify_all(&self) -> Result<ScrubReport> {
        self.scrub().into_result()
    }

    /// Arms fault injection on the published store. A later delta fold
    /// transplants the armed injector (and its RNG position) into the
    /// successor, so the plan survives publications.
    pub fn arm_faults(&self, plan: FaultPlan) {
        self.snapshot().store().arm_faults(plan);
    }

    /// Disarms fault injection (persistent corruption, if any, remains).
    pub fn disarm_faults(&self) {
        self.snapshot().store().disarm_faults();
    }

    /// Fault counters accumulated by the published store (carried across
    /// publications by the transplant).
    pub fn fault_stats(&self) -> FaultStats {
        self.snapshot().store().fault_stats()
    }

    /// Cache counters plus current residency.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The materialized masks of the published store.
    pub fn materialized(&self) -> Vec<u32> {
        self.snapshot().store().materialized()
    }

    /// Dimension count of the published lattice.
    pub fn dim_count(&self) -> usize {
        self.snapshot().store().lattice().dim_count()
    }

    /// Top (base-cuboid) mask of the published lattice.
    pub fn top(&self) -> u32 {
        self.snapshot().store().lattice().top()
    }

    /// A [`PlanSource`] over this store for the shared executor: pins a
    /// snapshot for its lifetime (one consistent store per query — and no
    /// lock held, so a concurrent delta neither blocks it nor is blocked
    /// by it), loads through the verified pages, and fronts the answer
    /// cache with **pre-enforcement** entries under fingerprint 0. Raw
    /// entries are safe to share across policies because the executor's
    /// mandatory privacy pass runs *after* every probe — cached and freshly
    /// derived answers cross the same enforcement barrier.
    pub fn plan_source(&self) -> SharedPlanSource<'_> {
        SharedPlanSource { store: self.snapshot().store, cache: &self.inner.cache }
    }
}

/// See [`SharedViewStore::plan_source`].
pub struct SharedPlanSource<'a> {
    store: Arc<ViewStore>,
    cache: &'a AnswerCache,
}

impl SharedPlanSource<'_> {
    /// Dimension count of the locked store's lattice.
    pub fn dim_count(&self) -> usize {
        self.store.lattice().dim_count()
    }

    /// The locked store's materialized catalog (for
    /// [`statcube_core::plan::PlannedQuery::retarget`]).
    pub fn catalog(&self) -> Vec<statcube_core::plan::CatalogEntry> {
        self.store.catalog()
    }
}

impl PlanSource for SharedPlanSource<'_> {
    fn load(&self, source: u32) -> Result<SourceBlock> {
        PlanSource::load(&*self.store, source)
    }

    fn load_derived(
        &self,
        source: u32,
        target: u32,
        filters: &[(usize, Vec<u32>)],
    ) -> Option<Result<SourceBlock>> {
        // Delegate so cold sealed-page scans stream through the chunked
        // kernels here too, not just on the bare-store path.
        PlanSource::load_derived(&*self.store, source, target, filters)
    }

    fn probes(&self) -> bool {
        true
    }

    /// Probe for a derived target block. Block entries are shared by `Arc`,
    /// so a hit hands the executor the cached columnar block with no
    /// per-cell conversion at all — the enforcement pass copies on write
    /// only if the policy actually suppresses something.
    fn probe(&self, target: u32) -> Option<(Arc<CellBlock>, u32)> {
        let key = CacheKey::Block(target);
        match self.cache.get(&key, |s| self.store.view_epoch(s)) {
            Some((CachedValue::Block(block), source)) => Some((block, source)),
            _ => None,
        }
    }

    fn admit(
        &self,
        target: u32,
        source: u32,
        cells_scanned: u64,
        cells: &Arc<CellBlock>,
        degraded: bool,
    ) {
        if degraded {
            self.cache.note_degraded_skip();
            return;
        }
        let Some(epoch) = self.store.view_epoch(source) else { return };
        let distance = u64::from(source.count_ones().saturating_sub(target.count_ones()));
        let cost = cells_scanned.saturating_mul(distance + 1).max(1);
        let bytes = block_bytes(cells);
        self.cache.insert(
            CacheKey::Block(target),
            CachedValue::Block(Arc::clone(cells)),
            bytes,
            cost,
            source,
            epoch,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groupby;

    fn input() -> FactInput {
        let mut f = FactInput::new(&[8, 4, 2]).unwrap();
        let mut x = 7u64;
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.push(
                &[(x % 8) as u32, ((x >> 8) % 4) as u32, ((x >> 16) % 2) as u32],
                (x % 10) as f64,
            )
            .unwrap();
        }
        f
    }

    #[test]
    fn repeat_answers_hit_and_stay_exact() {
        let f = input();
        let store = SharedViewStore::build(&f, &[0b011], CacheConfig::default()).unwrap();
        for mask in 0..8u32 {
            let first = store.answer(mask).unwrap();
            assert!(!first.cache_hit);
            assert!(first.cells_scanned > 0);
            let second = store.answer(mask).unwrap();
            assert!(second.cache_hit, "mask {mask:03b} should hit");
            assert_eq!(second.cells_scanned, 0);
            assert_eq!(second.source, first.source);
            assert_eq!(*second.cuboid, groupby::from_facts(&f, mask), "mask {mask:03b}");
        }
        let s = store.cache_stats();
        assert_eq!(s.hits, 8);
        assert_eq!(s.misses, 8);
        assert_eq!(s.insertions, 8);
    }

    #[test]
    fn cell_answers_cache_and_match_cuboids() {
        let f = input();
        let store = SharedViewStore::build(&f, &[], CacheConfig::default()).unwrap();
        let cell = store.answer_cell(&[Some(2), None, None]).unwrap();
        assert!(!cell.cache_hit);
        let again = store.answer_cell(&[Some(2), None, None]).unwrap();
        assert!(again.cache_hit);
        let direct = groupby::from_facts(&f, 0b001);
        let key: Box<[u32]> = vec![2u32].into_boxed_slice();
        match (cell.state, direct.get(&key)) {
            (Some(a), Some(b)) => assert_eq!(a.sum.to_bits(), b.sum.to_bits()),
            (None, None) => {}
            other => panic!("cell/direct disagree: {other:?}"),
        }
        // An absent cell is a cacheable answer too.
        let empty = store.answer_cell(&[Some(7), Some(3), Some(1)]);
        if let Ok(ans) = empty {
            let again = store.answer_cell(&[Some(7), Some(3), Some(1)]).unwrap();
            assert_eq!(ans.state.is_none(), again.state.is_none());
        }
        // Wrong arity is a typed error.
        assert!(store.answer_cell(&[None, None]).is_err());
    }

    #[test]
    fn delta_invalidates_and_serves_fresh_totals() {
        let f = input();
        let store = SharedViewStore::build(&f, &[0b011], CacheConfig::default()).unwrap();
        let before = store.answer(0b000).unwrap();
        assert!(store.answer(0b000).unwrap().cache_hit);
        let mut delta = FactInput::new(f.cards()).unwrap();
        delta.push(&[1, 1, 1], 1000.0).unwrap();
        store.apply_delta(&delta).unwrap();
        let after = store.answer(0b000).unwrap();
        assert!(!after.cache_hit, "delta must invalidate the cached total");
        let key: Box<[u32]> = Vec::new().into_boxed_slice();
        let (a, b) = (before.cuboid[&key].sum, after.cuboid[&key].sum);
        assert!((b - a - 1000.0).abs() < 1e-9, "total must include the delta");
    }

    #[test]
    fn corruption_evicts_and_degraded_answers_are_not_cached() {
        let f = input();
        let store = SharedViewStore::build(&f, &[0b011], CacheConfig::default()).unwrap();
        // Prime the cache from the small view.
        let primed = store.answer(0b001).unwrap();
        assert_eq!(primed.source, 0b011);
        // Corrupt the view: the dependent entry is eagerly evicted.
        store.corrupt_view(0b011, 37).unwrap();
        let detour = store.answer(0b001).unwrap();
        assert!(!detour.cache_hit, "stale entry must not serve");
        assert_eq!(detour.source, 0b111);
        assert!(detour.degraded.is_some());
        assert_eq!(*detour.cuboid, groupby::from_facts(&f, 0b001), "detour stays exact");
        // The degraded answer was not admitted: the next probe recomputes.
        let again = store.answer(0b001).unwrap();
        assert!(!again.cache_hit);
        assert!(store.cache_stats().degraded_skips >= 2);
        // Healing (delta rewrite) restores the preferred source.
        store.apply_delta(&FactInput::new(f.cards()).unwrap()).unwrap();
        let healed = store.answer(0b001).unwrap();
        assert_eq!(healed.source, 0b011);
        assert!(healed.degraded.is_none());
        assert!(store.answer(0b001).unwrap().cache_hit, "healthy answers cache again");
    }

    #[test]
    fn scrub_maps_failures_back_to_cached_entries() {
        let f = input();
        let store = SharedViewStore::build(&f, &[0b011, 0b101], CacheConfig::default()).unwrap();
        for mask in 0..8u32 {
            store.answer(mask).unwrap();
        }
        let resident = store.cache_stats().entries;
        assert!(resident > 0);
        // Corrupt through the *inner* store so the shared layer only learns
        // about it from the scrub.
        store.snapshot().store().corrupt_view(0b011, 9).unwrap();
        let report = store.scrub();
        assert!(!report.is_clean());
        assert!(store.cache_stats().invalidations > 0, "scrub must evict dependents");
        // Entries derived from 0b011 are gone; the rest remain.
        assert!(store.cache_stats().entries < resident);
        assert!(store.verify_all().is_err());
    }

    #[test]
    fn cache_is_keyed_on_the_active_privacy_policy() {
        let f = input();
        let store = SharedViewStore::build(&f, &[0b011], CacheConfig::default()).unwrap();
        // Warm the cache under the permissive policy.
        let permissive = store.answer(0b011).unwrap();
        assert!(!permissive.cuboid.is_empty());
        assert!(store.answer(0b011).unwrap().cache_hit);
        // Every cell has 0 < count < 10_000, so this policy suppresses all
        // of them — a maximally visible policy difference.
        let strict = PrivacyPolicy::suppress(10_000);
        let first = store.answer_with_policy(0b011, &strict, PlannerConfig::default()).unwrap();
        assert!(
            !first.cache_hit,
            "the permissive entry must not serve a suppressing policy (the old bypass)"
        );
        assert!(first.cuboid.is_empty(), "all cells suppressed under k=10000");
        // The strict answer caches under its own fingerprint...
        let again = store.answer_with_policy(0b011, &strict, PlannerConfig::default()).unwrap();
        assert!(again.cache_hit);
        assert!(again.cuboid.is_empty(), "cached == uncached under the same policy");
        // ...and the permissive entry is still intact and unsuppressed.
        let back = store.answer(0b011).unwrap();
        assert!(back.cache_hit);
        assert_eq!(*back.cuboid, *permissive.cuboid);
    }

    #[test]
    fn eight_reader_threads_share_one_store() {
        let f = input();
        let store = SharedViewStore::build(&f, &[0b011, 0b110], CacheConfig::default()).unwrap();
        let oracle: Vec<Cuboid> = (0..8u32).map(|m| groupby::from_facts(&f, m)).collect();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let store = store.clone();
                let oracle = &oracle;
                s.spawn(move || {
                    for i in 0..64usize {
                        let mask = ((i + t) % 8) as u32;
                        let ans = store.answer(mask).unwrap();
                        assert_eq!(*ans.cuboid, oracle[mask as usize], "thread {t} mask {mask}");
                    }
                });
            }
        });
        let s = store.cache_stats();
        assert_eq!(s.hits + s.misses, 8 * 64);
        assert!(s.hits > 8 * 32, "most probes should hit a warm cache");
    }
}
