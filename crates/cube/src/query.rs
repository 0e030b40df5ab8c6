//! Answering group-by queries from a set of materialized views (§6.3),
//! with verification and degraded fallback.
//!
//! Once [`crate::materialize::greedy_select`] has chosen which
//! summarizations to pre-compute, a query for any cuboid is answered by
//! aggregating down from the **smallest materialized ancestor** — the
//! \[HUR96\] linear cost model, realized. [`ViewStore::answer`] reports the
//! cells scanned so experiments can verify the model.
//!
//! Every materialized view is sealed into a checksummed
//! [`PageStore`] file and **read back through it** on every query, so a
//! corrupted view (bit rot, torn write — injectable via
//! [`ViewStore::arm_faults`]) fails verification instead of yielding a
//! silently wrong aggregate. On failure the query is re-routed through the
//! lattice to the next-smallest *healthy* materialized ancestor — ultimately
//! the base cuboid — and the detour is recorded as a
//! [`Degradation`] in the [`Answer`]. Only when every
//! covering source (base included) is corrupt does the query return
//! [`Error::NoHealthySource`].

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use statcube_core::error::{Error, Result};
use statcube_core::measure::AggState;
use statcube_core::plan::{
    self, bit_positions, CatalogEntry, CellBlock, Plan, PlanSource, Planner, PlannerConfig,
    PrivacyPolicy, SourceBlock,
};
use statcube_core::trace::{self, QueryProfile};
use statcube_storage::chunks::group_merge_states_into;
use statcube_storage::page_store::{FaultPlan, FaultStats, PageStore};
use statcube_storage::verify::ScrubReport;

use crate::cube_op::{CubeResult, CuboidStats, Degradation, DerivationSource};
use crate::groupby::{self, Cuboid};
use crate::input::FactInput;
use crate::lattice::Lattice;

/// A set of materialized cuboids plus the lattice metadata to route
/// queries. Views live in a checksummed [`PageStore`]; queries deserialize
/// from verified pages only.
#[derive(Debug)]
pub struct ViewStore {
    lattice: Lattice,
    /// In-memory copies, used for sizing/routing and delta maintenance.
    views: HashMap<u32, Cuboid>,
    /// The checksummed paged backing every query actually reads.
    pages: PageStore,
    /// mask → file id in `pages`.
    files: HashMap<u32, usize>,
    /// Decoded columnar image of each sealed view, keyed by mask and pinned
    /// to the file epoch it was parsed at. Serves repeat loads without
    /// re-reading (or re-parsing) the pages — but **never** while a fault
    /// injector is armed, so every injected fault still exercises the
    /// checksummed I/O path, and never across an epoch bump (delta reseal,
    /// targeted corruption), which forces a verified re-read.
    decoded: RwLock<HashMap<u32, (u64, Arc<CellBlock>)>>,
    /// Masks whose sealed file was already served once by the chunked
    /// streaming scan at a given epoch (see
    /// [`PlanSource::load_derived`]): the first cold, non-identity read of
    /// a view streams its target straight off the sealed pages through the
    /// `storage::chunks` state kernels (no dense source block is ever
    /// built); the *second* cold read falls back to
    /// [`PlanSource::load`], which decodes once and warms [`Self::decoded`]
    /// — so steady-state repeat derivations keep their in-memory path.
    streamed: RwLock<HashMap<u32, u64>>,
}

/// What one incremental maintenance fold did (see
/// [`ViewStore::apply_delta`]). The serving layer uses `touched_base` to
/// invalidate only the cache entries the batch could have changed.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Fact rows in the batch.
    pub rows: u64,
    /// Distinct base-cuboid keys the batch touched, sorted. Projecting
    /// these onto any mask gives exactly the cells of that cuboid the
    /// batch changed.
    pub touched_base: Vec<Box<[u32]>>,
    /// Cells merged across all materialized views (the incremental work,
    /// versus a rebuild's full recomputation).
    pub cells_touched: u64,
}

/// The answer to a cuboid query, with its measured cost and (when the
/// preferred source failed verification) the degradation record.
#[derive(Debug)]
pub struct Answer {
    /// The cells of the requested cuboid.
    pub cuboid: Cuboid,
    /// The materialized view the answer was derived from.
    pub source: u32,
    /// Cells scanned in the source view (the \[HUR96\] cost).
    pub cells_scanned: u64,
    /// Present when one or more preferred sources failed verification and
    /// the answer was recomputed from a healthy ancestor.
    pub degraded: Option<Degradation>,
    /// The `EXPLAIN ANALYZE`-style span tree of this answer (storage reads,
    /// retries, fallback provenance). Present only when
    /// [`trace`] was enabled and this query was the calling thread's
    /// outermost traced unit of work.
    pub profile: Option<QueryProfile>,
}

/// Deterministic serialization of a cuboid: row count, key width, then
/// key-sorted `(key, sum, count, min, max)` tuples. Shared with the
/// durability layer, whose snapshot records embed one serialized cuboid per
/// materialized view.
///
/// `key_width` is the view's own key width (the popcount of its mask) and is
/// what an empty cuboid seals with — a sealed empty view must still declare
/// the width its mask implies, or a cross-store merge of its block against a
/// populated sibling would mix widths.
pub(crate) fn serialize_cuboid(cuboid: &Cuboid, key_width: usize) -> Vec<u8> {
    let key_len = cuboid.keys().next().map_or(key_width, |k| k.len());
    let mut rows: Vec<_> = cuboid.iter().collect();
    rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut out = Vec::with_capacity(16 + rows.len() * (key_len * 4 + 32));
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    out.extend_from_slice(&(key_len as u64).to_le_bytes());
    for (key, state) in rows {
        for &k in key.iter() {
            out.extend_from_slice(&k.to_le_bytes());
        }
        out.extend_from_slice(&state.sum.to_bits().to_le_bytes());
        out.extend_from_slice(&state.count.to_le_bytes());
        out.extend_from_slice(&state.min.to_bits().to_le_bytes());
        out.extend_from_slice(&state.max.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`serialize_cuboid`]. Checksums catch corruption before this
/// runs, so a malformed buffer indicates a logic error — still reported as
/// a typed error, never a panic.
pub(crate) fn deserialize_cuboid(bytes: &[u8], object: &str) -> Result<Cuboid> {
    let malformed = || Error::InvalidSchema(format!("malformed cuboid file `{object}`"));
    let take8 = |b: &[u8], at: usize| -> Result<[u8; 8]> {
        b.get(at..at + 8).and_then(|s| s.try_into().ok()).ok_or_else(malformed)
    };
    let take4 = |b: &[u8], at: usize| -> Result<[u8; 4]> {
        b.get(at..at + 4).and_then(|s| s.try_into().ok()).ok_or_else(malformed)
    };
    let n_rows = u64::from_le_bytes(take8(bytes, 0)?) as usize;
    let key_len = u64::from_le_bytes(take8(bytes, 8)?) as usize;
    // Checked arithmetic throughout: the durability layer feeds this decoder
    // with journal payloads, so declared counts are untrusted and must not
    // be able to overflow (or over-allocate) before the length check.
    let row_bytes = (key_len as u64).checked_mul(4).and_then(|b| b.checked_add(32));
    let expected =
        row_bytes.and_then(|rb| (n_rows as u64).checked_mul(rb)).and_then(|b| b.checked_add(16));
    if expected != Some(bytes.len() as u64) {
        return Err(malformed());
    }
    let mut cuboid: Cuboid = HashMap::with_capacity(n_rows);
    let mut at = 16;
    for _ in 0..n_rows {
        let mut key = Vec::with_capacity(key_len);
        for _ in 0..key_len {
            key.push(u32::from_le_bytes(take4(bytes, at)?));
            at += 4;
        }
        let sum = f64::from_bits(u64::from_le_bytes(take8(bytes, at)?));
        let count = u64::from_le_bytes(take8(bytes, at + 8)?);
        let min = f64::from_bits(u64::from_le_bytes(take8(bytes, at + 16)?));
        let max = f64::from_bits(u64::from_le_bytes(take8(bytes, at + 24)?));
        at += 32;
        cuboid.insert(key.into_boxed_slice(), AggState { sum, count, min, max });
    }
    Ok(cuboid)
}

/// Parses a sealed view file straight into the executor's columnar
/// [`CellBlock`] (one measure per row), skipping the intermediate
/// [`Cuboid`] hash map entirely. The sealed format is key-sorted, so rows
/// land in block order; the trailing [`CellBlock::sort_rows`] is a no-op
/// sortedness check that keeps a malformed-but-checksummed buffer from
/// breaking the block's binary-search invariant.
pub(crate) fn block_from_cuboid_bytes(bytes: &[u8], object: &str) -> Result<CellBlock> {
    let malformed = || Error::InvalidSchema(format!("malformed cuboid file `{object}`"));
    let take8 = |b: &[u8], at: usize| -> Result<[u8; 8]> {
        b.get(at..at + 8).and_then(|s| s.try_into().ok()).ok_or_else(malformed)
    };
    let take4 = |b: &[u8], at: usize| -> Result<[u8; 4]> {
        b.get(at..at + 4).and_then(|s| s.try_into().ok()).ok_or_else(malformed)
    };
    let n_rows = u64::from_le_bytes(take8(bytes, 0)?) as usize;
    let key_len = u64::from_le_bytes(take8(bytes, 8)?) as usize;
    let row_bytes = (key_len as u64).checked_mul(4).and_then(|b| b.checked_add(32));
    let expected =
        row_bytes.and_then(|rb| (n_rows as u64).checked_mul(rb)).and_then(|b| b.checked_add(16));
    if expected != Some(bytes.len() as u64) {
        return Err(malformed());
    }
    let mut block = CellBlock::new(key_len, 1);
    let mut key = vec![0u32; key_len];
    let mut at = 16;
    for _ in 0..n_rows {
        for k in key.iter_mut() {
            *k = u32::from_le_bytes(take4(bytes, at)?);
            at += 4;
        }
        let sum = f64::from_bits(u64::from_le_bytes(take8(bytes, at)?));
        let count = u64::from_le_bytes(take8(bytes, at + 8)?);
        let min = f64::from_bits(u64::from_le_bytes(take8(bytes, at + 16)?));
        let max = f64::from_bits(u64::from_le_bytes(take8(bytes, at + 24)?));
        at += 32;
        block.push_row(&key, &[AggState { sum, count, min, max }], false);
    }
    block.sort_rows();
    Ok(block)
}

fn view_file_name(mask: u32) -> String {
    format!("cuboid:{mask:#b}")
}

/// Inverse of [`view_file_name`]: the mask a sealed view file refers to.
/// Used by the serving layer to map scrub failures back to cached entries.
pub(crate) fn mask_of_view_file(name: &str) -> Option<u32> {
    u32::from_str_radix(name.strip_prefix("cuboid:0b")?, 2).ok()
}

/// Seals every view into a fresh [`PageStore`], one checksummed file per
/// mask (in sorted order, so file ids are deterministic).
fn seal_views(views: &HashMap<u32, Cuboid>) -> (PageStore, HashMap<u32, usize>) {
    let pages = PageStore::default();
    let mut masks: Vec<u32> = views.keys().copied().collect();
    masks.sort_unstable();
    let mut files = HashMap::with_capacity(masks.len());
    for mask in masks {
        let bytes = serialize_cuboid(&views[&mask], mask.count_ones() as usize);
        files.insert(mask, pages.create(&view_file_name(mask), &bytes));
    }
    (pages, files)
}

impl ViewStore {
    /// Materializes the selected masks (plus, always, the base cuboid) by
    /// computing them from the facts, sealing each into the page store.
    pub fn build(input: &FactInput, selected: &[u32]) -> Result<Self> {
        let lattice = Lattice::new(input.cards(), input.len() as u64)?;
        let top = lattice.top();
        let mut views = HashMap::new();
        views.insert(top, groupby::from_facts(input, top));
        for &mask in selected {
            if mask > top {
                return Err(Error::InvalidSchema(format!("mask {mask:b} out of range")));
            }
            views.entry(mask).or_insert_with(|| groupby::from_facts(input, mask));
        }
        // Refresh the lattice with measured sizes for accurate routing.
        let measured: Vec<(u32, u64)> = views.iter().map(|(&m, c)| (m, c.len() as u64)).collect();
        let lattice = lattice.with_measured_sizes(&measured);
        let (pages, files) = seal_views(&views);
        Ok(Self {
            lattice,
            views,
            pages,
            files,
            decoded: RwLock::default(),
            streamed: RwLock::default(),
        })
    }

    /// Materializes views out of an already computed [`CubeResult`].
    pub fn from_cube(cube: &CubeResult, cards: &[usize], selected: &[u32]) -> Result<Self> {
        let lattice = Lattice::new(cards, u64::MAX)?;
        let top = lattice.top();
        let mut views = HashMap::new();
        for &mask in selected.iter().chain(std::iter::once(&top)) {
            let cuboid = cube
                .cuboid(mask)
                .ok_or_else(|| Error::InvalidSchema(format!("cube lacks mask {mask:b}")))?;
            views.insert(mask, cuboid.clone());
        }
        let measured: Vec<(u32, u64)> = views.iter().map(|(&m, c)| (m, c.len() as u64)).collect();
        let (pages, files) = seal_views(&views);
        Ok(Self {
            lattice: lattice.with_measured_sizes(&measured),
            views,
            pages,
            files,
            decoded: RwLock::default(),
            streamed: RwLock::default(),
        })
    }

    /// Rebuilds a store directly from already-materialized views — the
    /// recovery path: a durable snapshot record carries `cards`, the base
    /// row count, and every sealed view's cells, and this reconstitutes the
    /// exact store they were captured from (same lattice, same measured
    /// sizes, fresh seals). The base cuboid (`top` mask) must be among
    /// `views`.
    pub fn from_views(
        cards: &[usize],
        base_rows: u64,
        views: HashMap<u32, Cuboid>,
    ) -> Result<Self> {
        let lattice = Lattice::new(cards, base_rows)?;
        let top = lattice.top();
        if !views.contains_key(&top) {
            return Err(Error::InvalidSchema("snapshot lacks the base cuboid".into()));
        }
        if let Some(&mask) = views.keys().find(|&&m| m > top) {
            return Err(Error::InvalidSchema(format!("mask {mask:b} out of range")));
        }
        let measured: Vec<(u32, u64)> = views.iter().map(|(&m, c)| (m, c.len() as u64)).collect();
        let lattice = lattice.with_measured_sizes(&measured);
        let (pages, files) = seal_views(&views);
        Ok(Self {
            lattice,
            views,
            pages,
            files,
            decoded: RwLock::default(),
            streamed: RwLock::default(),
        })
    }

    /// The routing lattice (dimension count, sizes, derivability).
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The page-store invalidation epoch of materialized view `mask`
    /// (`None` when the mask is not materialized). The epoch moves on every
    /// mutation of the sealed file — delta rewrite, targeted corruption, a
    /// persisted injected fault — so cached derivations can detect
    /// staleness; see
    /// [`PageStore::file_epoch`].
    pub fn view_epoch(&self, mask: u32) -> Option<u64> {
        self.files.get(&mask).map(|&id| self.pages.file_epoch(id))
    }

    /// The materialized masks.
    pub fn materialized(&self) -> Vec<u32> {
        let mut m: Vec<u32> = self.views.keys().copied().collect();
        m.sort_unstable();
        m
    }

    /// Total cells stored.
    pub fn stored_cells(&self) -> u64 {
        self.views.values().map(|c| c.len() as u64).sum()
    }

    /// Incrementally maintains the materialized views against an append
    /// batch (§6.5: "it is very common to append to the data cube over
    /// time … daily appends"): builds the successor store with
    /// [`ViewStore::fold_delta`] and swaps it in. A rejected batch returns
    /// before the swap, so it provably mutates nothing.
    pub fn apply_delta(&mut self, delta: &FactInput) -> Result<DeltaReport> {
        let (next, report) = self.fold_delta(delta)?;
        *self = next;
        Ok(report)
    }

    /// The incremental maintenance fold: aggregates the batch **once** at
    /// the base cuboid, propagates that partial down the lattice to every
    /// materialized descendant (each derived from its smallest
    /// already-derived ancestor partial — the AggState monoid makes
    /// `view ⊕ partial` equal a rebuild), and seals the result into a fresh
    /// page store whose file epochs continue this store's sequence. `self`'s
    /// views, lattice, and sealed bytes are not mutated; the caller
    /// publishes the returned successor.
    ///
    /// **Runtime side effect:** sealing the successor *moves* `self`'s
    /// armed fault injector (RNG position included) and fault counters into
    /// it ([`PageStore::transplant_runtime_from`]), disarming `self` — so a
    /// chaos plan armed before the fold injects into the successor's very
    /// first seals, which is what the delta-publication atomicity property
    /// exercises. A caller that drops the returned store without publishing
    /// it loses the armed plan, and readers still on `self` stop seeing
    /// injected faults once the fold begins.
    ///
    /// Cost: the aggregation work is O(delta × materialized masks), but
    /// every view is cloned and resealed, so the per-batch floor is
    /// O(total store size). This is not incidental: any non-empty batch
    /// projects onto *every* materialized mask (a projection of a non-empty
    /// key set is non-empty), so no view's content survives unchanged, and
    /// the empty-batch full reseal is the documented heal path. Per-view
    /// copy-on-write would only ever help batches that change nothing; see
    /// ROADMAP for the partial-reseal idea that could lift the floor.
    ///
    /// Validation is fully up-front — arity, finite measures (a NaN measure
    /// would silently poison every aggregate), and the grown lattice — so a
    /// rejected batch cannot leave a half-applied store behind.
    ///
    /// A batch may carry coordinates beyond the store's current
    /// cardinalities (declared via the delta's own `cards`): the lattice
    /// grows to the element-wise maximum.
    pub fn fold_delta(&self, delta: &FactInput) -> Result<(ViewStore, DeltaReport)> {
        self.fold_delta_observed(delta, &mut || {})
    }

    /// Everything [`ViewStore::fold_delta`] rejects, checked without
    /// mutating or building anything: arity, finite measures, and a
    /// constructible grown lattice. The durable write path runs this
    /// *before* journaling the batch, so a batch the fold would refuse is
    /// never written to the log (replaying it would refuse it again — a
    /// wedged journal).
    pub fn validate_delta(&self, delta: &FactInput) -> Result<()> {
        if delta.dim_count() != self.lattice.dim_count() {
            return Err(Error::ArityMismatch {
                expected: self.lattice.dim_count(),
                got: delta.dim_count(),
            });
        }
        if let Some(row) = delta.measure().iter().position(|m| !m.is_finite()) {
            return Err(Error::InvalidSchema(format!("delta row {row} has a non-finite measure")));
        }
        let new_cards: Vec<usize> =
            self.lattice.cards().iter().zip(delta.cards()).map(|(&a, &b)| a.max(b)).collect();
        Lattice::new(&new_cards, self.lattice.base_rows().saturating_add(delta.len() as u64))?;
        Ok(())
    }

    /// [`ViewStore::fold_delta`] with seal-progress observation:
    /// `on_view_sealed` runs after each successor view file is sealed. The
    /// crash-injection harness uses it to kill the writer *mid-seal* — one
    /// view written, the rest absent, nothing published — the state the
    /// recovery chaos suite proves invisible after replay.
    pub fn fold_delta_observed(
        &self,
        delta: &FactInput,
        on_view_sealed: &mut dyn FnMut(),
    ) -> Result<(ViewStore, DeltaReport)> {
        self.validate_delta(delta)?;
        let new_cards: Vec<usize> =
            self.lattice.cards().iter().zip(delta.cards()).map(|(&a, &b)| a.max(b)).collect();
        let lattice =
            Lattice::new(&new_cards, self.lattice.base_rows().saturating_add(delta.len() as u64))?;
        let top = lattice.top();

        // One aggregation of the batch, at the base; every coarser partial
        // is derived from the smallest partial already computed, never from
        // the facts again.
        let delta_base = groupby::from_facts(delta, top);
        let mut touched_base: Vec<Box<[u32]>> = delta_base.keys().cloned().collect();
        touched_base.sort_unstable();
        let mut order: Vec<u32> = self.views.keys().copied().collect();
        order.sort_unstable_by_key(|m| std::cmp::Reverse(m.count_ones()));
        let mut partials: HashMap<u32, Cuboid> = HashMap::with_capacity(order.len() + 1);
        partials.insert(top, delta_base);
        for &mask in &order {
            if partials.contains_key(&mask) {
                continue;
            }
            let ancestor = partials
                .iter()
                .filter(|&(&a, _)| mask & !a == 0)
                .min_by_key(|&(_, c)| c.len())
                .map_or(top, |(&a, _)| a);
            let partial = groupby::from_parent(&partials[&ancestor], ancestor, mask);
            partials.insert(mask, partial);
        }

        let mut views = self.views.clone();
        let mut cells_touched = 0u64;
        for (mask, cuboid) in views.iter_mut() {
            if let Some(partial) = partials.remove(mask) {
                cells_touched += partial.len() as u64;
                for (key, state) in partial {
                    cuboid.entry(key).or_insert(AggState::EMPTY).merge(&state);
                }
            }
        }

        let measured: Vec<(u32, u64)> = views.iter().map(|(&m, c)| (m, c.len() as u64)).collect();
        let lattice = lattice.with_measured_sizes(&measured);
        let (pages, files) = self.seal_successor(&views, on_view_sealed);
        let report = DeltaReport { rows: delta.len() as u64, touched_base, cells_touched };
        let next = ViewStore {
            lattice,
            views,
            pages,
            files,
            decoded: RwLock::default(),
            streamed: RwLock::default(),
        };
        Ok((next, report))
    }

    /// Seals `views` into a fresh page store that *succeeds* this store's:
    /// the armed fault injector and counters move over first (so injected
    /// faults land on the successor's seals) and every file's epoch
    /// continues the predecessor's sequence (so cached derivations pinned
    /// pre-swap can never falsely match the successor).
    fn seal_successor(
        &self,
        views: &HashMap<u32, Cuboid>,
        on_view_sealed: &mut dyn FnMut(),
    ) -> (PageStore, HashMap<u32, usize>) {
        let pages = PageStore::new(self.pages.io().page_size()).with_retry(self.pages.retry());
        pages.transplant_runtime_from(&self.pages);
        let mut masks: Vec<u32> = views.keys().copied().collect();
        masks.sort_unstable();
        let mut files = HashMap::with_capacity(masks.len());
        for mask in masks {
            let bytes = serialize_cuboid(&views[&mask], mask.count_ones() as usize);
            let id = pages.create(&view_file_name(mask), &bytes);
            pages.set_epoch(id, self.view_epoch(mask).map_or(0, |e| e + 1));
            files.insert(mask, id);
            on_view_sealed();
        }
        (pages, files)
    }

    /// Carries the runtime identity of the store this one replaces
    /// wholesale: file epochs continue `old`'s sequence and the armed fault
    /// injector + counters move over. The serving layer's full `rebuild`
    /// path calls this before publishing; the incremental fold does the
    /// same inline (and earlier, so its seals see injected faults).
    pub fn succeed(&self, old: &ViewStore) {
        self.pages.transplant_runtime_from(old.page_store());
        for (&mask, &id) in &self.files {
            if let Some(epoch) = old.view_epoch(mask) {
                self.pages.set_epoch(id, epoch + 1);
            }
        }
    }

    /// The materialized cells of view `mask` (the in-memory copy the fold
    /// maintains), or `None` when the mask is not materialized. Exposed for
    /// differential maintenance tests and sizing.
    pub fn view(&self, mask: u32) -> Option<&Cuboid> {
        self.views.get(&mask)
    }

    /// The materialized catalog the planner's lattice pass routes against:
    /// one [`CatalogEntry`] per sealed view, masks ascending.
    pub fn catalog(&self) -> Vec<CatalogEntry> {
        let mut c: Vec<CatalogEntry> = self
            .views
            .iter()
            .map(|(&mask, cuboid)| CatalogEntry { mask, cells: cuboid.len() as u64 })
            .collect();
        c.sort_unstable_by_key(|e| e.mask);
        c
    }

    /// Answers the query for cuboid `mask` from the smallest materialized
    /// ancestor whose sealed pages verify.
    ///
    /// The query compiles to a summary-algebra [`Plan`] (a coded
    /// `Aggregate` over the store's catalog), runs through the shared
    /// planner — whose lattice pass orders candidates ascending by size,
    /// the \[HUR96\] cost heuristic — and executes on the one shared
    /// executor. A candidate that fails verification — checksum mismatch or
    /// retries exhausted — is recorded and the next-smallest ancestor is
    /// tried, down to the base cuboid. A successful answer after failures
    /// carries the [`Degradation`] record; if every candidate fails the
    /// query returns [`Error::NoHealthySource`].
    pub fn answer(&self, mask: u32) -> Result<Answer> {
        self.answer_with_policy(mask, &PrivacyPolicy::none(), PlannerConfig::default())
    }

    /// [`ViewStore::answer`] under an explicit privacy policy and planner
    /// configuration. Cells the policy suppresses are withheld from the
    /// returned cuboid entirely — the same verdicts the SQL front-ends
    /// publish as suppressed rows.
    pub fn answer_with_policy(
        &self,
        mask: u32,
        policy: &PrivacyPolicy,
        config: PlannerConfig,
    ) -> Result<Answer> {
        // Decide profile ownership before the executor opens its spans.
        let attach_profile = trace::is_enabled() && trace::at_root();
        let catalog = self.catalog();
        let planned = Planner::for_store(self.lattice.dim_count(), &catalog)
            .with_policy(policy.clone())
            .with_config(config)
            .plan(&Plan::scan("cube").aggregate_mask(mask))?;
        let exec = plan::execute(&planned, self)?;
        let sa = exec
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
        let profile = if attach_profile { Some(trace::take_profile()) } else { None };
        Ok(Answer { cuboid, source: sa.source, cells_scanned: sa.cells_scanned, degraded, profile })
    }

    /// Answers every cuboid of the lattice, assembling a [`CubeResult`]
    /// whose per-cuboid [`CuboidStats`] carry fallback provenance
    /// ([`DerivationSource::FallbackAncestor`]) and whose
    /// [`CubeResult::degradations`] list every degraded answer.
    ///
    /// Fails with the first unanswerable cuboid's typed error.
    pub fn answer_cube(&self) -> Result<CubeResult> {
        let mut sp = trace::span("cube.answer_cube");
        let attach_profile = sp.is_root();
        let n = self.lattice.dim_count();
        let mut cuboids = HashMap::with_capacity(1 << n);
        let mut stats = Vec::with_capacity(1 << n);
        let mut degradations = Vec::new();
        for mask in 0..=self.lattice.top() {
            let t = std::time::Instant::now();
            let ans = self.answer(mask)?;
            let source = match &ans.degraded {
                Some(d) => {
                    DerivationSource::FallbackAncestor { parent: ans.source, failed: d.failed[0].0 }
                }
                None => DerivationSource::Ancestor { parent: ans.source },
            };
            stats.push(CuboidStats {
                mask,
                rows_scanned: ans.cells_scanned,
                cells: ans.cuboid.len() as u64,
                wall: t.elapsed(),
                source,
            });
            if let Some(d) = ans.degraded {
                degradations.push(d);
            }
            cuboids.insert(mask, ans.cuboid);
        }
        let mut result = CubeResult::from_parts(n, cuboids, stats);
        for d in degradations {
            result.push_degradation(d);
        }
        if sp.is_recording() {
            sp.record("cuboids", (self.lattice.top() as u64) + 1);
            sp.record("cells", result.total_cells() as u64);
            drop(sp);
            if attach_profile {
                result.set_profile(trace::take_profile());
            }
        }
        Ok(result)
    }

    /// The checksummed page store backing the views (I/O + fault counters).
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Arms fault injection on the backing store with `plan`.
    pub fn arm_faults(&self, plan: FaultPlan) {
        self.pages.arm(plan);
    }

    /// Disarms fault injection (persistent corruption, if any, remains).
    pub fn disarm_faults(&self) {
        self.pages.disarm();
    }

    /// Fault counters accumulated by the backing store.
    pub fn fault_stats(&self) -> FaultStats {
        self.pages.stats()
    }

    /// Test/chaos hook: flips one stored bit of view `mask`'s sealed file
    /// (`bit` addresses the whole file and wraps). No-op on an empty file.
    /// The decoded and streamed caches for the view are dropped so the
    /// corruption is observable on the very next read — a "dead" view must
    /// not keep serving from a block decoded before the damage.
    pub fn corrupt_view(&self, mask: u32, bit: u64) -> Result<()> {
        let &file = self
            .files
            .get(&mask)
            .ok_or_else(|| Error::InvalidSchema(format!("mask {mask:b} not materialized")))?;
        self.decoded.write().unwrap_or_else(|p| p.into_inner()).remove(&mask);
        self.streamed.write().unwrap_or_else(|p| p.into_inner()).remove(&mask);
        let n_pages = self.pages.page_count(file);
        if n_pages == 0 {
            return Ok(());
        }
        let page_bits = self.pages.io().page_size() as u64 * 8;
        let page = (bit / page_bits.max(1)) % n_pages;
        self.pages.corrupt_bit(file, page, bit % page_bits.max(1));
        Ok(())
    }

    /// Maintenance scrub of every sealed view file (see
    /// [`PageStore::scrub`]).
    pub fn scrub(&self) -> ScrubReport {
        self.pages.scrub()
    }

    /// [`ViewStore::scrub`], converted to a typed error on first failure.
    pub fn verify_all(&self) -> Result<ScrubReport> {
        self.pages.verify_all()
    }

    /// The mixed-radix shape of deriving `target` from `source`: per target
    /// key slot, its position in the source key and its radix (the
    /// lattice's cardinality), plus the composite group count. `None` when
    /// the cross product exceeds [`STREAM_GROUP_LIMIT`] — the dense path
    /// handles those.
    fn stream_shape(&self, source: u32, target: u32) -> Option<(Vec<usize>, Vec<u32>, usize)> {
        let tpos = bit_positions(source, target);
        let cards = self.lattice.cards();
        let mut radices = Vec::with_capacity(tpos.len());
        let mut group_count = 1usize;
        for d in (0..32).filter(|b| target >> b & 1 == 1) {
            let c = *cards.get(d)?;
            group_count = group_count.checked_mul(c).filter(|&n| n <= STREAM_GROUP_LIMIT)?;
            radices.push(c as u32);
        }
        (tpos.len() == radices.len()).then_some((tpos, radices, group_count))
    }

    /// Derives `target` straight off `source`'s sealed bytes, one
    /// [`STREAM_CHUNK_ROWS`]-row chunk at a time, scatter-merging each
    /// chunk's states into per-group accumulators with
    /// [`group_merge_states_into`] — the dense source block is never
    /// materialized. Per-group merge order is sealed (key-sorted) row
    /// order, the same order the dense kernel accumulates in, so the
    /// result is bit-identical to load + `derive_block` (the differential
    /// suites replay both paths).
    fn stream_derive(
        &self,
        file: usize,
        source: u32,
        filters: &[(usize, Vec<u32>)],
        tpos: &[usize],
        radices: &[u32],
        group_count: usize,
    ) -> Result<SourceBlock> {
        let name = view_file_name(source);
        let malformed = || Error::InvalidSchema(format!("malformed cuboid file `{name}`"));
        let bytes = self.pages.read(file)?;
        let take8 = |b: &[u8], at: usize| -> Result<[u8; 8]> {
            b.get(at..at + 8).and_then(|s| s.try_into().ok()).ok_or_else(malformed)
        };
        let take4 = |b: &[u8], at: usize| -> Result<[u8; 4]> {
            b.get(at..at + 4).and_then(|s| s.try_into().ok()).ok_or_else(malformed)
        };
        let n_rows = u64::from_le_bytes(take8(&bytes, 0)?) as usize;
        let key_len = u64::from_le_bytes(take8(&bytes, 8)?) as usize;
        let row_bytes = (key_len as u64).checked_mul(4).and_then(|b| b.checked_add(32));
        let expected = row_bytes
            .and_then(|rb| (n_rows as u64).checked_mul(rb))
            .and_then(|b| b.checked_add(16));
        if expected != Some(bytes.len() as u64) {
            return Err(malformed());
        }
        // Filter slots, mirroring the dense kernel: a filter on a dimension
        // the source does not carry is silently inapplicable.
        let fpos: Vec<(usize, &[u32])> = filters
            .iter()
            .filter_map(|(d, allowed)| {
                bit_positions(source, 1u32 << d).first().map(|&p| (p, allowed.as_slice()))
            })
            .collect();
        let mut groups = vec![AggState::EMPTY; group_count];
        let mut present = vec![false; group_count];
        let mut codes: Vec<u32> = Vec::with_capacity(STREAM_CHUNK_ROWS);
        let mut states: Vec<AggState> = Vec::with_capacity(STREAM_CHUNK_ROWS);
        let mut key = vec![0u32; key_len];
        let mut at = 16;
        for row in 0..n_rows {
            for k in key.iter_mut() {
                *k = u32::from_le_bytes(take4(&bytes, at)?);
                at += 4;
            }
            let sum = f64::from_bits(u64::from_le_bytes(take8(&bytes, at)?));
            let count = u64::from_le_bytes(take8(&bytes, at + 8)?);
            let min = f64::from_bits(u64::from_le_bytes(take8(&bytes, at + 16)?));
            let max = f64::from_bits(u64::from_le_bytes(take8(&bytes, at + 24)?));
            at += 32;
            // The skip-unknown contract doubles as the filter reject path:
            // a rejected row is coded past the group range.
            let mut code = 0usize;
            let mut keep = fpos
                .iter()
                .all(|(p, allowed)| key.get(*p).is_some_and(|c| allowed.binary_search(c).is_ok()));
            if keep {
                for (&p, &r) in tpos.iter().zip(radices) {
                    match key.get(p) {
                        // A coordinate past the lattice's cardinality can
                        // only mean malformed-but-checksummed bytes; the
                        // mixed-radix code would alias, so refuse loudly
                        // rather than mis-group.
                        Some(&c) if c < r => code = code * r as usize + c as usize,
                        _ => return Err(malformed()),
                    }
                }
            }
            if keep && code >= group_count {
                keep = false;
            }
            if keep {
                present[code] = true;
            }
            codes.push(if keep { code as u32 } else { group_count as u32 });
            states.push(AggState { sum, count, min, max });
            if codes.len() == STREAM_CHUNK_ROWS || row + 1 == n_rows {
                group_merge_states_into(&codes, &states, &mut groups);
                codes.clear();
                states.clear();
            }
        }
        // Ascending composite code is ascending lexicographic target key,
        // so rows land born-sorted; the trailing sort is the same no-op
        // sortedness check the dense decoder runs.
        let mut block = CellBlock::new(tpos.len(), 1);
        let mut tkey = vec![0u32; tpos.len()];
        for (code, state) in groups.iter().enumerate() {
            if !present[code] {
                continue;
            }
            let mut rest = code;
            for (slot, &r) in tkey.iter_mut().zip(radices).rev() {
                *slot = (rest % r as usize) as u32;
                rest /= r as usize;
            }
            block.push_row(&tkey, &[*state], false);
        }
        block.sort_rows();
        Ok(SourceBlock { cells: Arc::new(block), scanned: n_rows as u64 })
    }
}

/// Rows per chunk of the sealed-page streaming scan.
const STREAM_CHUNK_ROWS: usize = 2048;

/// Ceiling on the composite group count the streaming scan will
/// accumulate into (64 KiB groups ≈ 2 MiB of states): a coarser target
/// over a huge cross product falls back to the dense derivation.
const STREAM_GROUP_LIMIT: usize = 1 << 16;

impl PlanSource for ViewStore {
    /// Loads a materialized view through the checksummed page store: a
    /// verification failure is returned as the typed error the executor's
    /// fallback chain expects.
    ///
    /// Repeat loads of an unchanged file are served from the decoded-block
    /// cache (epoch-pinned, see the field docs); `scanned` still charges the
    /// view's full cell count either way, so the \[HUR96\] cost model the
    /// experiments verify is unaffected by the shortcut.
    fn load(&self, source: u32) -> Result<SourceBlock> {
        let &file = self
            .files
            .get(&source)
            .ok_or_else(|| Error::InvalidSchema(format!("mask {source:b} not materialized")))?;
        let epoch = self.pages.file_epoch(file);
        let armed = self.pages.is_armed();
        if !armed {
            let decoded = self.decoded.read().unwrap_or_else(|p| p.into_inner());
            if let Some((e, block)) = decoded.get(&source) {
                if *e == epoch {
                    let cells = Arc::clone(block);
                    return Ok(SourceBlock { scanned: cells.len() as u64, cells });
                }
            }
        }
        let name = view_file_name(source);
        let bytes = self.pages.read(file)?;
        let cells = Arc::new(block_from_cuboid_bytes(&bytes, &name)?);
        if !armed {
            let mut decoded = self.decoded.write().unwrap_or_else(|p| p.into_inner());
            decoded.insert(source, (epoch, Arc::clone(&cells)));
        }
        Ok(SourceBlock { scanned: cells.len() as u64, cells })
    }

    /// The chunked cold-scan shortcut: on the *first* cold, non-identity
    /// read of a sealed view per epoch, the target is derived straight off
    /// the sealed pages through the `storage::chunks` state kernels —
    /// bit-identical to load + dense derivation, without materializing the
    /// dense source block. Declines (`None`) on identity loads, while a
    /// fault injector is armed (so chaos plans keep exercising the exact
    /// historical load path), when the decoded cache is already warm, on a
    /// repeat cold read (letting [`PlanSource::load`] warm the cache), and
    /// when the target's cross product exceeds the stream group limit.
    fn load_derived(
        &self,
        source: u32,
        target: u32,
        filters: &[(usize, Vec<u32>)],
    ) -> Option<Result<SourceBlock>> {
        if (source == target && filters.is_empty()) || self.pages.is_armed() {
            return None;
        }
        // An unmaterialized mask falls through to `load`'s typed error.
        let &file = self.files.get(&source)?;
        let epoch = self.pages.file_epoch(file);
        {
            let decoded = self.decoded.read().unwrap_or_else(|p| p.into_inner());
            if decoded.get(&source).is_some_and(|(e, _)| *e == epoch) {
                return None;
            }
        }
        let (tpos, radices, group_count) = self.stream_shape(source, target)?;
        {
            let mut streamed = self.streamed.write().unwrap_or_else(|p| p.into_inner());
            if streamed.insert(source, epoch) == Some(epoch) {
                return None;
            }
        }
        Some(self.stream_derive(file, source, filters, &tpos, &radices, group_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_op;
    use crate::materialize;

    fn input() -> FactInput {
        let mut f = FactInput::new(&[8, 4, 2]).unwrap();
        let mut x = 99u64;
        for _ in 0..500 {
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
    fn answers_match_direct_computation() {
        let f = input();
        let store = ViewStore::build(&f, &[0b011, 0b100]).unwrap();
        for mask in 0..8u32 {
            let ans = store.answer(mask).unwrap();
            let direct = groupby::from_facts(&f, mask);
            assert_eq!(ans.cuboid, direct, "mask {mask:03b}");
        }
    }

    #[test]
    fn routing_prefers_smallest_ancestor() {
        let f = input();
        let store = ViewStore::build(&f, &[0b011]).unwrap();
        // Query {dim0}: derivable from 0b011 (small) or base (large).
        let ans = store.answer(0b001).unwrap();
        assert_eq!(ans.source, 0b011);
        // Query {dim2}: only the base covers it.
        let ans2 = store.answer(0b100).unwrap();
        assert_eq!(ans2.source, 0b111);
        assert!(ans.cells_scanned < ans2.cells_scanned);
        // An exactly materialized view answers itself.
        let ans3 = store.answer(0b011).unwrap();
        assert_eq!(ans3.source, 0b011);
    }

    #[test]
    fn greedy_views_reduce_measured_cost() {
        let f = input();
        let lattice = Lattice::new(f.cards(), f.len() as u64).unwrap();
        let greedy = materialize::greedy_select(&lattice, 3).unwrap();
        let with_views = ViewStore::build(&f, &greedy.selected).unwrap();
        let base_only = ViewStore::build(&f, &[]).unwrap();
        let cost =
            |s: &ViewStore| -> u64 { (0..8u32).map(|m| s.answer(m).unwrap().cells_scanned).sum() };
        assert!(cost(&with_views) < cost(&base_only));
    }

    #[test]
    fn from_cube_reuses_computed_cuboids() {
        let f = input();
        let cube = cube_op::compute_shared(&f);
        let store = ViewStore::from_cube(&cube, f.cards(), &[0b101]).unwrap();
        assert_eq!(store.materialized(), vec![0b101, 0b111]);
        let ans = store.answer(0b001).unwrap();
        assert_eq!(ans.source, 0b101);
        assert_eq!(&ans.cuboid, cube.cuboid(0b001).unwrap());
        assert!(store.stored_cells() > 0);
    }

    #[test]
    fn apply_delta_equals_rebuild() {
        let f = input();
        let mut store = ViewStore::build(&f, &[0b011, 0b100]).unwrap();
        // A nightly append batch.
        let mut delta = FactInput::new(f.cards()).unwrap();
        let mut x = 5u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            delta
                .push(
                    &[(x % 8) as u32, ((x >> 8) % 4) as u32, ((x >> 16) % 2) as u32],
                    (x % 10) as f64,
                )
                .unwrap();
        }
        store.apply_delta(&delta).unwrap();
        // Rebuild from the concatenated facts and compare every cuboid.
        let mut combined = FactInput::new(f.cards()).unwrap();
        for row in 0..f.len() {
            combined.push(&f.coords(row), f.measure()[row]).unwrap();
        }
        for row in 0..delta.len() {
            combined.push(&delta.coords(row), delta.measure()[row]).unwrap();
        }
        let rebuilt = ViewStore::build(&combined, &[0b011, 0b100]).unwrap();
        for mask in 0..8u32 {
            let a = store.answer(mask).unwrap().cuboid;
            let b = rebuilt.answer(mask).unwrap().cuboid;
            assert_eq!(a.len(), b.len(), "mask {mask:03b}");
            for (k, s) in &b {
                let got = &a[k];
                assert!((got.sum - s.sum).abs() < 1e-9);
                assert_eq!(got.count, s.count);
            }
        }
        // Mismatched delta arity is rejected.
        let bad = FactInput::new(&[2, 2]).unwrap();
        assert!(store.apply_delta(&bad).is_err());
    }

    #[test]
    fn errors() {
        let f = input();
        let store = ViewStore::build(&f, &[]).unwrap();
        assert!(store.answer(0b1000).is_err());
        assert!(ViewStore::build(&f, &[0b11111]).is_err());
        let cube = cube_op::compute_rollup(&f, &[0, 1, 2]).unwrap();
        // A rollup result lacks most masks.
        assert!(ViewStore::from_cube(&cube, f.cards(), &[0b010]).is_err());
    }

    #[test]
    fn serialization_round_trips() {
        let f = input();
        let base = groupby::from_facts(&f, 0b111);
        let bytes = serialize_cuboid(&base, 3);
        assert_eq!(deserialize_cuboid(&bytes, "t").unwrap(), base);
        // Empty cuboid round-trips too.
        let empty = Cuboid::new();
        let b2 = serialize_cuboid(&empty, 3);
        assert_eq!(deserialize_cuboid(&b2, "t").unwrap(), empty);
        // Truncated/garbage buffers are typed errors, not panics.
        assert!(deserialize_cuboid(&bytes[..bytes.len() - 1], "t").is_err());
        assert!(deserialize_cuboid(&[1, 2, 3], "t").is_err());
    }

    #[test]
    fn corrupt_view_falls_back_to_healthy_ancestor() {
        let f = input();
        let store = ViewStore::build(&f, &[0b011]).unwrap();
        assert!(store.verify_all().is_ok());
        store.corrupt_view(0b011, 37).unwrap();
        assert!(store.verify_all().is_err());
        // The preferred source for {d0} is the corrupted 0b011; the answer
        // must detour through the base and still be exact.
        let ans = store.answer(0b001).unwrap();
        assert_eq!(ans.source, 0b111);
        assert_eq!(ans.cuboid, groupby::from_facts(&f, 0b001));
        let d = ans.degraded.expect("detour must be recorded");
        assert_eq!(d.requested, 0b001);
        assert_eq!(d.served_from, 0b111);
        assert_eq!(d.failed.len(), 1);
        assert_eq!(d.failed[0].0, 0b011);
        assert!(matches!(d.failed[0].1, Error::ChecksumMismatch { .. }));
        assert!(d.extra_cells > 0, "base is larger than the preferred view");
        // Fault counters observed the failure.
        assert!(store.fault_stats().checksum_failures > 0);
        // A healthy-source answer stays un-degraded.
        assert!(store.answer(0b111).unwrap().degraded.is_none());
    }

    #[test]
    fn all_sources_corrupt_is_a_typed_error() {
        let f = input();
        let store = ViewStore::build(&f, &[0b011]).unwrap();
        store.corrupt_view(0b011, 0).unwrap();
        store.corrupt_view(0b111, 0).unwrap();
        match store.answer(0b001) {
            Err(Error::NoHealthySource { requested, tried }) => {
                assert_eq!(requested, 0b001);
                assert_eq!(tried, 2);
            }
            other => panic!("expected NoHealthySource, got {other:?}"),
        }
        // Rewriting (delta maintenance) heals the store.
        let mut store = store;
        let delta = FactInput::new(f.cards()).unwrap();
        store.apply_delta(&delta).unwrap();
        assert!(store.verify_all().is_ok());
        assert!(store.answer(0b001).unwrap().degraded.is_none());
    }

    #[test]
    fn transient_faults_retry_and_stay_exact() {
        let f = input();
        let store = ViewStore::build(&f, &[0b011]).unwrap();
        store.arm_faults(FaultPlan::transient_only(11, 0.1));
        for mask in 0..8u32 {
            let ans = store.answer(mask).unwrap();
            // Answers stay exact; a burst that outlives the retry budget may
            // force a fallback, but only ever as RetriesExhausted — never a
            // checksum failure (nothing is corrupt).
            assert_eq!(ans.cuboid, groupby::from_facts(&f, mask), "mask {mask:03b}");
            if let Some(d) = &ans.degraded {
                for (_, e) in &d.failed {
                    assert!(matches!(e, Error::RetriesExhausted { .. }));
                }
            }
        }
        let s = store.fault_stats();
        assert!(s.transient_faults + s.short_reads > 0, "plan should have fired");
        assert!(s.retries > 0);
        assert!(s.backoff_us > 0);
        assert_eq!(s.checksum_failures, 0);
        store.disarm_faults();
        assert!(store.answer(0b001).unwrap().degraded.is_none());
    }

    #[test]
    fn answer_cube_surfaces_degradations() {
        let f = input();
        let store = ViewStore::build(&f, &[0b011, 0b101]).unwrap();
        store.corrupt_view(0b011, 5).unwrap();
        let cube = store.answer_cube().unwrap();
        assert_eq!(cube, cube_op::compute_shared(&f), "degraded answers stay exact");
        assert!(!cube.degradations().is_empty());
        // Every degraded cuboid's stats carry fallback provenance.
        for d in cube.degradations() {
            match cube.stats_for(d.requested).unwrap().source {
                DerivationSource::FallbackAncestor { parent, failed } => {
                    assert_eq!(parent, d.served_from);
                    assert_eq!(failed, 0b011);
                }
                ref s => panic!("expected fallback provenance, got {s:?}"),
            }
        }
        // 0b011 itself must be among the degraded masks (its own file is bad).
        assert!(cube.degradations().iter().any(|d| d.requested == 0b011));
    }
}
