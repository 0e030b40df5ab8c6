//! Batch-at-a-time kernels for the plan executor.
//!
//! The §6 storage survey's organizations (transposed, bit-encoded, RLE)
//! were designed for *batch* consumption, but the original executor walked
//! cells one tuple at a time through a `HashMap`. This module supplies the
//! columnar representation and the fused kernels the batched executor
//! ([`crate::plan::exec::execute`]) runs on instead:
//!
//! * [`CellBlock`] — a sorted, structure-of-arrays cuboid block: row-major
//!   dictionary-coded keys, one [`StateColumns`] per measure slot, and a
//!   per-row suppression flag for the privacy pass.
//! * [`derive_block`] — the fused scan + filter + aggregate kernel: scans a
//!   source block in fixed-size batches ([`BATCH`] rows), materializes a
//!   selection vector from the pushed-down filters, and aggregates the
//!   selected rows into the target grouping — by sorted-run accumulation
//!   when the target keys are a prefix of the (sorted) source keys, and by
//!   a batch-hashed open-addressing group table otherwise.
//! * [`merge_blocks`] — the key-wise monoid merge of two blocks, the
//!   block-level image of [`AggState::merge`].
//!
//! Blocks hold *pre-enforcement* data when produced by derivation; the
//! privacy operators in [`crate::plan::enforce`] flip the suppression
//! flags in place (via `Arc::make_mut`, so cache-shared blocks are never
//! mutated through a shared handle).

use crate::measure::{AggState, SummaryFunction};

/// Rows per processing batch: small enough that a batch's keys, selection
/// vector, and accumulators stay cache-resident, large enough to amortize
/// per-batch setup.
pub const BATCH: usize = 2048;

/// One measure slot's aggregation states, stored column-wise (the
/// structure-of-arrays mirror of a column of [`AggState`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateColumns {
    sum: Vec<f64>,
    count: Vec<u64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl StateColumns {
    fn with_capacity(n: usize) -> Self {
        Self {
            sum: Vec::with_capacity(n),
            count: Vec::with_capacity(n),
            min: Vec::with_capacity(n),
            max: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, s: &AggState) {
        self.sum.push(s.sum);
        self.count.push(s.count);
        self.min.push(s.min);
        self.max.push(s.max);
    }

    fn push_empty(&mut self) {
        self.push(&AggState::EMPTY);
    }

    /// Reassembles row `i` as an [`AggState`].
    pub fn state(&self, i: usize) -> AggState {
        AggState { sum: self.sum[i], count: self.count[i], min: self.min[i], max: self.max[i] }
    }

    /// The merged micro-unit count of row `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.count[i]
    }

    /// Merges row `j` of `other` into row `i` of `self` — the columnar
    /// [`AggState::merge`].
    fn merge_from(&mut self, i: usize, other: &StateColumns, j: usize) {
        self.sum[i] += other.sum[j];
        self.count[i] += other.count[j];
        self.min[i] = self.min[i].min(other.min[j]);
        self.max[i] = self.max[i].max(other.max[j]);
    }

    fn merge_state(&mut self, i: usize, s: &AggState) {
        self.sum[i] += s.sum;
        self.count[i] += s.count;
        self.min[i] = self.min[i].min(s.min);
        self.max[i] = self.max[i].max(s.max);
    }

    fn gather(&self, order: &[u32]) -> StateColumns {
        let mut out = StateColumns::with_capacity(order.len());
        for &i in order {
            let i = i as usize;
            out.sum.push(self.sum[i]);
            out.count.push(self.count[i]);
            out.min.push(self.min[i]);
            out.max.push(self.max[i]);
        }
        out
    }
}

/// A sorted columnar cuboid block: the unit the batched executor loads,
/// derives, enforces, caches, and renders.
///
/// Invariants: rows are sorted by key (lexicographically over the
/// `key_width` dictionary-coded coordinates, schema-dimension order), keys
/// are unique, and every measure column has exactly `len` entries.
/// Constructors that accept unsorted input ([`CellBlock::sort_rows`]) must
/// be called before the block is handed to the executor.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBlock {
    key_width: usize,
    len: usize,
    /// Row-major keys: `len × key_width` coordinates.
    keys: Vec<u32>,
    suppressed: Vec<bool>,
    measures: Vec<StateColumns>,
}

impl CellBlock {
    /// An empty block with the given key width and measure-slot count.
    pub fn new(key_width: usize, measure_count: usize) -> Self {
        Self {
            key_width,
            len: 0,
            keys: Vec::new(),
            suppressed: Vec::new(),
            measures: (0..measure_count).map(|_| StateColumns::default()).collect(),
        }
    }

    fn with_capacity(key_width: usize, measure_count: usize, n: usize) -> Self {
        Self {
            key_width,
            len: 0,
            keys: Vec::with_capacity(n * key_width),
            suppressed: Vec::with_capacity(n),
            measures: (0..measure_count).map(|_| StateColumns::with_capacity(n)).collect(),
        }
    }

    /// Number of rows (cells).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Coordinates per key (0 for the apex cuboid).
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// Number of measure slots.
    pub fn measure_count(&self) -> usize {
        self.measures.len()
    }

    /// The key of row `i` (empty slice at the apex).
    pub fn key(&self, i: usize) -> &[u32] {
        &self.keys[i * self.key_width..(i + 1) * self.key_width]
    }

    /// The state columns of measure slot `m`.
    pub fn measure(&self, m: usize) -> &StateColumns {
        &self.measures[m]
    }

    /// Reassembles the state of measure `m` at row `i`.
    pub fn state(&self, m: usize, i: usize) -> AggState {
        self.measures[m].state(i)
    }

    /// All measure states of row `i`, in slot order.
    pub fn states_row(&self, i: usize) -> Vec<AggState> {
        self.measures.iter().map(|m| m.state(i)).collect()
    }

    /// Evaluates measure `m` at row `i` under `func` (the columnar
    /// [`AggState::value`]); `None` when the slot is out of range.
    pub fn value(&self, m: usize, i: usize, func: SummaryFunction) -> Option<f64> {
        self.measures.get(m).and_then(|c| c.state(i).value(func))
    }

    /// The privacy cell count of row `i`: measure slot 0's merged count
    /// (the same basis the tuple-at-a-time enforcement used).
    pub fn cell_count(&self, i: usize) -> u64 {
        self.measures.first().map_or(0, |m| m.count[i])
    }

    /// Whether row `i` was withheld by the privacy pass.
    pub fn is_suppressed(&self, i: usize) -> bool {
        self.suppressed[i]
    }

    /// Flips row `i`'s suppression flag (privacy operators only).
    pub fn set_suppressed(&mut self, i: usize, v: bool) {
        self.suppressed[i] = v;
    }

    /// Adds `delta` to measure `m`'s sum at row `i` (the perturbation
    /// operator's write primitive).
    pub fn add_sum(&mut self, m: usize, i: usize, delta: f64) {
        self.measures[m].sum[i] += delta;
    }

    /// Appends a row. The caller is responsible for restoring the sorted
    /// invariant (call [`CellBlock::sort_rows`] once after bulk appends).
    pub fn push_row(&mut self, key: &[u32], states: &[AggState], suppressed: bool) {
        debug_assert_eq!(key.len(), self.key_width, "key width mismatch");
        debug_assert_eq!(states.len(), self.measures.len(), "measure count mismatch");
        self.keys.extend_from_slice(key);
        self.suppressed.push(suppressed);
        for (col, s) in self.measures.iter_mut().zip(states) {
            col.push(s);
        }
        self.len += 1;
    }

    /// Binary-searches the sorted keys for `key`.
    pub fn find(&self, key: &[u32]) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Restores the sorted-by-key invariant after out-of-order appends
    /// (index sort + column gather; a no-op on already-sorted input).
    pub fn sort_rows(&mut self) {
        if (1..self.len).all(|i| self.key(i - 1) <= self.key(i)) {
            return;
        }
        let mut order: Vec<u32> = (0..self.len as u32).collect();
        order.sort_unstable_by(|&a, &b| self.key(a as usize).cmp(self.key(b as usize)));
        let mut keys = Vec::with_capacity(self.keys.len());
        let mut suppressed = Vec::with_capacity(self.len);
        for &i in &order {
            keys.extend_from_slice(self.key(i as usize));
            suppressed.push(self.suppressed[i as usize]);
        }
        self.keys = keys;
        self.suppressed = suppressed;
        self.measures = self.measures.iter().map(|m| m.gather(&order)).collect();
    }

    /// Approximate heap bytes of the block (cache-budget accounting).
    pub fn heap_bytes(&self) -> usize {
        16 + self.len * (self.key_width * 4 + 1 + self.measures.len() * 32)
    }
}

/// Positions of `of`'s bits within the kept-coordinate order of `within`.
/// Public because storage-side chunked scans (which derive a target cuboid
/// straight from sealed pages) need the same slot arithmetic the dense
/// kernels use.
pub fn bit_positions(within: u32, of: u32) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    for b in 0..32 {
        if within >> b & 1 == 1 {
            if of >> b & 1 == 1 {
                out.push(pos);
            }
            pos += 1;
        }
    }
    out
}

/// True when row `i` of `src` passes every pushed-down filter.
#[inline]
fn passes(src: &CellBlock, i: usize, fpos: &[(usize, &[u32])]) -> bool {
    let key = src.key(i);
    fpos.iter().all(|(p, allowed)| allowed.binary_search(&key[*p]).is_ok())
}

/// The fused scan + filter + aggregate kernel: derives the `target` cuboid
/// from a loaded `source` block, applying pushed-down scan filters on the
/// way (`target ⊆ source` by plan construction).
///
/// The source is consumed in [`BATCH`]-row batches. Each batch first
/// materializes a selection vector (row indices passing every filter, one
/// binary search per filter per row over the dictionary-coded keys), then
/// aggregates the selected rows:
///
/// * when the target's key positions are a prefix of the source key order,
///   the sorted-run path accumulates straight down the block — equal
///   prefixes are contiguous in a sorted block, so no hashing happens and
///   the output is born sorted (this covers the apex, whose prefix is
///   empty);
/// * otherwise the hash path projects each selected key once, hashes it
///   once, and scatter-merges into an open-addressing group table, with a
///   single final sort of the (few) groups.
pub fn derive_block(
    src: &CellBlock,
    source: u32,
    target: u32,
    filters: &[(usize, Vec<u32>)],
) -> CellBlock {
    let tpos = bit_positions(source, target);
    let m = src.measure_count();
    // A malformed source (stored key width differing from the mask's
    // popcount) yields an empty derivation rather than a panic, the same
    // skip-unknown behavior the tuple interpreter had.
    if tpos.iter().any(|&p| p >= src.key_width()) {
        return CellBlock::new(tpos.len(), m);
    }
    let fpos: Vec<(usize, &[u32])> = filters
        .iter()
        .filter_map(|(d, allowed)| {
            bit_positions(source, 1u32 << d).first().map(|&p| (p, allowed.as_slice()))
        })
        .filter(|(p, _)| *p < src.key_width())
        .collect();
    let prefix = tpos.iter().enumerate().all(|(i, &p)| i == p);
    let mut out = CellBlock::new(tpos.len(), m);
    let mut sel: Vec<u32> = Vec::with_capacity(BATCH.min(src.len().max(1)));
    if prefix {
        derive_prefix(src, &fpos, &tpos, &mut sel, &mut out);
    } else {
        derive_hashed(src, &fpos, &tpos, &mut sel, &mut out);
        out.sort_rows();
    }
    out
}

/// Sorted-run accumulation: target keys are a prefix of the sorted source
/// keys, so groups are contiguous and the output stays sorted.
fn derive_prefix(
    src: &CellBlock,
    fpos: &[(usize, &[u32])],
    tpos: &[usize],
    sel: &mut Vec<u32>,
    out: &mut CellBlock,
) {
    let k = tpos.len();
    let mut cur = usize::MAX;
    let mut start = 0usize;
    while start < src.len() {
        let end = (start + BATCH).min(src.len());
        fill_selection(src, fpos, start, end, sel);
        for &i in sel.iter() {
            let i = i as usize;
            let key = &src.key(i)[..k];
            if cur == usize::MAX || out.key(cur) != key {
                out.keys.extend_from_slice(key);
                out.suppressed.push(false);
                for col in &mut out.measures {
                    col.push_empty();
                }
                out.len += 1;
                cur = out.len - 1;
            }
            for (col, s) in out.measures.iter_mut().zip(&src.measures) {
                col.merge_from(cur, s, i);
            }
        }
        start = end;
    }
}

/// Batch-hashed group table: projected keys are hashed once per row and
/// scatter-merged into an open-addressing table of group indices.
fn derive_hashed(
    src: &CellBlock,
    fpos: &[(usize, &[u32])],
    tpos: &[usize],
    sel: &mut Vec<u32>,
    out: &mut CellBlock,
) {
    let k = tpos.len();
    let mut cap = 64usize;
    let mut table: Vec<u32> = vec![0; cap]; // group index + 1; 0 = empty
    let mut kbuf = vec![0u32; k];
    let mut start = 0usize;
    while start < src.len() {
        let end = (start + BATCH).min(src.len());
        fill_selection(src, fpos, start, end, sel);
        for &i in sel.iter() {
            let i = i as usize;
            let key = src.key(i);
            for (slot, &p) in kbuf.iter_mut().zip(tpos) {
                *slot = key[p];
            }
            // Grow at 3/4 load so probes stay short.
            if (out.len + 1) * 4 > cap * 3 {
                cap *= 2;
                table = rebuild_table(out, cap);
            }
            let mut at = (hash_coords(&kbuf) as usize) & (cap - 1);
            let group = loop {
                match table[at] {
                    0 => {
                        out.keys.extend_from_slice(&kbuf);
                        out.suppressed.push(false);
                        for col in &mut out.measures {
                            col.push_empty();
                        }
                        out.len += 1;
                        table[at] = out.len as u32;
                        break out.len - 1;
                    }
                    g if out.key(g as usize - 1) == kbuf.as_slice() => break g as usize - 1,
                    _ => at = (at + 1) & (cap - 1),
                }
            };
            for (col, s) in out.measures.iter_mut().zip(&src.measures) {
                col.merge_from(group, s, i);
            }
        }
        start = end;
    }
}

fn rebuild_table(out: &CellBlock, cap: usize) -> Vec<u32> {
    let mut table = vec![0u32; cap];
    for g in 0..out.len {
        let mut at = (hash_coords(out.key(g)) as usize) & (cap - 1);
        while table[at] != 0 {
            at = (at + 1) & (cap - 1);
        }
        table[at] = g as u32 + 1;
    }
    table
}

/// Fills `sel` with the row indices in `[start, end)` passing every
/// filter — the batch's selection vector. With no filters the whole batch
/// is selected.
fn fill_selection(
    src: &CellBlock,
    fpos: &[(usize, &[u32])],
    start: usize,
    end: usize,
    sel: &mut Vec<u32>,
) {
    sel.clear();
    if fpos.is_empty() {
        sel.extend(start as u32..end as u32);
    } else {
        sel.extend((start..end).filter(|&i| passes(src, i, fpos)).map(|i| i as u32));
    }
}

/// FNV-1a over a key's coordinates — one hash per selected row.
#[inline]
fn hash_coords(key: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in key {
        h ^= u64::from(c);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Finalize so low bits carry entropy from high bits (the table masks).
    h ^= h >> 29;
    h
}

/// Key-wise monoid merge of two sorted blocks (suppression flags OR): the
/// block-level image of [`AggState::merge`], associative and commutative
/// with the empty block as identity (up to float rounding on sums).
pub fn merge_blocks(a: &CellBlock, b: &CellBlock) -> CellBlock {
    // The identity element first: an empty block merges to a copy of the
    // other side whatever key width it declares, so an empty partial from
    // one source can never poison a merge with a mismatched width.
    if a.len == 0 {
        return b.clone();
    }
    if b.len == 0 {
        return a.clone();
    }
    debug_assert_eq!(a.key_width, b.key_width, "key width mismatch");
    debug_assert_eq!(a.measures.len(), b.measures.len(), "measure count mismatch");
    let m = a.measures.len();
    let mut out = CellBlock::with_capacity(a.key_width, m, a.len + b.len);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len || j < b.len {
        let ord = if i == a.len {
            std::cmp::Ordering::Greater
        } else if j == b.len {
            std::cmp::Ordering::Less
        } else {
            a.key(i).cmp(b.key(j))
        };
        match ord {
            std::cmp::Ordering::Less => {
                out.push_row(a.key(i), &a.states_row(i), a.suppressed[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push_row(b.key(j), &b.states_row(j), b.suppressed[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push_row(a.key(i), &a.states_row(i), a.suppressed[i] || b.suppressed[j]);
                let r = out.len - 1;
                for (col, s) in out.measures.iter_mut().zip(&b.measures) {
                    col.merge_state(r, &s.state(j));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(cells: &[(&[u32], f64)]) -> CellBlock {
        let width = cells.first().map_or(0, |(k, _)| k.len());
        let mut b = CellBlock::new(width, 1);
        for (k, v) in cells {
            b.push_row(k, &[AggState::from_value(*v)], false);
        }
        b.sort_rows();
        b
    }

    #[test]
    fn prefix_path_aggregates_sorted_runs() {
        let src = block(&[(&[0, 0], 1.0), (&[0, 1], 2.0), (&[1, 0], 4.0), (&[1, 1], 8.0)]);
        let out = derive_block(&src, 0b11, 0b01, &[]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.key(0), &[0]);
        assert_eq!(out.state(0, 0).sum, 3.0);
        assert_eq!(out.state(0, 1).sum, 12.0);
        assert_eq!(out.state(0, 1).count, 2);
    }

    #[test]
    fn hash_path_matches_prefix_semantics() {
        // Target = dim 1 only: positions [1], not a prefix → hash path.
        let src = block(&[(&[0, 0], 1.0), (&[0, 1], 2.0), (&[1, 0], 4.0), (&[1, 1], 8.0)]);
        let out = derive_block(&src, 0b11, 0b10, &[]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.key(0), &[0]);
        assert_eq!(out.state(0, 0).sum, 5.0);
        assert_eq!(out.key(1), &[1]);
        assert_eq!(out.state(0, 1).sum, 10.0);
    }

    #[test]
    fn apex_derivation_reduces_everything() {
        let src = block(&[(&[0, 0], 1.0), (&[1, 1], 2.0), (&[2, 0], 4.0)]);
        let out = derive_block(&src, 0b11, 0, &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.key_width(), 0);
        let s = out.state(0, 0);
        assert_eq!((s.sum, s.count, s.min, s.max), (7.0, 3, 1.0, 4.0));
    }

    #[test]
    fn selection_vector_masks_filtered_rows() {
        let src = block(&[(&[0, 0], 1.0), (&[0, 1], 2.0), (&[1, 1], 4.0)]);
        // Filter dim 1 (key position 1) to member 1.
        let out = derive_block(&src, 0b11, 0b01, &[(1, vec![1])]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.state(0, 0).sum, 2.0);
        assert_eq!(out.state(0, 1).sum, 4.0);
    }

    #[test]
    fn empty_source_derives_to_empty() {
        let src = CellBlock::new(2, 1);
        for target in [0b11u32, 0b01, 0b10, 0] {
            assert!(derive_block(&src, 0b11, target, &[]).is_empty());
        }
    }

    #[test]
    fn hash_path_survives_table_growth() {
        // More groups than the initial 64-slot table.
        let mut cells = Vec::new();
        for a in 0..40u32 {
            for b in 0..10u32 {
                cells.push((vec![b, a], (a * 10 + b) as f64));
            }
        }
        let refs: Vec<(&[u32], f64)> = cells.iter().map(|(k, v)| (k.as_slice(), *v)).collect();
        let src = block(&refs);
        let out = derive_block(&src, 0b11, 0b10, &[]); // keep position 1 → hash path
        assert_eq!(out.len(), 40);
        let total: f64 = (0..out.len()).map(|i| out.state(0, i).sum).sum();
        let expected: f64 = cells.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, expected);
        // Sorted and unique.
        for i in 1..out.len() {
            assert!(out.key(i - 1) < out.key(i));
        }
    }

    #[test]
    fn merge_blocks_is_keywise_and_identity_on_empty() {
        let a = block(&[(&[0], 1.0), (&[2], 4.0)]);
        let b = block(&[(&[0], 2.0), (&[1], 8.0)]);
        let ab = merge_blocks(&a, &b);
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.state(0, 0).sum, 3.0);
        assert_eq!(ab.state(0, 1).sum, 8.0);
        assert_eq!(ab.state(0, 2).sum, 4.0);
        let empty = CellBlock::new(1, 1);
        assert_eq!(merge_blocks(&a, &empty), a);
        assert_eq!(merge_blocks(&empty, &a), a);
    }

    #[test]
    fn find_binary_searches_sorted_keys() {
        let b = block(&[(&[0, 1], 1.0), (&[1, 0], 2.0), (&[1, 2], 4.0)]);
        assert_eq!(b.find(&[1, 0]), Some(1));
        assert_eq!(b.find(&[1, 1]), None);
        assert_eq!(b.find(&[0, 1]), Some(0));
        assert_eq!(b.find(&[9, 9]), None);
    }

    #[test]
    fn sort_rows_gathers_all_columns() {
        let mut b = CellBlock::new(1, 2);
        b.push_row(&[5], &[AggState::from_value(5.0), AggState::from_value(50.0)], true);
        b.push_row(&[1], &[AggState::from_value(1.0), AggState::from_value(10.0)], false);
        b.sort_rows();
        assert_eq!(b.key(0), &[1]);
        assert!(!b.is_suppressed(0));
        assert!(b.is_suppressed(1));
        assert_eq!(b.state(1, 0).sum, 10.0);
        assert_eq!(b.state(1, 1).sum, 50.0);
    }
}
