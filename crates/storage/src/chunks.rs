//! Chunked, batch-at-a-time aggregation over the §6 column organizations.
//!
//! The survey's compressed layouts ([`crate::rle`], [`crate::bittransposed`],
//! [`crate::column`]) were designed for batch consumption: a run-length
//! encoded column answers `SUM`/`COUNT` without ever decoding, and a
//! bit-sliced column yields selection bitmaps that mask a dense value
//! vector. This module supplies the chunk representation and the fused
//! aggregation kernels the vectorized executor consumes — the
//! storage-side mirror of the plan-layer kernels in
//! `statcube_core::plan` ([`AggState`] is the shared accumulator, so a
//! chunk aggregated here merges bit-for-bit with a block derived there).
//!
//! Three kernels, one per storage shape:
//!
//! * [`aggregate_dense`] — a straight pass over decoded values;
//! * [`aggregate_runs`] — run-aware: one [`AggState::merge_run`] per run
//!   (`value × run_length` for sums and counts, run min/max for extrema),
//!   so cost scales with *runs*, not cells — the whole point of \[WL+85\]'s
//!   compressed scans;
//! * [`filtered_aggregate`] — a dense pass masked by a selection bitmap in
//!   the exact shape [`crate::bittransposed::BitSlicedColumn::eq_scan`]
//!   produces, and [`group_aggregate`] — a single gather pass that
//!   scatter-merges values into per-group accumulators keyed by a
//!   dictionary-coded column.
//!
//! Plus the state-granular pair the sealed-page scans stream through:
//! [`merge_states`] and [`group_merge_states_into`], which consume rows
//! that already carry full [`AggState`]s (the sealed cuboid row format)
//! so a cold view scan derives its target chunk-at-a-time instead of
//! materializing the dense source block first.

use statcube_core::measure::AggState;

use crate::bittransposed::BitSlicedColumn;
use crate::rle::Rle;

/// A borrowed chunk of a measure column in its stored shape: the unit a
/// chunk iterator yields and the aggregation kernels consume.
#[derive(Debug, Clone, Copy)]
pub enum MeasureChunk<'a> {
    /// Decoded values, one per cell (transposed / dense organizations).
    Dense(&'a [f64]),
    /// Run-length encoded `(value, run_length)` pairs ([`Rle`]).
    Runs(&'a [(f64, u32)]),
}

impl MeasureChunk<'_> {
    /// Cells covered by this chunk (run lengths included).
    pub fn cells(&self) -> u64 {
        match self {
            MeasureChunk::Dense(v) => v.len() as u64,
            MeasureChunk::Runs(runs) => runs.iter().map(|&(_, n)| u64::from(n)).sum(),
        }
    }

    /// Aggregates the chunk with the shape-appropriate kernel.
    pub fn aggregate(&self) -> AggState {
        match self {
            MeasureChunk::Dense(v) => aggregate_dense(v),
            MeasureChunk::Runs(runs) => aggregate_runs(runs),
        }
    }
}

/// Splits a decoded column into [`MeasureChunk::Dense`] chunks of at most
/// `rows` cells.
pub fn dense_chunks(values: &[f64], rows: usize) -> impl Iterator<Item = MeasureChunk<'_>> {
    values.chunks(rows.max(1)).map(MeasureChunk::Dense)
}

/// Splits an RLE column into [`MeasureChunk::Runs`] chunks of at most
/// `runs_per_chunk` runs — chunking follows the *stored* shape, so a long
/// run is never split or decoded.
pub fn run_chunks(rle: &Rle<f64>, runs_per_chunk: usize) -> impl Iterator<Item = MeasureChunk<'_>> {
    rle.runs().chunks(runs_per_chunk.max(1)).map(MeasureChunk::Runs)
}

/// Aggregates decoded values in one pass.
pub fn aggregate_dense(values: &[f64]) -> AggState {
    let mut s = AggState::EMPTY;
    for &v in values {
        s.merge_run(v, 1);
    }
    s
}

/// Aggregates an RLE column without decoding: one
/// [`AggState::merge_run`] per run, so `SUM` costs `value × run_length`
/// and `MIN`/`MAX` cost one comparison per *run*.
pub fn aggregate_runs(runs: &[(f64, u32)]) -> AggState {
    let mut s = AggState::EMPTY;
    for &(v, n) in runs {
        s.merge_run(v, u64::from(n));
    }
    s
}

/// Folds any chunk sequence into one state — chunks may mix shapes, since
/// [`AggState::merge`] is the same monoid either kernel accumulates into.
pub fn aggregate_chunks<'a, I>(chunks: I) -> AggState
where
    I: IntoIterator<Item = MeasureChunk<'a>>,
{
    let mut s = AggState::EMPTY;
    for c in chunks {
        s.merge(&c.aggregate());
    }
    s
}

/// Aggregates the dense values selected by `bitmap` — the word-per-64-rows
/// layout [`BitSlicedColumn::eq_scan`] and [`BitSlicedColumn::and`]
/// produce, so a bit-sliced predicate scan feeds aggregation without an
/// intermediate index vector.
pub fn filtered_aggregate(values: &[f64], bitmap: &[u64]) -> AggState {
    let mut s = AggState::EMPTY;
    for i in BitSlicedColumn::iter_ones(bitmap) {
        if let Some(&v) = values.get(i) {
            s.merge_run(v, 1);
        }
    }
    s
}

/// One-pass grouped aggregation over a dictionary-coded key column:
/// `codes[i]` names the group of `values[i]`, and the result holds one
/// state per group id in `0..group_count` (empty groups stay
/// [`AggState::EMPTY`]). Codes at or above `group_count` are ignored, the
/// same skip-unknown contract the executor's kernels follow.
pub fn group_aggregate(codes: &[u32], group_count: usize, values: &[f64]) -> Vec<AggState> {
    let mut out = vec![AggState::EMPTY; group_count];
    for (&c, &v) in codes.iter().zip(values) {
        if let Some(s) = out.get_mut(c as usize) {
            s.merge_run(v, 1);
        }
    }
    out
}

/// Folds a slice of already-aggregated states into one — the
/// state-granular sibling of [`aggregate_dense`], for storage shapes whose
/// rows carry full [`AggState`]s (sealed cuboid files) rather than raw
/// values. Merge order is slice order, so chunked consumption is
/// bit-identical to a single pass.
pub fn merge_states(states: &[AggState]) -> AggState {
    let mut s = AggState::EMPTY;
    for st in states {
        s.merge(st);
    }
    s
}

/// One-pass grouped *state* merge: scatter-merges `states[i]` into
/// `out[codes[i]]`. The state-granular sibling of [`group_aggregate`],
/// consumed chunk-at-a-time by the sealed-page scans — callers stream a
/// sealed cuboid file in row chunks, code each row's target key, and fold
/// every chunk into the same `out` slice without ever materializing the
/// dense source block. Codes at or above `out.len()` are skipped (the
/// skip-unknown contract doubles as the filter reject path: callers code
/// filtered-out rows as `out.len()`).
pub fn group_merge_states_into(codes: &[u32], states: &[AggState], out: &mut [AggState]) {
    for (&c, s) in codes.iter().zip(states) {
        if let Some(dst) = out.get_mut(c as usize) {
            dst.merge(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_aware_equals_decoded() {
        let decoded: Vec<f64> =
            [3.0; 7].iter().chain([1.0; 4].iter()).chain([9.0; 2].iter()).copied().collect();
        let rle = Rle::encode(&decoded);
        assert_eq!(rle.run_count(), 3);
        assert_eq!(aggregate_runs(rle.runs()), aggregate_dense(&decoded));
    }

    #[test]
    fn chunking_never_changes_the_answer() {
        let values: Vec<f64> = (0..1000).map(|i| f64::from(i % 17)).collect();
        let whole = aggregate_dense(&values);
        for rows in [1, 7, 64, 1000, 4096] {
            assert_eq!(aggregate_chunks(dense_chunks(&values, rows)), whole, "rows={rows}");
        }
        let rle = Rle::encode(&values);
        for runs in [1, 3, 1 << 20] {
            assert_eq!(aggregate_chunks(run_chunks(&rle, runs)), whole, "runs={runs}");
        }
    }

    #[test]
    fn mixed_shapes_merge_into_one_monoid() {
        let a = [1.0, 2.0, 3.0];
        let rle = Rle::encode(&[5.0, 5.0, 5.0, 7.0]);
        let chunks = [MeasureChunk::Dense(&a), MeasureChunk::Runs(rle.runs())];
        let s = aggregate_chunks(chunks);
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 28.0);
        assert_eq!((s.min, s.max), (1.0, 7.0));
        assert_eq!(chunks[0].cells() + chunks[1].cells(), 7);
    }

    #[test]
    fn bitmap_filter_matches_explicit_selection() {
        let codes: Vec<u32> = (0..200).map(|i| i % 5).collect();
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        let col = BitSlicedColumn::build(&codes, 3).unwrap();
        let io = crate::io_stats::IoStats::new(crate::io_stats::DEFAULT_PAGE_SIZE);
        let bitmap = col.eq_scan(2, &io);
        let expected = aggregate_dense(
            &values
                .iter()
                .zip(&codes)
                .filter(|(_, &c)| c == 2)
                .map(|(&v, _)| v)
                .collect::<Vec<_>>(),
        );
        assert_eq!(filtered_aggregate(&values, &bitmap), expected);
        // Out-of-range bits are ignored.
        let mut long = bitmap.clone();
        long.push(u64::MAX);
        assert_eq!(filtered_aggregate(&values, &long), expected);
    }

    #[test]
    fn state_merge_kernels_match_value_kernels() {
        // States built from single values must merge to the same result the
        // value kernels aggregate to, chunked or not.
        let values: Vec<f64> = (0..500).map(|i| f64::from(i % 23) - 7.0).collect();
        let states: Vec<AggState> = values
            .iter()
            .map(|&v| {
                let mut s = AggState::EMPTY;
                s.merge_run(v, 1);
                s
            })
            .collect();
        assert_eq!(merge_states(&states), aggregate_dense(&values));
        let codes: Vec<u32> = (0..500).map(|i| (i * 13) % 6).collect();
        let grouped = group_aggregate(&codes, 6, &values);
        let mut out = vec![AggState::EMPTY; 6];
        for (cc, cs) in codes.chunks(64).zip(states.chunks(64)) {
            group_merge_states_into(cc, cs, &mut out);
        }
        assert_eq!(out, grouped);
        // Skip-unknown: an out-of-range code leaves `out` untouched.
        let mut small = vec![AggState::EMPTY; 1];
        group_merge_states_into(&[0, 9], &states[..2], &mut small);
        assert_eq!(small[0], states[0]);
    }

    #[test]
    fn group_aggregate_matches_per_group_filters() {
        let codes: Vec<u32> = (0..300).map(|i| (i * 7) % 4).collect();
        let values: Vec<f64> = (0..300).map(|i| f64::from(i) * 0.5).collect();
        let grouped = group_aggregate(&codes, 4, &values);
        for g in 0..4u32 {
            let expected = aggregate_dense(
                &values
                    .iter()
                    .zip(&codes)
                    .filter(|(_, &c)| c == g)
                    .map(|(&v, _)| v)
                    .collect::<Vec<_>>(),
            );
            assert_eq!(grouped[g as usize], expected, "group {g}");
        }
        // Unknown codes are skipped; empty groups stay EMPTY.
        let sparse = group_aggregate(&[0, 9], 3, &[1.0, 2.0]);
        assert_eq!(sparse[0].sum, 1.0);
        assert_eq!(sparse[1], AggState::EMPTY);
        assert_eq!(sparse[2], AggState::EMPTY);
    }
}
