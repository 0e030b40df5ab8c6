//! Extendible arrays (§6.5, Fig 24, \[RZ86\]).
//!
//! Data warehouses append over time (daily loads), but a linearized array's
//! position function bakes in the dimension sizes — growing a dimension
//! normally means restructuring (rewriting) the whole array. \[RZ86\] instead
//! appends an *increment segment* per extension and keeps an index over the
//! increments, so an append writes only the new cells. Lookup: each index
//! along each dimension remembers which extension event introduced it; a
//! cell lives in the **most recent** of the events that introduced any of
//! its indices, and is linearized with the dimension sizes frozen at that
//! event.

use statcube_core::error::{Error, Result};

use crate::btree::BPlusTree;
use crate::io_stats::IoStats;

#[derive(Debug)]
struct Segment {
    /// Which dimension this extension grew (the initial allocation is
    /// recorded as an extension of dimension 0 from index 0).
    dim: usize,
    /// First index of `dim` covered by this segment.
    start: usize,
    /// Full array shape frozen at creation, with `shape[dim]` = this
    /// segment's extent along `dim`.
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Segment {
    fn offset(&self, coords: &[usize]) -> usize {
        // Row-major over `shape`, with `dim` re-based to `start`.
        let mut off = 0;
        for (d, &c) in coords.iter().enumerate() {
            let c = if d == self.dim { c - self.start } else { c };
            off = off * self.shape[d] + c;
        }
        off
    }
}

/// A multidimensional array supporting O(increment) appends along any
/// dimension.
#[derive(Debug)]
pub struct ExtendibleArray {
    dims: Vec<usize>,
    segments: Vec<Segment>,
    /// `axis[d]` maps each index of dimension `d` to the segment
    /// (extension event) that introduced it; stored as a B-tree
    /// `index → segment id` per dimension, as \[RZ86\]'s tree-based index of
    /// the multidimensional increments.
    axis: Vec<BPlusTree>,
    io: IoStats,
}

impl ExtendibleArray {
    /// Allocates the initial array.
    pub fn new(initial: &[usize], page_size: usize) -> Result<Self> {
        if initial.is_empty() || initial.contains(&0) {
            return Err(Error::InvalidSchema("array needs non-zero dimensions".into()));
        }
        let seg = Segment {
            dim: 0,
            start: 0,
            shape: initial.to_vec(),
            data: vec![f64::NAN; initial.iter().product()],
        };
        let mut axis = Vec::with_capacity(initial.len());
        for &n in initial {
            let mut t = BPlusTree::new();
            // All initial indices belong to segment 0; one range entry
            // suffices since lookups use last_le.
            t.insert(0, 0);
            let _ = n;
            axis.push(t);
        }
        let io = IoStats::labeled(page_size, "extendible");
        io.charge_seq_write(seg.data.len() * 8);
        Ok(Self { dims: initial.to_vec(), segments: vec![seg], axis, io })
    }

    /// Current logical shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The I/O counters.
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// Number of increment segments (including the initial allocation).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total cells across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.data.len()).sum()
    }

    /// True if the array holds no cells (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * 8
    }

    /// Bytes a full restructure (dense reallocation + copy) of the current
    /// shape would write — the cost \[RZ86\] avoids.
    pub fn restructure_bytes(&self) -> usize {
        self.dims.iter().product::<usize>() * 8
    }

    /// Appends `k` new indices to dimension `dim`, writing only the new
    /// hyperslab.
    pub fn extend(&mut self, dim: usize, k: usize) -> Result<()> {
        if dim >= self.dims.len() {
            return Err(Error::InvalidSchema(format!("dimension {dim} out of range")));
        }
        if k == 0 {
            return Err(Error::InvalidSchema("extension must add at least one index".into()));
        }
        let mut shape = self.dims.clone();
        shape[dim] = k;
        let seg_id = self.segments.len() as u64;
        let seg = Segment {
            dim,
            start: self.dims[dim],
            shape: shape.clone(),
            data: vec![f64::NAN; shape.iter().product()],
        };
        self.io.charge_seq_write(seg.data.len() * 8);
        self.axis[dim].insert(self.dims[dim] as u64, seg_id);
        self.dims[dim] += k;
        self.segments.push(seg);
        Ok(())
    }

    fn locate(&self, coords: &[usize]) -> Result<usize> {
        if coords.len() != self.dims.len() {
            return Err(Error::ArityMismatch { expected: self.dims.len(), got: coords.len() });
        }
        let mut seg = 0u64;
        for (d, &c) in coords.iter().enumerate() {
            if c >= self.dims[d] {
                return Err(Error::InvalidSchema(format!(
                    "coordinate {c} out of range {}",
                    self.dims[d]
                )));
            }
            // Every axis tree is seeded with key 0 at construction, so
            // `last_le` cannot miss; fall back to segment 0 regardless.
            let s = self.axis[d].last_le(c as u64).map_or(0, |(_, s)| s);
            seg = seg.max(s);
        }
        Ok(seg as usize)
    }

    /// Writes a cell.
    pub fn set(&mut self, coords: &[usize], v: f64) -> Result<()> {
        let s = self.locate(coords)?;
        let off = self.segments[s].offset(coords);
        self.segments[s].data[off] = v;
        Ok(())
    }

    /// Reads a cell.
    pub fn get(&self, coords: &[usize]) -> Result<Option<f64>> {
        let s = self.locate(coords)?;
        let off = self.segments[s].offset(coords);
        let v = self.segments[s].data[off];
        Ok(if v.is_nan() { None } else { Some(v) })
    }

    /// Range query over the half-open region `[lo, hi)`: sum and count.
    /// Charges one read per distinct segment touched (the increment index
    /// makes segments the I/O unit for range queries, \[RZ86\] §access
    /// methods).
    pub fn range_sum(&self, lo: &[usize], hi: &[usize]) -> Result<(f64, u64)> {
        if lo.len() != self.dims.len() || hi.len() != self.dims.len() {
            return Err(Error::ArityMismatch { expected: self.dims.len(), got: lo.len() });
        }
        for d in 0..self.dims.len() {
            if hi[d] > self.dims[d] {
                return Err(Error::InvalidSchema(format!(
                    "range end {} out of range {}",
                    hi[d], self.dims[d]
                )));
            }
            if hi[d] <= lo[d] {
                return Ok((0.0, 0));
            }
        }
        let mut touched = vec![false; self.segments.len()];
        let mut sum = 0.0;
        let mut count = 0u64;
        let mut cursor = lo.to_vec();
        'cells: loop {
            let s = self.locate(&cursor)?;
            if !touched[s] {
                touched[s] = true;
                self.io.charge_seq_read(self.segments[s].data.len() * 8);
            }
            let off = self.segments[s].offset(&cursor);
            let v = self.segments[s].data[off];
            if !v.is_nan() {
                sum += v;
                count += 1;
            }
            for d in (0..self.dims.len()).rev() {
                cursor[d] += 1;
                if cursor[d] < hi[d] {
                    continue 'cells;
                }
                cursor[d] = lo[d];
                if d == 0 {
                    break 'cells;
                }
            }
        }
        Ok((sum, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_array_behaves_like_dense() {
        let mut a = ExtendibleArray::new(&[3, 4], 4096).unwrap();
        for i in 0..3 {
            for j in 0..4 {
                a.set(&[i, j], (i * 4 + j) as f64).unwrap();
            }
        }
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(a.get(&[i, j]).unwrap(), Some((i * 4 + j) as f64));
            }
        }
        assert_eq!(a.segment_count(), 1);
        assert!(a.get(&[3, 0]).is_err());
    }

    #[test]
    fn extend_one_dimension() {
        let mut a = ExtendibleArray::new(&[2, 2], 4096).unwrap();
        a.set(&[1, 1], 11.0).unwrap();
        a.extend(0, 2).unwrap(); // rows 2..4
        assert_eq!(a.dims(), &[4, 2]);
        a.set(&[3, 1], 31.0).unwrap();
        assert_eq!(a.get(&[1, 1]).unwrap(), Some(11.0)); // old data intact
        assert_eq!(a.get(&[3, 1]).unwrap(), Some(31.0));
        assert_eq!(a.get(&[2, 0]).unwrap(), None);
        assert_eq!(a.segment_count(), 2);
    }

    #[test]
    fn interleaved_extensions_of_different_dimensions() {
        // The Fig 24 shape: grow several dimensions alternately.
        let mut a = ExtendibleArray::new(&[2, 2], 4096).unwrap();
        let mut reference = std::collections::HashMap::new();
        let mut put = |a: &mut ExtendibleArray, i: usize, j: usize, v: f64| {
            a.set(&[i, j], v).unwrap();
            reference.insert((i, j), v);
        };
        put(&mut a, 0, 0, 1.0);
        put(&mut a, 1, 1, 2.0);
        a.extend(1, 3).unwrap(); // cols 2..5
        put(&mut a, 0, 4, 3.0);
        a.extend(0, 2).unwrap(); // rows 2..4 (covering cols 0..5)
        put(&mut a, 3, 4, 4.0);
        put(&mut a, 2, 0, 5.0);
        a.extend(1, 1).unwrap(); // col 5 (covering rows 0..4)
        put(&mut a, 3, 5, 6.0);
        put(&mut a, 0, 5, 7.0);
        assert_eq!(a.dims(), &[4, 6]);
        assert_eq!(a.segment_count(), 4);
        for i in 0..4 {
            for j in 0..6 {
                assert_eq!(
                    a.get(&[i, j]).unwrap(),
                    reference.get(&(i, j)).copied(),
                    "cell ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn append_writes_only_the_increment() {
        let mut a = ExtendibleArray::new(&[100, 100], 4096).unwrap();
        let after_init = a.io().pages_written();
        a.extend(0, 1).unwrap(); // one new row: 100 cells = 800 B = 1 page
        let append_pages = a.io().pages_written() - after_init;
        assert_eq!(append_pages, 1);
        // A restructure would rewrite the whole 101×100 array.
        assert_eq!(a.restructure_bytes(), 101 * 100 * 8);
        assert!(append_pages < a.io().pages_of(a.restructure_bytes()));
    }

    #[test]
    fn range_sum_matches_naive_and_charges_segments() {
        let mut a = ExtendibleArray::new(&[4, 4], 4096).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                a.set(&[i, j], (i * 10 + j) as f64).unwrap();
            }
        }
        a.extend(0, 2).unwrap();
        for i in 4..6 {
            for j in 0..4 {
                a.set(&[i, j], (i * 10 + j) as f64).unwrap();
            }
        }
        a.io().reset();
        let (sum, count) = a.range_sum(&[3, 1], &[6, 3]).unwrap();
        let expected: f64 = [31, 32, 41, 42, 51, 52].iter().sum::<i32>() as f64;
        assert_eq!(sum, expected);
        assert_eq!(count, 6);
        // Touches the initial segment and the increment: 2 segment reads.
        assert_eq!(a.io().pages_read(), 2);
        // Degenerate range.
        assert_eq!(a.range_sum(&[2, 2], &[2, 4]).unwrap(), (0.0, 0));
        assert!(a.range_sum(&[0, 0], &[7, 2]).is_err());
    }

    #[test]
    fn construction_and_extension_errors() {
        assert!(ExtendibleArray::new(&[], 4096).is_err());
        assert!(ExtendibleArray::new(&[0, 2], 4096).is_err());
        let mut a = ExtendibleArray::new(&[2], 4096).unwrap();
        assert!(a.extend(1, 1).is_err());
        assert!(a.extend(0, 0).is_err());
        assert!(a.set(&[0, 0], 1.0).is_err());
    }

    #[test]
    fn many_daily_appends() {
        // The warehouse pattern: one new "day" slice per load.
        let mut a = ExtendibleArray::new(&[50, 1], 4096).unwrap();
        for day in 1..=30 {
            a.extend(1, 1).unwrap();
            for product in 0..50 {
                a.set(&[product, day], (product * day) as f64).unwrap();
            }
        }
        assert_eq!(a.dims(), &[50, 31]);
        assert_eq!(a.segment_count(), 31);
        assert_eq!(a.get(&[7, 13]).unwrap(), Some(91.0));
        let (sum, _) = a.range_sum(&[0, 30], &[50, 31]).unwrap();
        assert_eq!(sum, (0..50).map(|p| p * 30).sum::<usize>() as f64);
    }
}
