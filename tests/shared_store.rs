//! Concurrency suite for the serving layer: one [`SharedViewStore`]
//! hammered from many reader threads, with and without faults, and with a
//! writer applying deltas mid-flight.
//!
//! The invariants:
//!
//! * readers never see a torn or silently wrong answer — every successful
//!   answer equals *some* consistent snapshot of the store (before or after
//!   an in-flight delta), bit for bit;
//! * failures are typed storage faults, never panics;
//! * the cache never serves a value from a snapshot other than the one the
//!   lock-protected store currently holds.

use statcube::core::error::Error;
use statcube::core::plan::{PlanSource, PlannerConfig, PrivacyPolicy};
use statcube::cube::cache::CacheConfig;
use statcube::cube::groupby::{self, Cuboid};
use statcube::cube::input::FactInput;
use statcube::cube::shared::SharedViewStore;
use statcube::storage::page_store::FaultPlan;

fn facts(seed: u64, rows: usize) -> FactInput {
    let mut f = FactInput::new(&[8, 4, 2]).unwrap();
    let mut x = seed.wrapping_mul(0x9E37_79B9).max(1);
    for _ in 0..rows {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f.push(&[(x % 8) as u32, ((x >> 8) % 4) as u32, ((x >> 16) % 2) as u32], (x % 100) as f64)
            .unwrap();
    }
    f
}

fn bit_identical(a: &Cuboid, b: &Cuboid) -> bool {
    a.len() == b.len()
        && a.iter().all(|(k, sa)| {
            b.get(k).is_some_and(|sb| {
                sa.sum.to_bits() == sb.sum.to_bits()
                    && sa.count == sb.count
                    && sa.min.to_bits() == sb.min.to_bits()
                    && sa.max.to_bits() == sb.max.to_bits()
            })
        })
}

/// Eight reader threads, one store, mixed cuboid and cell queries, faults
/// armed for part of the run: every answer is oracle-exact or a typed
/// error, and the run ends with a healthy cache.
#[test]
fn eight_threads_hammer_one_store_under_faults() {
    let f = facts(11, 400);
    let store = SharedViewStore::build(&f, &[0b011, 0b110], CacheConfig::default()).unwrap();
    let oracle: Vec<Cuboid> = (0..8u32).map(|m| groupby::from_facts(&f, m)).collect();

    store.arm_faults(FaultPlan::uniform(99, 0.05));
    std::thread::scope(|s| {
        for t in 0..8usize {
            let store = store.clone();
            let oracle = &oracle;
            s.spawn(move || {
                for i in 0..200usize {
                    let mask = ((i * 5 + t) % 8) as u32;
                    match store.answer(mask) {
                        Ok(ans) => assert!(
                            bit_identical(&ans.cuboid, &oracle[mask as usize]),
                            "thread {t} iter {i} mask {mask:03b}: wrong answer"
                        ),
                        Err(
                            Error::ChecksumMismatch { .. }
                            | Error::RetriesExhausted { .. }
                            | Error::NoHealthySource { .. },
                        ) => {}
                        Err(e) => panic!("thread {t}: untyped error {e:?}"),
                    }
                    // Every 8th probe goes through the cell path.
                    if i % 8 == 0 {
                        let d0 = (i % 8) as u32;
                        if let Ok(cell) = store.answer_cell(&[Some(d0), None, None]) {
                            let key: Box<[u32]> = vec![d0].into_boxed_slice();
                            let want = oracle[0b001].get(&key);
                            match (cell.state, want) {
                                (Some(got), Some(want)) => {
                                    assert_eq!(got.sum.to_bits(), want.sum.to_bits());
                                    assert_eq!(got.count, want.count);
                                }
                                (None, None) => {}
                                other => panic!("thread {t}: cell mismatch {other:?}"),
                            }
                        }
                    }
                }
            });
        }
    });
    store.disarm_faults();

    let s = store.cache_stats();
    assert!(s.hits + s.misses >= 8 * 200, "every cuboid query probes the cache");
    assert!(s.hits > 0, "a hammered store must produce hits");
    // After disarming, the store settles back to clean cached serving.
    let a = store.answer(0b000).unwrap();
    assert!(bit_identical(&a.cuboid, &oracle[0]));
    assert!(store.answer(0b000).unwrap().cache_hit);
}

/// Readers race a writer applying deltas: every read answer must be
/// bit-identical to one of the store's committed snapshots (0, 1, or 2
/// deltas applied) — the `RwLock` + epoch invalidation make anything else
/// impossible — and after the writer finishes, reads serve the final total.
#[test]
fn readers_race_a_delta_writer_and_see_only_committed_snapshots() {
    let f = facts(21, 300);
    let store = SharedViewStore::build(&f, &[0b011], CacheConfig::default()).unwrap();

    // Snapshots: oracle cuboids with 0, 1, and 2 deltas folded in.
    let mut snapshots: Vec<Vec<Cuboid>> = Vec::new();
    let mut combined = FactInput::new(f.cards()).unwrap();
    for row in 0..f.len() {
        combined.push(&f.coords(row), f.measure()[row]).unwrap();
    }
    snapshots.push((0..8u32).map(|m| groupby::from_facts(&combined, m)).collect());
    let deltas: Vec<(Vec<u32>, f64)> = vec![(vec![1, 1, 1], 10_000.0), (vec![2, 3, 0], 20_000.0)];
    for (coords, v) in &deltas {
        combined.push(coords, *v).unwrap();
        snapshots.push((0..8u32).map(|m| groupby::from_facts(&combined, m)).collect());
    }

    // Prime the cache so the first delta demonstrably clears live entries.
    for mask in 0..8u32 {
        store.answer(mask).unwrap();
    }

    std::thread::scope(|s| {
        // Writer: applies the two deltas with a little work in between.
        {
            let store = store.clone();
            let deltas = deltas.clone();
            s.spawn(move || {
                for (coords, v) in &deltas {
                    for _ in 0..50 {
                        std::hint::spin_loop();
                    }
                    let mut d = FactInput::new(&[8, 4, 2]).unwrap();
                    d.push(coords, *v).unwrap();
                    store.apply_delta(&d).unwrap();
                }
            });
        }
        // Readers: every answer must match one committed snapshot exactly.
        for t in 0..7usize {
            let store = store.clone();
            let snapshots = &snapshots;
            s.spawn(move || {
                for i in 0..300usize {
                    let mask = ((i + t) % 8) as u32;
                    let ans = store.answer(mask).unwrap();
                    let matched = snapshots
                        .iter()
                        .any(|snap| bit_identical(&ans.cuboid, &snap[mask as usize]));
                    assert!(
                        matched,
                        "thread {t} iter {i} mask {mask:03b}: answer matches no committed snapshot"
                    );
                }
            });
        }
    });

    // Quiesced: reads serve the final snapshot, from cache on repeat.
    let last = snapshots.last().unwrap();
    for mask in 0..8u32 {
        let a = store.answer(mask).unwrap();
        assert!(bit_identical(&a.cuboid, &last[mask as usize]), "mask {mask:03b} final total");
    }
    assert!(store.answer(0b000).unwrap().cache_hit);
    let stats = store.cache_stats();
    assert!(stats.invalidations > 0, "deltas must have cleared the cache");
}

/// Snapshot isolation, structurally: a pinned [`StoreSnapshot`] (and a
/// plan source holding one) kept open across `apply_delta` blocks nothing —
/// under the old reader-lock design the writer would deadlock right here —
/// and afterwards the pinned snapshot still serves its own epoch's totals
/// while the store serves the new ones.
#[test]
fn pinned_snapshots_serve_their_epoch_and_never_block_the_writer() {
    let f = facts(31, 300);
    let store = SharedViewStore::build(&f, &[0b011], CacheConfig::default()).unwrap();
    let before = groupby::from_facts(&f, 0b000);

    let snap = store.snapshot();
    assert_eq!(snap.generation(), 0);
    // A plan source pins a snapshot too; holding it across the delta is the
    // no-blocking property in its most direct form.
    let src = store.plan_source();

    let mut d = FactInput::new(f.cards()).unwrap();
    d.push(&[7, 3, 1], 10_000.0).unwrap();
    store.apply_delta(&d).unwrap();
    assert_eq!(store.generation(), 1);
    drop(src);

    // The pinned snapshot answers from the pre-delta epoch, bit for bit.
    let old = snap.store().answer(0b000).unwrap();
    assert!(bit_identical(&old.cuboid, &before), "pinned snapshot must keep its epoch");
    assert_eq!(snap.generation(), 0);

    // A fresh read sees the post-delta world.
    let mut combined = FactInput::new(f.cards()).unwrap();
    for row in 0..f.len() {
        combined.push(&f.coords(row), f.measure()[row]).unwrap();
    }
    combined.push(&[7, 3, 1], 10_000.0).unwrap();
    let new = store.answer(0b000).unwrap();
    assert!(bit_identical(&new.cuboid, &groupby::from_facts(&combined, 0b000)));
}

/// Targeted invalidation: after a delta, cell entries whose coordinates
/// don't intersect the batch survive and still hit with unchanged values;
/// touched cells and whole-cuboid entries miss and recompute to post-delta
/// values; policy-fingerprinted entries drop and re-key correctly.
#[test]
fn untouched_cache_entries_survive_a_delta_and_still_hit() {
    let f = facts(41, 400);
    let store = SharedViewStore::build(&f, &[0b011, 0b101], CacheConfig::default()).unwrap();

    // Prime a cell entry per d0 slice, every cuboid, and one strict-policy
    // answer under its own fingerprint.
    for d0 in 0..8u32 {
        store.answer_cell(&[Some(d0), None, None]).unwrap();
    }
    for mask in 0..8u32 {
        store.answer(mask).unwrap();
    }
    let policy = PrivacyPolicy::suppress(2);
    store.answer_with_policy(0b011, &policy, PlannerConfig::default()).unwrap();
    assert!(store.answer_cell(&[Some(0), None, None]).unwrap().cache_hit);
    assert!(store.answer_with_policy(0b011, &policy, PlannerConfig::default()).unwrap().cache_hit);
    let before_untouched =
        store.answer_cell(&[Some(0), None, None]).unwrap().state.expect("slice 0 is populated");

    // The delta touches only base cells with d0 == 5.
    let mut d = FactInput::new(f.cards()).unwrap();
    d.push(&[5, 2, 1], 40_000.0).unwrap();
    store.apply_delta(&d).unwrap();

    // Untouched slice: survived the delta, still hits, value unchanged.
    let untouched = store.answer_cell(&[Some(0), None, None]).unwrap();
    assert!(untouched.cache_hit, "untouched cell entry must survive the delta");
    let after = untouched.state.unwrap();
    assert_eq!(after.sum.to_bits(), before_untouched.sum.to_bits());
    assert_eq!(after.count, before_untouched.count);

    // Touched slice: dropped, recomputed to the post-delta value.
    let mut combined = FactInput::new(f.cards()).unwrap();
    for row in 0..f.len() {
        combined.push(&f.coords(row), f.measure()[row]).unwrap();
    }
    combined.push(&[5, 2, 1], 40_000.0).unwrap();
    let touched = store.answer_cell(&[Some(5), None, None]).unwrap();
    assert!(!touched.cache_hit, "touched cell entry must be invalidated");
    let want = groupby::from_facts(&combined, 0b001);
    let key: Box<[u32]> = vec![5].into_boxed_slice();
    assert_eq!(touched.state.unwrap().sum.to_bits(), want[&key].sum.to_bits());

    // Whole-cuboid entries (their grand totals moved): all recomputed.
    let total = store.answer(0b000).unwrap();
    assert!(!total.cache_hit, "cuboid entries must drop on a non-empty delta");
    assert!(bit_identical(&total.cuboid, &groupby::from_facts(&combined, 0b000)));

    // The strict-policy entry dropped with them and re-keys under the same
    // fingerprint on the next enforcement.
    let p = store.answer_with_policy(0b011, &policy, PlannerConfig::default()).unwrap();
    assert!(!p.cache_hit, "policy-keyed entry must drop after the delta");
    assert!(store.answer_with_policy(0b011, &policy, PlannerConfig::default()).unwrap().cache_hit);

    // Survival repeats: each fold re-pins the untouched entries to its own
    // epoch, so a run of deltas confined to slice 5 keeps every other slice
    // hitting throughout.
    for round in 0..5u32 {
        let mut d = FactInput::new(f.cards()).unwrap();
        d.push(&[5, round % 4, round % 2], 1_000.0).unwrap();
        store.apply_delta(&d).unwrap();
        for d0 in (0..8u32).filter(|&d0| d0 != 5) {
            assert!(
                store.answer_cell(&[Some(d0), None, None]).unwrap().cache_hit,
                "slice {d0}'s entry was dropped by untouched delta {round}"
            );
        }
    }
}

/// N readers, one writer, generation arithmetic: each of 20 published
/// deltas adds exactly 10 000 to the grand total, so a reader's pinned
/// `(store, generation)` pair must satisfy
/// `total == base + generation × 10 000` *exactly* — a half-applied fold,
/// a torn publication, or an inconsistent snapshot pair would break the
/// equality — and the d0 marginal of the same snapshot must sum to the
/// same total (cross-cuboid consistency within one epoch).
#[test]
fn readers_observe_whole_generations_while_a_writer_streams_deltas() {
    let f = facts(51, 300);
    let store = SharedViewStore::build(&f, &[0b011], CacheConfig::default()).unwrap();
    let base_total: f64 = f.measure().iter().sum();
    const DELTAS: u64 = 20;
    const PER_DELTA: f64 = 10_000.0;

    std::thread::scope(|s| {
        {
            let store = store.clone();
            s.spawn(move || {
                for k in 0..DELTAS {
                    let mut d = FactInput::new(&[8, 4, 2]).unwrap();
                    d.push(&[(k % 8) as u32, (k % 4) as u32, (k % 2) as u32], PER_DELTA).unwrap();
                    store.apply_delta(&d).unwrap();
                }
            });
        }
        for t in 0..8usize {
            let store = store.clone();
            s.spawn(move || {
                let mut last_gen = 0u64;
                for i in 0..150usize {
                    let snap = store.snapshot();
                    let g = snap.generation();
                    assert!(g >= last_gen, "thread {t} iter {i}: generation went backwards");
                    last_gen = g;
                    let total = snap.store().answer(0b000).unwrap();
                    let got = total.cuboid.values().next().map_or(0.0, |s| s.sum);
                    let want = base_total + g as f64 * PER_DELTA;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "thread {t} iter {i}: generation {g} snapshot serves a torn total"
                    );
                    let marginal = snap.store().answer(0b001).unwrap();
                    let m: f64 = marginal.cuboid.values().map(|s| s.sum).sum();
                    assert_eq!(
                        m.to_bits(),
                        want.to_bits(),
                        "thread {t} iter {i}: marginal disagrees with its own snapshot's total"
                    );
                }
            });
        }
    });
    assert_eq!(store.generation(), DELTAS);
}

/// Regression (epoch laundering): a reader still pinned to a *pre-delta*
/// snapshot can admit an answer after that delta's invalidation pass has
/// already run. The entry carries the old epoch, so lazy probing catches it
/// — but a later fold whose batch misses the entry's cells (here: an empty
/// heal batch, which keeps everything) used to blindly re-pin the entry to
/// the live epoch, laundering the pre-delta value into a fresh-looking hit
/// served indefinitely. `invalidate_delta` must drop any survivor whose
/// epoch is not the immediate pre-fold one instead.
#[test]
fn stale_snapshot_admits_are_dropped_not_laundered_by_later_deltas() {
    let f = facts(61, 300);
    let store = SharedViewStore::build(&f, &[0b011], CacheConfig::default()).unwrap();

    // A late reader pins the pre-delta snapshot and computes its answer.
    let late_reader = store.plan_source();
    let pre = PlanSource::load(&late_reader, 0b011).unwrap();

    // The delta lands; its targeted invalidation pass completes.
    let mut d = FactInput::new(f.cards()).unwrap();
    d.push(&[1, 1, 1], 10_000.0).unwrap();
    store.apply_delta(&d).unwrap();

    // Only now does the late reader admit what it computed: a pre-delta
    // value pinned to the pre-delta epoch, replacing any fresher entry.
    late_reader.admit(0b011, 0b011, pre.scanned, &pre.cells, false);
    drop(late_reader);

    // A fold that keeps every entry must not re-pin the stale admit.
    store.apply_delta(&FactInput::new(f.cards()).unwrap()).unwrap();

    let mut combined = FactInput::new(f.cards()).unwrap();
    for row in 0..f.len() {
        combined.push(&f.coords(row), f.measure()[row]).unwrap();
    }
    combined.push(&[1, 1, 1], 10_000.0).unwrap();
    let ans = store.answer(0b011).unwrap();
    assert!(!ans.cache_hit, "the stale admit must have been dropped, not re-pinned");
    assert!(
        bit_identical(&ans.cuboid, &groupby::from_facts(&combined, 0b011)),
        "a pre-delta value must never be served after the delta"
    );
    // The recomputed (fresh) answer caches and hits normally again.
    assert!(store.answer(0b011).unwrap().cache_hit);
}
