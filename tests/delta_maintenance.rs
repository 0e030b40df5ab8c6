//! Differential maintenance suite: incremental [`ViewStore::apply_delta`]
//! must equal a full [`ViewStore::build`] **bit for bit**, across every
//! materialized cuboid and every answerable mask, for
//!
//! * all five workload generators (census, retail, stocks, HMO, resources),
//! * repeated identical deltas,
//! * empty deltas (a reseal that changes no logical content),
//! * deltas introducing previously-unseen dimension values (lattice
//!   growth),
//! * rejected deltas, which must provably mutate nothing.
//!
//! Bit-for-bit is meaningful because every measure is integerized (workload
//! sums are rounded to cents): integer-valued `f64` sums are exact under
//! any association, so the fold's different merge grouping cannot shift an
//! ulp relative to the rebuild. Same rationale as the chaos suite.

use std::collections::HashMap;

use statcube::core::error::Error;
use statcube::core::measure::{AggState, MeasureKind, SummaryFunction};
use statcube::core::object::StatisticalObject;
use statcube::cube::groupby::Cuboid;
use statcube::cube::input::FactInput;
use statcube::cube::query::ViewStore;
use statcube::workload::prelude::*;
use statcube::workload::{census, hmo, resources, retail, stocks};

/// Facts from any statistical object, first measure only, integerized to
/// cents so `f64` summation is exact (multi-measure objects like stocks and
/// resources can't go through `FactInput::from_object`).
fn integer_facts(obj: &StatisticalObject) -> FactInput {
    let mut f = FactInput::new(&obj.schema().cardinalities()).unwrap();
    for (coords, states) in obj.cells() {
        f.push(coords, (states[0].sum * 100.0).round()).unwrap();
    }
    f
}

/// The sub-batch of rows `[start, end)`, over the given cardinalities
/// (which may exceed the source's — the growth tests redeclare them).
fn slice_with_cards(f: &FactInput, cards: &[usize], start: usize, end: usize) -> FactInput {
    let mut out = FactInput::new(cards).unwrap();
    for row in start..end {
        out.push(&f.coords(row), f.measure()[row]).unwrap();
    }
    out
}

fn slice(f: &FactInput, start: usize, end: usize) -> FactInput {
    slice_with_cards(f, f.cards(), start, end)
}

fn bit_identical_state(a: &AggState, b: &AggState) -> bool {
    a.sum.to_bits() == b.sum.to_bits()
        && a.count == b.count
        && a.min.to_bits() == b.min.to_bits()
        && a.max.to_bits() == b.max.to_bits()
}

fn bit_identical(a: &Cuboid, b: &Cuboid) -> bool {
    a.len() == b.len()
        && a.iter().all(|(k, sa)| b.get(k).is_some_and(|sb| bit_identical_state(sa, sb)))
}

/// The differential assertion: the incrementally maintained store and a
/// store rebuilt from scratch agree bit-for-bit on every materialized
/// cuboid, on every answerable mask (through the sealed/planned path), and
/// both verify clean.
fn assert_equivalent(inc: &ViewStore, rebuilt: &ViewStore, label: &str) {
    assert_eq!(inc.materialized(), rebuilt.materialized(), "{label}: materialized sets differ");
    assert_eq!(inc.lattice().cards(), rebuilt.lattice().cards(), "{label}: cards differ");
    for mask in inc.materialized() {
        let a = inc.view(mask).unwrap();
        let b = rebuilt.view(mask).unwrap();
        assert!(bit_identical(a, b), "{label}: materialized view {mask:#b} differs from rebuild");
    }
    for mask in 0..=inc.lattice().top() {
        let a = inc.answer(mask).unwrap();
        let b = rebuilt.answer(mask).unwrap();
        assert!(a.degraded.is_none(), "{label}: degraded incremental answer for {mask:#b}");
        assert!(
            bit_identical(&a.cuboid, &b.cuboid),
            "{label}: answer for mask {mask:#b} differs from rebuild"
        );
    }
    assert!(inc.verify_all().unwrap().is_clean(), "{label}: incremental store fails verification");
}

/// Splits `facts` into a base load plus `batches` deltas, applies each
/// delta incrementally, and after every application compares against a
/// from-scratch rebuild of everything loaded so far.
fn differential(label: &str, facts: &FactInput, batches: usize) {
    let n = facts.dim_count();
    let selected: Vec<u32> = (0..n).map(|d| 1u32 << d).collect();
    let rows = facts.len();
    assert!(rows > batches * 2, "{label}: workload too small ({rows} rows)");
    let base_rows = rows * 2 / 3;
    let mut store = ViewStore::build(&slice(facts, 0, base_rows), &selected).unwrap();
    let step = (rows - base_rows).div_ceil(batches);
    let mut end = base_rows;
    let mut batch = 0;
    while end < rows {
        let next = (end + step).min(rows);
        let delta = slice(facts, end, next);
        let report = store.apply_delta(&delta).unwrap();
        assert_eq!(report.rows as usize, next - end, "{label}: batch {batch} row count");
        assert!(report.cells_touched > 0, "{label}: batch {batch} touched no cells");
        let rebuilt = ViewStore::build(&slice(facts, 0, next), &selected).unwrap();
        assert_equivalent(&store, &rebuilt, &format!("{label} batch {batch}"));
        end = next;
        batch += 1;
    }
    assert_eq!(batch, batches, "{label}: expected {batches} delta batches");
}

/// Deterministic 3-dim integer workload (same shape as the chaos suite).
fn synthetic(seed: u64, rows: usize) -> FactInput {
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

/// The headline property over all five generators: incremental maintenance
/// is bit-identical to a rebuild after every one of three delta batches.
#[test]
fn incremental_equals_rebuild_across_all_five_generators() {
    let retail = retail::generate(&RetailConfig {
        products: 8,
        categories: 3,
        cities: 2,
        stores_per_city: 2,
        days: 15,
        rows: 600,
        seed: 11,
    });
    differential("retail", &integer_facts(&retail.object), 3);

    let census =
        census::generate(&CensusConfig { states: 3, counties_per_state: 3, rows: 800, seed: 12 });
    let census_obj = census
        .micro
        .summarize(
            &["state", "sex", "race"],
            Some("income"),
            SummaryFunction::Sum,
            MeasureKind::Flow,
        )
        .unwrap();
    differential("census", &integer_facts(&census_obj), 3);

    let stocks = stocks::generate(&StocksConfig { stocks: 6, industries: 2, weeks: 3, seed: 13 });
    differential("stocks", &integer_facts(&stocks.object), 3);

    let hmo = hmo::generate(&HmoConfig { hospitals: 3, months: 4, rows: 500, seed: 14 });
    differential("hmo", &integer_facts(&hmo.object), 3);

    let resources = resources::generate(&ResourcesConfig {
        basins: 2,
        rivers_per_basin: 2,
        stations_per_river: 2,
        months: 6,
        seed: 15,
    });
    differential("resources", &integer_facts(&resources.object), 3);
}

/// Applying the same delta twice must equal a rebuild over base + delta +
/// delta: the fold is a monoid action, not an idempotent overwrite.
#[test]
fn repeated_identical_deltas_accumulate_like_a_rebuild() {
    let base = synthetic(21, 300);
    let delta = synthetic(22, 40);
    let mut store = ViewStore::build(&base, &[0b011, 0b101]).unwrap();
    store.apply_delta(&delta).unwrap();
    store.apply_delta(&delta).unwrap();

    let mut combined = slice(&base, 0, base.len());
    for rep in 0..2 {
        let _ = rep;
        for row in 0..delta.len() {
            combined.push(&delta.coords(row), delta.measure()[row]).unwrap();
        }
    }
    let rebuilt = ViewStore::build(&combined, &[0b011, 0b101]).unwrap();
    assert_equivalent(&store, &rebuilt, "repeated delta");
}

/// An empty delta changes no logical content but still reseals every view
/// with a bumped epoch (the chaos suite relies on this to land torn writes).
#[test]
fn empty_deltas_reseal_without_changing_content() {
    let base = synthetic(31, 250);
    let mut store = ViewStore::build(&base, &[0b110]).unwrap();
    let epochs_before: HashMap<u32, u64> =
        store.materialized().iter().map(|&m| (m, store.view_epoch(m).unwrap())).collect();

    let report = store.apply_delta(&FactInput::new(base.cards()).unwrap()).unwrap();
    assert_eq!(report.rows, 0);
    assert_eq!(report.cells_touched, 0);
    assert!(report.touched_base.is_empty());

    let rebuilt = ViewStore::build(&base, &[0b110]).unwrap();
    assert_equivalent(&store, &rebuilt, "empty delta");
    for (&mask, &before) in &epochs_before {
        assert_eq!(
            store.view_epoch(mask),
            Some(before + 1),
            "empty delta must bump view {mask:#b}'s epoch exactly once"
        );
    }
}

/// A delta declaring larger cardinalities grows the lattice to the
/// element-wise maximum and stays bit-identical to a rebuild at the grown
/// shape.
#[test]
fn growth_deltas_grow_the_lattice_and_match_a_rebuild() {
    let mut base = FactInput::new(&[3, 3]).unwrap();
    for (coords, v) in [([0u32, 0u32], 5.0), ([1, 2], 7.0), ([2, 1], 11.0), ([0, 2], 13.0)] {
        base.push(&coords, v).unwrap();
    }
    let mut store = ViewStore::build(&base, &[0b01, 0b10]).unwrap();

    // The delta's own cards declare the growth: dim 0 gains 2 indices,
    // dim 1 gains 1, and rows land in the previously-unseen region.
    let mut delta = FactInput::new(&[5, 4]).unwrap();
    for (coords, v) in [([4u32, 3u32], 17.0), ([3, 0], 19.0), ([4, 3], 23.0), ([1, 1], 29.0)] {
        delta.push(&coords, v).unwrap();
    }
    store.apply_delta(&delta).unwrap();
    assert_eq!(store.lattice().cards(), vec![5, 4]);

    let mut combined = slice_with_cards(&base, &[5, 4], 0, base.len());
    for row in 0..delta.len() {
        combined.push(&delta.coords(row), delta.measure()[row]).unwrap();
    }
    let rebuilt = ViewStore::build(&combined, &[0b01, 0b10]).unwrap();
    assert_equivalent(&store, &rebuilt, "growth delta");
}

/// The growth path on a real generator workload: unseen coordinate values
/// arrive in a delta against a census summary and the store still matches
/// a rebuild at the grown cardinalities.
#[test]
fn growth_delta_on_a_generator_workload() {
    let census =
        census::generate(&CensusConfig { states: 3, counties_per_state: 2, rows: 500, seed: 23 });
    let obj = census
        .micro
        .summarize(
            &["state", "sex", "race"],
            Some("income"),
            SummaryFunction::Sum,
            MeasureKind::Flow,
        )
        .unwrap();
    let facts = integer_facts(&obj);
    let n = facts.dim_count();
    let selected: Vec<u32> = (0..n).map(|d| 1u32 << d).collect();
    let mut store = ViewStore::build(&facts, &selected).unwrap();

    // A new state (index = old cardinality) appears in the delta.
    let mut grown_cards = facts.cards().to_vec();
    grown_cards[0] += 1;
    let mut delta = FactInput::new(&grown_cards).unwrap();
    let mut coords = vec![0u32; n];
    coords[0] = (grown_cards[0] - 1) as u32;
    delta.push(&coords, 123_400.0).unwrap();
    store.apply_delta(&delta).unwrap();

    let mut combined = slice_with_cards(&facts, &grown_cards, 0, facts.len());
    combined.push(&coords, 123_400.0).unwrap();
    let rebuilt = ViewStore::build(&combined, &selected).unwrap();
    assert_equivalent(&store, &rebuilt, "census growth delta");
}

/// The validation bugfix, as a regression test: a delta rejected mid-batch
/// (non-finite measure, wrong arity) must leave the store completely
/// untouched — same views, same epochs, same answers. Validation runs
/// fully up-front, so there is no half-applied state and no reseal.
#[test]
fn rejected_deltas_mutate_nothing() {
    let base = synthetic(41, 280);
    let mut store = ViewStore::build(&base, &[0b011, 0b101]).unwrap();
    let epochs_before: HashMap<u32, u64> =
        store.materialized().iter().map(|&m| (m, store.view_epoch(m).unwrap())).collect();
    let views_before: HashMap<u32, Cuboid> =
        store.materialized().iter().map(|&m| (m, store.view(m).unwrap().clone())).collect();

    // Valid rows surround the poison row: without up-front validation the
    // first row would already be folded in when the NaN is discovered.
    let mut nan_delta = FactInput::new(base.cards()).unwrap();
    nan_delta.push(&[1, 1, 1], 50.0).unwrap();
    nan_delta.push(&[2, 2, 0], f64::NAN).unwrap();
    nan_delta.push(&[3, 3, 1], 60.0).unwrap();
    let err = store.apply_delta(&nan_delta).unwrap_err();
    assert!(
        matches!(&err, Error::InvalidSchema(m) if m.contains("row 1") && m.contains("non-finite")),
        "unexpected error for NaN measure: {err:?}"
    );

    let mut inf_delta = FactInput::new(base.cards()).unwrap();
    inf_delta.push(&[0, 0, 0], f64::INFINITY).unwrap();
    assert!(matches!(store.apply_delta(&inf_delta), Err(Error::InvalidSchema(_))));

    let arity_delta = FactInput::new(&[8, 4]).unwrap();
    assert!(matches!(
        store.apply_delta(&arity_delta),
        Err(Error::ArityMismatch { expected: 3, got: 2 })
    ));

    // Nothing moved: views, epochs, and answers all match the pre-reject
    // state and a from-scratch rebuild of the base.
    for (&mask, before) in &views_before {
        assert!(bit_identical(store.view(mask).unwrap(), before), "view {mask:#b} mutated");
    }
    for (&mask, &before) in &epochs_before {
        assert_eq!(store.view_epoch(mask), Some(before), "view {mask:#b} was resealed");
    }
    let rebuilt = ViewStore::build(&base, &[0b011, 0b101]).unwrap();
    assert_equivalent(&store, &rebuilt, "rejected deltas");

    // And the store still accepts a valid delta afterwards.
    let mut ok = FactInput::new(base.cards()).unwrap();
    ok.push(&[1, 1, 1], 50.0).unwrap();
    store.apply_delta(&ok).unwrap();
    let mut combined = slice(&base, 0, base.len());
    combined.push(&[1, 1, 1], 50.0).unwrap();
    let rebuilt = ViewStore::build(&combined, &[0b011, 0b101]).unwrap();
    assert_equivalent(&store, &rebuilt, "delta after rejections");
}
