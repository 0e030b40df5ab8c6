//! Kernel-differential CI gate: the batched executor must equal the frozen
//! tuple-at-a-time interpreter **bit for bit**.
//!
//! [`plan::execute`] runs the fused batch kernels of `core::plan::kernels`;
//! [`plan::execute_interpreter`] is the historical tuple-at-a-time
//! implementation, frozen as the differential oracle (the same discipline
//! as the rebuild oracle of the delta-maintenance gate). This suite replays
//! both over identical sources and asserts byte-identical answers — keys,
//! aggregation-state bits, suppression verdicts, routing, and enforcement
//! counters — across:
//!
//! * all five workload generators (census, retail, stocks, HMO, resources);
//! * every summary function (COUNT, SUM, AVG, MIN, MAX);
//! * privacy policies off and on (suppression + tracker guard,
//!   perturbation);
//! * the compressed storage organizations' aggregation kernels (RLE runs,
//!   bit-sliced selection bitmaps, dense columns) against scalar oracles.
//!
//! Measures are quantized to integer-valued doubles first: integer f64
//! addition below 2^53 is exact, so every accumulation order produces the
//! same bits and the bit-for-bit contract is sound even though the oracle
//! aggregates in hash-map order.

use statcube::core::measure::{AggState, SummaryFunction};
use statcube::core::object::StatisticalObject;
use statcube::core::ops;
use statcube::core::plan::{
    self, AggRequest, GroupingSpec, ObjectSource, Plan, PlanExecution, PlanPredicate, Planner,
    PrivacyPolicy,
};
use statcube::storage::prelude::*;
use statcube::workload::prelude::*;
use statcube::workload::{census, hmo, resources, retail, stocks};

/// Rebuilds `obj` with every measure value rounded to an integer (one
/// micro unit per cell), preserving schema, hierarchies, and key
/// distribution while making float addition exact.
fn quantized(obj: &StatisticalObject) -> StatisticalObject {
    let mut out = StatisticalObject::empty(obj.schema().clone());
    for (coords, states) in obj.cells() {
        let values: Vec<f64> = states.iter().map(|s| s.sum.round()).collect();
        out.insert_ids(coords, &values).expect("same schema");
    }
    out
}

/// The five quantized workload objects, smallest useful sizes.
fn workloads() -> Vec<(&'static str, StatisticalObject)> {
    let retail = retail::generate(&RetailConfig {
        products: 8,
        categories: 3,
        cities: 2,
        stores_per_city: 2,
        days: 15,
        rows: 600,
        seed: 41,
    });
    let census =
        census::generate(&CensusConfig { states: 3, counties_per_state: 3, rows: 700, seed: 42 });
    let census_obj = census
        .micro
        .summarize(
            &["state", "sex", "race"],
            Some("income"),
            SummaryFunction::Sum,
            statcube::core::measure::MeasureKind::Flow,
        )
        .expect("summarize");
    let stocks = stocks::generate(&StocksConfig { stocks: 6, industries: 2, weeks: 3, seed: 43 });
    let hmo = hmo::generate(&HmoConfig { hospitals: 3, months: 4, rows: 500, seed: 44 });
    let resources = resources::generate(&ResourcesConfig {
        basins: 2,
        rivers_per_basin: 2,
        stations_per_river: 2,
        months: 6,
        seed: 45,
    });
    vec![
        ("retail", quantized(&retail.object)),
        ("census", quantized(&census_obj)),
        ("stocks", quantized(&stocks.object)),
        ("hmo", quantized(&hmo.object)),
        ("resources", quantized(&resources.object)),
    ]
}

/// Plans `p` over `obj` under `policy` and executes it through both the
/// batched kernels and the frozen interpreter, over the same source.
fn both(
    obj: &StatisticalObject,
    p: &Plan,
    policy: PrivacyPolicy,
) -> (PlanExecution, PlanExecution) {
    let planned = Planner::for_object(obj.schema()).with_policy(policy).plan(p).expect("plan");
    let mut base = obj.clone();
    for pr in &planned.leaf_predicates {
        base = ops::s_select_ids(&base, pr.dim, &pr.allowed).expect("select");
    }
    for r in &planned.leaf_rollups {
        base = ops::s_aggregate(&base, &r.dim_name, &r.level).expect("rollup");
    }
    for (d, dim) in obj.schema().dimensions().iter().enumerate() {
        if planned.base_mask() >> d & 1 == 0 {
            base = ops::s_project_unchecked(&base, dim.name()).expect("project");
        }
    }
    let src = ObjectSource::new(&base, planned.base_mask()).expect("source");
    let batched = plan::execute(&planned, &src).expect("batched executor");
    let oracle = plan::execute_interpreter(&planned, &src).expect("interpreter oracle");
    (batched, oracle)
}

/// Byte-identical comparison: every key, every state bit, every flag.
fn assert_bit_identical(batched: &PlanExecution, oracle: &PlanExecution, label: &str) {
    assert_eq!(batched.sets.len(), oracle.sets.len(), "{label}: set count");
    for (a, b) in batched.sets.iter().zip(&oracle.sets) {
        let t = a.target;
        assert_eq!(a.target, b.target, "{label}: target");
        assert_eq!(a.source, b.source, "{label} {t:#b}: routing diverged");
        assert_eq!(a.keep, b.keep, "{label} {t:#b}: keep mask");
        let (ba, bb) = (&a.cells, &b.cells);
        assert_eq!(ba.key_width(), bb.key_width(), "{label} {t:#b}: key width");
        assert_eq!(ba.measure_count(), bb.measure_count(), "{label} {t:#b}: measures");
        assert_eq!(ba.len(), bb.len(), "{label} {t:#b}: cell count");
        for i in 0..ba.len() {
            assert_eq!(ba.key(i), bb.key(i), "{label} {t:#b} row {i}: key");
            assert_eq!(
                ba.is_suppressed(i),
                bb.is_suppressed(i),
                "{label} {t:#b} row {i}: suppression"
            );
            for m in 0..ba.measure_count() {
                let (x, y) = (ba.state(m, i), bb.state(m, i));
                assert_eq!(x.count, y.count, "{label} {t:#b} row {i} m{m}: count");
                assert_eq!(
                    x.sum.to_bits(),
                    y.sum.to_bits(),
                    "{label} {t:#b} row {i} m{m}: sum bits ({} vs {})",
                    x.sum,
                    y.sum
                );
                assert_eq!(x.min.to_bits(), y.min.to_bits(), "{label} {t:#b} row {i} m{m}: min");
                assert_eq!(x.max.to_bits(), y.max.to_bits(), "{label} {t:#b} row {i} m{m}: max");
            }
        }
    }
    assert_eq!(
        batched.enforcement.suppressed, oracle.enforcement.suppressed,
        "{label}: suppression count"
    );
    assert_eq!(
        batched.enforcement.complementary, oracle.enforcement.complementary,
        "{label}: complementary count"
    );
    assert_eq!(
        batched.enforcement.perturbed, oracle.enforcement.perturbed,
        "{label}: perturbed count"
    );
}

/// Per-object plan mix: CUBE with a pushed-down predicate (prefix and hash
/// derivations plus the apex), an unfiltered CUBE over up to three
/// dimensions, ROLLUP, and a single non-prefix grouping (dimension 1 alone
/// always takes the hash path).
fn plans_for(obj: &StatisticalObject) -> Vec<Plan> {
    let dims: Vec<String> = obj.schema().dimensions().iter().map(|d| d.name().to_owned()).collect();
    let aggs: Vec<AggRequest> = obj
        .schema()
        .measures()
        .iter()
        .enumerate()
        .map(|(i, m)| AggRequest {
            func: obj.schema().function(i),
            measure: Some(m.name().to_owned()),
            label: m.name().to_owned(),
        })
        .collect();
    let member = obj.schema().dimensions()[0].members().values().next().expect("member").to_owned();
    let n = dims.len().min(3);
    vec![
        Plan::scan(obj.schema().name())
            .select(vec![PlanPredicate::eq(dims[0].clone(), member)])
            .grouping_sets(dims[..2].to_vec(), GroupingSpec::Cube, aggs.clone()),
        Plan::scan(obj.schema().name()).grouping_sets(
            dims[..n].to_vec(),
            GroupingSpec::Cube,
            aggs.clone(),
        ),
        Plan::scan(obj.schema().name()).grouping_sets(
            dims[..n].to_vec(),
            GroupingSpec::Rollup,
            aggs.clone(),
        ),
        Plan::scan(obj.schema().name()).grouping_sets(
            vec![dims[1].clone()],
            GroupingSpec::Single,
            aggs,
        ),
    ]
}

#[test]
fn batched_executor_equals_interpreter_on_all_five_workloads() {
    for (label, obj) in workloads() {
        for (pi, p) in plans_for(&obj).iter().enumerate() {
            let (batched, oracle) = both(&obj, p, PrivacyPolicy::none());
            assert_bit_identical(&batched, &oracle, &format!("{label}/plan{pi}"));
        }
    }
}

#[test]
fn batched_executor_equals_interpreter_under_privacy_policies() {
    let policies = [
        ("suppress", PrivacyPolicy::suppress(5)),
        ("tracker", PrivacyPolicy::suppress(5).with_tracker_guard()),
        ("perturbed", PrivacyPolicy::suppress(3).with_perturbation(0.5, 17)),
    ];
    for (label, obj) in workloads() {
        for p in plans_for(&obj).iter().take(1) {
            for (pname, policy) in &policies {
                let (batched, oracle) = both(&obj, p, policy.clone());
                assert_bit_identical(&batched, &oracle, &format!("{label}/{pname}"));
            }
        }
    }
}

#[test]
fn every_summary_function_round_trips_through_both_paths() {
    let retail = retail::generate(&RetailConfig {
        products: 6,
        categories: 2,
        cities: 2,
        stores_per_city: 2,
        days: 10,
        rows: 400,
        seed: 46,
    });
    let obj = quantized(&retail.object);
    let measure = obj.schema().measures()[0].name().to_owned();
    let aggs: Vec<AggRequest> = [
        (SummaryFunction::Count, None),
        (SummaryFunction::Sum, Some(measure.clone())),
        (SummaryFunction::Avg, Some(measure.clone())),
        (SummaryFunction::Min, Some(measure.clone())),
        (SummaryFunction::Max, Some(measure)),
    ]
    .into_iter()
    .map(|(func, measure)| AggRequest { func, measure, label: format!("{func:?}") })
    .collect();
    let dims: Vec<String> = obj.schema().dimensions().iter().map(|d| d.name().to_owned()).collect();
    let p =
        Plan::scan(obj.schema().name()).grouping_sets(dims[..2].to_vec(), GroupingSpec::Cube, aggs);
    let (batched, oracle) = both(&obj, &p, PrivacyPolicy::none());
    assert_bit_identical(&batched, &oracle, "retail/all-functions");
    // And the rendered values agree per function, not just the raw states.
    let planned = Planner::for_object(obj.schema()).plan(&p).expect("plan");
    let set = &batched.sets[0];
    for i in 0..set.cells.len() {
        for (m, agg) in planned.aggs.iter().enumerate().take(set.cells.measure_count()) {
            let a = set.cells.value(agg.measure, i, agg.func);
            let b = oracle.sets[0].cells.value(agg.measure, i, agg.func);
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "row {i} slot {m}");
        }
    }
}

/// One measure column per workload, in dictionary-code order, plus the
/// dimension-0 codes that group it.
fn columns() -> Vec<(&'static str, Vec<u32>, u32, Vec<f64>)> {
    workloads()
        .into_iter()
        .map(|(label, obj)| {
            let mut rows: Vec<(Vec<u32>, f64)> =
                obj.cells().map(|(coords, states)| (coords.to_vec(), states[0].sum)).collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            let codes: Vec<u32> = rows.iter().map(|(k, _)| k[0]).collect();
            let card = obj.schema().dimensions()[0].members().len() as u32;
            let values: Vec<f64> = rows.iter().map(|&(_, v)| v).collect();
            (label, codes, card, values)
        })
        .collect()
}

/// Scalar oracle for the storage kernels: a plain merge loop.
fn scalar_aggregate(values: impl IntoIterator<Item = f64>) -> AggState {
    let mut s = AggState::EMPTY;
    for v in values {
        s.merge(&AggState::from_value(v));
    }
    s
}

#[test]
fn rle_kernel_matches_decoded_scan_on_workload_columns() {
    for (label, _, _, values) in columns() {
        let rle = Rle::encode(&values);
        let oracle = scalar_aggregate(values.iter().copied());
        assert_eq!(aggregate_runs(rle.runs()), oracle, "{label}: run-aware");
        assert_eq!(aggregate_dense(&values), oracle, "{label}: dense");
        for chunk_rows in [1usize, 64, 2048] {
            assert_eq!(
                aggregate_chunks(dense_chunks(&values, chunk_rows)),
                oracle,
                "{label}: dense chunks of {chunk_rows}"
            );
        }
        assert_eq!(aggregate_chunks(run_chunks(&rle, 7)), oracle, "{label}: run chunks");
        // Sorted, the same column collapses into long runs.
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(aggregate_runs(Rle::encode(&sorted).runs()), oracle, "{label}: sorted runs");
    }
}

#[test]
fn bit_sliced_selection_matches_scalar_filter_on_workload_columns() {
    for (label, codes, card, values) in columns() {
        let bits = 32 - card.max(2).next_power_of_two().leading_zeros();
        let col = BitSlicedColumn::build(&codes, bits).expect("build");
        let io = IoStats::new(DEFAULT_PAGE_SIZE);
        for member in [0, card / 2, card.saturating_sub(1)] {
            let bitmap = col.eq_scan(member, &io);
            let oracle = scalar_aggregate(
                values.iter().zip(&codes).filter(|(_, &c)| c == member).map(|(&v, _)| v),
            );
            assert_eq!(filtered_aggregate(&values, &bitmap), oracle, "{label}: member {member}");
        }
    }
}

#[test]
fn grouped_kernel_matches_per_group_scalar_on_workload_columns() {
    for (label, codes, card, values) in columns() {
        let grouped = group_aggregate(&codes, card as usize, &values);
        for g in 0..card {
            let oracle = scalar_aggregate(
                values.iter().zip(&codes).filter(|(_, &c)| c == g).map(|(&v, _)| v),
            );
            assert_eq!(grouped[g as usize], oracle, "{label}: group {g}");
        }
    }
}
