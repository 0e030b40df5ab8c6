//! # statcube-bench
//!
//! The experiment harness regenerating every figure and surveyed claim of
//! Shoshani (PODS 1997): `cargo run -p statcube-bench --release --bin
//! experiments -- <expNN|all>` prints, for each experiment in DESIGN.md's
//! index, the table whose *shape* the paper reports (who wins, by what
//! factor, where crossovers fall).
//!
//! Every experiment module exposes `run() -> String` and is unit-tested on
//! its qualitative claim, so `cargo test` already guards the shapes.
//! End-to-end performance is measured in one place only: the `benchmark`
//! binary (`src/bin/benchmark`, see its README).

#![warn(missing_docs)]

pub mod report;

/// One module per experiment of DESIGN.md's per-experiment index.
pub mod exps {
    pub mod exp01;
    pub mod exp02;
    pub mod exp03;
    pub mod exp04;
    pub mod exp05;
    pub mod exp06;
    pub mod exp07;
    pub mod exp08;
    pub mod exp09;
    pub mod exp10;
    pub mod exp11;
    pub mod exp12;
    pub mod exp13;
    pub mod exp14;
    pub mod exp15;
    pub mod exp16;
    pub mod exp17;
    pub mod exp18;
    pub mod exp19;
    pub mod exp20;
    pub mod exp21;
    pub mod exp22;
    pub mod exp23;
    pub mod exp24;
    pub mod exp26;
}

/// One experiment: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// All experiments of DESIGN.md's index, in order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("exp01", "2-D statistical table with marginals (Figs 1, 9)", exps::exp01::run),
        ("exp02", "the retail data cube (Fig 2)", exps::exp02::run),
        ("exp03", "STORM schema graphs (Figs 3-7)", exps::exp03::run),
        ("exp04", "summarizability verdicts (Fig 8, §3.3.2)", exps::exp04::run),
        ("exp05", "flat relation vs star schema (Figs 10, 11)", exps::exp05::run),
        ("exp06", "SDB ↔ OLAP correspondence (Figs 12, 14)", exps::exp06::run),
        ("exp07", "automatic aggregation (Fig 13)", exps::exp07::run),
        ("exp08", "the CUBE operator (Fig 15)", exps::exp08::run),
        ("exp09", "completeness homomorphism (Fig 16)", exps::exp09::run),
        ("exp10", "classification matching (Fig 17)", exps::exp10::run),
        ("exp11", "transposed files vs row store (Fig 18)", exps::exp11::run),
        ("exp12", "encoding, RLE, bit-transposed files (Fig 19)", exps::exp12::run),
        ("exp13", "array linearization (Fig 20)", exps::exp13::run),
        ("exp14", "header compression (Fig 21)", exps::exp14::run),
        ("exp15", "greedy view materialization (Fig 22)", exps::exp15::run),
        ("exp16", "subcube partitioning (Fig 23)", exps::exp16::run),
        ("exp17", "extendible arrays (Fig 24)", exps::exp17::run),
        ("exp18", "MOLAP vs ROLAP (§6.6)", exps::exp18::run),
        ("exp19", "privacy (§7)", exps::exp19::run),
        ("exp20", "sampling and higher statistics (§5.6)", exps::exp20::run),
        ("exp21", "SQL extensions for OLAP (§5.4)", exps::exp21::run),
        ("exp22", "partition-parallel CUBE speedup curve", exps::exp22::run),
        ("exp23", "degradation cost under injected faults", exps::exp23::run),
        ("exp24", "query-profile observability (spans + metrics)", exps::exp24::run),
        ("exp26", "planner rewrite ablation — cells scanned on retail", exps::exp26::run),
    ]
}
