//! The metric registry (names, units, directions, bounds), one workload's
//! report, and the text forms it is printed in: a table for people, one JSON
//! line for the driver, and `BENCHMARK.json` itself.

use std::fmt::Write as _;

use crate::stats;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. `failed_share` is the eleventh: it is 0 on every
/// workload by construction, so it travels as `failed` / `attempted` in the
/// result line (any failure fails the run) rather than as a bounded ratio.
///
/// The bounds are the issue's, except for rates and medians (15 %, not 10 %)
/// and `setup_s` (25 %, not 20 %). The README's "Measured noise" table gives
/// the spreads over sets of ten seeds on this 2-core shared box that they are
/// set by; the driver refuses a benchmark whose spread exceeds its bound and
/// asks for a third of it.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "query_ops_s", unit: "1/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "query_p50_us", unit: "us", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "query_p99_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ingest_rows_s", unit: "rows/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "ingest_batch_p50_ms", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "ingest_batch_p95_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "recover_ms", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd {
        name: "stored_bytes_per_fact_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.10 },
];

/// A per-layer metric of the traced run. No bound: it explains a movement,
/// it does not gate one.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, outside in. Times are mean µs per replayed
/// operation unless the name says otherwise; a layer a workload never
/// enters reports 0.
pub const PER_LAYER: [PerLayer; 39] = [
    layer("sql.parser.parse_us", "us", Lower),
    layer("core.plan.planner.plan_us", "us", Lower),
    layer("cube.cache.hit_ratio", "ratio", Higher),
    layer("cube.cache.evictions", "count", Lower),
    layer("cube.shared.answer_hit_us", "us", Lower),
    layer("cube.query.load_us", "us", Lower),
    layer("storage.page_store.pages_read_per_query", "count", Lower),
    layer("storage.page_store.read_us", "us", Lower),
    layer("core.plan.kernels.derive_us", "us", Lower),
    layer("core.plan.kernels.cells_scanned_per_query", "count", Lower),
    layer("core.plan.kernels.cells_per_row_returned", "ratio", Lower),
    layer("core.plan.enforce.enforce_us", "us", Lower),
    layer("core.plan.enforce.suppressed_per_query", "count", Lower),
    layer("core.plan.exec.render_us", "us", Lower),
    layer("core.plan.exec.rows_per_query", "count", Lower),
    layer("cube.sharded.plan_shards_us", "us", Lower),
    layer("cube.sharded.scatter_us", "us", Lower),
    layer("cube.sharded.shard_skew", "ratio", Lower),
    layer("core.plan.kernels.merge_us", "us", Lower),
    layer("cube.sharded.pruned_ratio", "ratio", Higher),
    layer("cube.sharded.pruned_p50_us", "us", Lower),
    layer("cube.sharded.scatter_p50_us", "us", Lower),
    layer("cube.query.validate_us", "us", Lower),
    layer("cube.durable.encode_us", "us", Lower),
    layer("storage.wal.append_us", "us", Lower),
    layer("storage.wal.journal_bytes_per_row", "B/row", Lower),
    layer("cube.query.fold_ms", "ms", Lower),
    layer("cube.query.fold_ms.b20", "ms", Lower),
    layer("cube.query.fold_ms.b2000", "ms", Lower),
    layer("storage.page_store.sealed_bytes_per_delta_row", "B/row", Lower),
    layer("cube.shared.publish_us", "us", Lower),
    layer("cube.shared.writer_late_p95_ms", "ms", Lower),
    layer("cube.shared.reader_late_p95_us", "us", Lower),
    layer("cube.durable.snapshot_decode_ms", "ms", Lower),
    layer("cube.durable.replay_rows_s", "rows/s", Higher),
    layer("cube.query.build_ms", "ms", Lower),
    layer("storage.page_store.stored_bytes", "B", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// The per-layer counts that must repeat exactly between two runs of one
/// build on one seed (`--check-repeat`).
pub const EXACT_COUNTS: [&str; 5] = [
    "core.plan.kernels.cells_scanned_per_query",
    "storage.wal.journal_bytes_per_row",
    "storage.page_store.sealed_bytes_per_delta_row",
    "storage.page_store.stored_bytes",
    "cube.sharded.pruned_ratio",
];

/// A workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "warm_sql",
        why: "Zipf over eight unfiltered SQL strings on a 16 MiB cache: every answer is a hit, so \
              parser, plan cache, answer cache and render memo are the work; kernels idle.",
    },
    WorkloadInfo {
        name: "cold_scan",
        why: "Seven SQL statements round-robin with the cache disabled under suppress(3): every \
              query pays plan, load, derive_block, enforce and row rendering.",
    },
    WorkloadInfo {
        name: "sharded_scatter",
        why: "Four hash shards on product: two shard-key slices pruned to one shard per \
              unfiltered statement scattered to four threads and merged, enforced once.",
    },
    WorkloadInfo {
        name: "ingest_mixed",
        why: "Durable store: closed-loop 200-row deltas, then paced writes beside a paced Zipf \
              reader timed from due time, then recovery checked bit-for-bit against a rebuild.",
    },
];

/// The run length `BENCHMARK.json` asks the driver for, and the default of
/// `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// Sample count behind a percentile or a median, when there is one.
    pub n: Option<u64>,
    /// Remarks printed beside the value (rule violations, validity).
    pub note: String,
}

impl Value {
    pub fn new(name: &'static str, value: f64) -> Self {
        Self { name, value, n: None, note: String::new() }
    }

    pub fn with_n(mut self, n: u64) -> Self {
        self.n = Some(n);
        self
    }

    /// A named percentile over `n` samples; notes when fewer than ten
    /// samples lie beyond it and which percentile the sample supports.
    pub fn percentile(name: &'static str, value: f64, p: f64, n: u64) -> Self {
        let mut v = Self::new(name, value).with_n(n);
        if !stats::is_honest(n, p) {
            let supported =
                stats::honest_percentile(n).map_or("none".to_owned(), |h| format!("p{h}"));
            v.note = format!(
                "only {} samples beyond p{p}; the sample supports {supported}",
                stats::samples_beyond(n, p)
            );
        }
        v
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub dataset: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Value>,
    pub per_layer: Vec<Value>,
    /// FNV digests of the generated inputs and operation streams.
    pub digests: Vec<(&'static str, u64)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The table a person reads: every metric by name and unit, sample
    /// counts beside percentiles, and the core count beside everything.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} · dataset {} · seed {} · {:.1} s measured · nproc {}",
            self.workload, self.dataset, self.seed, self.seconds, self.nproc
        );
        if let Some(w) = WORKLOADS.iter().find(|w| w.name == self.workload) {
            let _ = writeln!(out, "  {}", w.why);
        }
        let line = |out: &mut String, v: &Value, unit: &str, better: Better| {
            let n = v.n.map_or(String::new(), |n| format!("n={n}"));
            let _ = writeln!(
                out,
                "  {:<48} {:>16.4} {:<7} {:<6} {:<10} {}",
                v.name,
                v.value,
                unit,
                better.as_str(),
                n,
                v.note
            );
        };
        let _ = writeln!(out, "end-to-end (engine tracing off; unit, better):");
        for v in &self.end_to_end {
            if let Some(m) = END_TO_END.iter().find(|m| m.name == v.name) {
                line(&mut out, v, m.unit, m.better);
            }
        }
        let _ = writeln!(
            out,
            "  {:<48} {:>16.4} {:<7} {:<6} {} failed of {} attempted",
            "failed_share",
            self.failed_share(),
            "ratio",
            "lower",
            self.failed,
            self.attempted
        );
        if !self.per_layer.is_empty() {
            let _ = writeln!(out, "per-layer (staged replay, spans recorded by the benchmark):");
            for v in &self.per_layer {
                if let Some(m) = PER_LAYER.iter().find(|m| m.name == v.name) {
                    line(&mut out, v, m.unit, m.better);
                }
            }
        }
        for (name, digest) in &self.digests {
            let _ = writeln!(out, "digest {name} {digest:016x}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// The driver's result line: the end-to-end metrics untraced, the
    /// per-layer metrics traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.per_layer } else { &self.end_to_end };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, v) in metrics.iter().enumerate() {
            let unit = unit_of(v.name);
            let sep = if i == 0 { "" } else { ", " };
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}", v.name);
        }
        out.push_str("}}");
        out
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

/// A parsed result line: `(name, value)` per metric, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl ParsedResult {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses a line written by [`Report::result_line`] (not JSON in general).
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let correct = field(line, "\"correct\": ")? == "true";
    let attempted = field(line, "\"attempted\": ")?.parse().ok()?;
    let failed = field(line, "\"failed\": ")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for part in body.split("\"unit\"") {
        let Some(value_at) = part.rfind("\"value\": ") else { continue };
        let value: f64 =
            part[value_at + "\"value\": ".len()..].trim_end_matches([',', ' ']).parse().ok()?;
        let head = &part[..value_at];
        let name_end = head.rfind("\": {")?;
        let name_start = head[..name_end].rfind('"')? + 1;
        metrics.push((head[name_start..name_end].to_owned(), value));
    }
    Some(ParsedResult { correct, attempted, failed, metrics })
}

/// `BENCHMARK.json` as the registry defines it; a unit test keeps the
/// committed file equal to this.
#[cfg(test)]
fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            workload: "warm_sql",
            dataset: "retail_smoke",
            seed: 11,
            seconds: 1.0,
            nproc: 2,
            attempted: 1000,
            failed: 0,
            end_to_end: vec![
                Value::new("setup_s", 0.8127),
                Value::percentile("query_p99_us", 12.5, 99.0, 400),
            ],
            per_layer: vec![Value::new("trace.coverage", 0.97)],
            digests: vec![("facts", 0xABCD)],
            notes: vec![],
        }
    }

    #[test]
    fn result_line_round_trips() {
        let r = report();
        let line = r.result_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.get("setup_s"), Some(0.8127));
        assert_eq!(parsed.get("query_p99_us"), Some(12.5));
        let traced = parse_result_line(&r.result_line(true)).unwrap();
        assert_eq!(traced.metrics, vec![("trace.coverage".to_owned(), 0.97)]);
    }

    #[test]
    fn a_thin_percentile_says_so() {
        let v = Value::percentile("query_p99_us", 1.0, 99.0, 400);
        assert!(v.note.contains("only 4 samples beyond p99"), "{}", v.note);
        assert!(v.note.contains("supports p95"), "{}", v.note);
        assert!(Value::percentile("query_p99_us", 1.0, 99.0, 1000).note.is_empty());
        assert!(report().render().contains("n=400"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(ok(n, "_.-"), "name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for m in END_TO_END {
            assert!(m.unit.len() <= 16 && ok(m.unit, "_/%.-"), "unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(m.unit.len() <= 16 && ok(m.unit, "_/%.-"), "unit {}", m.unit);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == name));
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        // The test runs from the package root — `crates/bench` or this
        // directory — so walk up to the checkout root.
        let start = std::env::current_dir().unwrap();
        let file = start
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repository root");
        assert_eq!(std::fs::read_to_string(file).unwrap(), benchmark_json());
    }
}
