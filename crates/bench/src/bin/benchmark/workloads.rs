//! The four pinned workloads. Each runs in a process of its own (so
//! `peak_rss_mb` is that workload's), with all load from at most two
//! threads:
//!
//! * the three SQL workloads time their statement stream in a closed loop
//!   with one client for the whole of `--seconds`;
//! * `ingest_mixed` appends to a durable store in a closed loop (phase A),
//!   then runs a paced writer beside a paced reader (phase B), then checks
//!   and times recovery (phase C).
//!
//! The driver's contract wants every end-to-end metric from every workload,
//! so the SQL workloads end with the same phase C, after their measured time
//! and after `peak_rss_mb` is read, and take the write-side metrics from its
//! sixteen batches (README, "The driver's contract").
//!
//! A traced run (`--traced`) halves the measured phases and spends the rest
//! replaying the first operations of the workload in staged form.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::gen::{self, DeltaStream, Names, Rows, Shape, StatementStream};
use crate::pace::{self, Schedule};
use crate::report::{Report, Value, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{self, LatencyLog, WindowedLatency, Windows, WINDOWS};
use crate::sut::{
    self, span, Cache, DurableStore, Facts, MirrorStore, Object, Policy, ScratchJournal,
    ShardedSql, SqlDoor, SqlSession, SutError, Tally,
};

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub shape: Shape,
    pub seed: u64,
    /// Seconds of measurement (`--seconds`).
    pub seconds: f64,
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
}

/// Rows per delta batch.
const BATCH_ROWS: usize = 200;

/// Phase B rates: 5 publishes and 500 reads a second over eight masks, so
/// at most 8 % of reads are the first read of their mask after a publish
/// and p99 sits inside that class.
const WRITER_BATCHES_PER_SEC: f64 = 5.0;
const READER_QUERIES_PER_SEC: f64 = 500.0;

/// Batches a fresh store acknowledges before phase C recovers it.
const RECOVERY_BATCHES: usize = 16;

/// Batches the SQL workloads' phase C times after those (the store is then
/// dropped; recovery sees the first sixteen), so that the batch metrics they
/// carry rest on 48 samples, not 16.
const TAIL_EXTRA_BATCHES: usize = 32;

/// Builds per set-up (the median is reported).
const SETUP_BUILDS: usize = 5;

type Outcome<T> = Result<T, String>;

fn sut_err(e: SutError) -> String {
    format!("system under test: {e}")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Outcome<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Failures and attempts over a whole run.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// One timed closed-loop phase.
struct Phase {
    latency: WindowedLatency,
    windows: Windows,
    attempted: u64,
    failed: u64,
}

/// One client, next operation only after the previous one completed.
/// `prepare` makes operation `i`'s input outside the timed region; `op` is
/// timed and returns (units of work, ok). The warm-up runs the same stream
/// and is not measured.
fn closed_loop<P>(
    warmup: Duration,
    measure: Duration,
    mut prepare: impl FnMut(u64) -> P,
    mut op: impl FnMut(P) -> (u64, bool),
) -> Phase {
    let mut i = 0u64;
    let warm_end = Instant::now() + warmup;
    while Instant::now() < warm_end {
        op(prepare(i));
        i += 1;
    }
    let start = Instant::now();
    let end = start + measure;
    let mut phase = Phase {
        latency: WindowedLatency::new(start, measure),
        windows: Windows::new(start, measure),
        attempted: 0,
        failed: 0,
    };
    loop {
        let input = prepare(i);
        let began = Instant::now();
        if began >= end {
            return phase;
        }
        let (units, ok) = op(input);
        let done = Instant::now();
        i += 1;
        phase.latency.record(done, (done - began).as_nanos() as u64);
        phase.windows.add(began, done, units);
        phase.attempted += 1;
        phase.failed += u64::from(!ok);
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The generated inputs of a run.
struct Inputs {
    names: Names,
    facts: Rows,
}

fn inputs(cfg: &Config) -> Inputs {
    Inputs { names: Names::of(&cfg.shape), facts: gen::facts(&cfg.shape, cfg.seed) }
}

/// Set-up repeated [`SETUP_BUILDS`] times — generate, then build — keeping
/// the last build. Returns it with the median set-up time in seconds.
fn set_up<T>(
    cfg: &Config,
    mut build: impl FnMut(&Inputs) -> Outcome<T>,
) -> Outcome<(Inputs, T, f64)> {
    let mut whole = Vec::with_capacity(SETUP_BUILDS);
    let mut last = None;
    for _ in 0..SETUP_BUILDS {
        // Drop the previous build first: only one store is ever resident.
        drop(last.take());
        let t = Instant::now();
        let generated = inputs(cfg);
        let built = build(&generated)?;
        whole.push(t.elapsed().as_secs_f64());
        last = Some((generated, built));
    }
    let (generated, built) = last.ok_or("no set-up build ran")?;
    Ok((generated, built, stats::median(&whole)))
}

fn stored_ratio(stored_bytes: u64, shape: &Shape) -> f64 {
    stored_bytes as f64 / shape.fact_bytes() as f64
}

/// Phase A: seeded batches applied in a closed loop by one writer.
fn ingest_phase(
    cfg: &Config,
    facts: &Rows,
    measure: Duration,
    mut apply: impl FnMut(&Facts) -> bool,
) -> Outcome<(Phase, u64)> {
    let mut stream = DeltaStream::new(&cfg.shape, facts, cfg.seed, "ingest_mixed.a", BATCH_ROWS);
    let digest = stream.digest(16);
    let shape = cfg.shape;
    let mut next = move || sut::fact_input(&shape, &stream.next_batch()).map_err(sut_err);
    // Two unmeasured batches warm the allocator and the fold's code paths.
    for _ in 0..2 {
        apply(&next()?);
    }
    let mut broken = None;
    let phase = closed_loop(
        Duration::ZERO,
        measure,
        |_| next().map_err(|e| broken = Some(e)).ok(),
        |batch| (BATCH_ROWS as u64, batch.is_some_and(|b| apply(&b))),
    );
    match broken {
        Some(e) => Err(e),
        None => Ok((phase, digest)),
    }
}

/// A latency percentile of a closed-loop query phase: the median window's,
/// with the order statistic over all samples pooled printed beside it. The
/// driver's contract asks for steadiness "by measuring more work in a run
/// and reporting medians", and on this box the pooled p99 of a microsecond
/// operation spreads 11–27 % between identical runs (README).
fn query_percentile(name: &'static str, latency: &mut WindowedLatency, p: f64) -> Value {
    let pooled = us(latency.pooled().percentile_ns(p));
    let mut v = Value::percentile(name, us(latency.median_window_ns(p)), p, latency.thinnest());
    let thin = std::mem::take(&mut v.note);
    v.note = format!(
        "median of {WINDOWS} windows, n the thinnest; all {} samples pooled: {pooled:.4} us",
        latency.n()
    );
    if !thin.is_empty() {
        v.note = format!("{}; {thin}", v.note);
    }
    v
}

/// The three write-side metrics from a rate and the batch latencies.
fn ingest_values(rows_per_sec: f64, batches: &mut LatencyLog) -> Vec<Value> {
    let n = batches.n();
    vec![
        Value::new("ingest_rows_s", rows_per_sec).with_n(n),
        Value::percentile("ingest_batch_p50_ms", ms(batches.percentile_ns(50.0)), 50.0, n),
        Value::percentile("ingest_batch_p95_ms", ms(batches.percentile_ns(95.0)), 95.0, n),
    ]
}

/// How many operations a traced run replays, at the default 20 s; scaled
/// with `--seconds` and kept a whole number of stream rounds so the counts
/// per query repeat exactly.
fn replay_ops(at_20s: usize, round: usize, seconds: f64) -> usize {
    let scaled = (at_20s as f64 * (seconds / 20.0).min(1.0)) as usize;
    (scaled / round).max(1) * round
}

/// Per-layer values by name; anything not set reports 0.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64, Option<u64>)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value, None));
    }

    fn set_n(&mut self, name: &'static str, value: f64, n: u64) {
        self.0.push((name, value, Some(n)));
    }

    /// Mean µs per operation of the spans named `span_name`.
    fn mean_us(&mut self, name: &'static str, rec: &Recorder, span_name: &str, ops: u64) {
        self.set_n(name, us(rec.total_ns(span_name)) / ops.max(1) as f64, ops);
    }

    fn into_values(self) -> Vec<Value> {
        PER_LAYER
            .iter()
            .map(|m| {
                let found = self.0.iter().rev().find(|(n, _, _)| *n == m.name);
                let mut v = Value::new(m.name, found.map_or(0.0, |f| f.1));
                v.n = found.and_then(|f| f.2);
                v
            })
            .collect()
    }
}

fn coverage_note(coverage: f64, notes: &mut Vec<String>) {
    if !(0.7..=1.3).contains(&coverage) {
        notes.push(format!(
            "trace.coverage {coverage:.3} is outside 0.7–1.3: the staged form does not account \
             for the front door"
        ));
    }
}

/// Where the staged time went: each span name's share of all self time
/// (a span's duration minus what its children cover), largest first.
fn self_time_note(rec: &Recorder) -> String {
    let mut selfs: Vec<(&str, u64)> = rec.self_times().into_iter().collect();
    selfs.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let total: u64 = selfs.iter().map(|&(_, ns)| ns).sum();
    let shares: Vec<String> = selfs
        .iter()
        .map(|(name, ns)| format!("{name} {:.1}%", *ns as f64 * 100.0 / total.max(1) as f64))
        .collect();
    format!("self time of the staged replay: {}", shares.join(", "))
}

fn write_trace(cfg: &Config, rec: &Recorder) -> Outcome<()> {
    if let Some(path) = &cfg.trace_out {
        std::fs::write(path, rec.to_json_lines())
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// warm_sql, cold_scan, sharded_scatter
// ---------------------------------------------------------------------------

/// What distinguishes the three SQL workloads.
struct SqlSpec {
    name: &'static str,
    policy: Policy,
    /// Operations replayed by a traced run at 20 s, and the stream's round.
    replay_at_20s: usize,
    replay_round: usize,
}

fn run_sql<D: SqlDoor>(
    cfg: &Config,
    spec: &SqlSpec,
    build: impl Fn(&Object) -> Result<D, SutError>,
    stream_of: impl Fn(&Names) -> StatementStream,
    answer_hit_probe: impl Fn(&D) -> Outcome<f64>,
) -> Outcome<Report> {
    let mut ledger = Ledger::default();
    let measured = if cfg.traced { cfg.seconds / 2.0 } else { cfg.seconds };
    let query_time = Duration::from_secs_f64(measured);
    let warmup = Duration::from_secs_f64(measured * 0.1);

    let (inputs, (object, mut door), setup_s) = set_up(cfg, |inp| {
        let cells = inp.facts.cells(&cfg.shape);
        let object = sut::build_object(&cfg.shape, &inp.names, &cells).map_err(sut_err)?;
        let door = build(&object).map_err(sut_err)?;
        Ok((object, door))
    })?;
    let stored_bytes = door.stored_bytes();
    let stream = stream_of(&inputs.names);

    // Answers are checked, not assumed: every distinct statement (two
    // literals of each filtered template) against the store-free executor.
    for &s in &stream.checked {
        let sql = &stream.statements[s as usize];
        let expected = sut::oracle(&object, sql, spec.policy).map_err(sut_err)?;
        let got = door.execute(sql).map_err(sut_err)?;
        ledger.check(got.complete && sut::same_rows(&expected, &got.rows), || {
            format!("front door disagrees with the store-free executor on `{sql}`")
        });
    }

    let mut query = closed_loop(
        warmup,
        query_time,
        |i| stream.sql(i as usize),
        |sql| match door.execute(sql) {
            Ok(ans) => {
                std::hint::black_box(ans.rows.rows.len());
                (1, ans.complete)
            }
            Err(_) => (1, false),
        },
    );
    ledger.attempted += query.attempted;
    ledger.failed += query.failed;
    if query.failed > 0 {
        ledger
            .notes
            .push(format!("{} statements failed, were refused or came back partial", query.failed));
    }
    let query_rate = query.windows.median_rate();
    // Read here, so that it is the SQL workload's own and not the tail's.
    let peak = peak_rss_mib()?;

    let mut layers = Layers::default();
    if cfg.traced {
        let ops = replay_ops(spec.replay_at_20s, spec.replay_round, cfg.seconds);
        replay_sql(cfg, &mut door, &stream, ops, query_rate, &mut layers, &mut ledger)?;
        layers.set("cube.shared.answer_hit_us", answer_hit_probe(&door)?);
        let (reads, spent) = door.read_every_file().map_err(sut_err)?;
        layers.set_n(
            "storage.page_store.read_us",
            us(spent.as_nanos() as u64) / reads.max(1) as f64,
            reads,
        );
        layers.set("storage.page_store.stored_bytes", stored_bytes as f64);
        let facts = sut::object_facts(&object).map_err(sut_err)?;
        let t = Instant::now();
        let mirror = MirrorStore::build(&facts).map_err(sut_err)?;
        layers.set("cube.query.build_ms", t.elapsed().as_secs_f64() * 1e3);
        drop(mirror);
    }

    // The contract's tail (module docs): phase C of `ingest_mixed`, which
    // needs none of the session.
    drop(door);
    drop(object);
    let mut tail = recovery_phase(cfg, &inputs, TAIL_EXTRA_BATCHES, &mut ledger)?;

    let n = query.latency.n();
    let mut end_to_end = vec![
        Value::new("setup_s", setup_s).with_n(SETUP_BUILDS as u64),
        Value::new("query_ops_s", query_rate).with_n(n),
        query_percentile("query_p50_us", &mut query.latency, 50.0),
        query_percentile("query_p99_us", &mut query.latency, 99.0),
    ];
    end_to_end.extend(ingest_values(tail.rows_per_sec, &mut tail.batches));
    end_to_end.push(Value::new("recover_ms", tail.recover_ms).with_n(RECOVERIES as u64));
    end_to_end
        .push(Value::new("stored_bytes_per_fact_byte", stored_ratio(stored_bytes, &cfg.shape)));
    end_to_end.push(Value::new("peak_rss_mb", peak));

    Ok(Report {
        workload: spec.name,
        dataset: cfg.shape.name,
        seed: cfg.seed,
        seconds: cfg.seconds,
        nproc: nproc(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        end_to_end,
        per_layer: if cfg.traced { layers.into_values() } else { Vec::new() },
        digests: vec![
            ("facts", inputs.facts.digest()),
            ("statements", stream.digest()),
            ("batches", tail.batch_digest),
        ],
        notes: ledger.notes,
    })
}

/// Replays the first `ops` statements: front door, then staged form, and
/// the two answers must be the same rows.
fn replay_sql<D: SqlDoor>(
    cfg: &Config,
    door: &mut D,
    stream: &StatementStream,
    ops: usize,
    untraced_rate: f64,
    layers: &mut Layers,
    ledger: &mut Ledger,
) -> Outcome<()> {
    sut::assert_engine_trace_disabled();
    // The front door's plan cache and render memo are warm from the measured
    // phase; warm the staged form's own copies of them the same way.
    let mut seen = std::collections::HashSet::new();
    for i in 0..ops {
        let sql = stream.sql(i);
        if seen.insert(sql) {
            door.staged(sql, &mut Recorder::new(), &mut Tally::default()).map_err(sut_err)?;
        }
    }
    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let cache_before = door.cache_counters();
    let pages_before = door.pages_read();
    let mut front_ns = 0u64;
    let mut pruned_class = LatencyLog::new();
    let mut scatter_class = LatencyLog::new();
    let mut skew_sum = 0.0;
    let mut skew_ops = 0u64;
    for i in 0..ops {
        let sql = stream.sql(i);
        rec.begin_op(i as u32);
        let t = Instant::now();
        let front = door.execute(sql).map_err(sut_err)?;
        let spent = t.elapsed().as_nanos() as u64;
        front_ns += spent;
        let (staged, shape) = door.staged(sql, &mut rec, &mut tally).map_err(sut_err)?;
        ledger.check(front.complete && sut::same_rows(&front.rows, &staged), || {
            format!("staged form disagrees with the front door on `{sql}`")
        });
        if let Some(shape) = shape {
            ledger.check(shape.pruned == shape.staged_pruned, || {
                format!(
                    "the engine pruned {} shards on `{sql}`, the staged form {}",
                    shape.pruned, shape.staged_pruned
                )
            });
            if shape.pruned > 0 { &mut pruned_class } else { &mut scatter_class }.record(spent);
            if shape.shard_times.len() > 1 {
                let times: Vec<f64> = shape.shard_times.iter().map(Duration::as_secs_f64).collect();
                let mean = times.iter().sum::<f64>() / times.len() as f64;
                let max = times.iter().copied().fold(0.0, f64::max);
                if mean > 0.0 {
                    skew_sum += max / mean;
                    skew_ops += 1;
                }
            }
        }
    }
    let n = ops as u64;
    let staged_ns = rec.total_ns(span::OP);
    let cache = door.cache_counters().since(cache_before);
    layers.mean_us("sql.parser.parse_us", &rec, span::PARSE, n);
    layers.mean_us("core.plan.planner.plan_us", &rec, span::PLAN, n);
    layers.set_n("cube.cache.hit_ratio", cache.hit_ratio(), cache.hits + cache.misses);
    layers.set("cube.cache.evictions", cache.evictions as f64);
    layers.mean_us("cube.query.load_us", &rec, span::LOAD, n);
    // Front door and staged form each read, so the delta covers 2n queries.
    layers.set_n(
        "storage.page_store.pages_read_per_query",
        (door.pages_read() - pages_before) as f64 / (2 * n) as f64,
        2 * n,
    );
    layers.mean_us("core.plan.kernels.derive_us", &rec, span::DERIVE, n);
    layers.set_n(
        "core.plan.kernels.cells_scanned_per_query",
        tally.cells_scanned as f64 / n as f64,
        n,
    );
    layers.set(
        "core.plan.kernels.cells_per_row_returned",
        tally.cells_scanned as f64 / tally.rows_out.max(1) as f64,
    );
    layers.mean_us("core.plan.enforce.enforce_us", &rec, span::ENFORCE, n);
    layers.set_n("core.plan.enforce.suppressed_per_query", tally.suppressed as f64 / n as f64, n);
    layers.mean_us("core.plan.exec.render_us", &rec, span::RENDER, n);
    layers.set_n("core.plan.exec.rows_per_query", tally.rows_out as f64 / n as f64, n);
    layers.mean_us("cube.sharded.plan_shards_us", &rec, span::PLAN_SHARDS, n);
    layers.mean_us("cube.sharded.scatter_us", &rec, span::SCATTER, n);
    layers.mean_us("core.plan.kernels.merge_us", &rec, span::MERGE, n);
    if tally.shards_total > 0 {
        layers.set_n("cube.sharded.shard_skew", skew_sum / skew_ops.max(1) as f64, skew_ops);
        layers.set_n(
            "cube.sharded.pruned_ratio",
            tally.shards_pruned as f64 / tally.shards_total as f64,
            tally.shards_total,
        );
        layers.set_n(
            "cube.sharded.pruned_p50_us",
            us(pruned_class.percentile_ns(50.0)),
            pruned_class.n(),
        );
        layers.set_n(
            "cube.sharded.scatter_p50_us",
            us(scatter_class.percentile_ns(50.0)),
            scatter_class.n(),
        );
    }
    let coverage = staged_ns as f64 / front_ns.max(1) as f64;
    layers.set_n("trace.coverage", coverage, n);
    coverage_note(coverage, &mut ledger.notes);
    let traced_rate = n as f64 / (staged_ns.max(1) as f64 / 1e9);
    layers.set("trace.overhead_ratio", traced_rate / untraced_rate.max(f64::MIN_POSITIVE));
    ledger.notes.push(self_time_note(&rec));
    write_trace(cfg, &rec)
}

pub fn warm_sql(cfg: &Config) -> Outcome<Report> {
    let spec =
        SqlSpec { name: "warm_sql", policy: Policy::Open, replay_at_20s: 2_000, replay_round: 1 };
    run_sql(
        cfg,
        &spec,
        |object| SqlSession::build(object, Cache::Default, Policy::Open),
        |_| gen::warm_stream(cfg.seed),
        |door| {
            // One miss admits the cuboid; the timed calls are all hits.
            door.answer(0b001).map_err(sut_err)?;
            const PROBES: u32 = 2_000;
            let t = Instant::now();
            for _ in 0..PROBES {
                if !door.answer(0b001).map_err(sut_err)? {
                    return Err("a warm cuboid mask missed the answer cache".to_owned());
                }
            }
            Ok(us(t.elapsed().as_nanos() as u64) / f64::from(PROBES))
        },
    )
}

pub fn cold_scan(cfg: &Config) -> Outcome<Report> {
    let spec = SqlSpec {
        name: "cold_scan",
        policy: Policy::Suppress3,
        replay_at_20s: 1_200,
        replay_round: gen::COLD_ROUND,
    };
    run_sql(
        cfg,
        &spec,
        |object| SqlSession::build(object, Cache::Disabled, Policy::Suppress3),
        |names| gen::cold_stream(&cfg.shape, names, cfg.seed),
        // The cache is disabled: there is no hit to time.
        |_| Ok(0.0),
    )
}

pub fn sharded_scatter(cfg: &Config) -> Outcome<Report> {
    let spec = SqlSpec {
        name: "sharded_scatter",
        policy: Policy::Suppress3,
        replay_at_20s: 600,
        // Three rounds visit all three scattered statements.
        replay_round: 3 * gen::SHARDED_ROUND,
    };
    run_sql(
        cfg,
        &spec,
        ShardedSql::build,
        |names| gen::sharded_stream(&cfg.shape, names, cfg.seed),
        |_| Ok(0.0),
    )
}

// ---------------------------------------------------------------------------
// ingest_mixed
// ---------------------------------------------------------------------------

/// What phase B measured.
struct MixedPhase {
    read_latency: LatencyLog,
    cache: sut::CacheCounters,
    reader_late: LatencyLog,
    writer_late: LatencyLog,
    reads: u64,
    failed_reads: u64,
    writes: u64,
    failed_writes: u64,
    valid: bool,
}

/// Phase B: a paced writer on its own thread beside a paced reader on this
/// one, both open loop. Every read is timed from when it was due.
fn mixed_phase(
    cfg: &Config,
    facts: &Rows,
    store: &DurableStore,
    length: Duration,
) -> Outcome<MixedPhase> {
    let masks = gen::reader_stream(cfg.seed);
    for &mask in &gen::READER_MASKS {
        store.read(mask).map_err(sut_err)?;
    }
    let mut stream = DeltaStream::new(&cfg.shape, facts, cfg.seed, "ingest_mixed.b", BATCH_ROWS);
    let writes = (length.as_secs_f64() * WRITER_BATCHES_PER_SEC) as u64;
    let batches: Vec<Facts> = (0..writes)
        .map(|_| sut::fact_input(&cfg.shape, &stream.next_batch()).map_err(sut_err))
        .collect::<Outcome<_>>()?;
    let start = Instant::now() + Duration::from_millis(20);
    let writer_schedule = Schedule::new(start, WRITER_BATCHES_PER_SEC);
    let reader_schedule = Schedule::new(start, READER_QUERIES_PER_SEC).spinning();
    let reads = reader_schedule.ops_until(start + length);

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut late = Vec::with_capacity(batches.len());
            let mut failed = 0u64;
            for (i, batch) in batches.iter().enumerate() {
                let (_, lateness) = writer_schedule.wait(i as u64);
                late.push(lateness);
                failed += u64::from(store.apply_delta(batch).is_err());
            }
            (late, failed)
        });
        let mut out = MixedPhase {
            read_latency: LatencyLog::new(),
            cache: sut::CacheCounters::default(),
            reader_late: LatencyLog::new(),
            writer_late: LatencyLog::new(),
            reads,
            failed_reads: 0,
            writes,
            failed_writes: 0,
            valid: true,
        };
        let cache_before = store.cache_counters();
        let mut reader_late = Vec::with_capacity(reads as usize);
        for i in 0..reads {
            let (due, lateness) = reader_schedule.wait(i);
            let ok = match store.read(masks[i as usize % masks.len()]) {
                Ok(ans) => {
                    std::hint::black_box(ans.cells.len());
                    true
                }
                Err(_) => false,
            };
            out.read_latency.record((Instant::now() - due).as_nanos() as u64);
            reader_late.push(lateness);
            out.failed_reads += u64::from(!ok);
        }
        out.cache = store.cache_counters().since(cache_before);
        let (writer_late, failed_writes) =
            writer.join().map_err(|_| "the paced writer panicked".to_owned())?;
        out.failed_writes = failed_writes;
        out.valid = pace::kept_up(&reader_late, reader_schedule.period())
            && pace::kept_up(&writer_late, writer_schedule.period());
        for late in reader_late {
            out.reader_late.record(late.as_nanos() as u64);
        }
        for late in writer_late {
            out.writer_late.record(late.as_nanos() as u64);
        }
        Ok(out)
    })
}

/// Recoveries timed per phase C (the median is reported).
const RECOVERIES: usize = 3;

/// What phase C found.
struct RecoveryPhase {
    /// Time of each acknowledged batch, and the rows a second they make.
    batches: LatencyLog,
    rows_per_sec: f64,
    batch_digest: u64,
    recover_ms: f64,
    snapshot_decode_ms: f64,
    replay_rows_s: f64,
    /// The rebuild oracle, kept for the traced run's `build_ms`.
    rebuild_ms: f64,
}

/// Phase C: a fresh durable store acknowledges exactly [`RECOVERY_BATCHES`]
/// batches; recovery from a copy of its journal as it stood then is timed
/// three times, and the recovered store must answer every mask like a
/// rebuild over the facts plus those batches. Every batch is timed, and
/// `extra_batches` more after the copy is taken.
fn recovery_phase(
    cfg: &Config,
    inputs: &Inputs,
    extra_batches: usize,
    ledger: &mut Ledger,
) -> Outcome<RecoveryPhase> {
    let facts = sut::fact_input(&cfg.shape, &inputs.facts).map_err(sut_err)?;
    let store = DurableStore::build(&facts).map_err(sut_err)?;
    drop(facts);
    let mut stream =
        DeltaStream::new(&cfg.shape, &inputs.facts, cfg.seed, "ingest_mixed.c", BATCH_ROWS);
    let timed_batches = RECOVERY_BATCHES + extra_batches;
    let batch_digest = stream.digest(timed_batches);
    let mut all = inputs.facts.clone();
    let mut batches = LatencyLog::new();
    let mut apply_ns = 0u64;
    let mut image = Vec::new();
    for k in 0..timed_batches {
        let rows = stream.next_batch();
        let batch = sut::fact_input(&cfg.shape, &rows).map_err(sut_err)?;
        let t = Instant::now();
        let applied = store.apply_delta(&batch);
        let spent = t.elapsed().as_nanos() as u64;
        batches.record(spent);
        apply_ns += spent;
        ledger.check(applied.is_ok(), || "phase C batch was refused".to_owned());
        if k < RECOVERY_BATCHES {
            all.coords.extend_from_slice(&rows.coords);
            all.amounts.extend_from_slice(&rows.amounts);
        }
        if k + 1 == RECOVERY_BATCHES {
            image = store.journal_image();
        }
    }
    drop(store);

    let mut times_ms = Vec::with_capacity(RECOVERIES);
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        drop(recovered.take());
        let copy = image.clone();
        let t = Instant::now();
        let (store, report) = DurableStore::recover(copy).map_err(sut_err)?;
        times_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ledger.check(
            report.replayed_deltas == RECOVERY_BATCHES as u64
                && report.replayed_rows == (RECOVERY_BATCHES * BATCH_ROWS) as u64,
            || {
                format!(
                    "recovery replayed {} batches, not {RECOVERY_BATCHES}",
                    report.replayed_deltas
                )
            },
        );
        recovered = Some(store);
    }
    let recover_ms = stats::median(&times_ms);
    let snapshot_decode_ms =
        DurableStore::time_snapshot_decode(&image).map_err(sut_err)?.as_secs_f64() * 1e3;
    drop(image);

    let all_facts = sut::fact_input(&cfg.shape, &all).map_err(sut_err)?;
    let t = Instant::now();
    let rebuilt = MirrorStore::build(&all_facts).map_err(sut_err)?;
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let recovered = recovered.ok_or("no recovery ran")?;
    ledger.check(recovered.answers_like(&rebuilt).map_err(sut_err)?, || {
        "the recovered store does not answer like a rebuild over facts + acknowledged batches"
            .to_owned()
    });
    let replay_s = ((recover_ms - snapshot_decode_ms) / 1e3).max(f64::MIN_POSITIVE);
    Ok(RecoveryPhase {
        batches,
        rows_per_sec: (timed_batches * BATCH_ROWS) as f64 / (apply_ns.max(1) as f64 / 1e9),
        batch_digest,
        recover_ms,
        snapshot_decode_ms,
        replay_rows_s: (RECOVERY_BATCHES * BATCH_ROWS) as f64 / replay_s,
        rebuild_ms,
    })
}

pub fn ingest_mixed(cfg: &Config) -> Outcome<Report> {
    let mut ledger = Ledger::default();
    let measured = if cfg.traced { cfg.seconds / 2.0 } else { cfg.seconds };
    let phase_a = Duration::from_secs_f64(measured * 0.6);
    let phase_r = Duration::from_secs_f64(measured * 0.05);
    let phase_b = Duration::from_secs_f64(measured * 0.35);

    let (inputs, store, setup_s) = set_up(cfg, |inp| {
        let facts = sut::fact_input(&cfg.shape, &inp.facts).map_err(sut_err)?;
        DurableStore::build(&facts).map_err(sut_err)
    })?;
    let sealed_bytes = store.sealed_bytes();
    let stored_bytes = sealed_bytes + store.journal_bytes();

    // Phase A: one writer, closed loop.
    let (a, batch_digest) =
        ingest_phase(cfg, &inputs.facts, phase_a, |b| store.apply_delta(b).is_ok())?;
    ledger.attempted += a.attempted;
    ledger.failed += a.failed;
    let batches_per_sec = a.windows.median_rate() / BATCH_ROWS as f64;

    // Phase R: the reader alone, closed loop, on the store phase A left.
    // Median latency and throughput of the cuboid front door come from
    // here: measured back to back they repeat, whereas a cache hit timed
    // after a 2 ms idle gap beside a writer is a microsecond ± 40 %.
    let masks = gen::reader_stream(cfg.seed);
    let mut r = closed_loop(
        phase_r / 10,
        phase_r,
        |i| masks[i as usize % masks.len()],
        |mask| match store.read(mask) {
            Ok(ans) => {
                std::hint::black_box(ans.cells.len());
                (1, true)
            }
            Err(_) => (1, false),
        },
    );
    ledger.attempted += r.attempted;
    ledger.failed += r.failed;

    // Phase B: open loop on both sides.
    let mut b = mixed_phase(cfg, &inputs.facts, &store, phase_b)?;
    ledger.attempted += b.reads + b.writes;
    ledger.failed += b.failed_reads + b.failed_writes;
    if !b.valid {
        // A generator that fell behind did not offer the stated load: none
        // of the phase's reads count as meeting a latency bound.
        ledger.failed += b.reads - b.failed_reads;
        ledger.notes.push(format!(
            "phase B invalid: a generator was more than one period behind schedule over \
             its final tenth (reader p95 {:.0} µs late, writer p95 {:.2} ms late)",
            us(b.reader_late.percentile_ns(95.0)),
            ms(b.writer_late.percentile_ns(95.0))
        ));
    }
    drop(store);

    // Phase C: recovery, checked and timed.
    let c = recovery_phase(cfg, &inputs, 0, &mut ledger)?;
    let peak = peak_rss_mib()?;

    let (reads_r, reads_b) = (r.latency.n(), b.read_latency.n());
    let mut end_to_end = vec![
        Value::new("setup_s", setup_s).with_n(SETUP_BUILDS as u64),
        Value::new("query_ops_s", r.windows.median_rate()).with_n(reads_r),
        query_percentile("query_p50_us", &mut r.latency, 50.0),
        Value::percentile("query_p99_us", us(b.read_latency.percentile_ns(99.0)), 99.0, reads_b),
    ];
    end_to_end.extend(ingest_values(a.windows.median_rate(), &mut a.latency.pooled()));
    end_to_end.push(Value::new("recover_ms", c.recover_ms).with_n(RECOVERIES as u64));
    end_to_end
        .push(Value::new("stored_bytes_per_fact_byte", stored_ratio(stored_bytes, &cfg.shape)));
    end_to_end.push(Value::new("peak_rss_mb", peak));

    let mut layers = Layers::default();
    if cfg.traced {
        layers.set_n(
            "cube.shared.writer_late_p95_ms",
            ms(b.writer_late.percentile_ns(95.0)),
            b.writer_late.n(),
        );
        layers.set_n(
            "cube.shared.reader_late_p95_us",
            us(b.reader_late.percentile_ns(95.0)),
            b.reader_late.n(),
        );
        layers.set("cube.durable.snapshot_decode_ms", c.snapshot_decode_ms);
        layers.set("cube.durable.replay_rows_s", c.replay_rows_s);
        layers.set("cube.query.build_ms", c.rebuild_ms);
        layers.set("storage.page_store.stored_bytes", sealed_bytes as f64);
        replay_ingest(cfg, &inputs, batches_per_sec, &mut layers, &mut ledger)?;
        // The ratio that moves `query_p99_us` is phase B's, under the paced
        // writer; it replaces the replay's (ten reads per publish).
        layers.set_n("cube.cache.hit_ratio", b.cache.hit_ratio(), b.cache.hits + b.cache.misses);
        layers.set("cube.cache.evictions", b.cache.evictions as f64);
    }

    Ok(Report {
        workload: "ingest_mixed",
        dataset: cfg.shape.name,
        seed: cfg.seed,
        seconds: cfg.seconds,
        nproc: nproc(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        end_to_end,
        per_layer: if cfg.traced { layers.into_values() } else { Vec::new() },
        digests: vec![
            ("facts", inputs.facts.digest()),
            ("reader_masks", gen::mask_stream_digest(&gen::reader_stream(cfg.seed))),
            ("batches", batch_digest),
        ],
        notes: ledger.notes,
    })
}

/// Reads replayed after each replayed batch.
const REPLAY_READS_PER_BATCH: usize = 10;

/// The traced replay of `ingest_mixed`, single-threaded so its counts
/// repeat: a fresh durable store takes each batch through the front door
/// while a mirror store takes it through the staged write path; the reads
/// that follow go through the front door, and every miss is re-made in
/// staged form on the mirror (which is as cold or warm as the front door's
/// store was) and must give the same cells.
fn replay_ingest(
    cfg: &Config,
    inputs: &Inputs,
    untraced_batches_per_sec: f64,
    layers: &mut Layers,
    ledger: &mut Ledger,
) -> Outcome<()> {
    sut::assert_engine_trace_disabled();
    let batches = replay_ops(20, 1, cfg.seconds);
    let facts = sut::fact_input(&cfg.shape, &inputs.facts).map_err(sut_err)?;
    let door = DurableStore::build(&facts).map_err(sut_err)?;
    let mut mirror = MirrorStore::build(&facts).map_err(sut_err)?;
    drop(facts);
    let scratch = ScratchJournal::new();
    let masks = gen::reader_stream(cfg.seed);
    let mut stream =
        DeltaStream::new(&cfg.shape, &inputs.facts, cfg.seed, "ingest_mixed.replay", BATCH_ROWS);
    let mut writes = Recorder::new();
    let mut reads = Recorder::new();
    let mut tally = Tally::default();
    let (mut front_apply_ns, mut front_miss_ns, mut hit_ns) = (0u64, 0u64, 0u64);
    let (mut hits, mut misses, mut pages) = (0u64, 0u64, 0u64);
    let (mut journal_bytes, mut sealed_bytes) = (0u64, 0u64);
    for k in 0..batches {
        let batch = sut::fact_input(&cfg.shape, &stream.next_batch()).map_err(sut_err)?;
        writes.begin_op(k as u32);
        let journal_before = door.journal_bytes();
        let t = Instant::now();
        let applied = door.apply_delta(&batch);
        front_apply_ns += t.elapsed().as_nanos() as u64;
        journal_bytes += door.journal_bytes() - journal_before;
        sealed_bytes += door.sealed_bytes();
        mirror.staged_apply(&batch, &scratch, &mut writes).map_err(sut_err)?;
        ledger.check(applied.is_ok() && door.sealed_bytes() == mirror.sealed_bytes(), || {
            format!("staged write {k} sealed different bytes than the front door")
        });
        for r in 0..REPLAY_READS_PER_BATCH {
            let op = k * REPLAY_READS_PER_BATCH + r;
            let mask = masks[op % masks.len()];
            reads.begin_op(op as u32);
            let t = Instant::now();
            let front = door.read(mask).map_err(sut_err)?;
            let spent = t.elapsed().as_nanos() as u64;
            if front.cache_hit {
                hits += 1;
                hit_ns += spent;
                ledger.attempted += 1;
                continue;
            }
            misses += 1;
            front_miss_ns += spent;
            let pages_before = mirror.pages_read();
            let staged = mirror.staged_read(mask, &mut reads, &mut tally).map_err(sut_err)?;
            pages += mirror.pages_read() - pages_before;
            ledger.check(front.has_cells(&staged), || {
                format!("staged read of mask {mask:#b} disagrees with the front door")
            });
        }
    }
    ledger.check(door.answers_like(&mirror).map_err(sut_err)?, || {
        "after the replay the mirror store no longer answers like the front door's".to_owned()
    });

    let n = batches as u64;
    let rows = n * BATCH_ROWS as u64;
    let read_ops = hits + misses;
    let stage_ns = |name| writes.total_ns(name);
    layers.mean_us("cube.query.validate_us", &writes, span::VALIDATE, n);
    layers.mean_us("cube.durable.encode_us", &writes, span::ENCODE, n);
    layers.mean_us("storage.wal.append_us", &writes, span::WAL_APPEND, n);
    layers.set_n("cube.query.fold_ms", ms(stage_ns(span::FOLD)) / n as f64, n);
    layers.set_n("storage.wal.journal_bytes_per_row", journal_bytes as f64 / rows as f64, rows);
    layers.set_n(
        "storage.page_store.sealed_bytes_per_delta_row",
        sealed_bytes as f64 / rows as f64,
        rows,
    );
    let staged_write_ns = stage_ns(span::OP);
    // A residual, not a measurement: what the front door spends beyond the
    // four staged calls — publish, cache invalidation, commit record.
    layers.set_n(
        "cube.shared.publish_us",
        (us(front_apply_ns) - us(staged_write_ns)) / n as f64,
        n,
    );
    layers.mean_us("core.plan.planner.plan_us", &reads, span::PLAN, read_ops);
    layers.mean_us("cube.query.load_us", &reads, span::LOAD, read_ops);
    layers.mean_us("core.plan.kernels.derive_us", &reads, span::DERIVE, read_ops);
    layers.mean_us("core.plan.enforce.enforce_us", &reads, span::ENFORCE, read_ops);
    layers.set_n(
        "core.plan.kernels.cells_scanned_per_query",
        tally.cells_scanned as f64 / read_ops as f64,
        read_ops,
    );
    layers.set(
        "core.plan.kernels.cells_per_row_returned",
        tally.cells_scanned as f64 / tally.rows_out.max(1) as f64,
    );
    layers.set_n(
        "core.plan.enforce.suppressed_per_query",
        tally.suppressed as f64 / read_ops as f64,
        read_ops,
    );
    layers.set_n(
        "core.plan.exec.rows_per_query",
        tally.rows_out as f64 / read_ops as f64,
        read_ops,
    );
    layers.set_n(
        "storage.page_store.pages_read_per_query",
        pages as f64 / read_ops as f64,
        read_ops,
    );
    layers.set_n("cube.shared.answer_hit_us", us(hit_ns) / hits.max(1) as f64, hits);
    let (file_reads, spent) = mirror.read_every_file().map_err(sut_err)?;
    layers.set_n(
        "storage.page_store.read_us",
        us(spent.as_nanos() as u64) / file_reads.max(1) as f64,
        file_reads,
    );

    for (name, batch_rows) in [("cube.query.fold_ms.b20", 20), ("cube.query.fold_ms.b2000", 2_000)]
    {
        let mut probe = DeltaStream::new(&cfg.shape, &inputs.facts, cfg.seed, name, batch_rows);
        let mut times = Vec::with_capacity(3);
        for _ in 0..3 {
            let batch = sut::fact_input(&cfg.shape, &probe.next_batch()).map_err(sut_err)?;
            times.push(mirror.time_fold(&batch).map_err(sut_err)?.as_secs_f64() * 1e3);
        }
        layers.set_n(name, stats::median(&times), 3);
    }

    let staged_ns = staged_write_ns + reads.total_ns(span::OP);
    let coverage = staged_ns as f64 / (front_apply_ns + front_miss_ns).max(1) as f64;
    layers.set_n("trace.coverage", coverage, n + misses);
    coverage_note(coverage, &mut ledger.notes);
    let traced_rate = n as f64 / (staged_write_ns.max(1) as f64 / 1e9);
    layers
        .set("trace.overhead_ratio", traced_rate / untraced_batches_per_sec.max(f64::MIN_POSITIVE));
    writes.graft(reads);
    ledger.notes.push(self_time_note(&writes));
    write_trace(cfg, &writes)
}

/// CPU time the hypervisor has kept from this VM since boot, in ticks of
/// 10 ms over all cores (`steal` of `/proc/stat`), where the kernel says.
fn stolen_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Runs the named workload.
pub fn run(name: &str, cfg: &Config) -> Outcome<Report> {
    sut::assert_engine_trace_disabled();
    let stolen_before = stolen_ticks();
    let began = Instant::now();
    let mut report = match name {
        "warm_sql" => warm_sql(cfg),
        "cold_scan" => cold_scan(cfg),
        "sharded_scatter" => sharded_scatter(cfg),
        "ingest_mixed" => ingest_mixed(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    // This is a shared box: a reader of a number that moved wants to know
    // whether the machine was taken away while it was measured.
    if let (Some(before), Some(after)) = (stolen_before, stolen_ticks()) {
        report.notes.push(format!(
            "the hypervisor kept {:.2} s of CPU from this VM during the {:.1} s the run took",
            (after - before) as f64 / 100.0,
            began.elapsed().as_secs_f64()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_counts_are_whole_rounds() {
        assert_eq!(replay_ops(1_200, 7, 20.0), 1_197);
        assert_eq!(replay_ops(1_200, 7, 60.0), 1_197);
        assert_eq!(replay_ops(1_200, 6, 16.0), 960);
        assert_eq!(replay_ops(600, 9, 20.0), 594);
        assert_eq!(replay_ops(600, 6, 1.0), 30);
        assert_eq!(replay_ops(600, 6, 0.01), 6);
        assert_eq!(replay_ops(20, 1, 16.0), 16);
    }

    #[test]
    fn closed_loop_counts_work_in_the_window_it_completes_in() {
        let mut calls = 0u64;
        let phase = closed_loop(
            Duration::from_millis(5),
            Duration::from_millis(50),
            |i| i,
            |i| {
                calls += 1;
                assert_eq!(i + 1, calls);
                std::thread::sleep(Duration::from_millis(1));
                (2, i % 2 == 0)
            },
        );
        assert!(phase.attempted >= 10 && phase.attempted < calls);
        assert_eq!(phase.latency.n(), phase.attempted);
        assert!(phase.failed > 0 && phase.failed < phase.attempted);
        assert!(phase.windows.median_rate() > 0.0);
    }

    #[test]
    fn unset_layers_report_zero_and_the_last_set_wins() {
        let mut layers = Layers::default();
        layers.set("trace.coverage", 0.5);
        layers.set_n("trace.coverage", 0.9, 7);
        let values = layers.into_values();
        assert_eq!(values.len(), PER_LAYER.len());
        let coverage = values.iter().find(|v| v.name == "trace.coverage").unwrap();
        assert_eq!((coverage.value, coverage.n), (0.9, Some(7)));
        assert!(values.iter().filter(|v| v.name != "trace.coverage").all(|v| v.value == 0.0));
    }
}
