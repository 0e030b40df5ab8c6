//! The repository's benchmark: four pinned workloads, ten bounded
//! end-to-end metrics (and `failed_share`), and an outside-in per-layer
//! trace. See `README.md` beside this file for the metric tables, and
//! `BENCHMARK.json` at the repository root for the machine-readable form.
//!
//! ```text
//! cargo run --release -p statcube-bench --bin benchmark -- \
//!     [--workload W] [--seed S] [--seconds T] [--traced] [--out FILE]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line of
//! standard output is one JSON object (the driver's contract). Without it
//! every workload runs in a child process of its own, so `peak_rss_mb` is
//! per workload.

mod gen;
mod pace;
mod report;
mod spans;
mod stats;
mod sut;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{ParsedResult, END_TO_END, EXACT_COUNTS, WORKLOADS};
use workloads::Config;

/// The seed every committed number is taken at.
const DEFAULT_SEED: u64 = 11;

/// Seconds measured per workload when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;

/// `--smoke`: seconds per workload, so the whole binary stays under five.
const SMOKE_SECONDS: f64 = 0.4;

const USAGE: &str = "\
usage: benchmark [--workload W] [--seed S] [--seconds T] [--traced | --trace 0|1]
                 [--out FILE] [--trace-out FILE] [--smoke] [--check-repeat]
  --workload W     warm_sql | cold_scan | sharded_scatter | ingest_mixed (default: each, in turn)
  --seed S         reseeds data, statement streams and delta batches (default 11)
  --seconds T      seconds measured per workload (default 20)
  --traced         halve the measured phases and replay the first operations in staged form
  --trace 0|1      the same switch as the driver passes it
  --out FILE       also write the report(s) to FILE
  --trace-out FILE write the recorded spans, one JSON object per line (needs --workload)
  --smoke          tiny dataset, every workload traced, a few seconds in all
  --check-repeat   run every workload twice untraced and twice traced; compare";

#[derive(Debug, Clone, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `None` when neither `--traced` nor `--trace` was given.
    traced: Option<bool>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if w != "all" {
                    if !WORKLOADS.iter().any(|k| k.name == w) {
                        return Err(format!("unknown workload `{w}`"));
                    }
                    args.workload = Some(w);
                }
            }
            "--seed" => {
                args.seed = Some(value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
                args.seconds = Some(s);
            }
            "--traced" => args.traced = Some(true),
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.trace_out.is_some() && args.workload.is_none() {
        return Err("--trace-out needs --workload (one trace per file)".to_owned());
    }
    Ok(args)
}

impl Args {
    fn config(&self) -> Config {
        Config {
            shape: if self.smoke { gen::RETAIL_SMOKE } else { gen::RETAIL_300K },
            seed: self.seed.unwrap_or(DEFAULT_SEED),
            seconds: self.seconds.unwrap_or(if self.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            traced: self.traced.unwrap_or(self.smoke),
            trace_out: self.trace_out.clone(),
        }
    }
}

/// Runs one workload here and prints its report; the last line printed is
/// the result object.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let cfg = args.config();
    let report = workloads::run(workload, &cfg)?;
    let text = report.render();
    print!("{text}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{text}{}\n", report.result_line(cfg.traced)))
            .map_err(|e| format!("--out {}: {e}", path.display()))?;
    }
    println!("{}", report.result_line(cfg.traced));
    Ok(report.correct())
}

/// One child run: its whole standard output and its parsed result line.
struct ChildRun {
    stdout: String,
    result: ParsedResult,
    digests: Vec<(String, String)>,
}

/// Runs `workload` in a child process of this executable.
fn run_child(workload: &str, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let cfg = args.config();
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let result =
        stdout.lines().last().and_then(report::parse_result_line).ok_or_else(|| {
            format!("the {workload} run printed no result line ({})", output.status)
        })?;
    let digests = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("digest "))
        .filter_map(|l| l.split_once(' '))
        .map(|(name, hex)| (name.to_owned(), hex.to_owned()))
        .collect();
    if !output.status.success() {
        print!("{stdout}");
        return Err(format!("the {workload} run failed ({})", output.status));
    }
    Ok(ChildRun { stdout, result, digests })
}

/// Every workload, each in its own process, then one table of the
/// end-to-end metrics side by side.
fn run_all(args: &Args) -> Result<bool, String> {
    let traced = args.config().traced;
    let mut all_text = String::new();
    let mut runs = Vec::new();
    for w in WORKLOADS {
        let run = run_child(w.name, args, traced)?;
        print!("{}", run.stdout);
        all_text.push_str(&run.stdout);
        runs.push((w.name, run.result));
    }
    // A traced run's result line carries the layers (its halved end-to-end
    // numbers are in each report above), so only untraced runs get the table.
    if !traced {
        let table = side_by_side(&runs);
        print!("{table}");
        all_text.push_str(&table);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, all_text).map_err(|e| format!("--out {}: {e}", path.display()))?;
    }
    Ok(runs.iter().all(|(_, r)| r.correct))
}

/// The end-to-end metrics of every workload in one table.
fn side_by_side(runs: &[(&str, ParsedResult)]) -> String {
    let mut table = String::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(table, "\nend-to-end, every workload (nproc {nproc}):");
    let _ = write!(table, "  {:<28} {:<7}", "metric", "unit");
    for (name, _) in runs {
        let _ = write!(table, " {name:>16}");
    }
    let _ = writeln!(table);
    for m in END_TO_END {
        let _ = write!(table, "  {:<28} {:<7}", m.name, m.unit);
        for (_, r) in runs {
            let _ = write!(table, " {:>16.4}", r.get(m.name).unwrap_or(f64::NAN));
        }
        let _ = writeln!(table);
    }
    let _ = write!(table, "  {:<28} {:<7}", "failed_share", "ratio");
    for (_, r) in runs {
        let _ = write!(table, " {:>16.6}", r.failed as f64 / r.attempted.max(1) as f64);
    }
    let _ = writeln!(table);
    table
}

/// The gap between two readings as a share of the smaller.
fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE)
}

/// `--check-repeat`: two untraced and two traced runs of every workload on
/// this build. Every end-to-end metric must agree within its own bound, and
/// the exact counts and stream digests must be equal.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<16} {:<46} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "run 1", "run 2", "diff", "bound"
    );
    for w in WORKLOADS {
        let first = run_child(w.name, args, false)?;
        let second = run_child(w.name, args, false)?;
        for m in END_TO_END {
            let get = |run: &ChildRun| {
                run.result
                    .get(m.name)
                    .ok_or_else(|| format!("{}: a run did not report {}", w.name, m.name))
            };
            let (a, b) = (get(&first)?, get(&second)?);
            let diff = relative_gap(a, b);
            let agrees = diff <= m.bound;
            ok &= agrees;
            let verdict = if agrees { "agrees" } else { "DISAGREES" };
            let _ = writeln!(
                table,
                "{:<16} {:<46} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
            );
        }
        let clean = first.result.failed == 0 && second.result.failed == 0;
        ok &= clean;
        let _ = writeln!(
            table,
            "{:<16} {:<46} {:>14} {:>14} {:>9} {:>7}  {}",
            w.name,
            "failed",
            first.result.failed,
            second.result.failed,
            "",
            "0",
            if clean { "agrees" } else { "DISAGREES" }
        );
        let traced_first = run_child(w.name, args, true)?;
        let traced_second = run_child(w.name, args, true)?;
        for name in EXACT_COUNTS {
            let (a, b) = (traced_first.result.get(name), traced_second.result.get(name));
            let equal = a.is_some() && a.map(f64::to_bits) == b.map(f64::to_bits);
            ok &= equal;
            let _ = writeln!(
                table,
                "{:<16} {:<46} {:>14.4} {:>14.4} {:>9} {:>7}  {}",
                w.name,
                name,
                a.unwrap_or(f64::NAN),
                b.unwrap_or(f64::NAN),
                "",
                "exact",
                if equal { "equal" } else { "DIFFERS" }
            );
        }
        for (name, hex) in &first.digests {
            let everywhere = [&second, &traced_first, &traced_second]
                .iter()
                .all(|run| run.digests.iter().any(|(n, h)| n == name && h == hex));
            ok &= everywhere;
            let _ = writeln!(
                table,
                "{:<16} {:<46} {hex:>29} {:>9} {:>7}  {}",
                w.name,
                format!("digest {name}"),
                "",
                "exact",
                if everywhere { "equal" } else { "DIFFERS" }
            );
        }
    }
    print!("{table}");
    println!("check-repeat: {}", if ok { "passed" } else { "FAILED" });
    if let Some(path) = &args.out {
        std::fs::write(path, table).map_err(|e| format!("--out {}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// glibc's allocator, pinned for the run: allocations up to 32 MiB come from
/// the heap instead of a fresh `mmap` each, the heap grows in 256 MiB steps
/// and is never trimmed. A delta fold allocates and frees tens of MiB per
/// batch; left to its defaults the allocator hands that memory back and
/// forth to the kernel in a pattern that differs from process to process,
/// which moved `ingest_batch_p50_ms` by ±10 % and `peak_rss_mb` by ±15 %
/// between identical runs. The pin is part of the benchmark, so both sides
/// of any comparison run under it.
const ALLOCATOR_TUNABLES: &str = "glibc.malloc.mmap_threshold=33554432:\
    glibc.malloc.trim_threshold=4294967296:glibc.malloc.top_pad=268435456";

/// Set once the tunables are in the environment (children inherit both).
const ALLOCATOR_PINNED: &str = "STATCUBE_BENCHMARK_ALLOCATOR_PINNED";

/// Replaces this process with itself under [`ALLOCATOR_TUNABLES`], which
/// glibc reads only at start-up. No process is started: `exec` replaces
/// this one.
#[cfg(unix)]
fn pin_allocator() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os(ALLOCATOR_PINNED).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else { return };
    let failed = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env("GLIBC_TUNABLES", ALLOCATOR_TUNABLES)
        .env(ALLOCATOR_PINNED, "1")
        .exec();
    eprintln!("benchmark: cannot restart with the allocator pinned ({failed}); running unpinned");
}

#[cfg(not(unix))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.check_repeat {
        check_repeat(&args)
    } else if let Some(workload) = &args.workload {
        run_one(workload, &args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed (see the notes above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a =
            args(&["--workload", "cold_scan", "--seed", "7", "--seconds", "16", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.as_deref(), Some("cold_scan"));
        let cfg = a.config();
        assert_eq!((cfg.seed, cfg.seconds, cfg.traced), (7, 16.0, true));
        assert_eq!(cfg.shape, gen::RETAIL_300K);
        assert!(!args(&["--trace", "0"]).unwrap().config().traced);
    }

    #[test]
    fn defaults_and_smoke() {
        let cfg = args(&[]).unwrap().config();
        assert_eq!((cfg.seed, cfg.seconds, cfg.traced), (DEFAULT_SEED, DEFAULT_SECONDS, false));
        let smoke = args(&["--smoke"]).unwrap().config();
        assert_eq!(smoke.shape, gen::RETAIL_SMOKE);
        assert!(smoke.traced && smoke.seconds < 1.0);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--trace-out", "t.jsonl"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
