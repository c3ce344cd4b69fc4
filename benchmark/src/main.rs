//! Benchmark of record for the AutoGlobe control plane.
//!
//! ```text
//! autoglobe-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                         [--experiments PATH] [--report FILE] [--runs N]
//! autoglobe-benchmark compare A.json B.json
//! autoglobe-benchmark compare --pairs N --workload W [--seed N] [--seconds S] DIR_A DIR_B
//! ```
//!
//! `benchmark/run.sh` builds everything and calls `run` from the root of a
//! checkout. Every timed repeat runs in a fresh child process of this same
//! binary, one at a time, so each repeat pays its own cold start and
//! reports its own peak memory.

mod calibration;
mod compare;
mod json;
mod layers;
mod stats;
mod trace;
mod workloads;

use stats::{highest_supported_percentile, median, percentile, sorted};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Recorder, Workload};

/// End-to-end metric names and units, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("job_s", "s"),
    ("interval_p50_us", "us"),
    ("interval_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Where traces, reports and the suite's scratch directories go, relative
/// to the checkout root.
const OUT_DIR: &str = "benchmark/out";

/// Spans written to a trace file (the rest stay counted in its header).
const TRACE_CAP: usize = 200_000;

/// Setups timed per repeat at least, so `setup_s` is a median of many
/// even for single-episode workloads.
const MIN_SETUPS: usize = 10;

mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s starting with `ru_maxrss`.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    /// Peak resident set, in KiB, of this process (`children = false`) or
    /// of the largest waited-for child (`children = true`).
    pub fn max_rss_kb(children: bool) -> u64 {
        let mut usage = Rusage {
            times: [0; 4],
            maxrss_kb: 0,
            rest: [0; 13],
        };
        // RUSAGE_CHILDREN or RUSAGE_SELF.
        let who = if children { -1 } else { 0 };
        // SAFETY: `usage` is a live, writable `Rusage` laid out exactly like
        // the kernel's `struct rusage` on 64-bit Linux, and `who` is one of
        // the two values getrusage accepts; the call writes only into it.
        let rc = unsafe { getrusage(who, &mut usage) };
        if rc == 0 {
            usage.maxrss_kb.max(0) as u64
        } else {
            0
        }
    }
}

/// Command-line flags: `--name value` pairs plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], known: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.str(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("child") => cmd_child(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err("usage: autoglobe-benchmark run|compare ... (see benchmark/README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

// ---- child: one repeat in a fresh process ---------------------------------

/// `child repeat|reference --workload W --seed N [--trace 0|1]
/// [--experiments PATH]`: print one `key value...` line
/// per measured quantity for the orchestrator.
fn cmd_child(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(args, &["workload", "seed", "trace", "experiments"])?;
    let name = a.str("workload").ok_or("child needs --workload")?;
    let seed = a.num("seed", 0u64)?;
    let wl = workloads::workload(name, seed, None).ok_or(format!("unknown workload {name}"))?;
    let mut out = String::new();
    match a.positional.first().map(String::as_str) {
        Some("reference") => {
            let runs: Vec<_> = wl.episodes.iter().map(workloads::reference).collect();
            writeln!(out, "digest {:016x}", workloads::digest(&runs)).unwrap();
        }
        Some("repeat") => child_repeat(&wl, &a, &mut out)?,
        _ => return Err("child needs `repeat` or `reference`".into()),
    }
    print!("{out}");
    Ok(true)
}

fn child_repeat(wl: &Workload, a: &Args, out: &mut String) -> Result<(), String> {
    let traced = a.num("trace", 0u8)? == 1;
    let mut rec = Recorder::new(traced, wl.intervals());
    // Each set-up is scaled by the slice run right before it: a burst that
    // slows the few milliseconds of set-up may miss the loop's slices.
    let mut setup_s = Vec::new();
    let mut setup_slice_s = Vec::new();
    for _ in wl.episodes.len()..MIN_SETUPS {
        setup_slice_s.push(rec.calibration.run());
        let start = Instant::now();
        let ready = workloads::setup(&wl.episodes[0]);
        setup_s.push(start.elapsed().as_secs_f64());
        drop(ready);
    }
    let mut runs = Vec::new();
    let mut loop_s = 0.0;
    for episode in &wl.episodes {
        setup_slice_s.push(rec.calibration.run());
        let start = Instant::now();
        let ready = workloads::setup(episode);
        setup_s.push(start.elapsed().as_secs_f64());
        let calibrated = rec.calibration.spent_s();
        let start = Instant::now();
        runs.push(workloads::run(ready, &mut rec));
        // The slices run between intervals belong to no job.
        loop_s += start.elapsed().as_secs_f64() - (rec.calibration.spent_s() - calibrated);
    }
    let mut job_s = loop_s;
    if wl.suite && !traced {
        let experiments = a
            .str("experiments")
            .ok_or("paper-suite needs --experiments")?;
        let workdir = Path::new(OUT_DIR).join(format!("suite-{}", std::process::id()));
        let suite = workloads::run_suite(Path::new(experiments), Path::new("results"), &workdir)?;
        job_s += suite.secs;
        writeln!(out, "suite_s {}", suite.secs).unwrap();
        for (stage, secs) in &suite.stages {
            writeln!(out, "stage {stage} {secs}").unwrap();
        }
        for file in &suite.mismatches {
            writeln!(out, "mismatch {file}").unwrap();
        }
    }
    let rss_kb = sys::max_rss_kb(false).max(sys::max_rss_kb(true));
    writeln!(out, "digest {:016x}", workloads::digest(&runs)).unwrap();
    writeln!(out, "intervals {}", rec.intervals).unwrap();
    writeln!(out, "errors {}", rec.errors).unwrap();
    writeln!(out, "loop_s {loop_s}").unwrap();
    writeln!(out, "job_s {job_s}").unwrap();
    writeln!(out, "rss_mb {}", rss_kb as f64 / 1024.0).unwrap();
    writeln!(out, "setup_s {}", join(&setup_s)).unwrap();
    writeln!(out, "setup_slice_s {}", join(&setup_slice_s)).unwrap();
    writeln!(out, "interval_ns {}", join(&rec.interval_ns)).unwrap();
    writeln!(out, "calibration_s {}", join(&rec.calibration.slices_s)).unwrap();
    if traced {
        for (name, value) in layers::layer_metrics(&rec, &runs) {
            writeln!(out, "layer {name} {value}").unwrap();
        }
        let root_ns: u64 = rec
            .tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(trace::Span::duration_ns)
            .sum();
        writeln!(out, "traced_loop_s {}", root_ns as f64 / 1e9).unwrap();
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", wl.name));
        trace::write_jsonl(&path, wl.name, rec.tracer.spans(), TRACE_CAP)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn join(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    items.join(" ")
}

// ---- orchestrator ----------------------------------------------------------

/// What one child repeat reported.
#[derive(Debug, Default)]
struct Repeat {
    digest: String,
    intervals: u64,
    errors: u64,
    loop_s: f64,
    job_s: f64,
    rss_mb: f64,
    setup_s: Vec<f64>,
    setup_slice_s: Vec<f64>,
    interval_ns: Vec<f64>,
    calibration_s: Vec<f64>,
    suite_s: f64,
    stages: Vec<(String, f64)>,
    mismatches: Vec<String>,
    layers: Vec<(String, f64)>,
    traced_loop_s: f64,
}

impl Repeat {
    /// Scales this repeat's times to the reference host speed.
    fn factor(&self) -> f64 {
        calibration::factor(&self.calibration_s)
    }

    /// Each set-up, scaled by the slice run right before it.
    fn scaled_setups(&self) -> impl Iterator<Item = f64> + '_ {
        self.setup_s
            .iter()
            .zip(&self.setup_slice_s)
            .map(|(s, slice)| s * calibration::factor(&[*slice]))
    }
}

fn parse_repeat(stdout: &str) -> Result<Repeat, String> {
    let mut r = Repeat::default();
    let nums = |rest: &str| -> Result<Vec<f64>, String> {
        rest.split_whitespace()
            .map(|v| v.parse().map_err(|_| format!("bad number {v:?}")))
            .collect()
    };
    let one = |rest: &str| -> Result<f64, String> {
        rest.trim()
            .parse()
            .map_err(|_| format!("bad number {rest:?}"))
    };
    for line in stdout.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "digest" => r.digest = rest.to_string(),
            "intervals" => r.intervals = one(rest)? as u64,
            "errors" => r.errors = one(rest)? as u64,
            "loop_s" => r.loop_s = one(rest)?,
            "job_s" => r.job_s = one(rest)?,
            "rss_mb" => r.rss_mb = one(rest)?,
            "setup_s" => r.setup_s = nums(rest)?,
            "setup_slice_s" => r.setup_slice_s = nums(rest)?,
            "interval_ns" => r.interval_ns = nums(rest)?,
            "calibration_s" => r.calibration_s = nums(rest)?,
            "suite_s" => r.suite_s = one(rest)?,
            "traced_loop_s" => r.traced_loop_s = one(rest)?,
            "mismatch" => r.mismatches.push(rest.to_string()),
            "stage" | "layer" => {
                let (name, value) = rest.split_once(' ').ok_or("short line")?;
                let entry = (name.to_string(), one(value)?);
                if key == "stage" {
                    r.stages.push(entry);
                } else {
                    r.layers.push(entry);
                }
            }
            _ => {}
        }
    }
    if r.digest.is_empty() {
        return Err("child printed no digest".into());
    }
    Ok(r)
}

/// Run this binary as a child and wait for it.
fn spawn_child(
    kind: &str,
    name: &str,
    seed: u64,
    trace: bool,
    experiments: &str,
) -> Result<Repeat, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "child",
            kind,
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--experiments",
            experiments,
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{kind} child exited with {}", out.status));
    }
    parse_repeat(&String::from_utf8_lossy(&out.stdout))
}

/// The correctness gates of one repeat; returns how many of its operations
/// failed. A digest that differs from `expect` fails every interval of the
/// repeat; a result file that differs from the checked-in copy fails the
/// suite run.
fn gate(r: &Repeat, label: &str, expect: &str, problems: &mut Vec<String>) -> u64 {
    let mut bad = r.errors;
    if r.digest != expect {
        problems.push(format!("{label}: digest {} != {expect}", r.digest));
        bad = r.intervals;
    }
    if !r.mismatches.is_empty() {
        problems.push(format!(
            "{label}: results differ: {}",
            r.mismatches.join(", ")
        ));
        bad += 1;
    }
    bad
}

/// Everything one run of one workload produced.
struct WorkloadRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` of the reported metrics.
    metrics: Vec<(String, f64, &'static str)>,
    /// Per-repeat values of each end-to-end metric.
    repeats: Vec<(&'static str, Vec<f64>)>,
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    experiments: &str,
) -> Result<WorkloadRun, String> {
    let wl = workloads::workload(name, seed, None).ok_or(format!("unknown workload {name}"))?;
    // Operations: every simulated interval, plus each `experiments all`.
    let ops = wl.intervals() + u64::from(wl.suite);
    println!(
        "== {name}: seed {seed}, {} episode(s), {} intervals per repeat, measuring {seconds} s",
        wl.episodes.len(),
        wl.intervals()
    );
    let mut problems: Vec<String> = Vec::new();
    // The reference run's intervals are operations too: when it fails,
    // every one of them counts as failed.
    let mut attempted = wl.intervals();
    let mut failed = 0;
    let reference = match spawn_child("reference", name, seed, false, experiments) {
        Ok(r) => Some(r.digest),
        Err(e) => {
            problems.push(format!("reference run: {e}"));
            failed += wl.intervals();
            None
        }
    };
    println!(
        "  reference (RunBuilder) digest {}",
        reference.as_deref().unwrap_or("-")
    );

    let start = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    while repeats.len() < 2 || start.elapsed() < Duration::from_secs(seconds) {
        attempted += ops;
        match spawn_child("repeat", name, seed, false, experiments) {
            Ok(r) => {
                // Against the reference; without one, repeats must agree.
                let expect = reference
                    .clone()
                    .or_else(|| repeats.first().map(|f| f.digest.clone()))
                    .unwrap_or_else(|| r.digest.clone());
                let label = format!("repeat {}", repeats.len() + 1);
                failed += gate(&r, &label, &expect, &mut problems);
                println!(
                    "  repeat {}: job {:.3} s, loop {:.3} s ({:.0} ticks/s), host factor {:.3} \
                     ({} slices), rss {:.1} MB, digest {}",
                    repeats.len() + 1,
                    r.job_s,
                    r.loop_s,
                    r.intervals as f64 / r.loop_s,
                    r.factor(),
                    r.calibration_s.len(),
                    r.rss_mb,
                    r.digest
                );
                repeats.push(r);
            }
            Err(e) => {
                problems.push(format!("repeat {}: {e}", repeats.len() + 1));
                failed += ops;
                break;
            }
        }
    }

    let traced = if trace {
        attempted += wl.intervals();
        match spawn_child("repeat", name, seed, true, experiments) {
            Ok(t) => {
                // Tracing must change no output bit.
                let expect = repeats.first().map_or(String::new(), |r| r.digest.clone());
                failed += gate(&t, "traced repeat", &expect, &mut problems);
                Some(t)
            }
            Err(e) => {
                problems.push(format!("traced repeat: {e}"));
                failed += wl.intervals();
                None
            }
        }
    } else {
        None
    };

    for p in &problems {
        println!("  FAILED: {p}");
    }
    let correct = problems.is_empty();
    if repeats.is_empty() {
        return Ok(WorkloadRun {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
            repeats: Vec::new(),
        });
    }

    // Every time is scaled by its repeat's host factor (see calibration.rs),
    // each set-up by its own slice; memory is not scaled.
    let per = |f: &dyn Fn(&Repeat) -> f64| -> Vec<f64> { repeats.iter().map(f).collect() };
    let repeat_pct =
        |q: f64| per(&|r: &Repeat| percentile(&sorted(&r.interval_ns), q) / 1000.0 * r.factor());
    let jobs = per(&|r| r.job_s * r.factor());
    let setups: Vec<f64> = repeats.iter().flat_map(Repeat::scaled_setups).collect();
    let rss = per(&|r| r.rss_mb);
    // The interval percentiles are taken over every repeat's intervals
    // pooled, each scaled by its repeat's factor.
    let pooled: Vec<f64> = repeats
        .iter()
        .flat_map(|r| {
            let factor = r.factor();
            r.interval_ns.iter().map(move |ns| ns / 1000.0 * factor)
        })
        .collect();
    let pooled = sorted(&pooled);
    let tail = highest_supported_percentile(pooled.len(), &[99.9, 99.0, 95.0, 90.0]);
    println!(
        "  interval latency pooled over {} repeat(s), {} samples: p50 {:.2} us, p95 {:.2} us, \
         p99 {:.2} us (highest tail with 10 samples beyond: p{}); {:.0} ticks/s at reference \
         host speed; setup median of {} setups",
        repeats.len(),
        pooled.len(),
        percentile(&pooled, 50.0),
        percentile(&pooled, 95.0),
        percentile(&pooled, 99.0),
        tail.map_or("-".to_string(), |q| q.to_string()),
        wl.intervals() as f64 / median(&per(&|r| r.loop_s * r.factor())),
        setups.len(),
    );

    let metrics: Vec<(String, f64, &'static str)> = match &traced {
        None => {
            // Pooled percentiles; the median over repeats of every other
            // metric, so one repeat a burst slowed cannot move it.
            let values = [
                median(&jobs),
                percentile(&pooled, 50.0),
                percentile(&pooled, 95.0),
                median(&setups),
                median(&rss),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, unit), value)| (n.to_string(), value, unit))
                .collect()
        }
        Some(t) => {
            let suite_s = median(&per(&|r| r.suite_s));
            let stage_share = |stage: &str| {
                let secs: Vec<f64> = repeats
                    .iter()
                    .filter_map(|r| r.stages.iter().find(|(s, _)| s == stage).map(|(_, v)| *v))
                    .collect();
                if secs.is_empty() || suite_s == 0.0 {
                    0.0
                } else {
                    median(&secs) / suite_s
                }
            };
            let untraced_loop = median(&per(&|r| r.loop_s * r.factor()));
            layers::PER_LAYER
                .iter()
                .map(|&(n, unit)| {
                    let value = if let Some(stage) = n
                        .strip_prefix("experiments.")
                        .and_then(|s| s.strip_suffix(".share"))
                    {
                        stage_share(stage)
                    } else if n == "trace.overhead_pct" {
                        (t.traced_loop_s * t.factor() / untraced_loop - 1.0) * 100.0
                    } else {
                        t.layers
                            .iter()
                            .find(|(l, _)| l == n)
                            .map_or(0.0, |(_, v)| *v)
                    };
                    (n.to_string(), value, unit)
                })
                .collect()
        }
    };
    for (n, v, unit) in &metrics {
        println!("  {n:<36} {v:>16.6} {unit}");
    }
    // What `compare` reads from a single-run report: each end-to-end
    // metric's value per repeat (per set-up for `setup_s`).
    let per_repeat = vec![
        ("job_s", jobs),
        ("interval_p50_us", repeat_pct(50.0)),
        ("interval_p95_us", repeat_pct(95.0)),
        ("setup_s", setups),
        ("peak_rss_mb", rss),
    ];
    Ok(WorkloadRun {
        correct,
        attempted,
        failed,
        metrics,
        repeats: per_repeat,
    })
}

fn result_line(run: &WorkloadRun) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct,
        run.attempted.max(1),
        run.failed,
        json::metrics_object(&run.metrics)
    )
}

fn report_entry(seed: u64, run: &WorkloadRun) -> String {
    let repeats: Vec<String> = run
        .repeats
        .iter()
        .map(|(n, v)| format!("\"{n}\": {}", json::array(v)))
        .collect();
    format!(
        "{{\"seed\": {seed}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"repeats\": {{{}}}}}",
        run.correct,
        run.attempted.max(1),
        run.failed,
        json::metrics_object(&run.metrics),
        repeats.join(", ")
    )
}

/// `run`: one workload (printing the result line last), or with no
/// `--workload` every workload, `--runs` times each on seeds `seed..`,
/// written to a report for `compare`.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(
        args,
        &[
            "workload",
            "seed",
            "seconds",
            "trace",
            "experiments",
            "report",
            "runs",
        ],
    )?;
    let seed = a.num("seed", 42u64)?;
    let seconds = a.num("seconds", benchmark()?.run_seconds)?;
    let trace = match a.num("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let experiments = a.str("experiments").unwrap_or("target/release/experiments");
    if let Some(name) = a.str("workload") {
        if !workloads::NAMES.contains(&name) {
            return Err(format!(
                "unknown workload {name}; known: {}",
                workloads::NAMES.join(", ")
            ));
        }
        let run = run_workload(name, seed, seconds, trace, experiments)?;
        let ok = run.correct && run.failed == 0;
        println!("{}", result_line(&run));
        return Ok(ok);
    }

    let runs = a.num("runs", 1u64)?.max(1);
    let report = a
        .str("report")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("report-seed{seed}.json")));
    let mut ok = true;
    let mut entries = Vec::new();
    for name in workloads::NAMES {
        let mut per_run = Vec::new();
        for i in 0..runs {
            let run = run_workload(name, seed + i, seconds, trace, experiments)?;
            ok &= run.correct && run.failed == 0;
            println!("{}", result_line(&run));
            per_run.push(report_entry(seed + i, &run));
        }
        entries.push(format!(
            "\"{name}\": {{\"runs\": [{}]}}",
            per_run.join(", ")
        ));
    }
    let text = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"workloads\": {{{}}}}}\n",
        u8::from(trace),
        entries.join(", ")
    );
    if let Some(dir) = report.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&report, text).map_err(|e| format!("write {}: {e}", report.display()))?;
    println!("report written to {}", report.display());
    Ok(ok)
}

/// `BENCHMARK.json` at the root of the checkout the benchmark runs from.
fn benchmark() -> Result<compare::Benchmark, String> {
    compare::load_benchmark(Path::new("BENCHMARK.json"))
}

/// `compare A.json B.json`, or `compare --pairs N --workload W DIR_A DIR_B`.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(args, &["pairs", "workload", "seed", "seconds"])?;
    let benchmark = benchmark()?;
    let bounds = benchmark.bounds;
    let [first, second] = a.positional.as_slice() else {
        return Err("compare needs two reports (or two checkout directories with --pairs)".into());
    };
    let (first, second) = (Path::new(first), Path::new(second));
    match a.str("pairs") {
        None => compare::compare_reports(&bounds, first, second),
        Some(_) => {
            let workload = a.str("workload").ok_or("--pairs needs --workload")?;
            compare::compare_pairs(
                &bounds,
                a.num("pairs", 10usize)?,
                workload,
                a.num("seed", 1u64)?,
                a.num("seconds", benchmark.run_seconds)?,
                [first, second],
            )
        }
    }
}
