//! `compare`: judge one set of runs against another with the bounds in
//! `BENCHMARK.json` — one row per workload and metric, each better, worse,
//! unchanged or unresolved — and the `--pairs` mode that alternates two
//! checkouts and applies the nine-in-ten wins rule for a claimed gain.

use crate::json::{self, Value};
use crate::stats::{iqr_share, median, quartiles};
use std::path::Path;
use std::process::Command;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// What the benchmark reads from `BENCHMARK.json`.
pub struct Benchmark {
    /// The `end_to_end` metrics' bounds.
    pub bounds: Vec<Bound>,
    /// How long one run measures, the default of `--seconds`.
    pub run_seconds: u64,
}

/// Read `BENCHMARK.json`.
pub fn load_benchmark(path: &Path) -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")? as u64;
    let bounds = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_array()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Benchmark {
        bounds,
        run_seconds,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `x` reads better than `y` under `bound`'s direction.
fn better(bound: &Bound, x: f64, y: f64) -> bool {
    if bound.lower_is_better {
        x < y
    } else {
        x > y
    }
}

/// Relative change of `b`'s median against `a`'s, positive when worse.
fn worsening(bound: &Bound, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    let change = (mb - ma) / ma.abs();
    if bound.lower_is_better {
        change
    } else {
        -change
    }
}

/// The no-regression rule: worse or better when the medians differ by more
/// than the bound; unresolved when either side's quartile spread exceeds
/// the bound, unless every run of `b` reads better (or worse) than every
/// run of `a`.
pub fn verdict(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    let all = |pred: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| pred(x, y)));
    if iqr_share(a).max(iqr_share(b)) > bound.bound {
        return if all(&|x, y| better(bound, y, x)) {
            Verdict::Better
        } else if all(&|x, y| better(bound, x, y)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = worsening(bound, a, b);
    if change > bound.bound {
        Verdict::Worse
    } else if change < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The gain rule over `a[i]`/`b[i]` pairs: `b` wins at least nine tenths
/// of the pairs (ties count for neither) and the medians differ by more
/// than `a`'s own quartile spread. Returns the wins of `b`.
pub fn gain(bound: &Bound, a: &[f64], b: &[f64]) -> (bool, usize) {
    let wins = a
        .iter()
        .zip(b)
        .filter(|(&x, &y)| better(bound, y, x))
        .count();
    let (q1, q3) = quartiles(a);
    let claimed = wins * 10 >= a.len() * 9 && (median(b) - median(a)).abs() > q3 - q1;
    (claimed, wins)
}

/// The verdict of a `--pairs` comparison: better only when the gain rule
/// holds; otherwise the no-regression rule, which can find a change worse
/// or unresolved but never better.
pub fn pair_verdict(bound: &Bound, a: &[f64], b: &[f64], claimed: bool) -> Verdict {
    if claimed {
        return Verdict::Better;
    }
    match verdict(bound, a, b) {
        Verdict::Better => Verdict::Unchanged,
        v => v,
    }
}

/// Samples of `metric` for one workload of a report: the per-run values
/// when the report holds several runs, otherwise the single run's
/// per-repeat values.
fn samples(workload: &Value, metric: &str) -> Vec<f64> {
    let runs = workload.get("runs").map(Value::as_array).unwrap_or(&[]);
    if runs.len() >= 2 {
        runs.iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    } else {
        runs.first()
            .and_then(|r| r.get("repeats")?.get(metric))
            .map(|v| v.as_array().iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    }
}

fn row(workload: &str, bound: &Bound, a: &[f64], b: &[f64], verdict: Verdict, extra: &str) {
    println!(
        "{workload:<16} {:<16} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>7.2}%  {:<10} {extra}",
        bound.name,
        median(a),
        median(b),
        worsening(bound, a, b) * 100.0,
        iqr_share(a).max(iqr_share(b)) * 100.0,
        bound.bound * 100.0,
        verdict.label(),
    );
}

fn header() {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
}

/// Compare two run reports; returns whether no row is worse or unresolved.
pub fn compare_reports(bounds: &[Bound], a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let (ra, rb) = (read(a)?, read(b)?);
    let (wa, wb) = (
        ra.get("workloads").ok_or("report A has no workloads")?,
        rb.get("workloads").ok_or("report B has no workloads")?,
    );
    header();
    let mut clean = true;
    for (name, workload_a) in wa.entries() {
        let Some(workload_b) = wb.get(name) else {
            println!("{name:<16} (missing from B)");
            continue;
        };
        for bound in bounds {
            let (sa, sb) = (
                samples(workload_a, &bound.name),
                samples(workload_b, &bound.name),
            );
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let v = verdict(bound, &sa, &sb);
            clean &= !matches!(v, Verdict::Worse | Verdict::Unresolved);
            row(
                name,
                bound,
                &sa,
                &sb,
                v,
                &format!("n={}/{}", sa.len(), sb.len()),
            );
        }
    }
    Ok(clean)
}

/// The end-to-end metric values of one run of `benchmark/run.sh` in `dir`.
fn run_checkout(dir: &Path, workload: &str, seed: u64, seconds: u64) -> Result<Value, String> {
    let out = Command::new("bash")
        .arg("benchmark/run.sh")
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .current_dir(dir)
        .output()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{}: run failed ({}): {last}",
            dir.display(),
            out.status
        ));
    }
    json::parse(last)
}

/// `--pairs`: run `pairs` pairs of the two checkouts on one workload,
/// alternating which side runs first, seed `seed + i` for pair `i` on both
/// sides. Returns whether no metric is worse or unresolved.
pub fn compare_pairs(
    bounds: &[Bound],
    pairs: usize,
    workload: &str,
    seed: u64,
    seconds: u64,
    dirs: [&Path; 2],
) -> Result<bool, String> {
    if pairs < 10 {
        return Err("--pairs needs at least 10 pairs".into());
    }
    let mut values: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
    for i in 0..pairs {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let run = run_checkout(dirs[side], workload, seed + i as u64, seconds)?;
            eprintln!(
                "pair {i} side {}: {}",
                ["A", "B"][side],
                dirs[side].display()
            );
            values[side].push(run);
        }
    }
    let metric = |side: usize, name: &str| -> Vec<f64> {
        values[side]
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect()
    };
    header();
    let mut clean = true;
    for bound in bounds {
        let (a, b) = (metric(0, &bound.name), metric(1, &bound.name));
        if a.len() != pairs || b.len() != pairs {
            continue;
        }
        let (claimed, wins) = gain(bound, &a, &b);
        let v = pair_verdict(bound, &a, &b, claimed);
        clean &= !matches!(v, Verdict::Worse | Verdict::Unresolved);
        row(
            workload,
            bound,
            &a,
            &b,
            v,
            &format!("B wins {wins}/{pairs}"),
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "t".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&lower(0.1), &a, &[10.2, 10.3, 10.1, 10.2, 10.25]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&lower(0.1), &a, &[12.0, 12.1, 11.9, 12.0, 12.05]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower(0.1), &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Better
        );
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0];
        assert_eq!(verdict(&lower(0.1), &a, &noisy), Verdict::Unresolved);
        // Spread wider than the bound, but every run of B beats every run of A.
        assert_eq!(
            verdict(&lower(0.01), &[10.0, 11.0, 12.0], &[5.0, 6.0, 7.0]),
            Verdict::Better
        );
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(
            verdict(&higher, &a, &[12.0, 12.1, 11.9, 12.0, 12.05]),
            Verdict::Better
        );
    }

    #[test]
    fn a_gain_needs_nine_in_ten_wins_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 % 3.0).collect();
        let faster: Vec<f64> = a.iter().map(|x| x - 10.0).collect();
        assert_eq!(gain(&lower(0.1), &a, &faster), (true, 10));
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(gain(&lower(0.1), &a, &mixed), (false, 8));
        let barely: Vec<f64> = a.iter().map(|x| x - 0.5).collect();
        assert!(
            !gain(&lower(0.1), &a, &barely).0,
            "within the parent's own spread"
        );
    }

    #[test]
    fn pairs_claim_no_gain_without_nine_in_ten_wins() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 % 3.0).collect();
        // Seven wins in ten, and a median gap far beyond the bound.
        let mut b: Vec<f64> = a.iter().map(|x| x - 30.0).collect();
        b[..3].copy_from_slice(&[200.0; 3]);
        let bound = lower(0.1);
        assert_eq!(verdict(&bound, &a, &b), Verdict::Unresolved);
        let (claimed, wins) = gain(&bound, &a, &b);
        assert_eq!((claimed, wins), (false, 7));
        // Eight wins and two ties: the medians differ by 20 % with both
        // spreads inside the bound, yet no gain may be claimed.
        let steady_b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let mut eight = steady_b.clone();
        eight[..2].copy_from_slice(&a[..2]);
        assert_eq!(verdict(&bound, &a, &eight), Verdict::Better);
        let (claimed, wins) = gain(&bound, &a, &eight);
        assert_eq!((claimed, wins), (false, 8), "ties count for neither side");
        assert_eq!(
            pair_verdict(&bound, &a, &eight, claimed),
            Verdict::Unchanged
        );
        let (claimed, _) = gain(&bound, &a, &steady_b);
        assert_eq!(
            pair_verdict(&bound, &a, &steady_b, claimed),
            Verdict::Better
        );
    }
}
