//! CLI regenerating every table and figure of the paper's evaluation.
//!
//! ```bash
//! cargo run --release -p autoglobe-bench --bin experiments -- all
//! cargo run --release -p autoglobe-bench --bin experiments -- fig12 --hours 80
//! cargo run --release -p autoglobe-bench --bin experiments -- table7 --jobs 4
//! ```
//!
//! CSV outputs land in `results/`; summaries print to stdout. Every
//! invocation also writes `results/timings.csv` with the wall-clock time
//! of each experiment it ran. `--jobs N` sizes the worker pool (default:
//! the machine's available parallelism); results are bit-identical at any
//! job count because every simulation owns its seeded RNG. An unknown
//! command or flag, a flag without a value and a value that does not parse
//! print the usage and exit with status 2 before anything runs.

use autoglobe_bench as xp;
use autoglobe_simulator::{Metrics, Scenario};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "usage: experiments <fig3|fig5|tables|fig10|inventory|fig12|fig13|fig14|\
                     fig15|fig16|fig17|scale-smoke|table7|chaos|shardchaos|shard-smoke|\
                     proactive|scenarios|designer|ablation|all> [--hours N] [--seed N] \
                     [--jobs N] [--inner-jobs N] [--servers N] [--shards N] [--scenario NAME]";

/// The flags taking a non-negative integer; `--scenario` takes a name.
const NUMBER_FLAGS: [&str; 6] = [
    "--hours",
    "--seed",
    "--jobs",
    "--inner-jobs",
    "--servers",
    "--shards",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let flags = match Flags::parse(args.get(1..).unwrap_or_default()) {
        Ok(flags) => flags,
        Err(err) => usage_error(&err),
    };
    let hours = flags.number("--hours").unwrap_or(80);
    let seed = flags.number("--seed").unwrap_or(42);
    let jobs = xp::pool::effective_jobs(flags.number("--jobs").unwrap_or(0) as usize);
    // Intra-run worker threads for the per-server tick phase. Defaults to 1
    // (fully sequential); output is bit-identical at any width.
    let inner_jobs = flags.number("--inner-jobs").unwrap_or(1) as usize;

    let mut timings = Timings::new(jobs, hours, seed);

    match command {
        "fig3" => timings.record("fig3", run_fig3),
        "fig5" => timings.record("fig5", run_fig5),
        "tables" => timings.record("tables", || {
            println!("{}", xp::tables_1_2_3());
            println!("{}", xp::tables_5_6());
        }),
        "fig10" => timings.record("fig10", run_fig10),
        "inventory" => timings.record("inventory", || println!("{}", xp::inventory())),
        "fig12" => timings.record("fig12", || {
            run_scenario_figure("fig12", Scenario::Static, hours, seed, inner_jobs)
        }),
        "fig13" => timings.record("fig13", || {
            run_scenario_figure(
                "fig13",
                Scenario::ConstrainedMobility,
                hours,
                seed,
                inner_jobs,
            )
        }),
        "fig14" => timings.record("fig14", || {
            run_scenario_figure("fig14", Scenario::FullMobility, hours, seed, inner_jobs)
        }),
        "fig15" => timings.record("fig15", || {
            run_fi_figure("fig15", Scenario::Static, hours, seed, inner_jobs)
        }),
        "fig16" => timings.record("fig16", || {
            run_fi_figure(
                "fig16",
                Scenario::ConstrainedMobility,
                hours,
                seed,
                inner_jobs,
            )
        }),
        "fig17" => timings.record("fig17", || {
            run_fi_figure("fig17", Scenario::FullMobility, hours, seed, inner_jobs)
        }),
        "scale-smoke" => timings.record("scale-smoke", || {
            // 600 servers split the per-server phase into three real lanes
            // at --inner-jobs 4; CI diffs the digest against --inner-jobs 1.
            let servers = flags.number("--servers").unwrap_or(600) as usize;
            let hours = flags.number("--hours").unwrap_or(2);
            let digest = xp::scale_smoke(servers, hours, seed, inner_jobs);
            write(&format!("results/scale_smoke_{servers}.csv"), &digest);
        }),
        "table7" => timings.record("table7", || run_table7(hours, seed, jobs)),
        "chaos" => timings.record("chaos", || run_chaos(hours, seed, jobs)),
        "shardchaos" => timings.record("shardchaos", || {
            // For shardchaos, --shards widens the plane's scoped-thread
            // fan-out (output-neutral); the shard counts of the sweep
            // points are the experiment's ladder and are fixed.
            let plane_jobs = flags.number("--shards").unwrap_or(1) as usize;
            run_shard_chaos(hours, seed, jobs, plane_jobs)
        }),
        "shard-smoke" => timings.record("shard-smoke", || {
            // Here --shards IS the shard count: CI diffs the digest at
            // --shards 1 against --shards 4 to prove partitioning is
            // invisible to the paper scenarios.
            let shards = flags.number("--shards").unwrap_or(1) as usize;
            let hours = flags.number("--hours").unwrap_or(6);
            let digest = xp::shard_smoke(shards, hours, seed, jobs);
            write("results/shard_smoke.csv", &digest);
        }),
        "proactive" => timings.record("proactive", || run_proactive(hours, seed, jobs)),
        "scenarios" => timings.record("scenarios", || {
            // Production days are shorter than the 80 h figure horizon: the
            // catalog's latest event window closes at hour 40, so default to
            // a 48 h window unless --hours was given explicitly. --shards
            // sizes the sharded rows' control plane (output-neutral, like
            // --jobs): CI diffs the CSV across both knobs.
            let hours = flags.number("--hours").unwrap_or(48);
            let shards = flags.number("--shards").unwrap_or(1) as usize;
            // --scenario narrows the suite to one entry, resolved through
            // the same lookup the catalog uses — paper names ("static",
            // "constrained-mobility", "full-mobility") work too.
            run_scenarios(hours, seed, jobs, shards, flags.scenario.as_deref())
        }),
        "designer" => timings.record("designer", run_designer),
        "ablation" => timings.record("ablation", || run_ablation(hours.min(30))),
        "all" => {
            timings.record("fig3", run_fig3);
            timings.record("fig5", run_fig5);
            timings.record("tables", || {
                println!("{}", xp::tables_1_2_3());
                println!("{}", xp::tables_5_6());
            });
            timings.record("fig10", run_fig10);
            timings.record("inventory", || println!("{}", xp::inventory()));
            // One pooled run per scenario feeds BOTH its per-server figure
            // (12–14) and its FI-instance figure (15–17). This used to
            // simulate every scenario twice — once per figure family.
            let specs: Vec<(Scenario, f64)> =
                Scenario::ALL.into_iter().map(|s| (s, 1.15)).collect();
            let metrics = timings.record("fig12-17_runs", || {
                xp::scenario_runs(&specs, hours, seed, jobs)
            });
            let figures = [("fig12", "fig15"), ("fig13", "fig16"), ("fig14", "fig17")];
            for (((scenario, _), (fig_servers, fig_fi)), m) in
                specs.iter().zip(figures).zip(&metrics)
            {
                render_scenario_figure(fig_servers, *scenario, m);
                render_fi_figure(fig_fi, *scenario, m);
            }
            timings.record("table7", || run_table7(hours, seed, jobs));
            timings.record("chaos", || run_chaos(hours, seed, jobs));
            timings.record("shardchaos", || run_shard_chaos(hours, seed, jobs, 1));
            timings.record("proactive", || run_proactive(hours, seed, jobs));
            timings.record("scenarios", || run_scenarios(48, seed, jobs, 1, None));
            timings.record("designer", run_designer);
            timings.record("ablation", || run_ablation(hours.min(30)));
        }
        _ => usage_error(&format!("unknown command {command:?}")),
    }

    timings.write_csv();
}

/// Print `err` and the usage, then exit with status 2.
fn usage_error(err: &str) -> ! {
    eprintln!("experiments: {err}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The flags after the command, checked by [`Flags::parse`].
#[derive(Default)]
struct Flags {
    numbers: BTreeMap<&'static str, u64>,
    scenario: Option<String>,
}

impl Flags {
    /// Every argument must be a known `--name` followed by its value; a
    /// number flag's value must parse, and no flag may repeat.
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = args.iter();
        while let Some(name) = args.next() {
            let number_flag = NUMBER_FLAGS.iter().find(|&&known| known == name);
            if number_flag.is_none() && name != "--scenario" {
                return Err(format!("unknown flag {name:?}"));
            }
            let value = args.next().ok_or(format!("{name} needs a value"))?;
            let repeated = match number_flag {
                Some(&known) => {
                    let number = value.parse().map_err(|_| {
                        format!("{name} takes a non-negative integer, got {value:?}")
                    })?;
                    flags.numbers.insert(known, number).is_some()
                }
                None => flags.scenario.replace(value.clone()).is_some(),
            };
            if repeated {
                return Err(format!("{name} given twice"));
            }
        }
        Ok(flags)
    }

    fn number(&self, name: &str) -> Option<u64> {
        self.numbers.get(name).copied()
    }
}

fn write(path: &str, contents: &str) {
    if let Some(dir) = Path::new(path).parent() {
        fs::create_dir_all(dir).expect("create results dir");
    }
    fs::write(path, contents).expect("write results file");
    println!("wrote {path} ({} lines)", contents.lines().count());
}

/// Wall-clock bookkeeping: one row per experiment, written to
/// `results/timings.csv` at the end of the invocation.
struct Timings {
    jobs: usize,
    hours: u64,
    seed: u64,
    rows: Vec<(String, f64)>,
}

impl Timings {
    fn new(jobs: usize, hours: u64, seed: u64) -> Self {
        Timings {
            jobs,
            hours,
            seed,
            rows: Vec::new(),
        }
    }

    fn record<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.rows
            .push((name.to_string(), start.elapsed().as_secs_f64()));
        out
    }

    fn write_csv(&self) {
        let mut csv = String::from("experiment,jobs,hours,seed,wall_seconds\n");
        for (name, secs) in &self.rows {
            csv.push_str(&format!(
                "{name},{},{},{},{secs:.3}\n",
                self.jobs, self.hours, self.seed
            ));
        }
        write("results/timings.csv", &csv);
    }
}

fn run_fig3() {
    write(
        "results/fig3_cpu_load_membership.csv",
        &xp::fig3_membership_table(),
    );
}

fn run_fig5() {
    let (up, out) = xp::fig5_inference_example();
    println!("Figure 5 — max–min inference worked example:");
    println!("  scale-up  applicability: {up:.3} (paper: 0.6)");
    println!("  scale-out applicability: {out:.3} (paper: 0.3)");
}

fn run_fig10() {
    write("results/fig10_load_curves.csv", &xp::fig10_load_curves());
}

fn summarize(name: &str, scenario: Scenario, metrics: &Metrics) {
    println!(
        "{name} ({scenario}): mean load {:.1} %, worst overload {}, recurring {}, \
         actions {}, alerts {}",
        metrics.mean_average_load() * 100.0,
        metrics.worst_overload(),
        metrics.worst_recurring_overload(),
        metrics.actions.len(),
        metrics.alerts,
    );
}

fn render_scenario_figure(name: &str, scenario: Scenario, metrics: &Metrics) {
    write(
        &format!("results/{name}_all_servers_{}.csv", scenario.name()),
        &xp::all_servers_csv(metrics),
    );
    summarize(name, scenario, metrics);
}

fn render_fi_figure(name: &str, scenario: Scenario, metrics: &Metrics) {
    write(
        &format!("results/{name}_fi_instances_{}.csv", scenario.name()),
        &xp::fi_series_csv(metrics),
    );
    let log = xp::action_log(metrics);
    write(
        &format!("results/{name}_actions_{}.log", scenario.name()),
        &log,
    );
    summarize(name, scenario, metrics);
}

fn run_scenario_figure(name: &str, scenario: Scenario, hours: u64, seed: u64, inner_jobs: usize) {
    // The paper's Figures 12–14 run at +15 % users.
    let metrics = xp::scenario_run_at(scenario, 1.15, hours, seed, inner_jobs);
    render_scenario_figure(name, scenario, &metrics);
}

fn run_fi_figure(name: &str, scenario: Scenario, hours: u64, seed: u64, inner_jobs: usize) {
    let metrics = xp::scenario_run_at(scenario, 1.15, hours, seed, inner_jobs);
    render_fi_figure(name, scenario, &metrics);
}

fn run_table7(hours: u64, seed: u64, jobs: usize) {
    println!(
        "Table 7 — maximum possible, relative number of users ({hours} h per probe, \
         {jobs} job(s)):"
    );
    let mut csv = String::from("scenario,max_users_percent,paper_percent\n");
    let paper = [100.0, 115.0, 135.0];
    for ((scenario, percent), paper_value) in xp::table7_with_jobs(hours, seed, jobs)
        .into_iter()
        .zip(paper)
    {
        println!(
            "  {:<22} {percent:>5.0} %   (paper: {paper_value:.0} %)",
            scenario.name()
        );
        csv.push_str(&format!(
            "{},{percent:.0},{paper_value:.0}\n",
            scenario.name()
        ));
    }
    write("results/table7_max_users.csv", &csv);
}

fn run_chaos(hours: u64, seed: u64, jobs: usize) {
    println!(
        "Chaos recovery sweep — Figure 13 scenario with fallible execution, \
         heartbeat detection and scaled failure rates ({hours} h per point, {jobs} job(s)):"
    );
    let rows = xp::chaos_sweep(hours, seed, jobs);
    for (scale, m) in &rows {
        println!(
            "  scale {scale:>5}: {:>3} failures, {:>3} detected (latency {:>5.0} s), \
             {:>3} recovered (MTTR {:>5.0} s), {:>2} lost, {:>3} retries, {:>2} compensations",
            m.failures,
            m.detections,
            m.mean_detection_latency_secs(),
            m.recoveries,
            m.mean_time_to_recovery_secs(),
            m.lost_instances,
            m.exec_retries,
            m.exec_compensations,
        );
    }
    write("results/chaos_recovery.csv", &xp::chaos_csv(&rows));
}

fn run_shard_chaos(hours: u64, seed: u64, jobs: usize, plane_jobs: usize) {
    println!(
        "Shard chaos sweep — Figure 13 scenario on a sharded control plane \
         with host failures and owner kills ({hours} h per point, {jobs} job(s), \
         plane fan-out {plane_jobs}, delta replication):"
    );
    let rows = xp::shard_chaos_sweep(hours, seed, jobs, plane_jobs);
    for (shards, kills, m, s) in &rows {
        println!(
            "  {shards} shard(s), {kills} kill(s): {:>2} owner detections \
             (latency {:>5.0} s), {:>2} re-adoptions ({:>5.0} s), {:>2} fenced, \
             {:>2} dropped triggers, {:>3} failures / {:>3} detected, \
             {:>3} actions, {:>2} alerts",
            s.owner_detections,
            s.mean_owner_detection_secs(),
            s.readoptions,
            s.mean_readoption_secs(),
            s.fenced_ops,
            s.dropped_triggers,
            s.failures_injected,
            s.detections,
            m.actions.len(),
            m.alerts,
        );
    }
    write("results/shard_recovery.csv", &xp::shard_chaos_csv(&rows));
}

fn run_proactive(hours: u64, seed: u64, jobs: usize) {
    println!(
        "Proactive vs. reactive — Figure 13 scenario through the Supervisor \
         control plane, actions take 5-10 min to land ({hours} h per mode, \
         {jobs} job(s)):"
    );
    let rows = xp::proactive_compare(hours, seed, jobs);
    for (proactive, m) in &rows {
        println!(
            "  {:<9}: {:>7.1} overload-min (worst {:>6.1}), {:>3} actions, \
             {:>2} alerts, {:>3} proactive firings (mean lead {:>5.1} min)",
            if *proactive { "proactive" } else { "reactive" },
            m.total_overload().as_secs() as f64 / 60.0,
            m.worst_overload().as_secs() as f64 / 60.0,
            m.actions.len(),
            m.alerts,
            m.proactive_triggers,
            m.mean_proactive_lead_secs() / 60.0,
        );
    }
    println!(
        "  capacity ladder — highest user level each mode sustains \
         (Table 7 criterion):"
    );
    let ladder = xp::proactive_capacity_ladder(hours, seed, jobs);
    for (proactive, multiplier) in &ladder {
        println!(
            "  {:<9}: {:>3.0} % users",
            if *proactive { "proactive" } else { "reactive" },
            multiplier * 100.0,
        );
    }
    let csv = format!(
        "{}{}",
        xp::proactive_csv(&rows),
        xp::proactive_ladder_csv(&ladder)
    );
    write("results/proactive.csv", &csv);
}

fn run_scenarios(hours: u64, seed: u64, jobs: usize, shards: usize, only: Option<&str>) {
    use autoglobe_simulator::ScenarioSpec;
    let specs = match only {
        None => ScenarioSpec::catalog(),
        Some(name) => match ScenarioSpec::lookup(name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!(
                    "unknown scenario {name:?}; known: {}",
                    ScenarioSpec::all_names().join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    println!(
        "Production-day scenario suite — {} under reactive, proactive and \
         sharded control ({hours} h per row, {jobs} job(s), {shards} shard(s)):",
        match only {
            None => "every catalog scenario".to_string(),
            Some(name) => format!("scenario {name:?}"),
        }
    );
    let rows = xp::scenario_suite_for(&specs, hours, seed, jobs, shards);
    for row in &rows {
        let m = &row.metrics;
        println!(
            "  {:<20} {:<9}: {:>7.1} overload-min, {:>6.2} lost sessions, \
             {:>2} failures / {:>2} recovered (MTTR {:>5.0} s), {:>3} actions, \
             {:>2} alerts, {:>3} proactive firings",
            row.scenario,
            row.mode,
            m.total_overload().as_secs() as f64 / 60.0,
            m.lost_sessions,
            m.failures,
            m.recoveries,
            m.mean_time_to_recovery_secs(),
            m.actions.len(),
            m.alerts,
            m.proactive_triggers,
        );
    }
    write("results/scenario_suite.csv", &xp::scenario_suite_csv(&rows));
}

fn run_designer() {
    let (hand, designed) = xp::designer_vs_figure_11();
    println!("Landscape designer vs. the hand-made Figure 11 allocation:");
    println!("  hand-made peak daily load: {:.0} %", hand * 100.0);
    println!("  designed  peak daily load: {:.0} %", designed * 100.0);
}

fn run_ablation(hours: u64) {
    println!("Ablation — decision agreement with max-min/leftmost-max:");
    for (label, agreement) in xp::ablation_decision_quality() {
        println!("  {label:<28} {:.0} %", agreement * 100.0);
    }
    println!("Ablation — protection-time sensitivity (FM, +15 %, {hours} h):");
    for (label, actions, overload) in xp::ablation_timing(hours) {
        println!("  {label:<28} {actions:>3} actions, worst overload {overload:>6} s");
    }
}
