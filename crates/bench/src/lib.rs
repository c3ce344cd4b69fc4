//! Experiment implementations regenerating every table and figure of the
//! paper's evaluation (Section 5). The `experiments` binary is a thin CLI
//! over these functions; integration tests call them directly.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Figure 3 (linguistic variable `cpuLoad`) | [`fig3_membership_table`] |
//! | Figure 5 (max–min inference worked example) | [`fig5_inference_example`] |
//! | Tables 1–3 (controller variables & actions) | [`tables_1_2_3`] |
//! | Figure 10 (daily load curves LES / BW) | [`fig10_load_curves`] |
//! | Figure 11 / Table 4 (hardware, allocation, users) | [`inventory`] |
//! | Tables 5/6 (scenario constraints) | [`tables_5_6`] |
//! | Figures 12–14 (per-server load, three scenarios) | [`scenario_run`] |
//! | Figures 15–17 (FI instances + controller actions) | [`scenario_run`] (`fi_series`, `action_log`) |
//! | Table 7 (max users per scenario) | [`table7`] |
//! | Ablations (inference, defuzzifier, watch/protection times) | [`ablation_decision_quality`], [`ablation_timing`] |
//! | Landscape designer vs. Figure 11 (future work) | [`designer_vs_figure_11`] |

#![forbid(unsafe_code)]

pub use autoglobe_pool as pool;

use autoglobe::forecast::ProactiveConfig;
use autoglobe::{RunBuilder, ShardChaos, ShardRecoveryStats};
use autoglobe_controller::{ControllerConfig, ExecutorConfig};
use autoglobe_fuzzy::{Defuzzifier, Engine, EngineConfig, InferenceMethod, LinguisticVariable};
use autoglobe_landscape::{ServerId, SynthConfig};
use autoglobe_monitor::SimDuration;
use autoglobe_rng::splitmix64;
use autoglobe_simulator::{
    build_environment, find_max_users, sap, synth_environment, CapacityCriterion, DailyPattern,
    FailureInjection, HeartbeatDetection, Metrics, Scenario, ScenarioSpec, SimConfig, Simulation,
};
use std::fmt::Write as _;

/// Figure 3: membership grades of the `cpuLoad` linguistic variable as a
/// CSV table `load,low,medium,high`, sampled at 1 % resolution. The paper's
/// worked point (`μ_medium(0.6) = 0.5`, `μ_high(0.6) = 0.2`) is asserted.
pub fn fig3_membership_table() -> String {
    let variable = autoglobe_controller::variables::load("cpuLoad");
    let mut out = String::from("load,low,medium,high\n");
    for i in 0..=100 {
        let x = i as f64 / 100.0;
        let grades = variable.fuzzify(x);
        writeln!(
            out,
            "{x:.2},{:.4},{:.4},{:.4}",
            grades[0], grades[1], grades[2]
        )
        .unwrap();
    }
    let check = variable.fuzzify(0.6);
    assert!((check[1] - 0.5).abs() < 1e-9, "μ_medium(0.6) = 0.5");
    assert!((check[2] - 0.2).abs() < 1e-9, "μ_high(0.6) = 0.2");
    out
}

/// Figure 5: the paper's worked max–min inference example. Returns the
/// crisp `(scaleUp, scaleOut)` applicabilities, which must be ≈ (0.6, 0.3)
/// for the paper's assumed membership grades.
pub fn fig5_inference_example() -> (f64, f64) {
    // The paper assumes μ_high(cpuLoad) = 0.8 and performance-index grades
    // (low, medium, high) = (0, 0.6, 0.3). We construct a variable pair
    // realizing exactly those grades at the measured points.
    use autoglobe_fuzzy::MembershipFunction;
    let mut engine = Engine::new();
    engine.add_input(autoglobe_controller::variables::load("cpuLoad"));
    engine.add_input(
        LinguisticVariable::builder("performanceIndex")
            .range(0.0, 10.0)
            .term("low", MembershipFunction::trapezoid(0.0, 0.0, 0.5, 1.0))
            // Falling edge hits 0.6 at i = 5.8 …
            .term("medium", MembershipFunction::trapezoid(1.0, 3.0, 5.0, 7.0))
            // … rising edge tuned to hit 0.3 at the same i = 5.8.
            .term("high", MembershipFunction::trapezoid(4.0, 10.0, 10.0, 10.0))
            .build()
            .unwrap(),
    );
    engine.add_output(LinguisticVariable::applicability("scaleUp"));
    engine.add_output(LinguisticVariable::applicability("scaleOut"));
    engine
        .add_rule_str(
            "IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) \
             THEN scaleUp IS applicable",
        )
        .unwrap();
    engine
        .add_rule_str("IF cpuLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable")
        .unwrap();
    // cpuLoad 0.9 → μ_high = 0.8; performanceIndex 5.8 → μ_medium = 0.6,
    // μ_high = 0.3.
    let out = engine
        .run([("cpuLoad", 0.9), ("performanceIndex", 5.8)])
        .unwrap();
    (out["scaleUp"], out["scaleOut"])
}

/// Tables 1, 2 and 3: the controller's variable inventory, rendered as text.
pub fn tables_1_2_3() -> String {
    let mut out = String::new();
    writeln!(out, "Table 1 — input variables for action selection:").unwrap();
    for v in autoglobe_controller::variables::action_selection_inputs() {
        let terms: Vec<&str> = v.terms().iter().map(|t| t.name()).collect();
        writeln!(out, "  {:<20} terms: {}", v.name(), terms.join(", ")).unwrap();
    }
    writeln!(out, "\nTable 2 — output variables (actions):").unwrap();
    for kind in autoglobe_landscape::ActionKind::ALL {
        writeln!(
            out,
            "  {:<20} needs target host: {}",
            kind.variable_name(),
            kind.needs_target()
        )
        .unwrap();
    }
    writeln!(out, "\nTable 3 — input variables for server selection:").unwrap();
    for v in autoglobe_controller::variables::server_selection_inputs() {
        let terms: Vec<&str> = v.terms().iter().map(|t| t.name()).collect();
        writeln!(out, "  {:<20} terms: {}", v.name(), terms.join(", ")).unwrap();
    }
    out
}

/// Figure 10: the daily activity patterns of an LES-style interactive
/// service and the BW batch service, as CSV `hour,les,bw` (fraction of the
/// respective user/job base, no jitter).
pub fn fig10_load_curves() -> String {
    let mut out = String::from("hour,les,bw\n");
    for i in 0..=24 * 12 {
        let hour = i as f64 / 12.0;
        writeln!(
            out,
            "{hour:.3},{:.4},{:.4}",
            DailyPattern::Interactive.active_fraction(hour),
            DailyPattern::NightBatch.active_fraction(hour),
        )
        .unwrap();
    }
    out
}

/// Figure 11 + Table 4: hardware pool, initial allocation and user counts.
pub fn inventory() -> String {
    let env = build_environment(Scenario::Static);
    let mut out = String::from("Figure 11 — hardware and initial allocation:\n");
    for server in env.landscape.server_ids() {
        let spec = env.landscape.server(server).unwrap();
        let residents: Vec<String> = env
            .landscape
            .instances_on(server)
            .iter()
            .map(|i| {
                let inst = env.landscape.instance(*i).unwrap();
                env.landscape.service(inst.service).unwrap().name.clone()
            })
            .collect();
        writeln!(
            out,
            "  {:<12} {:<18} perf {:<3} {:>2} CPU × {:>4} MHz, {:>6} MB: {}",
            spec.name,
            spec.category,
            spec.performance_index,
            spec.num_cpus,
            spec.cpu_clock_mhz,
            spec.memory_mb,
            residents.join(", ")
        )
        .unwrap();
    }
    writeln!(out, "\nTable 4 — users and initial instances:").unwrap();
    for (service, users, instances) in sap::TABLE_4 {
        writeln!(
            out,
            "  {service:<6} {users:>6} users, {instances} instances"
        )
        .unwrap();
    }
    out
}

/// Tables 5 and 6: the per-scenario service constraints.
pub fn tables_5_6() -> String {
    let mut out = String::new();
    for scenario in [Scenario::ConstrainedMobility, Scenario::FullMobility] {
        writeln!(
            out,
            "Table {} — services in the {} scenario:",
            if scenario == Scenario::ConstrainedMobility {
                5
            } else {
                6
            },
            scenario
        )
        .unwrap();
        let env = build_environment(scenario);
        for service in env.landscape.service_ids() {
            let spec = env.landscape.service(service).unwrap();
            let actions: Vec<&str> = spec
                .allowed_actions
                .iter()
                .map(|a| a.variable_name())
                .collect();
            let mut conditions = Vec::new();
            if spec.exclusive {
                conditions.push("exclusive".to_string());
            }
            if let Some(idx) = spec.min_performance_index {
                conditions.push(format!("min perf index {idx}"));
            }
            if spec.min_instances > 1 {
                conditions.push(format!("min {} instances", spec.min_instances));
            }
            writeln!(
                out,
                "  {:<8} [{}] actions: {}",
                spec.name,
                conditions.join(", "),
                if actions.is_empty() {
                    "—".to_string()
                } else {
                    actions.join(", ")
                }
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

/// One figure-12/13/14-style scenario run. Returns the metrics; use
/// [`all_servers_csv`], [`fi_series_csv`] and [`action_log`] to render the
/// figure data.
pub fn scenario_run(scenario: Scenario, multiplier: f64, hours: u64, seed: u64) -> Metrics {
    scenario_run_at(scenario, multiplier, hours, seed, 1)
}

/// [`scenario_run`] with an explicit intra-run worker count
/// (`SimConfig::inner_jobs`). Output is bit-identical at any width — the
/// per-server phase computes only server-local values and every reduction
/// runs sequentially in ascending server order.
pub fn scenario_run_at(
    scenario: Scenario,
    multiplier: f64,
    hours: u64,
    seed: u64,
    inner_jobs: usize,
) -> Metrics {
    let env = build_environment(scenario);
    let config = SimConfig::paper(scenario, multiplier)
        .with_duration(SimDuration::from_hours(hours))
        .with_seed(seed)
        .with_inner_jobs(inner_jobs);
    Simulation::new(env, config).run()
}

/// Figures 12–14: CSV with one column per server plus the average —
/// `hours,Blade1,…,DBServer3,average`. Server names come from the metrics'
/// own name tables, so the CSV is labeled correctly whatever scenario the
/// run simulated (this used to rebuild the Static environment regardless).
pub fn all_servers_csv(metrics: &Metrics) -> String {
    let names = &metrics.server_names;
    let mut out = String::from("hours");
    for name in names {
        write!(out, ",{name}").unwrap();
    }
    out.push_str(",average\n");
    let len = metrics.average_series.len();
    for i in 0..len {
        let t = metrics.average_series[i].time;
        write!(out, "{:.3}", t.as_secs() as f64 / 3600.0).unwrap();
        for idx in 0..names.len() {
            let value = metrics
                .server_series
                .get(&ServerId::new(idx as u32))
                .and_then(|s| s.get(i))
                .map(|p| p.value)
                .unwrap_or(0.0);
            write!(out, ",{value:.4}").unwrap();
        }
        writeln!(out, ",{:.4}", metrics.average_series[i].value).unwrap();
    }
    out
}

/// Figures 15–17: the FI application servers' load curves, one CSV row per
/// sample: `hours,instance,server,load`. Instances are identified by id and
/// by the host they were on at the time (FI instances move in the FM run).
pub fn fi_series_csv(metrics: &Metrics) -> String {
    let mut out = String::from("hours,instance,server,load\n");
    for (instance, series) in &metrics.instance_series {
        for p in series {
            writeln!(
                out,
                "{:.3},{},{},{:.4}",
                p.time.as_secs() as f64 / 3600.0,
                instance,
                metrics.server_name(p.server),
                p.value
            )
            .unwrap();
        }
    }
    out
}

/// The controller-action annotations of Figures 16/17, with ids resolved to
/// the paper's host names via the metrics' recorded name tables.
pub fn action_log(metrics: &Metrics) -> String {
    let mut out = String::new();
    for record in &metrics.actions {
        out.push_str(&resolve_names(
            &record.to_string(),
            &metrics.server_names,
            &metrics.service_names,
        ));
        out.push('\n');
    }
    out
}

/// Replace `srv#N` / `svc#N` ids with names. Higher ids first, so `srv#1`
/// is never substituted inside `srv#17`.
fn resolve_names(line: &str, server_names: &[String], service_names: &[String]) -> String {
    let mut line = line.to_string();
    for (i, name) in server_names.iter().enumerate().rev() {
        line = line.replace(&format!("srv#{i}"), name);
    }
    for (i, name) in service_names.iter().enumerate().rev() {
        line = line.replace(&format!("svc#{i}"), name);
    }
    line
}

/// Table 7: the capacity sweep. Returns `(scenario, max percent)` rows.
pub fn table7(hours: u64, seed: u64) -> Vec<(Scenario, f64)> {
    let criterion = CapacityCriterion::default();
    Scenario::ALL
        .into_iter()
        .map(|scenario| {
            let result = find_max_users(
                scenario,
                criterion,
                0.05,
                SimDuration::from_hours(hours),
                seed,
            );
            (scenario, result.max_users_percent())
        })
        .collect()
}

/// The multiplier ladder the capacity sweep walks: the very same `+= step`
/// accumulation [`find_max_users`] performs, so speculative probes land on
/// bit-identical `f64` multipliers.
fn capacity_ladder(step: f64) -> Vec<f64> {
    let mut ladder = Vec::new();
    let mut multiplier = 1.0;
    loop {
        ladder.push(multiplier);
        multiplier += step;
        if multiplier > 3.0 {
            break;
        }
    }
    ladder
}

/// One capacity probe — a pure function of its arguments (the simulation
/// seeds its own RNG from `seed`), so probes may run on any thread in any
/// order without changing the result.
fn probe_overloaded(
    scenario: Scenario,
    multiplier: f64,
    criterion: CapacityCriterion,
    duration: SimDuration,
    seed: u64,
) -> bool {
    let env = build_environment(scenario);
    let config = SimConfig::paper(scenario, multiplier)
        .with_duration(duration)
        .with_seed(seed);
    criterion.overloaded(&Simulation::new(env, config).run())
}

/// Table 7 with a worker pool: fans independent capacity probes across the
/// three scenarios *and* speculatively up each scenario's 5 %-step ladder.
/// Probes beyond a step that turns out overloaded are discarded unread, so
/// the result is provably identical — bit for bit — to the sequential
/// [`table7`] sweep, whatever `jobs` is. `jobs == 0` means "use the
/// machine"; `jobs <= 1` delegates to the sequential sweep outright.
pub fn table7_with_jobs(hours: u64, seed: u64, jobs: usize) -> Vec<(Scenario, f64)> {
    let jobs = pool::effective_jobs(jobs);
    if jobs <= 1 {
        return table7(hours, seed);
    }
    let criterion = CapacityCriterion::default();
    let duration = SimDuration::from_hours(hours);
    let ladder = capacity_ladder(0.05);

    /// The sequential sweep's state for one scenario, split into what has
    /// been *dispatched* (possibly speculatively, out of order) and what
    /// has been *consumed* strictly in ladder order.
    struct Sweep {
        /// First ladder index not yet handed to a worker.
        next_unprobed: usize,
        /// First ladder index not yet consumed in order.
        consumed: usize,
        /// Results of finished probes, keyed by ladder index.
        probed: std::collections::BTreeMap<usize, bool>,
        /// Highest multiplier consumed without overload.
        max_multiplier: f64,
        done: bool,
    }
    let mut sweeps: Vec<Sweep> = Scenario::ALL
        .iter()
        .map(|_| Sweep {
            next_unprobed: 0,
            consumed: 0,
            probed: std::collections::BTreeMap::new(),
            max_multiplier: 0.0,
            done: false,
        })
        .collect();

    loop {
        // Assemble one wave: round-robin over the unfinished scenarios,
        // taking each one's next speculative ladder step, until the wave
        // holds `jobs` probes or nothing is left to dispatch.
        let mut wave: Vec<(usize, usize)> = Vec::new();
        'fill: loop {
            let mut advanced = false;
            for (index, sweep) in sweeps.iter_mut().enumerate() {
                if sweep.done || sweep.next_unprobed >= ladder.len() {
                    continue;
                }
                wave.push((index, sweep.next_unprobed));
                sweep.next_unprobed += 1;
                advanced = true;
                if wave.len() >= jobs {
                    break 'fill;
                }
            }
            if !advanced {
                break;
            }
        }
        if wave.is_empty() {
            break;
        }

        let results = pool::parallel_map(jobs, wave, |(scenario_index, ladder_index)| {
            let overloaded = probe_overloaded(
                Scenario::ALL[scenario_index],
                ladder[ladder_index],
                criterion,
                duration,
                seed,
            );
            (scenario_index, ladder_index, overloaded)
        });
        for (scenario_index, ladder_index, overloaded) in results {
            sweeps[scenario_index]
                .probed
                .insert(ladder_index, overloaded);
        }

        // Consume strictly in ladder order — exactly the order the
        // sequential sweep observes. The first overloaded step ends the
        // scenario; speculation past it is never read.
        for sweep in &mut sweeps {
            while !sweep.done {
                let Some(&overloaded) = sweep.probed.get(&sweep.consumed) else {
                    break;
                };
                if overloaded {
                    sweep.done = true;
                } else {
                    sweep.max_multiplier = ladder[sweep.consumed];
                }
                sweep.consumed += 1;
            }
            if sweep.consumed >= ladder.len() {
                sweep.done = true;
            }
        }
    }

    Scenario::ALL
        .into_iter()
        .zip(&sweeps)
        .map(|(scenario, sweep)| (scenario, sweep.max_multiplier * 100.0))
        .collect()
}

/// Run several figure-style scenario experiments concurrently. Each entry
/// is `(scenario, multiplier)`; metrics come back in input order and are
/// bit-identical to calling [`scenario_run`] for each entry sequentially,
/// because every run owns its environment and its seeded RNG.
pub fn scenario_runs(
    specs: &[(Scenario, f64)],
    hours: u64,
    seed: u64,
    jobs: usize,
) -> Vec<Metrics> {
    pool::parallel_map(jobs, specs.to_vec(), |(scenario, multiplier)| {
        scenario_run(scenario, multiplier, hours, seed)
    })
}

/// The failure-rate scales the chaos sweep walks: each point multiplies the
/// base failure rates (instance crashes, host failures) and the execution
/// failure probability, from a quarter of the baseline to eight times it.
pub const CHAOS_SCALES: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Baseline instance-crash rate of the chaos experiment (per instance per
/// simulated hour, at scale 1.0).
pub const CHAOS_INSTANCE_CRASH_PER_HOUR: f64 = 0.02;
/// Baseline host-failure rate (per server per simulated hour, at scale 1.0).
pub const CHAOS_SERVER_FAILURE_PER_HOUR: f64 = 0.004;
/// Baseline per-attempt execution failure probability (at scale 1.0, capped
/// at 0.5 so even the wildest sweep point can still make progress).
pub const CHAOS_EXEC_FAILURE_PROBABILITY: f64 = 0.05;

/// The chaos configuration at one sweep point: the Figure 13 scenario
/// (constrained mobility, +15 % users) with scaled failure injection,
/// a slightly lossy heartbeat network, and fallible asynchronous action
/// execution.
fn chaos_point_config(scale: f64, hours: u64, seed: u64) -> SimConfig {
    SimConfig::paper(Scenario::ConstrainedMobility, 1.15)
        .with_duration(SimDuration::from_hours(hours))
        .with_seed(seed)
        .with_failures(FailureInjection {
            instance_crash_per_hour: CHAOS_INSTANCE_CRASH_PER_HOUR * scale,
            server_failure_per_hour: CHAOS_SERVER_FAILURE_PER_HOUR * scale,
            repair_after: SimDuration::from_hours(1),
        })
        .with_execution(ExecutorConfig {
            min_latency: SimDuration::from_secs(30),
            max_latency: SimDuration::from_minutes(3),
            timeout: SimDuration::from_minutes(2),
            failure_probability: (CHAOS_EXEC_FAILURE_PROBABILITY * scale).min(0.5),
            ..ExecutorConfig::reliable()
        })
        .with_heartbeats(HeartbeatDetection {
            miss_threshold: 3,
            confirm_after: 2,
            loss_probability: 0.01,
        })
}

/// One chaos point: run the Figure 13 scenario with failure rates scaled by
/// `scale`. A pure function of its arguments — the run owns its seeded
/// RNGs — so points may run on any thread in any order.
///
/// The sweep drives [`autoglobe::ChaosRun`], the repository's one chaos
/// loop: the chaos evaluation over the beat/tick/poll API.
pub fn chaos_run(scale: f64, hours: u64, seed: u64) -> Metrics {
    RunBuilder::new(Scenario::ConstrainedMobility)
        .sim(chaos_point_config(scale, hours, seed))
        .chaos_run()
        .run()
}

/// The chaos sweep: every [`CHAOS_SCALES`] point over the Figure 13
/// scenario. Per-point seeds are derived from the master `seed` by a
/// splitmix64 chain *before* the points fan out across the pool, so the
/// result is bit-identical whatever `jobs` is.
pub fn chaos_sweep(hours: u64, seed: u64, jobs: usize) -> Vec<(f64, Metrics)> {
    let mut state = seed ^ 0x5EED_C4A0_5C4A; // chaos-sweep seed domain
    let points: Vec<(f64, u64)> = CHAOS_SCALES
        .iter()
        .map(|&scale| (scale, splitmix64(&mut state)))
        .collect();
    pool::parallel_map(jobs, points, move |(scale, point_seed)| {
        (scale, chaos_run(scale, hours, point_seed))
    })
}

/// Render the chaos sweep as `results/chaos_recovery.csv`: one row per
/// failure-rate scale with detection, recovery and execution-robustness
/// metrics (MTTR and detection latency in seconds).
pub fn chaos_csv(rows: &[(f64, Metrics)]) -> String {
    let mut out = String::from(
        "failure_scale,instance_crash_per_hour,server_failure_per_hour,\
         exec_failure_probability,failures,detections,mean_detection_latency_s,\
         recoveries,mttr_s,lost_instances,lost_sessions,suspected,reconciled,\
         repairs,exec_retries,exec_timeouts,exec_fenced,exec_compensations,\
         actions,alerts\n",
    );
    for (scale, m) in rows {
        writeln!(
            out,
            "{scale},{:.4},{:.4},{:.4},{},{},{:.1},{},{:.1},{},{:.2},{},{},{},{},{},{},{},{},{}",
            CHAOS_INSTANCE_CRASH_PER_HOUR * scale,
            CHAOS_SERVER_FAILURE_PER_HOUR * scale,
            (CHAOS_EXEC_FAILURE_PROBABILITY * scale).min(0.5),
            m.failures,
            m.detections,
            m.mean_detection_latency_secs(),
            m.recoveries,
            m.mean_time_to_recovery_secs(),
            m.lost_instances,
            m.lost_sessions,
            m.suspected_failures,
            m.reconciliations,
            m.repairs,
            m.exec_retries,
            m.exec_timeouts,
            m.exec_fenced,
            m.exec_compensations,
            m.actions.len(),
            m.alerts,
        )
        .unwrap();
    }
    out
}

/// The ladder the shard-chaos sweep walks: `(shards, owner_kills)` — from
/// a single owner under ideal conditions up to a 4-way plane losing two
/// owners mid-run. The shard count of each point is part of the experiment
/// (it determines how many shards each kill orphans), *not* a concurrency
/// knob: the `--shards` flag of `experiments shardchaos` only widens the
/// plane's scoped-thread fan-out and never changes this ladder or the CSV.
pub const SHARD_CHAOS_LADDER: [(usize, usize); 4] = [(1, 0), (2, 1), (3, 2), (4, 2)];

/// Host-failure rate of the shard-chaos experiment (per server per
/// simulated hour) — an order of magnitude above the baseline chaos sweep,
/// so even short horizons exercise detection through a successor owner.
pub const SHARD_CHAOS_SERVER_FAILURE_PER_HOUR: f64 = 0.05;

/// One shard-chaos point: the Figure 13 scenario on a `shards`-way control
/// plane with ground-truth host failures, a latent fallible execution
/// substrate (so owner kills leave in-flight work to fence), and
/// `owner_kills` scheduled kills of the canonical supervisor. `plane_jobs`
/// caps the plane's scoped-thread fan-out and is output-neutral. A pure
/// function of its arguments — safe to fan out across the pool.
pub fn shard_chaos_run(
    shards: usize,
    owner_kills: usize,
    hours: u64,
    seed: u64,
    plane_jobs: usize,
) -> (Metrics, ShardRecoveryStats) {
    let chaos = ShardChaos {
        server_failure_per_hour: SHARD_CHAOS_SERVER_FAILURE_PER_HOUR,
        repair_after: SimDuration::from_hours(1),
        // Kill the canonical owner at ~1/3 of the horizon, and (for the
        // two-kill points) its successor at ~2/3.
        kill_fracs: [0.35, 0.65][..owner_kills.min(2)].to_vec(),
    };
    // The builder derives the executor seed from the master seed through
    // the shared splitmix64 chain — the same value the legacy wiring set
    // explicitly, so the sweep's CSV is byte-stable across the migration.
    RunBuilder::new(Scenario::ConstrainedMobility)
        .hours(hours)
        .seed(seed)
        .execution(ExecutorConfig {
            min_latency: SimDuration::from_secs(30),
            max_latency: SimDuration::from_minutes(3),
            timeout: SimDuration::from_minutes(2),
            failure_probability: CHAOS_EXEC_FAILURE_PROBABILITY,
            ..ExecutorConfig::reliable()
        })
        .shards(shards)
        .plane_jobs(plane_jobs)
        .shard_chaos(chaos)
        .sharded()
        .run()
}

/// The shard-chaos sweep: every [`SHARD_CHAOS_LADDER`] point. Per-point
/// seeds derive from the master `seed` by a splitmix64 chain *before* the
/// points fan out across the pool, so the result is bit-identical whatever
/// `jobs` (sweep fan-out) or `plane_jobs` (per-plane fan-out) is.
pub fn shard_chaos_sweep(
    hours: u64,
    seed: u64,
    jobs: usize,
    plane_jobs: usize,
) -> Vec<(usize, usize, Metrics, ShardRecoveryStats)> {
    let mut state = seed ^ 0x5EED_0A11_D05E; // shard-chaos seed domain
    let points: Vec<((usize, usize), u64)> = SHARD_CHAOS_LADDER
        .iter()
        .map(|&point| (point, splitmix64(&mut state)))
        .collect();
    pool::parallel_map(jobs, points, move |((shards, kills), point_seed)| {
        let (metrics, stats) = shard_chaos_run(shards, kills, hours, point_seed, plane_jobs);
        (shards, kills, metrics, stats)
    })
}

/// Render the shard-chaos sweep as `results/shard_recovery.csv`: one row
/// per ladder point with owner-kill detection and shard re-adoption
/// latencies, fenced operations, dropped triggers, and the self-healing
/// columns (latencies in seconds).
pub fn shard_chaos_csv(rows: &[(usize, usize, Metrics, ShardRecoveryStats)]) -> String {
    let mut out = String::from(
        "shards,owner_kills,owner_detections,mean_owner_detection_s,\
         readoptions,mean_readoption_s,fenced_ops,dropped_triggers,\
         failures,detections,mean_detection_s,recovered,lost_instances,\
         retried_restarts,repairs,lost_sessions,actions,alerts\n",
    );
    for (shards, kills, m, s) in rows {
        writeln!(
            out,
            "{shards},{kills},{},{:.1},{},{:.1},{},{},{},{},{:.1},{},{},{},{},{:.2},{},{}",
            s.owner_detections,
            s.mean_owner_detection_secs(),
            s.readoptions,
            s.mean_readoption_secs(),
            s.fenced_ops,
            s.dropped_triggers,
            s.failures_injected,
            s.detections,
            s.mean_detection_secs(),
            s.recovered_instances,
            s.lost_instances,
            s.retried_restarts,
            s.repairs,
            s.lost_sessions,
            m.actions.len(),
            m.alerts,
        )
        .unwrap();
    }
    out
}

/// A byte-diffable digest of the Figure 13 scenario run on a `shards`-way
/// control plane under ideal conditions (no chaos, the default reliable
/// substrate). The digest deliberately omits the shard count: CI diffs the
/// `--shards 1` digest against `--shards 4` to prove the partitioning is
/// invisible to the paper's scenarios. Every float is rendered as exact
/// bits, so any divergence — however small — shows up as a byte
/// difference.
pub fn shard_smoke(shards: usize, hours: u64, seed: u64, plane_jobs: usize) -> String {
    let (metrics, _) = RunBuilder::new(Scenario::ConstrainedMobility)
        .hours(hours)
        .seed(seed)
        .shards(shards)
        .plane_jobs(plane_jobs)
        .sharded()
        .run();
    metrics_digest(&metrics)
}

/// The byte-diffable scenario digest shared by [`shard_smoke`] and the
/// scenario-suite determinism test: action count, alerts, overload
/// seconds, the total-demand float as exact bits, and every action record
/// in order.
pub fn metrics_digest(metrics: &Metrics) -> String {
    let mut out = String::from("metric,value\n");
    writeln!(out, "actions,{}", metrics.actions.len()).unwrap();
    writeln!(out, "alerts,{}", metrics.alerts).unwrap();
    writeln!(out, "overload_secs,{}", metrics.total_overload().as_secs()).unwrap();
    writeln!(
        out,
        "total_demand_bits,{:016x}",
        metrics.total_demand.to_bits()
    )
    .unwrap();
    for record in &metrics.actions {
        writeln!(out, "action,{record}").unwrap();
    }
    out
}

/// Fastest dispatch-to-completion time of the proactive experiment's
/// execution substrate. Remedial actions that take minutes to land are what
/// makes a forecast head start worth having: a reactive controller pays the
/// watch time *plus* this latency in overload, a proactive one has the
/// capacity ready when the surge arrives.
pub const PROACTIVE_MIN_LATENCY: SimDuration = SimDuration::from_minutes(5);
/// Slowest dispatch-to-completion time of the proactive experiment's
/// execution substrate.
pub const PROACTIVE_MAX_LATENCY: SimDuration = SimDuration::from_minutes(10);

/// Run the Figure 13 scenario (constrained mobility, +15 % users) through
/// the [`autoglobe::SupervisedRun`] control-plane harness, purely reactive or with the
/// forecast-driven proactive trigger enabled. Both modes run on an
/// execution substrate where actions take [`PROACTIVE_MIN_LATENCY`]–
/// [`PROACTIVE_MAX_LATENCY`] to complete. A pure function of its arguments,
/// safe to fan out across the pool.
pub fn proactive_run(proactive: bool, hours: u64, seed: u64) -> Metrics {
    proactive_run_at(proactive, 1.15, hours, seed)
}

/// [`proactive_run`] at an arbitrary user multiplier — one probe of the
/// proactive capacity ladder. A pure function of its arguments.
pub fn proactive_run_at(proactive: bool, multiplier: f64, hours: u64, seed: u64) -> Metrics {
    let mut builder = RunBuilder::new(Scenario::ConstrainedMobility)
        .multiplier(multiplier)
        .hours(hours)
        .seed(seed)
        .execution(ExecutorConfig {
            min_latency: PROACTIVE_MIN_LATENCY,
            max_latency: PROACTIVE_MAX_LATENCY,
            timeout: SimDuration::from_minutes(60),
            ..ExecutorConfig::reliable()
        });
    if proactive {
        builder = builder.proactive(ProactiveConfig::default());
    }
    builder.supervised().run()
}

/// The Table 7 / Figure 13 reactive-vs-proactive comparison. Both runs use
/// the *same* seed so the offered workload is identical; the only
/// difference is whether the forecaster gets to fire ahead of the daily
/// surge. Points fan out across the pool; the result is bit-identical
/// whatever `jobs` is.
pub fn proactive_compare(hours: u64, seed: u64, jobs: usize) -> Vec<(bool, Metrics)> {
    pool::parallel_map(jobs, vec![false, true], move |proactive| {
        (proactive, proactive_run(proactive, hours, seed))
    })
}

/// Render the comparison as `results/proactive.csv`: one row per mode with
/// overload exposure, action counts and — for the proactive run — how far
/// ahead of the predicted overload the forecaster fired on average.
pub fn proactive_csv(rows: &[(bool, Metrics)]) -> String {
    let mut out = String::from(
        "mode,overload_minutes,worst_overload_minutes,actions,alerts,\
         proactive_triggers,mean_lead_minutes\n",
    );
    for (proactive, m) in rows {
        writeln!(
            out,
            "{},{:.1},{:.1},{},{},{},{:.1}",
            if *proactive { "proactive" } else { "reactive" },
            m.total_overload().as_secs() as f64 / 60.0,
            m.worst_overload().as_secs() as f64 / 60.0,
            m.actions.len(),
            m.alerts,
            m.proactive_triggers,
            m.mean_proactive_lead_secs() / 60.0,
        )
        .unwrap();
    }
    out
}

/// Walk the Table 7 capacity ladder (the same `+= 0.05` accumulation as
/// [`table7`]) through the supervised control plane for each mode: the
/// highest user level reactive and proactive administration each sustain
/// before the [`CapacityCriterion`] trips. Records whether a forecast head
/// start raises the number of users the landscape can carry. The two modes
/// fan out across the pool; each mode's walk consumes the ladder strictly
/// in order, so the result is bit-identical whatever `jobs` is.
pub fn proactive_capacity_ladder(hours: u64, seed: u64, jobs: usize) -> Vec<(bool, f64)> {
    let criterion = CapacityCriterion::default();
    pool::parallel_map(jobs, vec![false, true], move |proactive| {
        let mut max_multiplier = 1.0;
        for multiplier in capacity_ladder(0.05) {
            if criterion.overloaded(&proactive_run_at(proactive, multiplier, hours, seed)) {
                break;
            }
            max_multiplier = multiplier;
        }
        (proactive, max_multiplier)
    })
}

/// Render the ladder sweep as the capacity section appended to
/// `results/proactive.csv` (after the overload-exposure rows from
/// [`proactive_csv`]): one row per mode with the highest sustained user
/// level, `table7_max_users.csv` style.
pub fn proactive_ladder_csv(rows: &[(bool, f64)]) -> String {
    let mut out = String::from("ladder_mode,max_users_percent\n");
    for (proactive, multiplier) in rows {
        writeln!(
            out,
            "{},{:.0}",
            if *proactive { "proactive" } else { "reactive" },
            multiplier * 100.0,
        )
        .unwrap();
    }
    out
}

/// Ablation: decision quality of the fuzzy-engine variants. For a spectrum
/// of overload situations, report how often each (inference, defuzzifier)
/// pair ranks the same top action as the paper's max–min/leftmost-max
/// configuration. Returns `(label, agreement fraction)` rows.
pub fn ablation_decision_quality() -> Vec<(String, f64)> {
    use autoglobe_controller::inputs::ActionInputs;
    use autoglobe_controller::{ActionSelector, RuleBases};
    use autoglobe_monitor::TriggerKind;

    let situations: Vec<ActionInputs> = {
        let mut v = Vec::new();
        for cpu in [0.55, 0.7, 0.85, 0.95] {
            for perf in [1.0, 2.0, 9.0] {
                for instances in [1.0, 3.0, 6.0] {
                    v.push(ActionInputs {
                        cpu_load: cpu,
                        mem_load: cpu / 2.0,
                        performance_index: perf,
                        instance_load: cpu,
                        service_load: cpu - 0.05,
                        instances_on_server: 2.0,
                        instances_of_service: instances,
                        instance_demand: cpu * perf,
                    });
                }
            }
        }
        v
    };

    let reference_top = |config: EngineConfig| -> Vec<Option<autoglobe_landscape::ActionKind>> {
        let mut selector = ActionSelector::new(RuleBases::paper_defaults(), config);
        situations
            .iter()
            .map(|inputs| {
                let ranked = selector
                    .rank(TriggerKind::ServiceOverloaded, "FI", inputs)
                    .unwrap();
                ranked
                    .first()
                    .filter(|r| r.applicability > 0.0)
                    .map(|r| r.kind)
            })
            .collect()
    };

    let baseline = reference_top(EngineConfig::default());
    let mut rows = Vec::new();
    for (inference, inference_name) in [
        (InferenceMethod::MaxMin, "max-min"),
        (InferenceMethod::MaxProduct, "max-product"),
    ] {
        for (defuzzifier, defuzz_name) in [
            (Defuzzifier::LeftmostMax, "leftmost-max"),
            (Defuzzifier::MeanOfMaxima, "mean-of-maxima"),
            (Defuzzifier::Centroid, "centroid"),
        ] {
            let config = EngineConfig {
                inference,
                defuzzifier,
                ..EngineConfig::default()
            };
            let top = reference_top(config);
            let agree = top.iter().zip(&baseline).filter(|(a, b)| a == b).count() as f64
                / situations.len() as f64;
            rows.push((format!("{inference_name}/{defuzz_name}"), agree));
        }
    }
    rows
}

/// The landscape-designer experiment (future work made measurable): peak
/// daily load of the paper's hand-made Figure 11 allocation vs. the
/// designer's statically optimized pre-assignment, on identical demand
/// profiles. Returns `(hand-made peak, designed peak)`.
pub fn designer_vs_figure_11() -> (f64, f64) {
    use autoglobe_designer::{design, ServiceDemand};
    use autoglobe_simulator::sap::calibration;

    let env = build_environment(Scenario::Static);
    let landscape = &env.landscape;

    // Hourly per-instance demand profiles straight from the workload model.
    let mut demands = Vec::new();
    let mut profile_of = std::collections::BTreeMap::new();
    for (name, users, instances) in sap::TABLE_4 {
        let service = landscape.service_by_name(name).unwrap();
        let spec = landscape.service(service).unwrap();
        let pattern = if name == "BW" {
            DailyPattern::NightBatch
        } else {
            DailyPattern::Interactive
        };
        let profile: Vec<f64> = (0..24)
            .map(|h| {
                spec.base_load
                    + users / instances as f64
                        * pattern.active_fraction(h as f64)
                        * spec.load_per_user
            })
            .collect();
        profile_of.insert(service, profile.clone());
        demands.push(ServiceDemand {
            service,
            instances,
            profile,
        });
    }
    for (name, per_user, users, pattern) in [
        (
            "CI-ERP",
            calibration::CI_LOAD_PER_USER,
            2250.0,
            DailyPattern::Interactive,
        ),
        (
            "CI-CRM",
            calibration::CI_LOAD_PER_USER,
            300.0,
            DailyPattern::Interactive,
        ),
        (
            "CI-BW",
            calibration::CI_LOAD_PER_JOB,
            60.0,
            DailyPattern::NightBatch,
        ),
        (
            "DB-ERP",
            calibration::DB_LOAD_PER_USER,
            2250.0,
            DailyPattern::Interactive,
        ),
        (
            "DB-CRM",
            calibration::DB_LOAD_PER_USER,
            300.0,
            DailyPattern::Interactive,
        ),
        (
            "DB-BW",
            calibration::DB_LOAD_PER_JOB,
            60.0,
            DailyPattern::NightBatch,
        ),
    ] {
        let service = landscape.service_by_name(name).unwrap();
        let profile: Vec<f64> = (0..24)
            .map(|h| 0.05 + users * pattern.active_fraction(h as f64) * per_user)
            .collect();
        profile_of.insert(service, profile.clone());
        demands.push(ServiceDemand {
            service,
            instances: 1,
            profile,
        });
    }

    // Peak load of the hand-made allocation under the same profiles.
    let mut hand_peak: f64 = 0.0;
    for server in landscape.server_ids() {
        let perf = landscape.server(server).unwrap().performance_index;
        // `slot` indexes a *different* service's profile per instance, so
        // there is no single slice to iterate over.
        #[allow(clippy::needless_range_loop)]
        for slot in 0..24 {
            let demand: f64 = landscape
                .instances_on(server)
                .iter()
                .map(|i| {
                    let service = landscape.instance(*i).unwrap().service;
                    profile_of[&service][slot]
                })
                .sum();
            hand_peak = hand_peak.max(demand / perf);
        }
    }

    let placement = design(landscape, &demands).expect("the SAP landscape is feasible");
    (hand_peak, placement.peak_load)
}

/// Ablation: watch-time and protection-time sensitivity. Runs the FM
/// scenario at +15 % with scaled timing parameters and reports
/// `(label, actions, worst overload seconds)`.
pub fn ablation_timing(hours: u64) -> Vec<(String, usize, u64)> {
    let mut rows = Vec::new();
    for (label, protection_minutes) in [
        ("protect-5m", 5u64),
        ("protect-30m", 30),
        ("protect-90m", 90),
    ] {
        let env = build_environment(Scenario::FullMobility);
        let mut config = SimConfig::paper(Scenario::FullMobility, 1.15)
            .with_duration(SimDuration::from_hours(hours));
        config.controller = ControllerConfig {
            protection_time: SimDuration::from_minutes(protection_minutes),
            ..ControllerConfig::default()
        };
        let metrics = Simulation::new(env, config).run();
        rows.push((
            label.to_string(),
            metrics.actions.len(),
            metrics.worst_overload().as_secs(),
        ));
    }
    rows
}

/// Landscape + workloads at `servers` servers: the paper's own pool at 19,
/// a seeded synthetic landscape at any other size.
pub fn scale_environment(servers: usize, seed: u64) -> sap::SapEnvironment {
    if servers == 19 {
        build_environment(Scenario::ConstrainedMobility)
    } else {
        synth_environment(&SynthConfig::sized(servers, seed))
    }
}

/// A deterministic digest of one synthetic-landscape run, for CI to diff
/// across `inner_jobs` widths (above
/// [`MIN_SERVERS_PER_LANE`](autoglobe_simulator::MIN_SERVERS_PER_LANE)
/// servers, where the per-server phase really splits into lanes): every
/// float is rendered as exact bits, so any divergence — however small —
/// shows up as a byte difference.
pub fn scale_smoke(servers: usize, hours: u64, seed: u64, inner_jobs: usize) -> String {
    let env = scale_environment(servers, seed);
    let config = SimConfig::paper(Scenario::ConstrainedMobility, 1.0)
        .with_duration(SimDuration::from_hours(hours))
        .with_seed(seed)
        .with_inner_jobs(inner_jobs);
    let metrics = Simulation::new(env, config).run();
    let mut out = String::from("metric,value\n");
    writeln!(out, "servers,{servers}").unwrap();
    writeln!(out, "actions,{}", metrics.actions.len()).unwrap();
    writeln!(out, "alerts,{}", metrics.alerts).unwrap();
    writeln!(out, "overload_secs,{}", metrics.total_overload().as_secs()).unwrap();
    for point in metrics.average_series.iter().rev().take(1) {
        writeln!(out, "final_average_bits,{:016x}", point.value.to_bits()).unwrap();
    }
    let mut checksum = 0u64;
    for point in &metrics.average_series {
        checksum ^= point.value.to_bits().rotate_left((checksum % 63) as u32);
    }
    writeln!(out, "average_series_checksum,{checksum:016x}").unwrap();
    for record in &metrics.actions {
        writeln!(out, "action,{record}").unwrap();
    }
    out
}

// ---- production-day scenario suite -----------------------------------------

/// The modes every production-day scenario is scored under: the supervised
/// plane purely reactive, the supervised plane with the forecast-driven
/// proactive trigger, and the sharded control plane (reactive).
pub const SCENARIO_SUITE_MODES: [&str; 3] = ["reactive", "proactive", "sharded"];

/// One scored row of the scenario suite.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Catalog name of the production-day scenario.
    pub scenario: String,
    /// One of [`SCENARIO_SUITE_MODES`].
    pub mode: &'static str,
    /// The run's full metrics.
    pub metrics: Metrics,
}

/// The execution substrate of the scenario suite: remedial actions take
/// 30 s – 3 min to land and never fail spuriously — enough latency that a
/// proactive head start (and a failover during a rack loss) is visible in
/// the overload and MTTR columns.
fn scenario_suite_executor() -> ExecutorConfig {
    ExecutorConfig {
        min_latency: SimDuration::from_secs(30),
        max_latency: SimDuration::from_minutes(3),
        timeout: SimDuration::from_minutes(5),
        ..ExecutorConfig::reliable()
    }
}

/// Score one production-day scenario under one suite mode. Event-bearing
/// scenarios (rack kills, maintenance drains) run through the failure-capable
/// harnesses; purely load-shaped ones through [`autoglobe::SupervisedRun`].
/// A pure function of its arguments — safe to fan out across the pool, and
/// `shards` is output-neutral (asserted by the suite's determinism test).
///
/// The sharded rows run on the plane's default *synchronous* executor: each
/// replica of a sharded plane deliberately draws from a disjoint executor
/// stream, so a latent substrate's completion times — and therefore the
/// metrics — would depend on which replica owns a trigger's shard. The
/// supervised rows keep the latent substrate, where the proactive head
/// start is visible.
pub fn scenario_suite_run(
    spec: &ScenarioSpec,
    mode: &str,
    hours: u64,
    seed: u64,
    shards: usize,
) -> Metrics {
    let builder = RunBuilder::new(spec.clone()).hours(hours).seed(seed);
    match mode {
        "reactive" if spec.has_events() => builder
            .execution(scenario_suite_executor())
            .chaos_run()
            .run(),
        "reactive" => builder
            .execution(scenario_suite_executor())
            .supervised()
            .run(),
        "proactive" if spec.has_events() => builder
            .execution(scenario_suite_executor())
            .proactive(ProactiveConfig::default())
            .chaos_run()
            .run(),
        "proactive" => builder
            .execution(scenario_suite_executor())
            .proactive(ProactiveConfig::default())
            .supervised()
            .run(),
        "sharded" => builder.shards(shards).sharded().run().0,
        other => panic!("unknown scenario-suite mode {other:?}"),
    }
}

/// [`scenario_suite`] over an explicit scenario list — the path behind the
/// `experiments scenarios --scenario <name>` selector, where any name the
/// shared [`ScenarioSpec::lookup`] resolves (a paper scenario or a catalog
/// entry) can be scored on its own. The three rows of one scenario share
/// one per-scenario seed — the modes face the *same* production day — and
/// per-scenario seeds derive from the master `seed` by a splitmix64 chain
/// *before* the rows fan out across the pool, so the result is
/// bit-identical whatever `jobs` is. `shards` sizes the sharded rows'
/// control plane and is output-neutral.
pub fn scenario_suite_for(
    specs: &[ScenarioSpec],
    hours: u64,
    seed: u64,
    jobs: usize,
    shards: usize,
) -> Vec<ScenarioOutcome> {
    let mut state = seed ^ 0x5EED_0DA1_5CE0; // scenario-suite seed domain
    let mut points = Vec::new();
    for spec in specs {
        let scenario_seed = splitmix64(&mut state);
        for mode in SCENARIO_SUITE_MODES {
            points.push((spec.clone(), mode, scenario_seed));
        }
    }
    pool::parallel_map(jobs, points, move |(spec, mode, point_seed)| {
        let metrics = scenario_suite_run(&spec, mode, hours, point_seed, shards);
        ScenarioOutcome {
            scenario: spec.name.clone(),
            mode,
            metrics,
        }
    })
}

/// The production-day scenario suite: every catalog scenario
/// ([`ScenarioSpec::catalog`]) scored under every [`SCENARIO_SUITE_MODES`]
/// entry — the rows behind `results/scenario_suite.csv`.
pub fn scenario_suite(hours: u64, seed: u64, jobs: usize, shards: usize) -> Vec<ScenarioOutcome> {
    scenario_suite_for(&ScenarioSpec::catalog(), hours, seed, jobs, shards)
}

/// Render the suite as `results/scenario_suite.csv`: one row per scenario ×
/// mode with overload exposure, session loss, self-healing latencies and
/// trigger counts (times in the units named by the column headers).
pub fn scenario_suite_csv(rows: &[ScenarioOutcome]) -> String {
    let mut out = String::from(
        "scenario,mode,plane,overload_minutes,worst_overload_minutes,\
         lost_sessions,failures,detections,mean_detection_s,recoveries,\
         mttr_s,lost_instances,actions,alerts,proactive_triggers,\
         mean_lead_minutes\n",
    );
    for row in rows {
        let m = &row.metrics;
        writeln!(
            out,
            "{},{},{},{:.1},{:.1},{:.2},{},{},{:.1},{},{:.1},{},{},{},{},{:.1}",
            row.scenario,
            row.mode,
            if row.mode == "sharded" {
                "sharded"
            } else {
                "supervised"
            },
            m.total_overload().as_secs() as f64 / 60.0,
            m.worst_overload().as_secs() as f64 / 60.0,
            m.lost_sessions,
            m.failures,
            m.detections,
            m.mean_detection_latency_secs(),
            m.recoveries,
            m.mean_time_to_recovery_secs(),
            m.lost_instances,
            m.actions.len(),
            m.alerts,
            m.proactive_triggers,
            m.mean_proactive_lead_secs() / 60.0,
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite acceptance: for every catalog scenario, the same seed
    /// produces identical metrics whether the suite fans out over 1 or 4
    /// pool jobs and whether the sharded rows run on a 1- or 4-shard
    /// control plane. The window covers the catalog's latest event (hour
    /// 38), so kills and drains are exercised, not skipped.
    #[test]
    fn scenario_suite_is_deterministic_across_jobs_and_shards() {
        let narrow = scenario_suite(40, 7, 1, 1);
        let wide = scenario_suite(40, 7, 4, 4);
        assert_eq!(narrow.len(), wide.len());
        assert_eq!(narrow.len(), ScenarioSpec::catalog().len() * 3);
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.mode, b.mode);
            assert_eq!(
                metrics_digest(&a.metrics),
                metrics_digest(&b.metrics),
                "{} / {}: jobs and shards must be output-neutral",
                a.scenario,
                a.mode
            );
            assert_eq!(a.metrics.failures, b.metrics.failures);
            assert_eq!(a.metrics.recoveries, b.metrics.recoveries);
            assert_eq!(
                a.metrics.lost_sessions.to_bits(),
                b.metrics.lost_sessions.to_bits()
            );
            assert_eq!(a.metrics.recovery_time_secs, b.metrics.recovery_time_secs);
        }
        let csv = scenario_suite_csv(&narrow);
        assert_eq!(csv, scenario_suite_csv(&wide), "the rendered CSV matches");
        assert_eq!(csv.lines().count(), 1 + narrow.len());
    }

    #[test]
    fn fig3_reproduces_paper_grades() {
        let csv = fig3_membership_table();
        assert!(csv.lines().count() > 100);
        // Row at load 0.60.
        let row = csv.lines().find(|l| l.starts_with("0.60,")).unwrap();
        assert_eq!(row, "0.60,0.0000,0.5000,0.2000");
    }

    #[test]
    fn fig5_reproduces_paper_crisp_values() {
        // Exact (up to floating-point rounding of the membership grades)
        // thanks to the closed-form leftmost-max for clipped ramp outputs —
        // previously the grid quantized these to ±5e-3.
        let (up, out) = fig5_inference_example();
        assert!((up - 0.6).abs() < 1e-9, "scale-up = 0.6, got {up}");
        assert!((out - 0.3).abs() < 1e-9, "scale-out = 0.3, got {out}");
        assert!(up > out, "the controller favors scale-up (Section 3)");
    }

    #[test]
    fn fig10_has_paper_shape() {
        let csv = fig10_load_curves();
        let rows: Vec<(f64, f64, f64)> = csv
            .lines()
            .skip(1)
            .map(|l| {
                let mut parts = l.split(',').map(|p| p.parse::<f64>().unwrap());
                (
                    parts.next().unwrap(),
                    parts.next().unwrap(),
                    parts.next().unwrap(),
                )
            })
            .collect();
        let at = |h: f64| {
            rows.iter()
                .min_by(|a, b| (a.0 - h).abs().partial_cmp(&(b.0 - h).abs()).unwrap())
                .copied()
                .unwrap()
        };
        // LES interactive: day ≫ night; BW batch: night ≫ day.
        assert!(at(9.5).1 > at(3.0).1 + 0.5);
        assert!(at(3.0).2 > at(12.0).2 + 0.5);
    }

    #[test]
    fn inventory_lists_19_servers() {
        let text = inventory();
        assert!(text.contains("Blade1"));
        assert!(text.contains("DBServer3"));
        assert!(text.contains("LES       900 users, 4 instances") || text.contains("LES"));
        assert_eq!(text.matches("perf").count(), 19);
    }

    #[test]
    fn tables_render() {
        let t = tables_1_2_3();
        assert!(t.contains("cpuLoad"));
        assert!(t.contains("scaleUp"));
        assert!(t.contains("tempSpace"));
        let t56 = tables_5_6();
        assert!(t56.contains("Table 5"));
        assert!(t56.contains("Table 6"));
        assert!(t56.contains("min perf index 5"));
    }

    #[test]
    fn designer_beats_the_hand_made_allocation() {
        let (hand, designed) = designer_vs_figure_11();
        assert!(
            designed <= hand + 1e-9,
            "designer {designed} must not lose to hand-made {hand}"
        );
        assert!(
            hand > 0.6,
            "hand-made allocation peaks in the 60-80% band: {hand}"
        );
        assert!(
            designed < 0.8,
            "designed peak stays under the overload level"
        );
    }

    /// The smoke digest must not depend on the lane width. 600 servers is
    /// above the lane clamp: `inner_jobs` 4 runs the per-server phase as
    /// three real lanes, not the sequential path again.
    #[test]
    fn scale_smoke_is_bit_identical_across_job_counts() {
        use autoglobe_simulator::MIN_SERVERS_PER_LANE;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let servers = 600;
        let lanes = AtomicUsize::new(0);
        pool::parallel_chunks_mut_min(4, MIN_SERVERS_PER_LANE, &mut vec![0u8; servers], |_, _| {
            lanes.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(lanes.into_inner(), 3, "inner_jobs 4 must split 600 servers");
        let sequential = scale_smoke(servers, 2, 7, 1);
        let wide = scale_smoke(servers, 2, 7, 4);
        assert_eq!(sequential, wide);
        assert!(sequential.contains("average_series_checksum,"));
    }

    /// A 200-server synthetic landscape in a trigger storm's shape must
    /// rank hosts bit-identically through the index and the exhaustive
    /// scan: eight application services run hot (with their instances and
    /// hosts), the rest of the pool idles.
    #[test]
    fn synthetic_rung_ranks_identically_through_the_index() {
        use autoglobe_controller::inputs::TableLoads;
        use autoglobe_controller::AutoGlobeController;
        use autoglobe_landscape::ActionKind;
        use autoglobe_monitor::{SimTime, Subject};
        let env = scale_environment(200, 42);
        let mut loads = TableLoads::new();
        let hot: Vec<_> = env.application_services().into_iter().take(8).collect();
        for &service in &hot {
            loads.set(Subject::Service(service), 0.93, 0.4);
            for instance in env.landscape.instances_of(service) {
                loads.set(Subject::Instance(instance), 0.95, 0.4);
                if let Ok(inst) = env.landscape.instance(instance) {
                    loads.set(Subject::Server(inst.server), 0.94, 0.5);
                }
            }
        }
        let now = SimTime::from_hours(9);
        let mut controller = AutoGlobeController::new();
        for kind in [ActionKind::Start, ActionKind::ScaleOut, ActionKind::Move] {
            for &service in hot.iter().take(3) {
                let instance = env.landscape.instances_of(service).into_iter().next();
                let instance = kind.needs_target().then_some(instance).flatten();
                let indexed = controller.rank_hosts_indexed(
                    kind,
                    service,
                    instance,
                    &env.landscape,
                    &loads,
                    now,
                );
                let exhaustive = controller.rank_hosts_exhaustive(
                    kind,
                    service,
                    instance,
                    &env.landscape,
                    &loads,
                    now,
                );
                assert_eq!(indexed.len(), exhaustive.len(), "{kind:?} on {service}");
                for (a, b) in indexed.iter().zip(&exhaustive) {
                    assert_eq!(a.0, b.0, "{kind:?} on {service}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{kind:?} on {service}");
                }
            }
        }
    }

    #[test]
    fn ablation_rows_cover_all_variants() {
        let rows = ablation_decision_quality();
        assert_eq!(rows.len(), 6);
        // The baseline agrees with itself.
        let baseline = rows
            .iter()
            .find(|(label, _)| label == "max-min/leftmost-max")
            .unwrap();
        assert_eq!(baseline.1, 1.0);
        for (_, agreement) in &rows {
            assert!((0.0..=1.0).contains(agreement));
        }
    }
}

#[cfg(test)]
mod name_resolution_tests {
    use super::*;
    use autoglobe_landscape::InstanceId;
    use autoglobe_monitor::SimTime;
    use autoglobe_simulator::{InstancePoint, SeriesPoint};

    /// The figure renderers must label output with the names the run itself
    /// recorded — not with a freshly built Static environment, which would
    /// mislabel (or mis-size) any run whose scenario has a different
    /// landscape.
    #[test]
    fn renderers_use_the_metrics_name_tables() {
        let mut m = Metrics {
            server_names: vec!["Alpha".into(), "Beta".into()],
            service_names: vec!["OnlyService".into()],
            ..Metrics::default()
        };
        let t = SimTime::from_hours(2);
        m.average_series.push(SeriesPoint {
            time: t,
            value: 0.25,
        });
        m.server_series.insert(
            ServerId::new(1),
            vec![SeriesPoint {
                time: t,
                value: 0.5,
            }],
        );
        m.instance_series.insert(
            InstanceId::new(0),
            vec![InstancePoint {
                time: t,
                server: ServerId::new(1),
                value: 0.75,
            }],
        );

        let servers = all_servers_csv(&m);
        assert_eq!(
            servers,
            "hours,Alpha,Beta,average\n2.000,0.0000,0.5000,0.2500\n"
        );
        let fi = fi_series_csv(&m);
        assert_eq!(fi, "hours,instance,server,load\n2.000,inst#0,Beta,0.7500\n");
    }

    #[test]
    fn scenario_metrics_carry_their_environment_names() {
        // A real run records the scenario and the full name tables.
        let m = scenario_run(Scenario::FullMobility, 1.0, 2, 7);
        assert_eq!(m.scenario, Some(Scenario::FullMobility));
        assert_eq!(m.server_names.len(), 19);
        assert!(m.server_names.iter().any(|n| n == "Blade1"));
        assert!(m.server_names.iter().any(|n| n == "DBServer3"));
        assert!(m.service_names.iter().any(|n| n == "FI"));
        let csv = all_servers_csv(&m);
        assert!(csv.starts_with("hours,"));
        assert!(csv.lines().next().unwrap().contains("Blade1"));
    }

    /// Tentpole acceptance: Table 7 must be bit-identical however many
    /// worker threads probe the ladder — speculation must never change
    /// which steps are consumed or what they measured.
    #[test]
    fn table7_is_bit_identical_across_job_counts() {
        let sequential = table7_with_jobs(2, 7, 1);
        let parallel = table7_with_jobs(2, 7, 4);
        assert_eq!(sequential.len(), parallel.len());
        for ((s1, p1), (s2, p2)) in sequential.iter().zip(&parallel) {
            assert_eq!(s1, s2);
            assert_eq!(
                p1.to_bits(),
                p2.to_bits(),
                "{s1}: sequential {p1} % vs parallel {p2} %"
            );
        }
    }

    /// Fan-out of figure runs: the pooled metrics must render the very
    /// same CSV and action log as a sequential run with the same inputs.
    #[test]
    fn parallel_scenario_runs_match_sequential_renders() {
        let specs = [(Scenario::Static, 1.15), (Scenario::FullMobility, 1.15)];
        let pooled = scenario_runs(&specs, 2, 42, 4);
        assert_eq!(pooled.len(), specs.len());
        for ((scenario, multiplier), metrics) in specs.iter().zip(&pooled) {
            let sequential = scenario_run(*scenario, *multiplier, 2, 42);
            assert_eq!(all_servers_csv(metrics), all_servers_csv(&sequential));
            assert_eq!(fi_series_csv(metrics), fi_series_csv(&sequential));
            assert_eq!(action_log(metrics), action_log(&sequential));
        }
    }

    /// The ladder helper must reproduce `find_max_users`' own float
    /// accumulation step for step.
    #[test]
    fn capacity_ladder_matches_the_sequential_accumulation() {
        let ladder = capacity_ladder(0.05);
        assert_eq!(ladder[0].to_bits(), 1.0f64.to_bits());
        let mut m: f64 = 1.0;
        for &step in &ladder {
            assert_eq!(step.to_bits(), m.to_bits());
            m += 0.05;
        }
        assert!(m > 3.0, "the ladder ends exactly at the safety stop");
    }

    /// Chaos acceptance: the sweep must be bit-identical whatever the
    /// worker-pool size — per-point seeds are chained off the master seed
    /// before any point fans out.
    #[test]
    fn chaos_sweep_is_bit_identical_across_job_counts() {
        let sequential = chaos_sweep(2, 7, 1);
        let parallel = chaos_sweep(2, 7, 4);
        assert_eq!(sequential.len(), parallel.len());
        for ((s1, m1), (s2, m2)) in sequential.iter().zip(&parallel) {
            assert_eq!(s1.to_bits(), s2.to_bits());
            assert_eq!(m1.failures, m2.failures);
            assert_eq!(m1.detections, m2.detections);
            assert_eq!(m1.detection_latency_secs, m2.detection_latency_secs);
            assert_eq!(m1.recoveries, m2.recoveries);
            assert_eq!(m1.recovery_time_secs, m2.recovery_time_secs);
            assert_eq!(m1.exec_retries, m2.exec_retries);
            assert_eq!(m1.lost_sessions.to_bits(), m2.lost_sessions.to_bits());
            assert_eq!(m1.actions, m2.actions);
        }
        assert_eq!(chaos_csv(&sequential), chaos_csv(&parallel));
    }

    /// `shard_recovery.csv` is a function of (hours, seed) alone: the sweep
    /// fan-out (`--jobs`) and the per-plane scoped-thread fan-out
    /// (`--shards` of `experiments shardchaos`) are both output-neutral.
    #[test]
    fn shard_chaos_csv_is_bit_identical_across_job_and_plane_job_counts() {
        let baseline = shard_chaos_csv(&shard_chaos_sweep(2, 7, 1, 1));
        for (jobs, plane_jobs) in [(4, 1), (1, 2), (4, 4)] {
            assert_eq!(
                baseline,
                shard_chaos_csv(&shard_chaos_sweep(2, 7, jobs, plane_jobs)),
                "shard chaos diverged at jobs={jobs}, plane_jobs={plane_jobs}"
            );
        }
    }

    /// The shard-smoke digest omits the shard count on purpose — the
    /// partitioning must be invisible to the paper's scenarios, so the
    /// digest of a 1-shard plane equals the digest of a 4-shard one.
    #[test]
    fn shard_smoke_digest_is_shard_count_invariant() {
        let one = shard_smoke(1, 6, 42, 1);
        let four = shard_smoke(4, 6, 42, 2);
        assert_eq!(one, four);
        assert!(one.lines().count() >= 5, "digest must carry the metrics");
    }

    /// The CSV renderer exposes every robustness column the experiment
    /// documentation promises, one row per sweep point.
    #[test]
    fn chaos_csv_has_one_row_per_scale() {
        let rows = chaos_sweep(1, 7, 0);
        let csv = chaos_csv(&rows);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        for column in [
            "failure_scale",
            "mean_detection_latency_s",
            "mttr_s",
            "lost_sessions",
            "exec_retries",
            "exec_compensations",
        ] {
            assert!(header.contains(column), "missing column {column}");
        }
        assert_eq!(lines.count(), CHAOS_SCALES.len());
    }

    /// Proactive acceptance: the reactive-vs-proactive comparison must be
    /// bit-identical whatever the worker-pool size — both runs share the
    /// master seed, and the pool reorders nothing observable.
    #[test]
    fn proactive_compare_is_bit_identical_across_job_counts() {
        let sequential = proactive_compare(2, 7, 1);
        let parallel = proactive_compare(2, 7, 4);
        assert_eq!(sequential.len(), parallel.len());
        for ((p1, m1), (p2, m2)) in sequential.iter().zip(&parallel) {
            assert_eq!(p1, p2);
            assert_eq!(m1.actions, m2.actions);
            assert_eq!(m1.overload_secs, m2.overload_secs);
            assert_eq!(m1.proactive_triggers, m2.proactive_triggers);
            assert_eq!(m1.proactive_lead_secs, m2.proactive_lead_secs);
            assert_eq!(m1.total_demand.to_bits(), m2.total_demand.to_bits());
        }
        assert_eq!(proactive_csv(&sequential), proactive_csv(&parallel));
    }

    /// The proactive CSV has exactly one reactive and one proactive row and
    /// every documented column.
    #[test]
    fn proactive_csv_has_one_row_per_mode() {
        let rows = proactive_compare(2, 7, 0);
        let csv = proactive_csv(&rows);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        for column in [
            "mode",
            "overload_minutes",
            "actions",
            "proactive_triggers",
            "mean_lead_minutes",
        ] {
            assert!(header.contains(column), "missing column {column}");
        }
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("reactive,"));
        assert!(rows[1].starts_with("proactive,"));
    }

    /// The ladder sweep consumes each mode's ladder strictly in order, so
    /// fanning the modes across workers cannot change the answer — and the
    /// CSV section it renders is deterministic for CI to byte-diff.
    #[test]
    fn proactive_ladder_is_bit_identical_across_job_counts() {
        let sequential = proactive_capacity_ladder(2, 7, 1);
        let parallel = proactive_capacity_ladder(2, 7, 4);
        assert_eq!(sequential.len(), 2);
        assert!(!sequential[0].0);
        assert!(sequential[1].0);
        for ((p1, m1), (p2, m2)) in sequential.iter().zip(&parallel) {
            assert_eq!(p1, p2);
            assert_eq!(m1.to_bits(), m2.to_bits());
        }
        let csv = proactive_ladder_csv(&sequential);
        assert_eq!(csv, proactive_ladder_csv(&parallel));
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("ladder_mode,max_users_percent"));
        assert!(lines.next().unwrap().starts_with("reactive,"));
        assert!(lines.next().unwrap().starts_with("proactive,"));
    }

    #[test]
    fn two_digit_ids_resolve_before_their_prefixes() {
        let servers: Vec<String> = (0..19).map(|i| format!("Host{i}")).collect();
        let services: Vec<String> = (0..12).map(|i| format!("Svc{i}")).collect();
        let line = "move inst#3 to srv#17 for svc#11 then srv#1 and svc#1";
        let resolved = resolve_names(line, &servers, &services);
        assert_eq!(
            resolved,
            "move inst#3 to Host17 for Svc11 then Host1 and Svc1"
        );
    }
}
