//! The five workloads and the closed loops that drive them.
//!
//! The benchmark plays the deployment agent: it owns the load generator
//! ([`WorkloadEngine::advance`]) and drives the system under test — a
//! [`Supervisor`] or a [`ShardedControlPlane`] — only through public calls,
//! timing each call from outside. The loop is closed with one client:
//! interval t+1's measurements depend on the actions taken in interval t,
//! because users follow placement, so no open-loop schedule exists. The
//! loops below reproduce `SupervisedRun::step` and `ShardedRun::step` call
//! for call; the reference check proves it on every run by comparing
//! digests with the [`RunBuilder`] harnesses on identical inputs.

use crate::calibration::Calibration;
use crate::layers::Probe;
use crate::trace::Tracer;
use autoglobe::controller::{ControllerEvent, ExecutorConfig};
use autoglobe::landscape::{InstanceId, Landscape, ServerId, ServiceId, SynthConfig};
use autoglobe::monitor::{SimDuration, SimTime, Subject};
use autoglobe::simulator::{
    build_environment, synth_environment, Metrics, SapEnvironment, Scenario, ScenarioSpec,
    SimConfig, WorkloadEngine,
};
use autoglobe::{
    PlaneEvent, RunBuilder, ShardChaos, ShardedControlPlane, Supervisor, SupervisorConfig,
};
use autoglobe_bench::{CHAOS_EXEC_FAILURE_PROBABILITY, SHARD_CHAOS_SERVER_FAILURE_PER_HOUR};
use autoglobe_rng::{splitmix64, Rng};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Workload names, in the order `run.sh` runs them.
pub const NAMES: [&str; 5] = [
    "paper-fig13",
    "synth2k-busy",
    "synth2k-light",
    "shard4-failover",
    "paper-suite",
];

/// Result files `experiments all` writes besides `timings.csv`; each must
/// match the checked-in copy under `results/` byte for byte.
pub const SUITE_FILES: [&str; 16] = [
    "chaos_recovery.csv",
    "fig10_load_curves.csv",
    "fig12_all_servers_static.csv",
    "fig13_all_servers_constrained-mobility.csv",
    "fig14_all_servers_full-mobility.csv",
    "fig15_actions_static.log",
    "fig15_fi_instances_static.csv",
    "fig16_actions_constrained-mobility.log",
    "fig16_fi_instances_constrained-mobility.csv",
    "fig17_actions_full-mobility.log",
    "fig17_fi_instances_full-mobility.csv",
    "fig3_cpu_load_membership.csv",
    "proactive.csv",
    "scenario_suite.csv",
    "shard_recovery.csv",
    "table7_max_users.csv",
];

/// Owner-kill points of the failover workload. The failure rates come from
/// `autoglobe-bench`; these points, the 1 h repair and the executor's
/// latencies are literals inside `shard_chaos_run`, which exports no
/// constant for them.
const FAILOVER_KILL_FRACS: [f64; 2] = [0.35, 0.65];

/// Which landscape an episode runs on.
#[derive(Debug, Clone, Copy)]
pub enum EnvSpec {
    /// The paper's 19-server Figure 11 pool for a scenario.
    Paper(Scenario),
    /// `SynthConfig::sized(servers, seed)`.
    Synth { servers: usize, seed: u64 },
}

/// Which control plane an episode drives.
#[derive(Debug, Clone)]
pub enum Plane {
    Supervised,
    Sharded { shards: usize, chaos: ShardChaos },
}

/// One simulated run: landscape, simulation knobs, control plane.
#[derive(Debug, Clone)]
pub struct Episode {
    pub env: EnvSpec,
    pub sim: SimConfig,
    pub plane: Plane,
}

/// A workload: its episodes, and whether each repeat also runs the
/// researcher's batch job (`experiments all`).
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub episodes: Vec<Episode>,
    pub suite: bool,
}

impl Workload {
    /// Simulated intervals in one repeat of the job.
    pub fn intervals(&self) -> u64 {
        self.episodes.iter().map(|ep| ep.sim.num_ticks()).sum()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The seed chain of a workload family under the master `--seed`.
fn seed_chain(seed: u64, family: &str) -> u64 {
    let mut state = seed ^ fnv1a(family.as_bytes());
    splitmix64(&mut state)
}

/// Build workload `name` from the master seed. `hours` overrides every
/// episode's horizon (the smoke tests use two hours).
pub fn workload(name: &str, seed: u64, hours: Option<u64>) -> Option<Workload> {
    let horizon = |default: u64| SimDuration::from_hours(hours.unwrap_or(default));
    let (name, episodes, suite) = match name {
        "paper-fig13" => {
            let mut state = seed_chain(seed, name);
            let scenario = Scenario::ConstrainedMobility;
            let episodes = (0..20)
                .map(|_| Episode {
                    env: EnvSpec::Paper(scenario),
                    sim: SimConfig::paper(scenario, 1.15)
                        .with_seed(splitmix64(&mut state))
                        .with_duration(horizon(80)),
                    plane: Plane::Supervised,
                })
                .collect();
            ("paper-fig13", episodes, false)
        }
        "synth2k-busy" | "synth2k-light" => {
            // Both share one landscape and one load stream per master
            // seed; only the user level differs.
            let mut state = seed_chain(seed, "synth2k");
            let env = EnvSpec::Synth {
                servers: 2000,
                seed: splitmix64(&mut state),
            };
            let (name, users) = if name == "synth2k-busy" {
                ("synth2k-busy", 1.0)
            } else {
                ("synth2k-light", 0.5)
            };
            let sim = SimConfig::paper(Scenario::ConstrainedMobility, users)
                .with_seed(splitmix64(&mut state))
                .with_duration(horizon(24));
            let episode = Episode {
                env,
                sim,
                plane: Plane::Supervised,
            };
            (name, vec![episode], false)
        }
        "shard4-failover" => {
            // Four landscapes per repeat: the work of one 24 h day varies
            // from seed to seed (failures land on different servers), and
            // averaging four days cut the job-time spread across ten seeds
            // from 10 % to 6 %.
            let mut state = seed_chain(seed, name);
            let episodes = (0..4)
                .map(|_| Episode {
                    env: EnvSpec::Synth {
                        servers: 200,
                        seed: splitmix64(&mut state),
                    },
                    sim: SimConfig::paper(Scenario::ConstrainedMobility, 1.0)
                        .with_seed(splitmix64(&mut state))
                        .with_duration(horizon(24))
                        .with_execution(ExecutorConfig {
                            min_latency: SimDuration::from_secs(30),
                            max_latency: SimDuration::from_minutes(3),
                            timeout: SimDuration::from_minutes(2),
                            failure_probability: CHAOS_EXEC_FAILURE_PROBABILITY,
                            ..ExecutorConfig::reliable()
                        }),
                    plane: Plane::Sharded {
                        shards: 4,
                        chaos: ShardChaos {
                            server_failure_per_hour: SHARD_CHAOS_SERVER_FAILURE_PER_HOUR,
                            repair_after: SimDuration::from_hours(1),
                            kill_fracs: FAILOVER_KILL_FRACS.to_vec(),
                        },
                    },
                })
                .collect();
            ("shard4-failover", episodes, false)
        }
        "paper-suite" => {
            // Five episodes per scenario, so the loop half of a repeat is
            // long enough to time steadily next to the suite.
            let mut state = seed_chain(seed, name);
            let episodes = Scenario::ALL
                .into_iter()
                .flat_map(|scenario| std::iter::repeat_n(scenario, 5))
                .map(|scenario| Episode {
                    env: EnvSpec::Paper(scenario),
                    sim: SimConfig::paper(scenario, 1.15)
                        .with_seed(splitmix64(&mut state))
                        .with_duration(horizon(80)),
                    plane: Plane::Supervised,
                })
                .collect();
            ("paper-suite", episodes, true)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        episodes,
        suite,
    })
}

fn environment(env: EnvSpec) -> SapEnvironment {
    match env {
        EnvSpec::Paper(scenario) => build_environment(scenario),
        EnvSpec::Synth { servers, seed } => synth_environment(&SynthConfig::sized(servers, seed)),
    }
}

/// The supervisor configuration `RunBuilder` derives from `sim`: the
/// simulation's controller settings, and for a configured substrate an
/// executor seed drawn from the master seed's SplitMix64 chain.
fn supervisor_config(sim: &SimConfig) -> SupervisorConfig {
    let mut config = SupervisorConfig {
        controller: sim.controller,
        ..SupervisorConfig::default()
    };
    if let Some(execution) = &sim.execution {
        config.executor = execution.clone();
        let mut state = sim.seed ^ 0x9E37_79B9_7F4A_7C15;
        config.executor_seed = splitmix64(&mut state);
    }
    config
}

/// A workload engine plus the state every loop keeps beside its plane.
pub struct Agent {
    engine: WorkloadEngine,
    rng: Rng,
    metrics: Metrics,
    tick: SimDuration,
    ticks: u64,
}

impl Agent {
    fn new(env: SapEnvironment, sim: &SimConfig) -> (Self, Landscape) {
        let SapEnvironment {
            landscape,
            workloads,
        } = env;
        let modulation = ScenarioSpec::from(sim.scenario).modulation(&workloads);
        let mut engine = WorkloadEngine::new(&landscape, workloads, sim);
        engine.set_modulation(Some(modulation));
        let agent = Agent {
            engine,
            rng: Rng::seed_from_u64(sim.seed),
            metrics: Metrics::default(),
            tick: sim.tick,
            ticks: sim.num_ticks(),
        };
        (agent, landscape)
    }
}

/// A set-up episode, ready to run: the engine and the plane are built.
// One value exists per episode, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Ready {
    Supervised(Agent, Supervisor),
    Sharded(Agent, ShardedControlPlane, ShardChaos),
}

/// Build the landscape, the engine and the plane of `episode` — the work
/// `setup_s` measures.
pub fn setup(episode: &Episode) -> Ready {
    let env = environment(episode.env);
    let (agent, landscape) = Agent::new(env, &episode.sim);
    let config = supervisor_config(&episode.sim);
    match &episode.plane {
        Plane::Supervised => Ready::Supervised(agent, Supervisor::with_config(landscape, config)),
        Plane::Sharded { shards, chaos } => Ready::Sharded(
            agent,
            ShardedControlPlane::new(landscape, *shards, config).with_jobs(1),
            chaos.clone(),
        ),
    }
}

/// What the timed loop records for one repeat.
pub struct Recorder {
    pub tracer: Tracer,
    pub probe: Option<Probe>,
    /// Control-plane latency of every interval, in ns.
    pub interval_ns: Vec<f64>,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Intervals run so far (also the next interval's id).
    pub intervals: u64,
    /// `record_*` calls made.
    pub measurements: u64,
    /// Confirmed triggers handed back by `tick_collect`.
    pub triggers: u64,
    /// Host-speed slices run between intervals, outside every timed span.
    pub calibration: Calibration,
}

impl Recorder {
    /// A recorder for a job of `intervals` intervals; a traced one also
    /// probes the decision layer on up to 64 of them.
    pub fn new(traced: bool, intervals: u64) -> Self {
        Recorder {
            tracer: Tracer::new(traced),
            probe: traced.then(|| Probe::new(intervals)),
            interval_ns: Vec::new(),
            errors: 0,
            intervals: 0,
            measurements: 0,
            triggers: 0,
            calibration: Calibration::new(),
        }
    }
}

/// Run a set-up episode to its horizon; returns the run's metrics.
pub fn run(ready: Ready, rec: &mut Recorder) -> Metrics {
    match ready {
        Ready::Supervised(agent, supervisor) => run_supervised(agent, supervisor, rec),
        Ready::Sharded(agent, plane, chaos) => run_sharded(agent, plane, chaos, rec),
    }
}

fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// `SupervisedRun::step`, with `Supervisor::tick` taken apart into
/// `tick_collect` and one `dispatch_trigger` per confirmed trigger so each
/// decision is timed on its own.
fn run_supervised(agent: Agent, mut supervisor: Supervisor, rec: &mut Recorder) -> Metrics {
    let Agent {
        mut engine,
        mut rng,
        mut metrics,
        tick,
        ticks,
    } = agent;
    let no_failures: BTreeSet<InstanceId> = BTreeSet::new();
    let first_revision = supervisor.landscape().revision();
    let mut time = SimTime::ZERO;
    for _ in 0..ticks {
        time += tick;
        let id = rec.intervals;
        rec.intervals += 1;
        let tr = &mut rec.tracer;
        let root = tr.begin("interval", id, None);

        let span = tr.begin("simulator.advance", id, root);
        let loads = engine.advance(
            supervisor.landscape(),
            &no_failures,
            time,
            &mut rng,
            &mut metrics,
        );
        tr.end(span);

        let start = Instant::now();
        let span = tr.begin("monitor.ingest", id, root);
        let mut measured = 0;
        for (server, cpu, mem) in loads.server_entries() {
            supervisor.record_server(server, time, cpu, mem);
            measured += 1;
        }
        for (service, cpu) in loads.service_entries() {
            supervisor.record_service(service, time, cpu);
            measured += 1;
        }
        for (instance, cpu) in loads.instance_entries() {
            supervisor.record_instance(instance, time, cpu);
            measured += 1;
        }
        tr.end(span);

        let span = tr.begin("autoglobe.close", id, root);
        let collected = supervisor.tick_collect(time);
        tr.end(span);
        let (mut completed, triggers) = collected.unwrap_or_else(|_| {
            rec.errors += 1;
            (Vec::new(), Vec::new())
        });
        rec.triggers += triggers.len() as u64;
        for trigger in triggers {
            let span = tr.begin("controller.decide", id, root);
            match supervisor.dispatch_trigger(trigger, time) {
                Ok(done) => completed.extend(done),
                Err(_) => rec.errors += 1,
            }
            tr.end(span);
        }
        rec.interval_ns.push(elapsed_ns(start));

        let span = tr.begin("harness.mirror", id, root);
        for record in completed {
            engine.note_action(&record.outcome, supervisor.landscape(), time);
            metrics.actions.push(record);
        }
        for event in supervisor.drain_events() {
            if matches!(event, ControllerEvent::AdministratorAlert { .. }) {
                metrics.alerts += 1;
            }
        }
        tr.end(span);
        tr.end(root);
        rec.measurements += measured;

        if let Some(probe) = &mut rec.probe {
            probe.observe(id, supervisor.landscape(), engine.last_loads(), time);
        }
        rec.calibration.between_intervals();
    }
    metrics.duration = SimDuration::from_secs(tick.as_secs() * ticks);
    if let Some(probe) = &mut rec.probe {
        probe.finish_supervised(&mut supervisor, first_revision);
    }
    metrics
}

/// `ShardedRun::step` for a schedule-free scenario: ground-truth host
/// failures and owner kills are the agent's to inject; the plane learns of
/// them only through missing beats. The interval's control-plane latency is
/// its `record_*`, `beat` and `tick` calls.
fn run_sharded(
    agent: Agent,
    mut plane: ShardedControlPlane,
    chaos: ShardChaos,
    rec: &mut Recorder,
) -> Metrics {
    let Agent {
        mut engine,
        mut rng,
        mut metrics,
        tick,
        ticks,
    } = agent;
    let fail_per_tick = chaos.server_failure_per_hour * tick.as_secs() as f64 / 3600.0;
    let horizon = tick.as_secs() * ticks;
    let mut kill_times: Vec<SimTime> = chaos
        .kill_fracs
        .iter()
        .map(|f| SimTime::ZERO + SimDuration::from_secs((horizon as f64 * f) as u64))
        .collect();
    let mut down: BTreeSet<ServerId> = BTreeSet::new();
    let mut dead_instances: BTreeSet<InstanceId> = BTreeSet::new();
    let mut repairs_due: Vec<(SimTime, ServerId)> = Vec::new();
    let mut restart_queue: Vec<(ServiceId, InstanceId)> = Vec::new();
    let first_revision = plane.landscape().revision();
    let first_ingest = plane.ingest_stats();
    let mut time = SimTime::ZERO;
    for _ in 0..ticks {
        time += tick;
        let id = rec.intervals;
        rec.intervals += 1;
        let tr = &mut rec.tracer;
        let root = tr.begin("interval", id, None);

        let span = tr.begin("simulator.advance", id, root);
        let loads = engine.advance(
            plane.landscape(),
            &dead_instances,
            time,
            &mut rng,
            &mut metrics,
        );
        tr.end(span);

        let start = Instant::now();
        let span = tr.begin("monitor.ingest", id, root);
        let mut measured = 0;
        for (server, cpu, mem) in loads.server_entries() {
            if !down.contains(&server) {
                plane.record_server(server, time, cpu, mem);
                measured += 1;
            }
        }
        for (service, cpu) in loads.service_entries() {
            plane.record_service(service, time, cpu);
            measured += 1;
        }
        for (instance, cpu) in loads.instance_entries() {
            if !dead_instances.contains(&instance) {
                plane.record_instance(instance, time, cpu);
                measured += 1;
            }
        }
        tr.end(span);
        let mut control_ns = elapsed_ns(start);

        let span = tr.begin("harness.inject", id, root);
        let due: Vec<ServerId> = repairs_due
            .iter()
            .filter(|(at, _)| *at <= time)
            .map(|&(_, s)| s)
            .collect();
        repairs_due.retain(|(at, _)| *at > time);
        for server in due {
            down.remove(&server);
            plane.report_server_repaired(server, time);
        }
        if fail_per_tick > 0.0 {
            let servers: Vec<ServerId> = plane.landscape().server_ids().collect();
            for server in servers {
                if down.contains(&server) || !rng.random_bool(fail_per_tick) {
                    continue;
                }
                down.insert(server);
                repairs_due.push((time + chaos.repair_after, server));
                for instance in plane.landscape().instances_on(server) {
                    metrics.lost_sessions += engine.sever_sessions(plane.landscape(), instance);
                    dead_instances.insert(instance);
                }
                plane.set_server_available(server, false);
            }
        }
        while kill_times.first().is_some_and(|&at| at <= time) {
            kill_times.remove(0);
            let victim = plane.canonical();
            plane.kill(victim);
        }
        let alive: Vec<ServerId> = plane
            .landscape()
            .server_ids()
            .filter(|s| !down.contains(s))
            .collect();
        tr.end(span);

        let start = Instant::now();
        let span = tr.begin("monitor.beat", id, root);
        for &server in &alive {
            plane.beat(Subject::Server(server), time);
        }
        tr.end(span);
        let span = tr.begin("autoglobe.close", id, root);
        let report = plane.tick(time);
        tr.end(span);
        control_ns += elapsed_ns(start);
        rec.interval_ns.push(control_ns);
        rec.measurements += measured;

        let span = tr.begin("harness.mirror", id, root);
        match report {
            Ok(report) => {
                if let Some(probe) = &mut rec.probe {
                    probe.note_plane_tick(&report, plane.last_deltas());
                }
                for record in report.executed {
                    engine.note_action(&record.outcome, plane.landscape(), time);
                    metrics.actions.push(record);
                }
                for recovery in report.recoveries {
                    metrics.recoveries += recovery.outcome.recovered.len();
                    for &(instance, service) in &recovery.outcome.lost {
                        restart_queue.push((service, instance));
                    }
                }
                if let Some(probe) = &mut rec.probe {
                    probe.readoptions += report
                        .events
                        .iter()
                        .filter(|e| matches!(e, PlaneEvent::ShardReadopted { .. }))
                        .count() as u64;
                }
            }
            Err(_) => rec.errors += 1,
        }
        for (service, instance) in std::mem::take(&mut restart_queue) {
            if plane.retry_restart(service, instance, time).is_none() {
                restart_queue.push((service, instance));
            }
        }
        let landscape = plane.landscape();
        dead_instances.retain(|&i| landscape.instance(i).is_ok());
        for event in plane.drain_controller_events() {
            if matches!(event, ControllerEvent::AdministratorAlert { .. }) {
                metrics.alerts += 1;
            }
        }
        tr.end(span);
        tr.end(root);

        if let Some(probe) = &mut rec.probe {
            probe.observe(id, plane.landscape(), engine.last_loads(), time);
        }
        rec.calibration.between_intervals();
    }
    metrics.duration = SimDuration::from_secs(horizon);
    if let Some(probe) = &mut rec.probe {
        probe.finish_sharded(&mut plane, first_revision, first_ingest);
    }
    metrics
}

/// The same episode through the repository's own harness
/// (`RunBuilder::…supervised()` / `sharded()`), for the reference check.
pub fn reference(episode: &Episode) -> Metrics {
    let builder = RunBuilder::new(episode.sim.scenario)
        .sim(episode.sim.clone())
        .environment(environment(episode.env));
    match &episode.plane {
        Plane::Supervised => builder.supervised().run(),
        Plane::Sharded { shards, chaos } => {
            builder
                .shards(*shards)
                .plane_jobs(1)
                .shard_chaos(chaos.clone())
                .sharded()
                .run()
                .0
        }
    }
}

/// Digest of a job's outputs: per episode, every action record (floats at
/// full precision), the alert count, the overload seconds and the bits of
/// the total demand.
pub fn digest(runs: &[Metrics]) -> u64 {
    let mut text = String::new();
    for m in runs {
        writeln!(
            text,
            "actions {} alerts {} overload {} demand {:016x}",
            m.actions.len(),
            m.alerts,
            m.total_overload().as_secs(),
            m.total_demand.to_bits()
        )
        .expect("writing to a String cannot fail");
        for action in &m.actions {
            writeln!(text, "{action:?}").expect("writing to a String cannot fail");
        }
    }
    fnv1a(text.as_bytes())
}

/// Simulated server-minutes above the overload level, summed over a job.
pub fn overload_min(runs: &[Metrics]) -> f64 {
    runs.iter()
        .map(|m| m.total_overload().as_secs() as f64 / 60.0)
        .sum()
}

/// One `experiments all --hours 80 --jobs 1` in `workdir`.
pub struct SuiteRun {
    pub secs: f64,
    /// `(stage, seconds)` rows of the run's `timings.csv`.
    pub stages: Vec<(String, f64)>,
    /// Result files that are missing or differ from the checked-in copy.
    pub mismatches: Vec<String>,
}

/// Run the paper suite in a fresh `workdir` (removed afterwards) and check
/// its result files against `results`.
pub fn run_suite(experiments: &Path, results: &Path, workdir: &Path) -> Result<SuiteRun, String> {
    // The suite runs inside `workdir`, where a relative path would not resolve.
    let experiments = std::fs::canonicalize(experiments)
        .map_err(|e| format!("{}: {e}", experiments.display()))?;
    let _ = std::fs::remove_dir_all(workdir);
    std::fs::create_dir_all(workdir).map_err(|e| format!("create {}: {e}", workdir.display()))?;
    let start = Instant::now();
    let status = std::process::Command::new(&experiments)
        .args(["all", "--hours", "80", "--jobs", "1"])
        .current_dir(workdir)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("run {}: {e}", experiments.display()))?;
    let secs = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("experiments all exited with {status}"));
    }
    let produced = workdir.join("results");
    let mismatches = SUITE_FILES
        .iter()
        .filter(|name| {
            let ours = std::fs::read(produced.join(name));
            let checked_in = std::fs::read(results.join(name));
            !matches!((ours, checked_in), (Ok(a), Ok(b)) if a == b)
        })
        .map(|name| name.to_string())
        .collect();
    let timings = std::fs::read_to_string(produced.join("timings.csv")).unwrap_or_default();
    let stages = timings
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split(',').collect();
            Some((cols.first()?.to_string(), cols.last()?.parse().ok()?))
        })
        .collect();
    std::fs::remove_dir_all(workdir).map_err(|e| format!("remove {}: {e}", workdir.display()))?;
    Ok(SuiteRun {
        secs,
        stages,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload at a two-hour horizon: the benchmark's loop must
    /// reproduce the repository's harness, and tracing must change no
    /// output bit.
    fn matches_its_reference_and_tracing_changes_nothing(name: &str) {
        let wl = workload(name, 7, Some(2)).expect("known workload");
        let reference: Vec<Metrics> = wl.episodes.iter().map(reference).collect();
        let mut digests = Vec::new();
        for traced in [false, true] {
            let mut rec = Recorder::new(traced, wl.intervals());
            let runs: Vec<Metrics> = wl
                .episodes
                .iter()
                .map(|ep| run(setup(ep), &mut rec))
                .collect();
            assert_eq!(rec.errors, 0, "{name}: no call may fail");
            assert_eq!(rec.interval_ns.len() as u64, rec.intervals);
            assert_eq!(rec.tracer.spans().is_empty(), !traced);
            digests.push(digest(&runs));
        }
        assert_eq!(digests[0], digest(&reference), "{name}: loop vs RunBuilder");
        assert_eq!(digests[0], digests[1], "{name}: traced vs untraced");
    }

    #[test]
    fn paper_fig13_smoke() {
        matches_its_reference_and_tracing_changes_nothing("paper-fig13");
    }

    #[test]
    fn synth2k_busy_smoke() {
        matches_its_reference_and_tracing_changes_nothing("synth2k-busy");
    }

    #[test]
    fn synth2k_light_smoke() {
        matches_its_reference_and_tracing_changes_nothing("synth2k-light");
    }

    #[test]
    fn shard4_failover_smoke() {
        matches_its_reference_and_tracing_changes_nothing("shard4-failover");
    }

    /// The loop half of paper-suite; its `experiments all` half is checked
    /// byte for byte on every benchmark run.
    #[test]
    fn paper_suite_smoke() {
        matches_its_reference_and_tracing_changes_nothing("paper-suite");
    }

    #[test]
    fn seeds_derive_from_the_master_seed() {
        let a = workload("paper-fig13", 1, None).unwrap();
        let b = workload("paper-fig13", 1, None).unwrap();
        let c = workload("paper-fig13", 2, None).unwrap();
        assert_eq!(a.episodes.len(), 20);
        assert_eq!(a.episodes[3].sim.seed, b.episodes[3].sim.seed);
        assert_ne!(a.episodes[3].sim.seed, c.episodes[3].sim.seed);
        let busy = workload("synth2k-busy", 5, None).unwrap();
        let light = workload("synth2k-light", 5, None).unwrap();
        assert_eq!(busy.episodes[0].sim.seed, light.episodes[0].sim.seed);
        assert!(workload("nope", 5, None).is_none());
    }
}
